#!/usr/bin/env python3
"""Benchmark of the nh-sta CLI: wall time to certified tables.

    python3 bench/run.py --workload sweep18 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Runs ``nh-sta`` (``nhsta.cli.main`` from ``src/``) as child processes, one at
a time, with BLAS/OpenMP threads pinned to one, and checks every output.
``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
workload plain and then under ``bench/trace_child.py`` and reports the
per-layer metrics.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  See bench/README.md.

The end-to-end times are scaled to a reference host: while each timed child
runs, bench/calibrate.py measures how fast the host runs a fixed kernel on
the same CPU (see PAUSE_EVERY_S below).

The children are started with vfork, so each child's ``ru_maxrss`` is at
least this process's own peak RSS.  This process therefore stays small: it
reads large outputs line by line, and it imports numpy only for the
tabulated workload.
"""
import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_build"
REFERENCE = BENCH / "reference.json"

# README bounds and tolerance hierarchy.
CONVERGENCE_BOUND = 1e-7
RESIDUAL_BOUND = 1e-10
ODE_TOL = 1e-5
ALGEBRAIC_TOL = 1e-10

SETUP_REPEATS = 5
LAYERS = ("cli", "config", "experiments", "two_level", "synthesis", "gauges",
          "propagation", "biorthogonal", "grids")

SWEEP_POLICIES = ("hermitian-realizable", "naive-cd", "general-omega-zero")
SWEEP_STATES = ("eigen-plus", "bare-ground")
SWEEP_FIELDS = ("g_plus_sq_final", "p0_renorm_final", "p1_final",
                "max_abs_g_minus")
FIGURE3_GAMMAS = (0.1, 0.3, 1.0)  # the CLI's default figure3 list

# Tabulated pulse: the paper's sech/tanh pulse on [-1, 1], coarser than the
# 4000-step grid, with a smooth seeded perturbation of a few percent.
OMEGA0, DELTA0, TAU = 1.0, 9.0, 1.0
PULSE_POINTS = 801
PULSE_HARMONICS = 3
PULSE_WIGGLE = 0.01


def child_env():
    """Fixed environment for every child: same threads, no output override."""
    env = {"PATH": os.environ.get("PATH", "/usr/bin:/bin"),
           "PYTHONPATH": str(SRC),
           "PYTHONDONTWRITEBYTECODE": "1",
           "OMP_NUM_THREADS": "1",
           "OPENBLAS_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1",
           "LC_ALL": "C"}
    if "HOME" in os.environ:
        env["HOME"] = os.environ["HOME"]
    return env


CLI = [sys.executable, "-c",
       "import sys; from nhsta.cli import main; sys.exit(main())"]
TRACED_CLI = [sys.executable, str(BENCH / "trace_child.py")]
CALIBRATE = [sys.executable, str(BENCH / "calibrate.py")]

# Host speed.  On a shared host the same code runs up to about twice as slow
# while another tenant is busy on the same physical core, for seconds to
# minutes at a time; wall and CPU time both stretch.  So every timed child is
# paused every PAUSE_EVERY_S seconds while calibrate.py runs one pass of its
# fixed kernel on the same CPU, and the child's times are scaled by
# REFERENCE_PASS_S / (mean pass time).  REFERENCE_PASS_S is the pass time on
# an idle 2-core Xeon (Sapphire Rapids) KVM guest with Python 3.11.7 and
# numpy 2.4.6, so the scaled times read as seconds on that host when idle.
# The paused intervals are not counted in the child's wall time.  Sampling
# often matters more than long passes: the host's busy spells are short.
PAUSE_EVERY_S = 0.1
REFERENCE_PASS_S = 0.006


class Calibrator:
    """calibrate.py as a server: one kernel pass per request."""

    def __init__(self, cwd):
        self.proc = subprocess.Popen(CALIBRATE, cwd=cwd, env=child_env(),
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def measure(self):
        """(wall, CPU) seconds of one pass of the kernel."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("calibrate.py exited early")
        wall, cpu = map(float, line.split())
        return wall, cpu

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


@dataclass
class Invocation:
    label: str
    code: int
    cpu_s: float
    rss_mb: float
    stdout: Path
    stderr: Path
    started: float  # time.monotonic() around the child's whole life
    ended: float
    paused_s: float = 0.0
    passes: list = field(default_factory=list)  # (wall, CPU) of each pass

    @property
    def wall_s(self):
        """Wall time of the child, without the calibration pauses."""
        return self.ended - self.started - self.paused_s

    @property
    def slowdown(self):
        """(wall, CPU) pass time over the reference pass time, averaged
        over the passes made before, during and after the child."""
        return tuple(statistics.fmean(p[i] for p in self.passes)
                     / REFERENCE_PASS_S for i in (0, 1))

    @property
    def ref_wall_s(self):
        return self.wall_s / self.slowdown[0]

    @property
    def ref_cpu_s(self):
        return self.cpu_s / self.slowdown[1]


def spawn(argv, cwd, label, calibrator=None):
    """Run one child to completion; wall time, rusage and exit code.  With a
    calibrator, measure the host's speed before, during and after it."""
    stdout, stderr = cwd / f"{label}.stdout", cwd / f"{label}.stderr"
    passes, paused = [], 0.0
    if calibrator:
        passes.append(calibrator.measure())
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        started = time.monotonic()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                                stdout=out, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        try:
            while True:
                if calibrator and not select.select(
                        [pidfd], [], [], PAUSE_EVERY_S)[0]:
                    stopped = time.monotonic()
                    os.kill(proc.pid, signal.SIGSTOP)
                    _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
                    if os.WIFSTOPPED(status):
                        passes.append(calibrator.measure())
                        os.kill(proc.pid, signal.SIGCONT)
                        paused += time.monotonic() - stopped
                        continue
                else:
                    _, status, usage = os.wait4(proc.pid, 0)
                break
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            os.close(pidfd)
        ended = time.monotonic()
    if calibrator:
        passes.append(calibrator.measure())
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(label, proc.returncode, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024.0, stdout, stderr, started, ended,
                      paused, passes)


# ---------------------------------------------------------------- checks


@dataclass
class Ops:
    """Attempted operations, the reason each failed one failed, and a digest
    of each one's output for the rerun comparison."""

    attempted: int = 0
    failed: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)

    def add(self, key, digest=None, failure=None):
        self.attempted += 1
        self.digests[key] = digest
        if failure:
            self.failed[key] = failure


def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def manifest(out_dir, command):
    """The manifest, or None when it is missing or a checksum is wrong."""
    path = out_dir / f"{command}_manifest.json"
    if not path.is_file():
        return None
    data = json.loads(path.read_text())
    for entry in data["files"]:
        target = out_dir / entry["path"]
        if not target.is_file() or sha256(target) != entry["sha256"]:
            return None
    return data


def read_table(path):
    """CSV table as (header, list of raw lines without the header)."""
    lines = Path(path).read_text().splitlines()
    return lines[0].split(","), lines[1:]


def sampled_rows(path, picks):
    """Row count of a CSV table without its header, and its rows at the
    indices in ``picks``, read line by line."""
    found, rows = {}, 0
    with open(path) as fh:
        next(fh, None)  # header
        for rows, line in enumerate(fh, start=1):
            if rows - 1 in picks:
                found[rows - 1] = line.rstrip("\n")
    return rows, found


def fields_match(line, ref_line, tol):
    """Numeric fields within ``tol`` relative to max(1, |ref|); text equal."""
    got, want = line.split(","), ref_line.split(",")
    if len(got) != len(want):
        return False
    for a, b in zip(got, want):
        try:
            x, y = float(a), float(b)
        except ValueError:
            if a != b:
                return False
            continue
        if math.isnan(y) != math.isnan(x):
            return False
        if not math.isnan(y) and abs(x - y) > tol * max(1.0, abs(y)):
            return False
    return True


def certified(convergence, residual):
    """README bounds: convergence <= 1e-7, residual <= 1e-10 where defined."""
    return (convergence <= CONVERGENCE_BOUND
            and (math.isnan(residual) or residual <= RESIDUAL_BOUND))


def sweep_key(gamma, policy, initial):
    return f"{float(gamma):g}/{policy}/{initial}"


def check_sweep18(out_dir, invs, ref, tiny):
    """One op per row: certified, and within ODE_TOL of the seed reference
    where the seed row was certified."""
    ops = Ops()
    gammas = (0.3,) if tiny else (0.3, 1.0, 3.0)
    expected = [sweep_key(g, p, s) for g in gammas
                for p in SWEEP_POLICIES for s in SWEEP_STATES]
    broken = ("exit" if invs[0].code != 0
              else "manifest" if manifest(out_dir, "sweep") is None else None)
    rows = {}
    if broken is None:
        header, lines = read_table(out_dir / "sweep.csv")
        for line in lines:
            row = dict(zip(header, line.split(",")))
            rows[sweep_key(row["gamma"], row["policy"],
                           row["initial_state"])] = (row, line)
    for key in expected:
        if broken or key not in rows:
            ops.add(key, failure=broken or "missing")
            continue
        row, line = rows[key]
        want = None if tiny else ref["rows"][key]
        failure = None
        if want and want["certified"] and (
                row["regime"] != want["regime"]
                or any(abs(float(row[f]) - want[f]) > ODE_TOL
                       for f in SWEEP_FIELDS)):
            failure = "reference"
        elif not certified(float(row["convergence"]),
                           float(row["max_residual"])):
            failure = "uncertified"
        ops.add(key, digest=line, failure=failure)
    return ops


def check_tables_dense(out_dir, invs, ref, tiny):
    """One op per invocation: every file checksummed, row counts and sampled
    rows within ALGEBRAIC_TOL of the seed reference."""
    ops = Ops()
    for inv in invs:
        data = manifest(out_dir, inv.label) if inv.code == 0 else None
        if data is None:
            ops.add(inv.label, failure="exit" if inv.code else "manifest")
            continue
        digest = json.dumps(sorted((f["path"], f["sha256"])
                                   for f in data["files"]))
        failure = None
        if not tiny:
            want = ref[inv.label]
            if (data["runs"] != want["runs"]
                    or sorted(f["path"] for f in data["files"])
                    != sorted(want["files"])):
                failure = "reference"
            for name, expect in want["files"].items():
                if failure:
                    break
                picks = {int(i): line for i, line in expect["sample"].items()}
                rows, got = sampled_rows(out_dir / name, picks)
                if rows != expect["rows"] or not all(
                        i in got and fields_match(got[i], line, ALGEBRAIC_TOL)
                        for i, line in picks.items()):
                    failure = "reference"
        ops.add(inv.label, digest=digest, failure=failure)
    return ops


def verify_report(path):
    """{check name: status} from the verify printout."""
    checks = {}
    for line in Path(path).read_text().splitlines():
        parts = line.split()
        if len(parts) >= 2 and parts[0] in ("PASS", "FAIL"):
            checks[parts[1]] = parts[0]
    return checks


def check_verify(out_dir, invs, ref, tiny):
    """One op: exit 0, every check PASS, every seed check still present."""
    ops = Ops()
    inv = invs[0]
    checks = verify_report(inv.stdout)
    failure = None
    if inv.code != 0 or not checks or "FAIL" in checks.values():
        failure = "exit"
    elif not tiny and not set(ref["checks"]) <= set(checks):
        failure = "reference"
    ops.add("verify", digest=sha256(inv.stdout), failure=failure)
    return ops


def check_tabulated_figure3(out_dir, invs, ref, tiny):
    """One op per decay rate: certified, and the paper's claim holds on the
    seeded pulse: |g_+|^2 stays 1 and |g_-|^2 stays 0 within ODE_TOL."""
    import numpy as np

    ops = Ops()
    gammas = (0.3,) if tiny else FIGURE3_GAMMAS
    data = manifest(out_dir, "figure3") if invs[0].code == 0 else None
    runs = {} if data is None else {f"{r['gamma']:g}": r for r in data["runs"]}
    for gamma in gammas:
        key = f"{gamma:g}"
        if data is None or key not in runs:
            ops.add(key, failure="missing" if data else
                    ("exit" if invs[0].code else "manifest"))
            continue
        run = runs[key]
        path = out_dir / f"figure3_gamma{key}.csv"
        header, lines = read_table(path)
        table = np.array([line.split(",") for line in lines], dtype=float)
        g_plus = table[:, header.index("g_plus_sq")]
        g_minus = table[:, header.index("g_minus_sq")]
        failure = None
        if not tiny and (np.max(np.abs(g_plus - 1.0)) > ODE_TOL
                         or np.max(g_minus) > ODE_TOL ** 2):
            failure = "reference"
        elif not certified(run["convergence"], run["max_residual"]):
            failure = "uncertified"
        ops.add(key, digest=sha256(path), failure=failure)
    return ops


# ---------------------------------------------------------------- workloads


def pulse_table(seed, path):
    """Seeded tabulated pulse: t, Omega_R, Delta, comma-separated."""
    import numpy as np

    rng = np.random.default_rng(seed)
    t = np.linspace(-1.0, 1.0, PULSE_POINTS)
    k = np.arange(1, PULSE_HARMONICS + 1)[:, None]

    def wiggle():
        amp = rng.uniform(-PULSE_WIGGLE, PULSE_WIGGLE, (PULSE_HARMONICS, 1))
        phase = rng.uniform(0.0, 2.0 * np.pi, (PULSE_HARMONICS, 1))
        return 1.0 + np.sum(amp * np.sin(0.5 * np.pi * k * (t + 1.0) + phase),
                            axis=0)

    omega = OMEGA0 / np.cosh(t / TAU) * wiggle()
    delta = DELTA0 * np.tanh(t / TAU) * wiggle()
    np.savetxt(path, np.column_stack([t, omega, delta]), delimiter=",",
               fmt="%.17g")
    return path


def invocations(workload, run_dir, tiny):
    """(label, nh-sta arguments) for one run of a workload."""
    if workload == "sweep18":
        gammas = "0.3" if tiny else "0.3,1,3"
        return [("sweep", ["sweep", "--gamma", gammas,
                           "--policy", ",".join(SWEEP_POLICIES),
                           "--initial-state", ",".join(SWEEP_STATES)]
                 + (["--steps", "200"] if tiny else []))]
    if workload == "tables-dense":
        steps = "2000" if tiny else "200000"
        return [(cmd, [cmd, "--steps", steps]) for cmd in ("figure1", "figure2")]
    if workload == "verify":
        return [("verify", ["verify"]
                 + (["--gamma", "0.3", "--steps", "400"] if tiny else []))]
    if workload == "tabulated-figure3":
        return [("figure3", ["figure3", "--pulse-file",
                             str(run_dir / "pulse.csv")]
                 + (["--gamma", "0.3", "--steps", "400"] if tiny else []))]
    raise KeyError(workload)


CHECKS = {"sweep18": check_sweep18, "tables-dense": check_tables_dense,
          "verify": check_verify, "tabulated-figure3": check_tabulated_figure3}
WORKLOADS = tuple(CHECKS)


@dataclass
class Sample:
    invs: list
    ops: Ops
    traces: list

    @property
    def wall_s(self):
        return sum(inv.wall_s for inv in self.invs)

    @property
    def cpu_s(self):
        return sum(inv.cpu_s for inv in self.invs)

    @property
    def ref_wall_s(self):
        return sum(inv.ref_wall_s for inv in self.invs)

    @property
    def ref_cpu_s(self):
        return sum(inv.ref_cpu_s for inv in self.invs)


def run_sample(workload, run_dir, index, ref, tiny, calibrator=None):
    """One run of the workload: its CLI invocations, then the checks.
    Without a calibrator the invocations run under trace_child.py."""
    traced = calibrator is None
    out_dir = run_dir / f"sample{index}{'-traced' if traced else ''}"
    out_dir.mkdir()
    invs, traces = [], []
    for label, args in invocations(workload, run_dir, tiny):
        if traced:
            trace_path = out_dir / f"{label}.trace.json"
            argv = TRACED_CLI + [str(trace_path)] + args
        else:
            argv = CLI + args
        inv = spawn(argv + ["--out", str(out_dir)], out_dir, label,
                    calibrator)
        invs.append(inv)
        if traced and trace_path.is_file():
            trace = json.loads(trace_path.read_text())
            # Before cli.main: process launch, imports, installing wrappers.
            # After it: writing the trace and interpreter teardown.
            trace["startup_s"] = trace["main_start"] - inv.started
            trace["exit_s"] = inv.ended - trace["main_end"]
            traces.append(trace)
    ops = CHECKS[workload](out_dir, invs, ref, tiny)
    for inv in invs:
        if inv.code != 0:
            sys.stderr.write(f"{workload}: {inv.label} exited {inv.code}: "
                             f"{inv.stderr.read_text()[-2000:]}\n")
    shutil.rmtree(out_dir)
    return Sample(invs, ops, traces)


# ---------------------------------------------------------------- metrics


def tail(values):
    """Highest percentile with at least ten samples beyond it, with its
    label.  Below 21 samples that percentile is not above the median, so
    the maximum stands in for it."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 21:
        return ordered[-1], f"max of {n}"
    i = n - 11
    return ordered[i], f"p{100.0 * (i + 1) / n:.0f} of {n}"


def layer_metrics(sample, untraced_wall_s):
    """Per-layer metrics of one traced sample, as {name: (value, unit)}."""
    stats = defaultdict(lambda: [0, 0.0, 0.0])
    counters, errors = Counter(), Counter()
    startup = exit_s = 0.0
    spans = []
    for trace in sample.traces:
        for name, (calls, total, own) in trace["stats"].items():
            acc = stats[name]
            acc[0] += calls
            acc[1] += total
            acc[2] += own
        counters.update(trace["counters"])
        errors.update(trace["errors"])
        startup += trace["startup_s"]
        exit_s += trace["exit_s"]
        spans.extend(trace["spans"])

    def total(*names):
        return sum(stats[n][1] for n in names)

    steps = counters["propagation.rk4_steps"]
    redundant = counters["propagation.redundant_steps"]
    runs = [end - start for name, start, end, _, _ in spans
            if name == "experiments.run_shortcut"]
    self_s = {layer: sum(own for name, (_, _, own) in stats.items()
                         if name.partition(".")[0] == layer)
              for layer in LAYERS}
    traced_wall = sample.wall_s
    m = {
        "propagation.integrate_s": (total("propagation.integrate"), "s"),
        "propagation.convergence_s": (total("propagation.convergence_check"), "s"),
        "propagation.rk4_steps": (steps, "count"),
        "propagation.h_calls": (stats["experiments.h_callable"][0]
                                + stats["cli.h_callable"][0], "count"),
        "propagation.redundant_steps": (redundant, "count"),
        # No steps at all wastes none: the ratio is 1 on that empty base.
        "propagation.useful_step_ratio": (
            (steps - redundant) / steps if steps else 1.0, "ratio"),
        "propagation.amplitudes_s": (total("propagation.amplitudes"), "s"),
        "two_level.fallback_calls": (stats["two_level.theta_at"][0], "count"),
        "two_level.fallback_s": (total("two_level.theta_at",
                                       "two_level.mixing_angle_rate"), "s"),
        "two_level.mixing_angle_path_s": (total("two_level.mixing_angle_path"), "s"),
        "two_level.mixing_angle_path_points": (
            counters["two_level.mixing_angle_path_points"], "count"),
        "two_level.eigenvalue_path_s": (total("two_level.eigenvalue_path"), "s"),
        "cli.emit_s": (total("cli.emit"), "s"),
        "cli.emit_rows": (counters["cli.emit_rows"], "count"),
        "cli.emit_bytes": (counters["cli.emit_bytes"], "bytes"),
        "cli.manifest_s": (total("cli.write_manifest"), "s"),
        "synthesis.supplement_s": (total(
            "synthesis.hermitian_realizable",
            "synthesis.general_family_omega_zero",
            "synthesis.assemble_h1_series", "synthesis.matched_gauge",
            "synthesis.closed_form_gplus"), "s"),
        "synthesis.residual_s": (total("synthesis.nullification_residual"), "s"),
        "synthesis.frame_check_s": (total("synthesis.frame_coupling"), "s"),
        "gauges.gauge_s": (total("gauges.gauge_simple",
                                 "gauges.gauge_from_integrands"), "s"),
        "experiments.run_s": (statistics.median(runs) if runs else 0.0, "s"),
        "experiments.run_s.tail": (tail(runs)[0] if runs else 0.0, "s"),
        "experiments.run_calls": (len(runs), "count"),
        "experiments.run_self_s": (stats["experiments.run_shortcut"][2], "s"),
        "experiments.series_s": (total("experiments.theta_series",
                                       "experiments.zplane_series"), "s"),
        "config.load_pulse_file_s": (total("config.load_pulse_file"), "s"),
        "biorthogonal.decompose_calls": (stats["biorthogonal.decompose"][0],
                                         "count"),
        "biorthogonal.decompose_s": (total("biorthogonal.decompose"), "s"),
        "grids.index_of_calls": (stats["grids.index_of"][0], "count"),
        "trace.startup_s": (startup, "s"),
        "trace.exit_s": (exit_s, "s"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.overhead_s": (traced_wall - untraced_wall_s, "s"),
        "trace.accounted_frac": (
            (startup + sum(self_s.values()) + exit_s) / traced_wall, "ratio"),
        "trace.spans": (len(spans), "count"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_s[layer], "s")
        m[f"{layer}.errors"] = (errors[layer], "count")
    return m


# ---------------------------------------------------------------- runs


def source_lines():
    return sum(len(p.read_text().splitlines())
               for p in sorted((SRC / "nhsta").rglob("*.py")))


def git_sha():
    """HEAD of the checkout read from .git, or None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def bench(workload, seed, seconds, trace, tiny):
    """Run one workload for ``seconds``; (result JSON object, report lines)."""
    ref = ({} if tiny else json.loads(REFERENCE.read_text())).get(workload)
    SCRATCH.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=SCRATCH))
    try:
        if workload == "tabulated-figure3":
            pulse_table(seed, run_dir / "pulse.csv")
        calibrator = Calibrator(run_dir)
        try:
            setup = []
            if not trace:
                setup = [spawn(CLI[:2] + ["import nhsta.cli"], run_dir,
                               f"setup{i}", calibrator)
                         for i in range(1 if tiny else SETUP_REPEATS)]
                if any(inv.code for inv in setup):
                    raise RuntimeError("import nhsta.cli failed: "
                                       + setup[0].stderr.read_text()[-2000:])
            plain, traced = [], []
            deadline = time.perf_counter() + seconds
            while True:
                plain.append(run_sample(workload, run_dir, len(plain), ref,
                                        tiny, calibrator))
                if trace:
                    traced.append(run_sample(workload, run_dir, len(traced),
                                             ref, tiny))
                if time.perf_counter() >= deadline:
                    break
        finally:
            calibrator.close()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if trace:  # the spans of the last traced run, for inspection
        (SCRATCH / f"trace-{workload}.json").write_text(
            json.dumps(traced[-1].traces))

    # Reruns must emit the same bytes as the first run.
    failed = Counter()
    first = plain[0].ops.digests
    attempted = 0
    for sample in plain + traced:
        attempted += sample.ops.attempted
        for key, digest in sample.ops.digests.items():
            reason = sample.ops.failed.get(key)
            if reason is None and digest != first.get(key):
                reason = "rerun"
            if reason:
                failed[reason] += 1
    n_failed = sum(failed.values())
    correct = set(failed) <= {"uncertified"}

    lines = [f"workload {workload}  seed {seed}  run_seconds {seconds}  "
             f"samples {len(plain)}{f' + {len(traced)} traced' if trace else ''}"]
    passes = [p[0] for inv in setup + [i for s in plain for i in s.invs]
              for p in inv.passes]
    lines.append(f"  host slowdown {statistics.fmean(passes) / REFERENCE_PASS_S:.3g}"
                 f" (mean of {len(passes)} calibration passes); end-to-end "
                 f"times are scaled by its inverse, traced times are not")
    if trace:
        metrics_by_sample = [layer_metrics(s, p.wall_s)
                             for s, p in zip(traced, plain)]
        metrics = {name: (statistics.median(m[name][0]
                                            for m in metrics_by_sample), unit)
                   for name, (_, unit) in metrics_by_sample[0].items()}
        lines.append("  waits: none; one process and one thread, so no layer "
                     "waits on another")
    else:
        walls = [s.ref_wall_s for s in plain]
        tail_value, tail_label = tail(walls)
        setup_walls = [inv.ref_wall_s for inv in setup]
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "wall_s.tail": (tail_value, "s"),
            "cpu_s": (statistics.median(s.ref_cpu_s for s in plain), "s"),
            "setup_s": (statistics.median(setup_walls), "s"),
            "peak_rss_mb": (max(inv.rss_mb for s in plain for inv in s.invs
                                + setup), "MB"),
        }
        raw = statistics.median(s.wall_s for s in plain)
        notes = {"wall_s": f"median of {len(walls)}; unscaled {raw:.4g} s",
                 "wall_s.tail": tail_label,
                 "cpu_s": f"median of {len(walls)}, children user+sys",
                 "setup_s": f"median of {len(setup_walls)} fresh imports",
                 "peak_rss_mb": "largest child ru_maxrss"}
    for name, (value, unit) in metrics.items():
        note = "" if trace else f"  ({notes[name]})"
        lines.append(f"  {name:38s} {value:>16.6g} {unit}{note}")
    lines.append(f"  {'failed_frac':38s} {n_failed / attempted:>16.6g} ratio"
                 f"  ({n_failed} of {attempted} ops failed"
                 + "".join(f"; {r} {c}" for r, c in sorted(failed.items()))
                 + ")")
    env = {"git_sha": git_sha(), "nproc": os.cpu_count(),
           "python": platform.python_version(), "numpy": version("numpy"),
           "scipy": version("scipy"), "src_lines": source_lines(),
           "samples": len(plain), "traced_samples": len(traced),
           "child_processes": len(setup) + sum(len(s.invs)
                                               for s in plain + traced),
           "workload": workload, "seed": seed, "run_seconds": seconds}
    lines.append("  env " + json.dumps(env))
    result = {"correct": correct, "attempted": attempted, "failed": n_failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny problem sizes, no reference comparison "
                             "(for the smoke test)")
    args = parser.parse_args(argv)
    # One CPU for this process and every child, so that the calibration
    # passes run on the core whose speed they stand for.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if not (SRC / "nhsta" / "cli.py").is_file():
        print(f"bench: no nh-sta sources under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result, lines = bench(name, args.seed, args.seconds, args.trace,
                              args.tiny)
        print("\n".join(lines), flush=True)
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}/{metric}": value
                             for name, r in results.items()
                             for metric, value in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
