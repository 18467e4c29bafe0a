"""Command-line driver: figure pipelines, verification suite, sweeps.

Exit statuses: 0 success, 1 check failure, uncertified run or stdout
closed early, 2 configuration error (non-finite numbers included), 3 any
other package error (non-finite values, branch tracking, degeneracy, ...).

``main`` also tunes its own process before the command runs (importing this
module does not; importing the package only pauses the collector, see
``nhsta``): see :func:`_tune_process`.  ``json`` and the SHA-256 of
the tables the manifest lists (:func:`_sha256`, the interpreter's built-in
module, so OpenSSL is never loaded) are imported where a file is written,
so ``verify`` loads neither.  A CSV table is formatted by one ``%`` per
block of rows, and written and hashed block by block, so its text is never
held whole.
"""
from __future__ import annotations

import argparse
import ctypes
import gc
import random
import sys
import time
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from . import __version__
from .biorthogonal import decompose, reconstruct
from .config import OPTIONS, ExperimentConfig, build_config
from .errors import ConfigError, NhStaError
from .experiments import (CERTIFIED_BY, RUN_CHECKS, run_shortcut,
                          shortcut_tables, theta_series, zplane_series)
from .grids import TimeGrid
from .propagation import integrate  # noqa: F401
from .propagation import scan_table
from .synthesis import POLICY_HERMITIAN
from .two_level import classify_regime

FIGURE1_DEFAULT_GAMMAS = (0.3, 3.0)
FIGURE2_DEFAULT_GAMMAS = (0.3, 3.0, 0.0)
FIGURE3_DEFAULT_GAMMAS = (0.1, 0.3, 1.0)
FIGURE4_DEFAULT_GAMMAS = (1.0,)
VERIFY_DEFAULT_GAMMAS = (0.1, 0.3, 1.0, 3.0)


def _sha256():
    """A new SHA-256 hasher.

    Taken from the interpreter's built-in module (``_sha2`` on Python
    3.12+, ``_sha256`` before): ``hashlib`` maps OpenSSL's libcrypto, about
    3.5 MB of resident memory, to hash a few kilobytes.  ``hashlib`` serves
    only an interpreter built without either module; the digest is the same.
    """
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256()


#: rows of a CSV table formatted, written and hashed at a time
CSV_BLOCK_ROWS = 1024


def _csv_blocks(header: Sequence[str], columns: Sequence) -> Iterator[bytes]:
    """The bytes of a CSV table in blocks of up to CSV_BLOCK_ROWS rows, the
    header line leading the first, so no block is empty.  A block is one
    ``%`` operation; a column's cells share the format of its first: ``%s``
    for text, integers and Python bools, ``%.17g`` for other numbers."""
    line = ",".join("%s" if isinstance(v, (str, int, np.integer)) else "%.17g"
                    for v in next(zip(*columns), ())) + "\n"
    rows, lines = zip(*columns), line * CSV_BLOCK_ROWS
    text = ",".join(header) + "\n"
    while True:
        cells = tuple(chain.from_iterable(islice(rows, CSV_BLOCK_ROWS)))
        text += lines[:len(cells) // len(columns) * len(line)] % cells
        if not text:
            return
        yield text.encode()
        text = ""


def _write(path: Path, blocks: Iterable[bytes], what: str,
           digest=None) -> None:
    """Write ``blocks`` to ``path`` in order, each also fed to the hasher
    ``digest`` if one is given, raising an OSError as a ConfigError."""
    try:
        with path.open("wb") as f:
            for block in blocks:
                f.write(block)
                if digest is not None:
                    digest.update(block)
    except OSError as exc:
        raise ConfigError(f"cannot write {what} {str(path)!r}: "
                          f"{exc.strerror}") from None


class OutputSet:
    """Collects emitted tables plus run metadata into a manifest."""

    def __init__(self, cfg: ExperimentConfig, command: str):
        self.dir = Path(cfg.out)
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # e.g. --out names an existing file
            raise ConfigError(f"cannot create output directory {cfg.out!r}: "
                              f"{exc.strerror}") from None
        self.fmt = cfg.format
        self.command = command
        self.config_echo = {name: getattr(cfg, name) for name in cfg.FIELDS}
        self.files: list = []
        self.runs: list = []

    def emit(self, name: str, header: Sequence[str], columns: Sequence) -> Path:
        """Write one table, a CSV streamed in blocks, and record its
        SHA-256 for the manifest.  The cells of a column share one type."""
        path = self.dir / f"{name}.{self.fmt}"
        if self.fmt == "csv":
            blocks = _csv_blocks(header, columns)
        else:
            import json
            # text, Python bools and floats kept; other numbers made floats
            rows = list(zip(*(
                c if not len(c) or isinstance(c[0], (str, bool, float))
                else np.asarray(c, dtype=float) for c in columns)))
            blocks = [(json.dumps({"columns": list(header), "rows": rows},
                                  indent=1) + "\n").encode()]
        digest = _sha256()
        _write(path, blocks, "table", digest)
        self.files.append({"path": path.name,
                           "sha256": digest.hexdigest()})
        return path

    def add_run(self, **meta) -> None:
        self.runs.append(meta)

    def write_manifest(self) -> Path:
        import json
        path = self.dir / f"{self.command}_manifest.json"
        payload = {
            "command": self.command,
            "version": __version__,
            "config": self.config_echo,
            "runs": self.runs,
            "files": self.files,
        }
        _write(path, [(json.dumps(payload, indent=1, default=str)
                       + "\n").encode()], "manifest")
        return path


def _tables(cfg: ExperimentConfig, command: str, default: tuple) -> dict:
    """Table name -> decay rate of a figure command, in order.  A name
    carries the rate at %g precision, so two rates that print alike would
    write one file: ConfigError names both, before any file is written."""
    tables: dict = {}
    for gamma in cfg.gammas(default):
        name = f"{command}_gamma{gamma:g}".replace("-", "m")
        if name in tables:
            raise ConfigError(
                f"decay rates {tables[name]!r} and {gamma!r} would both "
                f"write {name}.{cfg.format}")
        tables[name] = gamma
    return tables


def _single(values: tuple, what: str) -> str:
    if len(values) != 1:
        raise ConfigError(f"this command takes a single {what}, got {values}")
    return values[0]


def _pulse(cfg: ExperimentConfig, gamma: float):
    """The pulse of one decay rate and the branch regime that labels it,
    picked by the peak Rabi frequency (:attr:`ExperimentConfig.peak_omega`)."""
    return cfg.pulse_for(gamma), classify_regime(cfg.peak_omega, gamma)


def cmd_figure1(cfg: ExperimentConfig) -> int:
    """Radicand trajectories (t, Re Z, Im Z, eta, regime) per decay rate."""
    tables = _tables(cfg, "figure1", FIGURE1_DEFAULT_GAMMAS)
    out = OutputSet(cfg, "figure1")
    grid = cfg.grid
    for name, gamma in tables.items():
        pulse, regime = _pulse(cfg, gamma)
        series = zplane_series(pulse, grid, regime)
        out.emit(name, ["t", "re_z", "im_z", "eta", "regime"],
                 [series["t"], series["re_z"], series["im_z"], series["eta"],
                  [regime.value] * grid.n_points])
        out.add_run(gamma=gamma, regime=regime.value)
    out.write_manifest()
    return 0


def cmd_figure2(cfg: ExperimentConfig) -> int:
    """Complex mixing angle (t, Re theta, Im theta) per decay rate."""
    tables = _tables(cfg, "figure2", FIGURE2_DEFAULT_GAMMAS)
    out = OutputSet(cfg, "figure2")
    grid = cfg.grid
    for name, gamma in tables.items():
        series = theta_series(cfg.pulse_for(gamma), grid)
        out.emit(name, ["t", "re_theta", "im_theta"],
                 [series["t"], series["re_theta"], series["im_theta"]])
        out.add_run(gamma=gamma)
    out.write_manifest()
    return 0


def _flag_uncertified(gamma: float, policy: str, initial: str,
                      metrics: dict) -> bool:
    """Print one stderr line for an uncertified run; True if it was."""
    if metrics["certified"]:
        return False
    readings = " ".join(f"{key}={metrics[key]:.3e} "
                        f"(bound {RUN_CHECKS[name][0]:g})"
                        for key, name in CERTIFIED_BY.items())
    print(f"uncertified: gamma={gamma:g} policy={policy} "
          f"initial_state={initial} {readings}", file=sys.stderr)
    return True


def _population_figure(cfg: ExperimentConfig, command: str,
                       default_gammas: tuple, header: Sequence[str],
                       columns) -> int:
    """One certified shortcut run per decay rate, emitted as ``header``
    with t followed by ``columns(amps)``; status 1 if any run is
    uncertified (every table and the manifest are still written)."""
    tables = _tables(cfg, command, default_gammas)
    policy = _single(cfg.policies, "policy")
    initial = _single(cfg.initial_states, "initial state")
    out = OutputSet(cfg, command)
    grid = cfg.grid
    uncertified = 0
    for name, gamma in tables.items():
        pulse, regime = _pulse(cfg, gamma)
        started = time.perf_counter()
        run = run_shortcut(pulse, grid, policy=policy, initial_state=initial)
        elapsed = time.perf_counter() - started
        out.emit(name, header, [run.table.grid.samples] + columns(run.amps))
        metrics = run.metrics
        out.add_run(gamma=gamma, policy=policy, initial_state=initial,
                    wall_time_s=elapsed, regime=regime.value, **metrics)
        uncertified += _flag_uncertified(gamma, policy, initial, metrics)
        del run  # free it before the next decay rate's run is built
    out.write_manifest()
    return 1 if uncertified else 0


def cmd_figure3(cfg: ExperimentConfig) -> int:
    """Raw and modified eigenstate populations for the shortcut pipeline."""
    return _population_figure(
        cfg, "figure3", FIGURE3_DEFAULT_GAMMAS,
        ["t", "c_plus_sq", "c_minus_sq", "g_plus_sq", "g_minus_sq"],
        lambda a: [np.abs(a.c_plus) ** 2, np.abs(a.c_minus) ** 2,
                   a.pop_phi_plus, a.pop_phi_minus])


def cmd_figure4(cfg: ExperimentConfig) -> int:
    """Bare-state populations, raw and renormalized."""
    return _population_figure(
        cfg, "figure4", FIGURE4_DEFAULT_GAMMAS,
        ["t", "p0", "p1", "p0_plus_p1", "p0_renorm", "p1_renorm"],
        lambda a: [a.pop_bare_0, a.pop_bare_1, a.pop_bare_0 + a.pop_bare_1,
                   a.pop_bare_0_renorm, a.pop_bare_1_renorm])


def _shared_table_runs(cfg: ExperimentConfig, gamma: float):
    """(policy, initial state, wall time, metrics led by the regime label)
    of every policy and initial state of one decay rate.  The policies
    share one angle path and H0, and each policy's initial states share one
    certified table.  Each wall time includes an equal share of its table's
    build time and of the decay rate's shared build time."""
    started = time.perf_counter()
    pulse, regime = _pulse(cfg, gamma)
    tables = shortcut_tables(pulse, cfg.grid, cfg.policies)
    n_states = len(cfg.initial_states)
    gamma_share = ((time.perf_counter() - started)
                   / (len(cfg.policies) * n_states))
    runs = []
    for policy in cfg.policies:
        started = time.perf_counter()
        table = next(tables)
        share = gamma_share + (time.perf_counter() - started) / n_states
        for initial in cfg.initial_states:
            started = time.perf_counter()
            metrics = {"regime": regime.value, **table.run(initial).metrics}
            runs.append((policy, initial, share + time.perf_counter() - started,
                         metrics))
        del table  # free it before the next policy's table is built
    return runs


def cmd_sweep(cfg: ExperimentConfig) -> int:
    """Cross-product gamma x policy x initial state, one metrics row each.

    The policies of each gamma share one angle path and H0; each (gamma,
    policy) table is built once and run from every initial state.
    Uncertified rows are flagged in the table and on stderr, and make the
    exit status 1 (the table and manifest are still written).
    """
    gammas = cfg.gammas()  # no default decay rates: refuses a missing list
    out = OutputSet(cfg, "sweep")
    rows: list = []
    uncertified = 0
    for gamma in gammas:
        for policy, initial, elapsed, m in _shared_table_runs(cfg, gamma):
            rows.append([gamma, policy, initial, *m.values()])
            out.add_run(gamma=gamma, policy=policy, initial_state=initial,
                        wall_time_s=elapsed, **m)
            uncertified += _flag_uncertified(gamma, policy, initial, m)
    # the columns after the labels are the metrics, led by the regime
    header = ["gamma", "policy", "initial_state", *m]
    out.emit("sweep", header, list(map(list, zip(*rows))))
    out.write_manifest()
    return 1 if uncertified else 0


H_RABI = 0.5 * np.array([[0, 1], [1, 0]], dtype=complex)
H_DECAY = 0.5 * np.array([[0, 0], [0, -1j]], dtype=complex)


def _propagate_constant(h: np.ndarray, psi0, grid: TimeGrid):
    """RK4 trajectory of a constant H from one broadcast kernel table."""
    table = np.broadcast_to(h.reshape(4, 1, 1), (4, 2, grid.steps + 1))
    return scan_table(table, grid).apply(psi0)[0]


def rabi_error(steps: int) -> float:
    """Final-state error of RK4 for resonant Rabi flopping over t in [0, 10]."""
    traj = _propagate_constant(H_RABI, [1, 0], TimeGrid(0.0, 10.0, steps))
    exact = np.array([np.cos(5.0), -1j * np.sin(5.0)])
    return float(np.max(np.abs(traj.psi[-1] - exact)))


def decay_error(steps: int) -> float:
    """Relative error of RK4 for pure exponential decay over t in [0, 2]."""
    traj = _propagate_constant(H_DECAY, [0, 1], TimeGrid(0.0, 2.0, steps))
    return abs(abs(traj.psi[-1, 1]) - np.exp(-1.0)) / np.exp(-1.0)


def random_corpus():
    """Yield (stack, decomposition) for 60 random dense matrices, one stack
    per dimension 2, 3 and 4, each decomposed in one call.

    Dimensions are uniform in 2..4 and entries uniform in [-1, 1] + i[-1, 1],
    drawn from the stdlib ``random.Random(7)``: numpy's own imports load
    ``random`` already, while importing ``numpy.random`` costs tens of
    milliseconds.  This seed draws no near-degenerate matrix (its smallest
    eigenvalue gap is 0.76); one would raise DegenerateSpectrum.
    """
    rng = random.Random(7)
    drawn: dict = {2: [], 3: [], 4: []}
    for _ in range(60):
        dim = rng.randint(2, 4)
        drawn[dim].append([complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                           for _ in range(dim * dim)])
    for dim, entries in drawn.items():
        stack = np.array(entries).reshape(-1, dim, dim)
        yield stack, decompose(stack, degeneracy_threshold=1e-6)


def _verify_checks(cfg: ExperimentConfig):
    """Yield (name, measured, bound, ok) for the self-verification suite."""
    bio = comp = rtrip = 0.0
    for m, sys_ in random_corpus():
        bio = max(bio, sys_.biorthogonality_defect())
        comp = max(comp, sys_.completeness_defect())
        rtrip = max(rtrip, float(np.max(np.abs(reconstruct(sys_) - m))))
    yield "biorthogonality[random-corpus]", bio, 1e-10, bio <= 1e-10
    yield "completeness[random-corpus]", comp, 1e-10, comp <= 1e-10
    yield "round-trip[random-corpus]", rtrip, 1e-10, rtrip <= 1e-10

    ratio = rabi_error(500) / rabi_error(1000)
    yield "rk4-order[rabi]", ratio, "within [8, 32]", 8.0 <= ratio <= 32.0

    rel = decay_error(4000)
    yield "decay-exact[relative]", rel, 1e-8, rel <= 1e-8

    for gamma in cfg.gammas(VERIFY_DEFAULT_GAMMAS):
        run = run_shortcut(cfg.pulse_for(gamma), cfg.grid,
                           policy=POLICY_HERMITIAN)
        for name, measured, bound, ok in run.checks():
            yield f"{name}[gamma={gamma:g}]", measured, bound, ok
        del run  # free it before the next decay rate's run is built


def cmd_verify(cfg: ExperimentConfig) -> int:
    """Run the invariant suite; nonzero exit status on any failure."""
    failures = 0
    for name, measured, bound, ok in _verify_checks(cfg):
        status = "PASS" if ok else "FAIL"
        failures += 0 if ok else 1
        print(f"{status}  {name}  measured={measured:.3e}  bound={bound}")
    total = "all checks passed" if failures == 0 else f"{failures} check(s) FAILED"
    print(f"verify: {total}")
    return 0 if failures == 0 else 1


COMMANDS = {
    "figure1": cmd_figure1,
    "figure2": cmd_figure2,
    "figure3": cmd_figure3,
    "figure4": cmd_figure4,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
}


def build_parser() -> argparse.ArgumentParser:
    """One parser: the command, then options shared by every command, which
    may stand before or after it."""
    parser = argparse.ArgumentParser(
        prog="nh-sta",
        description="Engineered fast passage for a decaying two-level system: "
                    "figure pipelines, parameter sweeps, and self-verification.",
    )
    parser.add_argument("command", choices=COMMANDS,
                        help="figure1-figure4 write the figure tables, sweep "
                             "a metrics row per decay rate, policy and "
                             "initial state, verify runs the checks")
    parser.add_argument("--config", help="flat key = value configuration file")
    for name, kind, default, text in OPTIONS:
        # a malformed number is a usage error; a gamma list is read later
        parser.add_argument(
            "--" + name.replace("_", "-"),
            type=kind if kind in (int, float) else None,
            help=text if default is None else f"{text}; default {default}")
    return parser


def _tune_process() -> None:
    """Cut the process overhead around a command's numerics.

    ``gc.freeze()`` moves every object alive now (numpy, argparse and the
    package, about 22k objects) into the permanent generation, so neither
    the run's own collections nor the final one at exit traverse them.
    The package's import has already moved its objects to the oldest
    generation, so the cycles numpy's import left unreachable are frozen
    here too.  It runs only while nothing is frozen: a second ``main`` in
    one process would otherwise freeze whatever its caller left alive,
    garbage included, never to be collected.  On glibc, raising the trim
    and mmap thresholds keeps the pages freed with one table mapped for the
    next, instead of returning them to the kernel and faulting them in
    again.  Where the C library has no ``mallopt`` that step is skipped.
    """
    if not gc.get_freeze_count():
        gc.freeze()
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # TypeError: on Windows
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD, 1 GiB: keep freed pages mapped
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: glibc's own 64-bit ceiling


def main(argv: Optional[Sequence[str]] = None) -> int:
    _tune_process()
    overrides = vars(build_parser().parse_args(argv))
    command = overrides.pop("command")
    try:
        cfg = build_config(overrides.pop("config"), **overrides)
        cfg.validate()
        status = COMMANDS[command](cfg)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return status
    except BrokenPipeError:
        # The reader closed stdout early (e.g. `nh-sta verify | head`): send
        # what is still buffered to devnull so the exit flush stays quiet.
        import os
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        finally:
            os.close(devnull)
        return 1
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NhStaError as exc:
        print(f"numerical error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
