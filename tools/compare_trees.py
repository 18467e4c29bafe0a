#!/usr/bin/env python3
"""Compare what two source trees of nh-sta emit on one fixed corpus.

    python3 tools/compare_trees.py PARENT CHANGE

PARENT and CHANGE are checkouts of this repository (each with the package
under ``src/``).  Every invocation of :data:`CORPUS` runs as a child
process in both trees, one at a time, each in its own working directory
holding only the input files of :func:`inputs` (a seeded pulse table and a
config file) with ``--out out``.  The report names, per invocation, a
differing exit status, stdout, stderr and ``verify`` PASS/FAIL line, and
for every emitted table, CSV or JSON, whose bytes differ, the largest
absolute and relative move per column.  Manifests are compared as JSON
without their ``wall_time_s`` and ``out`` entries, then byte for byte with
those two values left out.  The exit status is 0 when nothing differs and
1 otherwise.  Only the stdlib and numpy are used.
"""
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ALL_POLICIES = ["--policy",
                "hermitian-realizable,naive-cd,general-omega-zero",
                "--initial-state", "eigen-plus,bare-ground"]


def _rescaled(k: int) -> list:
    """The pulse rescaled by lambda = 10**-k: tau and the window times
    lambda, omega0, delta0 and gamma over it, written as literals."""
    return ["--tau", f"1e-{k}", "--t-final", f"1e-{k}", "--omega0", f"1e{k}",
            "--delta0", f"9e{k}", "--gamma", f"1e{k},3e{k}"]


#: flags of each row of ROADMAP's "What the checks miss" table, each run
#: as ``figure3`` and as ``verify``
GAP_TABLE = [
    ["--gamma", "30"], ["--gamma", "25"], ["--gamma", "1.7"],
    ["--gamma", "1.9"], ["--t-final", "3"], ["--t-final", "5"],
    ["--steps", "1000"], ["--gamma", "0.3", "--steps", "400"],
    ["--gamma", "2.1"], ["--gamma", "2.05"], ["--gamma", "1.99"],
    ["--gamma", "20"], ["--gamma", "18"], ["--gamma", "2.5"],
    ["--t-final", "2"], ["--steps", "2000"], ["--delta0", "20"],
    ["--delta0", "30", "--gamma", "1"],
    *(_rescaled(k) for k in range(2, 7)),
]

#: invocations that fail: exit 3 with each named error (one of them at a
#: command's default decay rate) and for a run too large to allocate, exit
#: 2 for a configuration error (one of them a missing input file, one a
#: negative decay rate in exponent form, one a list of policies where one
#: is taken) and for a flag abbreviation that argparse finds ambiguous, and
#: exit 1 for an uncertified row
ERROR_PATHS = [
    ["figure3", "--gamma", "2"],  # DegenerateRegime
    ["figure1", "--omega0", "1.5"],  # DegenerateRegime at a default rate
    ["figure3", "--gamma", "1000"],  # ZeroGauge
    ["sweep", "--gamma", "1e4", *ALL_POLICIES],  # SinThetaSingular
    ["figure3", "--gamma", "0.3", "--policy", "general-omega-zero",
     "--pulse-file", "ramp.csv"],  # InconsistentChoice
    ["figure1", "--gamma", "1e160"],  # NonFinite
    ["figure3", "--steps", "100000000000000000"],  # out of memory
    ["figure3", "--steps", "50"],  # a configuration error
    ["figure1", "--format", "xml"],  # an unknown name
    ["figure3", "--pulse-file", "missing.csv"],  # a missing input file
    ["figure3", "--steps", "100", "--gamma", "-1e-3"],  # a negative rate
    ["verify", "--policy", "naive-cd,general-omega-zero"],  # a policy list
    ["figure2", "--t", "-1e-3"],  # an ambiguous abbreviation
    ["figure3", "--gamma", "3", "--tau", "0.01"],  # uncertified
]

CORPUS = [
    ["figure1"], ["figure2"], ["figure3"], ["figure4"],
    ["sweep", "--gamma", "0.3,1,3", *ALL_POLICIES],  # the sweep18 workload
    ["sweep", "--gamma", "2.1,2.5,18,20,25,30", *ALL_POLICIES],
    ["verify"],
    # verify runs the configured policy from the configured state
    ["verify", "--gamma", "0.3", "--policy", "naive-cd", "--initial-state",
     "bare-ground"],
    # the JSON emitter's dense, population and sweep tables
    ["figure1", "--format", "json"], ["figure3", "--format", "json"],
    ["sweep", "--gamma", "0.3,1,3", *ALL_POLICIES, "--format", "json"],
    *([command, *flags] for flags in GAP_TABLE
      for command in ("figure3", "verify")),
    # the file readers: a tabulated pulse and a config file
    ["figure3", "--pulse-file", "pulse.csv"],
    ["sweep", "--gamma", "0.3,1", *ALL_POLICIES, "--pulse-file",
     "pulse.csv"],
    ["figure3", "--config", "run.cfg"],
    # a dash-led value as the token after its flag, and after an
    # abbreviation of it: numbers in exponent form, with an underscore and
    # not finite, and a gamma list led by a negative number
    ["figure2", "--t0", "-1e-3"],
    ["figure2", "--steps", "100", "--delta", "-9e0"],
    ["figure2", "--steps", "100", "--gamma", "-0,0.3"],
    ["figure2", "--steps", "100", "--delta0", "-1_0"],
    ["figure2", "--steps", "100", "--t0", "-inf"],
    # one uncertified run after a certified one, in a figure and a sweep
    ["figure4", "--gamma", "0.3,2.05"], ["sweep", "--gamma", "0.3,2.05"],
    # the zero-drive split where sin(theta) and dtheta vanish together
    ["figure3", "--gamma", "3", "--policy", "general-omega-zero", "--tau",
     "0.01"],
    ["figure3", "--gamma", "1", "--policy", "general-omega-zero",
     "--t-final", "30", "--steps", "30000"],
    *ERROR_PATHS,
]

#: manifest entries that differ from run to run or from tree to tree
IGNORED_KEYS = {"wall_time_s", "out"}
#: a manifest's IGNORED_KEYS entries with their values, as JSON spells them
IGNORED_ENTRY = re.compile(
    rb'"(?:wall_time_s|out)": (?:"(?:[^"\\]|\\.)*"|[^,\n}\]]*)')
CHECK_LINE = re.compile(r"(PASS|FAIL)  (\S+)  ")


def inputs(seed: int = 35, points: int = 401) -> dict:
    """File name -> text of the input files every invocation finds in its
    working directory.  ``pulse.csv`` is the default sech/tanh pulse on
    [-1, 1] at ``points`` times, each control times a seeded smooth wiggle
    of at most 3%; ``ramp.csv`` is Omega_R = (1 + t)/2, Delta = 9t on the
    same times, whose sin(theta) = 0 at t = -1 refuses the zero-drive
    split; ``run.cfg`` sets options through a config file."""
    rng = np.random.default_rng(seed)
    t = np.linspace(-1.0, 1.0, points)
    k = np.arange(1, 4)[:, None]

    def wiggle():
        amp = rng.uniform(-0.01, 0.01, (3, 1))
        phase = rng.uniform(0.0, 2.0 * np.pi, (3, 1))
        return 1.0 + np.sum(amp * np.sin(0.5 * np.pi * k * (t + 1.0) + phase),
                            axis=0)

    def table(omega_r, delta):
        return "".join("%.17g,%.17g,%.17g\n" % row
                       for row in zip(t, omega_r, delta))

    return {"pulse.csv": table(wiggle() / np.cosh(t),
                               9.0 * wiggle() * np.tanh(t)),
            "ramp.csv": table(0.5 * (1.0 + t), 9.0 * t),
            "run.cfg": "# options read from a file\ngamma = 0.3, 1\n"
                       "steps = 2000\npolicy = naive-cd\n"
                       "initial_state = bare-ground\nformat = json\n"}


def run_cli(tree: Path, args: list, cwd: Path) -> tuple:
    """(exit status, stdout, stderr) of ``nh-sta args`` from ``tree``'s
    source, run in ``cwd`` with its tables under ``cwd/out``."""
    env = {"PATH": os.environ.get("PATH", "/usr/bin:/bin"),
           "PYTHONPATH": str(Path(tree).resolve() / "src"),
           "PYTHONDONTWRITEBYTECODE": "1", "OMP_NUM_THREADS": "1",
           "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
           "LC_ALL": "C"}
    done = subprocess.run([sys.executable, "-m", "nhsta.cli", *args,
                           "--out", "out"], cwd=cwd, env=env,
                          capture_output=True, text=True)
    return done.returncode, done.stdout, done.stderr


def _check_lines(stdout: str) -> dict:
    return {m.group(2): m.group(1) for m in map(CHECK_LINE.match,
                                                stdout.splitlines()) if m}


def compare_runs(parent: tuple, change: tuple) -> list:
    """Differences between two (exit status, stdout, stderr) triples."""
    diffs = []
    if parent[0] != change[0]:
        diffs.append(f"exit status {parent[0]} -> {change[0]}")
    checks = _check_lines(parent[1]), _check_lines(change[1])
    for name in sorted(checks[0].keys() | checks[1].keys()):
        if checks[0].get(name) != checks[1].get(name):
            diffs.append(f"check {name}: {checks[0].get(name)} -> "
                         f"{checks[1].get(name)}")
    for stream, a, b in (("stdout", parent[1], change[1]),
                         ("stderr", parent[2], change[2])):
        a, b = a.splitlines(), b.splitlines()
        moved = [i for i in range(max(len(a), len(b)))
                 if a[i:i + 1] != b[i:i + 1]]
        if moved:
            i = moved[0]
            diffs.append(f"{stream}: {len(moved)} line(s) differ, first "
                         f"{a[i:i + 1]} -> {b[i:i + 1]}")
    return diffs


def _without(value, keys: set):
    """``value`` with every dict entry named in ``keys`` dropped."""
    if isinstance(value, dict):
        return {k: _without(v, keys) for k, v in value.items()
                if k not in keys}
    if isinstance(value, list):
        return [_without(v, keys) for v in value]
    return value


def _json_paths(a, b, at: str = "") -> list:
    """The paths at which two JSON values differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        return [p for k in sorted(a.keys() | b.keys())
                for p in _json_paths(a.get(k), b.get(k), f"{at}.{k}")]
    if (isinstance(a, list) and isinstance(b, list)
            and len(a) == len(b)):
        return [p for i, (x, y) in enumerate(zip(a, b))
                for p in _json_paths(x, y, f"{at}[{i}]")]
    return [] if a == b else [at or "."]


def _csv_columns(text: str) -> tuple:
    """(header, rows, columns) of a CSV table."""
    lines = text.splitlines()
    cells = [line.split(",") for line in lines[1:]]
    return lines[0].split(","), len(cells), list(zip(*cells))


def _json_columns(text: str) -> tuple:
    """(header, rows, columns) of a JSON table, from its ``columns`` and
    ``rows``."""
    table = json.loads(text)
    return table["columns"], len(table["rows"]), list(zip(*table["rows"]))


#: file suffix -> reader of a table's (header, rows, columns)
TABLE_READERS = {".csv": _csv_columns, ".json": _json_columns}


def column_moves(parent: tuple, change: tuple) -> list:
    """Per column of two tables, each (header, rows, columns) with one
    header: the largest absolute and relative move of a numeric column, or
    the count of differing cells of a text column."""
    (head_a, rows_a, cols_a), (head_b, rows_b, cols_b) = parent, change
    if head_a != head_b:
        return [f"header {head_a} -> {head_b}"]
    if rows_a != rows_b:
        return [f"rows {rows_a} -> {rows_b}"]
    moves = []
    for name, a, b in zip(head_a, cols_a, cols_b):
        try:
            x, y = np.array(a, dtype=float), np.array(b, dtype=float)
        except ValueError:
            n = sum(p != q for p, q in zip(a, b))
            if n:
                moves.append(f"column {name}: {n} cell(s) differ")
            continue
        same = (x == y) | (np.isnan(x) & np.isnan(y))
        if same.all():
            continue
        with np.errstate(invalid="ignore", divide="ignore"):
            move = np.where(same, 0.0, np.abs(x - y))
            rel = np.where(same, 0.0, move / np.abs(x))
        move, rel = (np.nan_to_num(v, nan=np.inf) for v in (move, rel))
        moves.append(f"column {name}: max abs move {np.max(move):.3e}, "
                     f"max rel move {np.max(rel):.3e}")
    return moves


def compare_dirs(parent: Path, change: Path) -> list:
    """Differences between the files two runs wrote into ``parent`` and
    ``change``: names, table cells by column, and manifests without
    :data:`IGNORED_KEYS`."""
    names = ({p.name for p in Path(parent).iterdir()},
             {p.name for p in Path(change).iterdir()})
    diffs = [f"{name}: only in {'parent' if name in names[0] else 'change'}"
             for name in sorted(names[0] ^ names[1])]
    for name in sorted(names[0] & names[1]):
        a, b = (Path(parent) / name).read_bytes(), (Path(change) / name
                                                    ).read_bytes()
        if name.endswith("_manifest.json"):
            paths = _json_paths(*(_without(json.loads(x), IGNORED_KEYS)
                                  for x in (a, b)))
            diffs += [f"{name}: {path} differs" for path in paths[:3]]
            if len(paths) > 3:
                diffs.append(f"{name}: {len(paths) - 3} more entries differ")
            if not paths and (IGNORED_ENTRY.sub(b"", a)
                              != IGNORED_ENTRY.sub(b"", b)):
                diffs.append(f"{name}: bytes differ")
        elif a != b:
            read = TABLE_READERS.get(Path(name).suffix)
            moves = (column_moves(read(a.decode()), read(b.decode()))
                     if read else [])
            diffs += [f"{name}: {m}" for m in moves or ["bytes differ"]]
    return diffs


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    trees = [Path(t) for t in argv]
    differing, files, files_in = 0, 0, inputs()
    with tempfile.TemporaryDirectory(prefix="compare-trees-") as scratch:
        for i, args in enumerate(CORPUS):
            cwds = [Path(scratch) / f"{side}{i}" for side in ("a", "b")]
            results = []
            for tree, cwd in zip(trees, cwds):
                cwd.mkdir()
                for name, text in files_in.items():
                    (cwd / name).write_text(text)
                results.append(run_cli(tree, args, cwd))
            outs = [cwd / "out" for cwd in cwds]
            diffs = compare_runs(*results)
            if all(out.is_dir() for out in outs):
                diffs += compare_dirs(*outs)
                files += sum(1 for _ in outs[0].iterdir())
            elif any(out.is_dir() for out in outs):
                diffs.append("only one tree wrote an output directory")
            label = " ".join(args)
            print(f"{'DIFF' if diffs else 'same'}  exit {results[0][0]}  "
                  f"{label}")
            for diff in diffs:
                print(f"    {diff}")
            differing += bool(diffs)
    print(f"compare_trees: {len(CORPUS)} invocations, {files} files; "
          + (f"{differing} invocation(s) differ" if differing
             else "no difference"))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
