#!/usr/bin/env python3
"""Record bench/reference.json from the sources in this checkout.

    python3 bench/record_reference.py

The reference holds, per analytic workload, what bench/run.py compares
later runs against: every sweep18 row with its certification at recording
time, the row counts, manifest runs and an evenly spaced subsample of rows
of every tables-dense file, and the names of the verify checks.
tabulated-figure3 needs none: its pulse depends on the seed, so it is
checked against the paper's claim instead (see check_tabulated_figure3).
"""
import sys

sys.dont_write_bytecode = True

import json  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import run  # noqa: E402

SAMPLE_ROWS = 11


def outputs(workload, tmp):
    """Run every invocation of a workload once; (out dir, invocation) pairs."""
    for label, args in run.invocations(workload, tmp, tiny=False):
        out = tmp / label
        out.mkdir()
        inv = run.spawn(run.CLI + args + ["--out", str(out)], out, label)
        if inv.code != 0:
            raise SystemExit(f"{label} exited {inv.code}: "
                             f"{inv.stderr.read_text()}")
        yield out, inv


def sweep18(tmp):
    (out, _), = outputs("sweep18", tmp)
    header, lines = run.read_table(out / "sweep.csv")
    rows = {}
    for line in lines:
        row = dict(zip(header, line.split(",")))
        key = run.sweep_key(row["gamma"], row["policy"], row["initial_state"])
        rows[key] = {"regime": row["regime"],
                     "certified": run.certified(float(row["convergence"]),
                                                float(row["max_residual"])),
                     **{f: float(row[f]) for f in run.SWEEP_FIELDS}}
    return {"rows": rows}


def tables_dense(tmp):
    ref = {}
    for out, inv in outputs("tables-dense", tmp):
        data = run.manifest(out, inv.label)
        files = {}
        for entry in data["files"]:
            _, lines = run.read_table(out / entry["path"])
            picks = np.linspace(0, len(lines) - 1, SAMPLE_ROWS).round()
            files[entry["path"]] = {
                "rows": len(lines),
                "sample": {str(i): lines[i] for i in picks.astype(int)}}
        ref[inv.label] = {"runs": data["runs"], "files": files}
    return ref


def verify(tmp):
    (_, inv), = outputs("verify", tmp)
    checks = run.verify_report(inv.stdout)
    if set(checks.values()) != {"PASS"}:
        raise SystemExit(f"verify did not pass: {checks}")
    return {"checks": sorted(checks)}


def main():
    run.SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="reference-", dir=run.SCRATCH))
    try:
        ref = {"recorded_at_git_sha": run.git_sha(),
               "sweep18": sweep18(tmp),
               "tables-dense": tables_dense(tmp),
               "verify": verify(tmp)}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.REFERENCE}")


if __name__ == "__main__":
    main()
