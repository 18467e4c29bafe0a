"""Smoke test of the benchmark: every workload at a tiny size, both modes.

    python3 -m pytest -q bench/test_smoke.py
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Every workload run.py knows, including any BENCHMARK.json leaves out.
WORKLOADS = ["sweep18", "tables-dense", "verify", "tabulated-figure3"]

# The metric names the benchmark promises, with their units.
END_TO_END = {"wall_s": "s", "wall_s.tail": "s", "cpu_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}
LAYER_NAMED = {
    "propagation.integrate_s": "s", "propagation.convergence_s": "s",
    "propagation.rk4_steps": "count", "propagation.h_calls": "count",
    "propagation.redundant_steps": "count",
    "propagation.useful_step_ratio": "ratio",
    "propagation.amplitudes_s": "s",
    "two_level.fallback_calls": "count", "two_level.fallback_s": "s",
    "two_level.mixing_angle_path_s": "s",
    "two_level.mixing_angle_path_points": "count",
    "two_level.eigenvalue_path_s": "s",
    "cli.emit_s": "s", "cli.emit_rows": "count", "cli.emit_bytes": "bytes",
    "cli.manifest_s": "s", "cli.self_s": "s",
    "synthesis.supplement_s": "s", "synthesis.residual_s": "s",
    "synthesis.frame_check_s": "s", "gauges.gauge_s": "s",
    "experiments.run_s": "s", "experiments.run_s.tail": "s",
    "experiments.run_calls": "count", "experiments.run_self_s": "s",
    "experiments.series_s": "s", "config.load_pulse_file_s": "s",
    "biorthogonal.decompose_calls": "count", "biorthogonal.decompose_s": "s",
    "trace.overhead_s": "s",
}
LAYERS = ("cli", "config", "experiments", "two_level", "synthesis", "gauges",
          "propagation", "biorthogonal")


def bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert any(line.strip().startswith("failed_frac") for line in lines)
    assert any(line.strip().startswith("env {") for line in lines)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    return result


def units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    got = units(bench(workload, 0)["metrics"])
    assert got == END_TO_END
    assert got == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    got = units(bench(workload, 1)["metrics"])
    assert got == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert LAYER_NAMED.items() <= got.items()
    for layer in LAYERS:
        assert got[f"{layer}.self_s"] == "s"
        assert got[f"{layer}.errors"] == "count"


def test_bare_directory_fails(tmp_path):
    """Without the program's sources the benchmark fails and prints no result."""
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
