"""Run the nh-sta CLI with timing wrappers around each layer's public calls.

Usage: python3 bench/trace_child.py TRACE_OUT.json [nh-sta arguments ...]

Nothing in the package changes: this script swaps names in the calling
module's namespace (for example ``nhsta.experiments.integrate``) or on a
class (``nhsta.cli.OutputSet.emit``) for a timing wrapper, then calls
``nhsta.cli.main``.  Each wrapped call records a span (name, start, end,
parent span, run id); functions called thousands of times per run only add
to a call count and a summed time.  A layer's self time is the time of its
wrapped calls minus the time covered by wrapped calls nested inside them.
Everything stays in memory and is written to TRACE_OUT.json at exit.
"""
import sys
import time

_T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
from collections import Counter  # noqa: E402

import numpy as np  # noqa: E402

import nhsta.cli  # noqa: E402

_T_IMPORT = time.perf_counter()

from nhsta import (cli, config, experiments, grids, propagation,  # noqa: E402
                   synthesis)

# Called more than about a thousand times per run: counted, not spanned.
COUNTED = {"two_level.theta_at", "two_level.mixing_angle_rate",
           "grids.index_of", "experiments.h_callable", "cli.h_callable"}

# (owner, attribute, traced name).  The owner is the module or class the
# caller looks the name up in, so the wrapper sees every call from there.
PATCHES = [
    (cli, "build_config", "config.build_config"),
    (cli, "classify_regime", "two_level.classify_regime"),
    (cli, "run_shortcut", "experiments.run_shortcut"),
    (cli, "theta_series", "experiments.theta_series"),
    (cli, "zplane_series", "experiments.zplane_series"),
    (cli, "integrate", "propagation.integrate"),
    (cli, "decompose", "biorthogonal.decompose"),
    (cli, "reconstruct", "biorthogonal.reconstruct"),
    (cli.OutputSet, "emit", "cli.emit"),
    (cli.OutputSet, "write_manifest", "cli.write_manifest"),
    (config.ExperimentConfig, "pulse_for", "config.pulse_for"),
    (config, "load_pulse_file", "config.load_pulse_file"),
    (experiments, "mixing_angle_path", "two_level.mixing_angle_path"),
    (experiments, "eigenvalue_path", "two_level.eigenvalue_path"),
    (experiments, "radicand", "two_level.radicand"),
    (experiments, "branch_argument", "two_level.branch_argument"),
    (experiments, "theta_at", "two_level.theta_at"),
    (experiments, "mixing_angle_rate", "two_level.mixing_angle_rate"),
    (experiments, "hermitian_realizable", "synthesis.hermitian_realizable"),
    (experiments, "general_family_omega_zero",
     "synthesis.general_family_omega_zero"),
    (experiments, "assemble_h1_series", "synthesis.assemble_h1_series"),
    (experiments, "matched_gauge", "synthesis.matched_gauge"),
    (experiments, "closed_form_gplus", "synthesis.closed_form_gplus"),
    (experiments, "nullification_residual", "synthesis.nullification_residual"),
    (experiments, "gauge_simple", "gauges.gauge_simple"),
    (experiments, "integrate", "propagation.integrate"),
    (experiments, "convergence_check", "propagation.convergence_check"),
    (experiments, "amplitudes", "propagation.amplitudes"),
    (propagation, "integrate", "propagation.integrate"),
    (synthesis, "_frame_coupling", "synthesis.frame_coupling"),
    (synthesis, "gauge_from_integrands", "gauges.gauge_from_integrands"),
    (grids.TimeGrid, "index_of", "grids.index_of"),
]


class Tracer:
    """Spans, per-name call statistics and counters of one CLI invocation."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []   # [name, start, end, parent span index]
        self.stack = []   # [span index of the innermost span, child time]
        self.stats = {}   # name -> [calls, total s, self s]
        self.counters = Counter()
        self.errors = Counter()
        self.seen = set()  # (H, psi0, grid) integrated in this run_shortcut

    def wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        layer = name.partition(".")[0]
        make_span = name not in COUNTED
        spans, stack, clock, errors = (self.spans, self.stack,
                                       time.perf_counter, self.errors)

        def timed(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [len(spans) if make_span else parent, 0.0]
            if make_span:
                spans.append([name, 0.0, 0.0, parent])
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][1] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
                if make_span:
                    spans[frame[0]][1:3] = [start, end]

        timed.__wrapped__ = fn
        return timed

    def install(self):
        for owner, attr, name in PATCHES:
            timed = self.wrap(name, getattr(owner, attr))
            special = getattr(self, "_" + name.replace(".", "_"), None)
            setattr(owner, attr, special(timed) if special else timed)

    # Wrappers that also count work.  Their own few statements are charged
    # to the caller's frame.

    def _experiments_run_shortcut(self, timed):
        def run_shortcut(*args, **kwargs):
            self.seen = set()
            return timed(*args, **kwargs)
        return run_shortcut

    def _propagation_integrate(self, timed):
        counters = self.counters

        def integrate(h_total, psi0, grid, *args, **kwargs):
            # A step is redundant when the same H, psi0 and grid were
            # already integrated inside the current run_shortcut call.
            key = (h_total, np.asarray(psi0).tobytes(), grid)
            counters["propagation.rk4_steps"] += grid.steps
            if key in self.seen:
                counters["propagation.redundant_steps"] += grid.steps
            self.seen.add(key)
            layer = h_total.__module__.rpartition(".")[2]
            h = self.wrap(f"{layer}.h_callable", h_total)
            return timed(h, psi0, grid, *args, **kwargs)
        return integrate

    def _two_level_mixing_angle_path(self, timed):
        def mixing_angle_path(pulse, grid, *args, **kwargs):
            self.counters["two_level.mixing_angle_path_points"] += grid.n_points
            return timed(pulse, grid, *args, **kwargs)
        return mixing_angle_path

    def _cli_emit(self, timed):
        def emit(out, name, header, columns):
            path = timed(out, name, header, columns)
            self.counters["cli.emit_rows"] += len(columns[0]) if columns else 0
            self.counters["cli.emit_bytes"] += path.stat().st_size
            return path
        return emit

    def dump(self, path, **extra):
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, **extra,
                       "stats": self.stats, "counters": self.counters,
                       "errors": self.errors,
                       "spans": [s + [self.run_id] for s in self.spans]}, fh)


def main():
    trace_out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer(run_id=f"{os.getpid()}-{argv[0] if argv else ''}")
    tracer.install()
    entry = tracer.wrap("cli.main", cli.main)
    code = 1
    # CLOCK_MONOTONIC is shared with the parent, which times the process.
    main_start = time.monotonic()
    try:
        code = entry(argv)
    finally:
        tracer.dump(trace_out, import_s=_T_IMPORT - _T0,
                    main_start=main_start, main_end=time.monotonic())
    return code


if __name__ == "__main__":
    sys.exit(main())
