"""Command-line driver: the parser, process tuning, ``sweep`` and the
command table.

Exit statuses: 0 success, 1 check failure, uncertified run or stdout
closed early, 2 configuration error (non-finite numbers included), 3 any
other package error (non-finite values, branch tracking, degeneracy, ...).

A command compiles only the code it runs.  Importing this module loads
the shared core: ``config``, ``experiments`` and the modules under them,
``synthesis`` (the adiabatic frame), ``propagation``, ``two_level``,
``grids`` and ``errors``.  ``figure1``–``figure4`` live in
:mod:`nhsta.figures` and ``verify`` (the one user of
:mod:`nhsta.biorthogonal`) in :mod:`nhsta.verify`, each imported when its
command runs, and the writers of :mod:`nhsta.output` load with ``sweep``
or a figure command, never with ``verify``.  ``sweep``, ``figure3`` and
``figure4`` build, run, record and flag their shortcut runs through one
loop, :meth:`nhsta.output.OutputSet.record_runs`, which also counts the
uncertified runs that set the exit status.  ``main`` also tunes its own
process before the command runs (importing this module does not;
importing the package only pauses the collector, see ``nhsta``): see
:func:`_tune_process`.
"""
from __future__ import annotations

import argparse
import ctypes
import gc
import sys
from importlib import import_module
from typing import Optional, Sequence

from .config import OPTIONS, ExperimentConfig, build_config
from .errors import ConfigError, NhStaError
# Not used here; bench/trace_child.py still patches these names on this module.
from .experiments import run_shortcut  # noqa: F401
from .propagation import integrate  # noqa: F401
from .two_level import classify_regime  # noqa: F401


def cmd_sweep(cfg: ExperimentConfig) -> int:
    """Cross-product gamma x policy x initial state, one metrics row each:
    a row is its run's manifest entry without ``wall_time_s``.

    Uncertified rows are flagged in the table and on stderr, and make the
    exit status 1 (the table and manifest are still written).
    """
    from .output import OutputSet
    gammas = cfg.gammas()  # no default decay rates: refuses a missing list
    out = OutputSet(cfg, "sweep")
    for gamma in gammas:
        out.record_runs(cfg, gamma)
    header = [key for key in out.runs[0] if key != "wall_time_s"]
    out.emit("sweep", header, [[run[key] for run in out.runs]
                               for key in header])
    out.write_manifest()
    return 1 if out.uncertified else 0


def _deferred(module: str, command: str):
    """The command ``command`` of ``nhsta.<module>``'s own ``COMMANDS``,
    a module imported only when the command runs."""
    def run(cfg: ExperimentConfig) -> int:
        return import_module(f"nhsta.{module}").COMMANDS[command](cfg)
    return run


COMMANDS = {
    "figure1": _deferred("figures", "figure1"),
    "figure2": _deferred("figures", "figure2"),
    "figure3": _deferred("figures", "figure3"),
    "figure4": _deferred("figures", "figure4"),
    "verify": _deferred("verify", "verify"),
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


#: names of the command modules resolved here on first use (PEP 562)
_DEFERRED = {"decompose": "biorthogonal", "reconstruct": "biorthogonal",
             "theta_series": "figures", "zplane_series": "figures",
             "OutputSet": "output"}


def __getattr__(name: str):
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"nhsta.{_DEFERRED[name]}"), name)


if __name__ == "__main__":
    sys.exit(main())
