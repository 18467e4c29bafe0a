"""Command-line driver: the parser, process tuning and the command table.

Exit statuses: 0 success, 1 check failure, uncertified run or stdout
closed early, 2 configuration error (non-finite numbers included), 3 any
other package error (non-finite values, branch tracking, degeneracy, ...)
or a run too large to allocate.

A command compiles only the code it runs.  Importing this module loads
the shared core: ``config``, ``experiments`` and the modules under them,
``synthesis`` (the adiabatic frame), ``propagation``, ``two_level``,
``grids`` and ``errors``.  Command ``X`` runs ``cmd_X`` of the module
``COMMANDS[X]`` names, imported when the command runs: ``figure1``–
``figure4`` in :mod:`nhsta.figures`, ``verify`` (the one user of
:mod:`nhsta.biorthogonal`) in :mod:`nhsta.verify` and ``sweep`` in
:mod:`nhsta.output`, beside :meth:`~nhsta.output.OutputSet.record_runs`,
the loop that builds, runs, records and flags the shortcut runs of
``sweep``, ``figure3`` and ``figure4``; ``verify`` never loads those
writers.  ``main`` also tunes its own process before the command runs
(importing this module does not; importing the package only pauses the
collector, see ``nhsta``): see :func:`_tune_process`.
"""
from __future__ import annotations

import argparse
import ctypes
import gc
import sys
from importlib import import_module
from typing import Optional, Sequence

from .config import OPTIONS, build_config
from .errors import ConfigError, NhStaError
# Not used here; bench/trace_child.py still patches these names on this module.
from .experiments import run_shortcut  # noqa: F401
from .propagation import integrate  # noqa: F401
from .two_level import classify_regime  # noqa: F401


#: command name -> the module, under ``nhsta``, whose ``cmd_<command>`` runs
#: it, imported only when the command runs
COMMANDS = {"figure1": "figures", "figure2": "figures", "figure3": "figures",
            "figure4": "figures", "verify": "verify", "sweep": "output"}
#: every flag -> whether it takes a value (all but --help do)
_FLAGS = dict.fromkeys(["--config"] + [
    "--" + name.replace("_", "-") for name, _, _, _ in OPTIONS], True)
_FLAGS["--help"] = False


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
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1, 0, -1):  # --t0 -1e-3 as --t0=-1e-3
        flag = argv[i - 1]  # read as argparse does: exact, else a prefix
        takes = [_FLAGS[flag]] if flag in _FLAGS else [
            value for name, value in _FLAGS.items() if name.startswith(flag)]
        dash_led = argv[i].startswith("-") and argv[i][:2] not in ("--", "-h")
        if takes == [True] and dash_led:  # the reader judges the value
            argv[i - 1:i + 1] = [f"{flag}={argv[i]}"]
    overrides = vars(build_parser().parse_args(argv))
    command = overrides.pop("command")
    try:
        cfg = build_config(overrides.pop("config"), **overrides)
        cfg.validate()
        module = import_module(f"nhsta.{COMMANDS[command]}")
        status = getattr(module, f"cmd_{command}")(cfg)
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
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
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
