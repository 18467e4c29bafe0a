"""The figure commands ``figure1``–``figure4``: one table per decay rate.

A series of ``figure1`` or ``figure2`` is its list of columns, emitted as
:func:`zplane_series` or :func:`theta_series` returns it.
``figure3`` and ``figure4`` take their one run per decay rate from
:meth:`nhsta.output.OutputSet.record_runs`, the loop ``sweep`` runs too,
and write each rate's table from that run before it is recorded.  They
refuse a list of policies or initial states through
:meth:`nhsta.config.ExperimentConfig.single_run`, as ``verify`` does.

``nhsta.cli`` imports it only when figure command ``X`` runs its ``cmd_X``.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .config import ExperimentConfig
from .errors import ConfigError
from .grids import TimeGrid
from .output import OutputSet
from .two_level import PulseSpec, branch_argument, mixing_angle_path, radicand

FIGURE1_DEFAULT_GAMMAS = (0.3, 3.0)
FIGURE2_DEFAULT_GAMMAS = (0.3, 3.0, 0.0)
FIGURE3_DEFAULT_GAMMAS = (0.1, 0.3, 1.0)
FIGURE4_DEFAULT_GAMMAS = (1.0,)


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


def zplane_series(pulse: PulseSpec, grid: TimeGrid, regime: str) -> list:
    """Radicand trajectory columns [t, Re Z, Im Z, eta] for the branch-cut
    figure."""
    ts = grid.samples
    z = radicand(pulse, ts)
    return [ts, z.real, z.imag, branch_argument(z, regime)]


def theta_series(pulse: PulseSpec, grid: TimeGrid) -> list:
    """Mixing-angle trajectory columns [t, Re theta, Im theta] for the
    complex-angle figure."""
    theta = mixing_angle_path(pulse, grid).theta
    return [grid.samples, theta.real, theta.imag]


def cmd_figure1(cfg: ExperimentConfig) -> int:
    """Radicand trajectories (t, Re Z, Im Z, eta, regime) per decay rate."""
    tables = _tables(cfg, "figure1", FIGURE1_DEFAULT_GAMMAS)
    out = OutputSet(cfg, "figure1")
    grid = cfg.grid
    for name, gamma in tables.items():
        pulse, regime = cfg.pulse_for(gamma), cfg.regime_for(gamma)
        out.emit(name, ["t", "re_z", "im_z", "eta", "regime"],
                 zplane_series(pulse, grid, regime)
                 + [[regime] * grid.n_points])
        out.runs.append({"gamma": gamma, "regime": regime})
    out.write_manifest()
    return 0


def cmd_figure2(cfg: ExperimentConfig) -> int:
    """Complex mixing angle (t, Re theta, Im theta) per decay rate."""
    tables = _tables(cfg, "figure2", FIGURE2_DEFAULT_GAMMAS)
    out = OutputSet(cfg, "figure2")
    for name, gamma in tables.items():
        out.emit(name, ["t", "re_theta", "im_theta"],
                 theta_series(cfg.pulse_for(gamma), cfg.grid))
        out.runs.append({"gamma": gamma})
    out.write_manifest()
    return 0


def _population_figure(cfg: ExperimentConfig, command: str,
                       default_gammas: tuple, header: Sequence[str],
                       columns) -> int:
    """One certified shortcut run per decay rate, emitted as ``header``
    with t followed by ``columns(run)``; status 1 if any run is
    uncertified (every table and the manifest are still written)."""
    tables = _tables(cfg, command, default_gammas)
    cfg.single_run()
    out = OutputSet(cfg, command)
    for name, gamma in tables.items():
        out.record_runs(cfg, gamma, lambda run: out.emit(
            name, header, [run.table.grid.samples] + columns(run)))
    out.write_manifest()
    return 1 if out.uncertified else 0


def cmd_figure3(cfg: ExperimentConfig) -> int:
    """Raw and modified eigenstate populations for the shortcut pipeline."""
    return _population_figure(
        cfg, "figure3", FIGURE3_DEFAULT_GAMMAS,
        ["t", "c_plus_sq", "c_minus_sq", "g_plus_sq", "g_minus_sq"],
        lambda r: [np.abs(r.c_plus) ** 2, np.abs(r.c_minus) ** 2,
                   r.pop_phi_plus, r.pop_phi_minus])


def cmd_figure4(cfg: ExperimentConfig) -> int:
    """Bare-state populations, raw and renormalized."""
    return _population_figure(
        cfg, "figure4", FIGURE4_DEFAULT_GAMMAS,
        ["t", "p0", "p1", "p0_plus_p1", "p0_renorm", "p1_renorm"],
        lambda r: [r.pop_bare_0, r.pop_bare_1, r.pop_bare_0 + r.pop_bare_1,
                   r.pop_bare_0_renorm, r.pop_bare_1_renorm])
