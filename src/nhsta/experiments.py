"""End-to-end shortcut pipelines used by the CLI and the test suite.

A table builds the branch-continuous mixing-angle path on a quarter-step
grid (so the RK4 stages of the run and of its half-step certification rerun
are all tabulated), synthesizes the requested supplement policy, writes
H0 + H1 once in the propagation kernel's layout, and scans the RK4 transfer
matrices of the run and of its rerun together.  The angle path, its
trigonometric functions, H0 and the eigenvalues do not depend on the
policy, so the tables of several policies for one pulse share them
(:func:`shortcut_tables` says what each table holds and frees, and when).
A run applies a table to one initial state: it propagates the bare-basis
state and keeps the raw/modified amplitudes and populations projected
from it.  :data:`RUN_CHECKS` is the one place a run's checks live: their
names, bounds and readings, which ``verify`` and a run's ``metrics`` read.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np

from .errors import ConfigError
from .gauges import GaugeFunctions
from .grids import TimeGrid
from .propagation import (INITIAL_BARE_GROUND, INITIAL_EIGEN_PLUS,
                          AmplitudeTrajectory, PrefixScan, amplitudes,
                          phase_table, scan_table, step_halving_gap)
from .synthesis import (POLICY_HERMITIAN, POLICY_NAIVE, POLICY_OMEGA_ZERO,
                        closed_form_gplus, frame_coupling,
                        general_family_omega_zero, hermitian_realizable,
                        matched_gauge, naive_cd_entries,
                        nullification_residual)
from .two_level import (MixingAnglePath, PulseSpec, angle_rate_defect,
                        eigenvalue_path, frame_diagonal, hamiltonian_entries,
                        mixing_angle_path, sample_controls)
# Not used here; bench/trace_child.py still patches these names on this module.
from .two_level import branch_argument, radicand  # noqa: F401
from .propagation import convergence_check, integrate  # noqa: F401
from .synthesis import assemble_h1_series  # noqa: F401
from .synthesis import matched_gauge as gauge_simple  # noqa: F401
from .two_level import mixing_angle_rate, theta_at  # noqa: F401

POLICIES = (POLICY_HERMITIAN, POLICY_NAIVE, POLICY_OMEGA_ZERO)
INITIAL_STATES = (INITIAL_EIGEN_PLUS, INITIAL_BARE_GROUND)

#: The per-run checks in the order ``verify`` prints them: name -> (bound,
#: reading of a ShortcutRun).  A check measures its reading's largest
#: modulus; only ``verify`` asks for the frame check and the closed form.
RUN_CHECKS = {
    "nullification-residual": (1e-10, lambda run: run.table.residual),
    "frame-coupling-21": (1e-6, lambda run: run.table.frame_check()),
    "angle-rate": (1e-8, lambda run: run.table.angle_rate),
    "max-abs-g-minus": (1e-5, lambda run: run.amps.g_minus),
    "g-plus-sq-dev": (0.05, lambda run: run.amps.pop_phi_plus - 1.0),
    "closed-form-vs-ode": (1e-5, lambda run: run.amps.g_plus
                           - run.table.closed_form()),
    "convergence": (1e-7, lambda run: run.convergence),
}
#: the checks a certified run passes: metrics key -> check, in print order
CERTIFIED_BY = {"convergence": "convergence",
                "max_residual": "nullification-residual"}


class ShortcutTable:
    """The state-independent part of a shortcut run for one pulse and policy.

    Holds the angle path, the level E_+ + d_+, the gauges and the largest
    leak residual of the supplement on the run grid, the angle-rate defect,
    and the RK4 prefix scan of the run and of its certification rerun.
    :meth:`run` applies it to one initial state; every state run from the
    same table shares this work.
    """

    __slots__ = ("theta", "gauges", "level", "residual", "angle_rate", "scan")

    def __init__(self, theta: MixingAnglePath, gauges: GaugeFunctions,
                 level: np.ndarray, residual: float, angle_rate: float,
                 scan: PrefixScan):
        self.theta, self.gauges, self.level = theta, gauges, level
        self.residual, self.angle_rate, self.scan = residual, angle_rate, scan

    grid = property(lambda self: self.theta.grid)  # the run grid

    def run(self, initial_state: str = INITIAL_EIGEN_PLUS) -> ShortcutRun:
        """Propagate one initial state: its amplitudes and the step-halving
        gap."""
        if initial_state not in INITIAL_STATES:
            raise ConfigError(
                f"unknown initial state {initial_state!r}; expected one of "
                f"{INITIAL_STATES}")
        if initial_state == INITIAL_EIGEN_PLUS:
            psi0 = np.array([self.theta.cos_half[0], self.theta.sin_half[0]],
                            dtype=complex)
        else:
            psi0 = np.array([1.0, 0.0], dtype=complex)
        traj, rerun = self.scan.apply(psi0)
        gap = step_halving_gap(traj, rerun)
        del rerun  # freed before the amplitudes are allocated
        return ShortcutRun(self, amplitudes(traj, self.theta, self.gauges),
                           gap)

    def frame_check(self) -> float:
        """The largest adiabatic-frame coupling (2,1), in closed form from
        the table's own H0 + H1 on the run grid on each call."""
        return frame_coupling(self.theta, self.scan.h[:, 0], self.gauges)

    def closed_form(self) -> np.ndarray:
        """g_+ in closed form from the table's level on the run grid, which
        the ODE's g_+ is checked against; formed on each call."""
        return closed_form_gplus(self.level, self.grid)


class ShortcutRun:
    """A shortcut table run from one initial state: the table, and the
    amplitudes and step-halving gap of that state."""

    __slots__ = ("table", "amps", "convergence")

    def __init__(self, table: ShortcutTable, amps: AmplitudeTrajectory,
                 convergence: float):
        self.table, self.amps, self.convergence = table, amps, convergence

    def measure(self, name: str) -> float:
        """Check ``name`` of :data:`RUN_CHECKS` measured on this run."""
        return float(np.abs(RUN_CHECKS[name][1](self)).max())

    def checks(self) -> Iterator[tuple]:
        """Each of RUN_CHECKS in order as (name, measured, bound, passed)."""
        for name, (bound, _) in RUN_CHECKS.items():
            measured = self.measure(name)
            yield name, measured, bound, measured <= bound

    @property
    def metrics(self) -> dict:
        """End-of-run scalars for sweep tables and manifests."""
        metrics = {
            "g_plus_sq_final": float(np.abs(self.amps.g_plus[-1]) ** 2),
            "p0_renorm_final": float(self.amps.pop_bare_0_renorm[-1]),
            "p1_final": float(self.amps.pop_bare_1[-1]),
            "max_abs_g_minus": self.measure("max-abs-g-minus"),
            "max_residual": self.measure("nullification-residual"),
            "convergence": self.measure("convergence"),
        }
        metrics["certified"] = all(metrics[key] <= RUN_CHECKS[name][0]
                                   for key, name in CERTIFIED_BY.items())
        return metrics


def shortcut_tables(pulse: PulseSpec, grid: TimeGrid,
                    policies: tuple = POLICIES) -> Iterator[ShortcutTable]:
    """One :class:`ShortcutTable` per policy, in order, for one pulse.

    The policy-independent part is built here, once: the angle path and its
    trigonometric functions and H0 on the quarter-step grid, from one sample
    of the pulse, the path's angle-rate defect, and E_+, E_- on the run grid
    (after the first table's scan).  Each policy's table is built only when
    the generator is advanced, so at most one is alive at a time when the
    caller drops each before asking for the next.  The quarter-grid angle
    path drops theta once its defect and run-grid samples are taken, and
    lives until the last table's supplement is formed, and H0 until its
    kernel table is written; neither is held through its scan.
    """
    quarter = grid.refine(4)
    samples = sample_controls(pulse, quarter)
    theta_q = mixing_angle_path(pulse, quarter, samples)
    angle_rate = angle_rate_defect(theta_q)
    theta = MixingAnglePath(grid, theta_q.theta[::4].copy(),
                            theta_q.dtheta[::4].copy())
    # every supplement but the naive one reads sin(theta); none reads theta
    theta_q.free_theta(keep_sin=any(p != POLICY_NAIVE for p in policies))
    shared = [theta_q, hamiltonian_entries(samples[1:])]
    eigen: list = []  # (E_+, E_-), filled by the first table
    last = len(policies) - 1
    return (_policy_table(policy, theta, shared, eigen, i == last, angle_rate)
            for i, policy in enumerate(policies))


def _supplement(policy: str, theta_q: MixingAnglePath) -> tuple:
    """The entries of the policy's H1 on the grid of ``theta_q``."""
    if policy == POLICY_HERMITIAN:
        return hermitian_realizable(theta_q)
    if policy == POLICY_OMEGA_ZERO:
        return general_family_omega_zero(theta_q)
    if policy == POLICY_NAIVE:
        return naive_cd_entries(theta_q)
    raise ConfigError(f"unknown policy {policy!r}; expected one of {POLICIES}")


def _policy_table(policy, theta, shared, eigen, last,
                  angle_rate) -> ShortcutTable:
    """One policy's supplement, H0 + H1 table, scan, gauges and checks on
    the run grid of ``theta``.  The quarter-grid supplement is freed before
    the scan, and the other temporaries on return.

    ``shared`` holds the pulse's quarter-grid angle path and H0 entries.
    The ``last`` table of a pulse empties it, so it frees the path once
    its supplement is formed and H0 once its phase table is written, and
    its scan, runs and checks hold only run-grid data and the kernel table.
    The eigenvalues are read into the empty list ``eigen`` by the first
    table of a pulse, from every 4th sample of H0, after its scan, and
    shared by the rest, which form their level, gauges and residual before
    their scan and so hold no run-grid H1 through it.  The last table
    empties ``eigen`` too, so a caller that keeps the generator through
    its runs holds no E_+, E_- but what the table itself keeps."""
    grid = theta.grid
    theta_q, h0_q = shared
    if last:
        shared.clear()
    h1_q = _supplement(policy, theta_q)
    del theta_q
    h1 = tuple(x[::4].copy() if np.ndim(x) else x for x in h1_q)
    h = phase_table(grid.steps, h0_q, h1_q)
    # the eigenvalues' run-grid samples of H0: views while ``shared`` keeps
    # H0 for the next table, copies when this table frees it
    h0 = None if eigen else tuple(x[::4].copy() if last else x[::4]
                                  for x in h0_q)
    del h0_q, h1_q  # H1, and a last table's H0, go before the scan
    if eigen:
        checks = _checks(policy, theta, h1, eigen)
        del h1
        scan = scan_table(h, grid)
    else:
        scan = scan_table(h, grid)
        # after the scan: the run-grid cos/sin of theta that the
        # eigenvalues cache on the shared path, and E_+, E_- themselves,
        # outweigh the copies of H0 a last table holds through it
        eigen.extend(eigenvalue_path(h0, theta))
        del h0
        checks = _checks(policy, theta, h1, eigen)
    if last:
        eigen.clear()
    return ShortcutTable(theta, *checks, angle_rate, scan)


def _checks(policy, theta, h1, eigen) -> tuple:
    """(gauges, level, residual) of a policy's run-grid H1 entries ``h1``
    and the pulse's ``eigen`` = (E_+, E_-): the level E_+ + d_+, formed
    once for the gauge and kept for the closed form (the naive term has no
    adiabatic-frame diagonal, d_+ = 0)."""
    e_plus, e_minus = eigen
    level = (e_plus if policy == POLICY_NAIVE
             else e_plus + frame_diagonal(h1, theta))
    return (matched_gauge(level, e_minus, theta.grid), level,
            nullification_residual(theta, h1))


def run_shortcut(pulse: PulseSpec, grid: TimeGrid,
                 policy: str = POLICY_HERMITIAN,
                 initial_state: str = INITIAL_EIGEN_PLUS) -> ShortcutRun:
    """Full pipeline for one policy and initial state: the policy's
    :class:`ShortcutTable`, then :meth:`ShortcutTable.run`."""
    return next(shortcut_tables(pulse, grid, (policy,))).run(initial_state)


__all__ = [
    "POLICIES", "INITIAL_STATES", "RUN_CHECKS", "CERTIFIED_BY",
    "ShortcutRun", "ShortcutTable", "shortcut_tables", "run_shortcut",
]
