"""End-to-end shortcut pipelines used by the CLI and the test suite.

A table builds the branch-continuous mixing-angle path on a quarter-step
grid (so the RK4 stages of the run and of its half-step certification rerun
are all tabulated), synthesizes the requested supplement policy, writes
H0 + H1 once in the propagation kernel's layout, and scans the RK4 transfer
matrices of the run and of its rerun together.  The angle path, its
trigonometric functions and H0 do not depend on the policy, so the tables
of several policies for one pulse share them, and the eigenvalues the first
table reads off that angle and H0 after its scan.  A run applies a table
to one initial state: it propagates the bare-basis state and extracts
raw/modified amplitudes and populations.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np

from .errors import ConfigError
from .gauges import GaugeFunctions
from .grids import TimeGrid
from .propagation import (INITIAL_BARE_GROUND, INITIAL_EIGEN_PLUS,
                          AmplitudeTrajectory, PrefixScan, StateTrajectory,
                          amplitudes, phase_table, scan_table,
                          step_halving_gap)
from .synthesis import (POLICY_HERMITIAN, POLICY_NAIVE, POLICY_OMEGA_ZERO,
                        NullificationReport, closed_form_gplus,
                        general_family_omega_zero, hermitian_realizable,
                        matched_gauge, naive_cd_entries,
                        nullification_residual)
from .two_level import (BranchRegime, MixingAnglePath, PulseSpec,
                        branch_argument, eigenvalue_path, frame_diagonal,
                        hamiltonian_entries, mixing_angle_path, radicand)
# Not used here; bench/trace_child.py still patches these names on this module.
from .propagation import convergence_check, integrate  # noqa: F401
from .gauges import gauge_simple  # noqa: F401
from .synthesis import assemble_h1_series  # noqa: F401
from .two_level import mixing_angle_rate, theta_at  # noqa: F401

POLICIES = (POLICY_HERMITIAN, POLICY_NAIVE, POLICY_OMEGA_ZERO)
INITIAL_STATES = (INITIAL_EIGEN_PLUS, INITIAL_BARE_GROUND)

#: a run is certified when its step-halving gap and its nullification
#: residual are within these bounds
CONVERGENCE_BOUND = 1e-7
RESIDUAL_BOUND = 1e-10


class ShortcutTable:
    """The state-independent part of a shortcut run for one pulse and policy.

    Holds the angle path, the supplement's entries (h00, h01, h10, h11),
    the level E_+ + d_+ and the gauges and residual on the run grid, and
    the RK4 prefix scan of the run and of its half-step certification
    rerun.  :meth:`run` applies it to one initial state; every state run
    from the same table shares this work.
    """

    __slots__ = ("pulse", "grid", "policy", "theta", "e_plus", "e_minus",
                 "gauges", "h1", "level", "residual", "scan")

    def __init__(self, pulse: PulseSpec, grid: TimeGrid, policy: str,
                 theta: MixingAnglePath, e_plus: np.ndarray,
                 e_minus: np.ndarray, gauges: GaugeFunctions, h1: tuple,
                 level: np.ndarray, residual: NullificationReport,
                 scan: PrefixScan):
        self.pulse, self.grid, self.policy = pulse, grid, policy
        self.theta, self.e_plus, self.e_minus = theta, e_plus, e_minus
        self.gauges, self.h1 = gauges, h1
        self.level, self.residual = level, residual
        self.scan = scan

    def run(self, initial_state: str = INITIAL_EIGEN_PLUS) -> ShortcutRun:
        """Propagate one initial state: trajectory, amplitudes, and the
        step-halving gap."""
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
        return ShortcutRun(self, initial_state, traj,
                           amplitudes(traj, self.theta, self.gauges),
                           step_halving_gap(traj, rerun))

    def frame_check(self) -> NullificationReport:
        """The residual report with the adiabatic-frame coupling (2,1),
        formed from the table's own H0 + H1 on the run grid."""
        return nullification_residual(self.theta, self.h1,
                                      self.scan.h[:, 0], self.gauges)

    def closed_form(self) -> np.ndarray:
        """g_+ in closed form from the table's level on the run grid, which
        the ODE's g_+ is checked against; formed on each call."""
        return closed_form_gplus(self.level, self.grid)


class ShortcutRun:
    """A shortcut table run from one initial state: the table, and the
    trajectory, amplitudes and step-halving gap of that state."""

    __slots__ = ("table", "initial_state", "trajectory", "amps",
                 "convergence")

    def __init__(self, table: ShortcutTable, initial_state: str,
                 trajectory: StateTrajectory, amps: AmplitudeTrajectory,
                 convergence: float):
        self.table, self.initial_state = table, initial_state
        self.trajectory, self.amps = trajectory, amps
        self.convergence = convergence

    @property
    def metrics(self) -> dict:
        """End-of-run scalars for sweep tables and manifests."""
        residual = float(self.table.residual.max_abs_residual)
        return {
            "g_plus_sq_final": float(np.abs(self.amps.g_plus[-1]) ** 2),
            "p0_renorm_final": float(self.amps.pop_bare_0_renorm[-1]),
            "p1_final": float(self.amps.pop_bare_1[-1]),
            "max_abs_g_minus": float(np.max(np.abs(self.amps.g_minus))),
            "max_residual": residual,
            "convergence": self.convergence,
            "certified": bool(self.convergence <= CONVERGENCE_BOUND
                              and residual <= RESIDUAL_BOUND),
        }


def shortcut_tables(pulse: PulseSpec, grid: TimeGrid,
                    policies: tuple = POLICIES) -> Iterator[ShortcutTable]:
    """One :class:`ShortcutTable` per policy, in order, for one pulse.

    The policy-independent part is built here, once: the angle path and its
    trigonometric functions and H0 on the quarter-step grid, and E_+, E_-
    on the run grid (read after the first table's scan).  Each policy's
    table is built only when the returned generator is advanced, so at
    most one is alive at a time when the caller drops each before asking
    for the next.
    """
    quarter = grid.refine(4)
    theta_q = mixing_angle_path(pulse, quarter)
    theta = MixingAnglePath(grid, theta_q.theta[::4].copy(),
                            theta_q.dtheta[::4].copy())
    h0_q = hamiltonian_entries(pulse, quarter.samples)
    eigen: list = []  # (E_+, E_-), filled by the first table
    return (_policy_table(pulse, policy, theta_q, theta, h0_q, eigen)
            for policy in policies)


def _supplement(policy: str, theta_q: MixingAnglePath) -> tuple:
    """The entries of the policy's H1 on the grid of ``theta_q``."""
    if policy == POLICY_HERMITIAN:
        return hermitian_realizable(theta_q)
    if policy == POLICY_OMEGA_ZERO:
        return general_family_omega_zero(theta_q)
    if policy == POLICY_NAIVE:
        return naive_cd_entries(theta_q)
    raise ConfigError(f"unknown policy {policy!r}; expected one of {POLICIES}")


def _policy_table(pulse, policy, theta_q, theta, h0_q, eigen) -> ShortcutTable:
    """One policy's supplement, H0 + H1 table, scan, gauges and checks on
    the run grid of ``theta`` (its temporaries are freed on return).  The
    eigenvalues, from every 4th sample of ``h0_q``, are read into the
    empty list ``eigen`` by the first table of a pulse and shared by the
    rest."""
    grid = theta.grid
    h1_q = _supplement(policy, theta_q)
    h1 = tuple(x[::4].copy() if np.ndim(x) else x for x in h1_q)
    h = phase_table(grid.steps, h0_q, h1_q)
    del h1_q  # freed before the scan's temporaries are allocated
    scan = scan_table(h, grid, certify=True)
    if not eigen:
        # after the scan, so the run-grid cos/sin of theta that the
        # eigenvalues cache on the shared path are not held through it
        eigen.extend(eigenvalue_path(tuple(x[::4] for x in h0_q), theta))
    e_plus, e_minus = eigen
    # E_+ + d_+, formed once for the gauge and kept for the closed form;
    # the naive term has no adiabatic-frame diagonal, d_+ = 0
    level = (e_plus if policy == POLICY_NAIVE
             else e_plus + frame_diagonal(h1, theta))

    return ShortcutTable(
        pulse=pulse, grid=grid, policy=policy,
        theta=theta, e_plus=e_plus, e_minus=e_minus,
        gauges=matched_gauge(level, e_minus, grid), h1=h1, level=level,
        residual=nullification_residual(theta, h1), scan=scan)


def run_shortcut(pulse: PulseSpec, grid: TimeGrid,
                 policy: str = POLICY_HERMITIAN,
                 initial_state: str = INITIAL_EIGEN_PLUS) -> ShortcutRun:
    """Full pipeline for one policy and initial state: the policy's
    :class:`ShortcutTable`, then :meth:`ShortcutTable.run`."""
    return next(shortcut_tables(pulse, grid, (policy,))).run(initial_state)


def zplane_series(pulse: PulseSpec, grid: TimeGrid, regime: BranchRegime) -> dict:
    """Radicand trajectory columns for the branch-cut figure."""
    ts = grid.samples
    z = radicand(pulse, ts)
    return {
        "t": ts,
        "re_z": z.real,
        "im_z": z.imag,
        "eta": branch_argument(z, regime),
    }


def theta_series(pulse: PulseSpec, grid: TimeGrid) -> dict:
    """Mixing-angle trajectory columns for the complex-angle figure."""
    path = mixing_angle_path(pulse, grid)
    return {
        "t": grid.samples,
        "re_theta": path.theta.real,
        "im_theta": path.theta.imag,
    }


__all__ = [
    "POLICIES", "INITIAL_STATES", "CONVERGENCE_BOUND",
    "RESIDUAL_BOUND", "ShortcutRun", "ShortcutTable", "shortcut_tables",
    "run_shortcut", "zplane_series", "theta_series",
]
