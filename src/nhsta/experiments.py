"""End-to-end shortcut pipelines used by the CLI and the test suite.

A table builds the branch-continuous mixing-angle path on a quarter-step
grid (so the RK4 stages of the run and of its half-step certification rerun
are all tabulated), synthesizes the requested supplement policy, writes
H0 + H1 once in the propagation kernel's layout, and scans the RK4 transfer
matrices of the run and of its rerun together.  The angle path, its
trigonometric functions, H0 and the eigenvalues do not depend on the
policy, so the tables of several policies for one pulse share them.  A
run applies a table to one initial state: it propagates the bare-basis
state and extracts raw/modified amplitudes and populations.
"""
from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Iterator, Optional

import numpy as np

from .errors import ConfigError
from .gauges import GaugeFunctions
from .grids import TimeGrid
from .propagation import (INITIAL_BARE_GROUND, INITIAL_EIGEN_PLUS,
                          AmplitudeTrajectory, PrefixScan, StateTrajectory,
                          amplitudes, phase_table, scan_table,
                          step_halving_gap)
from .synthesis import (POLICY_HERMITIAN, POLICY_NAIVE,
                        NullificationReport, SupplementCoefficients,
                        closed_form_gplus, general_family_omega_zero,
                        h1_entries, hermitian_realizable, matched_gauge,
                        naive_cd_entries, nullification_residual)
from .two_level import (BranchRegime, MixingAnglePath, PulseSpec,
                        branch_argument, eigenvalue_path, hamiltonian_entries,
                        mixing_angle_path, radicand)
# Not used here; bench/trace_child.py still patches these names on this module.
from .propagation import convergence_check, integrate  # noqa: F401
from .gauges import gauge_simple  # noqa: F401
from .synthesis import assemble_h1_series  # noqa: F401
from .two_level import mixing_angle_rate, theta_at  # noqa: F401

#: general-family preset with zero coupling drive
POLICY_OMEGA_ZERO = "general-omega-zero"

POLICIES = (POLICY_HERMITIAN, POLICY_NAIVE, POLICY_OMEGA_ZERO)
INITIAL_STATES = (INITIAL_EIGEN_PLUS, INITIAL_BARE_GROUND)

#: a run is certified when its step-halving gap and, where the policy has
#: one, its nullification residual are within these bounds
CONVERGENCE_BOUND = 1e-7
RESIDUAL_BOUND = 1e-10


@dataclass(frozen=True, eq=False)  # array fields: no field-wise equality
class ShortcutTable:
    """The state-independent part of a shortcut run for one pulse and policy.

    Holds the angle path, the supplement, the gauges and checks on the run
    grid, and the RK4 prefix scan of the run and of its half-step
    certification rerun.  :meth:`run` applies it to one initial state;
    every state run from the same table shares this work.
    """

    pulse: PulseSpec
    grid: TimeGrid
    regime: BranchRegime
    policy: str
    theta: MixingAnglePath
    e_plus: np.ndarray
    e_minus: np.ndarray
    gauges: GaugeFunctions
    coeffs: Optional[SupplementCoefficients]
    g_plus_closed: np.ndarray
    residual: Optional[NullificationReport]
    scan: PrefixScan

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
        return ShortcutRun(
            **{f.name: getattr(self, f.name) for f in fields(ShortcutTable)},
            initial_state=initial_state, trajectory=traj,
            amps=amplitudes(traj, self.theta, self.gauges),
            convergence=step_halving_gap(traj, rerun))

    def frame_check(self) -> Optional[NullificationReport]:
        """The residual report with the adiabatic-frame coupling (2,1),
        formed from the table's own H0 + H1 on the run grid (None for the
        naive term, as :attr:`residual`)."""
        if self.coeffs is None:
            return None
        return nullification_residual(self.theta, self.coeffs,
                                      self.scan.h[:, 0], self.gauges)


@dataclass(frozen=True, eq=False)
class ShortcutRun(ShortcutTable):
    """A shortcut table run from one initial state: the table's fields plus
    the trajectory, amplitudes and step-halving gap of that state."""

    initial_state: str
    trajectory: StateTrajectory
    amps: AmplitudeTrajectory
    convergence: float

    @property
    def metrics(self) -> dict:
        """End-of-run scalars for sweep tables and manifests."""
        g_plus_sq = float(np.abs(self.amps.g_plus[-1]) ** 2)
        residual = (float(self.residual.max_abs_residual)
                    if self.residual is not None else float("nan"))
        return {
            "regime": self.regime.value,
            "g_plus_sq_final": g_plus_sq,
            "p0_renorm_final": float(self.amps.pop_bare_0_renorm[-1]),
            "p1_final": float(self.amps.pop_bare_1[-1]),
            "max_abs_g_minus": float(np.max(np.abs(self.amps.g_minus))),
            "max_residual": residual,
            "convergence": self.convergence,
            "certified": bool(self.convergence <= CONVERGENCE_BOUND
                              and not residual > RESIDUAL_BOUND),
        }


def _every(n: int, obj, grid: TimeGrid, names: tuple):
    """``obj`` on ``grid``, keeping every n-th sample of the named arrays."""
    return replace(obj, grid=grid, **{
        f: np.asarray(getattr(obj, f))[::n].copy() for f in names})


def shortcut_tables(pulse: PulseSpec, grid: TimeGrid,
                    policies: tuple = POLICIES,
                    regime: Optional[BranchRegime] = None
                    ) -> Iterator[ShortcutTable]:
    """One :class:`ShortcutTable` per policy, in order, for one pulse.

    The policy-independent part is built here, once: the angle path and its
    trigonometric functions and H0 on the quarter-step grid, and the
    eigenvalues on the run grid.  Each policy's table is built only when the
    returned generator is advanced, so at most one is alive at a time when
    the caller drops each before asking for the next.
    """
    quarter = grid.refine(4)
    theta_q = mixing_angle_path(pulse, quarter, regime)
    regime = theta_q.regime
    theta = _every(4, theta_q, grid, ("theta", "dtheta"))
    e_plus, e_minus = eigenvalue_path(pulse, grid, regime)
    h0_q = hamiltonian_entries(pulse, quarter.samples)
    return (_policy_table(pulse, policy, theta_q, theta, e_plus, e_minus, h0_q)
            for policy in policies)


def _supplement(policy: str, theta_q: MixingAnglePath, grid: TimeGrid
                ) -> tuple[Optional[SupplementCoefficients], tuple]:
    """The policy's coefficients on the run grid (None for the naive term)
    and the entries of its H1 on the quarter-step grid of ``theta_q``."""
    if policy == POLICY_HERMITIAN:
        coeffs_q = hermitian_realizable(theta_q)
    elif policy == POLICY_OMEGA_ZERO:
        coeffs_q = general_family_omega_zero(theta_q)
    elif policy == POLICY_NAIVE:
        return None, naive_cd_entries(theta_q)
    else:
        raise ConfigError(
            f"unknown policy {policy!r}; expected one of {POLICIES}")
    return _every(4, coeffs_q, grid, ("delta", "omega")), h1_entries(coeffs_q)


def _policy_table(pulse, policy, theta_q, theta, e_plus, e_minus, h0_q
                  ) -> ShortcutTable:
    """One policy's supplement, H0 + H1 table, scan, gauges and checks on
    the run grid of ``theta`` (its temporaries are freed on return)."""
    grid = theta.grid
    coeffs, h1_q = _supplement(policy, theta_q, grid)
    h = phase_table(grid.steps, h0_q, h1_q)
    del h1_q  # freed before the scan's temporaries are allocated
    scan = scan_table(h, grid, certify=True)

    return ShortcutTable(
        pulse=pulse, grid=grid, regime=theta.regime, policy=policy,
        theta=theta, e_plus=e_plus, e_minus=e_minus,
        gauges=matched_gauge(e_plus, e_minus, coeffs, theta), coeffs=coeffs,
        g_plus_closed=closed_form_gplus(e_plus, coeffs, theta),
        residual=(None if coeffs is None
                  else nullification_residual(theta, coeffs)),
        scan=scan)


def run_shortcut(pulse: PulseSpec, grid: TimeGrid,
                 policy: str = POLICY_HERMITIAN,
                 initial_state: str = INITIAL_EIGEN_PLUS,
                 regime: Optional[BranchRegime] = None) -> ShortcutRun:
    """Full pipeline for one policy and initial state: the policy's
    :class:`ShortcutTable`, then :meth:`ShortcutTable.run`."""
    return next(shortcut_tables(pulse, grid, (policy,), regime)).run(
        initial_state)


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


def theta_series(pulse: PulseSpec, grid: TimeGrid,
                 regime: Optional[BranchRegime] = None) -> dict:
    """Mixing-angle trajectory columns for the complex-angle figure."""
    path = mixing_angle_path(pulse, grid, regime)
    return {
        "t": grid.samples,
        "re_theta": path.theta.real,
        "im_theta": path.theta.imag,
    }


__all__ = [
    "POLICY_OMEGA_ZERO", "POLICIES", "INITIAL_STATES", "CONVERGENCE_BOUND",
    "RESIDUAL_BOUND", "ShortcutRun", "ShortcutTable", "shortcut_tables",
    "run_shortcut", "zplane_series", "theta_series",
]
