"""End-to-end shortcut pipelines used by the CLI and the test suite.

A run builds the branch-continuous mixing-angle path on a quarter-step grid
(so the RK4 stages of the run and of its half-step certification rerun are
all tabulated), synthesizes the requested supplement policy, propagates the
bare-basis state, and extracts raw/modified amplitudes and populations.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import ConfigError
from .gauges import GaugeFunctions, gauge_simple
from .grids import TimeGrid
from .propagation import (INITIAL_BARE_GROUND, INITIAL_EIGEN_PLUS,
                          AmplitudeTrajectory, StateTrajectory, amplitudes,
                          propagate, step_halving_gap)
from .synthesis import (POLICY_HERMITIAN, POLICY_NAIVE,
                        NullificationReport, SupplementCoefficients,
                        assemble_h1_series, closed_form_gplus,
                        general_family_omega_zero, hermitian_realizable,
                        matched_gauge, naive_cd, nullification_residual)
from .two_level import (AllenEberlyParams, BranchRegime, MixingAnglePath,
                        PulseSpec, allen_eberly, branch_argument,
                        classify_regime, eigenvalue_path, hamiltonian,
                        mixing_angle_path, radicand)
# Not used here; bench/trace_child.py still patches these names on this module.
from .propagation import convergence_check, integrate  # noqa: F401
from .two_level import mixing_angle_rate, theta_at  # noqa: F401

#: general-family preset with zero coupling drive
POLICY_OMEGA_ZERO = "general-omega-zero"

POLICIES = (POLICY_HERMITIAN, POLICY_NAIVE, POLICY_OMEGA_ZERO)
INITIAL_STATES = (INITIAL_EIGEN_PLUS, INITIAL_BARE_GROUND)


@dataclass(frozen=True)
class ShortcutRun:
    """Everything produced by one shortcut experiment."""

    pulse: PulseSpec
    grid: TimeGrid
    regime: BranchRegime
    policy: str
    initial_state: str
    theta: MixingAnglePath
    e_plus: np.ndarray
    e_minus: np.ndarray
    gauges: GaugeFunctions
    coeffs: Optional[SupplementCoefficients]
    trajectory: StateTrajectory
    amps: AmplitudeTrajectory
    g_plus_closed: Optional[np.ndarray]
    residual: Optional[NullificationReport]
    convergence: Optional[float]

    @property
    def metrics(self) -> dict:
        """End-of-run scalars for sweep tables and manifests."""
        g_plus_sq = float(np.abs(self.amps.g_plus[-1]) ** 2)
        return {
            "regime": self.regime.value,
            "g_plus_sq_final": g_plus_sq,
            "p0_renorm_final": float(self.amps.pop_bare_0_renorm[-1]),
            "p1_final": float(self.amps.pop_bare_1[-1]),
            "max_abs_g_minus": float(np.max(np.abs(self.amps.g_minus))),
            "max_residual": (float(self.residual.max_abs_residual)
                             if self.residual is not None else float("nan")),
            "convergence": (float(self.convergence)
                            if self.convergence is not None else float("nan")),
        }


def _coefficients(policy: str, theta_path: MixingAnglePath
                  ) -> Optional[SupplementCoefficients]:
    if policy == POLICY_HERMITIAN:
        return hermitian_realizable(theta_path)
    if policy == POLICY_OMEGA_ZERO:
        return general_family_omega_zero(theta_path)
    if policy == POLICY_NAIVE:
        return None
    raise ConfigError(f"unknown policy {policy!r}; expected one of {POLICIES}")


def _every(n: int, obj, grid: TimeGrid, fields: tuple):
    """``obj`` on ``grid``, keeping every n-th sample of the named arrays."""
    return replace(obj, grid=grid, **{
        f: np.asarray(getattr(obj, f))[::n].copy() for f in fields})


def run_shortcut(pulse: PulseSpec, grid: TimeGrid,
                 policy: str = POLICY_HERMITIAN,
                 initial_state: str = INITIAL_EIGEN_PLUS,
                 regime: Optional[BranchRegime] = None,
                 with_convergence: bool = False,
                 with_frame_check: bool = False) -> ShortcutRun:
    """Full pipeline: angle path, supplement, propagation, amplitudes.

    H0 + H1 is tabulated once on the quarter-step grid: the run propagates
    on every second row, and certification reruns at half step on all rows.
    """
    if initial_state not in INITIAL_STATES:
        raise ConfigError(
            f"unknown initial state {initial_state!r}; expected one of "
            f"{INITIAL_STATES}")
    quarter = grid.refine(4)
    theta_q = mixing_angle_path(pulse, quarter, regime)
    regime = theta_q.regime
    theta = _every(4, theta_q, grid, ("theta", "dtheta"))
    e_plus, e_minus = eigenvalue_path(pulse, grid, regime)

    coeffs_q = _coefficients(policy, theta_q)
    if coeffs_q is None:
        coeffs, h1_q = None, naive_cd(theta_q)
    else:
        coeffs = _every(4, coeffs_q, grid, ("delta_plus", "delta_minus", "omega"))
        h1_q = assemble_h1_series(coeffs_q)
    h_quarter = hamiltonian(pulse, quarter.samples) + h1_q

    if initial_state == INITIAL_EIGEN_PLUS:
        th0 = theta.theta[0]
        psi0 = np.array([np.cos(th0 / 2.0), np.sin(th0 / 2.0)], dtype=complex)
    else:
        psi0 = np.array([1.0, 0.0], dtype=complex)

    traj = propagate(h_quarter[::2], psi0, grid, initial_condition=initial_state)

    if coeffs is not None:
        gauges = matched_gauge(e_plus, e_minus, coeffs, theta)
    else:
        gauges = gauge_simple(e_plus, e_minus, grid)
    amps = amplitudes(traj, theta, gauges)

    g_plus_closed = None
    residual = None
    if coeffs is not None:
        if policy == POLICY_HERMITIAN:
            g_plus_closed = closed_form_gplus(e_plus, gauges, coeffs, theta)
        residual = nullification_residual(
            theta, coeffs,
            pulse=pulse if with_frame_check else None,
            gauges=gauges if with_frame_check else None)

    convergence = None
    if with_convergence:
        convergence = step_halving_gap(traj, h_quarter)

    return ShortcutRun(pulse=pulse, grid=grid, regime=regime, policy=policy,
                       initial_state=initial_state, theta=theta,
                       e_plus=e_plus, e_minus=e_minus, gauges=gauges,
                       coeffs=coeffs, trajectory=traj, amps=amps,
                       g_plus_closed=g_plus_closed, residual=residual,
                       convergence=convergence)


def ae_pulse_and_grid(params: AllenEberlyParams, steps: int
                      ) -> tuple[PulseSpec, TimeGrid, BranchRegime]:
    """Convenience: pulse, grid, and regime for sech/tanh parameters."""
    pulse = allen_eberly(params)
    grid = TimeGrid(params.t0, params.t_f, steps)
    regime = classify_regime(params.omega0, params.gamma)
    return pulse, grid, regime


def run_allen_eberly(params: AllenEberlyParams, steps: int = 4000,
                     **kwargs) -> ShortcutRun:
    pulse, grid, regime = ae_pulse_and_grid(params, steps)
    return run_shortcut(pulse, grid, regime=regime, **kwargs)


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
    "POLICY_OMEGA_ZERO", "POLICIES", "INITIAL_STATES", "ShortcutRun",
    "run_shortcut", "run_allen_eberly", "ae_pulse_and_grid",
    "zplane_series", "theta_series",
]
