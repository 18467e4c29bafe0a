"""Fixed-step RK4 propagation of i*dpsi/dt = H(t)*psi with complex H.

H is tabulated on the half-step grid, so step k reads its stage matrices
at t_k, t_k + h/2, t_k + h from rows 2k, 2k+1, 2k+2.  RK4 is linear in psi:
its stages collapse into one 2x2 transfer matrix per step, formed with
batched numpy and applied in one sequential product.  Step adequacy is
certified by a half-step rerun on the quarter-step table, compared at the
shared samples.  Callables H(t) are sampled onto such tables first.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonFinite, ZeroGauge
from .gauges import GaugeFunctions
from .grids import TimeGrid
from .two_level import MixingAnglePath

HamiltonianFn = Callable[[float], np.ndarray]

INITIAL_BARE_GROUND = "bare-ground"
INITIAL_EIGEN_PLUS = "eigen-plus"

#: steps whose transfer matrices are formed in one batch; bounds temporaries
_BLOCK_STEPS = 2048


@dataclass(frozen=True)
class StateTrajectory:
    """Bare-basis state samples psi(t_k) on a grid."""

    grid: TimeGrid
    psi: np.ndarray  # (n_points, dim)
    initial_condition: str = "custom"

    def __post_init__(self):
        if self.psi.shape[0] != self.grid.n_points:
            raise ValueError("one state per grid point required")


@dataclass(frozen=True)
class AmplitudeTrajectory:
    """Eigenstate amplitudes and populations derived from a trajectory.

    c_n = <n~|psi> are the raw biorthogonal amplitudes (|c_n|^2 is not
    bounded by one under decay); g_n = c_n/f_n are the gauge-modified
    amplitudes whose squared moduli act as populations.  Bare populations
    P_m = |<m|psi>|^2 are emitted raw and renormalized by their sum.
    """

    grid: TimeGrid
    c_plus: np.ndarray
    c_minus: np.ndarray
    g_plus: np.ndarray
    g_minus: np.ndarray
    pop_phi_plus: np.ndarray
    pop_phi_minus: np.ndarray
    pop_bare_0: np.ndarray
    pop_bare_1: np.ndarray
    pop_bare_0_renorm: np.ndarray
    pop_bare_1_renorm: np.ndarray


def _mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x[k] @ y[k] for stacks of 2x2 matrices x and 2xm matrices y, written
    out entry by entry (several times faster than matmul on 2x2 stacks)."""
    out = np.empty(x.shape[:-1] + y.shape[-1:], dtype=complex)
    for j in range(y.shape[-1]):
        for i in (0, 1):
            out[:, i, j] = x[:, i, 0] * y[:, 0, j] + x[:, i, 1] * y[:, 1, j]
    return out


def _rk4_stages(h_half: np.ndarray, h: float, y: np.ndarray) -> np.ndarray:
    """One RK4 step from each y[k] (2x2 identities give the transfer
    matrices; state columns give the next states) under the stage
    Hamiltonians h_half[2k], h_half[2k+1], h_half[2k+2]."""
    a0, a1, a2 = -1j * h_half[0:-1:2], -1j * h_half[1::2], -1j * h_half[2::2]
    k1 = _mul(a0, y)
    k2 = _mul(a1, y + 0.5 * h * k1)
    k3 = _mul(a1, y + 0.5 * h * k2)
    k4 = _mul(a2, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def propagate(h_half: np.ndarray, psi0: np.ndarray, grid: TimeGrid,
              initial_condition: str = "custom") -> StateTrajectory:
    """Classical RK4 for i*dpsi/dt = H(t)*psi from a two-component psi0.

    ``h_half`` is H on ``grid.refine(2)``, shape (2*steps + 1, 2, 2).  Raises
    NonFinite when the state blows up (e.g. runaway gain), naming the first
    sample at which a step's stages overflow.
    """
    h_half = np.asarray(h_half)
    if h_half.shape != (2 * grid.steps + 1, 2, 2):
        raise ValueError("h_half must hold H at every half step of the grid")
    psi = np.asarray(psi0, dtype=complex)
    if psi.shape != (2,):
        raise ValueError("psi0 must be a two-component vector")
    p0, p1 = complex(psi[0]), complex(psi[1])
    out0, out1 = [p0], [p1]
    eye = np.broadcast_to(np.eye(2, dtype=complex), (_BLOCK_STEPS, 2, 2))
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, grid.steps, _BLOCK_STEPS):
            stop = min(start + _BLOCK_STEPS, grid.steps)
            m = _rk4_stages(h_half[2 * start:2 * stop + 1], grid.step,
                            eye[:stop - start])
            for a, b, c, d in zip(*m.reshape(-1, 4).T.tolist()):
                p0, p1 = a * p0 + b * p1, c * p0 + d * p1
                out0.append(p0)
                out1.append(p1)
    out = np.column_stack((out0, out1))
    finite = np.all(np.isfinite(out), axis=1)
    if not np.all(finite):
        # The stage vectors outgrow the state, so a step-by-step RK4 loop
        # overflows a few steps before the product does: rerun the stages
        # from the finite samples to name the same step.
        last = int(np.argmin(finite))
        with np.errstate(over="ignore", invalid="ignore"):
            nxt = _rk4_stages(h_half[:2 * last + 1], grid.step,
                              out[:last, :, None])
        bad = ~np.all(np.isfinite(nxt), axis=(1, 2))
        k = int(np.argmax(bad)) + 1 if np.any(bad) else last
        raise NonFinite(f"state blew up near t={grid.samples[k]:g}")
    return StateTrajectory(grid=grid, psi=out, initial_condition=initial_condition)


def _tabulate(h_total: HamiltonianFn, grid: TimeGrid) -> np.ndarray:
    return np.array([h_total(t) for t in grid.samples], dtype=complex)


def integrate(h_total: HamiltonianFn, psi0: np.ndarray, grid: TimeGrid,
              initial_condition: str = "custom") -> StateTrajectory:
    """RK4 for a callable H(t): sampled on the half-step grid, then
    :func:`propagate`."""
    return propagate(_tabulate(h_total, grid.refine(2)), psi0, grid,
                     initial_condition)


def amplitudes(traj: StateTrajectory, theta_path: MixingAnglePath,
               gauges: GaugeFunctions) -> AmplitudeTrajectory:
    """Project a trajectory onto the instantaneous eigenbasis.

    Uses the left eigenvectors, so c_+ = cos(theta/2)psi_0 + sin(theta/2)psi_1
    and c_- = sin(theta/2)psi_0 - cos(theta/2)psi_1 pointwise, then divides by
    the gauge factors.
    """
    if traj.grid != theta_path.grid or traj.grid != gauges.grid:
        raise ValueError("trajectory, theta path, and gauges must share the grid")
    if traj.psi.shape[1] != 2:
        raise ValueError("two-level trajectories only")
    c = np.cos(theta_path.theta / 2.0)
    s = np.sin(theta_path.theta / 2.0)
    psi0, psi1 = traj.psi[:, 0], traj.psi[:, 1]
    c_plus = c * psi0 + s * psi1
    c_minus = s * psi0 - c * psi1
    if np.any(gauges.f_plus == 0) or np.any(gauges.f_minus == 0):
        raise ZeroGauge("gauge factor vanished")
    g_plus = c_plus / gauges.f_plus
    g_minus = c_minus / gauges.f_minus
    p0 = np.abs(psi0) ** 2
    p1 = np.abs(psi1) ** 2
    total = p0 + p1
    return AmplitudeTrajectory(
        grid=traj.grid,
        c_plus=c_plus, c_minus=c_minus,
        g_plus=g_plus, g_minus=g_minus,
        pop_phi_plus=np.abs(g_plus) ** 2,
        pop_phi_minus=np.abs(g_minus) ** 2,
        pop_bare_0=p0, pop_bare_1=p1,
        pop_bare_0_renorm=p0 / total,
        pop_bare_1_renorm=p1 / total,
    )


def step_halving_gap(coarse: StateTrajectory, h_quarter: np.ndarray) -> float:
    """Max-norm gap between ``coarse`` and its half-step rerun at the shared
    samples.  ``h_quarter`` is H on ``coarse.grid.refine(4)``; the coarse run
    must have used ``h_quarter[::2]``."""
    fine = propagate(h_quarter, coarse.psi[0], coarse.grid.refine(2))
    return float(np.max(np.abs(coarse.psi - fine.psi[::2])))


def convergence_check(h_total: HamiltonianFn, psi0: np.ndarray,
                      grid: TimeGrid) -> float:
    """Max-norm gap between the solution on ``grid`` and on its half-step
    refinement, sampled at the shared points.  Certifies step adequacy."""
    if grid.steps % 2 != 0:
        raise ValueError("convergence check expects an even number of steps")
    h_quarter = _tabulate(h_total, grid.refine(4))
    return step_halving_gap(propagate(h_quarter[::2], psi0, grid), h_quarter)
