"""Fixed-step RK4 propagation of i*dpsi/dt = H(t)*psi with complex H.

H is tabulated on the half-step grid, so step k reads its stage matrices
at t_k, t_k + h/2, t_k + h from rows 2k, 2k+1, 2k+2.  RK4 is linear in psi:
its stages collapse into one 2x2 transfer matrix per step, formed with
batched numpy.  A blocked prefix scan multiplies them (Blelloch 1990): the
products inside blocks of about sqrt(steps)/2 steps are vectorized across
all blocks, and a state needs only a short scalar loop over the block ends.
The scan does not depend on psi0, so several initial states share it.  Step
adequacy is certified by a half-step rerun on the quarter-step table,
compared at the shared samples.  Callables H(t) are sampled onto such
tables first.
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

@dataclass(frozen=True, eq=False)
class StateTrajectory:
    """Bare-basis state samples psi(t_k) on a grid."""

    grid: TimeGrid
    psi: np.ndarray  # (n_points, dim)
    initial_condition: str = "custom"

    def __post_init__(self):
        if self.psi.shape[0] != self.grid.n_points:
            raise ValueError("one state per grid point required")


@dataclass(frozen=True, eq=False)
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


def _apply(a, y):
    """a @ y for 2x2 matrices a = (a00, a01, a10, a11) and columns
    y = (y0, y1), each entry an array (or scalar) broadcast across steps."""
    return a[0] * y[0] + a[1] * y[1], a[2] * y[0] + a[3] * y[1]


def _rk4_step(a, h: float, y, k1):
    """One RK4 step of column y under stage matrices a = (a0, a1, a2), the H
    at t, t + h/2, t + h; ``k1`` is a0 @ y.  The stage slopes are -i*(a @ y):
    the exact factor -i rides on the step scalars, so ``a`` can be views."""
    half, full = -0.5j * h, -1j * h
    k2 = _apply(a[1], [yi + half * ki for yi, ki in zip(y, k1)])
    k3 = _apply(a[1], [yi + half * ki for yi, ki in zip(y, k2)])
    k4 = _apply(a[2], [yi + full * ki for yi, ki in zip(y, k3)])
    return [yi + (full / 6.0) * (ki1 + 2.0 * ki2 + 2.0 * ki3 + ki4)
            for yi, ki1, ki2, ki3, ki4 in zip(y, k1, k2, k3, k4)]


def _stages(h_half: np.ndarray):
    """Views of H at each step's stage times: three component-major 2x2
    matrices (rows 0, 2, ...; 1, 3, ...; 2, 4, ... of the table)."""
    end = len(h_half)
    return tuple(tuple(h_half[s:end - 2 + s:2, i, j] for i in (0, 1)
                       for j in (0, 1)) for s in (0, 1, 2))


def _block_size(steps: int) -> int:
    """Block length b of the scan: about sqrt(steps)/2 balances its b
    vectorized in-block iterations against a state's steps/b block ends."""
    return max(1, round(np.sqrt(steps) / 2))


@dataclass(frozen=True, eq=False)
class PrefixScan:
    """RK4 transfer-matrix prefix products of one table, for any psi0.

    Steps are cut into blocks of ``b``; ``prefix[:, :, i, j]`` is the product
    of the transfer matrices of steps i*b .. i*b + j (identities pad the last
    block).  A state is carried across the block ends by the last column,
    then every sample is one product of a prefix with its block's start
    state, so each state costs only about steps/b scalar products.
    """

    grid: TimeGrid
    h_half: np.ndarray  # kept to name the failing step of a blow-up
    prefix: np.ndarray  # (2, 2, blocks, b)

    def apply(self, psi0: np.ndarray, initial_condition: str = "custom"
              ) -> StateTrajectory:
        """RK4 trajectory from a two-component psi0; see :func:`propagate`."""
        psi = np.asarray(psi0, dtype=complex)
        if psi.shape != (2,):
            raise ValueError("psi0 must be a two-component vector")
        pre = self.prefix.reshape(4, -1, self.prefix.shape[-1])
        s0, s1 = complex(psi[0]), complex(psi[1])
        start0, start1 = [s0], [s1]
        with np.errstate(over="ignore", invalid="ignore"):
            for m00, m01, m10, m11 in zip(*pre[:, :-1, -1].tolist()):
                s0, s1 = m00 * s0 + m01 * s1, m10 * s0 + m11 * s1
                start0.append(s0)
                start1.append(s1)
            out = np.empty((self.grid.n_points, 2), dtype=complex)
            out[0] = psi
            for col, val in enumerate(_apply(pre, (np.array(start0)[:, None],
                                                   np.array(start1)[:, None]))):
                out[1:, col] = val.reshape(-1)[:self.grid.steps]
        finite = np.all(np.isfinite(out), axis=1)
        if not np.all(finite):
            # The stage vectors outgrow the state, so a step-by-step RK4 loop
            # overflows a few steps before the product does: rerun the stages
            # from the finite samples to name the same step.
            last = int(np.argmin(finite))
            a = _stages(self.h_half[:2 * last + 1])
            y = (out[:last, 0], out[:last, 1])
            with np.errstate(over="ignore", invalid="ignore"):
                nxt = _rk4_step(a, self.grid.step, y, _apply(a[0], y))
            bad = ~(np.isfinite(nxt[0]) & np.isfinite(nxt[1]))
            k = int(np.argmax(bad)) + 1 if np.any(bad) else last
            raise NonFinite(f"state blew up near t={self.grid.samples[k]:g}")
        return StateTrajectory(grid=self.grid, psi=out,
                               initial_condition=initial_condition)


def prefix_scan(h_half: np.ndarray, grid: TimeGrid) -> PrefixScan:
    """Blocked prefix scan of the RK4 transfer matrices of a table.

    ``h_half`` is H on ``grid.refine(2)``, shape (2*steps + 1, 2, 2): step k
    reads its stages from rows 2k, 2k+1, 2k+2.  The in-block products take
    b vectorized iterations, each across all blocks at once.
    """
    h_half = np.asarray(h_half)
    if h_half.shape != (2 * grid.steps + 1, 2, 2):
        raise ValueError("h_half must hold H at every half step of the grid")
    n, h = grid.steps, grid.step
    b = _block_size(n)
    blocks = -(-n // b)
    p = np.zeros((2, 2, blocks, b), dtype=complex)
    m = p.reshape(4, -1)
    m[0, n:] = m[3, n:] = 1.0
    a = _stages(h_half)
    with np.errstate(over="ignore", invalid="ignore"):
        m[0, :n], m[2, :n] = _rk4_step(a, h, (1.0, 0.0), (a[0][0], a[0][2]))
        m[1, :n], m[3, :n] = _rk4_step(a, h, (0.0, 1.0), (a[0][1], a[0][3]))
        for j in range(1, b):
            x, y = p[..., j], p[..., j - 1]
            r = x[:, 0, None] * y[0]
            r += x[:, 1, None] * y[1]
            p[..., j] = r
    return PrefixScan(grid=grid, h_half=h_half, prefix=p)


def propagate(h_half: np.ndarray, psi0: np.ndarray, grid: TimeGrid,
              initial_condition: str = "custom") -> StateTrajectory:
    """Classical RK4 for i*dpsi/dt = H(t)*psi from a two-component psi0.

    ``h_half`` is H on ``grid.refine(2)``, shape (2*steps + 1, 2, 2).  Raises
    NonFinite when the state blows up (e.g. runaway gain), naming the first
    sample at which a step's stages overflow.
    """
    return prefix_scan(h_half, grid).apply(psi0, initial_condition)


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
    c, s = theta_path.cos_half, theta_path.sin_half
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


def step_halving_gap(coarse: StateTrajectory, fine: PrefixScan) -> float:
    """Max-norm gap between ``coarse`` and its half-step rerun at the shared
    samples.  ``fine`` scans H on ``coarse.grid.refine(4)``; the coarse run
    must have used every second row of that table."""
    rerun = fine.apply(coarse.psi[0])
    return float(np.max(np.abs(coarse.psi - rerun.psi[::2])))


def convergence_check(h_total: HamiltonianFn, psi0: np.ndarray,
                      grid: TimeGrid) -> float:
    """Max-norm gap between the solution on ``grid`` and on its half-step
    refinement, sampled at the shared points.  Certifies step adequacy."""
    if grid.steps % 2 != 0:
        raise ValueError("convergence check expects an even number of steps")
    h_quarter = _tabulate(h_total, grid.refine(4))
    return step_halving_gap(propagate(h_quarter[::2], psi0, grid),
                            prefix_scan(h_quarter, grid.refine(2)))
