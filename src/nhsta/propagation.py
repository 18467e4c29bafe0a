"""Fixed-step RK4 propagation of i*dpsi/dt = H(t)*psi with complex H.

H is tabulated in the kernel's layout (:func:`phase_table`): entry c of H
at t_k + p*h/P is ``h[c, p, k]``, so the stage matrices of every step, at
t_k, t_k + h/2 and t_k + h, are contiguous rows.  RK4 is linear in psi: its
stages collapse into one 2x2 transfer matrix per step, formed with batched
numpy.  A blocked prefix scan multiplies them (Blelloch 1990): the products
inside blocks of about sqrt(steps)/2 steps are vectorized across all
blocks, and a state needs only a short scalar loop over the block ends.
The scan does not depend on psi0, so several initial states share it.  Step
adequacy is certified by a half-step rerun on a quarter-step table: its two
steps per run interval are multiplied into one matrix, so the rerun shares
the run's blocks, scan and state loop and yields the run's samples, where
the two are compared.  Callables H(t) are sampled onto such tables first.
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


# The kernels below sum into their own temporaries (np.add(x, t, out=t) is
# x + t): fewer allocations, the same operations in the same order.

def _apply(a, y):
    """a @ y for 2x2 matrices a = (a00, a01, a10, a11) and columns
    y = (y0, y1), each entry an array (or scalar) broadcast across steps."""
    r0 = a[0] * y[0]
    r0 += a[1] * y[1]
    r1 = a[2] * y[0]
    r1 += a[3] * y[1]
    return r0, r1


def _shift(y, s: complex, k):
    """y + s*k per component."""
    out = []
    for yi, ki in zip(y, k):
        t = s * ki
        out.append(np.add(yi, t, out=t))
    return out


def _rk4_step(a, h: float, y, k1):
    """One RK4 step of column y under stage matrices a = (a0, a1, a2), the H
    at t, t + h/2, t + h; ``k1`` is a0 @ y.  The stage slopes are -i*(a @ y):
    the exact factor -i rides on the step scalars, so ``a`` can be views."""
    half, full = -0.5j * h, -1j * h
    k2 = _apply(a[1], _shift(y, half, k1))
    k3 = _apply(a[1], _shift(y, half, k2))
    k4 = _apply(a[2], _shift(y, full, k3))
    out = []
    for yi, ki1, ki2, ki3, ki4 in zip(y, k1, k2, k3, k4):
        s = 2.0 * ki2  # yi + (full/6)*(ki1 + 2*ki2 + 2*ki3 + ki4)
        np.add(ki1, s, out=s)
        s += 2.0 * ki3
        s += ki4
        np.multiply(full / 6.0, s, out=s)
        out.append(np.add(yi, s, out=s))
    return out


def phase_table(steps: int, h, h1=None) -> np.ndarray:
    """H (plus H1 when given) in the kernel's layout, (4, phases, steps + 1).

    ``h`` and ``h1`` are the entries (h00, h01, h10, h11) of 2x2 series on
    ``grid.refine(phases)``, phases*steps + 1 samples each (an entry of
    ``h1`` may be a scalar).  Entry c = 2i + j at t_k + p*step/phases lands
    in ``[c, p, k]``; the phases past the last sample are zero, never read.
    """
    def by_phase(x):  # (phases, steps) view of all but the last sample
        return x[:-1].reshape(steps, -1).T if np.ndim(x) else x

    out = np.empty((4, (len(h[0]) - 1) // steps, steps + 1), dtype=complex)
    out[:, 1:, steps] = 0.0
    for dst, x, y in zip(out, h, h1 or (None,) * 4):
        if y is None:
            dst[:, :steps], dst[0, steps] = by_phase(x), x[-1]
        else:
            np.add(by_phase(x), by_phase(y), out=dst[:, :steps])
            dst[0, steps] = x[-1] + (y[-1] if np.ndim(y) else y)
    return out


def _stages(h: np.ndarray, rows, count: int):
    """Stage matrices of the first ``count`` steps: for each (phase, shift)
    of ``rows``, the component rows h[:, phase, shift:shift + count]."""
    return tuple(tuple(h[:, p, s:s + count]) for p, s in rows)


def _transfer(h: np.ndarray, substeps, step: float, count: int):
    """Entries (m00, m01, m10, m11) of the RK4 transfer matrices of the first
    ``count`` intervals: the product of their substeps, latest on the left."""
    m = None
    for rows in substeps:
        a = _stages(h, rows, count)
        x = [_rk4_step(a, step / len(substeps), y, (a[0][c], a[0][c + 2]))
             for c, y in enumerate(((1.0, 0.0), (0.0, 1.0)))]  # columns
        if m is not None:  # x @ m, column by column
            x = [_apply((x[0][0], x[1][0], x[0][1], x[1][1]), col)
                 for col in m]
        m = x
    (m00, m10), (m01, m11) = m
    return m00, m01, m10, m11


def _block_size(steps: int) -> int:
    """Block length b of the scan: about sqrt(steps)/2 balances its b
    vectorized in-block iterations against a state's steps/b block ends."""
    return max(1, round(np.sqrt(steps) / 2))


@dataclass(frozen=True, eq=False)
class PrefixScan:
    """RK4 transfer-matrix prefix products of one table, for any psi0.

    It holds one set of transfer matrices per trajectory: the run and, for a
    certifying scan, its paired half-step rerun.  Each set's intervals are
    cut into blocks of ``b``; ``prefix[j, :, :, s*blocks + i]`` is the
    product of the matrices of intervals i*b .. i*b + j of set s (identities
    pad the last block).  A state is carried across the block ends by the
    last row, then every sample is one product of a prefix with its block's
    start state, so each state costs only about steps/b scalar products per
    set.
    """

    grid: TimeGrid
    h: np.ndarray  # kept to name the failing step of a blow-up
    sets: tuple  # per set, the (phase, shift) stage rows of its substeps
    prefix: np.ndarray  # (b, 2, 2, len(sets) * blocks)

    def apply(self, psi0: np.ndarray) -> tuple[StateTrajectory, ...]:
        """RK4 trajectory of each set from a two-component psi0 (the run
        first); a blow-up raises NonFinite naming the step where it starts."""
        psi = np.asarray(psi0, dtype=complex)
        if psi.shape != (2,):
            raise ValueError("psi0 must be a two-component vector")
        b, width = len(self.prefix), self.prefix.shape[-1]
        blocks = width // len(self.sets)
        pre = self.prefix.reshape(b, 4, width)
        ends = pre[-1].tolist()
        start0, start1 = [], []
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, width, blocks):
                s0, s1 = complex(psi[0]), complex(psi[1])
                start0.append(s0)
                start1.append(s1)
                for m00, m01, m10, m11 in zip(*(e[lo:lo + blocks - 1]
                                                for e in ends)):
                    s0, s1 = m00 * s0 + m01 * s1, m10 * s0 + m11 * s1
                    start0.append(s0)
                    start1.append(s1)
            cols = _apply(pre.transpose(1, 0, 2),
                          (np.array(start0), np.array(start1)))
        runs = []
        for lo, substeps in zip(range(0, width, blocks), self.sets):
            # component-major, padded to whole blocks; psi is a view of it
            out = np.empty((2, 1 + blocks * b), dtype=complex)
            out[:, 0] = psi
            for row, val in zip(out, cols):
                row[1:].reshape(blocks, b)[...] = val[:, lo:lo + blocks].T
            out = out[:, :self.grid.n_points].T
            self._check_finite(out, substeps)
            runs.append(StateTrajectory(grid=self.grid, psi=out))
        return tuple(runs)

    def _check_finite(self, out: np.ndarray, substeps) -> None:
        """Raise NonFinite naming the first sample at which a step's stages
        overflow, if any state of ``out`` is not finite."""
        if np.isfinite(out).all():
            return
        finite = np.all(np.isfinite(out), axis=1)
        # The stage vectors outgrow the state, so a step-by-step RK4 loop
        # overflows a few steps before the product does: rerun the stages
        # from the finite samples to name the same (sub)step.
        last = int(np.argmin(finite))
        per = len(substeps)
        first = per * last  # on the substep grid
        y = (out[:last, 0], out[:last, 1])
        with np.errstate(over="ignore", invalid="ignore"):
            for i, rows in enumerate(substeps):
                a = _stages(self.h, rows, last)
                y = _rk4_step(a, self.grid.step / per, y, _apply(a[0], y))
                bad = ~(np.isfinite(y[0]) & np.isfinite(y[1]))
                if np.any(bad):
                    first = min(first, per * int(np.argmax(bad)) + i + 1)
        t = self.grid.refine(per).samples[first]
        raise NonFinite(f"state blew up near t={t:g}")


def scan_table(h: np.ndarray, grid: TimeGrid, certify: bool = False
               ) -> PrefixScan:
    """Blocked prefix scan of the RK4 transfer matrices of a table.

    ``h`` is H on ``grid`` in the kernel's layout (:func:`phase_table`),
    with 2 phases (half steps) or 4 (quarter steps).  With ``certify`` (4
    phases) the scan also holds the half-step rerun, its two steps per run
    interval multiplied into one matrix, so both sets share the blocks and
    the b - 1 vectorized in-block iterations.
    """
    n = grid.steps
    phases = h.shape[1] if h.ndim == 3 else 0
    if (h.shape != (4, phases, n + 1) or phases not in (2, 4)
            or (certify and phases != 4)):
        raise ValueError("h must hold H in the kernel's layout on the grid")
    # each substep of a run interval reads rows at t, t + h/2, t + h of it
    run = (((0, 0), (phases // 2, 0), (0, 1)),)
    rerun = (((0, 0), (1, 0), (2, 0)), ((2, 0), (3, 0), (0, 1)))
    sets = (run, rerun) if certify else (run,)
    b = _block_size(n)
    blocks, (full, rest) = -(-n // b), divmod(n, b)
    p = np.empty((b, 4, len(sets) * blocks), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, substeps in zip(range(0, p.shape[-1], blocks), sets):
            for c, m in enumerate(_transfer(h, substeps, grid.step, n)):
                dst = p[:, c, lo:lo + blocks]
                dst[:, :full] = m[:full * b].reshape(full, b).T
                if rest:
                    dst[:rest, full] = m[full * b:]
                    dst[rest:, full] = 1.0 if c in (0, 3) else 0.0
        q = p.reshape(b, 2, 2, -1)
        r, t = np.empty_like(q[0]), np.empty_like(q[0])
        for j in range(1, b):  # q[j] = q[j] @ q[j - 1], every block at once
            x, y = q[j], q[j - 1]
            np.multiply(x[:, 0, None], y[0], out=r)
            np.multiply(x[:, 1, None], y[1], out=t)
            np.add(r, t, out=x)
    return PrefixScan(grid=grid, h=h, sets=sets, prefix=q)


def _tabulate(h_total: HamiltonianFn, grid: TimeGrid, phases: int
              ) -> np.ndarray:
    """A callable H(t) on ``grid.refine(phases)``, in the kernel's layout."""
    h = np.array([h_total(t) for t in grid.refine(phases).samples],
                 dtype=complex)
    return phase_table(grid.steps, h.reshape(-1, 4).T)


def integrate(h_total: HamiltonianFn, psi0: np.ndarray, grid: TimeGrid
              ) -> StateTrajectory:
    """RK4 for a callable H(t), sampled at the half steps; see
    :meth:`PrefixScan.apply`."""
    return scan_table(_tabulate(h_total, grid, 2), grid).apply(psi0)[0]


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


def step_halving_gap(run: StateTrajectory, rerun: StateTrajectory) -> float:
    """Max-norm gap between a run and its half-step rerun at the run's
    samples (the two trajectories of a certifying scan)."""
    return float(np.max(np.abs(run.psi - rerun.psi)))


def convergence_check(h_total: HamiltonianFn, psi0: np.ndarray,
                      grid: TimeGrid) -> float:
    """Max-norm gap between the solution on ``grid`` and on its half-step
    refinement, sampled at the shared points.  Certifies step adequacy."""
    if grid.steps % 2 != 0:
        raise ValueError("convergence check expects an even number of steps")
    scan = scan_table(_tabulate(h_total, grid, 4), grid, certify=True)
    return step_halving_gap(*scan.apply(psi0))
