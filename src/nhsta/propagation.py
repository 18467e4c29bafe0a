"""Fixed-step RK4 propagation of i*dpsi/dt = H(t)*psi with complex H.

H is tabulated in the kernel's layout (:func:`phase_table`): entry c of H
at t_k + p*h/P is ``h[c, p, k]``, so the stage matrices of every step, at
t_k, t_k + h/2 and t_k + h, are contiguous rows.  RK4 is linear in psi: its
stages collapse into one 2x2 transfer matrix per step, formed with batched
numpy.  A blocked prefix scan multiplies them: the products inside blocks
of about sqrt(steps)/2 steps are vectorized across all blocks (Blelloch
1990), and the products of the block ends before each block, its start
propagator, in log-depth vectorized passes across them (Hillis & Steele
1986).  The scan does not depend on psi0, so several initial states share
it, and a state's samples are two broadcast products.  Every kernel table
is quarter-step (4 phases), and its scan yields the run and the half-step
rerun that certifies it, the rerun's two steps per run interval
multiplied into one matrix, so it shares the run's blocks and scan and
yields the run's samples, where the two are compared.  The scan keeps its
table for the frame check and to name the step of a blow-up.  Callables
H(t) are sampled onto such a table first.  The module knows only tables
and bare-basis states; ``synthesis.amplitudes`` projects a state onto the
gauge-scaled eigenbasis.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import NonFinite
from .grids import TimeGrid

HamiltonianFn = Callable[[float], np.ndarray]


class StateTrajectory:
    """Bare-basis state samples psi(t_k) on a grid."""

    __slots__ = ("grid", "psi")

    def __init__(self, grid: TimeGrid, psi: np.ndarray):
        if psi.shape[0] != grid.n_points:
            raise ValueError("one state per grid point required")
        self.grid = grid
        self.psi = psi  # (n_points, dim)


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
    """H (plus H1 when given) in the kernel's layout, (4, phases, steps + 1);
    :func:`scan_table` reads quarter-step tables, phases = 4.

    ``h`` and ``h1`` are the entries (h00, h01, h10, h11) of 2x2 series on
    ``grid.refine(phases)``, phases*steps + 1 samples each (an entry of
    ``h1`` may be a scalar).  Entry c = 2i + j at t_k + p*step/phases lands
    in ``[c, p, k]``; the phases past the last sample are zero, never read.
    H is written into the layout one phase row at a time and H1 added to
    that row in place: the same sums as in sample order, with no temporary
    the size of a series.
    """
    phases = (len(h[0]) - 1) // steps
    out = np.empty((4, phases, steps + 1), dtype=complex)
    out[:, 1:, steps] = 0.0
    for dst, x, y in zip(out, h, h1 or (None,) * 4):
        for p in range(phases):
            row = dst[p, :steps + (p == 0)]  # phase 0 holds the last sample
            row[...] = x[p::phases]
            if y is not None:
                row += y[p::phases] if np.ndim(y) else y
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
    """Block length b of the scan, about sqrt(steps)/2.  The scan costs b - 1
    vectorized in-block iterations over all blocks and ceil(log2(blocks -
    1)) vectorized passes over the steps/b block ends, once per table; an
    apply loops over neither.  Another b would regroup the products and so
    move every emitted value by rounding."""
    return max(1, round(np.sqrt(steps) / 2))


#: the trajectories a scan holds, the run and its half-step rerun, each as
#: the (phase, shift) stage rows of its substeps; each substep of a run
#: interval reads rows at t, t + h/2, t + h of it
_SETS = ((((0, 0), (2, 0), (0, 1)),),
         (((0, 0), (1, 0), (2, 0)), ((2, 0), (3, 0), (0, 1))))


class PrefixScan:
    """RK4 transfer-matrix prefix products of one table, for any psi0.

    It holds one set of transfer matrices per trajectory of ``_SETS``: the
    run and its paired half-step rerun.  Each set's intervals are cut into
    blocks of ``b``; ``prefix[j, :, :, s*blocks + i]`` is the product of the
    matrices of intervals i*b .. i*b + j of set s (identities pad the last
    block), and ``starts[:, s*blocks + i]`` holds the entries of the product
    of all of set s before block i.  A state's samples are then two broadcast
    products: the starts applied to psi0, and the prefixes to those.  The
    table ``h`` is kept for the frame check and to name a blow-up.
    """

    # weak references let a caller check that a dropped table frees its scan
    __slots__ = ("grid", "h", "prefix", "starts", "__weakref__")

    def __init__(self, grid: TimeGrid, h: np.ndarray, prefix: np.ndarray,
                 starts: np.ndarray):
        self.grid = grid
        self.h = h
        self.prefix = prefix  # (b, 2, 2, 2 * blocks)
        self.starts = starts  # (4, 2 * blocks)

    def apply(self, psi0: np.ndarray) -> tuple[StateTrajectory, ...]:
        """The run and its rerun from a two-component psi0; a state that is
        not finite raises NonFinite naming the step where it blows up."""
        psi = np.asarray(psi0, dtype=complex)
        if psi.shape != (2,):
            raise ValueError("psi0 must be a two-component vector")
        b, width = len(self.prefix), self.prefix.shape[-1]
        blocks = width // 2
        with np.errstate(over="ignore", invalid="ignore"):
            cols = _apply(self.prefix.reshape(b, 4, width).transpose(1, 0, 2),
                          _apply(self.starts, psi))
        runs = []
        for lo, substeps in zip((0, blocks), _SETS):
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


def scan_table(h: np.ndarray, grid: TimeGrid) -> PrefixScan:
    """Blocked prefix scan of the RK4 transfer matrices of a table.

    ``h`` is H on ``grid`` in the kernel's layout (:func:`phase_table`)
    at the quarter steps.  The run and its rerun (``_SETS``) share the
    blocks and the b - 1 vectorized in-block iterations.
    """
    n = grid.steps
    if h.shape != (4, 4, n + 1):
        raise ValueError("h must hold H in the kernel's layout on the grid")
    b = _block_size(n)
    blocks, (full, rest) = -(-n // b), divmod(n, b)
    p = np.empty((b, 4, 2 * blocks), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, substeps in zip((0, blocks), _SETS):
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
        # each block's start: the exclusive product of its set's block ends,
        # in ceil(log2(blocks - 1)) passes s[i] = s[i] @ s[i - d] (Hillis &
        # Steele 1986) that never cross from one set into the other
        ends = q[-1].reshape(2, 2, 2, blocks)
        s = np.empty_like(ends)
        s[..., 0] = np.eye(2)[..., None]
        s[..., 1:] = ends[..., :-1]
        d = 1
        while d < blocks - 1:
            x, y = s[..., d:], s[..., :-d]
            x[...] = x[:, 0, None] * y[0] + x[:, 1, None] * y[1]
            d *= 2
    return PrefixScan(grid=grid, h=h, prefix=q, starts=s.reshape(4, -1))


def _tabulate(h_total: HamiltonianFn, grid: TimeGrid) -> np.ndarray:
    """A callable H(t) on ``grid.refine(4)``, in the kernel's layout."""
    h = np.array([h_total(t) for t in grid.refine(4).samples], dtype=complex)
    return phase_table(grid.steps, h.reshape(-1, 4).T)


def integrate(h_total: HamiltonianFn, psi0: np.ndarray, grid: TimeGrid
              ) -> StateTrajectory:
    """RK4 for a callable H(t): the run of its scan; see
    :meth:`PrefixScan.apply`."""
    return scan_table(_tabulate(h_total, grid), grid).apply(psi0)[0]


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
    return step_halving_gap(*scan_table(_tabulate(h_total, grid), grid)
                            .apply(psi0))
