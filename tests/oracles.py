"""Independent reference constructions the tests check the pipeline against.

None of these runs in a command.  They build the same objects the package
builds in closed, vectorized form, but the slow and generic way: matched
eigenvector paths decomposed point by point, counterdiabatic and
adiabatic-frame matrices from finite differences of those paths, explicit
frame rotations (R, R~), the per-index closed-form frame matrix of H0, and
the closed-form eigenvector pair of a mixing angle.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from nhsta.biorthogonal import (DEFAULT_DEGENERACY_THRESHOLD,
                                BiorthogonalSystem, decompose)
from nhsta.errors import BranchJump, ZeroGauge
from nhsta.gauges import GaugeFunctions
from nhsta.grids import TimeGrid
from nhsta.two_level import MixingAnglePath, PulseSpec, eigenvalues


# ------------------------------------------------- generic biorthogonal paths


@dataclass(frozen=True, eq=False)
class EigenPath:
    """Per-grid-point biorthogonal systems with continuous matching.

    Adjacent points share eigenvector ordering and phase: the overlap
    <n~(t_k)|n(t_{k+1})> is kept real positive and above 0.5.
    """

    grid: TimeGrid
    systems: Sequence[BiorthogonalSystem]

    def __post_init__(self):
        if len(self.systems) != self.grid.n_points:
            raise ValueError("one system per grid point required")

    @property
    def dim(self) -> int:
        return self.systems[0].dim

    @classmethod
    def from_hamiltonian(cls, h_of_t: Callable[[float], np.ndarray],
                         grid: TimeGrid,
                         degeneracy_threshold: float = DEFAULT_DEGENERACY_THRESHOLD
                         ) -> "EigenPath":
        """Decompose H(t_k) at every sample and match adjacent systems.

        Matching is a greedy assignment maximizing |<n~(t_k)|n(t_{k+1})>|;
        an assignment whose best overlap is <= 0.5 aborts with BranchJump.
        After assignment both vectors of a pair are rotated by a common phase
        so the matching overlap is real positive.
        """
        ts = grid.samples
        systems = [decompose(h_of_t(t), degeneracy_threshold) for t in ts]
        matched = [systems[0]]
        for k in range(1, len(ts)):
            prev, cur = matched[-1], systems[k]
            n = cur.dim
            overlap = prev.left.conj().T @ cur.right
            mag = np.abs(overlap)
            perm = np.full(n, -1)
            used_rows, used_cols = set(), set()
            for _ in range(n):
                best = -1.0
                bi = bj = -1
                for i in range(n):
                    if i in used_rows:
                        continue
                    for j in range(n):
                        if j in used_cols:
                            continue
                        if mag[i, j] > best:
                            best, bi, bj = mag[i, j], i, j
                if best <= 0.5:
                    raise BranchJump(
                        f"eigenvector continuity lost near t={ts[k]:g} "
                        f"(best overlap {best:.3f} <= 0.5)"
                    )
                perm[bi] = bj
                used_rows.add(bi)
                used_cols.add(bj)
            right = cur.right[:, perm].copy()
            left = cur.left[:, perm].copy()
            vals = cur.eigenvalues[perm].copy()
            for i in range(n):
                ov = prev.left[:, i].conj() @ right[:, i]
                phase = ov / abs(ov)
                right[:, i] *= np.conj(phase)
                left[:, i] *= np.conj(phase)
            matched.append(BiorthogonalSystem(
                eigenvalues=vals, right=right, left=left))
        return cls(grid=grid, systems=matched)

    @classmethod
    def from_systems(cls, grid: TimeGrid,
                     systems: Sequence[BiorthogonalSystem]) -> "EigenPath":
        """Wrap externally built (already continuous) systems."""
        return cls(grid=grid, systems=list(systems))


def _check_interior(path: EigenPath, k: int):
    if not 0 < k < path.grid.n_points - 1:
        raise IndexError(
            f"central differences need interior index, got k={k} of "
            f"{path.grid.n_points} points"
        )


def _derivative_overlaps(path: EigenPath, k: int) -> np.ndarray:
    """Matrix A with A[m, n] = <m~(t_k)| d/dt |n(t_k)> by central differences."""
    _check_interior(path, k)
    h = path.grid.step
    d_right = (path.systems[k + 1].right - path.systems[k - 1].right) / (2.0 * h)
    return path.systems[k].left.conj().T @ d_right


def counterdiabatic_generic(path: EigenPath, k: int) -> np.ndarray:
    """i * sum_{n != m} <m~|dt n> |m><n~| at grid point k (hbar = 1).

    Exactly cancels the non-adiabatic couplings of the path's Hamiltonian;
    diagonal entries vanish in the eigenbasis by construction.
    """
    a = _derivative_overlaps(path, k)
    np.fill_diagonal(a, 0.0)
    sys_k = path.systems[k]
    return 1j * (sys_k.right @ a @ sys_k.left.conj().T)


def adiabatic_frame_generic(path: EigenPath, k: int) -> np.ndarray:
    """Frame matrix with E_n - i<n~|dt n> on the diagonal and -i<m~|dt n>
    off-diagonal (hbar = 1)."""
    a = _derivative_overlaps(path, k)
    return np.diag(path.systems[k].eigenvalues) - 1j * a


def left_right_derivative_identity(path: EigenPath, k: int, n: int, m: int):
    """The derivative pair forced by differentiating <n~|m> = delta_nm.

    Returns (<n~|dt m>, -<dt n~|m>) at grid point k; the two agree within
    finite-difference tolerance on any smooth biorthonormalized path.  (The
    further rewriting of the second member as -conj(<m~|dt n>) holds only
    when the derivative overlaps are effectively Hermitian, e.g. for a
    Hermitian Hamiltonian path.)
    """
    _check_interior(path, k)
    h = path.grid.step
    d_right_m = (path.systems[k + 1].right[:, m]
                 - path.systems[k - 1].right[:, m]) / (2.0 * h)
    d_left_n = (path.systems[k + 1].left[:, n]
                - path.systems[k - 1].left[:, n]) / (2.0 * h)
    first = path.systems[k].left[:, n].conj() @ d_right_m
    second = -(d_left_n.conj() @ path.systems[k].right[:, m])
    return first, second


# ------------------------------------------------ two-level closed forms


def eigenvectors(theta: complex):
    """Right pair (|+>, |->) and left pair (|+~>, |-~>) for a mixing angle.

    <n~|m> = delta_nm holds exactly for any complex theta.
    """
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    plus = np.array([c, s], dtype=complex)
    minus = np.array([s, -c], dtype=complex)
    cs, ss = np.cos(np.conj(theta) / 2.0), np.sin(np.conj(theta) / 2.0)
    plus_tilde = np.array([cs, ss], dtype=complex)
    minus_tilde = np.array([ss, -cs], dtype=complex)
    return (plus, minus), (plus_tilde, minus_tilde)


@dataclass(frozen=True, eq=False)
class FrameRotation:
    """Rotation pair (R, R~) between bare and adiabatic frames.

    R columns are f_n-scaled right eigenvectors; R~ columns are the
    1/conj(f_n)-scaled left partners, so R~^dag R = 1 even though R is not
    unitary.  ``r`` and ``r_tilde`` are (2, 2), or (n, 2, 2) for a path.
    """

    r: np.ndarray
    r_tilde: np.ndarray

    def inverse_defect(self) -> float:
        r_tilde_dag = self.r_tilde.conj().swapaxes(-1, -2)
        return float(np.max(np.abs(r_tilde_dag @ self.r - np.eye(2))))


def _matrices(rows) -> np.ndarray:
    """2x2 nested entries (scalars or equal-length arrays) -> (..., 2, 2)."""
    return np.moveaxis(np.array(rows, dtype=complex), (0, 1), (-2, -1))


def rotation(theta, f: tuple) -> FrameRotation:
    """Frame rotation for mixing angle theta and gauge pair f = (f_+, f_-).

    Scalars give one rotation; equal-length arrays give one per sample.
    """
    f_plus, f_minus = f
    if np.any(np.asarray(f_plus) == 0) or np.any(np.asarray(f_minus) == 0):
        raise ZeroGauge("cannot build rotation with a vanishing gauge factor")
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    r = _matrices([[f_plus * c, f_minus * s], [f_plus * s, -f_minus * c]])
    cs, ss = np.cos(np.conj(theta) / 2.0), np.sin(np.conj(theta) / 2.0)
    r_tilde = _matrices([[cs / np.conj(f_plus), ss / np.conj(f_minus)],
                         [ss / np.conj(f_plus), -cs / np.conj(f_minus)]])
    return FrameRotation(r=r, r_tilde=r_tilde)


def adiabatic_frame_h0(pulse: PulseSpec, theta_path: MixingAnglePath,
                       gauges: GaugeFunctions, k: int) -> np.ndarray:
    """Adiabatic-frame matrix of the bare Hamiltonian at grid point k.

    diag(E_+, E_-) - i * [[u_+, dtheta*f_-/(2 f_+)],
                          [-dtheta*f_+/(2 f_-), u_-]]
    with u_n the exact gauge integrands (hbar = 1).  The off-diagonal
    entries are the non-adiabatic couplings.
    """
    n = theta_path.grid.n_points
    if not 0 <= k < n:
        raise IndexError(f"index {k} outside grid of {n} points")
    if gauges.grid != theta_path.grid:
        raise ValueError("gauges and theta path must share the grid")
    t = theta_path.grid.samples[k]
    e_plus, e_minus = eigenvalues(pulse, t, theta_path.regime)
    fp, fm = gauges.f_plus[k], gauges.f_minus[k]
    if fp == 0 or fm == 0:
        raise ZeroGauge("gauge factor vanished")
    dth = theta_path.dtheta[k]
    return np.array(
        [
            [e_plus - 1j * gauges.dlogf_plus[k], -0.5j * dth * fm / fp],
            [0.5j * dth * fp / fm, e_minus - 1j * gauges.dlogf_minus[k]],
        ],
        dtype=complex,
    )
