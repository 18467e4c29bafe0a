"""Biorthogonal eigen-decomposition of small dense complex matrices.

A non-Hermitian H has right eigenvectors H|n> = E_n|n> and left partners
H^dag |n~> = conj(E_n)|n~> with <n~|m> = delta_nm and sum_n |n><n~| = 1.
This module provides the decomposition, its inverse, branch-continuous
eigenvector paths on a time grid, and the generic (finite-difference)
counterdiabatic and adiabatic-frame matrices built from such paths.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import BranchJump, DegenerateSpectrum, NonFinite
from .grids import TimeGrid

DEFAULT_DEGENERACY_THRESHOLD = 1e-8


def as_square_complex(m) -> np.ndarray:
    """Validate and return a finite square complex matrix."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.view(float))):
        raise NonFinite("matrix contains NaN/Inf")
    return arr


@dataclass(frozen=True)
class BiorthogonalSystem:
    """Eigenvalues with right eigenvectors and their left partners.

    ``right[:, n]`` and ``left[:, n]`` satisfy H right_n = E_n right_n,
    H^dag left_n = conj(E_n) left_n, and left_n^dag right_m = delta_nm.
    """

    eigenvalues: np.ndarray
    right: np.ndarray
    left: np.ndarray
    gauge_convention: str = "largest-component-real-positive"

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    def biorthogonality_defect(self) -> float:
        """max |<n~|m> - delta_nm|."""
        overlap = self.left.conj().T @ self.right
        return float(np.max(np.abs(overlap - np.eye(self.dim))))

    def completeness_defect(self) -> float:
        """max-norm distance of sum_n |n><n~| from the identity."""
        resolved = self.right @ self.left.conj().T
        return float(np.max(np.abs(resolved - np.eye(self.dim))))


def decompose(h, degeneracy_threshold: float = DEFAULT_DEGENERACY_THRESHOLD
              ) -> BiorthogonalSystem:
    """Biorthogonal eigen-decomposition with a deterministic normalization.

    Eigenvalues are sorted by (real, imag).  Each right vector gets unit
    2-norm with its largest-magnitude component rotated real positive; the
    left partner is then scaled so <n~|n> = 1 exactly.
    """
    arr = as_square_complex(h)
    w, vr = np.linalg.eig(arr)

    order = np.lexsort((w.imag, w.real))
    w, vr = w[order], vr[:, order]

    n = len(w)
    for i in range(n):
        for j in range(i + 1, n):
            if abs(w[i] - w[j]) <= degeneracy_threshold:
                raise DegenerateSpectrum(
                    f"eigenvalues {w[i]} and {w[j]} closer than "
                    f"{degeneracy_threshold}"
                )

    for i in range(n):
        v = vr[:, i] / np.linalg.norm(vr[:, i])
        k = int(np.argmax(np.abs(v)))
        vr[:, i] = v * (np.conj(v[k]) / abs(v[k]))
    # the rows of inv(vr) are the left vectors' conjugates
    vl = np.linalg.inv(vr).conj().T
    for i in range(n):
        vl[:, i] = vl[:, i] / np.conj(vl[:, i].conj() @ vr[:, i])

    return BiorthogonalSystem(eigenvalues=w, right=vr, left=vl)


def reconstruct(sys: BiorthogonalSystem) -> np.ndarray:
    """sum_n |n> E_n <n~|, the inverse of :func:`decompose`."""
    return (sys.right * sys.eigenvalues) @ sys.left.conj().T


@dataclass(frozen=True)
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
                eigenvalues=vals, right=right, left=left,
                gauge_convention="path-matched"))
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
