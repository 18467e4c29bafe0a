"""Biorthogonal eigen-decomposition of small dense complex matrices.

A non-Hermitian H has right eigenvectors H|n> = E_n|n> and left partners
H^dag |n~> = conj(E_n)|n~> with <n~|m> = delta_nm and sum_n |n><n~| = 1.
This module provides the decomposition and its inverse, for one matrix
(n, n) or a stack of them (k, n, n) in one call.
"""
from __future__ import annotations

import numpy as np

from .errors import DegenerateSpectrum, NonFinite

DEFAULT_DEGENERACY_THRESHOLD = 1e-8


def as_square_complex(m) -> np.ndarray:
    """Validate and return a finite square complex matrix, (n, n), or a
    non-empty stack of them, (k, n, n)."""
    arr = np.asarray(m, dtype=complex)
    if (arr.ndim not in (2, 3) or arr.shape[-1] != arr.shape[-2]
            or arr.size == 0):
        raise ValueError(f"expected a square matrix or a stack of them, got "
                         f"shape {arr.shape}")
    if not np.all(np.isfinite(arr.view(float))):
        raise NonFinite("matrix contains NaN/Inf")
    return arr


def _dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


class BiorthogonalSystem:
    """Eigenvalues with right eigenvectors and their left partners.

    ``right[..., :, n]`` and ``left[..., :, n]`` satisfy H right_n =
    E_n right_n, H^dag left_n = conj(E_n) left_n, and left_n^dag right_m =
    delta_nm; for a stack the leading axis indexes its members.
    """

    __slots__ = ("eigenvalues", "right", "left")

    def __init__(self, eigenvalues: np.ndarray, right: np.ndarray,
                 left: np.ndarray):
        self.eigenvalues, self.right, self.left = eigenvalues, right, left

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[-1]

    def biorthogonality_defect(self) -> float:
        """max |<n~|m> - delta_nm|, over every member of a stack."""
        overlap = _dagger(self.left) @ self.right
        return float(np.max(np.abs(overlap - np.eye(self.dim))))

    def completeness_defect(self) -> float:
        """max-norm distance of sum_n |n><n~| from the identity, over every
        member of a stack."""
        resolved = self.right @ _dagger(self.left)
        return float(np.max(np.abs(resolved - np.eye(self.dim))))


def decompose(h, degeneracy_threshold: float = DEFAULT_DEGENERACY_THRESHOLD
              ) -> BiorthogonalSystem:
    """Biorthogonal eigen-decomposition with a deterministic normalization,
    of one matrix (n, n) or of each member of a stack (k, n, n).

    Eigenvalues are sorted by (real, imag).  Each right vector gets unit
    2-norm with its largest-magnitude component rotated real positive; the
    left partner is then scaled so <n~|n> = 1 exactly.  Two eigenvalues of
    one member within ``degeneracy_threshold`` raise DegenerateSpectrum
    naming the pair (and, for a stack, the member).
    """
    arr = as_square_complex(h)
    w, vr = np.linalg.eig(arr)

    order = np.lexsort((w.imag, w.real), axis=-1)
    w = np.take_along_axis(w, order, axis=-1)
    vr = np.take_along_axis(vr, order[..., None, :], axis=-1)

    n = w.shape[-1]
    close = np.abs(w[..., :, None] - w[..., None, :]) <= degeneracy_threshold
    close &= np.triu(np.ones((n, n), dtype=bool), k=1)
    if np.any(close):
        *member, i, j = np.argwhere(close)[0]
        where = f"member {member[0]}: " if member else ""
        pair = w[tuple(member)]
        raise DegenerateSpectrum(
            f"{where}eigenvalues {pair[i]} and {pair[j]} closer than "
            f"{degeneracy_threshold}"
        )

    vr = vr / np.linalg.norm(vr, axis=-2, keepdims=True)
    k = np.argmax(np.abs(vr), axis=-2)[..., None, :]
    pivot = np.take_along_axis(vr, k, axis=-2)
    vr *= pivot.conj() / np.abs(pivot)
    # the rows of inv(vr) are the left vectors' conjugates
    vl = _dagger(np.linalg.inv(vr))
    vl /= np.sum(vl.conj() * vr, axis=-2, keepdims=True).conj()

    return BiorthogonalSystem(eigenvalues=w, right=vr, left=vl)


def reconstruct(sys: BiorthogonalSystem) -> np.ndarray:
    """sum_n |n> E_n <n~|, the inverse of :func:`decompose` (a stack for a
    stack)."""
    return (sys.right * sys.eigenvalues[..., None, :]) @ _dagger(sys.left)
