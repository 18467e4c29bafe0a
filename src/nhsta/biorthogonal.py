"""Biorthogonal eigen-decomposition of small dense complex matrices.

A non-Hermitian H has right eigenvectors H|n> = E_n|n> and left partners
H^dag |n~> = conj(E_n)|n~> with <n~|m> = delta_nm and sum_n |n><n~| = 1.
This module provides the decomposition and its inverse.
"""
from __future__ import annotations

import numpy as np

from .errors import DegenerateSpectrum, NonFinite

DEFAULT_DEGENERACY_THRESHOLD = 1e-8


def as_square_complex(m) -> np.ndarray:
    """Validate and return a finite square complex matrix."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.view(float))):
        raise NonFinite("matrix contains NaN/Inf")
    return arr


class BiorthogonalSystem:
    """Eigenvalues with right eigenvectors and their left partners.

    ``right[:, n]`` and ``left[:, n]`` satisfy H right_n = E_n right_n,
    H^dag left_n = conj(E_n) left_n, and left_n^dag right_m = delta_nm.
    """

    __slots__ = ("eigenvalues", "right", "left")

    def __init__(self, eigenvalues: np.ndarray, right: np.ndarray,
                 left: np.ndarray):
        self.eigenvalues, self.right, self.left = eigenvalues, right, left

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
