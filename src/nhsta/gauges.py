"""Gauge rescalings of the instantaneous eigenvectors.

Rescaling the eigenvector pair, phi_n = f_n |n> and phi_n~ = |n~>/conj(f_n),
keeps the set biorthonormal while making the modified amplitudes
g_n = <phi_n~|psi> behave like normalized populations for a decaying system.
The "simple" gauge integrates Im[E_n]; the "shortcut-matched" gauge
(``synthesis.matched_gauge``) adds the diagonal shift of the supplementary
Hamiltonian so |g_+| stays exactly one along the engineered evolution, and
equals the simple one bit for bit when there is no shift.  Both integrate a
real integrand u_n into f_n = exp(int u_n dt); a gauge keeps only the
factors, since nothing downstream reads u_n.
"""
from __future__ import annotations

import numpy as np

from .errors import NonFinite, SinThetaSingular, ZeroGauge
from .grids import TimeGrid, cumulative_trapezoid
from .two_level import MixingAnglePath

#: below this, a vanishing Re[sin theta] is treated as removable iff the
#: numerator Im[dtheta] vanishes with it: below this times max|dtheta|
EPS_SINGULAR = 1e-9


class GaugeFunctions:
    """Real gauge factors f_+ and f_- on a grid, f_+(t0) = f_-(t0) = 1
    exactly."""

    __slots__ = ("grid", "f_plus", "f_minus")

    def __init__(self, grid: TimeGrid, f_plus: np.ndarray,
                 f_minus: np.ndarray):
        for name, arr in (("f_plus", f_plus), ("f_minus", f_minus)):
            if len(arr) != grid.n_points:
                raise ValueError(f"{name} length must match grid")
            zero = arr == 0
            if np.any(zero):
                raise ZeroGauge(f"{name} vanished at "
                                f"t={grid.samples[np.argmax(zero)]:g}")
        self.grid = grid
        self.f_plus, self.f_minus = f_plus, f_minus


def _cumexp(integrand: np.ndarray, step: float) -> np.ndarray:
    if not np.all(np.isfinite(integrand)):
        raise NonFinite("gauge integrand contains NaN/Inf")
    return np.exp(cumulative_trapezoid(integrand, step))


def gauge_from_integrands(grid: TimeGrid, u_plus: np.ndarray,
                          u_minus: np.ndarray) -> GaugeFunctions:
    """Build gauge factors f_n = exp(cumulative trapezoid of u_n) from real
    integrands u_n, so the factors are real."""
    return GaugeFunctions(grid, _cumexp(u_plus, grid.step),
                          _cumexp(u_minus, grid.step))


def gauge_simple(e_plus: np.ndarray, e_minus: np.ndarray,
                 grid: TimeGrid) -> GaugeFunctions:
    """f_n(t) = exp(int_{t0}^t Im[E_n] dt'), hbar = 1.

    The factors are real positive (float64) and |g_n| is the
    decay-compensated amplitude.
    """
    return gauge_from_integrands(grid, np.asarray(e_plus).imag,
                                 np.asarray(e_minus).imag)


def matched_delta(theta_path: MixingAnglePath) -> np.ndarray:
    """Real diagonal split delta(t) = Im[dtheta]/Re[sin theta].

    This is the diagonal entry delta of the realizable supplement
    0.5*[[delta, W], [conj(W), -delta]] that removes the amplitude flow out
    of the reference eigenstate.  Points where Re[sin theta] and Im[dtheta]
    vanish together are removable: they take the limit of their neighbours,
    interpolated linearly over the unguarded samples (0 if every sample is
    guarded).  Im[dtheta] vanishes when it is below EPS_SINGULAR times
    max|dtheta|, the rate's own scale, which grows as the pulse shortens.
    A vanishing denominator with a surviving numerator raises
    SinThetaSingular.
    """
    re_sin = theta_path.sin.real
    num = theta_path.dtheta.imag
    small = np.abs(re_sin) < EPS_SINGULAR
    delta = np.where(small, 0.0, num / np.where(small, 1.0, re_sin))
    if not np.any(small):
        return delta
    scale = np.max(np.abs(theta_path.dtheta))
    bad = small & (np.abs(num) > EPS_SINGULAR * scale)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise SinThetaSingular(
            f"Re[sin theta] ~ 0 with Im[dtheta] = {num[k]:.3e} at "
            f"t={theta_path.grid.samples[k]:g}"
        )
    if not np.all(small):
        ts = theta_path.grid.samples
        delta[small] = np.interp(ts[small], ts[~small], delta[~small])
    return delta
