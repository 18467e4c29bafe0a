"""Gauge rescalings of the instantaneous eigenvectors.

Rescaling the eigenvector pair, phi_n = f_n |n> and phi_n~ = |n~>/conj(f_n),
keeps the set biorthonormal while making the modified amplitudes
g_n = <phi_n~|psi> behave like normalized populations for a decaying system.
The package has one gauge, ``synthesis.matched_gauge``: it integrates
Im[E_+ + d_+] and Im[E_-], d_+ the diagonal shift of the supplementary
Hamiltonian, so |g_+| stays exactly one along the engineered evolution;
with no shift it is the simple gauge, Im[E_n] for each n.
(``experiments.gauge_simple`` is that function under the name the
benchmark tracer wraps.)  Real integrands u_n become the factors
f_n = exp(int u_n dt) here; a gauge keeps only the factors, since nothing
downstream reads u_n.
"""
from __future__ import annotations

import numpy as np

from .errors import NonFinite, SinThetaSingular, ZeroGauge
from .grids import TimeGrid, cumulative_trapezoid
from .two_level import MixingAnglePath

#: a denominator below this is guarded, and removable iff its numerator
#: is below this times max|dtheta|
EPS_SINGULAR = 1e-9


def _guarded_ratio(theta_path: MixingAnglePath, num: np.ndarray,
                   den: np.ndarray, error: type, message: str) -> np.ndarray:
    """num/den on ``theta_path``'s grid, the diagonal split of both
    realizable supplements.  Samples with |den| < EPS_SINGULAR are guarded;
    any with |num| > EPS_SINGULAR*max|dtheta| raises ``error`` with
    ``message`` formatted with its ``num`` and ``t``.  The rest are
    removable.  An isolated one, k with 2 <= k <= n - 3 whose samples
    k +- 1 and k +- 2 are unguarded, takes the four-point cubic
    (-r[k-2] + 4r[k-1] + 4r[k+1] - r[k+2])/6 of those ratios r, whose
    error is fourth order like the steps that read it; any other takes
    the linear interpolation of the unguarded samples (0 if all are
    guarded)."""
    small = np.abs(den) < EPS_SINGULAR
    out = np.where(small, 0.0, num / np.where(small, 1.0, den))
    if not np.any(small):
        return out
    scale = np.max(np.abs(theta_path.dtheta))
    bad = small & (np.abs(num) > EPS_SINGULAR * scale)
    ts = theta_path.grid.samples
    if np.any(bad):
        k = int(np.argmax(bad))
        raise error(message.format(num=num[k], t=ts[k]))
    if not np.all(small):
        out[small] = np.interp(ts[small], ts[~small], out[~small])
        k = np.flatnonzero(small[2:-2]) + 2
        k = k[~(small[k - 2] | small[k - 1] | small[k + 1] | small[k + 2])]
        out[k] = (-out[k - 2] + 4 * out[k - 1] + 4 * out[k + 1]
                  - out[k + 2]) / 6
    return out


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


def matched_delta(theta_path: MixingAnglePath) -> np.ndarray:
    """Real diagonal split delta(t) = Im[dtheta]/Re[sin theta], the diagonal
    entry of the realizable supplement 0.5*[[delta, W], [conj(W), -delta]]
    that removes the amplitude flow out of the reference eigenstate.
    Samples where Re[sin theta] ~ 0 follow :func:`_guarded_ratio`; one whose
    Im[dtheta] survives there raises SinThetaSingular.
    """
    return _guarded_ratio(
        theta_path, theta_path.dtheta.imag, theta_path.sin.real,
        SinThetaSingular,
        "Re[sin theta] ~ 0 with Im[dtheta] = {num:.3e} at t={t:g}")
