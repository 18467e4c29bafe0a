"""Gauge rescalings of the instantaneous eigenvectors.

Rescaling the eigenvector pair, phi_n = f_n |n> and phi_n~ = |n~>/conj(f_n),
keeps the set biorthonormal while making the modified amplitudes
g_n = <phi_n~|psi> behave like normalized populations for a decaying system.
The "simple" gauge integrates Im[E_n]; the "shortcut-matched" gauge
(``synthesis.matched_gauge``) adds the diagonal shift of the supplementary
Hamiltonian so |g_+| stays exactly one along the engineered evolution, and
equals the simple one bit for bit when there is no shift.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFinite, SinThetaSingular, ZeroGauge
from .grids import TimeGrid, cumulative_trapezoid
from .two_level import MixingAnglePath

#: below this, a vanishing Re[sin theta] is treated as removable iff the
#: numerator Im[dtheta] vanishes with it
EPS_SINGULAR = 1e-9


@dataclass(frozen=True, eq=False)
class GaugeFunctions:
    """Gauge factors on a grid plus their exact logarithmic derivatives.

    ``dlogf_*`` hold the defining integrands (d/dt f)/f, kept separately so
    frame matrices never differentiate the sampled f numerically.
    f_+(t0) = f_-(t0) = 1 exactly.
    """

    grid: TimeGrid
    f_plus: np.ndarray
    f_minus: np.ndarray
    dlogf_plus: np.ndarray
    dlogf_minus: np.ndarray

    def __post_init__(self):
        n = self.grid.n_points
        for name in ("f_plus", "f_minus", "dlogf_plus", "dlogf_minus"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} length must match grid")
        for name in ("f_plus", "f_minus"):
            zero = getattr(self, name) == 0
            if np.any(zero):
                raise ZeroGauge(f"{name} vanished at "
                                f"t={self.grid.samples[np.argmax(zero)]:g}")


def _cumexp(integrand: np.ndarray, step: float) -> np.ndarray:
    if not np.all(np.isfinite(np.asarray(integrand).view(float))):
        raise NonFinite("gauge integrand contains NaN/Inf")
    return np.exp(cumulative_trapezoid(integrand, step))


def gauge_from_integrands(grid: TimeGrid, u_plus: np.ndarray,
                          u_minus: np.ndarray) -> GaugeFunctions:
    """Build gauge factors f_n = exp(cumulative trapezoid of u_n)."""
    return GaugeFunctions(
        grid=grid,
        f_plus=_cumexp(u_plus, grid.step),
        f_minus=_cumexp(u_minus, grid.step),
        dlogf_plus=np.asarray(u_plus),
        dlogf_minus=np.asarray(u_minus),
    )


def gauge_simple(e_plus: np.ndarray, e_minus: np.ndarray,
                 grid: TimeGrid) -> GaugeFunctions:
    """f_n(t) = exp(int_{t0}^t Im[E_n] dt'), hbar = 1.

    The factors are real positive and |g_n| is the decay-compensated
    amplitude.
    """
    u_plus = np.asarray(e_plus).imag.astype(complex)
    u_minus = np.asarray(e_minus).imag.astype(complex)
    return gauge_from_integrands(grid, u_plus, u_minus)


def matched_delta(theta_path: MixingAnglePath) -> np.ndarray:
    """Real diagonal split delta(t) = Im[dtheta]/Re[sin theta].

    This is the diagonal entry delta of the realizable supplement
    0.5*[[delta, W], [conj(W), -delta]] that removes the amplitude flow out
    of the reference eigenstate.  Points where Re[sin theta] and Im[dtheta]
    vanish together are removable: they take the limit of their neighbours,
    interpolated linearly over the unguarded samples (0 if every sample is
    guarded).  A vanishing denominator with a surviving numerator raises
    SinThetaSingular.
    """
    re_sin = theta_path.sin.real
    num = theta_path.dtheta.imag
    small = np.abs(re_sin) < EPS_SINGULAR
    bad = small & (np.abs(num) >= EPS_SINGULAR)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise SinThetaSingular(
            f"Re[sin theta] ~ 0 with Im[dtheta] = {num[k]:.3e} at "
            f"t={theta_path.grid.samples[k]:g}"
        )
    delta = np.where(small, 0.0, num / np.where(small, 1.0, re_sin))
    if np.any(small) and not np.all(small):
        ts = theta_path.grid.samples
        delta[small] = np.interp(ts[small], ts[~small], delta[~small])
    return delta
