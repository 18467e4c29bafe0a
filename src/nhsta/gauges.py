"""Gauge rescalings of the instantaneous eigenvectors and frame rotations.

Rescaling the eigenvector pair, phi_n = f_n |n> and phi_n~ = |n~>/conj(f_n),
keeps the set biorthonormal while making the modified amplitudes
g_n = <phi_n~|psi> behave like normalized populations for a decaying system.
The "simple" gauge integrates Im[E_n]; the "shortcut-matched" gauge adds the
diagonal shift of the supplementary Hamiltonian so |g_+| stays exactly one
along the engineered evolution.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NonFinite, SinThetaSingular, ZeroGauge
from .grids import TimeGrid, cumulative_trapezoid
from .two_level import MixingAnglePath, PulseSpec, eigenvalues

#: below this, a vanishing Re[sin theta] is treated as removable iff the
#: numerator Im[dtheta] vanishes with it
EPS_SINGULAR = 1e-9


@dataclass(frozen=True)
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
    kind: str  # "simple" | "shortcut-matched"

    def __post_init__(self):
        n = self.grid.n_points
        for name in ("f_plus", "f_minus", "dlogf_plus", "dlogf_minus"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} length must match grid")
        if np.any(self.f_plus == 0) or np.any(self.f_minus == 0):
            raise ZeroGauge("gauge function vanished on the grid")


def _cumexp(integrand: np.ndarray, step: float) -> np.ndarray:
    if not np.all(np.isfinite(np.asarray(integrand).view(float))):
        raise NonFinite("gauge integrand contains NaN/Inf")
    return np.exp(cumulative_trapezoid(integrand, step))


def gauge_from_integrands(grid: TimeGrid, u_plus: np.ndarray, u_minus: np.ndarray,
                          kind: str) -> GaugeFunctions:
    """Build gauge factors f_n = exp(cumulative trapezoid of u_n)."""
    return GaugeFunctions(
        grid=grid,
        f_plus=_cumexp(u_plus, grid.step),
        f_minus=_cumexp(u_minus, grid.step),
        dlogf_plus=np.asarray(u_plus),
        dlogf_minus=np.asarray(u_minus),
        kind=kind,
    )


def gauge_simple(e_plus: np.ndarray, e_minus: np.ndarray, grid: TimeGrid,
                 h_plus: Optional[Callable] = None,
                 h_minus: Optional[Callable] = None) -> GaugeFunctions:
    """f_n(t) = exp(int_{t0}^t Im[E_n] + i*h_n dt'), hbar = 1.

    With h_n = 0 (default) the factors are real positive and |g_n| is the
    decay-compensated amplitude.
    """
    ts = grid.samples
    u_plus = np.asarray(e_plus).imag.astype(complex)
    u_minus = np.asarray(e_minus).imag.astype(complex)
    if h_plus is not None:
        u_plus = u_plus + 1j * np.asarray(h_plus(ts), dtype=float)
    if h_minus is not None:
        u_minus = u_minus + 1j * np.asarray(h_minus(ts), dtype=float)
    return gauge_from_integrands(grid, u_plus, u_minus, kind="simple")


def matched_delta(theta_path: MixingAnglePath,
                  eps_singular: float = EPS_SINGULAR) -> np.ndarray:
    """Real diagonal split delta(t) = Im[dtheta]/Re[sin theta].

    This is the half-difference (delta_+ - delta_-)/2 of the realizable
    supplement that removes the amplitude flow out of the reference
    eigenstate.  Points where Re[sin theta] and Im[dtheta] vanish together
    are removable: they take the limit of their neighbours, interpolated
    linearly over the unguarded samples (0 if every sample is guarded).  A
    vanishing denominator with a surviving numerator raises SinThetaSingular.
    """
    re_sin = np.sin(theta_path.theta).real
    num = theta_path.dtheta.imag
    small = np.abs(re_sin) < eps_singular
    bad = small & (np.abs(num) >= eps_singular)
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


def gauge_shortcut(e_plus: np.ndarray, e_minus: np.ndarray,
                   theta_path: MixingAnglePath, grid: TimeGrid,
                   eps_singular: float = EPS_SINGULAR) -> GaugeFunctions:
    """Gauge matched to the realizable supplement so |g_+(t)| = 1.

    f_+ integrates Im[E_+] + delta*Im[cos theta]/2 with
    delta = Im[dtheta]/Re[sin theta] (real positive result); f_- falls back
    to the simple rule with h_- = 0.
    """
    delta = matched_delta(theta_path, eps_singular)
    u_plus = np.asarray(e_plus).imag + 0.5 * delta * np.cos(theta_path.theta).imag
    u_minus = np.asarray(e_minus).imag
    return gauge_from_integrands(grid, u_plus.astype(complex),
                                 u_minus.astype(complex),
                                 kind="shortcut-matched")


@dataclass(frozen=True)
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
