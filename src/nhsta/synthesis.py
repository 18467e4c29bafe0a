"""Supplementary Hamiltonians that suppress non-adiabatic amplitude flow.

Three policies are provided for the two-level model, each in closed form
and each returning the entries (h00, h01, h10, h11) of its H1 on the grid
of the angle path it is given:

* the counterdiabatic term ``0.5i*[[0, -dtheta], [dtheta, 0]]``
  (``naive_cd_entries``).  For complex mixing angles its off-diagonal
  entries are not conjugates of each other, so no single coherent drive
  realizes it.
* ``hermitian_realizable`` - a Hermitian matrix
  0.5*[[delta, i*W],[-i*W, -delta]] whose coefficients cancel only the
  coupling that feeds amplitude from the reference eigenstate into the
  other one.  The evolution then stays pinned to the (gauge-scaled)
  reference eigenstate even though the reverse coupling survives.
* ``general_family_omega_zero`` - the member of the underdetermined family
  of such supplements that needs no extra drive field at all.

The last two have the form 0.5*[[delta, W],[conj(W), -delta]], so
delta = 2*h00 and W = 2*h01.  Every policy's gauge, closed-form surviving
amplitude and leak residual read those four entries: the gauge and the
closed form follow from one level E_+ + d_+, with d_+ the supplement's
adiabatic-frame diagonal (``two_level.frame_diagonal``, the formula that
also gives E_+ from H0; 0 for the naive term).  That gauge,
``matched_gauge``, is the package's only one: for the naive term it is the
simple gauge, and ``experiments.gauge_simple`` is its alias for the
benchmark tracer.  The residual is twice the cancellation condition
<-~|H1|+> + i*dtheta/2 = 0.  The frame check
(``frame_coupling``) is that expression for H0 + H1 times f_+/(2 f_-).
For the form above, with lam = delta*sin(theta) and zeta = Re[W]*cos(theta),
the condition reads

    lam + i*Im[W] - zeta = -i*dtheta,

whose real/imag split gives Im[dtheta] = Re[lam] - Re[zeta] and
Im[W] = -Re[dtheta] - Im[lam] + Im[zeta].
"""
from __future__ import annotations

import numpy as np

from .errors import InconsistentChoice
from .gauges import GaugeFunctions, gauge_from_integrands, matched_delta
from .grids import TimeGrid, cumulative_trapezoid
from .two_level import MixingAnglePath, _raise_at_first, complex_array

POLICY_NAIVE = "naive-cd"
POLICY_HERMITIAN = "hermitian-realizable"
#: general-family preset with zero coupling drive
POLICY_OMEGA_ZERO = "general-omega-zero"


def naive_cd_entries(theta_path: MixingAnglePath) -> tuple:
    """Entries (h00, h01, h10, h11) of the counterdiabatic supplement
    0.5i*[[0, -dtheta], [dtheta, 0]], Hermitian exactly when dtheta is real."""
    dth = theta_path.dtheta
    return 0.0, -0.5j * dth, 0.5j * dth, 0.0


def _entries(grid: TimeGrid, delta: np.ndarray, omega: np.ndarray) -> tuple:
    """Entries (h00, h01, h10, h11) of 0.5*[[delta, W],[conj(W), -delta]],
    W an array or a scalar; a non-finite coefficient raises NonFinite
    naming its first t (the grid's samples are formed only then)."""
    for name, arr in (("delta", delta), ("omega", omega)):
        if not np.isfinite(arr).all():
            _raise_at_first(grid.samples, ~np.isfinite(arr), name)
    return 0.5 * delta, 0.5 * omega, 0.5 * np.conj(omega), 0.5 * -delta


def hermitian_realizable(theta_path: MixingAnglePath) -> tuple:
    """Entries of the Hermitian supplement cancelling the reference-state leak.

    delta = Im[dtheta]/Re[sin theta] and the drive quadrature
    Im[W] = -Re[dtheta] - delta*Im[sin theta] with Re[W] = 0.
    """
    delta = matched_delta(theta_path)
    omega_a = -theta_path.dtheta.real - delta * theta_path.sin.imag
    return _entries(theta_path.grid, delta, 1j * omega_a)


def general_family_omega_zero(theta_path: MixingAnglePath) -> tuple:
    """The zero-drive member: lam = -i*dtheta makes W vanish identically, so
    the speed-up costs no extra coupling field, only the complex diagonal
    split delta = -i*dtheta/sin(theta) (engineered gain/loss).  The
    vanishing drive entries h01 = h10 are the scalar 0.0, as the naive
    term's diagonal is; added into H0 + H1 they give the bits of a zero
    array.

    Raises InconsistentChoice where sin(theta) vanishes but dtheta does not,
    since no diagonal split cancels the leak there.
    """
    dth, sin_th = theta_path.dtheta, theta_path.sin
    tiny = np.abs(sin_th) < 1e-12
    bad = tiny & (np.abs(dth) >= 1e-12)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise InconsistentChoice(
            f"sin(theta) ~ 0 with lam != 0 at t={theta_path.grid.samples[k]:g}: "
            f"diagonal split underdetermined"
        )
    delta = np.where(tiny, 0.0, -1j * dth / np.where(tiny, 1.0, sin_th))
    return _entries(theta_path.grid, delta, 0.0)


def assemble_h1_series(h1: tuple) -> np.ndarray:
    """The supplement with entries ``h1`` at every grid point, shape
    (n, 2, 2)."""
    n = np.broadcast(*h1).size
    out = np.empty((n, 4), dtype=complex)
    for c, x in enumerate(h1):
        out[:, c] = x
    return out.reshape(n, 2, 2)


def matched_gauge(level: np.ndarray, e_minus: np.ndarray,
                  grid: TimeGrid) -> GaugeFunctions:
    """Gauge whose f_+ absorbs the decay of ``level`` = E_+ + d_+, d_+ the
    supplement's ``two_level.frame_diagonal``, so |g_+| = 1 along a
    leak-cancelling evolution: u_+ = Im[E_+ + d_+] and u_- = Im[E_-].
    With ``level`` = E_+ it is the simple gauge."""
    return gauge_from_integrands(grid, np.asarray(level).imag,
                                 np.asarray(e_minus).imag)


def _leak(theta_path: MixingAnglePath, h: tuple):
    """(h00 - h11)*sin(theta) + (h01 - h10) - (h01 + h10)*cos(theta)
    + i*dtheta for the entries ``h`` = (h00, h01, h10, h11) of a matrix H:
    twice <-~|H|+> + i*dtheta/2, since <-~|d/dt|+> = -dtheta/2 exactly."""
    h00, h01, h10, h11 = h
    return ((h00 - h11) * theta_path.sin + (h01 - h10)
            - (h01 + h10) * theta_path.cos + 1j * theta_path.dtheta)


def nullification_residual(theta_path: MixingAnglePath, h1: tuple) -> float:
    """Largest |residual| of the leak-cancellation condition for a
    supplement's entries ``h1``: the :func:`_leak` of H1, which vanishes
    for every policy's entries."""
    return float(np.max(np.abs(_leak(theta_path, h1))))


def frame_coupling(theta_path: MixingAnglePath, h_total: np.ndarray,
                   gauges: GaugeFunctions) -> float:
    """Largest |entry (2,1)| of H0 + H1 in the adiabatic frame, the cancelled
    coupling (the reverse entry (1,2) survives by design), from the entries
    ``h_total`` (h00, h01, h10, h11) of H0 + H1 on the grid, shape (4, n)."""
    if np.shape(h_total) != (4, theta_path.grid.n_points):
        raise ValueError("h_total must hold H's 4 entries per grid point")
    return float(np.max(_frame_coupling(theta_path, h_total, gauges)))


def _frame_coupling(theta_path, h_total, gauges):
    """|(R~^dag H R - i R~^dag dR/dt)[1, 0]| per sample for H with entries
    ``h_total``: column 0 of R is f_+ |+> and row 1 of R~^dag is <-~|/f_-,
    and <-~|+> = 0, so the entry is (f_+/f_-)(<-~|H|+> + i*dtheta/2), half
    the :func:`_leak` of H times f_+/f_-."""
    return (np.abs(_leak(theta_path, h_total)) * gauges.f_plus
            / (2.0 * gauges.f_minus))


def closed_form_gplus(level: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Surviving amplitude g_+(t) = exp[-i*phi], phi = int Re(E_+ + d_+) dt',
    of any leak-cancelling supplement, from ``level`` = E_+ + d_+ with d_+
    its ``two_level.frame_diagonal``; formed as cos(phi) - i*sin(phi).

    The other amplitude stays zero, so in the matched gauge, whose f_+
    absorbs Im(E_+ + d_+), this is the exact frame solution, a pure phase.
    """
    phi = cumulative_trapezoid(np.asarray(level).real, grid.step)
    return complex_array(np.cos(phi), -np.sin(phi))
