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
amplitude, leak residual and frame check read those four entries: the gauge
and the closed form follow from E_+ + d_+, with d_+ the supplement's
adiabatic-frame diagonal (``two_level.frame_diagonal``, the formula that
also gives E_+ from H0), and the residual is twice
the cancellation condition <-~|H1|+> + i*dtheta/2 = 0.  For that form, with
lam = delta*sin(theta) and zeta = Re[W]*cos(theta), the condition reads

    lam + i*Im[W] - zeta = -i*dtheta,

whose real/imag split gives Im[dtheta] = Re[lam] - Re[zeta] and
Im[W] = -Re[dtheta] - Im[lam] + Im[zeta].
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import InconsistentChoice, NonFinite
from .gauges import GaugeFunctions, gauge_from_integrands, matched_delta
from .grids import TimeGrid, cumulative_trapezoid
from .two_level import MixingAnglePath, frame_diagonal

POLICY_NAIVE = "naive-cd"
POLICY_HERMITIAN = "hermitian-realizable"
#: general-family preset with zero coupling drive
POLICY_OMEGA_ZERO = "general-omega-zero"


class NullificationReport:
    """Residual of the cancellation condition, plus optional frame check.

    ``residual`` is the pointwise algebraic quantity
    (h00 - h11)*sin(theta) + (h01 - h10) - (h01 + h10)*cos(theta) + i*dtheta,
    which vanishes for the entries every policy produces.  When H0 + H1
    and gauges are supplied, ``frame_coupling`` holds |entry (2,1)| of the
    adiabatic-frame total Hamiltonian with the frame derivative taken by
    Richardson-extrapolated central differences.
    """

    __slots__ = ("grid", "residual", "max_abs_residual", "frame_coupling")

    def __init__(self, grid: TimeGrid, residual: np.ndarray,
                 max_abs_residual: float,
                 frame_coupling: Optional[np.ndarray] = None):
        self.grid, self.residual = grid, residual
        self.max_abs_residual = max_abs_residual
        self.frame_coupling = frame_coupling


def naive_cd_entries(theta_path: MixingAnglePath) -> tuple:
    """Entries (h00, h01, h10, h11) of the counterdiabatic supplement
    0.5i*[[0, -dtheta], [dtheta, 0]], Hermitian exactly when dtheta is real."""
    dth = theta_path.dtheta
    return 0.0, -0.5j * dth, 0.5j * dth, 0.0


def _entries(grid: TimeGrid, delta: np.ndarray, omega: np.ndarray) -> tuple:
    """Entries (h00, h01, h10, h11) of 0.5*[[delta, W],[conj(W), -delta]];
    a non-finite coefficient raises NonFinite naming its first t."""
    for name, arr in (("delta", delta), ("omega", omega)):
        bad = ~np.isfinite(arr)
        if np.any(bad):
            raise NonFinite(
                f"{name} not finite at t={grid.samples[np.argmax(bad)]:g}")
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
    split delta = -i*dtheta/sin(theta) (engineered gain/loss).

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
    return _entries(theta_path.grid, delta,
                    np.zeros(theta_path.grid.n_points, dtype=complex))


def assemble_h1_series(h1: tuple) -> np.ndarray:
    """The supplement with entries ``h1`` at every grid point, shape
    (n, 2, 2)."""
    n = np.broadcast(*h1).size
    out = np.empty((n, 4), dtype=complex)
    for c, x in enumerate(h1):
        out[:, c] = x
    return out.reshape(n, 2, 2)


def matched_gauge(e_plus: np.ndarray, e_minus: np.ndarray, h1: tuple,
                  theta_path: MixingAnglePath) -> GaugeFunctions:
    """Gauge whose f_+ absorbs the decay of E_+ + d_+ (:func:`frame_diagonal`)
    so |g_+| = 1 along a leak-cancelling evolution: u_+ = Im[E_+ + d_+] and
    u_- = Im[E_-]."""
    level = np.asarray(e_plus) + frame_diagonal(h1, theta_path)
    u_plus = level.imag.astype(complex)
    u_minus = np.asarray(e_minus).imag.astype(complex)
    return gauge_from_integrands(theta_path.grid, u_plus, u_minus)


def nullification_residual(theta_path: MixingAnglePath, h1: tuple,
                           h_total: Optional[np.ndarray] = None,
                           gauges: Optional[GaugeFunctions] = None
                           ) -> NullificationReport:
    """Audit the leak-cancellation condition for a supplement's entries.

    Always evaluates the algebraic residual
    (h00 - h11)*sin(theta) + (h01 - h10) - (h01 + h10)*cos(theta) + i*dtheta,
    twice <-~|H1|+> + i*dtheta/2.
    When ``h_total`` (the entries (h00, h01, h10, h11) of H0 + H1 on the
    grid, shape (4, n)) and ``gauges`` are supplied, additionally transforms
    it into the adiabatic frame with finite-difference frame derivatives and
    records |entry (2,1)| (the cancelled coupling; the reverse entry (1,2) is
    allowed to survive by design).
    """
    h00, h01, h10, h11 = h1
    residual = ((h00 - h11) * theta_path.sin + (h01 - h10)
                - (h01 + h10) * theta_path.cos + 1j * theta_path.dtheta)
    frame = None
    if h_total is not None and gauges is not None:
        if np.shape(h_total) != (4, theta_path.grid.n_points):
            raise ValueError("h_total must hold H's 4 entries per grid point")
        frame = _frame_coupling(theta_path, h_total, gauges)
    return NullificationReport(
        grid=theta_path.grid,
        residual=residual,
        max_abs_residual=float(np.max(np.abs(residual))),
        frame_coupling=frame,
    )


def _frame_coupling(theta_path, h_total, gauges):
    """|(R~^dag H R - i R~^dag dR/dt)[1, 0]| for H with entries ``h_total``
    and a Richardson-extrapolated frame derivative (interior points only).

    Only what reaches entry (1, 0) is formed: column 0 of R, f_+ (c, s),
    and row 1 of R~^dag, (s, -c)/f_- (R~ is built from conj(theta), so its
    conjugate carries c = cos(theta/2) and s = sin(theta/2) again).
    """
    grid = theta_path.grid
    h = grid.step
    inner = slice(2, grid.n_points - 2)
    c, s = theta_path.cos_half, theta_path.sin_half
    col = (gauges.f_plus * c, gauges.f_plus * s)
    f_minus = gauges.f_minus[inner]
    row = (s[inner] / f_minus, -c[inner] / f_minus)
    h_tot = h_total[:, inner]
    h_col = [h_tot[2 * i] * col[0][inner] + h_tot[2 * i + 1] * col[1][inner]
             for i in (0, 1)]
    static = row[0] * h_col[0] + row[1] * h_col[1]
    d = [(4.0 * ((x[3:-1] - x[1:-3]) / (2.0 * h))
          - (x[4:] - x[:-4]) / (4.0 * h)) / 3.0 for x in col]
    out = np.zeros(grid.n_points)
    out[inner] = np.abs(static - 1j * (row[0] * d[0] + row[1] * d[1]))
    return out


def closed_form_gplus(e_plus: np.ndarray, h1: tuple,
                      theta_path: MixingAnglePath) -> np.ndarray:
    """Surviving amplitude g_+(t) = exp[-i int Re(E_+ + d_+) dt'] of any
    leak-cancelling supplement, d_+ its :func:`frame_diagonal`.

    The other amplitude stays zero, so in the matched gauge, whose f_+
    absorbs Im(E_+ + d_+), this is the exact frame solution, a pure phase.
    """
    level = np.asarray(e_plus) + frame_diagonal(h1, theta_path)
    return np.exp(-1j * cumulative_trapezoid(level.real, theta_path.grid.step))
