"""Supplementary Hamiltonians that suppress non-adiabatic amplitude flow.

Three constructions are provided for the two-level model:

* ``naive_cd`` - the exact counterdiabatic term.  For complex mixing angles
  its off-diagonal entries are not conjugates of each other, so no single
  coherent drive realizes it.
* ``hermitian_realizable`` - a Hermitian matrix
  0.5*[[delta, i*W],[-i*W, -delta]] whose coefficients cancel only the
  coupling that feeds amplitude from the reference eigenstate into the
  other one.  The evolution then stays pinned to the (gauge-scaled)
  reference eigenstate even though the reverse coupling survives.
* ``general_family`` - the underdetermined family of such supplements,
  parameterized by a free complex function; includes the zero-coupling
  member that needs no extra drive field at all.

The cancellation condition, written with lam = delta*sin(theta) and
zeta = Re[W]*cos(theta), is

    lam + i*Im[W] - zeta = -i*dtheta,

whose real/imag split gives Im[dtheta] = Re[lam] - Re[zeta] and
Im[W] = -Re[dtheta] - Im[lam] + Im[zeta].
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InconsistentChoice, PolicyMismatch
from .gauges import GaugeFunctions, gauge_from_integrands, matched_delta
from .grids import TimeGrid, cumulative_trapezoid
from .two_level import MixingAnglePath

POLICY_NAIVE = "naive-cd"
POLICY_HERMITIAN = "hermitian-realizable"
POLICY_GENERAL = "general-family"

#: largest scaled violation of Im[dtheta] = Re[lam] - Re[zeta] that
#: ``general_family`` accepts
CONSISTENCY_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class SupplementCoefficients:
    """Per-grid coefficients of H1 = 0.5*[[delta, W],[conj(W), -delta]].

    For the hermitian-realizable policy delta is real and Re[W] = 0, which
    makes the assembled matrix exactly self-adjoint.
    """

    grid: TimeGrid
    delta: np.ndarray
    omega: np.ndarray
    policy: str

    def __post_init__(self):
        n = self.grid.n_points
        for name in ("delta", "omega"):
            arr = np.asarray(getattr(self, name))
            if len(arr) != n:
                raise ValueError(f"{name} length must match grid")
            if not np.all(np.isfinite(arr.view(float) if arr.dtype.kind == "c"
                                      else arr)):
                raise ValueError(f"{name} contains NaN/Inf")
        if self.policy == POLICY_HERMITIAN:
            if np.asarray(self.delta).dtype.kind == "c":
                raise ValueError("hermitian policy requires a real delta array")
            if np.any(np.asarray(self.omega).real != 0):
                raise ValueError("hermitian policy requires Re[omega] = 0")


@dataclass(frozen=True, eq=False)
class NullificationReport:
    """Residual of the cancellation condition, plus optional frame check.

    ``residual`` is the pointwise algebraic quantity
    delta*sin(theta) + i*Im[W] - Re[W]*cos(theta) + i*dtheta,
    which vanishes identically for coefficients produced by the synthesis
    routines.  When H0 + H1 and gauges are supplied, ``frame_coupling`` holds
    |entry (2,1)| of the adiabatic-frame total Hamiltonian with the frame
    derivative taken by Richardson-extrapolated central differences.
    """

    grid: TimeGrid
    residual: np.ndarray
    max_abs_residual: float
    frame_coupling: Optional[np.ndarray] = None


def naive_cd(theta_path: MixingAnglePath) -> np.ndarray:
    """Counterdiabatic supplement in the bare frame, one 2x2 per grid point:
    0.5i * [[0, -dtheta], [dtheta, 0]].

    Hermitian exactly when dtheta is real, which fails once the decay makes
    theta complex - the reason a realizable substitute is needed.
    """
    return _matrices(naive_cd_entries(theta_path), theta_path.grid.n_points)


def naive_cd_entries(theta_path: MixingAnglePath) -> tuple:
    """Entries (h00, h01, h10, h11) of :func:`naive_cd`."""
    dth = theta_path.dtheta
    return 0.0, -0.5j * dth, 0.5j * dth, 0.0


def hermitian_realizable(theta_path: MixingAnglePath) -> SupplementCoefficients:
    """Hermitian supplement coefficients cancelling the reference-state leak.

    delta = Im[dtheta]/Re[sin theta] and the drive quadrature
    Im[W] = -Re[dtheta] - delta*Im[sin theta] with Re[W] = 0.
    """
    delta = matched_delta(theta_path)
    omega_a = -theta_path.dtheta.real - delta * theta_path.sin.imag
    return SupplementCoefficients(
        grid=theta_path.grid,
        delta=delta,
        omega=1j * omega_a,
        policy=POLICY_HERMITIAN,
    )


def general_family(theta_path: MixingAnglePath, lambda_choice: np.ndarray,
                   re_omega: Optional[np.ndarray] = None
                   ) -> SupplementCoefficients:
    """Family member for a chosen lam(t) = delta*sin(theta) and Re[W],
    one value per grid point each (``re_omega=None``: no drive, Re[W] = 0).

    The imaginary drive quadrature follows from the cancellation condition;
    the chosen functions must satisfy its other component,
    Im[dtheta] = Re[lam] - Re[Re[W]*cos(theta)], pointwise.  Raises
    InconsistentChoice when that constraint fails or when lam cannot be
    converted back to a diagonal split because sin(theta) vanishes.
    """
    ts = theta_path.grid.samples
    if np.shape(lambda_choice) != ts.shape or (
            re_omega is not None and np.shape(re_omega) != ts.shape):
        raise ValueError("lambda_choice and re_omega must hold one value per "
                         "grid point")
    lam = np.asarray(lambda_choice, dtype=complex)
    dth = theta_path.dtheta
    if re_omega is None:
        re_om = zeta = 0.0  # no drive: cos(theta) is not needed
    else:
        re_om = np.asarray(re_omega).real
        zeta = re_om * theta_path.cos

    constraint = dth.imag - (lam.real - zeta.real)
    scaled = np.abs(constraint) / (1.0 + np.abs(dth))
    k = int(np.argmax(scaled))
    if scaled[k] > CONSISTENCY_TOL:
        raise InconsistentChoice(
            f"Im[dtheta] - Re[lam] + Re[zeta] = {constraint[k]:.3e} at "
            f"t={ts[k]:g}; the chosen lambda/Re[omega] cannot cancel the leak"
        )

    im_om = -dth.real - lam.imag + zeta.imag
    sin_th = theta_path.sin
    tiny = np.abs(sin_th) < 1e-12
    if np.any(tiny & (np.abs(lam) >= 1e-12)):
        k = int(np.argmax(tiny & (np.abs(lam) >= 1e-12)))
        raise InconsistentChoice(
            f"sin(theta) ~ 0 with lam != 0 at t={ts[k]:g}: diagonal split "
            f"underdetermined"
        )
    half_split = np.where(tiny, 0.0, lam / np.where(tiny, 1.0, sin_th))
    return SupplementCoefficients(
        grid=theta_path.grid,
        delta=half_split,
        omega=re_om + 1j * im_om,
        policy=POLICY_GENERAL,
    )


def general_family_omega_zero(theta_path: MixingAnglePath) -> SupplementCoefficients:
    """The zero-drive member: lam = -i*dtheta makes W vanish identically, so
    the speed-up costs no extra coupling field (only complex diagonal
    shifts, i.e. engineered gain/loss)."""
    return general_family(theta_path, lambda_choice=-1j * theta_path.dtheta)


def h1_entries(coeffs: SupplementCoefficients) -> tuple:
    """Entries (h00, h01, h10, h11) of the bare-frame supplement
    0.5*[[delta, W],[conj(W), -delta]], one series each."""
    delta = np.asarray(coeffs.delta)
    omega = np.asarray(coeffs.omega)
    return 0.5 * delta, 0.5 * omega, 0.5 * np.conj(omega), 0.5 * -delta


def assemble_h1_series(coeffs: SupplementCoefficients) -> np.ndarray:
    """The supplement of :func:`h1_entries` at every grid point, shape
    (n, 2, 2)."""
    return _matrices(h1_entries(coeffs), coeffs.grid.n_points)


def _matrices(entries, n: int) -> np.ndarray:
    """(n, 2, 2) stack of the entries (h00, h01, h10, h11)."""
    out = np.empty((n, 4), dtype=complex)
    for c, x in enumerate(entries):
        out[:, c] = x
    return out.reshape(n, 2, 2)


def matched_gauge(e_plus: np.ndarray, e_minus: np.ndarray,
                  coeffs: SupplementCoefficients,
                  theta_path: MixingAnglePath) -> GaugeFunctions:
    """Gauge whose f_+ absorbs the supplement's diagonal so |g_+| = 1.

    Generalizes the shortcut gauge to any leak-cancelling policy:
    u_+ = Im[E_+ + (delta cos^2(theta/2) - delta sin^2(theta/2)
                    + Re[W] sin theta)/2].
    """
    delta = np.asarray(coeffs.delta)
    diag = 0.5 * (delta * theta_path.cos_half ** 2
                  - delta * theta_path.sin_half ** 2
                  + np.asarray(coeffs.omega).real * theta_path.sin)
    u_plus = (np.asarray(e_plus) + diag).imag.astype(complex)
    u_minus = np.asarray(e_minus).imag.astype(complex)
    return gauge_from_integrands(theta_path.grid, u_plus, u_minus)


def nullification_residual(theta_path: MixingAnglePath,
                           coeffs: SupplementCoefficients,
                           h_total: Optional[np.ndarray] = None,
                           gauges: Optional[GaugeFunctions] = None
                           ) -> NullificationReport:
    """Audit the leak-cancellation condition for given coefficients.

    Always evaluates the algebraic residual
    delta*sin(theta) + i*Im[W] - Re[W]*cos(theta) + i*dtheta.
    When ``h_total`` (the entries (h00, h01, h10, h11) of H0 + H1 on the
    grid, shape (4, n)) and ``gauges`` are supplied, additionally transforms
    it into the adiabatic frame with finite-difference frame derivatives and
    records |entry (2,1)| (the cancelled coupling; the reverse entry (1,2) is
    allowed to survive by design).
    """
    if coeffs.grid != theta_path.grid:
        raise ValueError("coefficients and theta path must share the grid")
    om = np.asarray(coeffs.omega)
    residual = (np.asarray(coeffs.delta) * theta_path.sin + 1j * om.imag
                - om.real * theta_path.cos + 1j * theta_path.dtheta)
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


def closed_form_gplus(e_plus: np.ndarray, gauges: GaugeFunctions,
                      coeffs: SupplementCoefficients,
                      theta_path: MixingAnglePath) -> np.ndarray:
    """Surviving amplitude g_+(t) = exp[-i int (E_+ - i (df_+/dt)/f_+ +
    delta*cos(theta)/2) dt'] for the hermitian-realizable supplement.

    The other amplitude stays zero, so this is the exact frame solution; with
    the matched gauge |g_+| = 1 for all t.
    """
    if coeffs.policy != POLICY_HERMITIAN:
        raise PolicyMismatch(
            f"closed form requires the {POLICY_HERMITIAN} policy, got "
            f"{coeffs.policy}"
        )
    if gauges.grid != theta_path.grid:
        raise ValueError("gauges and theta path must share the grid")
    delta = np.asarray(coeffs.delta)
    integrand = (np.asarray(e_plus) - 1j * np.asarray(gauges.dlogf_plus)
                 + 0.5 * delta * theta_path.cos)
    phase = cumulative_trapezoid(integrand, theta_path.grid.step)
    return np.exp(-1j * phase)
