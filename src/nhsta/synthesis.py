"""Supplementary Hamiltonians that suppress non-adiabatic amplitude flow.

Three constructions are provided for the two-level model:

* ``naive_cd`` - the exact counterdiabatic term.  For complex mixing angles
  its off-diagonal entries are not conjugates of each other, so no single
  coherent drive realizes it.
* ``hermitian_realizable`` - a Hermitian matrix 0.5*[[d+, i*W],[-i*W, d-]]
  whose coefficients cancel only the coupling that feeds amplitude from the
  reference eigenstate into the other one.  The evolution then stays pinned
  to the (gauge-scaled) reference eigenstate even though the reverse
  coupling survives.
* ``general_family`` - the underdetermined family of such supplements,
  parameterized by a free complex function; includes the zero-coupling
  member that needs no extra drive field at all.

The cancellation condition, written with lam = (d+ - d-)*sin(theta)/2 and
zeta = Re[W]*cos(theta), is

    lam + i*Im[W] - zeta = -i*dtheta,

whose real/imag split gives Im[dtheta] = Re[lam] - Re[zeta] and
Im[W] = -Re[dtheta] - Im[lam] + Im[zeta].
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import InconsistentChoice, PolicyMismatch
from .gauges import (EPS_SINGULAR, GaugeFunctions, gauge_from_integrands,
                     matched_delta, rotation)
from .grids import TimeGrid, cumulative_trapezoid
from .two_level import MixingAnglePath, PulseSpec, hamiltonian

POLICY_NAIVE = "naive-cd"
POLICY_HERMITIAN = "hermitian-realizable"
POLICY_GENERAL = "general-family"

ArrayOrFn = Union[np.ndarray, Callable[[np.ndarray], np.ndarray], float, complex]


@dataclass(frozen=True)
class SupplementCoefficients:
    """Per-grid coefficients of H1 = 0.5*[[d+, W],[conj(W), d-]].

    For the hermitian-realizable policy d+/d- are real and Re[W] = 0, which
    makes the assembled matrix exactly self-adjoint.
    """

    grid: TimeGrid
    delta_plus: np.ndarray
    delta_minus: np.ndarray
    omega: np.ndarray
    policy: str

    def __post_init__(self):
        n = self.grid.n_points
        for name in ("delta_plus", "delta_minus", "omega"):
            arr = np.asarray(getattr(self, name))
            if len(arr) != n:
                raise ValueError(f"{name} length must match grid")
            if not np.all(np.isfinite(arr.view(float) if arr.dtype.kind == "c"
                                      else arr)):
                raise ValueError(f"{name} contains NaN/Inf")
        if self.policy == POLICY_HERMITIAN:
            if np.asarray(self.delta_plus).dtype.kind == "c" or \
               np.asarray(self.delta_minus).dtype.kind == "c":
                raise ValueError("hermitian policy requires real delta arrays")
            if np.any(np.asarray(self.omega).real != 0):
                raise ValueError("hermitian policy requires Re[omega] = 0")


@dataclass(frozen=True)
class NullificationReport:
    """Residual of the cancellation condition, plus optional frame check.

    ``residual`` is the pointwise algebraic quantity
    (d+ - d-)*sin(theta)/2 + i*Im[W] - Re[W]*cos(theta) + i*dtheta,
    which vanishes identically for coefficients produced by the synthesis
    routines.  When a pulse and gauges are supplied, ``frame_coupling`` holds
    |entry (2,1)| of the adiabatic-frame total Hamiltonian with the frame
    derivative taken by Richardson-extrapolated central differences, and
    ``frame_coupling_plain``/``frame_tolerance`` the plain central-difference
    value with its error-aware bound max(1e-8, 10*|plain - richardson|).
    """

    grid: TimeGrid
    residual: np.ndarray
    max_abs_residual: float
    frame_coupling: Optional[np.ndarray] = None
    frame_coupling_plain: Optional[np.ndarray] = None
    frame_tolerance: Optional[float] = None


def _as_array(value: ArrayOrFn, ts: np.ndarray) -> np.ndarray:
    if callable(value):
        return np.asarray(value(ts)) + np.zeros_like(ts, dtype=complex)
    arr = np.asarray(value, dtype=complex)
    if arr.ndim == 0:
        return np.full(len(ts), complex(arr))
    if len(arr) != len(ts):
        raise ValueError("coefficient array length must match grid")
    return arr


def naive_cd(theta_path: MixingAnglePath,
             gauges: Optional[GaugeFunctions] = None,
             eps_plus: ArrayOrFn = 0.0, eps_minus: ArrayOrFn = 0.0) -> np.ndarray:
    """Counterdiabatic supplement in the bare frame, one 2x2 per grid point.

    With diagonal freedom (e+, e-) the entries are
        0.5i * [[e+ c^2 + e- s^2,  (sin(theta)/2)(e+ - e-) - dtheta],
                [(sin(theta)/2)(e+ - e-) + dtheta,  e+ s^2 + e- c^2]]
    (c = cos(theta/2), s = sin(theta/2)); the gauge factors cancel in this
    frame, so ``gauges`` is optional and only checked for a shared grid.
    With e+/- = 0 this is the pure counterdiabatic term: Hermitian exactly
    when dtheta is real, which fails once the decay makes theta complex -
    the reason a realizable substitute is needed.
    """
    if gauges is not None and gauges.grid != theta_path.grid:
        raise ValueError("gauges and theta path must share the grid")
    ts = theta_path.grid.samples
    ep = _as_array(eps_plus, ts)
    em = _as_array(eps_minus, ts)
    th, dth = theta_path.theta, theta_path.dtheta
    c2 = np.cos(th / 2.0) ** 2
    s2 = np.sin(th / 2.0) ** 2
    half_sin = 0.5 * np.sin(th)
    out = np.empty((len(ts), 2, 2), dtype=complex)
    out[:, 0, 0] = 0.5j * (ep * c2 + em * s2)
    out[:, 0, 1] = 0.5j * (half_sin * (ep - em) - dth)
    out[:, 1, 0] = 0.5j * (half_sin * (ep - em) + dth)
    out[:, 1, 1] = 0.5j * (ep * s2 + em * c2)
    return out


def hermitian_realizable(theta_path: MixingAnglePath, common_shift: float = 0.0,
                         eps_singular: float = EPS_SINGULAR
                         ) -> SupplementCoefficients:
    """Hermitian supplement coefficients cancelling the reference-state leak.

    delta = Im[dtheta]/Re[sin theta] gives d+ = delta + shift,
    d- = -delta + shift, and the drive quadrature
    Im[W] = -Re[dtheta] - delta*Im[sin theta] with Re[W] = 0.  The common
    shift only adds a global phase to the surviving amplitude.
    """
    delta = matched_delta(theta_path, eps_singular)
    sin_th = np.sin(theta_path.theta)
    omega_a = -theta_path.dtheta.real - delta * sin_th.imag
    return SupplementCoefficients(
        grid=theta_path.grid,
        delta_plus=delta + common_shift,
        delta_minus=-delta + common_shift,
        omega=1j * omega_a,
        policy=POLICY_HERMITIAN,
    )


def general_family(theta_path: MixingAnglePath, lambda_choice: ArrayOrFn,
                   re_omega: ArrayOrFn = 0.0,
                   consistency_tol: float = 1e-8) -> SupplementCoefficients:
    """Family member for a chosen lam(t) = (d+ - d-)*sin(theta)/2 and Re[W].

    The imaginary drive quadrature follows from the cancellation condition;
    the chosen functions must satisfy its other component,
    Im[dtheta] = Re[lam] - Re[Re[W]*cos(theta)], pointwise.  Raises
    InconsistentChoice when that constraint fails or when lam cannot be
    converted back to a diagonal split because sin(theta) vanishes.
    """
    ts = theta_path.grid.samples
    lam = _as_array(lambda_choice, ts)
    re_om = _as_array(re_omega, ts).real
    th, dth = theta_path.theta, theta_path.dtheta
    zeta = re_om * np.cos(th)

    constraint = dth.imag - (lam.real - zeta.real)
    scale = 1.0 + np.abs(dth)
    worst = np.max(np.abs(constraint) / scale)
    if worst > consistency_tol:
        k = int(np.argmax(np.abs(constraint) / scale))
        raise InconsistentChoice(
            f"Im[dtheta] - Re[lam] + Re[zeta] = {constraint[k]:.3e} at "
            f"t={ts[k]:g}; the chosen lambda/Re[omega] cannot cancel the leak"
        )

    im_om = -dth.real - lam.imag + zeta.imag
    sin_th = np.sin(th)
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
        delta_plus=half_split,
        delta_minus=-half_split,
        omega=re_om + 1j * im_om,
        policy=POLICY_GENERAL,
    )


def general_family_omega_zero(theta_path: MixingAnglePath) -> SupplementCoefficients:
    """The zero-drive member: lam = -i*dtheta makes W vanish identically, so
    the speed-up costs no extra coupling field (only complex diagonal
    shifts, i.e. engineered gain/loss)."""
    return general_family(theta_path, lambda_choice=-1j * theta_path.dtheta,
                          re_omega=0.0)


def assemble_h1(coeffs: SupplementCoefficients, k: int) -> np.ndarray:
    """Bare-frame supplement 0.5*[[d+, W],[conj(W), d-]] at grid point k."""
    n = coeffs.grid.n_points
    if not 0 <= k < n:
        raise IndexError(f"index {k} outside grid of {n} points")
    dp = coeffs.delta_plus[k]
    dm = coeffs.delta_minus[k]
    om = coeffs.omega[k]
    return 0.5 * np.array([[dp, om], [np.conj(om), dm]], dtype=complex)


def assemble_h1_series(coeffs: SupplementCoefficients) -> np.ndarray:
    """All grid points at once, shape (n, 2, 2)."""
    n = coeffs.grid.n_points
    out = np.empty((n, 2, 2), dtype=complex)
    out[:, 0, 0] = 0.5 * np.asarray(coeffs.delta_plus)
    out[:, 0, 1] = 0.5 * np.asarray(coeffs.omega)
    out[:, 1, 0] = 0.5 * np.conj(np.asarray(coeffs.omega))
    out[:, 1, 1] = 0.5 * np.asarray(coeffs.delta_minus)
    return out


def matched_gauge(e_plus: np.ndarray, e_minus: np.ndarray,
                  coeffs: SupplementCoefficients,
                  theta_path: MixingAnglePath) -> GaugeFunctions:
    """Gauge whose f_+ absorbs the supplement's diagonal so |g_+| = 1.

    Generalizes the shortcut gauge to any leak-cancelling policy:
    u_+ = Im[E_+ + (d+ cos^2(theta/2) + d- sin^2(theta/2) + Re[W] sin theta)/2].
    """
    th = theta_path.theta
    c2 = np.cos(th / 2.0) ** 2
    s2 = np.sin(th / 2.0) ** 2
    diag = 0.5 * (np.asarray(coeffs.delta_plus) * c2
                  + np.asarray(coeffs.delta_minus) * s2
                  + np.asarray(coeffs.omega).real * np.sin(th))
    u_plus = (np.asarray(e_plus) + diag).imag.astype(complex)
    u_minus = np.asarray(e_minus).imag.astype(complex)
    return gauge_from_integrands(theta_path.grid, u_plus, u_minus,
                                 kind="shortcut-matched")


def nullification_residual(theta_path: MixingAnglePath,
                           coeffs: SupplementCoefficients,
                           pulse: Optional[PulseSpec] = None,
                           gauges: Optional[GaugeFunctions] = None
                           ) -> NullificationReport:
    """Audit the leak-cancellation condition for given coefficients.

    Always evaluates the algebraic residual
    (d+ - d-)*sin(theta)/2 + i*Im[W] - Re[W]*cos(theta) + i*dtheta.
    When ``pulse`` and ``gauges`` are supplied, additionally transforms
    H0 + H1 into the adiabatic frame with finite-difference frame
    derivatives and records |entry (2,1)| (the cancelled coupling; the
    reverse entry (1,2) is allowed to survive by design).
    """
    if coeffs.grid != theta_path.grid:
        raise ValueError("coefficients and theta path must share the grid")
    th, dth = theta_path.theta, theta_path.dtheta
    split = np.asarray(coeffs.delta_plus) - np.asarray(coeffs.delta_minus)
    om = np.asarray(coeffs.omega)
    residual = (0.5 * split * np.sin(th) + 1j * om.imag
                - om.real * np.cos(th) + 1j * dth)
    report_kwargs = {}
    if pulse is not None and gauges is not None:
        plain, rich = _frame_coupling(theta_path, coeffs, pulse, gauges)
        fd_err = float(np.max(np.abs(plain - rich)))
        report_kwargs = dict(
            frame_coupling=rich,
            frame_coupling_plain=plain,
            frame_tolerance=max(1e-8, 10.0 * fd_err),
        )
    return NullificationReport(
        grid=theta_path.grid,
        residual=residual,
        max_abs_residual=float(np.max(np.abs(residual))),
        **report_kwargs,
    )


def _frame_coupling(theta_path, coeffs, pulse, gauges):
    """|(R~^dag (H0+H1) R - i R~^dag dR/dt)[1, 0]| with plain central and
    Richardson-extrapolated frame derivatives (interior points only)."""
    grid = theta_path.grid
    h = grid.step
    rot = rotation(theta_path.theta, (gauges.f_plus, gauges.f_minus))
    r, inner = rot.r, slice(2, grid.n_points - 2)
    d1 = (r[3:-1] - r[1:-3]) / (2.0 * h)
    d2 = (r[4:] - r[:-4]) / (4.0 * h)
    d_rich = (4.0 * d1 - d2) / 3.0
    rtd = rot.r_tilde[inner].conj().swapaxes(-1, -2)
    h_tot = hamiltonian(pulse, grid.samples) + assemble_h1_series(coeffs)
    static = rtd @ h_tot[inner] @ r[inner]
    plain, rich = np.zeros((2, grid.n_points))
    plain[inner] = np.abs((static - 1j * rtd @ d1)[:, 1, 0])
    rich[inner] = np.abs((static - 1j * rtd @ d_rich)[:, 1, 0])
    return plain, rich


def closed_form_gplus(e_plus: np.ndarray, gauges: GaugeFunctions,
                      coeffs: SupplementCoefficients,
                      theta_path: MixingAnglePath) -> np.ndarray:
    """Surviving amplitude g_+(t) = exp[-i int (E_+ - i (df_+/dt)/f_+ +
    delta*cos(theta)/2) dt'] for a symmetric split d+ = -d- = delta.

    The other amplitude stays zero, so this is the exact frame solution; with
    the matched gauge |g_+| = 1 for all t.
    """
    if coeffs.policy != POLICY_HERMITIAN:
        raise PolicyMismatch(
            f"closed form requires the {POLICY_HERMITIAN} policy, got "
            f"{coeffs.policy}"
        )
    if np.max(np.abs(np.asarray(coeffs.delta_plus)
                     + np.asarray(coeffs.delta_minus))) > 1e-12:
        raise PolicyMismatch("closed form requires delta_+ = -delta_-")
    if gauges.grid != theta_path.grid:
        raise ValueError("gauges and theta path must share the grid")
    delta = np.asarray(coeffs.delta_plus)
    integrand = (np.asarray(e_plus) - 1j * np.asarray(gauges.dlogf_plus)
                 + 0.5 * delta * np.cos(theta_path.theta))
    phase = cumulative_trapezoid(integrand, theta_path.grid.step)
    return np.exp(-1j * phase)
