"""The adiabatic frame: supplementary Hamiltonians that suppress
non-adiabatic amplitude flow, the frame's gauge, and the projection of a
state onto the gauge-scaled frame.

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
delta = 2*h00 and W = 2*h01; both diagonal splits delta share one
removable-point rule, :func:`_guarded_ratio`.  The gauge rescales the
eigenvectors, phi_n = f_n |n> and phi_n~ = |n~>/conj(f_n): the set stays
biorthonormal, and the amplitudes g_n = <phi_n~|psi> = c_n/f_n that
:func:`amplitudes` projects act as populations under decay.  Every
policy's gauge, closed-form surviving amplitude and leak residual read its
four entries: the gauge and the closed form follow from one level
E_+ + d_+, with d_+ the supplement's adiabatic-frame diagonal
(``two_level.frame_diagonal``, the formula that also gives E_+ from H0; 0
for the naive term).  That gauge, ``matched_gauge``, is the package's only
one: its real factors f_n = exp(int u_n dt), u_+ = Im[E_+ + d_+] and
u_- = Im[E_-], keep |g_+| exactly one along the engineered evolution.  For
the naive term it is the simple gauge, and ``experiments.gauge_simple`` is
its alias for the benchmark tracer.  The residual is twice the
cancellation condition <-~|H1|+> + i*dtheta/2 = 0.  The frame check
(``frame_coupling``) is that expression for H0 + H1 times f_+/(2 f_-).
For the form above, with lam = delta*sin(theta) and zeta = Re[W]*cos(theta),
the condition reads

    lam + i*Im[W] - zeta = -i*dtheta,

whose real/imag split gives Im[dtheta] = Re[lam] - Re[zeta] and
Im[W] = -Re[dtheta] - Im[lam] + Im[zeta].
"""
from __future__ import annotations

import numpy as np

from .errors import InconsistentChoice, NonFinite, SinThetaSingular, ZeroGauge
from .grids import TimeGrid, cumulative_trapezoid
from .propagation import StateTrajectory
from .two_level import MixingAnglePath, _raise_at_first, complex_array

POLICY_NAIVE = "naive-cd"
POLICY_HERMITIAN = "hermitian-realizable"
#: general-family preset with zero coupling drive
POLICY_OMEGA_ZERO = "general-omega-zero"

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

    A guarded sample follows :func:`_guarded_ratio`, ``matched_delta``'s
    rule: where sin(theta) ~ 0 and dtheta survives against max|dtheta|, no
    diagonal split cancels the leak and InconsistentChoice is raised.
    """
    delta = _guarded_ratio(
        theta_path, -1j * theta_path.dtheta, theta_path.sin,
        InconsistentChoice,
        "sin(theta) ~ 0 with lam != 0 at t={t:g}: diagonal split "
        "underdetermined")
    return _entries(theta_path.grid, delta, 0.0)


def assemble_h1_series(h1: tuple) -> np.ndarray:
    """The supplement with entries ``h1`` at every grid point, shape
    (n, 2, 2)."""
    n = np.broadcast(*h1).size
    out = np.empty((n, 4), dtype=complex)
    for c, x in enumerate(h1):
        out[:, c] = x
    return out.reshape(n, 2, 2)


class GaugeFunctions:
    """Real gauge factors f_+ and f_- on a grid, f_+(t0) = f_-(t0) = 1
    exactly; nothing reads the integrands u_n, so none are kept."""

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


class AmplitudeTrajectory:
    """Eigenstate amplitudes and populations derived from a trajectory.

    c_n = <n~|psi> are the raw biorthogonal amplitudes (|c_n|^2 is not
    bounded by one under decay); g_n = c_n/f_n are the gauge-modified
    amplitudes whose squared moduli act as populations.  Bare populations
    P_m = |<m|psi>|^2 are kept raw; the populations |g_n|^2 and P_m
    renormalized by their sum are formed on each read.
    """

    __slots__ = ("c_plus", "c_minus", "g_plus", "g_minus", "pop_bare_0",
                 "pop_bare_1")

    def __init__(self, c_plus: np.ndarray, c_minus: np.ndarray,
                 g_plus: np.ndarray, g_minus: np.ndarray,
                 pop_bare_0: np.ndarray, pop_bare_1: np.ndarray):
        self.c_plus, self.c_minus = c_plus, c_minus
        self.g_plus, self.g_minus = g_plus, g_minus
        self.pop_bare_0, self.pop_bare_1 = pop_bare_0, pop_bare_1

    pop_phi_plus = property(lambda self: np.abs(self.g_plus) ** 2)
    pop_phi_minus = property(lambda self: np.abs(self.g_minus) ** 2)
    pop_bare_0_renorm = property(
        lambda self: self.pop_bare_0 / (self.pop_bare_0 + self.pop_bare_1))
    pop_bare_1_renorm = property(
        lambda self: self.pop_bare_1 / (self.pop_bare_0 + self.pop_bare_1))


def amplitudes(traj: StateTrajectory, theta_path: MixingAnglePath,
               gauges: GaugeFunctions) -> AmplitudeTrajectory:
    """Project a trajectory onto the instantaneous eigenbasis.

    Uses the left eigenvectors, so c_+ = cos(theta/2)psi_0 + sin(theta/2)psi_1
    and c_- = sin(theta/2)psi_0 - cos(theta/2)psi_1 pointwise, then divides
    their parts by the real gauge factors.
    """
    if traj.grid != theta_path.grid or traj.grid != gauges.grid:
        raise ValueError("trajectory, theta path, and gauges must share the grid")
    if traj.psi.shape[1] != 2:
        raise ValueError("two-level trajectories only")
    c, s = theta_path.cos_half, theta_path.sin_half
    psi0, psi1 = traj.psi[:, 0], traj.psi[:, 1]
    c_plus = c * psi0 + s * psi1
    c_minus = s * psi0 - c * psi1
    g_plus = complex_array(c_plus.real / gauges.f_plus,
                           c_plus.imag / gauges.f_plus)
    g_minus = complex_array(c_minus.real / gauges.f_minus,
                            c_minus.imag / gauges.f_minus)
    return AmplitudeTrajectory(c_plus, c_minus, g_plus, g_minus,
                               np.abs(psi0) ** 2, np.abs(psi1) ** 2)


def closed_form_gplus(level: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Surviving amplitude g_+(t) = exp[-i*phi], phi = int Re(E_+ + d_+) dt',
    of any leak-cancelling supplement, from ``level`` = E_+ + d_+ with d_+
    its ``two_level.frame_diagonal``; formed as cos(phi) - i*sin(phi).

    The other amplitude stays zero, so in the matched gauge, whose f_+
    absorbs Im(E_+ + d_+), this is the exact frame solution, a pure phase.
    """
    phi = cumulative_trapezoid(np.asarray(level).real, grid.step)
    return complex_array(np.cos(phi), -np.sin(phi))
