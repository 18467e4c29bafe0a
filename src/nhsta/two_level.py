"""Analytic two-level model with a decaying excited state.

The Hamiltonian (hbar = 1, rates in 1/tau)

    H0(t) = 0.5 * [[-Delta,  Omega_R], [Omega_R, Delta - i*gamma]],

with controls Omega_R(t), Delta(t) and one constant decay rate gamma (a
number on the pulse, which every reader broadcasts), has complex
eigenvalues E_pm = (-i*gamma ± sqrt(Z))/4 with radicand
Z = -(gamma + 2i*Delta)^2 + 4*Omega_R^2, and eigenvectors parameterized by a
complex mixing angle theta,

    |+> = [cos(theta/2), sin(theta/2)],   |-> = [sin(theta/2), -cos(theta/2)],

where tan(theta) = -Omega_R / (Delta - i*gamma/2).  With this sign the vectors
above are exact eigenvectors of H0 and theta sweeps 0 -> pi across a chirped
level crossing, carrying |+> from the bare ground state to the bare excited
state.  Left (biorthogonal) partners are the same expressions evaluated at
conj(theta).  The tracked angle fixes which root is E_+: the one of |+>,
E_+ = <+~|H0|+> (:func:`eigenvalue_path`), so no branch cut of sqrt(Z)
enters a run; the cut only places eta = arg Z for the branch-cut figure,
and its regime is a plain name, SUB_CRITICAL or SUPER_CRITICAL.
The angle, its rate and its trigonometric functions are formed from real
parts, never with numpy's complex transcendental functions.
"""
from __future__ import annotations

import math
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import BranchJump, DegenerateRegime, NonFinite, TanPole
from .grids import TimeGrid

ControlFn = Callable[[np.ndarray], np.ndarray]


class PulseSpec:
    """Time-dependent controls Omega_R(t), Delta(t), their exact time
    derivatives ``d_*``, which give the mixing angle's rate, and the
    constant decay rate ``gamma``.  The callables must accept scalar or
    ndarray t; gamma is refused once, here, unless finite and >= 0."""

    __slots__ = ("omega_r", "delta", "d_omega_r", "d_delta", "gamma")

    def __init__(self, omega_r: ControlFn, delta: ControlFn,
                 d_omega_r: ControlFn, d_delta: ControlFn, gamma: float):
        if not math.isfinite(gamma):
            raise ValueError(f"gamma must be finite, got {gamma}")
        if gamma < 0:
            raise ValueError("gamma must be non-negative")
        self.omega_r, self.delta = omega_r, delta
        self.d_omega_r, self.d_delta = d_omega_r, d_delta
        self.gamma = float(gamma)


class MixingAnglePath:
    """Branch-continuous complex mixing angle and its rate on a grid.

    ``cos_half``, ``sin_half``, ``sin`` and ``cos`` are cos(theta/2),
    sin(theta/2), sin(theta) and cos(theta) on the grid, each pair from
    :func:`_cos_sin`.  Each is evaluated on first read (the half angle's
    two together) and kept, so every consumer of a path reads the same
    values and a path pays only for the functions that are read; sin and
    cos are kept apart, so a path that keeps sin holds no cos.
    """

    def __init__(self, grid: TimeGrid, theta: np.ndarray, dtheta: np.ndarray):
        n = grid.n_points
        if len(theta) != n or len(dtheta) != n:
            raise ValueError("theta/dtheta length must match grid")
        self.grid, self.theta, self.dtheta = grid, theta, dtheta

    def free_theta(self, keep_sin: bool) -> None:
        """Drop theta, first forming sin(theta) if ``keep_sin``: the path
        keeps dtheta and the functions of theta formed so far, and can
        form no other."""
        if keep_sin:
            self.sin  # noqa: B018 - cached before theta goes
        self.theta = None

    _half = cached_property(lambda self: _cos_sin(
        0.5 * self.theta.real, 0.5 * self.theta.imag))
    cos_half = property(lambda self: self._half[0])
    sin_half = property(lambda self: self._half[1])
    sin = cached_property(
        lambda self: _cos_sin(self.theta.real, self.theta.imag)[1])
    cos = cached_property(
        lambda self: _cos_sin(self.theta.real, self.theta.imag)[0])


def _cos_sin(x: np.ndarray, y: np.ndarray) -> tuple:
    """cos(x + iy) = cos x cosh y - i sin x sinh y and sin(x + iy) =
    sin x cosh y + i cos x sinh y from one pass of each real function.
    Each function is written into a part of the result and multiplied
    there in place, so one real temporary (sin x sinh y) is all the work
    space beyond the result; ``x`` and ``y`` are only read."""
    c = np.empty(np.shape(x), dtype=complex)
    s = np.empty_like(c)
    sin_x, cos_x = np.sin(x, out=s.real), np.cos(x, out=c.real)
    sinh_y, cosh_y = np.sinh(y, out=s.imag), np.cosh(y, out=c.imag)
    sin_sinh = sin_x * sinh_y
    np.multiply(sin_x, cosh_y, out=s.real)
    np.multiply(cos_x, sinh_y, out=s.imag)
    np.multiply(cos_x, cosh_y, out=c.real)
    np.negative(sin_sinh, out=c.imag)
    return c, s


def complex_array(re, im) -> np.ndarray:
    """The complex array re + i*im, assembled part by part."""
    out = np.empty(np.shape(re), dtype=complex)
    out.real, out.imag = re, im
    return out


def frame_diagonal(h: tuple, theta_path: MixingAnglePath):
    """The (+,+) entry <+~|H|+> of the matrix with entries ``h`` = (h00,
    h01, h10, h11) in the adiabatic frame,
    h00 cos^2(theta/2) + h11 sin^2(theta/2) + (h01 + h10) sin(theta)/2:
    E_+ for H0 and the diagonal shift d_+ for a supplement (0 for the naive
    term, which has no diagonal there)."""
    h00, h01, h10, h11 = h
    return (h00 * theta_path.cos_half ** 2 + h11 * theta_path.sin_half ** 2
            + (h01 + h10) * (0.5 * theta_path.sin))


#: The branch regimes: they place the cut of figure1's eta = arg Z and label
#: a run's row.  Sub-critical decay keeps Re[Z] > 0, so the cut sits just
#: below the negative real axis (eta in (-pi, pi]); super-critical paths
#: cross it, so the cut moves just below the positive one (eta in [0, 2pi)).
SUB_CRITICAL = "sub-critical"
SUPER_CRITICAL = "super-critical"


def classify_regime(omega0: float, gamma: float) -> str:
    """The branch regime of a peak Rabi frequency and a decay rate."""
    if not (math.isfinite(omega0) and math.isfinite(gamma)):
        raise ValueError(f"need finite omega0 and gamma, got {omega0}, {gamma}")
    if omega0 <= 0:
        raise ValueError("omega0 must be positive")
    if gamma < 0:
        raise ValueError("gamma must be non-negative")
    if abs(gamma - 2.0 * omega0) <= 1e-12:
        raise DegenerateRegime(
            f"gamma = {gamma} sits on the critical line 2*omega0 = {2 * omega0}"
        )
    if gamma < 2.0 * omega0:
        return SUB_CRITICAL
    return SUPER_CRITICAL


def _controls(pulse: PulseSpec, t, rates: bool = False) -> tuple:
    """(Omega_R, Delta, gamma) at t, Omega_R and Delta as float arrays and
    the constant gamma as a float, or with ``rates`` the time derivatives
    of Omega_R and Delta; raises NonFinite naming the first t at which one
    of the sampled functions is not finite."""
    fns = ((pulse.d_omega_r, pulse.d_delta) if rates
           else (pulse.omega_r, pulse.delta))
    om, dl = (np.asarray(fn(t), dtype=float) for fn in fns)
    _raise_at_first(t, ~(np.isfinite(om) & np.isfinite(dl)),
                    f"control {'rate' if rates else 'value'}")
    return (om, dl) if rates else (om, dl, pulse.gamma)


def sample_controls(pulse: PulseSpec, grid: TimeGrid) -> tuple:
    """(t, Omega_R, Delta, gamma) on the samples t of ``grid``, gamma a
    float: one evaluation of the pulse's values, which
    :func:`mixing_angle_path` and :func:`hamiltonian_entries` can share."""
    ts = grid.samples
    return (ts,) + _controls(pulse, ts)


def hamiltonian_entries(controls: tuple) -> tuple:
    """Entries (h00, h01, h10, h11) of the bare-basis Hamiltonian
    0.5*[[-Delta, Om],[Om, Delta - i*gamma]] from ``controls`` = (Omega_R,
    Delta, gamma) sampled at some t, each entry shaped like t.  The real
    entries stay real: h00 = -Delta/2 and h01 = h10 = Om/2 (one array) are
    float, and only h11 is complex; adding them to complex values gives
    the same bits as their complex form, whose imaginary parts are +0."""
    om, dl, gm = controls
    h01 = 0.5 * om
    return -0.5 * dl, h01, h01, 0.5 * (dl - 1j * gm)


def _raise_at_first(t, bad, what: str) -> None:
    """Raise NonFinite naming the first t at which ``bad`` holds, if any."""
    if np.any(bad):
        ts, bad = np.broadcast_arrays(t, bad)
        raise NonFinite(f"{what} not finite at t={ts[bad][0]:g}")


def radicand(pulse: PulseSpec, t):
    """Z(t) = -(gamma + 2i*Delta)^2 + 4*Omega_R^2; raises NonFinite naming
    the first t at which Z overflows."""
    om, dl, gm = _controls(pulse, t)
    with np.errstate(over="ignore", invalid="ignore"):
        z = -(gm + 2j * dl) ** 2 + 4.0 * om**2
    _raise_at_first(t, ~np.isfinite(z), "radicand")
    return z[()] if z.ndim == 0 else z


def branch_argument(z, regime: str):
    """Argument eta of array Z in the regime's range ((-pi, pi] or [0, 2pi))."""
    z = np.asarray(z, dtype=complex)
    eta = np.angle(z)
    if regime == SUPER_CRITICAL:
        eta = np.mod(eta, 2.0 * np.pi)
    return eta


def eigenvalue_path(h0: tuple, path: MixingAnglePath) -> tuple:
    """(E_+, E_-) on the grid of ``path``: E_+ = <+~|H0|+> is the
    :func:`frame_diagonal` of H0's entries ``h0`` at the tracked angle, so it
    belongs to the eigenvector |+> the path carries, and E_- follows from the
    trace, h00 + h11 - E_+."""
    e_plus = frame_diagonal(h0, path)
    return e_plus, h0[0] + h0[3] - e_plus


def _factors(t, om, dl, gm) -> tuple:
    """(Im P, Im Q, |P|^2, |Q|^2) of the factors P = a - i*Omega_R and
    Q = a + i*Omega_R of a^2 + Omega_R^2 = P*Q = Z/4, a = Delta - i*gamma/2,
    from the controls sampled at t; Re P = Re Q = Delta.  Raises NonFinite
    naming the first t at which they overflow, as Z does."""
    half = 0.5 * gm
    p_im = np.negative(om + half)
    q_im = om - half
    with np.errstate(over="ignore"):
        dl2 = dl * dl
        d1 = p_im * p_im
        d1 += dl2
        d2 = q_im * q_im
        d2 += dl2
        _raise_at_first(t, ~np.isfinite(d1 + d2), "radicand")
    return p_im, q_im, d1, d2


def _principal_theta(om, dl, gm, factors) -> tuple:
    """Parts (x, y) of one representative theta = x + iy of
    tan(theta) = -Omega_R/a, from the controls and their :func:`_factors`.

    theta = ln(P/Q)/(2i), so x = arg(P conj(Q))/2, in [-pi/4, pi/4] or,
    where Re(P conj(Q)) < 0 (|Omega_R| > |a|), moved into (0, pi).  One
    arctangent of the product, not a difference of two, keeps x's relative
    accuracy where theta is small.  y = ln(|Q|^2/|P|^2)/4, as
    log1p(-2*Omega_R*gamma/|P|^2)/4 only where that argument is below 1/2
    in magnitude: near the exceptional point |Q|^2 is tiny and only the
    ratio keeps its digits.
    """
    p_im, q_im, d1, d2 = factors
    re = p_im * q_im
    re += dl * dl
    x = om * dl
    x *= -2.0
    np.arctan2(x, re, out=x)
    x *= 0.5
    x[(re < 0) & (x <= 0)] += np.pi
    r = np.multiply(om, gm, out=re)
    r *= -2.0
    r /= d1
    y = np.log1p(r)
    far = (r <= -0.5) | (r >= 0.5)
    y[far] = np.log(d2[far] / d1[far])
    y *= 0.25
    y += 0.0  # turns a lossless sample's y = log1p(-0.0)/4 into 0.0
    return x, y


def mixing_angle_path(pulse: PulseSpec, grid: TimeGrid,
                      samples: tuple | None = None) -> MixingAnglePath:
    """Branch-continuous theta(t) with tan(theta) = -Omega_R/(Delta - i*gamma/2).

    Anchored at the principal representative at t0 (Re theta in (-pi/2, pi/2],
    the near-zero branch for Delta(t0) < 0); each later sample takes the
    representative theta + m*pi closest to its predecessor, i.e. m
    accumulates minus the rounded principal steps.  The rate dtheta is
    :func:`mixing_angle_rate`'s, from the same control samples and the
    pulse's derivatives.  ``samples``, the :func:`sample_controls` of the
    pulse on ``grid``, are read in place of sampling the pulse again.
    """
    ts, om, dl, gm = samples or sample_controls(pulse, grid)
    controls = om, dl, gm
    factors = _factors(ts, om, dl, gm)
    with np.errstate(over="ignore"):  # |a^2 + Omega_R^2|^2 = |P|^2 |Q|^2
        modulus_sq = factors[2] * factors[3]
    if np.any(modulus_sq < 1e-28):
        k = int(np.argmin(modulus_sq))
        raise TanPole(f"(Delta - i*gamma/2)^2 + Omega_R^2 ~ 0 at t={ts[k]:g}")
    del modulus_sq

    x, y = _principal_theta(om, dl, gm, factors)
    del factors
    turns = -np.cumsum(np.round(np.diff(x) / np.pi))
    x += np.pi * np.concatenate(([0.0], turns))
    dx, dy = np.diff(x), np.diff(y)
    dx *= dx
    dx += dy * dy  # |step|^2, without hypot's slower libm call
    jump = dx >= (0.5 * np.pi) ** 2
    del dx, dy
    if np.any(jump):
        k = int(np.argmax(jump)) + 1
        raise BranchJump(
            f"no representative of theta within pi/2 of the previous sample "
            f"near t={ts[k]:g}; refine the grid"
        )
    theta = complex_array(x, y)
    del x, y  # freed before the rate's temporaries are allocated
    return MixingAnglePath(grid=grid, theta=theta,
                           dtheta=mixing_angle_rate(pulse, ts, controls))


def mixing_angle_rate(pulse: PulseSpec, t, controls: tuple):
    """dtheta/dt = N/D with N = Omega*da/dt - dOmega/dt*a, D = a^2 + Omega^2
    and a = Delta - i*gamma/2, on an array of times t, from ``controls`` =
    (Omega_R, Delta, gamma) sampled there and the rates of Omega_R and
    Delta (gamma is constant, so da/dt = dDelta/dt).  N and D are formed
    part by part, Re D in factored form for its digits near the exceptional
    point, and N/D = N*conj(D)/|D|^2 with D scaled by its larger part
    against overflow; a lossless rate is real exactly."""
    om, dl, gm = controls
    d_om, d_dl = _controls(pulse, t, rates=True)
    n_re = om * d_dl
    n_re -= d_om * dl
    n_im = d_om * gm
    n_im *= 0.5
    del d_om, d_dl
    half = 0.5 * gm
    d_re = om + half
    d_re *= om - half
    d_re += dl * dl
    d_im = gm * dl
    np.negative(d_im, out=d_im)
    scale = np.maximum(np.abs(d_re), np.abs(d_im))
    d_re /= scale
    d_im /= scale
    scale *= d_re * d_re + d_im * d_im
    out = np.empty(np.shape(d_re), dtype=complex)
    np.multiply(n_re, d_re, out=out.real)
    out.real += n_im * d_im
    np.multiply(n_im, d_re, out=out.imag)
    out.imag -= n_re * d_im
    out.real /= scale
    out.imag /= scale
    return out


def angle_rate_defect(path: MixingAnglePath) -> float:
    """Largest |D6 theta - dtheta| over the interior samples relative to
    max|dtheta| (absolute if that is 0), D6 the 6th-order central difference
    (45(th[k+1] - th[k-1]) - 9(th[k+2] - th[k-2]) + th[k+3] - th[k-3])/(60h)
    (Fornberg 1988): where the grid resolves theta, dtheta is its rate."""
    th, dth = path.theta, path.dtheta
    d6 = (45.0 * (th[4:-2] - th[2:-4]) - 9.0 * (th[5:-1] - th[1:-5])
          + (th[6:] - th[:-6])) / (60.0 * path.grid.step)
    scale = np.max(np.abs(dth)) or 1.0
    return float(np.max(np.abs(d6 - dth[3:-3])) / scale)


def theta_at(pulse: PulseSpec, t: float, reference: complex) -> complex:
    """theta at arbitrary t: principal representative branch-matched to a
    nearby reference value from a tracked path."""
    om, dl, gm = _controls(pulse, t)
    om, dl = np.atleast_1d(om, dl)
    x, y = _principal_theta(om, dl, gm, _factors(t, om, dl, gm))
    principal = complex(x[0], y[0])
    return principal + np.pi * round((reference - principal).real / np.pi)


def allen_eberly(omega0: float, delta0: float, tau: float = 1.0,
                 gamma: float = 0.0) -> PulseSpec:
    """Pulse Omega_R = omega0*sech(t/tau), Delta = delta0*tanh(t/tau), with
    analytic derivatives, and constant decay rate gamma: omega0 the pulse
    amplitude, delta0 the chirp range and gamma in 1/tau, tau the
    characteristic duration.  The window a pulse is run on is the run
    grid's (``grids.TimeGrid``).  Past |t|/tau of about 355 (710 for
    Omega_R) cosh, or its square, overflows to inf on the way to the exact
    limit sech = 0, so those overflows are not warned about.  The pulse
    record refuses a non-finite or negative gamma, and
    :func:`classify_regime` refuses omega0 <= 0 and the critical line
    gamma = 2*omega0, where the spectrum degenerates at t = 0."""
    for name, value in zip(("omega0", "delta0", "tau"), (omega0, delta0, tau)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if tau <= 0:
        raise ValueError("tau must be positive")

    def omega_r(t):
        with np.errstate(over="ignore"):
            return omega0 / np.cosh(np.asarray(t) / tau)

    def delta(t):
        return delta0 * np.tanh(np.asarray(t) / tau)

    def d_omega_r(t):
        x = np.asarray(t) / tau
        with np.errstate(over="ignore"):
            return -(omega0 / tau) * np.tanh(x) / np.cosh(x)

    def d_delta(t):
        x = np.asarray(t) / tau
        with np.errstate(over="ignore"):
            return (delta0 / tau) / np.cosh(x) ** 2

    pulse = PulseSpec(omega_r=omega_r, delta=delta, d_omega_r=d_omega_r,
                      d_delta=d_delta, gamma=gamma)
    classify_regime(omega0, gamma)
    return pulse
