"""Analytic two-level model with a decaying excited state.

The Hamiltonian (hbar = 1, rates in 1/tau)

    H0(t) = 0.5 * [[-Delta,  Omega_R], [Omega_R, Delta - i*gamma]]

has complex eigenvalues E_pm = (-i*gamma ± sqrt(Z))/4 with radicand
Z = -(gamma + 2i*Delta)^2 + 4*Omega_R^2, and eigenvectors parameterized by a
complex mixing angle theta,

    |+> = [cos(theta/2), sin(theta/2)],   |-> = [sin(theta/2), -cos(theta/2)],

where tan(theta) = -Omega_R / (Delta - i*gamma/2).  With this sign the vectors
above are exact eigenvectors of H0 and theta sweeps 0 -> pi across a chirped
level crossing, carrying |+> from the bare ground state to the bare excited
state.  Left (biorthogonal) partners are the same expressions evaluated at
conj(theta).  The tracked angle fixes which root is E_+: the one of |+>,
E_+ = <+~|H0|+> (:func:`eigenvalue_path`), so no branch cut of sqrt(Z)
enters a run; the cut only places eta = arg Z for the branch-cut figure.
The angle, its rate and its trigonometric functions are formed from real
parts, never with numpy's complex transcendental functions.
"""
from __future__ import annotations

import math
from enum import Enum
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import BranchJump, DegenerateRegime, NonFinite, TanPole
from .grids import TimeGrid

ControlFn = Callable[[np.ndarray], np.ndarray]


class PulseSpec:
    """Time-dependent controls and their exact time derivatives ``d_*``,
    which give the mixing angle's rate; callables must accept scalar or
    ndarray t."""

    __slots__ = ("omega_r", "delta", "gamma", "d_omega_r", "d_delta",
                 "d_gamma")

    def __init__(self, omega_r: ControlFn, delta: ControlFn, gamma: ControlFn,
                 d_omega_r: ControlFn, d_delta: ControlFn,
                 d_gamma: ControlFn):
        self.omega_r, self.delta, self.gamma = omega_r, delta, gamma
        self.d_omega_r, self.d_delta = d_omega_r, d_delta
        self.d_gamma = d_gamma


class AllenEberlyParams:
    """Sech-amplitude / tanh-chirp pulse with constant decay rate.

    omega0: pulse amplitude (1/tau), delta0: chirp range (1/tau),
    tau: characteristic duration, gamma: decay rate (1/tau).  The window
    a pulse is run on is the run grid's (``grids.TimeGrid``).
    """

    __slots__ = ("omega0", "delta0", "tau", "gamma")

    def __init__(self, omega0: float, delta0: float, tau: float = 1.0,
                 gamma: float = 0.0):
        for name, value in zip(self.__slots__, (omega0, delta0, tau, gamma)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if omega0 <= 0:
            raise ValueError("omega0 must be positive")
        if tau <= 0:
            raise ValueError("tau must be positive")
        if gamma < 0:
            raise ValueError("gamma must be non-negative")
        if abs(gamma - 2.0 * omega0) <= 1e-12:
            raise DegenerateRegime(
                f"gamma = 2*omega0 = {gamma}: spectrum degenerates at t = 0"
            )
        self.omega0, self.delta0, self.tau = omega0, delta0, tau
        self.gamma = gamma


class BranchRegime(Enum):
    """Branch-cut placement for the radicand's argument eta, which figure1
    plots and whose name labels a run's row.

    Sub-critical decay keeps Re[Z] > 0, so the cut sits just below the
    negative real axis (argument in (-pi, pi]).  Super-critical trajectories
    cross the negative real axis, so the cut moves just below the positive
    real axis (argument in [0, 2*pi)).
    """

    SUB_CRITICAL = "sub-critical"
    SUPER_CRITICAL = "super-critical"


class MixingAnglePath:
    """Branch-continuous complex mixing angle and its rate on a grid.

    ``cos_half``, ``sin_half``, ``sin`` and ``cos`` are cos(theta/2),
    sin(theta/2), sin(theta) and cos(theta) on the grid, from the real
    functions of theta = x + iy: sin(theta) = sin x cosh y + i cos x sinh y
    and cos(theta) = cos x cosh y - i sin x sinh y, each part written in
    place.  Each is evaluated on first read (the half angle's two together)
    and kept, so every consumer of a path reads the same values and a path
    pays only for the functions that are read.
    """

    def __init__(self, grid: TimeGrid, theta: np.ndarray, dtheta: np.ndarray):
        n = grid.n_points
        if len(theta) != n or len(dtheta) != n:
            raise ValueError("theta/dtheta length must match grid")
        self.grid, self.theta, self.dtheta = grid, theta, dtheta

    @cached_property
    def _half(self) -> tuple:
        """cos and sin of theta/2 from one pass of each real function."""
        x, y = 0.5 * self.theta.real, 0.5 * self.theta.imag
        sin_x, sinh_y = np.sin(x), np.sinh(y)
        cos_x, cosh_y = np.cos(x, out=x), np.cosh(y, out=y)
        c, s = np.empty((2,) + x.shape, dtype=complex)
        np.multiply(cos_x, cosh_y, out=c.real)
        np.multiply(sin_x, sinh_y, out=c.imag)
        np.negative(c.imag, out=c.imag)
        np.multiply(sin_x, cosh_y, out=s.real)
        np.multiply(cos_x, sinh_y, out=s.imag)
        return c, s

    cos_half = property(lambda self: self._half[0])
    sin_half = property(lambda self: self._half[1])

    @cached_property
    def sin(self) -> np.ndarray:
        x, y = self.theta.real, self.theta.imag
        out = np.empty(np.shape(x), dtype=complex)
        np.multiply(np.sin(x), np.cosh(y), out=out.real)
        np.multiply(np.cos(x), np.sinh(y), out=out.imag)
        return out

    @cached_property
    def cos(self) -> np.ndarray:
        x, y = self.theta.real, self.theta.imag
        out = np.empty(np.shape(x), dtype=complex)
        np.multiply(np.cos(x), np.cosh(y), out=out.real)
        np.multiply(np.sin(x), np.sinh(y), out=out.imag)
        np.negative(out.imag, out=out.imag)
        return out


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


def classify_regime(omega0: float, gamma: float) -> BranchRegime:
    """Pick the branch regime from the peak Rabi frequency and decay rate."""
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
        return BranchRegime.SUB_CRITICAL
    return BranchRegime.SUPER_CRITICAL


def _controls(pulse: PulseSpec, t, rates: bool = False) -> tuple:
    """(Omega_R, Delta, gamma) at t as float arrays, or with ``rates`` their
    time derivatives; raises NonFinite naming the first t at which one of
    them is not finite."""
    fns = ((pulse.d_omega_r, pulse.d_delta, pulse.d_gamma) if rates
           else (pulse.omega_r, pulse.delta, pulse.gamma))
    om, dl, gm = (np.asarray(fn(t), dtype=float) for fn in fns)
    _raise_at_first(t, ~(np.isfinite(om) & np.isfinite(dl) & np.isfinite(gm)),
                    f"control {'rate' if rates else 'value'}")
    return om, dl, gm


def sample_controls(pulse: PulseSpec, grid: TimeGrid) -> tuple:
    """(t, Omega_R, Delta, gamma) on the samples t of ``grid``: one
    evaluation of the pulse's values, which :func:`mixing_angle_path` and
    :func:`hamiltonian_entries` can share."""
    ts = grid.samples
    return (ts,) + _controls(pulse, ts)


def hamiltonian_entries(controls: tuple) -> tuple:
    """Entries (h00, h01, h10, h11) of the bare-basis Hamiltonian
    0.5*[[-Delta, Om],[Om, Delta - i*gamma]] from ``controls`` = (Omega_R,
    Delta, gamma) sampled at some t, each shaped like t.  The real entries
    stay real: h00 = -Delta/2 and h01 = h10 = Om/2 (one array) are float,
    and only h11 is complex; adding them to complex values gives the same
    bits as their complex form, whose imaginary parts are +0."""
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


def branch_argument(z, regime: BranchRegime):
    """Argument eta of array Z in the regime's range ((-pi, pi] or [0, 2pi))."""
    z = np.asarray(z, dtype=complex)
    eta = np.angle(z)
    if regime is BranchRegime.SUPER_CRITICAL:
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
    q_im = np.subtract(om, half, out=half)
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
    if np.any(gm < 0):
        raise ValueError("gamma(t) must be non-negative on the grid")

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
    jump = np.hypot(np.diff(x), np.diff(y)) >= 0.5 * np.pi
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
    (Omega_R, Delta, gamma) sampled there and the pulse's derivatives.  N
    and D are formed part by part, Re D in factored form for its digits near
    the exceptional point, and N/D = N*conj(D)/|D|^2 with D scaled by its
    larger part against overflow; a lossless rate is real exactly."""
    om, dl, gm = controls
    d_om, d_dl, d_gm = _controls(pulse, t, rates=True)
    n_re = om * d_dl
    n_re -= d_om * dl
    n_im = d_om * gm
    n_im -= om * d_gm
    n_im *= 0.5
    del d_om, d_dl, d_gm
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


def theta_at(pulse: PulseSpec, t: float, reference: complex) -> complex:
    """theta at arbitrary t: principal representative branch-matched to a
    nearby reference value from a tracked path."""
    om, dl, gm = (np.atleast_1d(c) for c in _controls(pulse, t))
    x, y = _principal_theta(om, dl, gm, _factors(t, om, dl, gm))
    principal = complex(x[0], y[0])
    return principal + np.pi * round((reference - principal).real / np.pi)


def allen_eberly(params: AllenEberlyParams) -> PulseSpec:
    """Pulse Omega_R = omega0*sech(t/tau), Delta = delta0*tanh(t/tau), constant
    gamma, with analytic derivatives.  Past |t|/tau of about 355 (710 for
    Omega_R) cosh, or its square, overflows to inf on the way to the exact
    limit sech = 0, so those overflows are not warned about."""
    om0, dl0, tau, gm = params.omega0, params.delta0, params.tau, params.gamma

    def omega_r(t):
        with np.errstate(over="ignore"):
            return om0 / np.cosh(np.asarray(t) / tau)

    def delta(t):
        return dl0 * np.tanh(np.asarray(t) / tau)

    def gamma(t):
        return np.full_like(np.asarray(t, dtype=float), gm)

    def d_omega_r(t):
        x = np.asarray(t) / tau
        with np.errstate(over="ignore"):
            return -(om0 / tau) * np.tanh(x) / np.cosh(x)

    def d_delta(t):
        x = np.asarray(t) / tau
        with np.errstate(over="ignore"):
            return (dl0 / tau) / np.cosh(x) ** 2

    def d_gamma(t):
        return np.zeros_like(np.asarray(t, dtype=float))

    return PulseSpec(omega_r=omega_r, delta=delta, gamma=gamma,
                     d_omega_r=d_omega_r, d_delta=d_delta, d_gamma=d_gamma)
