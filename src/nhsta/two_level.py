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
conj(theta).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import BranchJump, DegenerateRegime, NonFinite, TanPole
from .grids import TimeGrid

#: spectral-gap threshold (units 1/tau) below which we refuse to track
DEGENERACY_THRESHOLD = 1e-8

ControlFn = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class PulseSpec:
    """Time-dependent controls; callables must accept scalar or ndarray t.

    ``d_*`` are analytic time derivatives.  When they are absent the angle
    path falls back to central differences.
    """

    omega_r: ControlFn
    delta: ControlFn
    gamma: ControlFn
    d_omega_r: Optional[ControlFn] = None
    d_delta: Optional[ControlFn] = None
    d_gamma: Optional[ControlFn] = None

    @property
    def has_analytic_derivatives(self) -> bool:
        return None not in (self.d_omega_r, self.d_delta, self.d_gamma)


@dataclass(frozen=True)
class AllenEberlyParams:
    """Sech-amplitude / tanh-chirp pulse with constant decay rate.

    omega0: pulse amplitude (1/tau), delta0: chirp range (1/tau),
    tau: characteristic duration, gamma: decay rate (1/tau),
    [t0, t_f]: integration window in units of tau.
    """

    omega0: float
    delta0: float
    tau: float = 1.0
    gamma: float = 0.0
    t0: float = -1.0
    t_f: float = 1.0

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if not math.isfinite(value):
                raise ValueError(f"{field.name} must be finite, got {value}")
        if self.omega0 <= 0:
            raise ValueError("omega0 must be positive")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")
        if not self.t0 < self.t_f:
            raise ValueError("need t0 < t_f")
        if abs(self.gamma - 2.0 * self.omega0) <= 1e-12:
            raise DegenerateRegime(
                f"gamma = 2*omega0 = {self.gamma}: spectrum degenerates at t = 0"
            )


class BranchRegime(Enum):
    """Square-root branch placement for the radicand trajectory.

    Sub-critical decay keeps Re[Z] > 0, so the cut sits just below the
    negative real axis (argument in (-pi, pi]).  Super-critical trajectories
    cross the negative real axis, so the cut moves just below the positive
    real axis (argument in [0, 2*pi)).
    """

    SUB_CRITICAL = "sub-critical"
    SUPER_CRITICAL = "super-critical"


#: the trigonometric functions of theta a path carries
TRIG_FIELDS = ("cos_half", "sin_half", "sin", "cos")


@dataclass(frozen=True, eq=False)
class MixingAnglePath:
    """Branch-continuous complex mixing angle and its rate on a grid.

    ``cos_half``, ``sin_half``, ``sin`` and ``cos`` are cos(theta/2),
    sin(theta/2), sin(theta) and cos(theta) on the grid.  Each is evaluated
    on first read and kept, so every consumer of a path reads the same
    values and a path pays only for the functions that are read.
    """

    grid: TimeGrid
    theta: np.ndarray
    dtheta: np.ndarray
    regime: BranchRegime
    dtheta_provenance: str = "analytic"

    def __post_init__(self):
        n = self.grid.n_points
        if len(self.theta) != n or len(self.dtheta) != n:
            raise ValueError("theta/dtheta length must match grid")

    @cached_property
    def cos_half(self) -> np.ndarray:
        return np.cos(self.theta / 2.0)

    @cached_property
    def sin_half(self) -> np.ndarray:
        return np.sin(self.theta / 2.0)

    @cached_property
    def sin(self) -> np.ndarray:
        return np.sin(self.theta)

    @cached_property
    def cos(self) -> np.ndarray:
        return np.cos(self.theta)


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


def _controls(pulse: PulseSpec, t) -> tuple:
    """(Omega_R, Delta, gamma) at t as float arrays; raises NonFinite naming
    the first t at which one of them is not finite."""
    om = np.asarray(pulse.omega_r(t), dtype=float)
    dl = np.asarray(pulse.delta(t), dtype=float)
    gm = np.asarray(pulse.gamma(t), dtype=float)
    bad = ~(np.isfinite(om) & np.isfinite(dl) & np.isfinite(gm))
    if np.any(bad):
        ts, bad = np.broadcast_arrays(t, bad)
        raise NonFinite(f"control value not finite at t={ts[bad][0]:g}")
    return om, dl, gm


def _radicand(om, dl, gm):
    """Z of :func:`radicand` from sampled controls."""
    return -(gm + 2j * dl) ** 2 + 4.0 * om**2


def hamiltonian_entries(pulse: PulseSpec, t) -> tuple:
    """Entries (h00, h01, h10, h11) of :func:`hamiltonian` at t, each shaped
    like t (h01 and h10 are one array)."""
    om, dl, gm = _controls(pulse, t)
    h01 = 0.5 * np.asarray(om, dtype=complex)
    return (0.5 * np.asarray(-dl, dtype=complex), h01, h01,
            0.5 * np.asarray(dl - 1j * gm, dtype=complex))


def hamiltonian(pulse: PulseSpec, t) -> np.ndarray:
    """Bare-basis Hamiltonian 0.5*[[-Delta, Om],[Om, Delta - i*gamma]] at t.

    A scalar t gives one 2x2 matrix; an array of times gives a stack.
    """
    h = np.stack(hamiltonian_entries(pulse, t), axis=-1)
    return h.reshape(h.shape[:-1] + (2, 2))


def radicand(pulse: PulseSpec, t):
    """Z(t) = -(gamma + 2i*Delta)^2 + 4*Omega_R^2."""
    z = _radicand(*_controls(pulse, t))
    return z[()] if z.ndim == 0 else z


def branch_sqrt(z, regime: BranchRegime):
    """sqrt(Z) = |Z|^(1/2) exp(i*eta/2) with eta taken in the regime's cut."""
    z = np.asarray(z, dtype=complex)
    if regime is BranchRegime.SUB_CRITICAL:
        out = np.sqrt(z)
    else:
        eta = np.mod(np.angle(z), 2.0 * np.pi)
        out = np.sqrt(np.abs(z)) * np.exp(0.5j * eta)
    return out[()] if out.ndim == 0 else out


def branch_argument(z, regime: BranchRegime):
    """Argument eta of Z in the regime's range ((-pi, pi] or [0, 2pi))."""
    z = np.asarray(z, dtype=complex)
    eta = np.angle(z)
    if regime is BranchRegime.SUPER_CRITICAL:
        eta = np.mod(eta, 2.0 * np.pi)
    return eta[()] if eta.ndim == 0 else eta


def _eigenvalues_and_root(pulse: PulseSpec, t, regime: BranchRegime):
    """(E_+, E_-, sqrt(Z)) on the regime's branch; refuses a gap
    |E_+ - E_-| = |sqrt(Z)|/2 at or below DEGENERACY_THRESHOLD."""
    om, dl, gm = _controls(pulse, t)
    sq = branch_sqrt(_radicand(om, dl, gm), regime)
    if np.any(np.abs(sq) <= 2.0 * DEGENERACY_THRESHOLD):
        raise DegenerateRegime("eigenvalue gap below degeneracy threshold")
    return 0.25 * (-1j * gm + sq), 0.25 * (-1j * gm - sq), sq


def eigenvalues(pulse: PulseSpec, t, regime: BranchRegime):
    """(E_+, E_-) = ((-i*gamma ± sqrt(Z))/4) on the regime's branch."""
    return _eigenvalues_and_root(pulse, t, regime)[:2]


def eigenvalue_path(pulse: PulseSpec, grid: TimeGrid, regime: BranchRegime):
    """Eigenvalue samples on a grid with a step-to-step continuity audit.

    The cut fixes the root; if consecutive roots are closer to each other's
    negatives than to each other, the declared cut conflicts with continuity
    and a BranchJump is raised.
    """
    ts = grid.samples
    e_plus, e_minus, sq = _eigenvalues_and_root(pulse, ts, regime)
    jump = np.abs(np.diff(sq)) > np.abs(sq[1:] + sq[:-1])
    if np.any(jump):
        k = int(np.argmax(jump)) + 1
        raise BranchJump(
            f"sqrt(Z) root flipped against the {regime.value} cut near t={ts[k]:g}"
        )
    return e_plus, e_minus


def _principal_theta(omega, a):
    """One representative of tan(theta) = -omega/a, safe at either pole.

    Uses arctan(-omega/a) for |a| >= |omega| and the cotangent form
    pi/2 - arctan(-a/omega) otherwise, keeping the arctangent argument inside
    the unit disc (away from its branch points at +/- i).
    """
    omega = np.asarray(omega, dtype=complex)
    a = np.asarray(a, dtype=complex)
    use_cot = np.abs(a) < np.abs(omega)
    at = np.arctan(-np.where(use_cot, a, omega) / np.where(use_cot, omega, a))
    return np.where(use_cot, 0.5 * np.pi - at, at)


def mixing_angle_path(pulse: PulseSpec, grid: TimeGrid,
                      regime: Optional[BranchRegime] = None) -> MixingAnglePath:
    """Branch-continuous theta(t) with tan(theta) = -Omega_R/(Delta - i*gamma/2).

    Anchored at the principal representative at t0 (Re theta in (-pi/2, pi/2],
    the near-zero branch for Delta(t0) < 0); each later sample takes the
    representative theta + m*pi closest to its predecessor, i.e. m
    accumulates minus the rounded principal steps.  The rate dtheta
    is analytic, (Omega*da/dt - dOmega/dt*a)/(a^2 + Omega^2) with
    a = Delta - i*gamma/2, when the pulse carries derivatives; otherwise
    central differences of the tracked samples.
    """
    ts = grid.samples
    om, dl, gm = _controls(pulse, ts)
    if np.any(gm < 0):
        raise ValueError("gamma(t) must be non-negative on the grid")

    a = dl - 0.5j * gm
    denom = a * a + om**2
    if np.any(np.abs(denom) < 1e-14):
        k = int(np.argmin(np.abs(denom)))
        raise TanPole(f"(Delta - i*gamma/2)^2 + Omega_R^2 ~ 0 at t={ts[k]:g}")

    principal = _principal_theta(om, a)
    turns = -np.cumsum(np.round(np.diff(principal).real / np.pi))
    theta = principal + np.pi * np.concatenate(([0.0], turns))
    jump = np.abs(np.diff(theta)) >= 0.5 * np.pi
    if np.any(jump):
        k = int(np.argmax(jump)) + 1
        raise BranchJump(
            f"no representative of theta within pi/2 of the previous sample "
            f"near t={ts[k]:g}; refine the grid"
        )

    if pulse.has_analytic_derivatives:
        dtheta = mixing_angle_rate(pulse, ts)
        provenance = "analytic"
    else:
        dtheta = np.gradient(theta, grid.step)
        provenance = "numeric"

    if regime is None:
        regime = classify_regime(float(np.max(om)), float(np.max(gm)))
    return MixingAnglePath(grid=grid, theta=theta, dtheta=dtheta, regime=regime,
                           dtheta_provenance=provenance)


def mixing_angle_rate(pulse: PulseSpec, t):
    """Analytic dtheta/dt at arbitrary t (requires analytic derivatives)."""
    om, dl, gm = _controls(pulse, t)
    d_om = np.asarray(pulse.d_omega_r(t), dtype=float)
    d_dl = np.asarray(pulse.d_delta(t), dtype=float)
    d_gm = np.asarray(pulse.d_gamma(t), dtype=float)
    a = dl - 0.5j * gm
    da = d_dl - 0.5j * d_gm
    out = (om * da - d_om * a) / (a * a + om**2)
    return out[()] if out.ndim == 0 else out


def theta_at(pulse: PulseSpec, t: float, reference: complex) -> complex:
    """theta at arbitrary t: principal representative branch-matched to a
    nearby reference value from a tracked path."""
    om, dl, gm = _controls(pulse, t)
    principal = complex(_principal_theta(om, dl - 0.5j * gm))
    return principal + np.pi * round((reference - principal).real / np.pi)


def allen_eberly(params: AllenEberlyParams) -> PulseSpec:
    """Pulse Omega_R = omega0*sech(t/tau), Delta = delta0*tanh(t/tau), constant
    gamma, with analytic derivatives."""
    om0, dl0, tau, gm = params.omega0, params.delta0, params.tau, params.gamma

    def omega_r(t):
        return om0 / np.cosh(np.asarray(t) / tau)

    def delta(t):
        return dl0 * np.tanh(np.asarray(t) / tau)

    def gamma(t):
        return np.full_like(np.asarray(t, dtype=float), gm)

    def d_omega_r(t):
        x = np.asarray(t) / tau
        return -(om0 / tau) * np.tanh(x) / np.cosh(x)

    def d_delta(t):
        x = np.asarray(t) / tau
        return (dl0 / tau) / np.cosh(x) ** 2

    def d_gamma(t):
        return np.zeros_like(np.asarray(t, dtype=float))

    return PulseSpec(omega_r=omega_r, delta=delta, gamma=gamma,
                     d_omega_r=d_omega_r, d_delta=d_delta, d_gamma=d_gamma)
