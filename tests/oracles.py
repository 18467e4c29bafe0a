"""Independent reference constructions the tests check the pipeline against.

None of these runs in a command.  They build the same objects the package
builds in closed, vectorized form, but the slow and generic way: matched
eigenvector paths decomposed point by point, counterdiabatic and
adiabatic-frame matrices from finite differences of those paths, explicit
frame rotations (R, R~), the per-index closed-form frame matrix of H0, the
closed-form eigenvector pair of a mixing angle, the bare Hamiltonian and
its eigenvalues at any t on either square-root cut (``branch_sqrt``, the
reference root), the counterdiabatic matrices, the general
supplement family for any lam(t) and Re[W](t), the hermitian-only
closed form of the surviving amplitude, the differenced frame coupling
(the frame check before its closed form), and the mixing angle, its rate and
its trigonometric functions in mpmath's extended precision.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from nhsta.biorthogonal import (DEFAULT_DEGENERACY_THRESHOLD,
                                BiorthogonalSystem, decompose)
from nhsta.errors import BranchJump, InconsistentChoice, ZeroGauge
from nhsta.grids import TimeGrid, cumulative_trapezoid
from nhsta.synthesis import naive_cd_entries
from nhsta.two_level import (SUB_CRITICAL, MixingAnglePath, PulseSpec,
                             _controls, hamiltonian_entries, radicand)

#: largest scaled violation of Im[dtheta] = Re[lam] - Re[zeta] that
#: :func:`general_family` accepts
CONSISTENCY_TOL = 1e-8


# ------------------------------------------------- generic biorthogonal paths


@dataclass(frozen=True, eq=False)
class EigenPath:
    """Per-grid-point biorthogonal systems with continuous matching.

    Adjacent points share eigenvector ordering and phase: the overlap
    <n~(t_k)|n(t_{k+1})> is kept real positive and above 0.5.
    """

    grid: TimeGrid
    systems: Sequence[BiorthogonalSystem]

    def __post_init__(self):
        if len(self.systems) != self.grid.n_points:
            raise ValueError("one system per grid point required")

    @property
    def dim(self) -> int:
        return self.systems[0].dim

    @classmethod
    def from_hamiltonian(cls, h_of_t: Callable[[float], np.ndarray],
                         grid: TimeGrid,
                         degeneracy_threshold: float = DEFAULT_DEGENERACY_THRESHOLD
                         ) -> "EigenPath":
        """Decompose the stack of H(t_k) at every sample in one call and
        match adjacent systems.

        Matching is a greedy assignment maximizing |<n~(t_k)|n(t_{k+1})>|;
        an assignment whose best overlap is <= 0.5 aborts with BranchJump.
        After assignment both vectors of a pair are rotated by a common phase
        so the matching overlap is real positive.
        """
        ts = grid.samples
        stack = decompose(np.array([h_of_t(t) for t in ts]),
                          degeneracy_threshold)
        systems = [BiorthogonalSystem(eigenvalues=w, right=r, left=l)
                   for w, r, l in zip(stack.eigenvalues, stack.right,
                                      stack.left)]
        matched = [systems[0]]
        for k in range(1, len(ts)):
            prev, cur = matched[-1], systems[k]
            n = cur.dim
            overlap = prev.left.conj().T @ cur.right
            mag = np.abs(overlap)
            perm = np.full(n, -1)
            used_rows, used_cols = set(), set()
            for _ in range(n):
                best = -1.0
                bi = bj = -1
                for i in range(n):
                    if i in used_rows:
                        continue
                    for j in range(n):
                        if j in used_cols:
                            continue
                        if mag[i, j] > best:
                            best, bi, bj = mag[i, j], i, j
                if best <= 0.5:
                    raise BranchJump(
                        f"eigenvector continuity lost near t={ts[k]:g} "
                        f"(best overlap {best:.3f} <= 0.5)"
                    )
                perm[bi] = bj
                used_rows.add(bi)
                used_cols.add(bj)
            right = cur.right[:, perm].copy()
            left = cur.left[:, perm].copy()
            vals = cur.eigenvalues[perm].copy()
            for i in range(n):
                ov = prev.left[:, i].conj() @ right[:, i]
                phase = ov / abs(ov)
                right[:, i] *= np.conj(phase)
                left[:, i] *= np.conj(phase)
            matched.append(BiorthogonalSystem(
                eigenvalues=vals, right=right, left=left))
        return cls(grid=grid, systems=matched)

    @classmethod
    def from_systems(cls, grid: TimeGrid,
                     systems: Sequence[BiorthogonalSystem]) -> "EigenPath":
        """Wrap externally built (already continuous) systems."""
        return cls(grid=grid, systems=list(systems))


def _check_interior(path: EigenPath, k: int):
    if not 0 < k < path.grid.n_points - 1:
        raise IndexError(
            f"central differences need interior index, got k={k} of "
            f"{path.grid.n_points} points"
        )


def _derivative_overlaps(path: EigenPath, k: int) -> np.ndarray:
    """Matrix A with A[m, n] = <m~(t_k)| d/dt |n(t_k)> by central differences."""
    _check_interior(path, k)
    h = path.grid.step
    d_right = (path.systems[k + 1].right - path.systems[k - 1].right) / (2.0 * h)
    return path.systems[k].left.conj().T @ d_right


def counterdiabatic_generic(path: EigenPath, k: int) -> np.ndarray:
    """i * sum_{n != m} <m~|dt n> |m><n~| at grid point k (hbar = 1).

    Exactly cancels the non-adiabatic couplings of the path's Hamiltonian;
    diagonal entries vanish in the eigenbasis by construction.
    """
    a = _derivative_overlaps(path, k)
    np.fill_diagonal(a, 0.0)
    sys_k = path.systems[k]
    return 1j * (sys_k.right @ a @ sys_k.left.conj().T)


def adiabatic_frame_generic(path: EigenPath, k: int) -> np.ndarray:
    """Frame matrix with E_n - i<n~|dt n> on the diagonal and -i<m~|dt n>
    off-diagonal (hbar = 1)."""
    a = _derivative_overlaps(path, k)
    return np.diag(path.systems[k].eigenvalues) - 1j * a


def left_right_derivative_identity(path: EigenPath, k: int, n: int, m: int):
    """The derivative pair forced by differentiating <n~|m> = delta_nm.

    Returns (<n~|dt m>, -<dt n~|m>) at grid point k; the two agree within
    finite-difference tolerance on any smooth biorthonormalized path.  (The
    further rewriting of the second member as -conj(<m~|dt n>) holds only
    when the derivative overlaps are effectively Hermitian, e.g. for a
    Hermitian Hamiltonian path.)
    """
    _check_interior(path, k)
    h = path.grid.step
    d_right_m = (path.systems[k + 1].right[:, m]
                 - path.systems[k - 1].right[:, m]) / (2.0 * h)
    d_left_n = (path.systems[k + 1].left[:, n]
                - path.systems[k - 1].left[:, n]) / (2.0 * h)
    first = path.systems[k].left[:, n].conj() @ d_right_m
    second = -(d_left_n.conj() @ path.systems[k].right[:, m])
    return first, second


# ------------------------------------------------ two-level closed forms


def entry_matrices(entries) -> np.ndarray:
    """(h00, h01, h10, h11), scalars or equal-shape arrays -> (..., 2, 2)."""
    stacked = np.stack(np.broadcast_arrays(*entries), axis=-1)
    return stacked.reshape(stacked.shape[:-1] + (2, 2))


def hamiltonian(pulse: PulseSpec, t) -> np.ndarray:
    """Bare-basis Hamiltonian 0.5*[[-Delta, Om],[Om, Delta - i*gamma]] at t.

    A scalar t gives one 2x2 matrix; an array of times gives a stack.
    """
    return entry_matrices(hamiltonian_entries(_controls(pulse, t)))


def branch_sqrt(z, regime: str):
    """sqrt(Z) = |Z|^(1/2) exp(i*eta/2) with eta taken in the regime's cut."""
    z = np.asarray(z, dtype=complex)
    if regime == SUB_CRITICAL:
        out = np.sqrt(z)
    else:
        eta = np.mod(np.angle(z), 2.0 * np.pi)
        out = np.sqrt(np.abs(z)) * np.exp(0.5j * eta)
    return out[()] if out.ndim == 0 else out


def eigenvalues(pulse: PulseSpec, t, regime: str):
    """(E_+, E_-) = ((-i*gamma ± sqrt(Z))/4) at any t, the root on the
    regime's branch."""
    sq = branch_sqrt(radicand(pulse, t), regime)
    gm = pulse.gamma
    return 0.25 * (-1j * gm + sq), 0.25 * (-1j * gm - sq)


def paired_eigenvalues(pulse: PulseSpec, t, theta) -> tuple:
    """(E_+, E_-) at t: the two roots (-i*gamma ± sqrt(Z))/4, ordered so
    that E_+ is the one whose eigenvector is |+> of ``theta``.  Equal-length
    arrays t and theta pair every sample at once."""
    e_a, e_b = eigenvalues(pulse, t, SUB_CRITICAL)
    (plus, _), _ = eigenvectors(theta)  # components first: (2,) or (2, n)
    h = hamiltonian(pulse, t)
    h_plus = np.einsum("...ij,j...->i...", h, plus)
    misfit_a, misfit_b = (np.linalg.norm(h_plus - e * plus, axis=0)
                          for e in (e_a, e_b))
    first = misfit_a <= misfit_b
    return np.where(first, e_a, e_b), np.where(first, e_b, e_a)


def naive_cd(theta_path: MixingAnglePath) -> np.ndarray:
    """Counterdiabatic supplement in the bare frame, one 2x2 per grid point:
    0.5i * [[0, -dtheta], [dtheta, 0]], from the entries the pipeline
    tabulates.

    Hermitian exactly when dtheta is real, which fails once the decay makes
    theta complex - the reason a realizable substitute is needed.
    """
    return entry_matrices(naive_cd_entries(theta_path))


def general_family(theta_path: MixingAnglePath, lambda_choice: np.ndarray,
                   re_omega: Optional[np.ndarray] = None) -> tuple:
    """Entries (h00, h01, h10, h11) of 0.5*[[delta, W],[conj(W), -delta]]
    for a chosen lam(t) = delta*sin(theta) and Re[W], one value per grid
    point each (``re_omega=None``: no drive, Re[W] = 0).

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
    delta = np.where(tiny, 0.0, lam / np.where(tiny, 1.0, sin_th))
    omega = re_om + 1j * im_om
    return 0.5 * delta, 0.5 * omega, 0.5 * np.conj(omega), 0.5 * -delta


def hermitian_closed_form_gplus(e_plus: np.ndarray, u_plus: np.ndarray,
                                h1: tuple,
                                theta_path: MixingAnglePath) -> np.ndarray:
    """g_+(t) = exp[-i int (E_+ - i (df_+/dt)/f_+ + delta*cos(theta)/2) dt']
    of a hermitian-realizable supplement in the matched gauge, whose
    integrand (df_+/dt)/f_+ is ``u_plus``: the hermitian-only closed form
    the frame-diagonal one generalizes."""
    integrand = (np.asarray(e_plus) - 1j * np.asarray(u_plus)
                 + h1[0] * theta_path.cos)
    return np.exp(-1j * cumulative_trapezoid(integrand, theta_path.grid.step))


def angle_functions_mp(pulse: PulseSpec, ts: np.ndarray,
                       theta: np.ndarray, digits: int = 40) -> dict:
    """theta, dtheta and sin/cos of theta and theta/2 at the samples ``ts``,
    evaluated with mpmath at ``digits`` significant digits from the float64
    controls and rates the pulse returns there and its decay rate.
    theta = ln(P/Q)/(2i), P, Q = a -/+ i*Omega_R, is taken on the branch of
    the tracked ``theta`` (nearest multiple of pi);
    dtheta = (Omega*da - dOmega*a)/(a^2 + Omega^2), da = dDelta.
    Each entry is a complex array, rounded once from the exact value."""
    import mpmath

    columns = [np.asarray(fn(ts), dtype=float) for fn in (
        pulse.omega_r, pulse.delta, pulse.d_omega_r, pulse.d_delta)]
    names = ("theta", "dtheta", "sin", "cos", "sin_half", "cos_half")
    out = {name: np.empty(len(ts), dtype=complex) for name in names}
    with mpmath.workdps(digits):
        for k in range(len(ts)):
            om, dl, d_om, d_dl = (mpmath.mpf(float(c[k])) for c in columns)
            a = dl - 0.5j * mpmath.mpf(pulse.gamma)
            th = mpmath.log((a - 1j * om) / (a + 1j * om)) / 2j
            th += mpmath.pi * mpmath.nint(
                (mpmath.mpc(complex(theta[k])) - th).real / mpmath.pi)
            dth = (om * d_dl - d_om * a) / (a * a + om * om)
            values = (th, dth, mpmath.sin(th), mpmath.cos(th),
                      mpmath.sin(th / 2), mpmath.cos(th / 2))
            for name, value in zip(names, values):
                out[name][k] = complex(value)
    return out


def eigenvectors(theta: complex):
    """Right pair (|+>, |->) and left pair (|+~>, |-~>) for a mixing angle.

    <n~|m> = delta_nm holds exactly for any complex theta.
    """
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    plus = np.array([c, s], dtype=complex)
    minus = np.array([s, -c], dtype=complex)
    cs, ss = np.cos(np.conj(theta) / 2.0), np.sin(np.conj(theta) / 2.0)
    plus_tilde = np.array([cs, ss], dtype=complex)
    minus_tilde = np.array([ss, -cs], dtype=complex)
    return (plus, minus), (plus_tilde, minus_tilde)


@dataclass(frozen=True, eq=False)
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
                       f: tuple, u: tuple, k) -> np.ndarray:
    """Adiabatic-frame matrix of the bare Hamiltonian at grid point k.

    diag(E_+, E_-) - i * [[u_+, dtheta*f_-/(2 f_+)],
                          [-dtheta*f_+/(2 f_-), u_-]]
    with u = (u_+, u_-) the exact integrands (df_n/dt)/f_n the gauge factors
    f = (f_+, f_-) were built from (hbar = 1).  The off-diagonal entries
    are the non-adiabatic couplings.  An index array k gives one (2, 2)
    matrix per index.
    """
    n = theta_path.grid.n_points
    if np.any(np.asarray(k) < 0) or np.any(np.asarray(k) >= n):
        raise IndexError(f"index {k} outside grid of {n} points")
    if np.shape(f) != (2, n):
        raise ValueError("f must hold both gauge factors per grid point")
    t = theta_path.grid.samples[k]
    e_plus, e_minus = paired_eigenvalues(pulse, t, theta_path.theta[k])
    fp, fm = f[0][k], f[1][k]
    if np.any(fp == 0) or np.any(fm == 0):
        raise ZeroGauge("gauge factor vanished")
    dth = theta_path.dtheta[k]
    return _matrices([
        [e_plus - 1j * u[0][k], -0.5j * dth * fm / fp],
        [0.5j * dth * fp / fm, e_minus - 1j * u[1][k]],
    ])


def differenced_frame_coupling(theta_path: MixingAnglePath,
                               h_total: np.ndarray,
                               f: tuple) -> np.ndarray:
    """|K_21| per sample with the frame derivative differenced: the frame
    check's earlier form, kept as a reference for the closed form.

    Column 0 of R, f_+ (c, s), is differentiated by a 4th-order Richardson
    extrapolation of central differences on the grid, so only the interior
    samples 2 .. n-3 are formed and the two samples at each edge read 0.
    Row 1 of R~^dag is (s, -c)/f_-; H has the entries ``h_total``, shape
    (4, n), and f = (f_+, f_-) are the gauge factors.
    """
    grid = theta_path.grid
    h = grid.step
    inner = slice(2, grid.n_points - 2)
    c, s = theta_path.cos_half, theta_path.sin_half
    col = (f[0] * c, f[0] * s)
    f_minus = f[1][inner]
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
