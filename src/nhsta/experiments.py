"""End-to-end shortcut pipelines used by the CLI and the test suite.

A table builds the branch-continuous mixing-angle path on a quarter-step
grid (so the RK4 stages of the run and of its half-step certification rerun
are all tabulated), synthesizes the requested supplement policy, writes
H0 + H1 once in the propagation kernel's layout, and scans the RK4 transfer
matrices of the run and of its rerun together.  The angle path, its
trigonometric functions, H0 and the eigenvalues do not depend on the
policy, so the tables of several policies for one pulse share them; every
table is built in the same order (:func:`_tables` says what each holds and
frees, and when).  A table keeps its gauge as the two real factor arrays
``f_plus`` and ``f_minus``, which its runs and its frame check read.
A run applies a table to one of :data:`INITIAL_STATES`, named here: it
propagates the bare-basis state and keeps, as its own fields, that state
and the amplitudes and populations ``synthesis.amplitudes`` projects from
it.  :data:`RUN_CHECKS` is the one place a run's checks live: their names,
bounds, readings and the initial states each applies to.  A run's
``checks()`` yields those that apply to its state, which ``verify``
prints; its ``metrics`` read the readings, whatever the state.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np

from .errors import refuse_unknown
from .grids import TimeGrid
from .propagation import (PrefixScan, phase_table, scan_table,
                          step_halving_gap)
from .synthesis import (POLICY_HERMITIAN, POLICY_NAIVE, POLICY_OMEGA_ZERO,
                        amplitudes, closed_form_gplus, frame_coupling,
                        general_family_omega_zero, hermitian_realizable,
                        matched_gauge, naive_cd_entries,
                        nullification_residual)
from .two_level import (MixingAnglePath, PulseSpec, angle_rate_defect,
                        eigenvalue_path, frame_diagonal, hamiltonian_entries,
                        mixing_angle_path, sample_controls)
# Not used here; bench/trace_child.py still patches these names on this module.
from .two_level import branch_argument, radicand  # noqa: F401
from .propagation import convergence_check, integrate  # noqa: F401
from .synthesis import assemble_h1_series  # noqa: F401
from .synthesis import matched_gauge as gauge_simple  # noqa: F401
from .two_level import mixing_angle_rate, theta_at  # noqa: F401

POLICIES = (POLICY_HERMITIAN, POLICY_NAIVE, POLICY_OMEGA_ZERO)
INITIAL_BARE_GROUND = "bare-ground"
INITIAL_EIGEN_PLUS = "eigen-plus"
INITIAL_STATES = (INITIAL_EIGEN_PLUS, INITIAL_BARE_GROUND)

_EVERY, _EIGEN = INITIAL_STATES, (INITIAL_EIGEN_PLUS,)
#: The per-run checks in the order ``verify`` prints them: name -> (bound,
#: reading of a ShortcutRun, the initial states it applies to).  A check
#: measures its reading's largest modulus; only ``verify`` asks for the
#: frame check and the closed form.  The eigen-plus checks assume a run
#: that starts in the eigenstate |+>; a bare-ground run does not.
RUN_CHECKS = {
    "nullification-residual": (1e-10, lambda run: run.table.residual, _EVERY),
    "frame-coupling-21": (1e-6, lambda run: run.table.frame_check(), _EVERY),
    "angle-rate": (1e-8, lambda run: run.table.angle_rate, _EVERY),
    "max-abs-g-minus": (1e-5, lambda run: run.g_minus, _EIGEN),
    "g-plus-sq-dev": (0.05, lambda run: run.pop_phi_plus - 1.0, _EIGEN),
    "closed-form-vs-ode": (1e-5, lambda run: run.g_plus
                           - run.table.closed_form(), _EIGEN),
    "convergence": (1e-7, lambda run: run.convergence, _EVERY),
}
#: the checks a certified run passes: metrics key -> check, in print order
CERTIFIED_BY = {"convergence": "convergence",
                "max_residual": "nullification-residual"}


class ShortcutTable:
    """The state-independent part of a shortcut run for one pulse and policy.

    Holds the angle path, the level E_+ + d_+, the gauge factors f_+ and f_-
    and the largest leak residual of the supplement on the run grid, the
    angle-rate defect, and the RK4 prefix scan of the run and of its
    certification rerun.  :meth:`run` applies it to one initial state;
    every state run from the same table shares this work.
    """

    __slots__ = ("theta", "f_plus", "f_minus", "level", "residual",
                 "angle_rate", "scan")

    def __init__(self, theta: MixingAnglePath, f_plus: np.ndarray,
                 f_minus: np.ndarray, level: np.ndarray, residual: float,
                 angle_rate: float, scan: PrefixScan):
        self.theta, self.f_plus, self.f_minus = theta, f_plus, f_minus
        self.level, self.residual = level, residual
        self.angle_rate, self.scan = angle_rate, scan

    grid = property(lambda self: self.theta.grid)  # the run grid

    def run(self, initial_state: str = INITIAL_EIGEN_PLUS) -> ShortcutRun:
        """Propagate one initial state: its amplitudes and the step-halving
        gap, on a run that keeps the state's name."""
        refuse_unknown("initial state", initial_state, INITIAL_STATES)
        if initial_state == INITIAL_EIGEN_PLUS:
            psi0 = np.array([self.theta.cos_half[0], self.theta.sin_half[0]],
                            dtype=complex)
        else:
            psi0 = np.array([1.0, 0.0], dtype=complex)
        psi, rerun = self.scan.apply(psi0)
        gap = step_halving_gap(psi, rerun)
        del rerun  # freed before the amplitudes are allocated
        return ShortcutRun(self, initial_state, amplitudes(
            psi, self.theta, self.f_plus, self.f_minus), gap)

    def frame_check(self) -> float:
        """The largest adiabatic-frame coupling (2,1), in closed form from
        the table's own H0 + H1 on the run grid on each call."""
        return frame_coupling(self.theta, self.scan.h[:, 0], self.f_plus,
                              self.f_minus)

    def closed_form(self) -> np.ndarray:
        """g_+ in closed form from the table's level on the run grid, which
        the ODE's g_+ is checked against; formed on each call."""
        return closed_form_gplus(self.level, self.grid)


class ShortcutRun:
    """A shortcut table run from one initial state: the table, the state's
    name, the step-halving gap, and the six arrays ``amps`` of
    ``synthesis.amplitudes``: the raw amplitudes c_n (|c_n|^2 is not bounded
    by one under decay), the gauge-modified g_n = c_n/f_n and the bare
    populations P_m.  |g_n|^2, which act as populations, and P_m over their
    sum are formed on read."""

    __slots__ = ("table", "initial_state", "c_plus", "c_minus", "g_plus",
                 "g_minus", "pop_bare_0", "pop_bare_1", "convergence")

    def __init__(self, table: ShortcutTable, initial_state: str, amps: tuple,
                 convergence: float):
        self.table, self.initial_state = table, initial_state
        self.convergence = convergence
        (self.c_plus, self.c_minus, self.g_plus, self.g_minus,
         self.pop_bare_0, self.pop_bare_1) = amps

    pop_phi_plus = property(lambda self: np.abs(self.g_plus) ** 2)
    pop_phi_minus = property(lambda self: np.abs(self.g_minus) ** 2)
    pop_bare_0_renorm = property(
        lambda self: self.pop_bare_0 / (self.pop_bare_0 + self.pop_bare_1))
    pop_bare_1_renorm = property(
        lambda self: self.pop_bare_1 / (self.pop_bare_0 + self.pop_bare_1))

    def measure(self, name: str) -> float:
        """Check ``name`` of :data:`RUN_CHECKS` measured on this run."""
        return float(np.abs(RUN_CHECKS[name][1](self)).max())

    def checks(self) -> Iterator[tuple]:
        """Each of RUN_CHECKS that applies to the run's initial state, in
        order, as (name, measured, bound, passed)."""
        for name, (bound, _, states) in RUN_CHECKS.items():
            if self.initial_state in states:
                measured = self.measure(name)
                yield name, measured, bound, measured <= bound

    @property
    def metrics(self) -> dict:
        """End-of-run scalars for sweep tables and manifests."""
        metrics = {
            "g_plus_sq_final": float(np.abs(self.g_plus[-1]) ** 2),
            "p0_renorm_final": float(self.pop_bare_0_renorm[-1]),
            "p1_final": float(self.pop_bare_1[-1]),
            "max_abs_g_minus": self.measure("max-abs-g-minus"),
            "max_residual": self.measure("nullification-residual"),
            "convergence": self.measure("convergence"),
        }
        metrics["certified"] = all(metrics[key] <= RUN_CHECKS[name][0]
                                   for key, name in CERTIFIED_BY.items())
        return metrics


def shortcut_tables(pulse: PulseSpec, grid: TimeGrid,
                    policies: tuple = POLICIES) -> Iterator[ShortcutTable]:
    """One :class:`ShortcutTable` per policy, in order, for one pulse.

    The policy-independent part is built here, once, so its errors raise at
    the call: the angle path and its trigonometric functions and H0 on the
    quarter-step grid, from one sample of the pulse, the path's angle-rate
    defect and its run-grid samples.  The quarter-grid path drops theta
    once its defect and run-grid samples are taken.  Each policy's table
    is built only when the returned generator is advanced (see
    :func:`_tables`), so at most one is alive at a time when the caller
    drops each before asking for the next.
    """
    quarter = grid.refine(4)
    samples = sample_controls(pulse, quarter)
    theta_q = mixing_angle_path(pulse, quarter, samples)
    angle_rate = angle_rate_defect(theta_q)
    theta = MixingAnglePath(grid, theta_q.theta[::4].copy(),
                            theta_q.dtheta[::4].copy())
    # every supplement but the naive one reads sin(theta); none reads theta
    theta_q.free_theta(keep_sin=any(p != POLICY_NAIVE for p in policies))
    return _tables(policies, theta, angle_rate, theta_q,
                   hamiltonian_entries(samples[1:]))


def _supplement(policy: str, theta_q: MixingAnglePath) -> tuple:
    """The entries of the policy's H1 on the grid of ``theta_q``."""
    refuse_unknown("policy", policy, POLICIES)
    if policy == POLICY_HERMITIAN:
        return hermitian_realizable(theta_q)
    if policy == POLICY_OMEGA_ZERO:
        return general_family_omega_zero(theta_q)
    return naive_cd_entries(theta_q)


def _tables(policies, theta, angle_rate, theta_q, h0_q):
    """Each policy's table on the run grid of ``theta``, in one order: its
    supplement on the quarter grid of ``theta_q``, run-grid copies of it,
    the H0 + H1 kernel table, then (first table only) E_+, E_- from views
    of every 4th sample of the quarter-grid H0 ``h0_q``, then the level
    E_+ + d_+ (the naive term has no adiabatic-frame diagonal, d_+ = 0),
    the gauge factors and the residual, and last the scan.  The quarter-grid
    supplement is freed once the kernel table is written and its run-grid
    copies before the scan.  The last table frees the quarter-grid path
    once its supplement is formed, H0 once its kernel table is written
    and E_+, E_- once its checks are formed, so its scan, its runs and its
    checks hold only run-grid data and the kernel table.  Between tables
    this frame holds nothing of the last one yielded."""
    grid, last = theta.grid, len(policies) - 1
    for i, policy in enumerate(policies):
        h1_q = _supplement(policy, theta_q)
        if i == last:
            del theta_q
        h1 = tuple(x[::4].copy() if np.ndim(x) else x for x in h1_q)
        h = phase_table(grid.steps, h0_q, h1_q)
        del h1_q
        if i == 0:
            e_plus, e_minus = eigenvalue_path(tuple(x[::4] for x in h0_q),
                                              theta)
        if i == last:
            del h0_q
        level = (e_plus if policy == POLICY_NAIVE
                 else e_plus + frame_diagonal(h1, theta))
        f_plus, f_minus = matched_gauge(level, e_minus, grid)
        residual = nullification_residual(theta, h1)
        del h1
        if i == last:
            del e_plus, e_minus
        table = [ShortcutTable(theta, f_plus, f_minus, level, residual,
                               angle_rate, scan_table(h, grid))]
        del h, level, f_plus, f_minus
        yield table.pop()  # held by no name of this frame once yielded


def run_shortcut(pulse: PulseSpec, grid: TimeGrid,
                 policy: str = POLICY_HERMITIAN,
                 initial_state: str = INITIAL_EIGEN_PLUS) -> ShortcutRun:
    """Full pipeline for one policy and initial state: the policy's
    :class:`ShortcutTable`, then :meth:`ShortcutTable.run`."""
    return next(shortcut_tables(pulse, grid, (policy,))).run(initial_state)


__all__ = [
    "POLICIES", "INITIAL_STATES", "RUN_CHECKS", "CERTIFIED_BY",
    "ShortcutRun", "ShortcutTable", "shortcut_tables", "run_shortcut",
]
