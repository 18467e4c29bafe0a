"""The ``verify`` command: the self-verification suite.

Checks the biorthogonal decomposition on a random corpus, RK4's order and
exactness on a constant H, and each decay rate's run of the configured
policy from the configured initial state (the configuration's defaults
name the hermitian supplement and the eigenstate |+>) through the
:data:`nhsta.experiments.RUN_CHECKS` that apply to that state.  A list of
policies or states is refused, as ``figure3`` and ``figure4`` refuse it.
The RK4 checks read the pair that certifies every emitted row: a scan's
run and its half-step rerun.
``nhsta.cli`` imports this module only to run its :func:`cmd_verify`; it
is the only command module that imports :mod:`nhsta.biorthogonal`.
"""
from __future__ import annotations

import random

import numpy as np

from .biorthogonal import decompose, reconstruct
from .config import ExperimentConfig
from .experiments import run_shortcut
from .grids import TimeGrid
from .propagation import scan_table

VERIFY_DEFAULT_GAMMAS = (0.1, 0.3, 1.0, 3.0)

H_RABI = 0.5 * np.array([[0, 1], [1, 0]], dtype=complex)
H_DECAY = 0.5 * np.array([[0, 0], [0, -1j]], dtype=complex)


def _propagate_constant(h: np.ndarray, psi0, grid: TimeGrid):
    """The RK4 run and half-step rerun of a constant H, from one broadcast
    kernel table."""
    table = np.broadcast_to(h.reshape(4, 1, 1), (4, 4, grid.steps + 1))
    return scan_table(table, grid).apply(psi0)


def rabi_errors(steps: int) -> list:
    """Final-state errors of RK4 at ``steps`` steps and of its rerun, for
    resonant Rabi flopping over t in [0, 10]."""
    exact = np.array([np.cos(5.0), -1j * np.sin(5.0)])
    return [float(np.max(np.abs(psi[-1] - exact))) for psi in
            _propagate_constant(H_RABI, [1, 0], TimeGrid(0.0, 10.0, steps))]


def decay_error(steps: int) -> float:
    """Relative error of the rerun of RK4 at ``steps`` steps (step 1/steps)
    for pure exponential decay over t in [0, 2]."""
    _, psi = _propagate_constant(H_DECAY, [0, 1], TimeGrid(0.0, 2.0, steps))
    return abs(abs(psi[-1, 1]) - np.exp(-1.0)) / np.exp(-1.0)


def random_corpus():
    """Yield (stack, decomposition) for 60 random dense matrices, one stack
    per dimension 2, 3 and 4, each decomposed in one call.

    Dimensions are uniform in 2..4 and entries uniform in [-1, 1] + i[-1, 1],
    drawn from the stdlib ``random.Random(7)``: numpy's own imports load
    ``random`` already, while importing ``numpy.random`` costs tens of
    milliseconds.  This seed draws no near-degenerate matrix (its smallest
    eigenvalue gap is 0.76); one would raise DegenerateSpectrum.
    """
    rng = random.Random(7)
    drawn: dict = {2: [], 3: [], 4: []}
    for _ in range(60):
        dim = rng.randint(2, 4)
        drawn[dim].append([complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                           for _ in range(dim * dim)])
    for dim, entries in drawn.items():
        stack = np.array(entries).reshape(-1, dim, dim)
        yield stack, decompose(stack, degeneracy_threshold=1e-6)


def _verify_checks(cfg: ExperimentConfig):
    """Yield (name, measured, bound, ok) for the self-verification suite;
    its decay rates, policy and state are read first, so a refused one
    prints no check."""
    gammas = cfg.gammas(VERIFY_DEFAULT_GAMMAS)
    policy, initial_state = cfg.single_run()
    bio = comp = rtrip = 0.0
    for m, sys_ in random_corpus():
        bio = max(bio, sys_.biorthogonality_defect())
        comp = max(comp, sys_.completeness_defect())
        rtrip = max(rtrip, float(np.max(np.abs(reconstruct(sys_) - m))))
    yield "biorthogonality[random-corpus]", bio, 1e-10, bio <= 1e-10
    yield "completeness[random-corpus]", comp, 1e-10, comp <= 1e-10
    yield "round-trip[random-corpus]", rtrip, 1e-10, rtrip <= 1e-10

    run, rerun = rabi_errors(500)
    ratio = run / rerun
    yield "rk4-order[rabi]", ratio, "within [8, 32]", 8.0 <= ratio <= 32.0

    rel = decay_error(2000)
    yield "decay-exact[relative]", rel, 1e-8, rel <= 1e-8

    for gamma in gammas:
        run = run_shortcut(cfg.pulse_for(gamma), cfg.grid, policy,
                           initial_state)
        for name, measured, bound, ok in run.checks():
            yield f"{name}[gamma={gamma:g}]", measured, bound, ok
        del run  # free it before the next decay rate's run is built


def cmd_verify(cfg: ExperimentConfig) -> int:
    """Run the invariant suite; nonzero exit status on any failure."""
    failures = 0
    for name, measured, bound, ok in _verify_checks(cfg):
        status = "PASS" if ok else "FAIL"
        failures += 0 if ok else 1
        print(f"{status}  {name}  measured={measured:.3e}  bound={bound}")
    total = "all checks passed" if failures == 0 else f"{failures} check(s) FAILED"
    print(f"verify: {total}")
    return 0 if failures == 0 else 1
