"""Shared fixtures: canonical pulse parameters and cached pipeline runs."""
import numpy as np
import pytest

from nhsta.experiments import run_shortcut, shortcut_tables
from nhsta.grids import TimeGrid
from nhsta.two_level import (MixingAnglePath, PulseSpec, allen_eberly,
                             eigenvalue_path, frame_diagonal,
                             hamiltonian_entries, mixing_angle_path,
                             sample_controls)

OMEGA0 = 1.0
DELTA0 = 9.0


def ae_pulse(gamma: float, omega0: float = OMEGA0) -> PulseSpec:
    """The sech/tanh pulse at one decay rate, tau = 1."""
    return allen_eberly(omega0=omega0, delta0=DELTA0, tau=1.0, gamma=gamma)


def with_controls(pulse: PulseSpec, **controls) -> PulseSpec:
    """``pulse`` with the named control or rate functions, or its decay
    rate ``gamma``, swapped."""
    kept = {name: getattr(pulse, name) for name in PulseSpec.__slots__}
    return PulseSpec(**{**kept, **controls})


def ae_setup(gamma: float, steps: int, t_f: float = 1.0):
    """(pulse, run grid) of the sech/tanh pulse at one decay rate on
    [-t_f, t_f]."""
    return ae_pulse(gamma), TimeGrid(-t_f, t_f, steps)


def shortcut_table(pulse, grid, policy="hermitian-realizable"):
    """The one table of ``shortcut_tables`` for a single policy."""
    return next(shortcut_tables(pulse, grid, (policy,)))


def state_trajectory(table, initial_state: str = "eigen-plus"):
    """The run-grid trajectory behind ``table.run(initial_state)``, which a
    run does not keep: the table's scan applied to the state's psi0.
    Mirrors the choice of psi0 in ``ShortcutTable.run``; change the two
    together."""
    th = table.theta
    psi0 = ([th.cos_half[0], th.sin_half[0]]
            if initial_state == "eigen-plus" else [1.0, 0.0])
    return table.scan.apply(np.array(psi0, dtype=complex))[0]


def table_entries(pulse, grid, policy="hermitian-realizable") -> tuple:
    """The run-grid entries (h00, h01, h10, h11) of a policy's H1 as its
    table reads them: every 4th sample of the quarter-grid supplement.
    Mirrors the sampling in ``experiments._tables``; change the two
    together."""
    from nhsta.experiments import _supplement
    h1 = _supplement(policy, mixing_angle_path(pulse, grid.refine(4)))
    return tuple(x[::4] if np.ndim(x) else x for x in h1)


def path_eigenvalues(pulse: PulseSpec, path: MixingAnglePath) -> tuple:
    """(E_+, E_-) of ``eigenvalue_path`` on the grid of ``path``, from H0
    sampled there."""
    return eigenvalue_path(
        hamiltonian_entries(sample_controls(pulse, path.grid)[1:]), path)


def table_eigenvalues(pulse: PulseSpec, table) -> tuple:
    """(E_+, E_-) as a table reads them: from H0 at every 4th sample of the
    quarter grid, on the table's angle path.  Mirrors the eigenvalue read
    in ``experiments._tables``; change the two together."""
    h0 = hamiltonian_entries(sample_controls(pulse, table.grid.refine(4))[1:])
    return eigenvalue_path(tuple(x[::4] for x in h0), table.theta)


def assert_bitwise(got, want):
    """Equal bit for bit, signed zeros included."""
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    g, w = got.view(float), want.view(float)
    assert np.array_equal(g, w)
    assert np.array_equal(np.signbit(g), np.signbit(w))


def shifted_level(e_plus, h1: tuple, path: MixingAnglePath):
    """E_+ + d_+, with d_+ the frame diagonal of a supplement's entries
    ``h1``: the level the matched gauge and the closed form read."""
    return e_plus + frame_diagonal(h1, path)


@pytest.fixture(scope="session")
def cli_import_modules():
    """The modules a fresh interpreter holds after ``import nhsta.cli``:
    one child serves every check of what that import loads."""
    import ast
    import subprocess
    import sys
    code = "import sys, nhsta.cli; print(sorted(sys.modules))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    return set(ast.literal_eval(done.stdout))


@pytest.fixture(scope="session")
def shortcut_run():
    """Memoized full pipeline runs keyed by (gamma, policy, steps, initial)."""
    cache = {}

    def get(gamma, policy="hermitian-realizable", steps=4000,
            initial_state="eigen-plus"):
        key = (gamma, policy, steps, initial_state)
        if key not in cache:
            pulse, grid = ae_setup(gamma, steps)
            cache[key] = run_shortcut(pulse, grid, policy=policy,
                                      initial_state=initial_state)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def theta_paths():
    """Memoized branch-continuous angle paths keyed by (gamma, steps)."""
    cache = {}

    def get(gamma, steps=4000):
        key = (gamma, steps)
        if key not in cache:
            pulse = ae_pulse(gamma)
            grid = TimeGrid(-1.0, 1.0, steps)
            cache[key] = (pulse, mixing_angle_path(pulse, grid))
        return cache[key]

    return get


def analytic_two_level_systems(theta: MixingAnglePath, e_plus, e_minus,
                               gauge=None):
    """Biorthonormal systems built from the closed-form eigenvector pair,
    one per sample, as views of stacks built in one array pass.  With a
    ``gauge``, the right vectors are scaled by its (f_plus, f_minus) and
    the left ones by the inverse conjugates, so they stay biorthonormal."""
    from nhsta.biorthogonal import BiorthogonalSystem

    def pairs(th):  # [[c, s], [s, -c]] of th / 2 at every sample
        c, s = np.cos(th / 2.0), np.sin(th / 2.0)
        return np.stack([c, s, s, -c], axis=-1).reshape(-1, 2, 2)

    th = np.asarray(theta.theta, dtype=complex)
    right, left = pairs(th), pairs(np.conj(th))
    if gauge is not None:
        f = np.stack([gauge.f_plus, gauge.f_minus], axis=-1)[:, None, :]
        right, left = right * f, left / np.conj(f)
    eigenvalues = np.stack([e_plus, e_minus], axis=-1)
    return [BiorthogonalSystem(eigenvalues=w, right=r, left=l)
            for w, r, l in zip(eigenvalues, right, left)]
