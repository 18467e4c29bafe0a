"""Shared fixtures: canonical pulse parameters and cached pipeline runs."""
import numpy as np
import pytest

from nhsta.experiments import run_shortcut, shortcut_tables
from nhsta.grids import TimeGrid
from nhsta.two_level import (AllenEberlyParams, MixingAnglePath, PulseSpec,
                             allen_eberly, eigenvalue_path,
                             hamiltonian_entries, mixing_angle_path)

OMEGA0 = 1.0
DELTA0 = 9.0


def ae_params(gamma: float, t_f: float = 1.0,
              omega0: float = OMEGA0) -> AllenEberlyParams:
    return AllenEberlyParams(omega0=omega0, delta0=DELTA0, tau=1.0,
                             gamma=gamma, t0=-t_f, t_f=t_f)


def with_controls(pulse: PulseSpec, **controls) -> PulseSpec:
    """``pulse`` with the named control or rate functions swapped."""
    kept = {name: getattr(pulse, name) for name in PulseSpec.__slots__}
    return PulseSpec(**{**kept, **controls})


def ae_setup(gamma: float, steps: int, t_f: float = 1.0):
    """(pulse, run grid) of the sech/tanh pulse at one decay rate on
    [-t_f, t_f]."""
    params = ae_params(gamma, t_f)
    return allen_eberly(params), TimeGrid(params.t0, params.t_f, steps)


def shortcut_table(pulse, grid, policy="hermitian-realizable"):
    """The one table of ``shortcut_tables`` for a single policy."""
    return next(shortcut_tables(pulse, grid, (policy,)))


def path_eigenvalues(pulse: PulseSpec, path: MixingAnglePath) -> tuple:
    """(E_+, E_-) of ``eigenvalue_path`` on the grid of ``path``, from H0
    sampled there."""
    return eigenvalue_path(hamiltonian_entries(pulse, path.grid.samples), path)


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
            pulse = allen_eberly(ae_params(gamma))
            grid = TimeGrid(-1.0, 1.0, steps)
            cache[key] = (pulse, mixing_angle_path(pulse, grid))
        return cache[key]

    return get


def analytic_two_level_systems(theta: MixingAnglePath, e_plus, e_minus):
    """Biorthonormal systems built from the closed-form eigenvector pair."""
    from nhsta.biorthogonal import BiorthogonalSystem

    systems = []
    for k in range(theta.grid.n_points):
        th = theta.theta[k]
        c, s = np.cos(th / 2.0), np.sin(th / 2.0)
        right = np.array([[c, s], [s, -c]], dtype=complex)
        cs, ss = np.cos(np.conj(th) / 2.0), np.sin(np.conj(th) / 2.0)
        left = np.array([[cs, ss], [ss, -cs]], dtype=complex)
        systems.append(BiorthogonalSystem(
            eigenvalues=np.array([e_plus[k], e_minus[k]]),
            right=right, left=left))
    return systems
