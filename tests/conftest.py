"""Shared fixtures: canonical pulse parameters and cached pipeline runs."""
import numpy as np
import pytest

from nhsta.experiments import run_allen_eberly
from nhsta.grids import TimeGrid
from nhsta.two_level import (AllenEberlyParams, MixingAnglePath, allen_eberly,
                             classify_regime, mixing_angle_path)

OMEGA0 = 1.0
DELTA0 = 9.0


def ae_params(gamma: float, t_f: float = 1.0) -> AllenEberlyParams:
    return AllenEberlyParams(omega0=OMEGA0, delta0=DELTA0, tau=1.0,
                             gamma=gamma, t0=-t_f, t_f=t_f)


@pytest.fixture(scope="session")
def shortcut_run():
    """Memoized full pipeline runs keyed by (gamma, policy, steps, initial)."""
    cache = {}

    def get(gamma, policy="hermitian-realizable", steps=4000,
            initial_state="eigen-plus"):
        key = (gamma, policy, steps, initial_state)
        if key not in cache:
            cache[key] = run_allen_eberly(
                ae_params(gamma), steps=steps, policy=policy,
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
            regime = classify_regime(OMEGA0, gamma) if gamma > 0 else None
            cache[key] = (pulse, mixing_angle_path(pulse, grid, regime))
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
