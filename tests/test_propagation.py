"""RK4 integrator, amplitude extraction, and grid mechanics."""
import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from conftest import ae_params
from nhsta.errors import NonFinite

from nhsta.experiments import run_allen_eberly
from nhsta.gauges import gauge_simple
from nhsta.grids import TimeGrid, cumulative_trapezoid as trapezoid
from nhsta.propagation import (StateTrajectory, amplitudes, convergence_check,
                               integrate, propagate)
from nhsta.two_level import (allen_eberly, eigenvalue_path, hamiltonian,
                             mixing_angle_path, mixing_angle_rate, theta_at)

SIGMA_X = 0.5 * np.array([[0, 1], [1, 0]], dtype=complex)


def per_step_rk4(h_total, psi0, grid):
    """Reference: the step-by-step RK4 loop with stage times t, t + h/2, t + h."""
    psi = np.asarray(psi0, dtype=complex).copy()
    ts, h = grid.samples, grid.step
    out = np.empty((grid.n_points, len(psi)), dtype=complex)
    out[0] = psi

    def rhs(t, p):
        return -1j * (h_total(t) @ p)

    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(grid.steps):
            t = ts[k]
            k1 = rhs(t, psi)
            k2 = rhs(t + 0.5 * h, psi + 0.5 * h * k1)
            k3 = rhs(t + 0.5 * h, psi + 0.5 * h * k2)
            k4 = rhs(t + h, psi + h * k3)
            psi = psi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(psi.view(float))):
                raise NonFinite(f"state blew up near t={ts[k + 1]:g}")
            out[k + 1] = psi
    return out


def lossy_chirp(gamma):
    """Time-dependent non-Hermitian H(t): the bare generator of a pulse."""
    pulse = allen_eberly(ae_params(gamma))
    return lambda t: hamiltonian(pulse, t)


def hermitian_shortcut_h(gamma, path):
    """H0 + H1 of the hermitian-realizable policy evaluated from the pulse at
    any t, with theta branch-matched to the tracked path."""
    pulse = allen_eberly(ae_params(gamma))
    ts = path.grid.samples

    def h_total(t):
        ref = complex(np.interp(t, ts, path.theta.real),
                      np.interp(t, ts, path.theta.imag))
        th = theta_at(pulse, t, ref)
        dth = complex(mixing_angle_rate(pulse, t))
        delta = dth.imag / np.sin(th).real
        omega_a = -dth.real - delta * np.sin(th).imag
        h1 = 0.5 * np.array([[delta, 1j * omega_a], [-1j * omega_a, -delta]])
        return hamiltonian(pulse, t) + h1

    return h_total


class TestGrid:
    def test_symmetric_window_contains_exact_zero(self):
        grid = TimeGrid(-1.0, 1.0, 4000)
        assert grid.samples[2000] == 0.0
        assert grid.samples[0] == -1.0
        assert grid.samples[-1] == 1.0

    def test_spacing_uniform(self):
        grid = TimeGrid(-0.7, 1.3, 997)
        diffs = np.diff(grid.samples)
        assert np.max(np.abs(diffs - grid.step)) < 1e-14

    def test_index_lookup(self):
        grid = TimeGrid(-1.0, 1.0, 100)
        assert grid.index_of(grid.samples[37]) == 37
        assert grid.index_of(grid.samples[37] + 0.3 * grid.step) is None

    def test_invalid_windows_rejected(self):
        with pytest.raises(ValueError):
            TimeGrid(1.0, 1.0, 10)
        with pytest.raises(ValueError):
            TimeGrid(0.0, 1.0, 1)


class TestIntegrate:
    def test_zero_hamiltonian_freezes_the_state(self):
        psi0 = np.array([0.6, 0.8j])
        traj = integrate(lambda t: np.zeros((2, 2)), psi0, TimeGrid(0, 1, 50))
        assert np.array_equal(traj.psi[-1], psi0)

    def test_pure_decay_closed_form(self):
        gamma, t_end = 1.0, 2.0
        h = 0.5 * np.array([[0, 0], [0, -1j * gamma]], dtype=complex)
        traj = integrate(lambda t: h, np.array([0, 1], dtype=complex),
                         TimeGrid(0, t_end, 4000))
        want = np.exp(-gamma * t_end / 2)
        assert abs(abs(traj.psi[-1, 1]) - want) / want <= 1e-8

    def test_resonant_oscillation_closed_form(self):
        grid = TimeGrid(0, 10, 4000)
        traj = integrate(lambda t: SIGMA_X, np.array([1, 0], dtype=complex), grid)
        ts = grid.samples
        want = np.sin(ts / 2) ** 2
        assert np.max(np.abs(np.abs(traj.psi[:, 1]) ** 2 - want)) <= 1e-8

    def test_fourth_order_error_scaling(self):
        def final_error(steps):
            grid = TimeGrid(0, 10, steps)
            traj = integrate(lambda t: SIGMA_X, np.array([1, 0], dtype=complex),
                             grid)
            exact = np.array([np.cos(5.0), -1j * np.sin(5.0)])
            return np.max(np.abs(traj.psi[-1] - exact))

        e1, e2, e3 = final_error(250), final_error(500), final_error(1000)
        assert 8.0 <= e1 / e2 <= 32.0
        assert 8.0 <= e2 / e3 <= 32.0

    def test_runaway_gain_raises(self):
        h = np.array([[0, 0], [0, 2000j]], dtype=complex)
        with pytest.raises(NonFinite):
            integrate(lambda t: h, np.array([0, 1], dtype=complex),
                      TimeGrid(0, 2, 2000))

    @pytest.mark.parametrize("h_total", [
        lambda t: np.array([[0, 0], [0, 2000j]], dtype=complex),
        lambda t: np.array([[1.0, 0.5], [0.5, 900j * (1.0 + t)]]),
    ])
    def test_runaway_gain_names_the_per_step_sample(self, h_total):
        grid = TimeGrid(0, 2, 2000)
        psi0 = np.array([0, 1], dtype=complex)
        with pytest.raises(NonFinite) as want:
            per_step_rk4(h_total, psi0, grid)
        with pytest.raises(NonFinite) as got:
            integrate(h_total, psi0, grid)
        assert str(got.value) == str(want.value)

    def test_norm_decay_balances_excited_population(self):
        # d/dt |psi|^2 = -gamma |psi_1|^2 for the lossy two-level generator
        gamma = 1.0
        pulse = allen_eberly(ae_params(gamma))
        grid = TimeGrid(-1.0, 1.0, 4000)

        def h_total(t):
            om, dl = float(pulse.omega_r(t)), float(pulse.delta(t))
            return 0.5 * np.array([[-dl, om], [om, dl - 1j * gamma]],
                                  dtype=complex)

        path = mixing_angle_path(pulse, grid)
        th0 = path.theta[0]
        psi0 = np.array([np.cos(th0 / 2), np.sin(th0 / 2)], dtype=complex)
        traj = integrate(h_total, psi0, grid)
        norm_sq = np.sum(np.abs(traj.psi) ** 2, axis=1)
        absorbed = cumulative_trapezoid(gamma * np.abs(traj.psi[:, 1]) ** 2,
                                        dx=grid.step, initial=0.0)
        start = norm_sq[0]
        assert np.max(np.abs(norm_sq - (start - absorbed))) <= 1e-6


class TestPropagate:
    @pytest.mark.parametrize("gamma", [0.3, 3.0])
    def test_matches_per_step_rk4(self, gamma):
        h_total = lossy_chirp(gamma)
        grid = TimeGrid(-1.0, 1.0, 4000)
        psi0 = np.array([0.6, 0.8j])
        want = per_step_rk4(h_total, psi0, grid)
        got = propagate(h_total(grid.refine(2).samples), psi0, grid)
        assert np.max(np.abs(got.psi - want)) <= 1e-13

    def test_block_boundaries_are_seamless(self):
        # more steps than one batch of transfer matrices
        h_total = lossy_chirp(1.0)
        grid = TimeGrid(-1.0, 1.0, 5001)
        psi0 = np.array([1, 0], dtype=complex)
        want = per_step_rk4(h_total, psi0, grid)
        assert np.max(np.abs(integrate(h_total, psi0, grid).psi - want)) <= 1e-13

    def test_rejects_table_of_wrong_length(self):
        grid = TimeGrid(0, 1, 10)
        with pytest.raises(ValueError):
            propagate(np.zeros((grid.n_points, 2, 2)), np.array([1, 0]), grid)

    def test_trapezoid_helper_equals_scipy_bitwise(self):
        y = np.exp(1j * np.linspace(0, 3, 1001)) + np.linspace(0, 1, 1001)
        assert np.array_equal(trapezoid(y, 0.37),
                              cumulative_trapezoid(y, dx=0.37, initial=0.0))


class TestAmplitudes:
    def test_reference_state_form_projects_cleanly(self, theta_paths):
        pulse, path = theta_paths(0.3)
        e_plus, e_minus = eigenvalue_path(pulse, path.grid, path.regime)
        g = gauge_simple(e_plus, e_minus, path.grid)
        rng = np.random.default_rng(77)
        gp = np.exp(1j * rng.uniform(0, 2 * np.pi, path.grid.n_points))
        c, s = np.cos(path.theta / 2), np.sin(path.theta / 2)
        psi = (g.f_plus * gp)[:, None] * np.stack([c, s], axis=1)
        traj = StateTrajectory(grid=path.grid, psi=psi)
        amps = amplitudes(traj, path, g)
        assert np.max(np.abs(amps.c_plus - g.f_plus * gp)) < 1e-12
        assert np.max(np.abs(amps.c_minus)) < 1e-12
        assert np.max(np.abs(amps.g_minus)) < 1e-12
        assert np.max(np.abs(amps.g_plus * g.f_plus - amps.c_plus)) <= 1e-12

    def test_slow_lossless_sweep_stays_adiabatic(self):
        from dataclasses import replace
        pulse = allen_eberly(replace(ae_params(gamma=0.0), omega0=20.0))
        grid = TimeGrid(-1.0, 1.0, 8000)
        path = mixing_angle_path(pulse, grid)
        e_plus, e_minus = eigenvalue_path(pulse, grid, path.regime)
        g = gauge_simple(e_plus, e_minus, grid)

        def h_total(t):
            om, dl = float(pulse.omega_r(t)), float(pulse.delta(t))
            return 0.5 * np.array([[-dl, om], [om, dl]], dtype=complex)

        th0 = path.theta[0]
        psi0 = np.array([np.cos(th0 / 2), np.sin(th0 / 2)], dtype=complex)
        traj = integrate(h_total, psi0, grid)
        amps = amplitudes(traj, path, g)
        assert np.max(np.abs(amps.pop_phi_plus - 1.0)) < 0.01

    def test_bare_generator_alone_loses_raw_weight(self, theta_paths):
        # without a supplement the raw amplitude decays visibly while the
        # modified one stays order unity
        gamma = 1.0
        pulse, path = theta_paths(gamma)
        grid = path.grid
        e_plus, e_minus = eigenvalue_path(pulse, grid, path.regime)
        g = gauge_simple(e_plus, e_minus, grid)

        def h_total(t):
            om, dl = float(pulse.omega_r(t)), float(pulse.delta(t))
            return 0.5 * np.array([[-dl, om], [om, dl - 1j * gamma]],
                                  dtype=complex)

        th0 = path.theta[0]
        psi0 = np.array([np.cos(th0 / 2), np.sin(th0 / 2)], dtype=complex)
        traj = integrate(h_total, psi0, grid)
        amps = amplitudes(traj, path, g)
        assert np.abs(amps.c_plus[-1]) ** 2 < 0.5
        assert np.max(amps.pop_phi_plus) > 0.8


class TestShortcutInvariants:
    def test_reference_amplitude_trapped(self, shortcut_run):
        for gamma in (0.1, 0.3, 1.0):
            run = shortcut_run(gamma)
            assert np.max(np.abs(run.amps.g_minus)) <= 1e-5
            total = run.amps.pop_phi_plus + run.amps.pop_phi_minus
            assert np.min(total) >= 0.95
            assert np.max(total) <= 1.05

    def test_raw_final_weight_drops_with_stronger_decay(self, shortcut_run):
        finals = [np.abs(shortcut_run(g).amps.c_plus[-1]) ** 2
                  for g in (0.1, 0.3, 1.0)]
        assert finals[0] > finals[1] > finals[2]

    def test_population_inversion(self, shortcut_run):
        run = shortcut_run(1.0)
        assert run.amps.pop_bare_0_renorm[-1] <= 0.01
        assert run.amps.pop_bare_1[-1] > 0.0

    def test_initial_condition_recorded(self, shortcut_run):
        assert shortcut_run(1.0).trajectory.initial_condition == "eigen-plus"
        bare = shortcut_run(1.0, initial_state="bare-ground")
        assert bare.trajectory.initial_condition == "bare-ground"
        assert bare.trajectory.psi[0, 0] == 1.0


class TestConvergence:
    def test_zero_hamiltonian_converges_exactly(self):
        val = convergence_check(lambda t: np.zeros((2, 2)),
                                np.array([1, 0], dtype=complex),
                                TimeGrid(0, 1, 100))
        assert val == 0.0

    def test_resonant_oscillation_step_halving(self):
        val = convergence_check(lambda t: SIGMA_X,
                                np.array([1, 0], dtype=complex),
                                TimeGrid(0, 10, 4000))
        assert val <= 1e-9

    def test_engineered_run_step_halving(self, shortcut_run):
        assert shortcut_run(1.0).convergence <= 1e-7

    def test_run_certification_equals_callable_check(self, shortcut_run):
        run = shortcut_run(1.0)
        h_total = hermitian_shortcut_h(1.0, run.theta)
        want = convergence_check(h_total, run.trajectory.psi[0], run.grid)
        assert abs(run.convergence - want) <= 1e-13

    def test_super_critical_run_certifies(self):
        # gamma > 2*omega0: the removable point at t = 0 must not spoil RK4
        run = run_allen_eberly(ae_params(3.0), steps=4000,
                               with_convergence=True)
        assert run.convergence <= 1e-7
        assert np.max(np.abs(run.amps.g_plus - run.g_plus_closed)) <= 1e-5

    def test_odd_step_count_rejected(self):
        with pytest.raises(ValueError):
            convergence_check(lambda t: SIGMA_X,
                              np.array([1, 0], dtype=complex),
                              TimeGrid(0, 1, 101))
