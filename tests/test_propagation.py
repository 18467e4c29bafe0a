"""RK4 integrator, amplitude extraction, and grid mechanics."""
import cmath
import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from conftest import ae_params, ae_setup, path_eigenvalues, shortcut_table
from nhsta.errors import NonFinite

from nhsta.experiments import (INITIAL_STATES, POLICIES, ShortcutTable,
                               run_shortcut, shortcut_tables)
from nhsta.gauges import gauge_simple
from nhsta.grids import TimeGrid, cumulative_trapezoid as trapezoid
from nhsta.propagation import (AmplitudeTrajectory, StateTrajectory,
                               _block_size, amplitudes, convergence_check,
                               integrate, phase_table, scan_table)
from nhsta.two_level import (_controls, allen_eberly, mixing_angle_path,
                             mixing_angle_rate, theta_at)
from oracles import hamiltonian

SIGMA_X = 0.5 * np.array([[0, 1], [1, 0]], dtype=complex)


def half_step_scan(h_half, grid):
    """scan_table of H at the half steps, shape (2*steps + 1, 2, 2)."""
    return scan_table(phase_table(grid.steps, h_half.reshape(-1, 4).T), grid)


def half_step_samples(h_total, grid):
    """H at the RK4 stage times t_k and t_k + h/2 in order, shape
    (2*steps + 1, 2, 2): one call with the array of times where ``h_total``
    takes one, else one call per time."""
    ts, h = grid.samples, grid.step
    t = np.empty(2 * grid.steps + 1)
    t[0::2], t[1::2] = ts, ts[:-1] + 0.5 * h
    try:
        out = np.asarray(h_total(t), dtype=complex)
    except ValueError:  # the callable builds one matrix from scalar entries
        out = None
    if out is None or out.shape != (len(t), 2, 2):
        out = np.array([h_total(s) for s in t], dtype=complex)
    return out


def per_step_rk4(h_total, psi0, grid):
    """Reference: the step-by-step RK4 loop with stage times t, t + h/2,
    t + h, on Python complex scalars over H sampled once."""
    a00, a01, a10, a11 = (x.tolist() for x in
                          half_step_samples(h_total, grid).reshape(-1, 4).T)
    ts, h = grid.samples, grid.step
    p0, p1 = (complex(x) for x in psi0)
    out = [(p0, p1)]
    for k in range(grid.steps):
        j = 2 * k  # stage samples j, j + 1 (twice) and j + 2
        k10 = -1j * (a00[j] * p0 + a01[j] * p1)
        k11 = -1j * (a10[j] * p0 + a11[j] * p1)
        q0, q1 = p0 + 0.5 * h * k10, p1 + 0.5 * h * k11
        k20 = -1j * (a00[j + 1] * q0 + a01[j + 1] * q1)
        k21 = -1j * (a10[j + 1] * q0 + a11[j + 1] * q1)
        q0, q1 = p0 + 0.5 * h * k20, p1 + 0.5 * h * k21
        k30 = -1j * (a00[j + 1] * q0 + a01[j + 1] * q1)
        k31 = -1j * (a10[j + 1] * q0 + a11[j + 1] * q1)
        q0, q1 = p0 + h * k30, p1 + h * k31
        k40 = -1j * (a00[j + 2] * q0 + a01[j + 2] * q1)
        k41 = -1j * (a10[j + 2] * q0 + a11[j + 2] * q1)
        p0 = p0 + (h / 6.0) * (k10 + 2.0 * k20 + 2.0 * k30 + k40)
        p1 = p1 + (h / 6.0) * (k11 + 2.0 * k21 + 2.0 * k31 + k41)
        if not (cmath.isfinite(p0) and cmath.isfinite(p1)):
            raise NonFinite(f"state blew up near t={ts[k + 1]:g}")
        out.append((p0, p1))
    return np.array(out, dtype=complex)


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
        dth = complex(mixing_angle_rate(pulse, t, _controls(pulse, t)))
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

    @pytest.mark.parametrize("t0, t_f", [(-1.0, np.inf), (-np.inf, 1.0),
                                         (np.nan, 1.0), (-1.0, np.nan)])
    def test_non_finite_window_rejected(self, t0, t_f):
        # an infinite end passes t0 < t_f and would yield NaN samples
        with pytest.raises(ValueError, match="need a finite window"):
            TimeGrid(t0, t_f, 10)


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
        scan = half_step_scan(h_total(grid.refine(2).samples), grid)
        got, = scan.apply(psi0)
        assert np.max(np.abs(got.psi - want)) <= 1e-13

    def test_block_boundaries_are_seamless(self):
        # the scan's last block is padded with identities
        h_total = lossy_chirp(1.0)
        grid = TimeGrid(-1.0, 1.0, 5001)
        psi0 = np.array([1, 0], dtype=complex)
        want = per_step_rk4(h_total, psi0, grid)
        assert np.max(np.abs(integrate(h_total, psi0, grid).psi - want)) <= 1e-13

    # 2 and 3: one step per block; 899/900/901: one step short of a whole
    # number of blocks, exactly, one past; 997 prime; 8000 the sweep's rerun.
    @pytest.mark.parametrize("steps", [2, 3, 899, 900, 901, 997, 8000])
    def test_blocked_scan_matches_per_step_rk4(self, steps):
        assert 900 % _block_size(900) == 0
        assert _block_size(899) == _block_size(901) == _block_size(900) > 1
        h_total = lossy_chirp(3.0)
        grid = TimeGrid(-1.0, 1.0, steps)
        psi0 = np.array([0.6, 0.8j])
        want = per_step_rk4(h_total, psi0, grid)
        scan = half_step_scan(h_total(grid.refine(2).samples), grid)
        got, = scan.apply(psi0)
        assert np.max(np.abs(got.psi - want)) <= 1e-13

    def test_states_sharing_a_scan_equal_single_runs_bitwise(self):
        h_total = lossy_chirp(1.0)
        grid = TimeGrid(-1.0, 1.0, 4001)
        h_half = h_total(grid.refine(2).samples)
        scan = half_step_scan(h_half, grid)
        for psi0 in ([1, 0], [0, 1], [0.6, 0.8j], [1e-3, -2.0 + 1j]):
            psi0 = np.array(psi0, dtype=complex)
            run, = scan.apply(psi0)
            alone, = half_step_scan(h_half, grid).apply(psi0)
            assert np.array_equal(run.psi, alone.psi)

    def test_rejects_table_of_wrong_length(self):
        # H on the run grid alone, where the half steps are needed
        grid = TimeGrid(0, 1, 10)
        with pytest.raises(ValueError, match="kernel's layout"):
            scan_table(phase_table(grid.steps, np.zeros((4, grid.n_points))),
                       grid)

    def test_trapezoid_helper_equals_scipy_bitwise(self):
        y = np.exp(1j * np.linspace(0, 3, 1001)) + np.linspace(0, 1, 1001)
        assert np.array_equal(trapezoid(y, 0.37),
                              cumulative_trapezoid(y, dx=0.37, initial=0.0))


class TestAmplitudes:
    def test_reference_state_form_projects_cleanly(self, theta_paths):
        pulse, path = theta_paths(0.3)
        e_plus, e_minus = path_eigenvalues(pulse, path)
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
        pulse = allen_eberly(ae_params(gamma=0.0, omega0=20.0))
        grid = TimeGrid(-1.0, 1.0, 8000)
        path = mixing_angle_path(pulse, grid)
        e_plus, e_minus = path_eigenvalues(pulse, path)
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
        e_plus, e_minus = path_eigenvalues(pulse, path)
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
        assert shortcut_run(1.0).initial_state == "eigen-plus"
        bare = shortcut_run(1.0, initial_state="bare-ground")
        assert bare.initial_state == "bare-ground"
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
        h_total = hermitian_shortcut_h(1.0, run.table.theta)
        want = convergence_check(h_total, run.trajectory.psi[0],
                                 run.table.grid)
        assert abs(run.convergence - want) <= 1e-13

    def test_super_critical_run_certifies(self):
        # gamma > 2*omega0: the removable point at t = 0 must not spoil RK4
        pulse, grid = ae_setup(3.0, 4000)
        run = run_shortcut(pulse, grid)
        assert run.convergence <= 1e-7
        closed = run.table.closed_form()
        assert np.max(np.abs(run.amps.g_plus - closed)) <= 1e-5

    @pytest.mark.parametrize("policy", POLICIES)
    def test_shared_table_equals_single_runs_bitwise(self, policy):
        pulse, grid = ae_setup(3.0, 1000)
        table = shortcut_table(pulse, grid, policy=policy)
        for state in INITIAL_STATES:
            shared = table.run(state)
            alone = run_shortcut(pulse, grid, policy=policy,
                                 initial_state=state)
            assert np.array_equal(shared.trajectory.psi, alone.trajectory.psi)
            assert np.array_equal(shared.amps.g_plus, alone.amps.g_plus)
            assert shared.convergence == alone.convergence
            assert shared.metrics == alone.metrics

    def test_run_holds_its_table(self):
        pulse, grid = ae_setup(1.0, 1000)
        table = shortcut_table(pulse, grid)
        run = table.run(INITIAL_STATES[0])
        # a run reads every table field through ``run.table``
        assert not isinstance(run, ShortcutTable)
        slots = {name for cls in type(run).__mro__
                 for name in getattr(cls, "__slots__", ())}
        assert not slots & set(ShortcutTable.__slots__)
        assert run.table is table

    @pytest.mark.parametrize("gamma", [0.3, 3.0, 2.1])
    def test_policy_tables_of_one_pass_equal_single_runs_bitwise(self, gamma):
        pulse, grid = ae_setup(gamma, 1000)
        tables = shortcut_tables(pulse, grid, POLICIES)
        for policy, table in zip(POLICIES, tables):
            assert table.policy == policy
            for state in INITIAL_STATES:
                shared = table.run(state)
                alone = run_shortcut(pulse, grid, policy=policy,
                                     initial_state=state)
                assert np.array_equal(shared.trajectory.psi,
                                      alone.trajectory.psi)
                for name in AmplitudeTrajectory.__slots__[1:]:
                    assert np.array_equal(getattr(shared.amps, name),
                                          getattr(alone.amps, name))
                assert shared.convergence == alone.convergence
                checks = shared.table.frame_check(), alone.table.frame_check()
                for name in ("residual", "frame_coupling"):
                    assert np.array_equal(getattr(checks[0], name),
                                          getattr(checks[1], name))
                assert np.array_equal(shared.table.closed_form(),
                                      alone.table.closed_form())

    def test_one_policy_table_alive_at_a_time(self):
        pulse, grid = ae_setup(1.0, 1000)
        tables = shortcut_tables(pulse, grid, POLICIES)
        table = next(tables)
        scan = weakref.ref(table.scan)
        del table
        next(tables)
        assert scan() is None

    def test_run_path_is_quarter_path_every_fourth_sample(self):
        pulse, grid = ae_setup(3.0, 1000)
        path = shortcut_table(pulse, grid).theta
        quarter = mixing_angle_path(pulse, grid.refine(4))
        for name in ("theta", "dtheta", "cos_half", "sin_half", "sin", "cos"):
            assert np.array_equal(getattr(path, name),
                                  getattr(quarter, name)[::4])

    @pytest.mark.parametrize("steps", [1000, 1001])
    @pytest.mark.parametrize("gamma", [0.3, 1.0, 3.0, 2.1])
    def test_paired_gap_equals_unpaired_half_step_gap(self, gamma, steps):
        # the rerun's two half steps per interval, multiplied into one
        # matrix, against a separate scan of all half steps
        pulse, grid = ae_setup(gamma, steps)
        table = shortcut_table(pulse, grid)
        # [c, p, k] of the table is entry c of quarter-step row 4k + p
        h_quarter = table.scan.h.transpose(2, 1, 0).reshape(-1, 2, 2)
        h_quarter = h_quarter[:4 * steps + 1]
        coarse = half_step_scan(h_quarter[::2], grid)
        fine = half_step_scan(h_quarter, grid.refine(2))
        for state in INITIAL_STATES:
            run = table.run(state)
            psi0 = run.trajectory.psi[0]
            alone, = coarse.apply(psi0)
            assert np.array_equal(run.trajectory.psi, alone.psi)
            rerun, = fine.apply(psi0)
            want = np.max(np.abs(run.trajectory.psi - rerun.psi[::2]))
            assert abs(run.convergence - want) <= 1e-13

    def test_runaway_gain_through_a_certified_table_raises(self):
        h = np.array([[0, 0], [0, 2000j]], dtype=complex)
        with pytest.raises(NonFinite, match="blew up near t="):
            convergence_check(lambda t: h, np.array([0, 1], dtype=complex),
                              TimeGrid(0, 2, 2000))

    def test_blow_up_of_the_rerun_alone_raises(self):
        # gain at the odd quarter steps only, which the run never reads
        grid = TimeGrid(0, 2, 2000)
        h = np.zeros((4, 4, grid.n_points), dtype=complex)
        h[3, 1::2] = 2000j
        psi0 = np.array([0, 1], dtype=complex)
        run, = scan_table(h, grid).apply(psi0)
        assert np.array_equal(run.psi[-1], psi0)
        with pytest.raises(NonFinite, match="blew up near t="):
            scan_table(h, grid, certify=True).apply(psi0)

    def test_certified_table_memory_peak(self):
        # The tracemalloc peak of building this table and running both
        # states was 5,228,879 bytes with separate scans of the run and of
        # all 8,000 half steps (Python 3.11, numpy 2.4); it must not grow.
        previous_peak = 5_228_879
        pulse, grid = ae_setup(1.0, 4000)

        def build_and_run():
            table = shortcut_table(pulse, grid)
            return [table.run(state) for state in INITIAL_STATES]

        build_and_run()  # one-time allocations stay out of the peak
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            build_and_run()
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= previous_peak

    def test_odd_step_count_rejected(self):
        with pytest.raises(ValueError):
            convergence_check(lambda t: SIGMA_X,
                              np.array([1, 0], dtype=complex),
                              TimeGrid(0, 1, 101))
