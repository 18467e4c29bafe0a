"""RK4 integrator, amplitude extraction, and grid mechanics."""
import cmath
import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from conftest import (DELTA0, OMEGA0, ae_pulse, ae_setup, assert_bitwise,
                      path_eigenvalues, shortcut_table, state_trajectory)
from nhsta import experiments
from nhsta.errors import NonFinite

from nhsta.experiments import (INITIAL_STATES, POLICIES, ShortcutTable,
                               run_shortcut, shortcut_tables)
from nhsta.grids import TimeGrid, cumulative_trapezoid as trapezoid
from nhsta.propagation import (StateTrajectory, _block_size,
                               convergence_check, integrate, phase_table,
                               scan_table)
from nhsta.synthesis import AmplitudeTrajectory, amplitudes, matched_gauge
from nhsta.two_level import (_controls, _factors, _principal_theta,
                             allen_eberly, hamiltonian_entries,
                             mixing_angle_path, mixing_angle_rate,
                             sample_controls)
from oracles import hamiltonian

SIGMA_X = 0.5 * np.array([[0, 1], [1, 0]], dtype=complex)


def quarter_step_scan(h_total, grid):
    """scan_table of an array-valued H(t) at the quarter steps of ``grid``."""
    h = h_total(grid.refine(4).samples)
    return scan_table(phase_table(grid.steps, h.reshape(-1, 4).T), grid)


def sample_order_table(steps, h, h1=None):
    """:func:`phase_table` with H + H1 summed in sample order and then
    copied into the kernel's layout: the reference its per-phase sums
    must equal bit for bit."""
    out = np.empty((4, (len(h[0]) - 1) // steps, steps + 1), dtype=complex)
    out[:, 1:, steps] = 0.0
    for dst, x, y in zip(out, h, h1 or (None,) * 4):
        if y is not None:
            x = x + y
        dst[:, :steps], dst[0, steps] = x[:-1].reshape(steps, -1).T, x[-1]
    return out


def pipeline_entries(pulse, grid, policy):
    """(H0, H1) entries on ``grid`` as a table build forms them on its
    quarter grid: H0 from the pulse's samples, H1 from its supplement."""
    samples = sample_controls(pulse, grid)
    path = mixing_angle_path(pulse, grid, samples)
    return (hamiltonian_entries(samples[1:]),
            experiments._supplement(policy, path))


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
    return per_step_rk4_of(half_step_samples(h_total, grid), psi0, grid)


def per_step_rk4_of(h_half, psi0, grid):
    """:func:`per_step_rk4` over H given at the half steps of ``grid``,
    shape (2*steps + 1, 2, 2)."""
    a00, a01, a10, a11 = (x.tolist() for x in h_half.reshape(-1, 4).T)
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
    pulse = ae_pulse(gamma)
    return lambda t: hamiltonian(pulse, t)


def hermitian_shortcut_h(gamma, path):
    """H0 + H1 of the hermitian-realizable policy evaluated from the pulse at
    the quarter-step times of the path's grid, with theta the principal
    representative branch-matched to the tracked path (as ``theta_at``
    takes it), in one array pass; the callable looks up each time's
    sample."""
    pulse = ae_pulse(gamma)
    ts = path.grid.refine(4).samples
    ref = (np.interp(ts, path.grid.samples, path.theta.real)
           + 1j * np.interp(ts, path.grid.samples, path.theta.imag))
    controls = om, dl, gm = _controls(pulse, ts)
    x, y = _principal_theta(om, dl, gm, _factors(ts, om, dl, gm))
    principal = x + 1j * y
    th = principal + np.pi * np.round((ref - principal).real / np.pi)
    dth = mixing_angle_rate(pulse, ts, controls)
    delta = dth.imag / np.sin(th).real
    omega_a = -dth.real - delta * np.sin(th).imag
    h1 = 0.5 * np.array([[delta, 1j * omega_a], [-1j * omega_a, -delta]])
    h = hamiltonian(pulse, ts) + h1.transpose(2, 0, 1)
    return dict(zip(ts.tolist(), h)).__getitem__


def build_one_table(pulse, grid):
    """One hermitian table run from both states."""
    table = shortcut_table(pulse, grid)
    return [table.run(state) for state in INITIAL_STATES]


def build_verify_run(pulse, grid):
    """One hermitian table run from eigen-plus, with its frame check and
    closed form, as ``verify`` takes them."""
    table = shortcut_table(pulse, grid)
    run = table.run(INITIAL_STATES[0])
    return run, table.frame_check(), table.closed_form()


def build_three_tables(pulse, grid):
    """Every policy's table run from both states, each table and its runs
    dropped before the next is built, as a sweep does; the shared angle
    path and H0 stay alive throughout."""
    for table in shortcut_tables(pulse, grid):
        runs = [table.run(state) for state in INITIAL_STATES]
        del table, runs


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
                                         (np.inf, 1.0), (-1.0, -np.inf),
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

    def test_runaway_gain_of_a_zero_amplitude_raises(self):
        # the block-start products overflow in the gain direction, where
        # psi0 is exactly 0: inf * 0 is not a state, so the run refuses
        # rather than yield a NaN trajectory
        h = np.array([[0, 0], [0, 2000j]], dtype=complex)
        grid = TimeGrid(0, 2, 2000)
        psi0 = np.array([1, 0], dtype=complex)
        with pytest.raises(NonFinite, match="blew up near t="):
            integrate(lambda t: h, psi0, grid)
        with pytest.raises(NonFinite, match="blew up near t="):
            convergence_check(lambda t: h, psi0, grid)

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
        pulse = ae_pulse(gamma)
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
        run, rerun = quarter_step_scan(h_total, grid).apply(psi0)
        want = per_step_rk4(h_total, psi0, grid)
        assert np.max(np.abs(run.psi - want)) <= 1e-13
        want = per_step_rk4(h_total, psi0, grid.refine(2))[::2]
        assert np.max(np.abs(rerun.psi - want)) <= 1e-13

    def test_block_boundaries_are_seamless(self):
        # the scan's last block is padded with identities
        h_total = lossy_chirp(1.0)
        grid = TimeGrid(-1.0, 1.0, 5001)
        psi0 = np.array([1, 0], dtype=complex)
        want = per_step_rk4(h_total, psi0, grid)
        assert np.max(np.abs(integrate(h_total, psi0, grid).psi - want)) <= 1e-13

    # 2 and 3: one step per block; 899/900/901: one step short of a whole
    # number of blocks, exactly, one past; 997 prime; 8000 the sweep's rerun.
    # 2, 3, 4, 9, 15, 18, 48, 65 steps make 2, 3, 4, 5, 8, 9, 16, 17 blocks,
    # the edges of the log-depth pass over the block ends.
    @pytest.mark.parametrize("steps", [2, 3, 4, 9, 15, 18, 48, 65, 899, 900,
                                       901, 997, 8000])
    def test_blocked_scan_matches_per_step_rk4(self, steps):
        assert 900 % _block_size(900) == 0
        assert _block_size(899) == _block_size(901) == _block_size(900) > 1
        h_total = lossy_chirp(3.0)
        grid = TimeGrid(-1.0, 1.0, steps)
        psi0 = np.array([0.6, 0.8j])
        run, rerun = quarter_step_scan(h_total, grid).apply(psi0)
        want = per_step_rk4(h_total, psi0, grid)
        assert np.max(np.abs(run.psi - want)) <= 1e-13
        want = per_step_rk4(h_total, psi0, grid.refine(2))[::2]
        assert np.max(np.abs(rerun.psi - want)) <= 1e-13

    def test_states_sharing_a_scan_equal_single_runs_bitwise(self):
        h_total = lossy_chirp(1.0)
        grid = TimeGrid(-1.0, 1.0, 4001)
        scan = quarter_step_scan(h_total, grid)
        for psi0 in ([1, 0], [0, 1], [0.6, 0.8j], [1e-3, -2.0 + 1j]):
            psi0 = np.array(psi0, dtype=complex)
            alone = quarter_step_scan(h_total, grid).apply(psi0)
            for shared, single in zip(scan.apply(psi0), alone, strict=True):
                assert np.array_equal(shared.psi, single.psi)

    def test_rejects_table_of_wrong_length(self):
        # H on the run grid alone, where the quarter steps are needed; one
        # table mode: a half-step table, whose scan could hold the run
        # alone, is refused like any other shape but (4, 4, steps + 1)
        grid = TimeGrid(0, 1, 10)
        with pytest.raises(ValueError, match="kernel's layout"):
            scan_table(phase_table(grid.steps, np.zeros((4, grid.n_points))),
                       grid)
        for shape in [(4, 2, 11), (4, 3, 11), (4, 8, 11), (4, 4, 10),
                      (4, 4, 12), (2, 4, 11), (4, 44)]:
            with pytest.raises(ValueError, match="kernel's layout"):
                scan_table(np.zeros(shape, dtype=complex), grid)

    @pytest.mark.parametrize("phases", [1, 4])
    def test_phase_table_equals_the_sample_order_sum_bitwise(self, phases):
        # random entries with signed zeros in both parts: real + real, real
        # + complex, complex + real, and H1's scalar 0.0 entries placed as
        # naive-cd and general-omega-zero place them; then each policy's
        # H0 + H1 as a table build forms them on a grid of that many phases
        steps = 50
        rng = np.random.default_rng(40)

        def real():
            x = rng.normal(size=phases * steps + 1)
            x[::3] = rng.choice([0.0, -0.0], size=x[::3].size)
            return x

        def cplx():
            x = np.empty(phases * steps + 1, dtype=complex)
            x.real, x.imag = real(), real()
            return x

        h0 = (real(), real(), real(), cplx())
        for h, h1 in [(h0, None), (h0, (real(), real(), real(), real())),
                      (h0, (cplx(), cplx(), cplx(), cplx())),
                      (h0, (0.0, cplx(), cplx(), 0.0)),
                      (h0, (cplx(), 0.0, 0.0, cplx())),
                      ((cplx(), cplx(), cplx(), cplx()),
                       (real(), 0.0, -0.0, real()))]:
            assert_bitwise(phase_table(steps, h, h1),
                           sample_order_table(steps, h, h1))
        pulse, grid = ae_setup(1.0, 400)
        grid = grid.refine(phases)
        for policy in POLICIES:
            h, h1 = pipeline_entries(pulse, grid, policy)
            assert_bitwise(phase_table(400, h, h1),
                           sample_order_table(400, h, h1))

    def test_phase_table_transient_below_one_quarter_grid_array(self):
        # each phase row takes H0 and then H1 in place, so writing a table
        # makes no temporary the size of a quarter-grid series
        pulse, grid = ae_setup(1.0, 4000)
        quarter = grid.refine(4)
        for policy in POLICIES:
            h, h1 = pipeline_entries(pulse, quarter, policy)
            phase_table(grid.steps, h, h1)  # one-time allocations
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                out = phase_table(grid.steps, h, h1)
                peak = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
            assert peak - out.nbytes < 16 * quarter.n_points

    def test_trapezoid_helper_equals_scipy_bitwise(self):
        y = np.exp(1j * np.linspace(0, 3, 1001)) + np.linspace(0, 1, 1001)
        assert np.array_equal(trapezoid(y, 0.37),
                              cumulative_trapezoid(y, dx=0.37, initial=0.0))


class TestAmplitudes:
    def test_reference_state_form_projects_cleanly(self, theta_paths):
        pulse, path = theta_paths(0.3)
        e_plus, e_minus = path_eigenvalues(pulse, path)
        g = matched_gauge(e_plus, e_minus, path.grid)
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

    def test_populations_formed_on_read_equal_the_stored_formulas(self):
        # |g_n|^2 and P_m/(P_0 + P_1) are properties of the stored
        # amplitudes, equal bit for bit to forming them from psi directly
        pulse, grid = ae_setup(1.0, 1000)
        table = shortcut_table(pulse, grid)
        traj = state_trajectory(table, "bare-ground")
        amps = amplitudes(traj, table.theta, table.gauges)
        p0, p1 = np.abs(traj.psi[:, 0]) ** 2, np.abs(traj.psi[:, 1]) ** 2
        assert np.array_equal(amps.pop_bare_0, p0)
        assert np.array_equal(amps.pop_bare_1, p1)
        assert np.array_equal(amps.pop_bare_0_renorm, p0 / (p0 + p1))
        assert np.array_equal(amps.pop_bare_1_renorm, p1 / (p0 + p1))
        assert np.array_equal(amps.pop_phi_plus, np.abs(amps.g_plus) ** 2)
        assert np.array_equal(amps.pop_phi_minus, np.abs(amps.g_minus) ** 2)
        assert not {"grid", "pop_phi_plus", "pop_bare_0_renorm"} & set(
            AmplitudeTrajectory.__slots__)

    def test_slow_lossless_sweep_stays_adiabatic(self):
        pulse = ae_pulse(gamma=0.0, omega0=20.0)
        grid = TimeGrid(-1.0, 1.0, 8000)
        path = mixing_angle_path(pulse, grid)
        e_plus, e_minus = path_eigenvalues(pulse, path)
        g = matched_gauge(e_plus, e_minus, grid)

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
        g = matched_gauge(e_plus, e_minus, grid)

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
        bare = shortcut_run(1.0, initial_state="bare-ground")
        assert bare.amps.pop_bare_0[0] == 1.0
        assert bare.amps.pop_bare_1[0] == 0.0


def stretched_tables(gamma, lam):
    """(table, its runs from each initial state, its frame check) of every
    policy at 1000 steps, for the default pulse with time stretched by
    ``lam``: tau and the window times lam, omega0, delta0 and gamma over
    lam."""
    pulse = allen_eberly(omega0=OMEGA0 / lam, delta0=DELTA0 / lam, tau=lam,
                         gamma=gamma / lam)
    return [(table, [table.run(s) for s in INITIAL_STATES],
             table.frame_check())
            for table in shortcut_tables(pulse, TimeGrid(-lam, lam, 1000))]


class TestStretchedPulse:
    """A pulse stretched by a power of two is the same physics in units of
    tau, and every sample and rate scales exactly in binary.  So the angle,
    the amplitudes, the step-halving gap and the angle-rate defect keep
    their bits, and the residual and the frame check, which are rates,
    divide by the stretch exactly."""

    @pytest.mark.parametrize("lam", [2.0 ** -20, 2.0 ** -10, 2.0 ** 10])
    @pytest.mark.parametrize("gamma", [0.3, 1.0, 3.0])
    def test_readings_scale_exactly(self, gamma, lam):
        for (want, want_runs, want_frame), (got, runs, frame) in zip(
                stretched_tables(gamma, 1.0), stretched_tables(gamma, lam),
                strict=True):
            assert_bitwise(got.theta.theta, want.theta.theta)
            assert got.angle_rate == want.angle_rate
            assert got.residual == want.residual / lam
            assert frame == want_frame / lam
            for run, want_run in zip(runs, want_runs, strict=True):
                assert run.convergence == want_run.convergence
                for name in AmplitudeTrajectory.__slots__:
                    assert_bitwise(getattr(run.amps, name),
                                   getattr(want_run.amps, name))


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
        psi0 = state_trajectory(run.table).psi[0]
        want = convergence_check(h_total, psi0, run.table.grid)
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
            assert np.array_equal(state_trajectory(table, state).psi,
                                  state_trajectory(alone.table, state).psi)
            for name in AmplitudeTrajectory.__slots__:
                assert np.array_equal(getattr(shared.amps, name),
                                      getattr(alone.amps, name))
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
            for state in INITIAL_STATES:
                shared = table.run(state)
                alone = run_shortcut(pulse, grid, policy=policy,
                                     initial_state=state)
                assert np.array_equal(
                    state_trajectory(table, state).psi,
                    state_trajectory(alone.table, state).psi)
                for name in AmplitudeTrajectory.__slots__:
                    assert np.array_equal(getattr(shared.amps, name),
                                          getattr(alone.amps, name))
                assert shared.convergence == alone.convergence
                assert shared.table.residual == alone.table.residual
                assert (shared.table.frame_check()
                        == alone.table.frame_check())
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

    @pytest.mark.parametrize("policies", [POLICIES[:1], POLICIES],
                             ids=["one-policy", "three-policies"])
    def test_last_scan_holds_no_quarter_grid_array(self, monkeypatch,
                                                   policies):
        # the quarter-grid angle path and H0 are built once per pulse and
        # shared by its tables.  The path drops theta before the first
        # supplement, since none reads it.  Every table forms its checks
        # before its scan, so its run-grid copies of H1 are dead through
        # it, and writes its kernel table before either, so its quarter-
        # grid supplement is dead too.  The last table frees the path once
        # its supplement is formed and H0 once its kernel table is written,
        # so no quarter-grid array is alive when its scan starts.  Only
        # weak references are kept.
        refs, theta_q, quarter_h1, h1_copies = {}, [], [], []

        def record(name, arrays):
            fn = getattr(experiments, name)

            def call(*args, **kwargs):
                out = fn(*args, **kwargs)
                assert name not in refs  # built once per pulse
                refs[name] = [weakref.ref(x) for x in arrays(out)]
                return out
            monkeypatch.setattr(experiments, name, call)

        def path_arrays(path):
            theta_q.append(weakref.ref(path.theta))
            return path, path.dtheta

        record("mixing_angle_path", path_arrays)
        record("hamiltonian_entries", lambda entries: entries)
        supplements, phases, scans = [], [], []
        original_supplement = experiments._supplement
        original_phase_table = experiments.phase_table
        original_residual = experiments.nullification_residual
        original_scan = experiments.scan_table

        def supplement(policy, path):
            supplements.append(path is refs["mixing_angle_path"][0]())
            h1 = original_supplement(policy, path)
            quarter_h1.extend(weakref.ref(x) for x in h1 if np.ndim(x))
            return h1

        def phase(steps, h0, h1):
            phases.append(all(x is r() for x, r in
                              zip(h0, refs["hamiltonian_entries"])))
            return original_phase_table(steps, h0, h1)

        def residual(theta, h1):
            h1_copies.append([weakref.ref(x) for x in h1 if np.ndim(x)])
            return original_residual(theta, h1)

        def scan(*args, **kwargs):
            scans.append(([r() is not None
                           for found in refs.values() for r in found],
                          theta_q[0]() is not None,
                          any(r() is not None for r in quarter_h1),
                          len(h1_copies),
                          any(r() is not None
                              for copies in h1_copies for r in copies)))
            return original_scan(*args, **kwargs)

        monkeypatch.setattr(experiments, "_supplement", supplement)
        monkeypatch.setattr(experiments, "phase_table", phase)
        monkeypatch.setattr(experiments, "nullification_residual", residual)
        monkeypatch.setattr(experiments, "scan_table", scan)
        pulse, grid = ae_setup(1.0, 400)
        for table in shortcut_tables(pulse, grid, policies):
            table.run(INITIAL_STATES[0])
            del table
        assert supplements == phases == [True] * len(policies)
        assert len(scans) == len(policies)
        shared, theta_alive, h1_q_alive, checked, h1_alive = zip(*scans)
        assert all(all(alive) for alive in shared[:-1])
        assert not any(shared[-1])
        assert not any(theta_alive)
        assert not any(h1_q_alive)
        assert all(quarter_h1)
        # every table, the first included, forms its checks before its scan
        assert checked == tuple(range(1, len(policies) + 1))
        assert not any(h1_alive)
        assert len(h1_copies) == len(policies)
        assert all(h1_copies)

    @pytest.mark.parametrize("policies", [(POLICIES[1],), POLICIES],
                             ids=["naive-cd", "three-policies"])
    def test_held_generator_keeps_no_dropped_table(self, monkeypatch,
                                                   policies):
        # a caller that drops each table but holds the generator through
        # the last one's runs, as record_runs does, frees that table's scan
        # and the pulse's E_+, E_- (a naive table's level is E_+ itself)
        eigen = []
        original = experiments.eigenvalue_path

        def eigenvalues(*args):
            out = original(*args)
            eigen.extend(weakref.ref(x) for x in out)
            return out

        monkeypatch.setattr(experiments, "eigenvalue_path", eigenvalues)
        pulse, grid = ae_setup(1.0, 400)
        tables = shortcut_tables(pulse, grid, policies)
        for _ in policies:
            table = next(tables)
            scan = weakref.ref(table.scan)
            table.run(INITIAL_STATES[0])
            del table
            assert scan() is None
        assert len(eigen) == 2
        assert not any(r() is not None for r in eigen)
        assert next(tables, None) is None

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
        # matrix, against the step-by-step RK4 loop over all half steps;
        # the run is a scan of its own rows alone, bit for bit
        pulse, grid = ae_setup(gamma, steps)
        table = shortcut_table(pulse, grid)
        # [c, p, k] of the table is entry c of quarter-step row 4k + p
        h_quarter = table.scan.h.transpose(2, 1, 0).reshape(-1, 2, 2)
        h_quarter = h_quarter[:4 * steps + 1]
        run_rows_only = table.scan.h.copy()
        run_rows_only[:, 1::2] = 0.0  # the rows only the rerun reads
        run_rows_only = scan_table(run_rows_only, grid)
        for state in INITIAL_STATES:
            run, traj = table.run(state), state_trajectory(table, state)
            amps = amplitudes(traj, table.theta, table.gauges)
            assert np.array_equal(run.amps.c_plus, amps.c_plus)
            psi0 = traj.psi[0]
            assert np.array_equal(run_rows_only.apply(psi0)[0].psi, traj.psi)
            alone = per_step_rk4_of(h_quarter[::2], psi0, grid)
            assert np.max(np.abs(traj.psi - alone)) <= 1e-13
            rerun = per_step_rk4_of(h_quarter, psi0, grid.refine(2))
            want = np.max(np.abs(traj.psi - rerun[::2]))
            assert abs(run.convergence - want) <= 1e-13

    @pytest.mark.parametrize("gamma, steps", [
        (2.1, 4000), (2.5, 4000), (2.5, 2100), (3.0, 4000), (3.0, 1000)])
    def test_gap_bounds_the_error_at_a_removable_point(self, gamma, steps):
        # gamma > 2*omega0 guards the sample t = 0 of the supplement: its
        # fill must err at fourth order like the steps, or the run reads it
        # with weight h/3 and the rerun h/6 and the gap sees half the error
        pulse, grid = ae_setup(gamma, steps)
        table = shortcut_table(pulse, grid)
        run = table.run(INITIAL_STATES[0])
        fine = state_trajectory(shortcut_table(pulse, grid.refine(16)))
        error = np.max(np.abs(state_trajectory(table).psi - fine.psi[::16]))
        assert error <= 1.1 * run.convergence

    def test_runaway_gain_through_a_certified_table_raises(self):
        h = np.array([[0, 0], [0, 2000j]], dtype=complex)
        with pytest.raises(NonFinite, match="blew up near t="):
            convergence_check(lambda t: h, np.array([0, 1], dtype=complex),
                              TimeGrid(0, 2, 2000))

    def test_blow_up_of_the_rerun_alone_raises(self):
        # gain at the odd quarter steps only, which the run never reads: a
        # mild one moves the rerun and leaves the run at psi0
        grid = TimeGrid(0, 2, 2000)
        h = np.zeros((4, 4, grid.n_points), dtype=complex)
        h[3, 1::2] = 1j
        psi0 = np.array([0, 1], dtype=complex)
        run, rerun = scan_table(h, grid).apply(psi0)
        assert np.array_equal(run.psi[-1], psi0)
        assert np.all(np.isfinite(rerun.psi))
        assert not np.array_equal(rerun.psi[-1], psi0)
        h[3, 1::2] = 2000j
        with pytest.raises(NonFinite, match="blew up near t="):
            scan_table(h, grid).apply(psi0)

    @pytest.mark.parametrize("build_and_run, bound", [
        (build_one_table, 3_112_151), (build_verify_run, 3_112_201),
        (build_three_tables, 4_285_100)],
        ids=["hermitian", "verify-run", "three-policies"])
    def test_certified_table_memory_peak(self, build_and_run, bound):
        # The tracemalloc peaks of building one hermitian table, or the
        # three policies' tables of one decay rate, and running both states
        # from each were 4,427,721 and 4,879,187 bytes with complex H0 and
        # omega-zero drive entries, and 4,171,705 and 4,495,029 bytes once
        # they are real and scalar and a run frees its rerun before its
        # amplitudes.  With the last table of a pulse freeing the quarter-
        # grid angle path and H0 before its scan they are 3,051,129 and
        # 4,493,799 bytes.  With the shared quarter-grid path dropping theta
        # before the first supplement, and every table after the first
        # freeing its run-grid H1 before its scan, the three tables peak at
        # 4,201,079 bytes.  Verify's one run with its frame check and
        # closed form peaked at 3,177,143 bytes in the differenced frame
        # check, and at 3,051,177 bytes with the check in closed form
        # (Python 3.11, numpy 2.4); the bounds are 3,051,129, 3,051,177
        # and 4,201,079 bytes plus 2%.  With every table built in one order,
        # the first holding its level, gauges and E_+, E_- through its scan
        # where it held its run-grid H1, the three peaks read 3,083,719,
        # 3,082,871 and 4,236,167 bytes, the last in the first table's scan.
        pulse, grid = ae_setup(1.0, 4000)
        build_and_run(pulse, grid)  # one-time allocations stay out of the peak
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            build_and_run(pulse, grid)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= bound

    def test_odd_step_count_rejected(self):
        with pytest.raises(ValueError):
            convergence_check(lambda t: SIGMA_X,
                              np.array([1, 0], dtype=complex),
                              TimeGrid(0, 1, 101))
