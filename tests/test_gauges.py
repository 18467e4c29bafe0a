"""Gauge factors, frame rotations, and the gauge-matched frame matrix."""
import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid, quad

from conftest import (ae_pulse, ae_setup, analytic_two_level_systems,
                      assert_bitwise, path_eigenvalues, shifted_level,
                      shortcut_table, table_eigenvalues, table_entries)
from nhsta import experiments, synthesis
from nhsta.errors import InconsistentChoice, SinThetaSingular, ZeroGauge
from nhsta.grids import TimeGrid
from nhsta.propagation import integrate
from nhsta.synthesis import (POLICY_NAIVE, general_family_omega_zero,
                             hermitian_realizable, matched_delta,
                             matched_gauge)
from nhsta.two_level import (MixingAnglePath, PulseSpec, allen_eberly,
                             frame_diagonal, mixing_angle_path, theta_at)
from oracles import (EigenPath, adiabatic_frame_generic, adiabatic_frame_h0,
                     rotation)


#: (diagonal split of a path, the error its unguardable sample raises) of
#: both realizable policies, which share one removable-point rule
DIAGONAL_SPLITS = [
    pytest.param(matched_delta, SinThetaSingular, id="hermitian"),
    pytest.param(lambda path: 2 * general_family_omega_zero(path)[0],
                 InconsistentChoice, id="omega-zero")]


class TestGaugeSimple:
    def test_real_spectrum_gives_unit_gauge(self):
        grid = TimeGrid(0.0, 1.0, 100)
        e = np.ones(grid.n_points) * 0.5  # purely real eigenvalue samples
        g = matched_gauge(e, -e, grid)
        assert np.all(g.f_plus == 1.0)
        assert np.all(g.f_minus == 1.0)

    def test_constant_decay_closed_form(self):
        gamma, t_end = 0.8, 2.0
        grid = TimeGrid(0.0, t_end, 200)
        e = np.full(grid.n_points, -0.5j * gamma)
        g = matched_gauge(e, e, grid)
        assert abs(g.f_plus[-1] - np.exp(-gamma * t_end / 2)) < 1e-12
        assert g.f_plus[0] == 1.0

    def test_lossy_upper_gauge_monotone_when_im_e_nonpositive(self, theta_paths):
        pulse, path = theta_paths(0.3)
        e_plus, e_minus = path_eigenvalues(pulse, path)
        assert np.max(e_plus.imag) <= 1e-12  # sign audit of the integrand
        g = matched_gauge(e_plus, e_minus, path.grid)
        assert np.max(np.abs(g.f_plus.imag)) == 0.0
        assert np.all(np.diff(np.abs(g.f_plus)) <= 1e-15)


    @pytest.mark.parametrize("gamma", [0.0, 0.1, 1.0, 3.0, 10.0])
    def test_matched_gauge_of_naive_term_equals_it_bitwise(self, gamma):
        # the naive term has no frame diagonal, so its table's gauge is the
        # simple one, the matched gauge of the recomputed E_+ itself, signed
        # zeros included
        pulse, grid = ae_setup(gamma, 1000)
        table = shortcut_table(pulse, grid, POLICY_NAIVE)
        h1 = table_entries(pulse, grid, POLICY_NAIVE)
        assert np.all(frame_diagonal(h1, table.theta) == 0)
        e_plus, e_minus = table_eigenvalues(pulse, table)
        assert np.array_equal(table.level, e_plus)
        want = matched_gauge(e_plus, e_minus, grid)
        assert_bitwise(table.gauges.f_plus, want.f_plus)
        assert_bitwise(table.gauges.f_minus, want.f_minus)

    def test_one_gauge_under_the_traced_name(self):
        # the benchmark tracer wraps ``experiments.gauge_simple``; it names
        # the package's one gauge, and ``synthesis`` defines no second formula
        assert experiments.gauge_simple is matched_gauge
        assert not hasattr(synthesis, "gauge_simple")


class TestGaugeShortcut:
    def test_lossless_limit_is_unit_gauge(self, theta_paths):
        pulse, path = theta_paths(0.0)
        e_plus, e_minus = path_eigenvalues(pulse, path)
        level = shifted_level(e_plus, hermitian_realizable(path), path)
        g = matched_gauge(level, e_minus, path.grid)
        assert np.max(np.abs(g.f_plus - 1.0)) < 1e-12

    def test_factor_is_real_positive(self, theta_paths):
        pulse, path = theta_paths(1.0)
        e_plus, e_minus = path_eigenvalues(pulse, path)
        level = shifted_level(e_plus, hermitian_realizable(path), path)
        g = matched_gauge(level, e_minus, path.grid)
        assert np.max(np.abs(g.f_plus.imag)) == 0.0
        assert np.min(g.f_plus.real) > 0.0
        assert g.f_plus[0] == 1.0

    def test_unit_modulus_condition_holds_pointwise(self, theta_paths):
        # Im[E+ - i*(df+/f+) + delta*cos(theta)/2] == 0 with the synthesized
        # delta; df+/f+ is the matched gauge's integrand, Im[level]
        pulse, path = theta_paths(1.0)
        e_plus, e_minus = path_eigenvalues(pulse, path)
        level = shifted_level(e_plus, hermitian_realizable(path), path)
        g = matched_gauge(level, e_minus, path.grid)
        delta = 2 * hermitian_realizable(path)[0]
        cond = (e_plus - 1j * level.imag
                + 0.5 * delta * np.cos(path.theta)).imag
        assert np.max(np.abs(cond)) <= 1e-10
        # and f+ integrates that integrand: ln f+ is its running trapezoid
        integral = cumulative_trapezoid(level.imag, dx=path.grid.step,
                                        initial=0.0)
        assert np.max(np.abs(np.log(g.f_plus) - integral)) <= 1e-10

    def test_endpoint_matches_adaptive_quadrature(self):
        gamma = 1.0
        pulse = ae_pulse(gamma)
        grid = TimeGrid(-1.0, 1.0, 64000)
        path = mixing_angle_path(pulse, grid)
        e_plus, e_minus = path_eigenvalues(pulse, path)
        level = shifted_level(e_plus, hermitian_realizable(path), path)
        g = matched_gauge(level, e_minus, path.grid)

        ts = grid.samples
        theta_tab = path.theta

        def integrand(t):
            ref = complex(np.interp(t, ts, theta_tab.real),
                          np.interp(t, ts, theta_tab.imag))
            th = theta_at(pulse, t, ref)
            a = float(pulse.delta(t)) - 0.5j * gamma
            om = float(pulse.omega_r(t))
            dth = (om * float(pulse.d_delta(t))
                   - float(pulse.d_omega_r(t)) * a) / (a * a + om * om)
            z = -(gamma + 2j * float(pulse.delta(t))) ** 2 + 4 * om**2
            e_p = 0.25 * (-1j * gamma + np.sqrt(z))
            delta = dth.imag / np.sin(th).real
            return e_p.imag + 0.5 * delta * np.cos(th).imag

        exponent, err = quad(integrand, -1.0, 1.0, limit=400,
                             epsabs=1e-13, epsrel=1e-13)
        assert err < 1e-10
        rel = abs(g.f_plus[-1].real - np.exp(exponent)) / np.exp(exponent)
        assert rel <= 1e-8

    def test_removable_point_takes_the_neighbours_limit(self):
        # gamma > 2*omega0 makes theta(0) purely imaginary: Re[sin theta]
        # and Im[dtheta] vanish together there, but delta does not; the
        # isolated sample takes the four-point cubic of its neighbours
        pulse = ae_pulse(3.0)
        grid = TimeGrid(-1.0, 1.0, 4000)
        path = mixing_angle_path(pulse, grid)
        delta = matched_delta(path)
        k = grid.index_of(0.0)
        assert abs(np.sin(path.theta[k]).real) < 1e-9
        assert delta[k] == pytest.approx(
            (-delta[k - 2] + 4 * delta[k - 1] + 4 * delta[k + 1]
             - delta[k + 2]) / 6)
        assert delta[k] < -16.0

    @staticmethod
    def guarded_cubic(guarded, n=12):
        """The guarded ratio of the cubic r(t) = 2 - t + 3t^2 - 5t^3 on n
        samples of [0, 1], whose denominator vanishes at ``guarded``."""
        grid = TimeGrid(0.0, 1.0, n - 1)
        ts = grid.samples
        den = np.ones(n)
        den[list(guarded)] = 0.0
        num = (2 - ts + 3 * ts**2 - 5 * ts**3) * den
        path = MixingAnglePath(grid=grid, theta=np.zeros(n, dtype=complex),
                               dtheta=np.ones(n, dtype=complex))
        return ts, synthesis._guarded_ratio(path, num, den, SinThetaSingular,
                                            "{num} {t}")

    @pytest.mark.parametrize("k", [2, 5, 9])
    def test_isolated_removable_point_is_exact_for_a_cubic(self, k):
        ts, r = self.guarded_cubic([k])
        assert r[k] == pytest.approx(2 - ts[k] + 3 * ts[k]**2 - 5 * ts[k]**3,
                                     rel=1e-13, abs=1e-13)

    @pytest.mark.parametrize("guarded, linear", [
        ([1], [1]), ([10], [10]), ([5, 6], [5, 6]), ([4, 6], [4, 6]),
        ([0, 5], [0])],
        ids=["edge", "last-but-one", "pair", "two-apart", "edge-and-inner"])
    def test_removable_point_stays_linear_near_an_edge_or_a_guard(
            self, guarded, linear):
        # within two samples of an edge or of another guarded sample the
        # four-point rule lacks its neighbours: linear interpolation stays
        ts, r = self.guarded_cubic(guarded)
        free = [i for i in range(len(ts)) if i not in guarded]
        want = np.interp(ts[linear], ts[free], r[free])
        assert np.array_equal(r[linear], want)
        for k in set(guarded) - set(linear):
            assert r[k] == pytest.approx(
                (-r[k - 2] + 4 * r[k - 1] + 4 * r[k + 1] - r[k + 2]) / 6)

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e6])
    @pytest.mark.parametrize("split, error", DIAGONAL_SPLITS)
    def test_unguardable_singularity_raises(self, split, error, scale):
        grid = TimeGrid(0.0, 1.0, 4)
        theta = np.zeros(5, dtype=complex)  # sin theta = 0 everywhere
        # with a surviving numerator, however small or large the rate
        dtheta = np.full(5, 1j * scale, dtype=complex)
        path = MixingAnglePath(grid=grid, theta=theta, dtheta=dtheta)
        with pytest.raises(error):
            split(path)

    @pytest.mark.parametrize("im_dtheta, removable", [(1e-6, True),
                                                      (1e-4, False)])
    @pytest.mark.parametrize("split, error", DIAGONAL_SPLITS)
    def test_vanishing_numerator_is_measured_against_the_rate(
            self, split, error, im_dtheta, removable):
        # beside a rate of 1e4, Im[dtheta] = 1e-6 vanishes with sin theta
        # (below 1e-9 * 1e4) and the isolated point takes the four-point
        # cubic of its neighbours; 1e-4 survives and raises.  At samples 1
        # to 3 -i*dtheta = Im[dtheta] and sin theta is real, so both
        # policies' splits agree there
        grid = TimeGrid(0.0, 1.0, 4)
        theta = np.array([0.1, 0.2, 0.0, 0.2, 0.1], dtype=complex)
        dtheta = np.array([1e4, 0.5j, 1j * im_dtheta, 0.3j, 1e4])
        path = MixingAnglePath(grid=grid, theta=theta, dtheta=dtheta)
        if not removable:
            with pytest.raises(error, match=r"t=0\.5(:|$)"):
                split(path)
            return
        delta = split(path)
        assert delta[2] == pytest.approx(
            (-delta[0] + 4 * delta[1] + 4 * delta[3] - delta[4]) / 6)
        assert delta[1] == pytest.approx(0.5 / np.sin(0.2))

    def test_zero_drive_split_takes_the_ratio_where_both_are_tiny(self):
        # at tau = 0.01 and gamma = 3, |sin theta| and |dtheta| fall below
        # 1e-12 together on most of the quarter grid, and
        # -i*dtheta/sin(theta) tends to -+i/tau in the tails: the split
        # keeps that ratio, neither refusing the samples nor writing 0
        pulse = allen_eberly(omega0=1.0, delta0=9.0, tau=0.01, gamma=3.0)
        quarter = TimeGrid(-1.0, 1.0, 4000).refine(4)
        path = mixing_angle_path(pulse, quarter)
        delta = 2 * general_family_omega_zero(path)[0]
        tiny = np.abs(path.sin) < 1e-12
        assert np.count_nonzero(tiny) > 10000
        assert np.all(np.isfinite(delta))
        ratio = -1j * path.dtheta[tiny] / path.sin[tiny]
        assert np.max(np.abs(delta[tiny] - ratio)) <= 1e-10
        ts = quarter.samples
        for side, limit in ((ts < -0.5, -100j), (ts > 0.5, 100j)):
            assert np.max(np.abs(delta[side] - limit)) <= 1e-10


class TestRotation:
    def test_zero_angle_unit_gauge(self):
        fr = rotation(0.0, (1.0, 1.0))
        want = np.array([[1.0, 0.0], [0.0, -1.0]])
        assert np.max(np.abs(fr.r - want)) == 0.0
        assert np.max(np.abs(fr.r_tilde - want)) == 0.0

    def test_inverse_identity_for_random_inputs(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            th = complex(rng.uniform(-3, 3), rng.uniform(-1, 1))
            f = (np.exp(complex(rng.uniform(-0.5, 0.5), rng.uniform(-1, 1))),
                 np.exp(complex(rng.uniform(-0.5, 0.5), rng.uniform(-1, 1))))
            fr = rotation(th, f)
            assert fr.inverse_defect() <= 1e-12

    def test_non_unitary_but_invertible_at_complex_angle(self):
        th = np.pi / 2 - 1j * np.arctanh(0.15)
        fr = rotation(th, (1.0, 1.0))
        assert np.max(np.abs(fr.r.conj().T @ fr.r - np.eye(2))) > 1e-3
        assert fr.inverse_defect() <= 1e-12

    def test_vanishing_gauge_rejected(self):
        with pytest.raises(ZeroGauge):
            rotation(0.5, (0.0, 1.0))

    def test_vanishing_gauge_factor_rejected_at_construction(self):
        from nhsta.synthesis import GaugeFunctions
        grid = TimeGrid(0.0, 1.0, 2)
        ones = np.ones(3, dtype=complex)
        dead = ones.copy()
        dead[1] = 0.0
        with pytest.raises(ZeroGauge, match=r"^f_plus vanished at t=0\.5$"):
            GaugeFunctions(grid=grid, f_plus=dead, f_minus=ones)


class TestFrameMatrix:
    def test_static_pulse_has_no_coupling(self):
        pulse = PulseSpec(
            omega_r=lambda t: np.full_like(np.asarray(t, dtype=float), 1.3),
            delta=lambda t: np.full_like(np.asarray(t, dtype=float), 0.4),
            d_omega_r=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
            d_delta=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
            gamma=0.2,
        )
        grid = TimeGrid(0.0, 1.0, 100)
        path = mixing_angle_path(pulse, grid)
        e_plus, e_minus = path_eigenvalues(pulse, path)
        g = matched_gauge(e_plus, e_minus, grid)
        frame = adiabatic_frame_h0(pulse, path, g, (e_plus.imag, e_minus.imag),
                                   50)
        assert abs(frame[0, 1]) == 0.0
        assert abs(frame[1, 0]) == 0.0
        assert abs(frame[0, 0] - (e_plus[50] - 1j * e_plus[50].imag)) < 1e-14

    def test_coupling_antisymmetry_pattern_exact(self, theta_paths):
        pulse, path = theta_paths(1.0)
        e_plus, e_minus = path_eigenvalues(pulse, path)
        g = matched_gauge(e_plus, e_minus, path.grid)
        u = e_plus.imag, e_minus.imag
        for k in (100, 2000, 3900):
            frame = adiabatic_frame_h0(pulse, path, g, u, k)
            ratio = (g.f_plus[k] / g.f_minus[k]) ** 2
            assert abs(frame[1, 0] + frame[0, 1] * ratio) < 1e-12

    @pytest.mark.parametrize("gamma", [0.3, 3.0])
    def test_index_array_gives_the_single_index_matrices(self, theta_paths,
                                                         gamma):
        # the oracle pairs E_+ with |+> sample by sample either way
        pulse, path = theta_paths(gamma)
        e_plus, e_minus = path_eigenvalues(pulse, path)
        g = matched_gauge(e_plus, e_minus, path.grid)
        u = e_plus.imag, e_minus.imag
        ks = np.array([0, 1, 1999, 2000, 2001, 3999, 4000])
        frames = adiabatic_frame_h0(pulse, path, g, u, ks)
        assert frames.shape == (len(ks), 2, 2)
        for frame, k in zip(frames, ks):
            want = adiabatic_frame_h0(pulse, path, g, u, int(k))
            assert np.max(np.abs(frame - want)) <= 1e-15
        assert np.max(np.abs(frames[:, 0, 0] - e_plus[ks] + 1j * u[0][ks])
                      ) <= 1e-12

    def test_matches_generic_frame_on_scaled_eigenvector_path(self, theta_paths):
        # generic finite-difference frame on the f_n-scaled vectors agrees
        # with the closed-form matrix
        gamma = 1.0
        pulse = ae_pulse(gamma)
        grid = TimeGrid(-1.0, 1.0, 64000)
        path = mixing_angle_path(pulse, grid)
        e_plus, e_minus = path_eigenvalues(pulse, path)
        g = matched_gauge(e_plus, e_minus, grid)
        gpath = EigenPath.from_systems(
            grid, analytic_two_level_systems(path, e_plus, e_minus, gauge=g))
        worst = 0.0
        u = e_plus.imag, e_minus.imag
        for k in (16000, 32000, 48000):
            got = adiabatic_frame_generic(gpath, k)
            want = adiabatic_frame_h0(pulse, path, g, u, k)
            worst = max(worst, np.max(np.abs(got - want)))
        assert worst < 1e-6

    def test_adiabatic_prediction_reproduced_by_frame_propagation(self):
        # slow strong pulse: couplings under 1% of the diagonal gap, so the
        # decoupled exponential solution should track |g+| to within 2%
        pulse = ae_pulse(gamma=0.1, omega0=50.0)
        grid = TimeGrid(-1.0, 1.0, 8000)
        path = mixing_angle_path(pulse, grid)
        e_plus, e_minus = path_eigenvalues(pulse, path)
        g = matched_gauge(e_plus, e_minus, grid)

        u = e_plus.imag, e_minus.imag  # the simple gauge's integrands
        coupling = np.abs(0.5 * path.dtheta * g.f_minus / g.f_plus)
        gap = np.abs(e_plus - 1j * u[0])
        assert np.max(coupling / gap) < 0.01

        frames = adiabatic_frame_h0(pulse, path, g, u,
                                    np.arange(grid.n_points))
        ts = grid.samples

        def h_frame(t):
            j = grid.index_of(t)
            if j is not None:
                return frames[j]
            lo = int(np.floor((t - grid.t0) / grid.step))
            lo = min(max(lo, 0), grid.steps - 1)
            w = (t - ts[lo]) / grid.step
            return (1 - w) * frames[lo] + w * frames[lo + 1]

        traj = integrate(h_frame, np.array([1.0, 0.0], dtype=complex), grid)
        exponent = cumulative_trapezoid(e_plus - 1j * u[0],
                                        dx=grid.step, initial=0.0)
        predicted = np.abs(np.exp(-1j * exponent))
        assert np.max(np.abs(np.abs(traj.psi[:, 0]) - predicted)) < 0.02

