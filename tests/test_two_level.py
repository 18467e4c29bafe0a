"""Two-level model: Hamiltonian, radicand branches, mixing angle, pulse."""
import cmath
import math

import numpy as np
import pytest

from conftest import OMEGA0, ae_pulse, path_eigenvalues, with_controls
from nhsta.biorthogonal import decompose
from nhsta.errors import BranchJump, DegenerateRegime, NonFinite, TanPole
from nhsta.experiments import POLICIES, run_shortcut, shortcut_tables
from nhsta.grids import TimeGrid
from nhsta.two_level import (SUB_CRITICAL, SUPER_CRITICAL, MixingAnglePath,
                             PulseSpec, _controls, allen_eberly,
                             angle_rate_defect, classify_regime,
                             complex_array, hamiltonian_entries,
                             mixing_angle_path, mixing_angle_rate, radicand,
                             sample_controls, theta_at)
from oracles import (angle_functions_mp, branch_sqrt, eigenvalues,
                     eigenvectors, entry_matrices, hamiltonian)

#: the trigonometric functions of theta a path carries, each with the cached
#: value it is read from: the half angle's two are evaluated together
TRIG_FIELDS = {"cos_half": "_half", "sin_half": "_half", "sin": "sin",
               "cos": "cos"}


def constant_pulse(omega, delta, gamma):
    return PulseSpec(
        omega_r=lambda t: np.full_like(np.asarray(t, dtype=float), omega),
        delta=lambda t: np.full_like(np.asarray(t, dtype=float), delta),
        d_omega_r=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        d_delta=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        gamma=gamma,
    )


def eigenvalues_at(pulse, t):
    """(E_+, E_-) of :func:`eigenvalue_path` at its first sample, t."""
    path = mixing_angle_path(pulse, TimeGrid(t, t + 1.0, 2))
    e_plus, e_minus = path_eigenvalues(pulse, path)
    return e_plus[0], e_minus[0]


#: (gamma, t0, t_f) of the accuracy checks against mpmath: the default
#: window across both regimes, the exceptional point's neighbourhood, and a
#: window that starts in the cotangent lane (|Omega_R| > |a| at t0 = 0)
ACCURACY_WINDOWS = ([(g, -1.0, 1.0) for g in (0.0, 0.1, 0.3, 1.0, 3.0, 10.0)]
                    + [(g, -0.01, 0.01) for g in (1.99, 2.05)]
                    + [(0.3, 0.0, 1.0)])


def max_scaled_error(got, want):
    """max |got - want| / max(1, |want|)."""
    return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))


def assert_accurate(name, got, want):
    """Within 4e-15*max(1, |x|) of the extended-precision value x: a few
    units in the last place of float64."""
    err = max_scaled_error(got, want)
    assert err <= 4e-15, f"{name}: {err:.2e}"


def two_lane_principal_theta(omega, a):
    """The complex-arctangent formula the real one replaced: both lanes
    evaluated everywhere, one kept."""
    omega = np.asarray(omega, dtype=complex)
    a = np.asarray(a, dtype=complex)
    use_cot = np.abs(a) < np.abs(omega)
    safe_a = np.where(use_cot, 1.0, a)
    safe_om = np.where(use_cot, omega, 1.0)
    direct = np.arctan(-omega / safe_a)
    cot = 0.5 * np.pi - np.arctan(-a / safe_om)
    return np.where(use_cot, cot, direct)


class TestHamiltonian:
    def test_all_controls_zero_gives_zero_matrix(self):
        h = hamiltonian(constant_pulse(0.0, 0.0, 0.0), 0.3)
        assert np.all(h == 0)

    def test_chirped_pulse_center_matrix(self):
        pulse = ae_pulse(gamma=1.0)
        h = hamiltonian(pulse, 0.0)
        expected = 0.5 * np.array([[0.0, 1.0], [1.0, -1.0j]])
        assert np.max(np.abs(h - expected)) < 1e-15

    def test_non_finite_control_rejected(self):
        import math
        bad = with_controls(constant_pulse(0.0, 0.0, 0.0),
                            omega_r=lambda t: math.nan)
        with pytest.raises(NonFinite):
            hamiltonian(bad, 0.0)

    def test_sign_flipped_decay_is_the_adjoint(self):
        # a gain, gamma < 0, is no pulse's decay rate: the entries are
        # formed from the controls directly
        loss, gain = (entry_matrices(hamiltonian_entries((0.7, -1.2, gm)))
                      for gm in (0.4, -0.4))
        assert np.max(np.abs(gain - loss.conj().T)) == 0.0


class TestRadicand:
    def test_lossless_resonant_value(self):
        z = radicand(constant_pulse(1.5, 0.0, 0.0), 0.0)
        assert z == pytest.approx(4 * 1.5**2)

    def test_chirp_center_value(self):
        pulse = ae_pulse(gamma=0.3)
        z = radicand(pulse, 0.0)
        assert z == pytest.approx(-0.3**2 + 4.0, abs=1e-14)  # 3.91
        assert z.imag == 0.0

    def test_subcritical_keeps_positive_real_part(self):
        pulse = ae_pulse(gamma=0.3)
        z = radicand(pulse, TimeGrid(-1.0, 1.0, 2000).samples)
        assert np.min(z.real) > 0.0


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("read", [
        lambda p, g: radicand(p, g.samples),
        lambda p, g: mixing_angle_path(p, g),
    ], ids=["radicand", "mixing_angle_path"])
    def test_overflow_named_by_every_reader(self, read):
        # (gamma + 2i*Delta)^2 overflows once Delta exceeds about 6.7e153
        pulse = ae_pulse(gamma=0.3)
        huge = with_controls(pulse, delta=lambda t: np.where(
            np.asarray(t) > 0.5, 1e160, pulse.delta(t)))
        with pytest.raises(NonFinite, match=r"^radicand not finite at t=0\.51$"):
            read(huge, TimeGrid(-1.0, 1.0, 200))


class TestControlSampling:
    @pytest.mark.parametrize("read", [
        lambda p, g: hamiltonian_entries(sample_controls(p, g)[1:]),
        lambda p, g: radicand(p, g.samples),
        lambda p, g: mixing_angle_path(p, g),
    ], ids=["hamiltonian_entries", "radicand", "mixing_angle_path"])
    def test_non_finite_control_named_by_every_reader(self, read):
        pulse = ae_pulse(gamma=0.3)
        bad = with_controls(pulse, omega_r=lambda t: np.where(
            np.asarray(t) > 0.5, np.nan, pulse.omega_r(t)))
        with pytest.raises(NonFinite, match=r"value not finite at t=0\.51$"):
            read(bad, TimeGrid(-1.0, 1.0, 200))

    @staticmethod
    def nan_rate_pulse(name):
        pulse = ae_pulse(gamma=0.3)
        rate = getattr(pulse, name)
        return with_controls(pulse, **{name: lambda t: np.where(
            np.asarray(t) > 0.5, np.nan, rate(t))})

    @pytest.mark.parametrize("name", ["d_omega_r", "d_delta"])
    @pytest.mark.parametrize("read", [
        lambda p, g: mixing_angle_rate(p, g.samples,
                                       _controls(p, g.samples)),
        lambda p, g: mixing_angle_path(p, g),
    ], ids=["mixing_angle_rate", "mixing_angle_path"])
    def test_non_finite_rate_named_by_every_reader(self, read, name):
        with pytest.raises(NonFinite, match=r"rate not finite at t=0\.51$"):
            read(self.nan_rate_pulse(name), TimeGrid(-1.0, 1.0, 200))

    @pytest.mark.parametrize("policy", POLICIES)
    def test_non_finite_rate_stops_every_policy(self, policy):
        # the first bad sample of the run's quarter-step grid is named; before,
        # two policies raised a bare ValueError from the supplement and
        # naive-cd a NonFinite blaming the state near t=0.51
        grid = TimeGrid(-1.0, 1.0, 200)
        with pytest.raises(NonFinite, match=r"rate not finite at t=0\.5025$"):
            run_shortcut(self.nan_rate_pulse("d_omega_r"), grid, policy)


class TestRegime:
    def test_subcritical_classification_and_cut(self):
        regime = classify_regime(OMEGA0, 0.3)
        assert regime == SUB_CRITICAL

    def test_supercritical_classification_and_cut(self):
        regime = classify_regime(OMEGA0, 3.0)
        assert regime == SUPER_CRITICAL

    def test_critical_line_rejected(self):
        with pytest.raises(DegenerateRegime):
            classify_regime(OMEGA0, 2.0 * OMEGA0)

    @pytest.mark.parametrize("omega0, gamma", [
        (math.nan, 0.3), (math.inf, 0.3), (OMEGA0, math.nan),
        (OMEGA0, math.inf)])
    def test_non_finite_inputs_rejected(self, omega0, gamma):
        # NaN fails every comparison and inf passes the sign checks, so
        # either would otherwise pick a regime
        with pytest.raises(ValueError, match="need finite omega0 and gamma"):
            classify_regime(omega0, gamma)

    @pytest.mark.parametrize("omega0, gamma, message", [
        (0.0, 0.3, "omega0 must be positive"),
        (1.0, -0.1, "gamma must be non-negative")])
    def test_out_of_range_inputs_rejected(self, omega0, gamma, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            classify_regime(omega0, gamma)

    def test_branch_sqrt_obeys_each_cut(self):
        z = -5.0 + 0.0j
        assert branch_sqrt(z, SUB_CRITICAL) == pytest.approx(
            1j * np.sqrt(5.0))
        assert branch_sqrt(z, SUPER_CRITICAL) == pytest.approx(
            1j * np.sqrt(5.0))
        z_below = -5.0 - 1e-9j
        # below the negative real axis the two conventions part ways
        sub = branch_sqrt(z_below, SUB_CRITICAL)
        sup = branch_sqrt(z_below, SUPER_CRITICAL)
        assert sub.imag < 0
        assert sup.imag > 0


class TestEigenvalues:
    def test_lossless_resonant_pair(self):
        e_plus, e_minus = eigenvalues_at(constant_pulse(2.0, 0.0, 0.0), 0.0)
        assert e_plus == pytest.approx(1.0)
        assert e_minus == pytest.approx(-1.0)

    def test_chirp_center_values(self):
        pulse = ae_pulse(gamma=0.3)
        e_plus, e_minus = eigenvalues_at(pulse, 0.0)
        expected = 0.25 * cmath.sqrt(3.91)  # = 0.494343
        assert abs(e_plus - (expected - 0.075j)) < 1e-12
        assert abs(e_minus - (-expected - 0.075j)) < 1e-12

    def test_trace_sum_rule_is_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            om, dl, gm = rng.uniform(0.1, 3), rng.uniform(-3, 3), rng.uniform(0, 1.9)
            pulse = constant_pulse(om, dl, gm)
            e_plus, e_minus = eigenvalues_at(pulse, 0.0)
            assert abs((e_plus + e_minus) - (-0.5j * gm)) < 1e-14

    def test_path_continuity_supercritical(self):
        pulse = ae_pulse(gamma=3.0)
        grid = TimeGrid(-1.0, 1.0, 4000)
        e_plus, e_minus = path_eigenvalues(pulse,
                                           mixing_angle_path(pulse, grid))
        assert np.max(np.abs(np.diff(e_plus))) < 0.05
        assert np.max(np.abs(np.diff(e_minus))) < 0.05


class TestMixingAngle:
    def test_resonant_lossless_angle_is_quarter_turn(self):
        path = mixing_angle_path(constant_pulse(2.0, 0.0, 0.0),
                                 TimeGrid(0.0, 1.0, 10))
        assert np.max(np.abs(path.theta - np.pi / 2)) == 0.0

    def test_center_angle_subcritical(self, theta_paths):
        _, path = theta_paths(0.3)
        k = path.grid.index_of(0.0)
        expected = np.pi / 2 - 1j * np.arctanh(0.3 / (2 * OMEGA0))  # 0.151140
        assert abs(path.theta[k] - expected) < 1e-9

    def test_sweep_endpoints_near_zero_and_pi(self, theta_paths):
        _, path = theta_paths(0.3)
        assert abs(path.theta[0].real) <= 0.15
        assert abs(path.theta[-1].real - np.pi) <= 0.15

    def test_lossless_angle_stays_real(self, theta_paths):
        _, path = theta_paths(0.0)
        assert np.max(np.abs(path.theta.imag)) <= 1e-12

    def test_adjacent_variation_small_on_fine_grids(self, theta_paths):
        for gamma in (0.3, 1.0, 3.0):
            _, path = theta_paths(gamma, steps=2000)
            assert np.max(np.abs(np.diff(path.theta))) < 0.1

    def test_tangent_relation_holds_pointwise(self, theta_paths):
        pulse, path = theta_paths(1.0)
        ts = path.grid.samples
        a = pulse.delta(ts) - 0.5j * pulse.gamma
        target = -pulse.omega_r(ts) / a
        rel = np.abs(np.tan(path.theta) - target) / np.abs(target)
        assert np.max(rel) < 1e-10

    def test_analytic_rate_matches_differenced_samples(self, theta_paths):
        _, path = theta_paths(1.0)
        h = path.grid.step
        fd = (path.theta[2:] - path.theta[:-2]) / (2 * h)
        assert np.max(np.abs(fd - path.dtheta[1:-1])) < 5e-4

    def test_path_must_fill_its_grid(self):
        grid = TimeGrid(0.0, 1.0, 10)
        with pytest.raises(ValueError,
                           match="^theta/dtheta length must match grid$"):
            MixingAnglePath(grid, np.zeros(11, dtype=complex),
                            np.zeros(10, dtype=complex))

    def test_exceptional_point_raises_tan_pole(self):
        with pytest.raises(TanPole):
            mixing_angle_path(constant_pulse(1.0, 0.0, 2.0),
                              TimeGrid(0.0, 1.0, 10))

    @pytest.mark.parametrize("gamma", [0.0, 0.3, 3.0])
    def test_branch_tracking_equals_sample_by_sample_loop(self, gamma):
        from nhsta.two_level import _factors, _principal_theta
        pulse = ae_pulse(gamma)
        grid = TimeGrid(-1.0, 1.0, 16000)
        ts = grid.samples
        om, dl, gm = pulse.omega_r(ts), pulse.delta(ts), pulse.gamma
        x, y = _principal_theta(om, dl, gm, _factors(ts, om, dl, gm))
        principal = x + 1j * y
        want = np.empty_like(principal)
        want[0] = principal[0]
        for k in range(1, len(ts)):
            want[k] = principal[k] + np.pi * np.round(
                (want[k - 1] - principal[k]).real / np.pi)
        got = mixing_angle_path(pulse, grid).theta
        assert np.array_equal(got.view(float), want.view(float))

    @pytest.mark.parametrize("gamma, t0, t_f", ACCURACY_WINDOWS)
    def test_angle_and_rate_match_mpmath(self, gamma, t0, t_f):
        pulse = ae_pulse(gamma)
        path = mixing_angle_path(pulse, TimeGrid(t0, t_f, 200))
        ts = path.grid.samples
        ref = angle_functions_mp(pulse, ts, path.theta)
        for name, got in (("theta", path.theta), ("dtheta", path.dtheta)):
            assert_accurate(name, got, ref[name])
        at = [theta_at(pulse, t, th) for t, th in zip(ts[::20], path.theta[::20])]
        assert_accurate("theta_at", np.array(at), ref["theta"][::20])
        # the complex two-lane arctangent this replaced, for comparison
        a = pulse.delta(ts) - 0.5j * pulse.gamma
        old = two_lane_principal_theta(pulse.omega_r(ts), a)
        old += np.pi * np.round((path.theta - old).real / np.pi)
        print(f"  [diagnostic] gamma={gamma:g} t0={t0:g}: theta error "
              f"{max_scaled_error(path.theta, ref['theta']):.1e}, complex "
              f"arctangent {max_scaled_error(old, ref['theta']):.1e}")

    @pytest.mark.parametrize("delta, gamma", [(1.0, 0.0), (-1.0, 0.0),
                                              (0.3, 3.0), (-2.0, 1.0)])
    def test_angle_on_the_lane_boundary_matches_mpmath(self, delta, gamma):
        # |Omega_R| = |a| puts tan(theta) on the unit circle, where the
        # arctangent lane and the cotangent lane meet
        pulse = constant_pulse(float(np.hypot(delta, 0.5 * gamma)), delta,
                               gamma)
        path = mixing_angle_path(pulse, TimeGrid(0.0, 1.0, 2))
        ref = angle_functions_mp(pulse, path.grid.samples, path.theta)
        for name in ("theta", "dtheta", "sin", "cos"):
            assert_accurate(name, getattr(path, name), ref[name])

    @pytest.mark.parametrize("gamma, t0, t_f", ACCURACY_WINDOWS)
    def test_path_trig_matches_mpmath(self, gamma, t0, t_f):
        pulse = ae_pulse(gamma)
        path = mixing_angle_path(pulse, TimeGrid(t0, t_f, 200))
        ref = angle_functions_mp(pulse, path.grid.samples, path.theta)
        cached = list(TRIG_FIELDS.values())
        assert not set(cached) & set(vars(path))
        for k, name in enumerate(TRIG_FIELDS):
            value = getattr(path, name)
            # only the fields read so far have been evaluated, once each
            assert set(cached) & set(vars(path)) == set(cached[:k + 1])
            assert getattr(path, name) is value
            assert_accurate(name, value, ref[name])

    def test_half_angle_functions_share_one_evaluation(self, monkeypatch):
        path = mixing_angle_path(ae_pulse(3.0),
                                 TimeGrid(-1.0, 1.0, 400))
        x, y = 0.5 * path.theta.real, 0.5 * path.theta.imag
        # each function evaluated on its own, as sin(theta/2) and
        # cos(theta/2) are written part by part
        want_cos = complex_array(np.cos(x) * np.cosh(y),
                                 -(np.sin(x) * np.sinh(y)))
        want_sin = complex_array(np.sin(x) * np.cosh(y),
                                 np.cos(x) * np.sinh(y))
        calls = dict.fromkeys(("sin", "cos", "sinh", "cosh"), 0)
        for name in calls:
            def counted(*args, _fn=getattr(np, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np, name, counted)
        cos_half, sin_half = path.cos_half, path.sin_half
        assert calls == {"sin": 1, "cos": 1, "sinh": 1, "cosh": 1}
        monkeypatch.undo()
        assert np.array_equal(cos_half, want_cos)
        assert np.array_equal(sin_half, want_sin)

    def test_coarse_grid_near_critical_decay_raises_branch_jump(self):
        pulse = ae_pulse(gamma=1.99)
        with pytest.raises(BranchJump):
            mixing_angle_path(pulse, TimeGrid(-1.0, 1.0, 4))


class TestAngleRateDefect:
    """The angle-rate check: a 6th-order central difference of the tracked
    theta against its rate dtheta, relative to max|dtheta|."""

    @staticmethod
    def smooth_path(n):
        grid = TimeGrid(0.0, 1.0, n)
        t = grid.samples
        return MixingAnglePath(grid, np.sin(3 * t) + 0.3j * np.cos(2 * t),
                               3 * np.cos(3 * t) - 0.6j * np.sin(2 * t))

    def test_stencil_is_sixth_order(self):
        coarse, fine = (angle_rate_defect(self.smooth_path(n))
                        for n in (50, 100))
        assert abs(np.log2(coarse / fine) - 6.0) <= 0.1
        # a rate that vanishes identically reads the absolute defect, 0
        frozen = MixingAnglePath(TimeGrid(0.0, 1.0, 10), np.full(11, 0.5j),
                                 np.zeros(11, dtype=complex))
        assert angle_rate_defect(frozen) == 0.0

    def test_quarter_grid_defect_converges_at_sixth_order(self):
        # near critical decay the crossing needs many samples; from 1000
        # run steps on, the defect falls 64x per doubling
        pulse = ae_pulse(1.9)
        defects = [angle_rate_defect(mixing_angle_path(
            pulse, TimeGrid(-1.0, 1.0, 4 * steps)))
            for steps in (1000, 2000, 4000)]
        orders = np.log2(np.array(defects[:-1]) / defects[1:])
        assert np.all(np.abs(orders - 6.0) <= 0.2)

    @pytest.mark.parametrize("gamma", [0.1, 1.0, 3.0])
    def test_scaled_rate_fails_the_check(self, gamma):
        # dtheta off by a factor 1 + 1e-6 reads about 1e-6 against the
        # verify bound 1e-8; the tracked rate reads round-off
        path = mixing_angle_path(ae_pulse(gamma),
                                 TimeGrid(-1.0, 1.0, 16000))
        assert angle_rate_defect(path) <= 1e-12
        scaled = MixingAnglePath(path.grid, path.theta,
                                 path.dtheta * (1.0 + 1e-6))
        assert 0.5e-6 <= angle_rate_defect(scaled) <= 2e-6

    def test_every_table_keeps_the_quarter_grid_defect(self):
        pulse, grid = ae_pulse(1.0), TimeGrid(-1.0, 1.0, 400)
        want = angle_rate_defect(mixing_angle_path(pulse, grid.refine(4)))
        assert [table.angle_rate for table in shortcut_tables(pulse, grid)
                ] == [want] * len(POLICIES)


class TestEigenvectors:
    def test_angle_zero_is_bare_basis(self):
        (plus, minus), _ = eigenvectors(0.0)
        assert np.allclose(plus, [1.0, 0.0])
        assert np.allclose(minus, [0.0, -1.0])

    def test_angle_pi_swaps_population(self):
        (plus, _), _ = eigenvectors(np.pi)
        assert np.max(np.abs(plus - np.array([0.0, 1.0]))) < 1e-15

    def test_biorthonormal_for_any_complex_angle(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            th = complex(rng.uniform(-3, 3), rng.uniform(-1, 1))
            (plus, minus), (plus_t, minus_t) = eigenvectors(th)
            assert abs(plus_t.conj() @ plus - 1.0) < 1e-12
            assert abs(minus_t.conj() @ minus - 1.0) < 1e-12
            assert abs(plus_t.conj() @ minus) < 1e-12
            assert abs(minus_t.conj() @ plus) < 1e-12


class TestEigenConsistency:
    def test_closed_form_pair_diagonalizes_the_matrix(self):
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 500:
            om = rng.uniform(0.05, 3.0)
            dl = rng.uniform(-3.0, 3.0)
            gm = rng.uniform(0.0, 3.0)
            a = dl - 0.5j * gm
            if abs(a * a + om * om) < 1e-3:
                continue
            checked += 1
            pulse = constant_pulse(om, dl, gm)
            path = mixing_angle_path(pulse, TimeGrid(0.0, 1.0, 2))
            th = path.theta[0]
            (plus, minus), _ = eigenvectors(th)
            h = hamiltonian(pulse, 0.0)
            # eigenvalue paired with the tracked angle branch
            w = -a * np.cos(th) + om * np.sin(th)
            e_plus = -0.25j * gm + 0.5 * w
            e_minus = -0.25j * gm - 0.5 * w
            assert np.max(np.abs(h @ plus - e_plus * plus)) < 1e-10
            assert np.max(np.abs(h @ minus - e_minus * minus)) < 1e-10
            # and the pair coincides with the branch-cut eigenvalue formula
            ep, em = eigenvalues(pulse, 0.0, SUB_CRITICAL)
            assert min(abs(e_plus - ep), abs(e_plus - em)) < 1e-10

    def test_matches_generic_decomposition(self, theta_paths):
        pulse, path = theta_paths(1.0)
        ep, em = path_eigenvalues(pulse, path)
        for k in range(0, path.grid.n_points, 500):
            sys_ = decompose(hamiltonian(pulse, path.grid.samples[k]))
            got = sorted(sys_.eigenvalues, key=lambda z: z.real)
            want = sorted([ep[k], em[k]], key=lambda z: z.real)
            assert max(abs(g - w) for g, w in zip(got, want)) < 1e-10

    def test_angle_branch_pairs_with_plus_eigenvalue_everywhere(self, theta_paths):
        for gamma in (0.3, 3.0):
            pulse, path = theta_paths(gamma)
            ep, _ = path_eigenvalues(pulse, path)
            ts = path.grid.samples
            worst = 0.0
            for k in range(0, len(ts), 100):
                (plus, _), _ = eigenvectors(path.theta[k])
                h = hamiltonian(pulse, ts[k])
                worst = max(worst, np.max(np.abs(h @ plus - ep[k] * plus)))
            assert worst < 1e-10

    @pytest.mark.parametrize("gamma", [0.0, 0.1, 0.3, 1.0, 1.9, 2.05, 2.1,
                                       3.0, 10.0, 30.0])
    def test_angle_eigenvalues_equal_the_cut_roots_on_the_default_window(
            self, gamma):
        # on [-1, 1] the tracked angle and the regime's cut of sqrt(Z) pick
        # the same root, so reading E_+- off theta moves them by round-off
        pulse = ae_pulse(gamma)
        grid = TimeGrid(-1.0, 1.0, 4000)
        ep, em = path_eigenvalues(pulse, mixing_angle_path(pulse, grid))
        want_p, want_m = eigenvalues(pulse, grid.samples,
                                     classify_regime(OMEGA0, gamma))
        gap = np.abs(want_p - want_m)
        assert np.max(np.abs(ep - want_p) / gap) <= 1e-14
        assert np.max(np.abs(em - want_m) / gap) <= 1e-14

    @pytest.mark.parametrize("t0", [0.2, 0.5])
    @pytest.mark.parametrize("gamma", [0.1, 0.3, 1.0, 1.9, 3.0])
    def test_angle_eigenvalues_belong_to_its_vectors_after_the_crossing(
            self, gamma, t0):
        # a window that starts at Delta > 0 anchors theta near 0: |+> is
        # the bare ground state and E_+ the root near -Delta/2, which the
        # sub-critical cut of sqrt(Z) would call E_-
        pulse = ae_pulse(gamma)
        grid = TimeGrid(t0, 1.0, 400)
        path = mixing_angle_path(pulse, grid)
        ep, em = path_eigenvalues(pulse, path)
        worst = 0.0
        for k, t in enumerate(grid.samples):
            (plus, minus), _ = eigenvectors(path.theta[k])
            h = hamiltonian(pulse, t)
            worst = max(worst, np.max(np.abs(h @ plus - ep[k] * plus)),
                        np.max(np.abs(h @ minus - em[k] * minus)))
        assert worst <= 1e-12
        if gamma < 2.0:
            cut_p, cut_m = eigenvalues(pulse, grid.samples,
                                       SUB_CRITICAL)
            assert np.max(np.abs(ep - cut_m)) <= 1e-12
            assert np.max(np.abs(em - cut_p)) <= 1e-12


class TestAllenEberly:
    def test_center_values(self):
        pulse = ae_pulse(gamma=0.0)
        assert pulse.omega_r(0.0) == pytest.approx(OMEGA0)
        assert pulse.delta(0.0) == pytest.approx(0.0)
        assert pulse.d_omega_r(0.0) == pytest.approx(0.0)

    def test_chirp_value_one_duration_out(self):
        pulse = ae_pulse(gamma=0.0)
        assert pulse.delta(1.0) == pytest.approx(9.0 * np.tanh(1.0))

    def test_analytic_derivatives_match_finite_differences(self):
        pulse = ae_pulse(gamma=0.7)
        ts = np.linspace(-0.9, 0.9, 17)
        h = 1e-6
        for fn, dfn in ((pulse.omega_r, pulse.d_omega_r),
                        (pulse.delta, pulse.d_delta)):
            fd = (fn(ts + h) - fn(ts - h)) / (2 * h)
            assert np.max(np.abs(fd - dfn(ts))) < 1e-6

    def test_critical_decay_rejected_at_construction(self):
        with pytest.raises(DegenerateRegime):
            ae_pulse(gamma=2.0 * OMEGA0)
        # the pulse refuses the critical line with classify_regime's words
        with pytest.raises(DegenerateRegime) as pulse:
            allen_eberly(1.0, 9.0, 1.0, 2.0)
        with pytest.raises(DegenerateRegime) as regime:
            classify_regime(1.0, 2.0)
        assert str(pulse.value) == str(regime.value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["omega0", "delta0", "tau", "gamma"])
    def test_non_finite_parameter_rejected_at_construction(self, name, value):
        # the window is the run grid's, checked by TimeGrid
        kwargs = dict(omega0=1.0, delta0=9.0, tau=1.0, gamma=0.3)
        kwargs[name] = value
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            allen_eberly(**kwargs)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(omega0=0.0), "omega0 must be positive"),
        (dict(omega0=-1.0), "omega0 must be positive"),
        (dict(tau=0.0), "tau must be positive"),
        (dict(gamma=-0.3), "gamma must be non-negative")])
    def test_out_of_range_parameter_rejected_at_construction(self, kwargs,
                                                             message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            allen_eberly(**{**dict(omega0=1.0, delta0=9.0), **kwargs})


class TestPulseSpec:
    @pytest.mark.parametrize("gamma, message", [
        (math.nan, "gamma must be finite, got nan"),
        (math.inf, "gamma must be finite, got inf"),
        (-math.inf, "gamma must be finite, got -inf"),
        (-0.3, "gamma must be non-negative"),
        (-1e-300, "gamma must be non-negative")])
    def test_bad_decay_rate_refused_at_construction(self, gamma, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            constant_pulse(1.0, 0.0, gamma)

    @pytest.mark.parametrize("gamma", [0, -0.0, 0.3, np.float64(2.5)])
    def test_decay_rate_is_kept_as_a_float(self, gamma):
        pulse = constant_pulse(1.0, 0.0, gamma)
        assert type(pulse.gamma) is float
        assert pulse.gamma == gamma


def identity_records():
    """Names "module.Class" of every plain class the package defines, its
    slotted records among them."""
    import importlib
    import pkgutil

    import nhsta
    names = []
    for info in pkgutil.iter_modules(nhsta.__path__):
        module = importlib.import_module(f"nhsta.{info.name}")
        names += [f"{info.name}.{name}" for name, value in vars(module).items()
                  if isinstance(value, type) and value.__bases__ == (object,)
                  and value.__module__ == module.__name__]
    return names


class TestRecordIdentity:
    """Records holding arrays compare and hash by identity: a field-wise
    ``==`` would ask numpy for the truth value of an array."""

    def test_equal_paths_hash_and_compare(self):
        pulse = ae_pulse(gamma=1.0)
        grid = TimeGrid(-1.0, 1.0, 200)
        a, b = mixing_angle_path(pulse, grid), mixing_angle_path(pulse, grid)
        assert np.array_equal(a.theta, b.theta)
        assert a == a
        assert a != b
        assert hash(a) == hash(a)
        assert len({a, b, a}) == 2
        assert a in {a}
        assert b not in {a}

    def test_every_record_is_listed(self):
        # the list below is read off the package: a slotted record is in it
        # wherever it lives, TimeGrid too
        names = {name.rpartition(".")[2] for name in identity_records()}
        assert {"MixingAnglePath", "ShortcutTable",
                "ShortcutRun", "PrefixScan", "PulseSpec",
                "BiorthogonalSystem", "ExperimentConfig", "TimeGrid"} <= names

    @pytest.mark.parametrize("name", identity_records())
    def test_array_records_use_identity(self, name):
        import importlib
        module, _, cls = name.rpartition(".")
        record = getattr(importlib.import_module(f"nhsta.{module}"), cls)
        assert record.__eq__ is object.__eq__
        assert record.__hash__ is object.__hash__
