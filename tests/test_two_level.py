"""Two-level model: Hamiltonian, radicand branches, mixing angle, pulse."""
import cmath
import math

import numpy as np
import pytest

from conftest import OMEGA0, ae_params
from nhsta.biorthogonal import decompose
from nhsta.errors import BranchJump, DegenerateRegime, NonFinite, TanPole
from nhsta.grids import TimeGrid
from nhsta.two_level import (TRIG_FIELDS, AllenEberlyParams, BranchRegime,
                             PulseSpec,
                             allen_eberly, branch_sqrt, classify_regime,
                             eigenvalue_path, eigenvalues, hamiltonian,
                             mixing_angle_path, radicand)
from oracles import eigenvectors


def constant_pulse(omega, delta, gamma):
    return PulseSpec(
        omega_r=lambda t: np.full_like(np.asarray(t, dtype=float), omega),
        delta=lambda t: np.full_like(np.asarray(t, dtype=float), delta),
        gamma=lambda t: np.full_like(np.asarray(t, dtype=float), gamma),
        d_omega_r=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        d_delta=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        d_gamma=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
    )


def two_lane_principal_theta(omega, a):
    """Reference: both arctangent lanes evaluated everywhere, one kept."""
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
        pulse = allen_eberly(ae_params(gamma=1.0))
        h = hamiltonian(pulse, 0.0)
        expected = 0.5 * np.array([[0.0, 1.0], [1.0, -1.0j]])
        assert np.max(np.abs(h - expected)) < 1e-15

    def test_non_finite_control_rejected(self):
        import math
        bad = PulseSpec(
            omega_r=lambda t: math.nan, delta=lambda t: 0.0,
            gamma=lambda t: 0.0)
        with pytest.raises(NonFinite):
            hamiltonian(bad, 0.0)

    def test_sign_flipped_decay_is_the_adjoint(self):
        p_loss = constant_pulse(0.7, -1.2, 0.4)
        p_gain = constant_pulse(0.7, -1.2, -0.4)
        h = hamiltonian(p_loss, 0.0)
        assert np.max(np.abs(hamiltonian(p_gain, 0.0) - h.conj().T)) == 0.0


class TestRadicand:
    def test_lossless_resonant_value(self):
        z = radicand(constant_pulse(1.5, 0.0, 0.0), 0.0)
        assert z == pytest.approx(4 * 1.5**2)

    def test_chirp_center_value(self):
        pulse = allen_eberly(ae_params(gamma=0.3))
        z = radicand(pulse, 0.0)
        assert z == pytest.approx(-0.3**2 + 4.0, abs=1e-14)  # 3.91
        assert z.imag == 0.0

    def test_subcritical_keeps_positive_real_part(self):
        pulse = allen_eberly(ae_params(gamma=0.3))
        z = radicand(pulse, TimeGrid(-1.0, 1.0, 2000).samples)
        assert np.min(z.real) > 0.0


class TestControlSampling:
    @pytest.mark.parametrize("read", [
        lambda p, g: hamiltonian(p, g.samples),
        lambda p, g: radicand(p, g.samples),
        lambda p, g: eigenvalues(p, g.samples, BranchRegime.SUB_CRITICAL),
        lambda p, g: eigenvalue_path(p, g, BranchRegime.SUB_CRITICAL),
        lambda p, g: mixing_angle_path(p, g),
    ], ids=["hamiltonian", "radicand", "eigenvalues", "eigenvalue_path",
            "mixing_angle_path"])
    def test_non_finite_control_named_by_every_reader(self, read):
        pulse = allen_eberly(ae_params(gamma=0.3))
        bad = PulseSpec(
            omega_r=lambda t: np.where(np.asarray(t) > 0.5, np.nan,
                                       pulse.omega_r(t)),
            delta=pulse.delta, gamma=pulse.gamma)
        with pytest.raises(NonFinite, match=r"not finite at t=0\.51$"):
            read(bad, TimeGrid(-1.0, 1.0, 200))


class TestRegime:
    def test_subcritical_classification_and_cut(self):
        regime = classify_regime(OMEGA0, 0.3)
        assert regime is BranchRegime.SUB_CRITICAL

    def test_supercritical_classification_and_cut(self):
        regime = classify_regime(OMEGA0, 3.0)
        assert regime is BranchRegime.SUPER_CRITICAL

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

    def test_branch_sqrt_obeys_each_cut(self):
        z = -5.0 + 0.0j
        assert branch_sqrt(z, BranchRegime.SUB_CRITICAL) == pytest.approx(
            1j * np.sqrt(5.0))
        assert branch_sqrt(z, BranchRegime.SUPER_CRITICAL) == pytest.approx(
            1j * np.sqrt(5.0))
        z_below = -5.0 - 1e-9j
        # below the negative real axis the two conventions part ways
        sub = branch_sqrt(z_below, BranchRegime.SUB_CRITICAL)
        sup = branch_sqrt(z_below, BranchRegime.SUPER_CRITICAL)
        assert sub.imag < 0
        assert sup.imag > 0


class TestEigenvalues:
    def test_lossless_resonant_pair(self):
        e_plus, e_minus = eigenvalues(constant_pulse(2.0, 0.0, 0.0), 0.0,
                                      BranchRegime.SUB_CRITICAL)
        assert e_plus == pytest.approx(1.0)
        assert e_minus == pytest.approx(-1.0)

    def test_chirp_center_values(self):
        pulse = allen_eberly(ae_params(gamma=0.3))
        e_plus, e_minus = eigenvalues(pulse, 0.0, BranchRegime.SUB_CRITICAL)
        expected = 0.25 * cmath.sqrt(3.91)  # = 0.494343
        assert abs(e_plus - (expected - 0.075j)) < 1e-12
        assert abs(e_minus - (-expected - 0.075j)) < 1e-12

    def test_trace_sum_rule_is_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            om, dl, gm = rng.uniform(0.1, 3), rng.uniform(-3, 3), rng.uniform(0, 1.9)
            pulse = constant_pulse(om, dl, gm)
            e_plus, e_minus = eigenvalues(pulse, 0.0, BranchRegime.SUB_CRITICAL)
            assert abs((e_plus + e_minus) - (-0.5j * gm)) < 1e-14

    def test_path_continuity_supercritical(self):
        pulse = allen_eberly(ae_params(gamma=3.0))
        grid = TimeGrid(-1.0, 1.0, 4000)
        e_plus, e_minus = eigenvalue_path(pulse, grid, BranchRegime.SUPER_CRITICAL)
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
        a = pulse.delta(ts) - 0.5j * pulse.gamma(ts)
        target = -pulse.omega_r(ts) / a
        rel = np.abs(np.tan(path.theta) - target) / np.abs(target)
        assert np.max(rel) < 1e-10

    def test_analytic_rate_matches_differenced_samples(self, theta_paths):
        _, path = theta_paths(1.0)
        h = path.grid.step
        fd = (path.theta[2:] - path.theta[:-2]) / (2 * h)
        assert np.max(np.abs(fd - path.dtheta[1:-1])) < 5e-4

    def test_numeric_rate_provenance(self):
        pulse = allen_eberly(ae_params(gamma=0.3))
        bare = PulseSpec(omega_r=pulse.omega_r, delta=pulse.delta,
                         gamma=pulse.gamma)
        path = mixing_angle_path(bare, TimeGrid(-1.0, 1.0, 4000))
        assert path.dtheta_provenance == "numeric"
        ref = mixing_angle_path(pulse, TimeGrid(-1.0, 1.0, 4000))
        assert np.max(np.abs(path.dtheta - ref.dtheta)) < 1e-3

    @pytest.mark.parametrize("derivatives", [{}, {"d_omega_r": np.cos}])
    def test_pulse_without_derivatives_needs_no_flag(self, derivatives):
        pulse = allen_eberly(ae_params(gamma=0.3))
        bare = PulseSpec(omega_r=pulse.omega_r, delta=pulse.delta,
                         gamma=pulse.gamma, **derivatives)
        assert not bare.has_analytic_derivatives
        path = mixing_angle_path(bare, TimeGrid(-1.0, 1.0, 400))
        assert path.dtheta_provenance == "numeric"

    def test_exceptional_point_raises_tan_pole(self):
        with pytest.raises(TanPole):
            mixing_angle_path(constant_pulse(1.0, 0.0, 2.0),
                              TimeGrid(0.0, 1.0, 10),
                              regime=BranchRegime.SUB_CRITICAL)

    @pytest.mark.parametrize("gamma", [0.0, 0.3, 3.0])
    def test_branch_tracking_equals_sample_by_sample_loop(self, gamma):
        from nhsta.two_level import _principal_theta
        pulse = allen_eberly(ae_params(gamma))
        grid = TimeGrid(-1.0, 1.0, 16000)
        ts = grid.samples
        a = pulse.delta(ts) - 0.5j * pulse.gamma(ts)
        principal = _principal_theta(pulse.omega_r(ts), a)
        want = np.empty_like(principal)
        want[0] = principal[0]
        for k in range(1, len(ts)):
            want[k] = principal[k] + np.pi * np.round(
                (want[k - 1] - principal[k]).real / np.pi)
        got = mixing_angle_path(pulse, grid).theta
        assert np.array_equal(got.view(float), want.view(float))

    @pytest.mark.parametrize("gamma", [0.3, 3.0])
    def test_principal_theta_equals_two_lane_formula(self, gamma):
        from nhsta.two_level import _principal_theta
        pulse = allen_eberly(ae_params(gamma))
        ts = TimeGrid(-1.0, 1.0, 16000).samples
        a = pulse.delta(ts) - 0.5j * pulse.gamma(ts)
        omega = pulse.omega_r(ts)
        # add samples on the lane boundary |a| = |omega| (except a = -i|a|,
        # a pole of the arctangent) and samples shrunk into the cot lane
        off = a.real != 0
        omega = np.concatenate((omega, np.abs(a[off]), omega))
        a = np.concatenate((a, a[off], a / 4.0))
        lanes = np.sign(np.abs(a) - np.abs(omega))
        assert set(lanes) == {-1.0, 0.0, 1.0}
        got = _principal_theta(omega, a)
        assert np.array_equal(got, two_lane_principal_theta(omega, a))

    @pytest.mark.parametrize("gamma", [0.0, 3.0])
    def test_path_trig_equals_numpy_expressions(self, gamma):
        path = mixing_angle_path(allen_eberly(ae_params(gamma)),
                                 TimeGrid(-1.0, 1.0, 4000))
        th = path.theta
        expected = {"cos_half": np.cos(th / 2.0), "sin_half": np.sin(th / 2.0),
                    "sin": np.sin(th), "cos": np.cos(th)}
        assert not set(TRIG_FIELDS) & set(vars(path))
        for k, name in enumerate(TRIG_FIELDS):
            value = getattr(path, name)
            # only the fields read so far have been evaluated, once each
            assert set(TRIG_FIELDS) & set(vars(path)) == set(TRIG_FIELDS[:k + 1])
            assert getattr(path, name) is value
            assert np.array_equal(value, expected[name])

    def test_coarse_grid_near_critical_decay_raises_branch_jump(self):
        pulse = allen_eberly(ae_params(gamma=1.99))
        with pytest.raises(BranchJump):
            mixing_angle_path(pulse, TimeGrid(-1.0, 1.0, 4),
                              regime=BranchRegime.SUB_CRITICAL)


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
            path = mixing_angle_path(pulse, TimeGrid(0.0, 1.0, 2),
                                     regime=BranchRegime.SUB_CRITICAL)
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
            ep, em = eigenvalues(pulse, 0.0, BranchRegime.SUB_CRITICAL)
            assert min(abs(e_plus - ep), abs(e_plus - em)) < 1e-10

    def test_matches_generic_decomposition(self, theta_paths):
        pulse, path = theta_paths(1.0)
        ep, em = eigenvalue_path(pulse, path.grid, path.regime)
        for k in range(0, path.grid.n_points, 500):
            sys_ = decompose(hamiltonian(pulse, path.grid.samples[k]))
            got = sorted(sys_.eigenvalues, key=lambda z: z.real)
            want = sorted([ep[k], em[k]], key=lambda z: z.real)
            assert max(abs(g - w) for g, w in zip(got, want)) < 1e-10

    def test_angle_branch_pairs_with_plus_eigenvalue_everywhere(self, theta_paths):
        for gamma in (0.3, 3.0):
            pulse, path = theta_paths(gamma)
            ep, _ = eigenvalue_path(pulse, path.grid, path.regime)
            ts = path.grid.samples
            worst = 0.0
            for k in range(0, len(ts), 100):
                (plus, _), _ = eigenvectors(path.theta[k])
                h = hamiltonian(pulse, ts[k])
                worst = max(worst, np.max(np.abs(h @ plus - ep[k] * plus)))
            assert worst < 1e-10


class TestAllenEberly:
    def test_center_values(self):
        pulse = allen_eberly(ae_params(gamma=0.0))
        assert pulse.omega_r(0.0) == pytest.approx(OMEGA0)
        assert pulse.delta(0.0) == pytest.approx(0.0)
        assert pulse.d_omega_r(0.0) == pytest.approx(0.0)

    def test_chirp_value_one_duration_out(self):
        pulse = allen_eberly(ae_params(gamma=0.0))
        assert pulse.delta(1.0) == pytest.approx(9.0 * np.tanh(1.0))

    def test_analytic_derivatives_match_finite_differences(self):
        pulse = allen_eberly(ae_params(gamma=0.7))
        ts = np.linspace(-0.9, 0.9, 17)
        h = 1e-6
        for fn, dfn in ((pulse.omega_r, pulse.d_omega_r),
                        (pulse.delta, pulse.d_delta),
                        (pulse.gamma, pulse.d_gamma)):
            fd = (fn(ts + h) - fn(ts - h)) / (2 * h)
            assert np.max(np.abs(fd - dfn(ts))) < 1e-6

    def test_critical_decay_rejected_at_construction(self):
        with pytest.raises(DegenerateRegime):
            ae_params(gamma=2.0 * OMEGA0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["omega0", "delta0", "tau", "gamma",
                                      "t0", "t_f"])
    def test_non_finite_parameter_rejected_at_construction(self, name, value):
        kwargs = dict(omega0=1.0, delta0=9.0, tau=1.0, gamma=0.3,
                      t0=-1.0, t_f=1.0)
        kwargs[name] = value
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            AllenEberlyParams(**kwargs)


class TestRecordIdentity:
    """Records holding arrays compare and hash by identity: a field-wise
    ``==`` would ask numpy for the truth value of an array."""

    def test_equal_paths_hash_and_compare(self):
        pulse = allen_eberly(ae_params(gamma=1.0))
        grid = TimeGrid(-1.0, 1.0, 200)
        a, b = mixing_angle_path(pulse, grid), mixing_angle_path(pulse, grid)
        assert np.array_equal(a.theta, b.theta)
        assert a == a
        assert a != b
        assert hash(a) == hash(a)
        assert len({a, b, a}) == 2
        assert a in {a}
        assert b not in {a}

    @pytest.mark.parametrize("name", [
        "propagation.StateTrajectory", "propagation.AmplitudeTrajectory",
        "gauges.GaugeFunctions", "two_level.MixingAnglePath",
        "synthesis.SupplementCoefficients", "synthesis.NullificationReport",
        "biorthogonal.BiorthogonalSystem"])
    def test_array_records_use_identity(self, name):
        import importlib
        module, _, cls = name.rpartition(".")
        record = getattr(importlib.import_module(f"nhsta.{module}"), cls)
        assert record.__eq__ is object.__eq__
        assert record.__hash__ is object.__hash__
