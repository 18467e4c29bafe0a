"""Gauge factors, frame rotations, and the gauge-matched frame matrix."""
import numpy as np
import pytest
from scipy.integrate import quad

from conftest import ae_params, analytic_two_level_systems
from nhsta.biorthogonal import BiorthogonalSystem
from nhsta.errors import SinThetaSingular, ZeroGauge
from nhsta.gauges import gauge_simple, matched_delta
from nhsta.grids import TimeGrid
from nhsta.propagation import integrate
from nhsta.synthesis import hermitian_realizable, matched_gauge
from nhsta.two_level import (BranchRegime, MixingAnglePath, PulseSpec,
                             allen_eberly, eigenvalue_path, mixing_angle_path,
                             theta_at)
from oracles import (EigenPath, adiabatic_frame_generic, adiabatic_frame_h0,
                     rotation)


class TestGaugeSimple:
    def test_real_spectrum_gives_unit_gauge(self):
        grid = TimeGrid(0.0, 1.0, 100)
        e = np.ones(grid.n_points) * 0.5  # purely real eigenvalue samples
        g = gauge_simple(e, -e, grid)
        assert np.all(g.f_plus == 1.0)
        assert np.all(g.f_minus == 1.0)

    def test_constant_decay_closed_form(self):
        gamma, t_end = 0.8, 2.0
        grid = TimeGrid(0.0, t_end, 200)
        e = np.full(grid.n_points, -0.5j * gamma)
        g = gauge_simple(e, e, grid)
        assert abs(g.f_plus[-1] - np.exp(-gamma * t_end / 2)) < 1e-12
        assert g.f_plus[0] == 1.0

    def test_lossy_upper_gauge_monotone_when_im_e_nonpositive(self, theta_paths):
        pulse, path = theta_paths(0.3)
        e_plus, e_minus = eigenvalue_path(pulse, path.grid, path.regime)
        assert np.max(e_plus.imag) <= 1e-12  # sign audit of the integrand
        g = gauge_simple(e_plus, e_minus, path.grid)
        assert np.max(np.abs(g.f_plus.imag)) == 0.0
        assert np.all(np.diff(np.abs(g.f_plus)) <= 1e-15)


class TestGaugeShortcut:
    def test_lossless_limit_is_unit_gauge(self, theta_paths):
        pulse, path = theta_paths(0.0)
        e_plus, e_minus = eigenvalue_path(pulse, path.grid, path.regime)
        g = matched_gauge(e_plus, e_minus, hermitian_realizable(path), path)
        assert np.max(np.abs(g.f_plus - 1.0)) < 1e-12

    def test_factor_is_real_positive(self, theta_paths):
        pulse, path = theta_paths(1.0)
        e_plus, e_minus = eigenvalue_path(pulse, path.grid, path.regime)
        g = matched_gauge(e_plus, e_minus, hermitian_realizable(path), path)
        assert np.max(np.abs(g.f_plus.imag)) == 0.0
        assert np.min(g.f_plus.real) > 0.0
        assert g.f_plus[0] == 1.0

    def test_unit_modulus_condition_holds_pointwise(self, theta_paths):
        # Im[E+ - i*(df+/f+) + delta*cos(theta)/2] == 0 with the synthesized delta
        pulse, path = theta_paths(1.0)
        e_plus, e_minus = eigenvalue_path(pulse, path.grid, path.regime)
        g = matched_gauge(e_plus, e_minus, hermitian_realizable(path), path)
        delta = hermitian_realizable(path).delta
        cond = (e_plus - 1j * g.dlogf_plus
                + 0.5 * delta * np.cos(path.theta)).imag
        assert np.max(np.abs(cond)) <= 1e-10

    def test_endpoint_matches_adaptive_quadrature(self):
        gamma = 1.0
        pulse = allen_eberly(ae_params(gamma))
        grid = TimeGrid(-1.0, 1.0, 64000)
        path = mixing_angle_path(pulse, grid)
        e_plus, e_minus = eigenvalue_path(pulse, grid, path.regime)
        g = matched_gauge(e_plus, e_minus, hermitian_realizable(path), path)

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
        # and Im[dtheta] vanish together there, but delta does not
        pulse = allen_eberly(ae_params(3.0))
        grid = TimeGrid(-1.0, 1.0, 4000)
        path = mixing_angle_path(pulse, grid)
        delta = matched_delta(path)
        k = grid.index_of(0.0)
        assert abs(np.sin(path.theta[k]).real) < 1e-9
        assert delta[k] == pytest.approx(0.5 * (delta[k - 1] + delta[k + 1]))
        assert delta[k] < -16.0

    def test_unguardable_singularity_raises(self):
        grid = TimeGrid(0.0, 1.0, 4)
        theta = np.zeros(5, dtype=complex)  # Re[sin theta] = 0 everywhere
        dtheta = np.full(5, 1j, dtype=complex)  # with a surviving numerator
        path = MixingAnglePath(grid=grid, theta=theta, dtheta=dtheta,
                               regime=BranchRegime.SUB_CRITICAL)
        with pytest.raises(SinThetaSingular):
            matched_delta(path)


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
        from nhsta.gauges import GaugeFunctions
        grid = TimeGrid(0.0, 1.0, 2)
        ones = np.ones(3, dtype=complex)
        dead = ones.copy()
        dead[1] = 0.0
        with pytest.raises(ZeroGauge):
            GaugeFunctions(grid=grid, f_plus=dead, f_minus=ones,
                           dlogf_plus=ones, dlogf_minus=ones)


class TestFrameMatrix:
    def test_static_pulse_has_no_coupling(self):
        pulse = PulseSpec(
            omega_r=lambda t: np.full_like(np.asarray(t, dtype=float), 1.3),
            delta=lambda t: np.full_like(np.asarray(t, dtype=float), 0.4),
            gamma=lambda t: np.full_like(np.asarray(t, dtype=float), 0.2),
            d_omega_r=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
            d_delta=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
            d_gamma=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        )
        grid = TimeGrid(0.0, 1.0, 100)
        path = mixing_angle_path(pulse, grid)
        e_plus, e_minus = eigenvalue_path(pulse, grid, path.regime)
        g = gauge_simple(e_plus, e_minus, grid)
        frame = adiabatic_frame_h0(pulse, path, g, 50)
        assert abs(frame[0, 1]) == 0.0
        assert abs(frame[1, 0]) == 0.0
        assert abs(frame[0, 0] - (e_plus[50] - 1j * e_plus[50].imag)) < 1e-14

    def test_coupling_antisymmetry_pattern_exact(self, theta_paths):
        pulse, path = theta_paths(1.0)
        e_plus, e_minus = eigenvalue_path(pulse, path.grid, path.regime)
        g = gauge_simple(e_plus, e_minus, path.grid)
        for k in (100, 2000, 3900):
            frame = adiabatic_frame_h0(pulse, path, g, k)
            ratio = (g.f_plus[k] / g.f_minus[k]) ** 2
            assert abs(frame[1, 0] + frame[0, 1] * ratio) < 1e-12

    def test_matches_generic_frame_on_scaled_eigenvector_path(self, theta_paths):
        # generic finite-difference frame on the f_n-scaled vectors agrees
        # with the closed-form matrix
        gamma = 1.0
        pulse = allen_eberly(ae_params(gamma))
        grid = TimeGrid(-1.0, 1.0, 64000)
        path = mixing_angle_path(pulse, grid)
        e_plus, e_minus = eigenvalue_path(pulse, grid, path.regime)
        g = gauge_simple(e_plus, e_minus, grid)
        systems = analytic_two_level_systems(path, e_plus, e_minus)
        scaled = []
        for k, sys_ in enumerate(systems):
            right = sys_.right.copy()
            left = sys_.left.copy()
            right[:, 0] *= g.f_plus[k]
            right[:, 1] *= g.f_minus[k]
            left[:, 0] /= np.conj(g.f_plus[k])
            left[:, 1] /= np.conj(g.f_minus[k])
            scaled.append(BiorthogonalSystem(eigenvalues=sys_.eigenvalues,
                                             right=right, left=left))
        gpath = EigenPath.from_systems(grid, scaled)
        worst = 0.0
        for k in (16000, 32000, 48000):
            got = adiabatic_frame_generic(gpath, k)
            want = adiabatic_frame_h0(pulse, path, g, k)
            worst = max(worst, np.max(np.abs(got - want)))
        assert worst < 1e-6

    def test_adiabatic_prediction_reproduced_by_frame_propagation(self):
        # slow strong pulse: couplings under 1% of the diagonal gap, so the
        # decoupled exponential solution should track |g+| to within 2%
        from dataclasses import replace
        pulse = allen_eberly(replace(ae_params(gamma=0.1), omega0=50.0))
        grid = TimeGrid(-1.0, 1.0, 8000)
        path = mixing_angle_path(pulse, grid)
        e_plus, e_minus = eigenvalue_path(pulse, grid, path.regime)
        g = gauge_simple(e_plus, e_minus, grid)

        coupling = np.abs(0.5 * path.dtheta * g.f_minus / g.f_plus)
        gap = np.abs(e_plus - 1j * g.dlogf_plus)
        assert np.max(coupling / gap) < 0.01

        frames = [adiabatic_frame_h0(pulse, path, g, k)
                  for k in range(grid.n_points)]

        def h_frame(t):
            j = grid.index_of(t)
            if j is not None:
                return frames[j]
            lo = int(np.floor((t - grid.t0) / grid.step))
            lo = min(max(lo, 0), grid.steps - 1)
            w = (t - grid.samples[lo]) / grid.step
            return (1 - w) * frames[lo] + w * frames[lo + 1]

        traj = integrate(h_frame, np.array([1.0, 0.0], dtype=complex), grid)
        from scipy.integrate import cumulative_trapezoid
        exponent = cumulative_trapezoid(e_plus - 1j * g.dlogf_plus,
                                        dx=grid.step, initial=0.0)
        predicted = np.abs(np.exp(-1j * exponent))
        assert np.max(np.abs(np.abs(traj.psi[:, 0]) - predicted)) < 0.02

