"""Supplement synthesis: coefficients, residuals, closed-form amplitude."""
import numpy as np
import pytest

from conftest import analytic_two_level_systems
from nhsta.biorthogonal import EigenPath, counterdiabatic_generic
from nhsta.errors import InconsistentChoice, PolicyMismatch
from nhsta.gauges import gauge_simple
from nhsta.grids import TimeGrid
from nhsta.synthesis import (assemble_h1, closed_form_gplus, general_family,
                             general_family_omega_zero, hermitian_realizable,
                             matched_gauge, naive_cd, nullification_residual)
from nhsta.two_level import eigenvalue_path, mixing_angle_path


class TestNaiveCounterdiabatic:
    def test_lossless_limit_is_hermitian(self, theta_paths):
        pulse, path = theta_paths(0.0)
        e_plus, e_minus = eigenvalue_path(pulse, path.grid, path.regime)
        g = gauge_simple(e_plus, e_minus, path.grid)
        h1 = naive_cd(path, g)
        assert np.max(np.abs(h1 - np.conj(np.swapaxes(h1, 1, 2)))) < 1e-12
        want = 0.5 * path.dtheta[:, None, None] * np.array([[0, -1j], [1j, 0]])
        assert np.max(np.abs(h1 - want)) < 1e-12

    def test_lossy_form_is_not_hermitian(self, theta_paths):
        pulse, path = theta_paths(1.0)
        e_plus, e_minus = eigenvalue_path(pulse, path.grid, path.regime)
        g = gauge_simple(e_plus, e_minus, path.grid)
        h1 = naive_cd(path, g)
        asym = np.max(np.abs(h1[:, 0, 1] - np.conj(h1[:, 1, 0])))
        assert asym > 0.01

    def test_matches_generic_finite_difference_construction(self, theta_paths):
        pulse, path = theta_paths(1.0, steps=64000)
        e_plus, e_minus = eigenvalue_path(pulse, path.grid, path.regime)
        g = gauge_simple(e_plus, e_minus, path.grid)
        h1 = naive_cd(path, g)
        gpath = EigenPath.from_systems(
            path.grid, analytic_two_level_systems(path, e_plus, e_minus))
        for k in (12000, 32000, 52000):
            got = counterdiabatic_generic(gpath, k)
            assert np.max(np.abs(got - h1[k])) < 1e-6

    def test_diagonal_freedom(self, theta_paths):
        pulse, path = theta_paths(0.3)
        e_plus, e_minus = eigenvalue_path(pulse, path.grid, path.regime)
        g = gauge_simple(e_plus, e_minus, path.grid)
        h1 = naive_cd(path, g, eps_plus=0.2, eps_minus=-0.4j)
        th = path.theta
        want_00 = 0.5j * (0.2 * np.cos(th / 2) ** 2 - 0.4j * np.sin(th / 2) ** 2)
        assert np.max(np.abs(h1[:, 0, 0] - want_00)) < 1e-12


class TestHermitianRealizable:
    def test_lossless_limit_reduces_to_standard_counterdiabatic(self, theta_paths):
        pulse, path = theta_paths(0.0)
        coeffs = hermitian_realizable(path)
        assert np.max(np.abs(coeffs.delta_plus)) == 0.0
        assert np.max(np.abs(coeffs.omega - 1j * (-path.dtheta.real))) < 1e-14
        e_plus, e_minus = eigenvalue_path(pulse, path.grid, path.regime)
        g = gauge_simple(e_plus, e_minus, path.grid)
        naive = naive_cd(path, g)
        for k in (0, 1500, 4000):
            assert np.max(np.abs(assemble_h1(coeffs, k) - naive[k])) <= 1e-10

    def test_frozen_pulse_needs_no_supplement(self):
        from test_two_level import constant_pulse
        path = mixing_angle_path(constant_pulse(1.2, 0.5, 0.3),
                                 TimeGrid(0.0, 1.0, 100))
        coeffs = hermitian_realizable(path)
        assert np.max(np.abs(coeffs.delta_plus)) == 0.0
        assert np.max(np.abs(coeffs.omega)) == 0.0
        assert np.max(np.abs(assemble_h1(coeffs, 50))) == 0.0

    def test_cancellation_residual_tiny(self, theta_paths):
        _, path = theta_paths(1.0)
        coeffs = hermitian_realizable(path)
        report = nullification_residual(path, coeffs)
        assert report.max_abs_residual <= 1e-10

    def test_assembled_matrix_exactly_self_adjoint(self, theta_paths):
        _, path = theta_paths(1.0)
        coeffs = hermitian_realizable(path)
        for k in (0, 1000, 2000, 3000, 4000):
            h1 = assemble_h1(coeffs, k)
            assert np.array_equal(h1, h1.conj().T)

    def test_center_matrix_consistent_with_coefficients(self, theta_paths):
        _, path = theta_paths(1.0)
        coeffs = hermitian_realizable(path)
        k = path.grid.index_of(0.0)
        delta = coeffs.delta_plus[k]
        omega_a = coeffs.omega[k].imag
        want = 0.5 * np.array([[delta, 1j * omega_a],
                               [-1j * omega_a, -delta]], dtype=complex)
        assert np.max(np.abs(assemble_h1(coeffs, k) - want)) == 0.0

    def test_common_shift_moves_both_diagonals(self, theta_paths):
        _, path = theta_paths(0.3)
        base = hermitian_realizable(path)
        shifted = hermitian_realizable(path, common_shift=0.7)
        assert np.allclose(shifted.delta_plus - base.delta_plus, 0.7)
        assert np.allclose(shifted.delta_minus - base.delta_minus, 0.7)
        assert np.array_equal(shifted.omega, base.omega)


class TestGeneralFamily:
    def test_zero_drive_member(self, theta_paths):
        _, path = theta_paths(1.0)
        coeffs = general_family_omega_zero(path)
        assert np.max(np.abs(coeffs.omega)) <= 1e-14
        report = nullification_residual(path, coeffs)
        assert report.max_abs_residual <= 1e-10

    def test_reduces_to_hermitian_choice(self, theta_paths):
        _, path = theta_paths(1.0)
        herm = hermitian_realizable(path)
        lam = np.asarray(herm.delta_plus) * np.sin(path.theta)
        coeffs = general_family(path, lambda_choice=lam, re_omega=0.0)
        assert np.max(np.abs(coeffs.delta_plus - herm.delta_plus)) < 1e-12
        assert np.max(np.abs(coeffs.omega - herm.omega)) < 1e-12

    def test_lossless_trivial_choice(self, theta_paths):
        _, path = theta_paths(0.0)
        coeffs = general_family(path, lambda_choice=0.0, re_omega=0.0)
        assert np.max(np.abs(coeffs.omega - 1j * (-path.dtheta.real))) < 1e-14

    def test_inconsistent_choice_rejected(self, theta_paths):
        _, path = theta_paths(1.0)
        with pytest.raises(InconsistentChoice):
            general_family(path, lambda_choice=0.5, re_omega=0.0)


class TestNullificationReport:
    def test_zero_coefficients_leave_the_full_rate(self, theta_paths):
        _, path = theta_paths(0.3)
        from nhsta.synthesis import SupplementCoefficients
        n = path.grid.n_points
        coeffs = SupplementCoefficients(
            grid=path.grid, delta_plus=np.zeros(n), delta_minus=np.zeros(n),
            omega=np.zeros(n, dtype=complex), policy="hermitian-realizable")
        report = nullification_residual(path, coeffs)
        assert np.max(np.abs(report.residual - 1j * path.dtheta)) < 1e-14
        assert report.max_abs_residual > 0.1

    def test_frame_coupling_cancelled_but_reverse_entry_survives(
            self, shortcut_run, theta_paths):
        run = shortcut_run(1.0)
        report = run.residual
        assert report.frame_coupling is not None
        assert np.max(report.frame_coupling) <= 1e-6
        assert np.max(report.frame_coupling_plain) <= report.frame_tolerance
        # the reverse coupling is allowed to survive: rebuild it explicitly
        pulse, path = theta_paths(1.0)
        from nhsta.gauges import rotation
        from nhsta.two_level import hamiltonian
        k = path.grid.index_of(0.25)
        h = path.grid.step
        coeffs = run.coeffs
        rots = [rotation(path.theta[j], (run.gauges.f_plus[j],
                                         run.gauges.f_minus[j]))
                for j in (k - 1, k, k + 1)]
        d_r = (rots[2].r - rots[0].r) / (2 * h)
        h_tot = hamiltonian(pulse, path.grid.samples[k]) + assemble_h1(coeffs, k)
        frame = rots[1].r_tilde.conj().T @ h_tot @ rots[1].r \
            - 1j * rots[1].r_tilde.conj().T @ d_r
        assert abs(frame[0, 1]) > 0.01

    def test_frame_coupling_equals_pointwise_loop(self, shortcut_run):
        from nhsta.gauges import rotation
        from nhsta.synthesis import _frame_coupling
        from nhsta.two_level import hamiltonian
        run = shortcut_run(1.0)
        th, g, coeffs = run.theta, run.gauges, run.coeffs
        ts, h, n = th.grid.samples, th.grid.step, th.grid.n_points
        rot = [rotation(th.theta[k], (g.f_plus[k], g.f_minus[k]))
               for k in range(n)]
        plain, rich = np.zeros(n), np.zeros(n)
        for k in range(2, n - 2):
            d1 = (rot[k + 1].r - rot[k - 1].r) / (2.0 * h)
            d2 = (rot[k + 2].r - rot[k - 2].r) / (4.0 * h)
            rtd = rot[k].r_tilde.conj().T
            static = rtd @ (hamiltonian(run.pulse, ts[k])
                            + assemble_h1(coeffs, k)) @ rot[k].r
            plain[k] = abs((static - 1j * rtd @ d1)[1, 0])
            rich[k] = abs((static - 1j * rtd @ ((4.0 * d1 - d2) / 3.0))[1, 0])
        got_plain, got_rich = _frame_coupling(th, coeffs, run.pulse, g)
        assert np.max(np.abs(got_plain - plain)) <= 1e-12
        assert np.max(np.abs(got_rich - rich)) <= 1e-12


class TestClosedForm:
    def test_lossless_amplitude_is_pure_phase(self, shortcut_run):
        run = shortcut_run(0.0)
        g = run.g_plus_closed
        assert np.max(np.abs(np.abs(g) - 1.0)) < 1e-12
        from scipy.integrate import cumulative_trapezoid
        want = np.exp(-1j * cumulative_trapezoid(run.e_plus, dx=run.grid.step,
                                                 initial=0.0))
        assert np.max(np.abs(g - want)) < 1e-12

    def test_unit_modulus_with_matched_gauge(self, shortcut_run):
        for gamma in (0.3, 1.0):
            g = shortcut_run(gamma).g_plus_closed
            assert np.max(np.abs(np.abs(g) - 1.0)) <= 1e-8

    def test_matches_propagated_amplitude(self, shortcut_run):
        for gamma in (0.0, 0.3, 1.0):
            run = shortcut_run(gamma)
            dev = np.max(np.abs(run.amps.g_plus - run.g_plus_closed))
            assert dev <= 1e-5

    def test_policy_guard(self, theta_paths):
        pulse, path = theta_paths(0.3)
        e_plus, e_minus = eigenvalue_path(pulse, path.grid, path.regime)
        coeffs = general_family_omega_zero(path)
        g = matched_gauge(e_plus, e_minus, coeffs, path)
        with pytest.raises(PolicyMismatch):
            closed_form_gplus(e_plus, g, coeffs, path)
        shifted = hermitian_realizable(path, common_shift=0.5)
        g2 = matched_gauge(e_plus, e_minus, shifted, path)
        with pytest.raises(PolicyMismatch):
            closed_form_gplus(e_plus, g2, shifted, path)
