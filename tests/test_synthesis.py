"""Supplement synthesis: coefficients, residuals, closed-form amplitude."""
import numpy as np
import pytest

from conftest import ae_params, analytic_two_level_systems
from nhsta import synthesis
from nhsta.errors import InconsistentChoice, PolicyMismatch
from nhsta.experiments import ae_pulse_and_grid, shortcut_table
from nhsta.grids import TimeGrid
from nhsta.synthesis import (assemble_h1_series, closed_form_gplus,
                             general_family, general_family_omega_zero,
                             hermitian_realizable, matched_gauge, naive_cd,
                             nullification_residual)
from nhsta.two_level import eigenvalue_path, hamiltonian, mixing_angle_path
from oracles import EigenPath, counterdiabatic_generic, rotation


def assert_bitwise(got, want):
    """Equal bit for bit, signed zeros included."""
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    g, w = got.view(float), want.view(float)
    assert np.array_equal(g, w)
    assert np.array_equal(np.signbit(g), np.signbit(w))


def diagonal_freedom_cd(path):
    """Reference: the counterdiabatic term with diagonal freedom
    e+ = e- = 0, 0.5i*[[e+ c^2 + e- s^2, (sin(theta)/2)(e+ - e-) - dtheta],
    [(sin(theta)/2)(e+ - e-) + dtheta, e+ s^2 + e- c^2]]."""
    n = path.grid.n_points
    ep = em = np.full(n, 0j)
    dth, c2, s2 = path.dtheta, path.cos_half ** 2, path.sin_half ** 2
    half_sin = 0.5 * path.sin
    out = np.empty((n, 2, 2), dtype=complex)
    out[:, 0, 0] = 0.5j * (ep * c2 + em * s2)
    out[:, 0, 1] = 0.5j * (half_sin * (ep - em) - dth)
    out[:, 1, 0] = 0.5j * (half_sin * (ep - em) + dth)
    out[:, 1, 1] = 0.5j * (ep * s2 + em * c2)
    return out


class TestNaiveCounterdiabatic:
    def test_lossless_limit_is_hermitian(self, theta_paths):
        _, path = theta_paths(0.0)
        h1 = naive_cd(path)
        assert np.max(np.abs(h1 - np.conj(np.swapaxes(h1, 1, 2)))) < 1e-12
        want = 0.5 * path.dtheta[:, None, None] * np.array([[0, -1j], [1j, 0]])
        assert np.max(np.abs(h1 - want)) < 1e-12

    def test_lossy_form_is_not_hermitian(self, theta_paths):
        _, path = theta_paths(1.0)
        h1 = naive_cd(path)
        asym = np.max(np.abs(h1[:, 0, 1] - np.conj(h1[:, 1, 0])))
        assert asym > 0.01

    def test_matches_generic_finite_difference_construction(self, theta_paths):
        pulse, path = theta_paths(1.0, steps=64000)
        e_plus, e_minus = eigenvalue_path(pulse, path.grid, path.regime)
        h1 = naive_cd(path)
        gpath = EigenPath.from_systems(
            path.grid, analytic_two_level_systems(path, e_plus, e_minus))
        for k in (12000, 32000, 52000):
            got = counterdiabatic_generic(gpath, k)
            assert np.max(np.abs(got - h1[k])) < 1e-6

    @pytest.mark.parametrize("gamma", [0.0, 0.3, 3.0, 2.1])
    def test_equals_zero_diagonal_freedom_expression(self, theta_paths,
                                                     gamma):
        # exact in value; the sign of a zero real part can differ where
        # dtheta is real, which adding H0 absorbs (see TestSingleDeltaForm)
        _, path = theta_paths(gamma)
        assert np.array_equal(naive_cd(path), diagonal_freedom_cd(path))


class TestHermitianRealizable:
    def test_lossless_limit_reduces_to_standard_counterdiabatic(self, theta_paths):
        _, path = theta_paths(0.0)
        coeffs = hermitian_realizable(path)
        assert np.max(np.abs(coeffs.delta)) == 0.0
        assert np.max(np.abs(coeffs.omega - 1j * (-path.dtheta.real))) < 1e-14
        naive = naive_cd(path)
        h1 = assemble_h1_series(coeffs)
        for k in (0, 1500, 4000):
            assert np.max(np.abs(h1[k] - naive[k])) <= 1e-10

    def test_frozen_pulse_needs_no_supplement(self):
        from test_two_level import constant_pulse
        path = mixing_angle_path(constant_pulse(1.2, 0.5, 0.3),
                                 TimeGrid(0.0, 1.0, 100))
        coeffs = hermitian_realizable(path)
        assert np.max(np.abs(coeffs.delta)) == 0.0
        assert np.max(np.abs(coeffs.omega)) == 0.0
        assert np.max(np.abs(assemble_h1_series(coeffs)[50])) == 0.0

    def test_cancellation_residual_tiny(self, theta_paths):
        _, path = theta_paths(1.0)
        coeffs = hermitian_realizable(path)
        report = nullification_residual(path, coeffs)
        assert report.max_abs_residual <= 1e-10

    def test_assembled_matrix_exactly_self_adjoint(self, theta_paths):
        _, path = theta_paths(1.0)
        h1 = assemble_h1_series(hermitian_realizable(path))
        for k in (0, 1000, 2000, 3000, 4000):
            assert np.array_equal(h1[k], h1[k].conj().T)

    def test_center_matrix_consistent_with_coefficients(self, theta_paths):
        _, path = theta_paths(1.0)
        coeffs = hermitian_realizable(path)
        k = path.grid.index_of(0.0)
        delta = coeffs.delta[k]
        omega_a = coeffs.omega[k].imag
        want = 0.5 * np.array([[delta, 1j * omega_a],
                               [-1j * omega_a, -delta]], dtype=complex)
        assert np.max(np.abs(assemble_h1_series(coeffs)[k] - want)) == 0.0


class TestGeneralFamily:
    def test_zero_drive_member(self, theta_paths):
        _, path = theta_paths(1.0)
        coeffs = general_family_omega_zero(path)
        assert np.max(np.abs(coeffs.omega)) <= 1e-14
        report = nullification_residual(path, coeffs)
        assert report.max_abs_residual <= 1e-10

    @pytest.mark.parametrize("gamma", [0.3, 3.0, 2.1])
    def test_zero_drive_skips_cos_theta_bitwise(self, gamma):
        # no drive (re_omega=None) needs no cos(theta); the coefficients equal
        # those of an explicit all-zero Re[W] bit for bit
        pulse, grid, regime = ae_pulse_and_grid(ae_params(gamma), 1000)
        path = mixing_angle_path(pulse, grid.refine(4), regime)
        coeffs = general_family_omega_zero(path)
        assert "cos" not in vars(path)
        explicit = general_family(path, lambda_choice=-1j * path.dtheta,
                                  re_omega=np.zeros(path.grid.n_points))
        assert_bitwise(coeffs.delta, explicit.delta)
        assert_bitwise(coeffs.omega, explicit.omega)

    def test_reduces_to_hermitian_choice(self, theta_paths):
        _, path = theta_paths(1.0)
        herm = hermitian_realizable(path)
        lam = np.asarray(herm.delta) * np.sin(path.theta)
        coeffs = general_family(path, lambda_choice=lam,
                                re_omega=np.zeros(path.grid.n_points))
        assert np.max(np.abs(coeffs.delta - herm.delta)) < 1e-12
        assert np.max(np.abs(coeffs.omega - herm.omega)) < 1e-12

    def test_lossless_trivial_choice(self, theta_paths):
        _, path = theta_paths(0.0)
        coeffs = general_family(path,
                                lambda_choice=np.zeros(path.grid.n_points))
        assert np.max(np.abs(coeffs.omega - 1j * (-path.dtheta.real))) < 1e-14

    @pytest.mark.parametrize("choice", [
        {"lambda_choice": 0.0},
        {"lambda_choice": lambda t: 0.0 * t},
        {"lambda_choice": np.zeros(3)},
        {"re_omega": 0.0},
        {"re_omega": np.zeros(3)},
    ], ids=["scalar-lambda", "callable-lambda", "short-lambda",
            "scalar-re-omega", "short-re-omega"])
    def test_inputs_off_the_grid_rejected(self, theta_paths, choice):
        _, path = theta_paths(1.0)
        args = {"lambda_choice": -1j * path.dtheta, **choice}
        with pytest.raises(ValueError, match="one value per grid point"):
            general_family(path, **args)

    def test_inconsistent_choice_rejected(self, theta_paths):
        _, path = theta_paths(1.0)
        with pytest.raises(InconsistentChoice):
            general_family(path,
                           lambda_choice=np.full(path.grid.n_points, 0.5))


class TestNullificationReport:
    def test_zero_coefficients_leave_the_full_rate(self, theta_paths):
        _, path = theta_paths(0.3)
        from nhsta.synthesis import SupplementCoefficients
        n = path.grid.n_points
        coeffs = SupplementCoefficients(
            grid=path.grid, delta=np.zeros(n),
            omega=np.zeros(n, dtype=complex), policy="hermitian-realizable")
        report = nullification_residual(path, coeffs)
        assert np.max(np.abs(report.residual - 1j * path.dtheta)) < 1e-14
        assert report.max_abs_residual > 0.1

    def test_frame_coupling_cancelled_but_reverse_entry_survives(
            self, shortcut_run, theta_paths):
        run = shortcut_run(1.0)
        report = run.frame_check()
        assert report.frame_coupling is not None
        assert np.max(report.frame_coupling) <= 1e-6
        # the reverse coupling is allowed to survive: rebuild it explicitly
        pulse, path = theta_paths(1.0)
        k = path.grid.index_of(0.25)
        h = path.grid.step
        coeffs = run.coeffs
        rots = [rotation(path.theta[j], (run.gauges.f_plus[j],
                                         run.gauges.f_minus[j]))
                for j in (k - 1, k, k + 1)]
        d_r = (rots[2].r - rots[0].r) / (2 * h)
        h_tot = (hamiltonian(pulse, path.grid.samples[k])
                 + assemble_h1_series(coeffs)[k])
        frame = rots[1].r_tilde.conj().T @ h_tot @ rots[1].r \
            - 1j * rots[1].r_tilde.conj().T @ d_r
        assert abs(frame[0, 1]) > 0.01

    def test_frame_coupling_equals_pointwise_loop(self, shortcut_run):
        from nhsta.synthesis import _frame_coupling
        run = shortcut_run(1.0)
        th, g, coeffs = run.theta, run.gauges, run.coeffs
        ts, h, n = th.grid.samples, th.grid.step, th.grid.n_points
        rot = [rotation(th.theta[k], (g.f_plus[k], g.f_minus[k]))
               for k in range(n)]
        h1 = assemble_h1_series(coeffs)
        rich = np.zeros(n)
        for k in range(2, n - 2):
            d1 = (rot[k + 1].r - rot[k - 1].r) / (2.0 * h)
            d2 = (rot[k + 2].r - rot[k - 2].r) / (4.0 * h)
            rtd = rot[k].r_tilde.conj().T
            static = rtd @ (hamiltonian(run.pulse, ts[k]) + h1[k]) @ rot[k].r
            rich[k] = abs((static - 1j * rtd @ ((4.0 * d1 - d2) / 3.0))[1, 0])
        # entries (h00, h01, h10, h11) of H0 + H1, one row each
        h_total = (hamiltonian(run.pulse, ts) + h1).reshape(n, 4).T
        got_rich = _frame_coupling(th, h_total, g)
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


class TestSingleDeltaForm:
    """H1 = 0.5*[[delta, W], [conj(W), -delta]] and the zero-diagonal
    counterdiabatic term reproduce the tables of the earlier two-field form
    0.5*[[d+, W], [conj(W), d-]] and of the diagonal-freedom form bit for
    bit."""

    @staticmethod
    def two_field_h1(d_plus, d_minus, omega):
        out = np.empty((len(omega), 2, 2), dtype=complex)
        out[:, 0, 0] = 0.5 * d_plus
        out[:, 0, 1] = 0.5 * omega
        out[:, 1, 0] = 0.5 * np.conj(omega)
        out[:, 1, 1] = 0.5 * d_minus
        return out

    @pytest.mark.parametrize("gamma", [0.0, 0.3, 3.0, 2.1])
    @pytest.mark.parametrize("policy", ["hermitian-realizable",
                                        "general-omega-zero", "naive-cd"])
    def test_quarter_table_equals_two_field_formula_bitwise(self, gamma,
                                                            policy):
        pulse, grid, regime = ae_pulse_and_grid(ae_params(gamma), 1000)
        quarter = grid.refine(4)
        theta_q = mixing_angle_path(pulse, quarter, regime)
        if policy == "naive-cd":
            want = diagonal_freedom_cd(theta_q)
        elif policy == "hermitian-realizable":
            coeffs = hermitian_realizable(theta_q)
            # the two-field form carried a common diagonal shift of 0.0
            want = self.two_field_h1(coeffs.delta + 0.0, -coeffs.delta + 0.0,
                                     coeffs.omega)
        else:
            coeffs = general_family_omega_zero(theta_q)
            want = self.two_field_h1(coeffs.delta, -coeffs.delta,
                                     coeffs.omega)
        want += hamiltonian(pulse, quarter.samples)
        table = shortcut_table(pulse, grid, policy=policy, regime=regime)
        h = table.scan.h  # [c, p, k] is entry c of quarter-step row 4k + p
        got = h.transpose(2, 1, 0).reshape(-1, 2, 2)[:4 * grid.steps + 1]
        assert_bitwise(got, want)

    @pytest.mark.parametrize("steps", [1000, 1001])
    @pytest.mark.parametrize("policy", ["hermitian-realizable",
                                        "general-omega-zero"])
    def test_frame_check_reads_the_table_h_bitwise(self, monkeypatch, steps,
                                                   policy):
        seen = []
        frame_coupling = synthesis._frame_coupling

        def record(theta_path, h_total, gauges):
            seen.append(np.array(h_total))
            return frame_coupling(theta_path, h_total, gauges)

        monkeypatch.setattr(synthesis, "_frame_coupling", record)
        pulse, grid, regime = ae_pulse_and_grid(ae_params(1.0), steps)
        table = shortcut_table(pulse, grid, policy=policy, regime=regime)
        assert seen == []  # the frame check runs on request only
        table.frame_check()
        assert len(seen) == 1
        want = (hamiltonian(pulse, grid.samples)
                + assemble_h1_series(table.coeffs))
        assert_bitwise(seen[0], want.reshape(-1, 4).T)
