"""Supplement synthesis: H1 entries, residuals, closed-form amplitude."""
import numpy as np
import pytest

from conftest import (ae_setup, analytic_two_level_systems, assert_bitwise,
                      path_eigenvalues, shifted_level, shortcut_table,
                      table_eigenvalues, table_entries)
from nhsta import synthesis
from nhsta.errors import InconsistentChoice, NonFinite
from nhsta.experiments import POLICIES
from nhsta.grids import TimeGrid
from nhsta.synthesis import (assemble_h1_series, closed_form_gplus,
                             frame_coupling, general_family_omega_zero,
                             hermitian_realizable, nullification_residual)
from nhsta.propagation import phase_table
from nhsta.two_level import (hamiltonian_entries, mixing_angle_path,
                             sample_controls)
from oracles import (EigenPath, counterdiabatic_generic,
                     differenced_frame_coupling, general_family, hamiltonian,
                     hermitian_closed_form_gplus, naive_cd, rotation)


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
        e_plus, e_minus = path_eigenvalues(pulse, path)
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
        entries = hermitian_realizable(path)
        assert np.max(np.abs(2 * entries[0])) == 0.0  # delta
        assert np.max(np.abs(2 * entries[1] - 1j * (-path.dtheta.real))) < 1e-14
        naive = naive_cd(path)
        h1 = assemble_h1_series(entries)
        for k in (0, 1500, 4000):
            assert np.max(np.abs(h1[k] - naive[k])) <= 1e-10

    def test_frozen_pulse_needs_no_supplement(self):
        from test_two_level import constant_pulse
        path = mixing_angle_path(constant_pulse(1.2, 0.5, 0.3),
                                 TimeGrid(0.0, 1.0, 100))
        entries = hermitian_realizable(path)
        assert [np.max(np.abs(x)) for x in entries] == [0.0] * 4
        assert np.max(np.abs(assemble_h1_series(entries)[50])) == 0.0

    def test_cancellation_residual_tiny(self, theta_paths):
        _, path = theta_paths(1.0)
        assert nullification_residual(path, hermitian_realizable(path)) <= 1e-10

    @pytest.mark.parametrize("steps", [1000, 4000])
    @pytest.mark.parametrize("gamma", [0.0, 0.3, 1.0, 2.1, 3.0, 10.0])
    def test_entries_are_hermitian_bitwise(self, gamma, steps):
        # a real diagonal, opposite on the two sites, and a purely
        # imaginary drive W whose conjugate is the lower entry (equal in
        # value: the zero real parts of h01 and h10 may differ in sign)
        pulse, grid = ae_setup(gamma, steps)
        for g in (grid, grid.refine(4)):
            h00, h01, h10, h11 = hermitian_realizable(
                mixing_angle_path(pulse, g))
            assert h00.dtype.kind == "f" and h11.dtype.kind == "f"
            assert np.all(h00.imag == 0)
            assert np.all(h01.real == 0)
            assert np.array_equal(h10, np.conj(h01))
            assert_bitwise(h11, -h00)

    def test_assembled_matrix_exactly_self_adjoint(self, theta_paths):
        _, path = theta_paths(1.0)
        h1 = assemble_h1_series(hermitian_realizable(path))
        for k in (0, 1000, 2000, 3000, 4000):
            assert np.array_equal(h1[k], h1[k].conj().T)

    def test_center_matrix_consistent_with_coefficients(self, theta_paths):
        _, path = theta_paths(1.0)
        entries = hermitian_realizable(path)
        k = path.grid.index_of(0.0)
        delta = 2 * entries[0][k]
        omega_a = (2 * entries[1][k]).imag
        want = 0.5 * np.array([[delta, 1j * omega_a],
                               [-1j * omega_a, -delta]], dtype=complex)
        assert np.max(np.abs(assemble_h1_series(entries)[k] - want)) == 0.0


class TestGeneralFamily:
    def test_zero_drive_member(self, theta_paths):
        _, path = theta_paths(1.0)
        entries = general_family_omega_zero(path)
        assert np.max(np.abs(entries[1])) <= 1e-14  # W/2
        assert nullification_residual(path, entries) <= 1e-10

    @pytest.mark.parametrize("steps", [1000, 1001, 4000, 16000])
    @pytest.mark.parametrize("gamma", [0.0, 0.3, 1.0, 2.1, 3.0, 10.0])
    def test_closed_form_equals_generic_member_bitwise(self, gamma, steps):
        # delta = -i*dtheta/sin(theta) and W = 0 are the generic family
        # member lam = -i*dtheta, bit for bit, on the run and quarter grids;
        # the closed form needs no cos(theta).  Its zero drive entries are
        # the scalar 0.0 where the reference has arrays of zeros, so H0 + H1
        # as the kernel reads it is compared as well
        pulse, grid = ae_setup(gamma, steps)
        for g in (grid, grid.refine(4)):
            samples = sample_controls(pulse, g)
            path = mixing_angle_path(pulse, g, samples)
            got = general_family_omega_zero(path)
            assert "cos" not in vars(path)
            want = general_family(path, lambda_choice=-1j * path.dtheta)
            for i in (0, 3):
                assert_bitwise(got[i], want[i])
            assert got[1:3] == (0.0, 0.0)
            h0 = hamiltonian_entries(samples[1:])
            assert_bitwise(phase_table(g.steps, h0, got),
                           phase_table(g.steps, h0, want))

    def test_reduces_to_hermitian_choice(self, theta_paths):
        _, path = theta_paths(1.0)
        herm = hermitian_realizable(path)
        lam = 2 * herm[0] * np.sin(path.theta)  # delta*sin(theta)
        family = general_family(path, lambda_choice=lam,
                                re_omega=np.zeros(path.grid.n_points))
        for f_entry, h_entry in zip(family, herm, strict=True):
            assert np.max(np.abs(f_entry - h_entry)) < 1e-12


class TestCoefficients:
    @pytest.mark.parametrize("name", ["delta", "omega"])
    def test_non_finite_entry_names_the_first_bad_t(self, name):
        grid = TimeGrid(-1.0, 1.0, 200)
        values = {"delta": np.zeros(grid.n_points),
                  "omega": np.zeros(grid.n_points, dtype=complex)}
        values[name][[101, 150]] = [np.inf, np.nan]
        with pytest.raises(NonFinite, match=rf"^{name} not finite at t=0\.01$"):
            synthesis._entries(grid, values["delta"], values["omega"])


class TestNullificationReport:
    """The two reports on a supplement's cancellation: the largest leak
    residual and the largest adiabatic-frame coupling (2,1)."""

    def test_zero_coefficients_leave_the_full_rate(self, theta_paths):
        # the residual of no supplement is i*dtheta itself
        _, path = theta_paths(0.3)
        n = path.grid.n_points
        zeros = (np.zeros(n), np.zeros(n, dtype=complex),
                 np.zeros(n, dtype=complex), np.zeros(n))
        residual = nullification_residual(path, zeros)
        assert type(residual) is float
        assert abs(residual - np.max(np.abs(path.dtheta))) < 1e-14
        assert residual > 0.1

    @pytest.mark.parametrize("gamma", [0.1, 0.3, 1.0, 3.0])
    @pytest.mark.parametrize("policy", POLICIES)
    def test_every_policy_gets_the_frame_check(self, shortcut_run, policy,
                                               gamma):
        # the residual and the frame coupling read every policy's entries;
        # the naive term cancels the leak exactly, so its residual is 0
        table = shortcut_run(gamma, policy).table
        assert table.residual <= 1e-10
        assert table.frame_check() <= 1e-6
        if policy == "naive-cd":
            assert table.residual == 0.0

    def test_frame_coupling_cancelled_but_reverse_entry_survives(
            self, shortcut_run):
        table = shortcut_run(1.0).table
        assert table.frame_check() <= 1e-6
        # the reverse coupling is allowed to survive: rebuild it explicitly
        path = table.theta
        k = path.grid.index_of(0.25)
        h = path.grid.step
        rots = [rotation(path.theta[j], (table.f_plus[j], table.f_minus[j]))
                for j in (k - 1, k, k + 1)]
        d_r = (rots[2].r - rots[0].r) / (2 * h)
        h_tot = table.scan.h[:, 0, k].reshape(2, 2)  # H0 + H1 at t_k
        frame = rots[1].r_tilde.conj().T @ h_tot @ rots[1].r \
            - 1j * rots[1].r_tilde.conj().T @ d_r
        assert abs(frame[0, 1]) > 0.01

    @pytest.mark.parametrize("gamma", [1.0, 3.0])
    def test_frame_coupling_equals_pointwise_oracle(self, shortcut_run,
                                                    gamma):
        # K_21 = (R~^dag H R - i R~^dag dR/dt)[1, 0] at every sample, with
        # column 0 of R, f_+ (c, s), differentiated analytically:
        # f_+' (c, s) + f_+ (dtheta/2) (-s, c), f_+' = Im(level) f_+
        table = shortcut_run(gamma).table
        th, g = table.theta, (table.f_plus, table.f_minus)
        rot = rotation(th.theta, g)
        c, s = np.cos(th.theta / 2.0), np.sin(th.theta / 2.0)
        d_col = (np.stack([c, s], -1) * (table.level.imag * g[0])[:, None]
                 + np.stack([-s, c], -1)
                 * (0.5 * g[0] * th.dtheta)[:, None])
        row = rot.r_tilde.conj()[:, :, 1]  # row 1 of R~^dag
        pulse, grid = ae_setup(gamma, 4000)
        h0 = np.array(np.broadcast_arrays(*hamiltonian_entries(
            sample_controls(pulse, grid)[1:])), dtype=complex)
        # H0 + H1 of the table, whose coupling cancels, and H0 alone, whose
        # coupling is the full (f_+/f_-) dtheta/2
        for h_total in (table.scan.h[:, 0], h0):
            h_mat = h_total.T.reshape(-1, 2, 2)
            image = (h_mat @ rot.r[:, :, :1])[:, :, 0] - 1j * d_col
            want = np.abs(np.sum(row * image, axis=-1))
            got = synthesis._frame_coupling(th, h_total, *g)
            assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0,
                                                             np.max(want))
            # the frame check reports the largest of them
            assert frame_coupling(th, h_total, *g) == np.max(got)
        assert np.max(want) > 1.0
        with pytest.raises(ValueError, match="4 entries per grid point"):
            frame_coupling(th, h0[:, 1:], *g)

    @pytest.mark.parametrize("gamma", [1.0, 1.9, 3.0])
    def test_differenced_coupling_converges_to_closed_form(self, gamma):
        # The frame check's earlier reading, a 4th-order difference of the
        # frame derivative, minus the closed form falls 16x per step
        # doubling (2000 -> 4000 -> 8000) while the closed form stays at
        # round-off: the closed form is the limit the old check approached.
        errors = []
        for steps in (2000, 4000, 8000):
            table = shortcut_table(*ae_setup(gamma, steps))
            h_total = table.scan.h[:, 0]
            g = table.f_plus, table.f_minus
            closed = synthesis._frame_coupling(table.theta, h_total, *g)
            old = differenced_frame_coupling(table.theta, h_total, g)
            assert np.max(closed) <= 1e-13
            errors.append(np.max(np.abs(old - closed)[2:-2]))
        orders = np.log2(np.array(errors[:-1]) / errors[1:])
        assert np.all(np.abs(orders - 4.0) <= 0.2)

    @pytest.mark.parametrize("gamma", [0.1, 1.0, 3.0])
    def test_shifted_drive_fails_the_frame_check(self, shortcut_run, gamma):
        # W -> W + 4e-6 i leaves a leak 4e-6 i, a coupling of about
        # 2e-6 f_+/f_- against the bound 1e-6
        table = shortcut_run(gamma).table
        h_total = np.array(table.scan.h[:, 0])
        g = table.f_plus, table.f_minus
        assert frame_coupling(table.theta, h_total, *g) <= 1e-6
        h_total[1] += 2e-6j  # h01 = W/2
        h_total[2] -= 2e-6j  # h10 = conj(W)/2
        assert frame_coupling(table.theta, h_total, *g) > 1e-6


class TestClosedForm:
    def test_lossless_amplitude_is_pure_phase(self, shortcut_run):
        table = shortcut_run(0.0).table
        g = table.closed_form()
        assert np.max(np.abs(np.abs(g) - 1.0)) < 1e-12
        from scipy.integrate import cumulative_trapezoid
        e_plus, _ = table_eigenvalues(ae_setup(0.0, 4000)[0], table)
        want = np.exp(-1j * cumulative_trapezoid(e_plus,
                                                 dx=table.grid.step,
                                                 initial=0.0))
        assert np.max(np.abs(g - want)) < 1e-12

    @pytest.mark.parametrize("gamma", [0.0, 0.1, 0.3, 1.0, 3.0, 10.0])
    @pytest.mark.parametrize("policy", POLICIES)
    def test_matches_propagated_amplitude(self, shortcut_run, policy, gamma):
        # one frame-diagonal formula gives every policy a pure phase that
        # the propagated amplitude follows
        run = shortcut_run(gamma, policy)
        closed = run.table.closed_form()
        assert np.max(np.abs(np.abs(closed) - 1.0)) <= 1e-15
        assert np.max(np.abs(run.g_plus - closed)) <= 1e-5

    @pytest.mark.parametrize("gamma", [0.0, 0.1, 0.3, 1.0, 3.0, 10.0])
    def test_hermitian_equals_delta_cos_theta_form(self, theta_paths, gamma):
        # the frame diagonal d_+ reduces to delta*cos(theta)/2 when Re[W] = 0
        pulse, path = theta_paths(gamma)
        e_plus, _ = path_eigenvalues(pulse, path)
        h1 = hermitian_realizable(path)
        level = shifted_level(e_plus, h1, path)
        # Im[level] is the integrand (df_+/dt)/f_+ of the matched gauge
        want = hermitian_closed_form_gplus(e_plus, level.imag, h1, path)
        got = closed_form_gplus(level, path.grid)
        assert np.max(np.abs(got - want)) <= 1e-15


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
        pulse, grid = ae_setup(gamma, 1000)
        quarter = grid.refine(4)
        theta_q = mixing_angle_path(pulse, quarter)
        if policy == "naive-cd":
            want = diagonal_freedom_cd(theta_q)
        elif policy == "hermitian-realizable":
            h1 = hermitian_realizable(theta_q)
            delta, omega = 2 * h1[0], 2 * h1[1]
            # the two-field form carried a common diagonal shift of 0.0
            want = self.two_field_h1(delta + 0.0, -delta + 0.0, omega)
        else:
            # the two-field form's zero drive was an array of complex zeros
            delta = 2 * general_family_omega_zero(theta_q)[0]
            want = self.two_field_h1(delta, -delta,
                                     np.zeros(quarter.n_points, dtype=complex))
        want += hamiltonian(pulse, quarter.samples)
        table = shortcut_table(pulse, grid, policy=policy)
        h = table.scan.h  # [c, p, k] is entry c of quarter-step row 4k + p
        got = h.transpose(2, 1, 0).reshape(-1, 2, 2)[:4 * grid.steps + 1]
        assert_bitwise(got, want)

    @pytest.mark.parametrize("steps", [1000, 1001])
    @pytest.mark.parametrize("policy", ["hermitian-realizable",
                                        "general-omega-zero", "naive-cd"])
    def test_frame_check_reads_the_table_h_bitwise(self, monkeypatch, steps,
                                                   policy):
        seen = []
        kernel = synthesis._frame_coupling

        def record(theta_path, h_total, f_plus, f_minus):
            seen.append(np.array(h_total))
            return kernel(theta_path, h_total, f_plus, f_minus)

        monkeypatch.setattr(synthesis, "_frame_coupling", record)
        pulse, grid = ae_setup(1.0, steps)
        table = shortcut_table(pulse, grid, policy=policy)
        assert seen == []  # the frame check runs on request only
        table.frame_check()
        assert len(seen) == 1
        want = (hamiltonian(pulse, grid.samples)
                + assemble_h1_series(table_entries(pulse, grid, policy)))
        assert_bitwise(seen[0], want.reshape(-1, 4).T)
