"""Acceptance gate: the eight end-to-end criteria at their pinned tolerances.

Each test prints the measured values next to the bound it asserts, so a
verbose run reads as a pass/fail report.
"""
import numpy as np
import pytest

from conftest import analytic_two_level_systems, ae_params
from nhsta.biorthogonal import decompose, reconstruct
from nhsta.errors import DegenerateRegime, DegenerateSpectrum
from nhsta.grids import TimeGrid
from nhsta.propagation import integrate
from nhsta.synthesis import hermitian_realizable
from nhsta.two_level import (allen_eberly, classify_regime, eigenvalue_path,
                             radicand)
from oracles import (EigenPath, counterdiabatic_generic,
                     left_right_derivative_identity, rotation)

GAMMAS = (0.1, 0.3, 1.0)


def report(name, measured, bound):
    print(f"  {name}: measured {measured:.3e}  (bound {bound:g})")


def test_criterion_1_supplement_cancels_the_leak_exactly(shortcut_run):
    """Algebraic residual <= 1e-10 and frame coupling entry <= 1e-6."""
    for gamma in GAMMAS:
        check = shortcut_run(gamma).frame_check()
        residual = check.max_abs_residual
        coupling = float(np.max(check.frame_coupling))
        report(f"gamma={gamma} residual", residual, 1e-10)
        report(f"gamma={gamma} frame coupling (2,1)", coupling, 1e-6)
        assert residual <= 1e-10
        assert coupling <= 1e-6
    print("criterion 1: PASS")


def test_criterion_2_reference_amplitude_trapped(shortcut_run):
    """|g-| <= 1e-5, |g+|^2 in [0.95, 1.05], closed form vs ODE <= 1e-5."""
    for gamma in GAMMAS:
        run = shortcut_run(gamma)
        g_minus = float(np.max(np.abs(run.amps.g_minus)))
        g_plus_sq = run.amps.pop_phi_plus
        closed_dev = float(np.max(np.abs(run.amps.g_plus - run.g_plus_closed)))
        report(f"gamma={gamma} max |g-|", g_minus, 1e-5)
        report(f"gamma={gamma} closed-form deviation", closed_dev, 1e-5)
        print(f"  gamma={gamma} |g+|^2 range "
              f"[{g_plus_sq.min():.8f}, {g_plus_sq.max():.8f}] (bound [0.95, 1.05])")
        assert g_minus <= 1e-5
        assert g_plus_sq.min() >= 0.95
        assert g_plus_sq.max() <= 1.05
        assert closed_dev <= 1e-5
    print("criterion 2: PASS")


def test_criterion_3_population_inversion(shortcut_run):
    """Renormalized ground weight <= 0.01 at the end, excited weight > 0."""
    run = shortcut_run(1.0)
    p0 = run.amps.pop_bare_0_renorm[-1]
    p1 = run.amps.pop_bare_1[-1]
    report("renormalized P0(t_f)", p0, 0.01)
    report("P1(t_f)", p1, 0.0)
    assert p0 <= 0.01
    assert p1 > 0.0
    print("criterion 3: PASS")


def test_criterion_4_branch_regimes():
    """Radicand stays right of the cut sub-critically, crosses it above."""
    grid = TimeGrid(-1.0, 1.0, 4000)
    z_sub = radicand(allen_eberly(ae_params(0.3)), grid.samples)
    report("min Re Z (gamma=0.3)", float(np.min(z_sub.real)), 0.0)
    assert np.min(z_sub.real) > 0.0

    z_sup = radicand(allen_eberly(ae_params(3.0)), grid.samples)
    mid = grid.index_of(0.0)
    report("Re Z(0) (gamma=3)", float(z_sup.real[mid]), 0.0)
    assert z_sup.real[mid] < 0.0
    assert z_sup.imag[mid] == 0.0

    with pytest.raises(DegenerateRegime):
        classify_regime(1.0, 2.0)
    print("criterion 4: PASS")


def test_criterion_5_mixing_angle_endpoints(theta_paths):
    """Angle sweeps 0 -> pi sub-critically, barely moves super-critically."""
    _, sub = theta_paths(0.3)
    start = abs(sub.theta[0].real)
    end = abs(sub.theta[-1].real - np.pi)
    report("|Re theta(t0)| (gamma=0.3)", start, 0.15)
    report("|Re theta(t_f) - pi| (gamma=0.3)", end, 0.15)
    assert start <= 0.15
    assert end <= 0.15

    _, sup = theta_paths(3.0)
    real_var = float(np.max(np.abs(sup.theta.real - sup.theta[0].real)))
    full_var = float(np.max(np.abs(sup.theta - sup.theta[0])))
    report("max |Re theta - Re theta(t0)| (gamma=3)", real_var, 0.5)
    print(f"  [diagnostic] complex-modulus variation: {full_var:.4f} "
          f"(imaginary dip artanh(2/3) = {np.arctanh(2/3):.4f})")
    assert real_var < 0.5

    _, lossless = theta_paths(0.0)
    im_max = float(np.max(np.abs(lossless.theta.imag)))
    report("max |Im theta| (gamma=0)", im_max, 1e-12)
    assert im_max <= 1e-12
    print("criterion 5: PASS")


def test_criterion_6_biorthogonal_formalism(shortcut_run, theta_paths):
    """Decomposition invariants, derivative-pair identity, frame inverse."""
    rng = np.random.default_rng(97)
    bio = comp = rtrip = 0.0
    count = 0
    while count < 200:
        dim = int(rng.integers(2, 5))
        radius = np.sqrt(rng.uniform(0, 1, (dim, dim)))
        phase = rng.uniform(0, 2 * np.pi, (dim, dim))
        m = radius * np.exp(1j * phase)  # entries uniform in the unit disc
        try:
            sys_ = decompose(m, degeneracy_threshold=1e-6)
        except DegenerateSpectrum:
            continue
        count += 1
        bio = max(bio, sys_.biorthogonality_defect())
        comp = max(comp, sys_.completeness_defect())
        rtrip = max(rtrip, float(np.max(np.abs(reconstruct(sys_) - m))))
    report("biorthogonality defect (200 matrices)", bio, 1e-10)
    report("completeness defect", comp, 1e-10)
    report("reconstruction round trip", rtrip, 1e-10)
    assert bio <= 1e-10
    assert comp <= 1e-10
    assert rtrip <= 1e-10

    pulse, path = theta_paths(1.0)
    e_plus, e_minus = eigenvalue_path(pulse, path.grid, path.regime)
    gpath = EigenPath.from_systems(
        path.grid, analytic_two_level_systems(path, e_plus, e_minus))
    bound = 10.0 * path.grid.step**2
    worst_pair = 0.0
    for k in (500, 2000, 3500):
        for n, m in ((0, 1), (1, 0)):
            first, second = left_right_derivative_identity(gpath, k, n, m)
            worst_pair = max(worst_pair, abs(first - second))
    report("derivative-pair identity", worst_pair, bound)
    assert worst_pair <= bound

    worst_inv = 0.0
    for gamma in GAMMAS:
        run = shortcut_run(gamma)
        for k in range(0, run.grid.n_points, 10):
            fr = rotation(run.theta.theta[k],
                          (run.gauges.f_plus[k], run.gauges.f_minus[k]))
            worst_inv = max(worst_inv, fr.inverse_defect())
    report("frame inverse defect", worst_inv, 1e-12)
    assert worst_inv <= 1e-12
    print("criterion 6: PASS")


def _cd_series_two_level(theta_path):
    """Vectorized finite-difference counterdiabatic matrices on the closed-
    form eigenvector path (same arithmetic as the generic per-index op)."""
    th = theta_path.theta
    c, s = np.cos(th / 2.0), np.sin(th / 2.0)
    n = len(th)
    right = np.empty((n, 2, 2), dtype=complex)
    right[:, 0, 0], right[:, 0, 1] = c, s
    right[:, 1, 0], right[:, 1, 1] = s, -c
    # the left partners carry conjugated entries, so left^dag = right^T
    left_dag = right.transpose(0, 2, 1)
    h = theta_path.grid.step
    d_right = (right[2:] - right[:-2]) / (2.0 * h)
    a = np.matmul(left_dag[1:-1], d_right)
    a[:, 0, 0] = 0.0
    a[:, 1, 1] = 0.0
    return 1j * np.matmul(np.matmul(right[1:-1], a), left_dag[1:-1])


def test_criterion_7_generic_and_closed_form_agree(theta_paths):
    """Finite-difference construction matches the closed form to 1e-6."""
    pulse, path = theta_paths(1.0, steps=64000)
    cd = _cd_series_two_level(path)
    want = np.zeros_like(cd)
    want[:, 0, 1] = -0.5j * path.dtheta[1:-1]
    want[:, 1, 0] = 0.5j * path.dtheta[1:-1]
    worst = float(np.max(np.abs(cd - want)))
    report("generic vs closed-form supplement (gamma=1)", worst, 1e-6)
    assert worst <= 1e-6

    # the vectorized series equals the per-index generic op
    pulse4, path4 = theta_paths(1.0, steps=4000)
    ep4, em4 = eigenvalue_path(pulse4, path4.grid, path4.regime)
    gpath = EigenPath.from_systems(
        path4.grid, analytic_two_level_systems(path4, ep4, em4))
    cd4 = _cd_series_two_level(path4)
    for k in (123, 2000, 3777):
        direct = counterdiabatic_generic(gpath, k)
        assert np.max(np.abs(direct - cd4[k - 1])) < 1e-13

    _, lossless = theta_paths(0.0, steps=64000)
    cd0 = _cd_series_two_level(lossless)
    herm_defect = float(np.max(np.abs(cd0 - np.conj(cd0).transpose(0, 2, 1))))
    report("lossless hermiticity (generic)", herm_defect, 1e-8)
    assert herm_defect <= 1e-8

    coeffs = hermitian_realizable(lossless)
    realizable = np.zeros_like(cd0)
    realizable[:, 0, 0] = 0.5 * coeffs.delta[1:-1]
    realizable[:, 1, 1] = 0.5 * -coeffs.delta[1:-1]
    realizable[:, 0, 1] = 0.5 * coeffs.omega[1:-1]
    realizable[:, 1, 0] = 0.5 * np.conj(coeffs.omega[1:-1])
    want0 = np.zeros_like(cd0)
    want0[:, 0, 1] = -0.5j * lossless.dtheta[1:-1]
    want0[:, 1, 0] = 0.5j * lossless.dtheta[1:-1]
    coincide = float(np.max(np.abs(realizable - want0)))
    report("lossless realizable vs closed-form supplement", coincide, 1e-10)
    assert coincide <= 1e-10
    print("criterion 7: PASS")


def test_criterion_8_integrator_certification(shortcut_run):
    """RK4 order, exact decay, and step-halving on the engineered run."""
    h_rabi = 0.5 * np.array([[0, 1], [1, 0]], dtype=complex)
    psi0 = np.array([1, 0], dtype=complex)

    def rabi_error(steps):
        traj = integrate(lambda t: h_rabi, psi0, TimeGrid(0.0, 10.0, steps))
        exact = np.array([np.cos(5.0), -1j * np.sin(5.0)])
        return float(np.max(np.abs(traj.psi[-1] - exact)))

    e1, e2, e3 = rabi_error(250), rabi_error(500), rabi_error(1000)
    for ratio in (e1 / e2, e2 / e3):
        report("halving error ratio (ideal 16)", ratio, 32)
        assert 8.0 <= ratio <= 32.0

    h_decay = 0.5 * np.array([[0, 0], [0, -1j]], dtype=complex)
    traj = integrate(lambda t: h_decay, np.array([0, 1], dtype=complex),
                     TimeGrid(0.0, 2.0, 4000))
    rel = abs(abs(traj.psi[-1, 1]) - np.exp(-1.0)) / np.exp(-1.0)
    report("exponential decay relative error", rel, 1e-8)
    assert rel <= 1e-8

    conv = shortcut_run(1.0).convergence
    report("step-halving on the engineered run", conv, 1e-7)
    assert conv <= 1e-7
    print("criterion 8: PASS")
