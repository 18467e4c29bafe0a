"""The pulse file's not-a-knot cubic spline and the pulse built from it."""
import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from nhsta.config import ExperimentConfig
from nhsta.readers import cubic_spline


def uneven_knots(rng, n, span=(-1.0, 1.0)):
    x = np.sort(rng.uniform(*span, n))
    assert np.all(np.diff(x) > 0)
    return x


def piece_polynomials(x, value, k):
    """Cubics fitted to the spline's values inside pieces k - 1 and k, in
    powers of t - x[k]."""
    fits = []
    for lo, hi in ((x[k - 1], x[k]), (x[k], x[k + 1])):
        ts = lo + (hi - lo) * np.linspace(0.0, 0.9, 6)
        fits.append(np.polynomial.Polynomial.fit(
            ts - x[k], value(ts), 3, window=[-1, 1]).convert())
    return fits


@pytest.mark.parametrize("n", [4, 5, 801])
def test_knots_reproduce_the_table_exactly(n):
    rng = np.random.default_rng(n)
    x, y = uneven_knots(rng, n), rng.normal(size=n)
    value, _ = cubic_spline(x, y)
    assert np.array_equal(value(x), y)
    assert [float(value(t)) for t in x] == y.tolist()  # scalar t too


@pytest.mark.parametrize("n", [4, 7, 50])
def test_cubic_polynomial_reproduced(n):
    # the not-a-knot end conditions hold for a cubic, so the spline is it
    rng = np.random.default_rng(n)
    x = uneven_knots(rng, n)
    cubic = np.polynomial.Polynomial([0.3, -1.2, 2.5, 4.0])
    value, rate = cubic_spline(x, cubic(x))
    ts = np.linspace(x[0], x[-1], 1001)
    assert np.max(np.abs(value(ts) - cubic(ts))) < 1e-13
    assert np.max(np.abs(rate(ts) - cubic.deriv()(ts))) < 1e-12


def test_twice_continuously_differentiable_at_interior_knots():
    rng = np.random.default_rng(3)
    x, y = uneven_knots(rng, 12, span=(0.0, 6.0)), rng.normal(size=12)
    value, rate = cubic_spline(x, y)
    scale = np.max(np.abs(y))
    for k in range(1, len(x) - 1):
        left, right = piece_polynomials(x, value, k)
        for order in (0, 1, 2):
            assert left.deriv(order)(0.0) == pytest.approx(
                right.deriv(order)(0.0), abs=1e-9 * scale), (k, order)
        assert rate(x[k]) == pytest.approx(right.deriv()(0.0), abs=1e-9 * scale)
    # not-a-knot: the third derivative does not jump at x[1] and x[-2]
    for k in (1, len(x) - 2):
        left, right = piece_polynomials(x, value, k)
        assert left.deriv(3)(0.0) == pytest.approx(right.deriv(3)(0.0),
                                                   rel=1e-7)


@pytest.mark.parametrize("n", [4, 6, 801])
def test_matches_scipy_not_a_knot_spline(n):
    rng = np.random.default_rng(100 + n)
    x, y = uneven_knots(rng, n), rng.normal(size=n)
    value, rate = cubic_spline(x, y)
    oracle = CubicSpline(x, y, bc_type="not-a-knot")
    ts = np.concatenate([x, rng.uniform(x[0], x[-1], 5000)])
    assert np.max(np.abs(value(ts) - oracle(ts))) <= 1e-12 * np.max(
        np.abs(oracle(ts)))
    assert np.max(np.abs(rate(ts) - oracle(ts, 1))) <= 1e-12 * np.max(
        np.abs(oracle(ts, 1)))


def test_tabulated_pulse_carries_the_splines_and_a_constant_gamma(tmp_path):
    ts = np.linspace(-1.0, 1.0, 201)
    table = np.column_stack([ts, 1.0 / np.cosh(ts), 9.0 * np.tanh(ts)])
    np.savetxt(tmp_path / "pulse.csv", table, delimiter=",")
    cfg = ExperimentConfig(pulse_file=str(tmp_path / "pulse.csv"))
    pulse = cfg.pulse_for(0.7)
    t = np.linspace(-1.0, 1.0, 1001)
    assert np.max(np.abs(pulse.omega_r(t) - 1.0 / np.cosh(t))) < 1e-9
    assert np.max(np.abs(pulse.delta(t) - 9.0 * np.tanh(t))) < 1e-8
    # the rates' error is third order in the spacing, largest at the ends
    assert np.max(np.abs(pulse.d_omega_r(t) + np.tanh(t) / np.cosh(t))) < 2e-6
    assert np.max(np.abs(pulse.d_delta(t) - 9.0 / np.cosh(t) ** 2)) < 2e-6
    assert type(pulse.gamma) is float and pulse.gamma == 0.7
    # every decay rate's pulse shares the one fit
    assert cfg.pulse_for(3.0).omega_r is pulse.omega_r


def test_config_file_reads_negative_zero_decay_rate_as_zero(tmp_path):
    # the flag and the config file share the gamma list's parser
    from nhsta.readers import parse_config_file
    cfg = tmp_path / "zero.cfg"
    cfg.write_text("gamma = -0, 1e-300, -0.0\n")
    gammas = parse_config_file(str(cfg))["gamma_list"]
    assert [np.copysign(1.0, g) for g in gammas] == [1.0, 1.0, 1.0]
    assert gammas == (0.0, 1e-300, 0.0)
