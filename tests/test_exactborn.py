import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from slabscat.amp2d import ScatteringConfig2D, c_factor, f1_2d, f2_2d, s_factor
from slabscat.exactborn import Ex1Params, ex1_exact, ex1_f1
from slabscat.numerics import DomainError, integrate_1d
from slabscat.profiles import ex1_profile, moment_2d

from oracles import ex1_f2, extract_series_coefficients, x_function

Z, ALPHA, LW = 0.3, 2.0, 1.0
PROF = ex1_profile(Z, ALPHA, LW)
PARAMS = Ex1Params(z=Z, alpha=ALPHA, L=LW)


def chi_oracle(sigma, sigma0, xi):
    # defining momentum-window integral, evaluated numerically
    lo, hi = sigma0 + xi, sigma - xi
    if hi <= lo:
        return 0.0
    val, _ = quad(
        lambda u: (xi - sigma + u) * (xi + sigma0 - u) / np.sqrt(1.0 - u * u),
        lo,
        hi,
        epsabs=1e-13,
        epsrel=1e-12,
    )
    return val


def test_ex1_params_validation():
    with pytest.raises(DomainError):
        Ex1Params(z=0.1, alpha=-1.0, L=1.0)
    with pytest.raises(DomainError):
        Ex1Params(z=0.1, alpha=1.0, L=0.0)
    for z, alpha, L in ((0.1, 1.0, np.inf), (0.1, np.inf, 1.0), (np.nan, 2.0, 1.0)):
        with pytest.raises(DomainError, match="finite"):
            Ex1Params(z=z, alpha=alpha, L=L)


def test_exact_amplitude_invisibility_below_half_alpha():
    cfg = ScatteringConfig2D(k=ALPHA / 2.0, ell=0.1, theta0=4 * np.pi / 3)
    for theta in (0.3, np.pi / 3, 2.7):
        assert ex1_exact(PARAMS, cfg, theta) == 0.0


def test_exact_amplitude_validity_gate():
    cfg = ScatteringConfig2D(k=1.01 * ALPHA, ell=0.1, theta0=4 * np.pi / 3)
    with pytest.raises(DomainError):
        ex1_exact(PARAMS, cfg, np.pi / 3)


def test_exact_amplitude_leading_order_ratio():
    k = 1.6
    cfg = ScatteringConfig2D(k=k, ell=1e-3 / k, theta0=4 * np.pi / 3)
    theta = np.pi / 3
    exact = ex1_exact(PARAMS, cfg, theta)
    lead = f1_2d(PROF, cfg, theta) * cfg.kl
    assert abs(exact / lead - 1.0) < 1e-3


def _born_amplitude(cfg, theta):
    # f = -vv / (2 sqrt(2 pi)), vv = -k^2 ell INT_0^1 e^{-i ell p_x x} w~(x, p_y) dx;
    # ex1 is uniform in x, so w~(x, p_y) is its moment m_0(p_y) throughout
    k, ell = cfg.k, cfg.ell
    p_x = k * c_factor(theta, cfg.theta0)
    p_y = k * s_factor(theta, cfg.theta0)
    axial = integrate_1d(lambda x: np.exp(-1j * ell * p_x * x), 0.0, 1.0)
    vv = -(k * k) * ell * axial * moment_2d(PROF, 0, p_y, k)
    return -vv / (2.0 * np.sqrt(2.0 * np.pi))


def test_ex1_exact_matches_ttv_route():
    # the closed amplitude against a quadrature of the exact Born formula
    for kl in (0.05, 0.2, 0.4):
        cfg = ScatteringConfig2D(k=1.6, ell=kl / 1.6, theta0=4 * np.pi / 3)
        a = ex1_exact(PARAMS, cfg, np.pi / 3)
        assert_allclose(a, _born_amplitude(cfg, np.pi / 3), rtol=1e-10)


def test_ex1_exact_series_branch_continuity():
    # just above and below the series switch |k ell c| = 1e-4
    k = 1.6
    theta, theta0 = np.pi / 3, 4 * np.pi / 3  # c = 1
    for kl in (0.9999e-4, 1.0001e-4):
        cfg = ScatteringConfig2D(k=k, ell=kl / k, theta0=theta0)
        a = ex1_exact(PARAMS, cfg, theta)
        bracket = 1j * (np.exp(-1j * kl) - 1.0)  # c = 1 exactly here
        expect = bracket * ex1_f1(PARAMS, cfg, theta)
        assert_allclose(a, expect, rtol=1e-12)


def test_ex1_closed_forms_against_generic_path():
    # above the support threshold the arcsine bracket is live; compare with
    # the generic moment/quadrature route
    k = 1.25 * ALPHA  # xi = 0.8
    theta = np.deg2rad(75.0)
    theta0 = np.deg2rad(290.0)
    cfg = ScatteringConfig2D(k=k, ell=0.05, theta0=theta0)
    assert s_factor(theta, theta0) > 2 * ALPHA / k  # bracket really live
    f1_closed = ex1_f1(PARAMS, cfg, theta)
    f2_closed = ex1_f2(PARAMS, cfg, theta)
    assert_allclose(f1_closed, f1_2d(PROF, cfg, theta), rtol=1e-6)
    assert_allclose(f2_closed, f2_2d(PROF, cfg, theta), rtol=1e-6)
    assert f2_closed.real != 0.0 or f2_closed.imag != 0.0


def test_ex1_coefficients_vanish_for_wrong_half_planes():
    cfg = ScatteringConfig2D(k=ALPHA, ell=0.05, theta0=np.pi / 4)  # theta0 in (0, pi)
    for theta in (0.5, 2.0):
        assert ex1_f1(PARAMS, cfg, theta) == 0.0
        assert ex1_f2(PARAMS, cfg, theta) == 0.0
    cfg2 = ScatteringConfig2D(k=ALPHA, ell=0.05, theta0=4 * np.pi / 3)
    for theta in (3.5, 5.0):  # theta in (pi, 2 pi)
        assert ex1_f1(PARAMS, cfg2, theta) == 0.0
        assert ex1_f2(PARAMS, cfg2, theta) == 0.0


def test_ex1_second_order_identity_closed_form():
    for k in (0.7 * ALPHA, ALPHA):
        cfg = ScatteringConfig2D(k=k, ell=0.05, theta0=4 * np.pi / 3)
        for theta in (np.pi / 3, 1.0):
            f1 = ex1_f1(PARAMS, cfg, theta)
            f2 = ex1_f2(PARAMS, cfg, theta)
            assert_allclose(f2, -0.5j * c_factor(theta, cfg.theta0) * f1, rtol=1e-12)


def test_ex1_moment_halving():
    p = np.array([2.5, 3.5])
    assert_allclose(
        moment_2d(PROF, 0, p, 1.0), 2.0 * moment_2d(PROF, 1, p, 1.0), rtol=1e-13
    )


def test_x_function_gates():
    assert x_function(0.9, -0.9, 1.0) == 0.0  # xi >= 1
    assert x_function(0.9, -0.9, 1.5) == 0.0
    assert x_function(0.3, 0.2, 0.4) == 0.0  # window shut
    # array input
    vals = x_function(np.array([0.9, 0.3]), np.array([-0.9, 0.2]), 0.5)
    assert vals.shape == (2,)
    assert vals[1] == 0.0


def test_x_function_against_quadrature_oracle():
    got = x_function(0.9, -0.9, 0.5)
    assert_allclose(got, chi_oracle(0.9, -0.9, 0.5), rtol=1e-9)
    rng = np.random.default_rng(314)
    checked = 0
    while checked < 8:
        sigma = rng.uniform(-1.0, 1.0)
        sigma0 = rng.uniform(-1.0, 1.0)
        xi = rng.uniform(0.05, 1.0)
        if sigma - sigma0 <= 2 * xi + 0.05:
            continue
        assert_allclose(
            x_function(sigma, sigma0, xi), chi_oracle(sigma, sigma0, xi), rtol=1e-8
        )
        checked += 1


def test_x_function_window_boundary_continuity():
    sigma, xi = 0.5, 0.2
    edge = sigma - 2 * xi
    inside = x_function(sigma, edge - 1e-9, xi)
    outside = x_function(sigma, edge + 1e-9, xi)
    assert abs(inside) < 1e-8
    assert outside == 0.0


def test_series_extraction_matches_order_coefficients():
    # recover f1, f2 from the exact amplitude by Richardson extrapolation in
    # the thickness and compare with the closed-order formulas
    k = 0.8 * ALPHA
    theta, theta0 = np.pi / 3, 4 * np.pi / 3

    def amp(ell):
        cfg = ScatteringConfig2D(k=k, ell=ell, theta0=theta0)
        return ex1_exact(PARAMS, cfg, theta)

    f1_est, f2_est = extract_series_coefficients(amp, k, ell_max=0.2 / k)
    cfg = ScatteringConfig2D(k=k, ell=0.1, theta0=theta0)
    assert_allclose(f1_est, f1_2d(PROF, cfg, theta), rtol=1e-5)
    assert_allclose(f2_est, f2_2d(PROF, cfg, theta), rtol=1e-5)
    for k_bad, ell_max in ((k, 0.0), (k, -1.0), (k, np.nan), (k, np.inf), (-k, -0.1)):
        with pytest.raises(DomainError, match="k \\* ell_max must be positive and finite"):
            extract_series_coefficients(amp, k_bad, ell_max)


def test_truncation_error_is_third_order():
    k = 0.8 * ALPHA
    theta, theta0 = np.pi / 3, 4 * np.pi / 3
    us = np.geomspace(0.01, 0.3, 9)
    diffs = []
    for u in us:
        cfg = ScatteringConfig2D(k=k, ell=u / k, theta0=theta0)
        exact = ex1_exact(PARAMS, cfg, theta)
        trunc = ex1_f1(PARAMS, cfg, theta) * u + ex1_f2(PARAMS, cfg, theta) * u * u
        diffs.append(abs(exact - trunc))
    slope = np.polyfit(np.log(us), np.log(diffs), 1)[0]
    assert 2.8 <= slope <= 3.2
