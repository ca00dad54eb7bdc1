import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from slabscat.amp2d import (
    AmplitudeResult,
    ScatteringConfig2D,
    amplitude_2d,
    c_factor,
    f1_2d,
    f2_2d,
    s_factor,
)
from slabscat.numerics import DomainError
from slabscat.profiles import (
    Profile2D,
    ex1_profile,
    gaussian_slab_2d,
    moment_2d,
    separable_profile,
)

Z, ALPHA, LW = 0.3, 2.0, 1.0

ZERO = Profile2D(
    eval=lambda xf, y, k: np.zeros(np.broadcast(xf, y).shape, dtype=complex),
    decay_radius=5.0,
    descriptor="zero",
)


def test_angle_factors():
    assert s_factor(0.8, 0.8) == 0.0
    assert c_factor(0.8, 0.8) == 0.0
    assert_allclose(s_factor(np.pi / 3, 4 * np.pi / 3), np.sqrt(3.0), rtol=1e-15)
    assert_allclose(c_factor(np.pi / 3, 4 * np.pi / 3), 1.0, rtol=1e-15)
    assert_allclose(s_factor(0.0, np.pi), 0.0, atol=1e-15)
    assert_allclose(c_factor(0.0, np.pi), 2.0, rtol=1e-15)


def test_config_validation():
    with pytest.raises(DomainError):
        ScatteringConfig2D(k=-1.0, ell=1.0, theta0=0.0)
    with pytest.raises(DomainError):
        ScatteringConfig2D(k=1.0, ell=0.0, theta0=0.0)
    for k, ell in ((np.inf, 1.0), (1.0, np.inf)):
        with pytest.raises(DomainError, match="finite"):
            ScatteringConfig2D(k=k, ell=ell, theta0=0.0)
    with pytest.raises(DomainError):
        ScatteringConfig2D(k=1.0, ell=1.0, theta0=np.pi / 2)
    for bad in (np.nan, np.inf):
        with pytest.raises(DomainError, match="finite"):
            ScatteringConfig2D(k=1.0, ell=1.0, theta0=bad)
    cfg = ScatteringConfig2D(k=2.0, ell=0.25, theta0=np.pi)
    assert_allclose(cfg.kl, 0.5)
    assert_allclose(cfg.p0, 2.0 * np.sin(np.pi), atol=1e-15)
    assert_allclose(cfg.varpi0, 2.0)
    with pytest.raises(DomainError):
        f1_2d(gaussian_slab_2d(1.0, 1.0), cfg, np.pi / 2)
    with pytest.raises(DomainError, match="finite"):
        f1_2d(gaussian_slab_2d(1.0, 1.0), cfg, np.array([0.3, np.nan]))


def test_zero_profile_zero_amplitudes():
    cfg = ScatteringConfig2D(k=1.0, ell=0.1, theta0=0.2)
    assert f1_2d(ZERO, cfg, 1.0) == 0.0
    assert f2_2d(ZERO, cfg, 1.0) == 0.0
    res = amplitude_2d(ZERO, cfg, 1.0, order=2)
    assert res.truncated == 0.0
    assert abs(res.truncated) ** 2 == 0.0


def test_ex1_invisibility_below_half_alpha():
    prof = ex1_profile(Z, ALPHA, LW)
    cfg = ScatteringConfig2D(k=ALPHA / 2.0, ell=0.05, theta0=4 * np.pi / 3)
    for theta in (0.1, np.pi / 3, 2.9, 4.0):
        assert f1_2d(prof, cfg, theta) == 0.0
        assert abs(amplitude_2d(prof, cfg, theta, order=2).truncated) ** 2 == 0.0


def test_ex1_f1_frozen_value():
    # independent hand substitution into the one-sided closed form
    # (k = alpha, theta0 = 11 pi / 6, theta = pi / 3) gives
    # f1 = -sqrt(pi/2) z K^2 (s - 1) e^{K (1 - s)}, s = (sqrt(3) + 1)/2
    prof = ex1_profile(Z, ALPHA, LW)
    cfg = ScatteringConfig2D(k=ALPHA, ell=0.05, theta0=11 * np.pi / 6)
    got = f1_2d(prof, cfg, np.pi / 3)
    assert_allclose(got, -0.2647444026161961, rtol=1e-12, atol=1e-15)


def test_ex1_second_order_identity_and_vanishing_integrand():
    # for the one-sided class with k <= alpha the phi-integral term vanishes
    # pointwise and f2 = -(i/2) c f1
    prof = ex1_profile(Z, ALPHA, LW)
    for k in (0.8 * ALPHA, ALPHA):
        cfg = ScatteringConfig2D(k=k, ell=0.05, theta0=4 * np.pi / 3)
        for theta in (np.pi / 3, 0.4, 2.8):
            f1 = f1_2d(prof, cfg, theta)
            f2 = f2_2d(prof, cfg, theta)
            expect = -0.5j * c_factor(theta, cfg.theta0) * f1
            assert_allclose(f2, expect, rtol=1e-12, atol=1e-15)
            phi = np.linspace(-np.pi / 2 + 1e-3, np.pi / 2 - 1e-3, 41)
            integrand = moment_2d(prof, 0, k * s_factor(theta, phi), k) * moment_2d(
                prof, 0, k * s_factor(phi, cfg.theta0), k
            )
            assert np.max(np.abs(integrand)) < 1e-14


def test_f2_gaussian_forward_term_against_riemann_oracle():
    # theta = theta0 kills the first term; the rest is the phi-integral,
    # which has the closed integrand (z sqrt(2 pi) L)^2
    # exp(-(Lk)^2 [(sin t - sin p)^2 + (sin p - sin t0)^2] / 2)
    z, L, k = 0.5, 1.0, 1.3
    theta = theta0 = 0.3
    prof = gaussian_slab_2d(z, L)
    cfg = ScatteringConfig2D(k=k, ell=0.1, theta0=theta0)
    got = f2_2d(prof, cfg, theta)

    n = 1_000_000
    phi = -np.pi / 2 + (np.arange(n) + 0.5) * np.pi / n
    pref = (z * np.sqrt(2 * np.pi) * L) ** 2
    vals = pref * np.exp(
        -0.5
        * (L * k) ** 2
        * ((np.sin(theta) - np.sin(phi)) ** 2 + (np.sin(phi) - np.sin(theta0)) ** 2)
    )
    riemann = np.sum(vals) * np.pi / n
    oracle = 1j * k / (2 * np.sqrt(2 * np.pi)) * (k / (4 * np.pi)) * riemann
    assert_allclose(got, oracle, rtol=1e-7)


def test_f2_scaling_structure():
    # f2(c w) = c T1 + c^2 T2: extract T1, T2 from c = 1, 2 and predict c = 3
    L, k = 1.2, 0.9
    theta, theta0 = 1.1, -0.4
    cfg = ScatteringConfig2D(k=k, ell=0.1, theta0=theta0)
    f2 = {c: f2_2d(gaussian_slab_2d(c * 0.4, L), cfg, theta) for c in (1, 2, 3)}
    t2 = (f2[2] - 2 * f2[1]) / 2.0
    t1 = f2[1] - t2
    assert_allclose(f2[3], 3 * t1 + 9 * t2, rtol=1e-10)
    # f1 is plain linear
    f1a = f1_2d(gaussian_slab_2d(0.4, L), cfg, theta)
    f1b = f1_2d(gaussian_slab_2d(0.8, L), cfg, theta)
    assert_allclose(f1b, 2 * f1a, rtol=1e-14)


def test_f1_depends_on_angles_only_through_s():
    prof = gaussian_slab_2d(0.7, 1.1)
    cfg_a = ScatteringConfig2D(k=1.4, ell=0.1, theta0=0.2)
    cfg_b = ScatteringConfig2D(k=1.4, ell=0.1, theta0=np.pi - 0.2)
    va = f1_2d(prof, cfg_a, 0.7)
    vb = f1_2d(prof, cfg_b, np.pi - 0.7)  # same sines, same s
    assert_allclose(vb, va, rtol=1e-13)


_ANGLE = st.builds(
    lambda t, flip: t + np.pi if flip else t,
    st.floats(-0.5 * np.pi + 0.1, 0.5 * np.pi - 0.1),
    st.booleans(),
)  # non-grazing: at least 0.1 away from +-pi/2


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    z_re=st.floats(-3.0, 3.0),
    z_im=st.floats(-3.0, 3.0),
    L=st.floats(0.3, 2.0),
    k=st.floats(0.1, 2.0),
    theta=_ANGLE,
    theta0=_ANGLE,
)
def test_reciprocity_on_the_sampled_route(z_re, z_im, L, k, theta, theta0):
    # f(theta; theta0) = f(theta0 + pi; theta + pi), with every moment taken
    # from transformed samples of an eval-only profile
    closed = gaussian_slab_2d(complex(z_re, z_im), L)
    prof = Profile2D(eval=closed.eval, decay_radius=closed.decay_radius)
    cfg = ScatteringConfig2D(k=k, ell=0.1, theta0=theta0)
    swapped = ScatteringConfig2D(k=k, ell=0.1, theta0=theta + np.pi)
    for coefficient in (f1_2d, f2_2d):
        assert_allclose(
            coefficient(prof, swapped, theta0 + np.pi), coefficient(prof, cfg, theta), rtol=1e-12
        )


def _eval_only(kind, z, L, decay_radius=None):
    """An eval-only slab of transverse width L: Gaussian, or separable with a
    quadratic axial factor; every moment comes from the axial sampler."""
    if kind == "gaussian":
        closed = gaussian_slab_2d(z, L)
    else:
        closed = separable_profile(
            lambda x: 1.0 + 0.5 * x - 0.8 * x * x,
            lambda y: z * np.exp(-0.5 * (np.asarray(y) / L) ** 2),
            12.0 * L,
        )
    return Profile2D(eval=closed.eval, decay_radius=decay_radius or closed.decay_radius)


_CONTRAST = st.builds(complex, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))


@settings(max_examples=15, deadline=None, derandomize=True)
@given(
    a=_CONTRAST,
    b=_CONTRAST,
    L1=st.floats(0.3, 2.0),
    L2=st.floats(0.3, 2.0),
    k=st.floats(0.1, 2.0),
    theta=_ANGLE,
    theta0=_ANGLE,
)
def test_f1_is_linear_in_w_on_the_sampled_route(a, b, L1, L2, k, theta, theta0):
    # one transverse grid for all three slabs, so only rounding separates them
    radius = 12.0 * max(L1, L2)
    w1 = _eval_only("gaussian", 1.0, L1, radius)
    w2 = _eval_only("separable", 1.0, L2, radius)
    combined = Profile2D(
        eval=lambda x, y, kk: a * w1.eval(x, y, kk) + b * w2.eval(x, y, kk),
        decay_radius=radius,
    )
    cfg = ScatteringConfig2D(k=k, ell=0.1, theta0=theta0)
    parts = a * f1_2d(w1, cfg, theta) + b * f1_2d(w2, cfg, theta)
    scale = k * (abs(a) * L1 + abs(b) * L2)
    assert abs(f1_2d(combined, cfg, theta) - parts) <= 1e-12 * scale


@settings(max_examples=15, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["gaussian", "separable"]),
    z=_CONTRAST,
    L=st.floats(0.3, 2.0),
    k=st.floats(0.1, 2.0),
    s=st.floats(0.25, 4.0),
    theta=_ANGLE,
    theta0=_ANGLE,
)
def test_dimensionless_scaling_on_the_sampled_route(kind, z, L, k, s, theta, theta0):
    # f1 and f2 depend on k, ell and L only through k ell and k L
    base = _eval_only(kind, z, L)
    scaled = _eval_only(kind, z, s * L)
    cfg = ScatteringConfig2D(k=k, ell=0.1, theta0=theta0)
    cfg_scaled = ScatteringConfig2D(k=k / s, ell=0.1 * s, theta0=theta0)
    scale = k * L * abs(z)
    for coefficient in (f1_2d, f2_2d):
        assert_allclose(
            coefficient(scaled, cfg_scaled, theta),
            coefficient(base, cfg, theta),
            rtol=1e-10,
            atol=1e-12 * scale * (1.0 + scale),
        )


def test_amplitude_assembly_and_orders():
    prof = gaussian_slab_2d(0.7, 1.1)
    cfg = ScatteringConfig2D(k=1.4, ell=0.07, theta0=0.2)
    res2 = amplitude_2d(prof, cfg, 0.9, order=2)
    res1 = amplitude_2d(prof, cfg, 0.9, order=1)
    assert isinstance(res2, AmplitudeResult)
    kl = cfg.kl
    assert res2.truncated == res2.f1 * kl + res2.f2 * kl * kl
    assert res1.f2 == 0.0
    assert res1.truncated == res2.truncated - res2.f2 * kl * kl
    with pytest.raises(DomainError):
        amplitude_2d(prof, cfg, 0.9, order=3)
