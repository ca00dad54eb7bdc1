import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from slabscat import amp3d
from slabscat.amp2d import AmplitudeResult
from slabscat.amp3d import (
    Direction3D,
    ScatteringConfig3D,
    amplitude_3d,
    f1_3d,
    f2_3d,
    g_vector,
    gaussian_h,
    gaussian_Y,
    normalized_cross_section,
)
from slabscat.numerics import (
    DomainError,
    QuadratureSpec,
    _integrate_2d_nested,
    integrate_2d,
)
from slabscat.profiles import Profile3D, gaussian_slab_3d

# frozen via e^{-K^2} sqrt(pi)/(2K) erfi(K); the Riemann oracle below agrees
Y_FORWARD_K1 = 0.5380795069127684
Y_FORWARD_K2 = 0.15067019446189595

ZERO3 = Profile3D(
    eval=lambda r1, r2, zf, k: np.zeros(np.broadcast(r1, r2, zf).shape, dtype=complex),
    decay_radius=5.0,
    descriptor="zero",
    analytic_moment=lambda l, p1, p2, k: np.zeros_like(np.asarray(p1), dtype=complex),
)


def _h_raw(theta, phi, alpha, beta):
    # -|g|^2 / 2 straight from the direction pair, no trig rearrangement
    g1, g2 = g_vector(theta, phi, alpha, beta)
    return -0.5 * (g1 * g1 + g2 * g2)


def _angles(rng, n):
    theta = rng.uniform(0.1, np.pi / 2 - 0.15, n)
    theta = np.where(rng.random(n) < 0.5, theta, np.pi - theta)
    return theta, rng.uniform(0.0, 2 * np.pi, n)


def test_g_vector_values():
    assert g_vector(0.7, 1.3, 0.7, 1.3) == (0.0, 0.0)
    assert_allclose(g_vector(np.pi / 2, 0.0, 0.0, 2.1), (1.0, 0.0), atol=1e-15)
    assert_allclose(g_vector(np.pi / 2, np.pi / 2, np.pi / 2, 0.0), (-1.0, 1.0), rtol=1e-15)


def test_gaussian_h_values_and_identity():
    assert_allclose(gaussian_h(0.0, 1.9, 0.0), 0.0, atol=1e-15)
    assert_allclose(gaussian_h(np.pi / 2, 0.0, np.pi / 2), 0.0, atol=1e-15)
    assert_allclose(gaussian_h(np.pi / 2, np.pi, np.pi / 2), -2.0, rtol=1e-15)
    rng = np.random.default_rng(7)
    theta, phi = _angles(rng, 60)
    theta0, phi0 = _angles(rng, 60)
    assert_allclose(
        gaussian_h(theta, phi - phi0, theta0),
        _h_raw(theta, phi, theta0, phi0),
        rtol=1e-12,
        atol=1e-14,
    )
    assert np.all(gaussian_h(theta, phi - phi0, theta0) >= -2.0 - 1e-15)


def test_direction_and_config_validation():
    with pytest.raises(DomainError):
        Direction3D(np.pi / 2, 0.0)
    with pytest.raises(DomainError):
        Direction3D(3.5, 0.0)
    with pytest.raises(DomainError):
        Direction3D(-0.1, 0.0)
    with pytest.raises(DomainError):
        Direction3D(0.3, -0.1)
    with pytest.raises(DomainError):
        Direction3D(0.3, 2 * np.pi)
    Direction3D(np.pi, 0.0)
    with pytest.raises(DomainError):
        ScatteringConfig3D(k=0.0, ell=1.0, theta0=0.0)
    with pytest.raises(DomainError):
        ScatteringConfig3D(k=1.0, ell=-1.0, theta0=0.0)
    with pytest.raises(DomainError, match="finite"):
        ScatteringConfig3D(k=np.inf, ell=1.0, theta0=0.0)
    with pytest.raises(DomainError):
        ScatteringConfig3D(k=1.0, ell=1.0, theta0=np.pi / 2)
    for theta0, phi0 in ((np.nan, 0.0), (0.3, np.nan), (0.3, -np.inf)):
        with pytest.raises(DomainError, match="finite"):
            ScatteringConfig3D(k=1.0, ell=1.0, theta0=theta0, phi0=phi0)
    cfg = ScatteringConfig3D(k=2.0, ell=0.05, theta0=np.pi, phi0=0.3)
    assert_allclose(cfg.kl, 0.1)
    with pytest.raises(DomainError):
        gaussian_Y(0.0, 0.0, 0.0, 0.0, -1.0)
    with pytest.raises(DomainError):
        amplitude_3d(ZERO3, cfg, Direction3D(0.4, 0.0), order=3)


def test_zero_profile_zero_amplitudes():
    cfg = ScatteringConfig3D(k=1.0, ell=0.1, theta0=0.2)
    d = Direction3D(1.0, 0.5)
    assert f1_3d(ZERO3, cfg, d) == 0.0
    assert f2_3d(ZERO3, cfg, d) == 0.0
    assert amplitude_3d(ZERO3, cfg, d).truncated == 0.0
    with pytest.raises(DomainError):
        normalized_cross_section(ZERO3, cfg, d)


def test_gaussian_forward_and_backward_f1():
    z, L, k = 0.8, 1.5, 0.9
    K = k * L
    prof = gaussian_slab_3d(z, L)
    cfg = ScatteringConfig3D(k=k, ell=0.1, theta0=0.0)
    fwd = f1_3d(prof, cfg, Direction3D(0.0, 0.0))
    assert_allclose(fwd, np.sqrt(np.pi / 2) * z * K * K / k, rtol=1e-12)
    # backscattering off a transverse profile transfers no transverse momentum
    assert_allclose(f1_3d(prof, cfg, Direction3D(np.pi, 0.0)), fwd, rtol=1e-15)


def test_Y_against_riemann_oracle_and_frozen_values():
    assert_allclose(gaussian_Y(0.3, 1.0, 2.5, 0.7, 0.0), 1.0, rtol=1e-10)

    # midpoint oracle straight from the -|g|^2/2 exponents
    n = 2000
    da, db = 0.5 * np.pi / n, 2.0 * np.pi / n
    al = ((np.arange(n) + 0.5) * da)[:, None]
    be = ((np.arange(n) + 0.5) * db)[None, :]
    expo = _h_raw(0.0, 0.0, al, be) + _h_raw(al, be, 0.0, 0.0)
    oracle = np.sum(np.sin(al) * np.exp(expo) * da * db) / (2 * np.pi)
    got = gaussian_Y(0.0, 0.0, 0.0, 0.0, 1.0)
    assert_allclose(got, oracle, rtol=1e-6)
    assert_allclose(got, Y_FORWARD_K1, rtol=1e-8)
    assert_allclose(gaussian_Y(0.0, 0.0, 0.0, 0.0, 2.0), Y_FORWARD_K2, rtol=1e-8)

    # backscattering sees the same exponent as forward here
    assert_allclose(gaussian_Y(np.pi, 0.0, 0.0, 0.0, 1.3), gaussian_Y(0.0, 0.0, 0.0, 0.0, 1.3), rtol=1e-10)
    # rotating both azimuths together shifts the beta integration variable
    assert_allclose(
        gaussian_Y(0.9, 1.1 + 2.0, 2.3, 0.4 + 2.0, 1.2),
        gaussian_Y(0.9, 1.1, 2.3, 0.4, 1.2),
        rtol=1e-8,
    )


@pytest.mark.parametrize("K", [0.5, 2.0, 4.0, 8.0])
def test_tensor_rule_matches_nested_scheme_on_Y_integrands(K):
    theta, phi, theta0, phi0 = 2.3, 1.1, 0.4, 0.7

    def integrand(alpha, beta):
        expo = gaussian_h(theta, phi - beta, alpha) + gaussian_h(alpha, beta - phi0, theta0)
        return np.sin(alpha) * np.exp(K * K * expo)

    box = (0.0, 0.5 * np.pi, 0.0, 2.0 * np.pi)
    nested = _integrate_2d_nested(integrand, *box, QuadratureSpec())
    assert_allclose(integrate_2d(integrand, *box), nested, rtol=1e-12)


def test_fig6_f2_evaluates_two_tensor_levels(monkeypatch):
    # fig6 at its largest k: gaussian3d z = L = 10, ell = 1, kl = 0.2 (K = 2)
    nodes = []

    def counting(f, *args):
        def counted(alpha, beta):
            nodes.append(np.broadcast(alpha, beta).size)
            return f(alpha, beta)

        return integrate_2d(counted, *args)

    monkeypatch.setattr(amp3d, "integrate_2d", counting)
    prof = gaussian_slab_3d(10.0, 10.0)
    cfg = ScatteringConfig3D(k=0.2, ell=1.0, theta0=0.0)
    spec = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-14)
    for theta in (0.0, np.pi / 3, 3 * np.pi / 4, np.pi):
        nodes.clear()
        f2_3d(prof, cfg, Direction3D(theta, 0.0), spec=spec)
        assert 0 < sum(nodes) <= 16 * 32 + 32 * 64


_POLAR = st.builds(
    lambda t, flip: np.pi - t if flip else t,
    st.floats(0.0, 0.5 * np.pi - 0.1),
    st.booleans(),
)  # non-grazing: at least 0.1 away from pi/2
_AZIMUTH = st.floats(0.0, 2.0 * np.pi, exclude_max=True)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    z_re=st.floats(-3.0, 3.0),
    z_im=st.floats(-3.0, 3.0),
    L=st.floats(0.2, 2.0),
    k=st.floats(0.1, 2.0),
    theta=_POLAR,
    phi=_AZIMUTH,
    theta0=_POLAR,
    phi0=_AZIMUTH,
)
def test_reciprocity(z_re, z_im, L, k, theta, phi, theta0, phi0):
    # f(theta, phi; theta0, phi0) = f(pi - theta0, phi0 + pi; pi - theta, phi + pi)
    prof = gaussian_slab_3d(complex(z_re, z_im), L)
    cfg = ScatteringConfig3D(k=k, ell=0.1, theta0=theta0, phi0=phi0)
    swapped = ScatteringConfig3D(
        k=k, ell=0.1, theta0=np.pi - theta, phi0=(phi + np.pi) % (2.0 * np.pi)
    )
    d = Direction3D(theta, phi)
    d_swapped = Direction3D(np.pi - theta0, (phi0 + np.pi) % (2.0 * np.pi))
    for coefficient in (f1_3d, f2_3d):
        assert_allclose(
            coefficient(prof, swapped, d_swapped), coefficient(prof, cfg, d), rtol=1e-12
        )


def test_Y_lower_bound():
    rng = np.random.default_rng(31)
    for _ in range(6):
        (theta,), (phi,) = _angles(rng, 1)
        (theta0,), (phi0,) = _angles(rng, 1)
        K = rng.uniform(0.0, 2.0)
        assert gaussian_Y(theta, phi, theta0, phi0, K) >= np.exp(-4 * K * K) * (1 - 1e-9)


def test_gaussian_closed_forms_match_generic_path():
    z, L, k = 0.6, 1.1, 1.2
    K = k * L
    prof = gaussian_slab_3d(z, L)
    rng = np.random.default_rng(20240815)
    for _ in range(4):
        (theta,), (phi,) = _angles(rng, 1)
        (theta0,), (phi0,) = _angles(rng, 1)
        cfg = ScatteringConfig3D(k=k, ell=0.05, theta0=theta0, phi0=phi0)
        d = Direction3D(theta, phi)
        ehk = np.exp(K * K * _h_raw(theta, phi, theta0, phi0))
        f1_closed = np.sqrt(np.pi / 2) * z * K * K / k * ehk
        assert_allclose(f1_3d(prof, cfg, d), f1_closed, rtol=1e-12)
        Y = gaussian_Y(theta, phi, theta0, phi0, K)
        f2_closed = (
            np.sqrt(np.pi / 2)
            * 0.5j
            * z
            * K
            * K
            / k
            * ((np.cos(theta0) - np.cos(theta)) * ehk + z * K * K * Y)
        )
        assert_allclose(f2_3d(prof, cfg, d), f2_closed, rtol=1e-6)


def test_forward_f2_is_pure_phi_integral():
    z, L, k = 0.4, 0.8, 1.25  # K = 1
    prof = gaussian_slab_3d(z, L)
    cfg = ScatteringConfig3D(k=k, ell=0.1, theta0=0.0)
    got = f2_3d(prof, cfg, Direction3D(0.0, 0.0))
    expect = 1j * np.sqrt(np.pi / 2) * z * z * Y_FORWARD_K1 / (2 * k)
    assert_allclose(got, expect, rtol=1e-6)


def test_f1_depends_on_angles_only_through_g():
    prof = gaussian_slab_3d(0.7, 1.1)
    cfg_a = ScatteringConfig3D(k=1.4, ell=0.1, theta0=0.3, phi0=1.0)
    cfg_b = ScatteringConfig3D(k=1.4, ell=0.1, theta0=np.pi - 0.3, phi0=1.0)
    va = f1_3d(prof, cfg_a, Direction3D(0.8, 2.0))
    vb = f1_3d(prof, cfg_b, Direction3D(np.pi - 0.8, 2.0))  # same sines, same g
    assert_allclose(vb, va, rtol=1e-13)


def test_azimuthal_covariance():
    # rotating incidence and observation azimuths together about the slab
    # normal cannot change the amplitude of an axially symmetric profile
    prof = gaussian_slab_3d(0.5, 0.9)
    c = 1.7
    cfg_a = ScatteringConfig3D(k=1.3, ell=0.1, theta0=0.4, phi0=0.2)
    cfg_b = ScatteringConfig3D(k=1.3, ell=0.1, theta0=0.4, phi0=0.2 + c)
    ra = amplitude_3d(prof, cfg_a, Direction3D(2.5, 1.1))
    rb = amplitude_3d(prof, cfg_b, Direction3D(2.5, 1.1 + c))
    assert_allclose(rb.f1, ra.f1, rtol=1e-13)
    assert_allclose(rb.f2, ra.f2, rtol=1e-8)


def test_amplitude_assembly_and_normalized_cross_section():
    prof = gaussian_slab_3d(0.5, 0.9)
    cfg = ScatteringConfig3D(k=1.3, ell=0.08, theta0=0.0)
    d = Direction3D(2.7, 0.6)
    res2 = amplitude_3d(prof, cfg, d, order=2)
    res1 = amplitude_3d(prof, cfg, d, order=1)
    assert isinstance(res2, AmplitudeResult)
    kl = cfg.kl
    assert res2.truncated == res2.f1 * kl + res2.f2 * kl * kl
    assert res1.f2 == 0.0
    assert res1.truncated == res1.f1 * kl
    assert_allclose(
        normalized_cross_section(prof, cfg, Direction3D(0.0, 0.0)), 1.0, rtol=1e-12
    )
    fwd = amplitude_3d(prof, cfg, Direction3D(0.0, 0.0), order=2)
    assert_allclose(
        normalized_cross_section(prof, cfg, d),
        abs(res2.truncated) ** 2 / abs(fwd.truncated) ** 2,
        rtol=1e-9,
    )
