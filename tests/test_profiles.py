import sys
import time
import types
from concurrent.futures import ThreadPoolExecutor
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import dblquad

from slabscat.amp2d import ScatteringConfig2D, f2_2d
from slabscat.dyson1d import constant_slab_1d
from slabscat.exactborn import BornExactProfile
from slabscat.numerics import (
    AccuracyError,
    DomainError,
    QuadratureSpec,
    TransformSpec,
    TruncationError,
    fourier_1d,
    integrate_1d,
    transform_samples_1d,
)
from slabscat.profiles import (
    CoatedProfile2D,
    Profile2D,
    Profile3D,
    _convolution_moment,
    coated_profile,
    ex1_profile,
    gaussian_slab_2d,
    gaussian_slab_3d,
    layered_profile,
    moment_2d,
    moment_3d,
    profile_from_dict,
    sampled_profile,
    separable_profile,
    spatial_moment_y,
)

Z, ALPHA, LW = 0.3, 2.0, 1.0


def ex1_hat(p):
    # one-sided transverse spectrum of the exactly solvable profile
    p = np.asarray(p, dtype=float)
    out = np.zeros(p.shape, dtype=complex)
    m = p >= ALPHA
    out[m] = 2 * np.pi * Z * LW**2 * (ALPHA - p[m]) * np.exp(LW * (ALPHA - p[m]))
    return out


def _eval_only(prof, **grid):
    """A 2D profile without its closed moments, so they are sampled from eval."""
    return replace(prof, analytic_moment=None, moment_y=None, **grid)


def test_ex1_moments_match_one_sided_closed_form():
    prof = ex1_profile(Z, ALPHA, LW)
    p = np.array([1.2, 2.0, 2.5, 3.0, 5.0])
    m0 = moment_2d(prof, 0, p, k=1.0)
    m1 = moment_2d(prof, 1, p, k=1.0)
    m2 = moment_2d(prof, 2, p, k=1.0)
    assert_allclose(m0, ex1_hat(p), rtol=1e-14)
    assert_allclose(m1, 0.5 * ex1_hat(p), rtol=1e-14)
    assert_allclose(m2, ex1_hat(p) / 3.0, rtol=1e-14)
    # below the support edge the spectrum vanishes identically
    assert np.all(m0[p < ALPHA] == 0)


def test_axially_uniform_profile_moment_ratio():
    prof = gaussian_slab_2d(0.7, 1.3)
    p = np.linspace(-2.0, 2.0, 7)
    m0 = moment_2d(prof, 0, p, k=1.0)
    m1 = moment_2d(prof, 1, p, k=1.0)
    assert_allclose(m1, 0.5 * m0, rtol=1e-12)
    sampled = _eval_only(prof)
    m0n = moment_2d(sampled, 0, p, k=1.0)
    m1n = moment_2d(sampled, 1, p, k=1.0)
    assert_allclose(m1n, 0.5 * m0n, rtol=1e-12)


def test_linear_axial_factor_gives_half_and_third():
    g_hat = lambda p: np.sqrt(2 * np.pi) * np.exp(-0.5 * np.asarray(p) ** 2)
    prof = separable_profile(
        axial=lambda xf: np.asarray(xf, dtype=complex),
        transverse=lambda y: np.exp(-0.5 * np.asarray(y) ** 2),
        decay_radius=12.0,
        transverse_transform=g_hat,
    )
    p = np.array([0.0, 0.8, -1.7])
    assert_allclose(moment_2d(prof, 0, p, 1.0), g_hat(p) / 2.0, rtol=1e-12)
    assert_allclose(moment_2d(prof, 1, p, 1.0), g_hat(p) / 3.0, rtol=1e-12)
    numeric = moment_2d(_eval_only(prof), 1, p, 1.0)
    assert_allclose(numeric, g_hat(p) / 3.0, rtol=1e-8)


def test_zero_profile_moments_vanish():
    prof = Profile2D(
        eval=lambda xf, y, k: np.zeros(np.broadcast(xf, y).shape, dtype=complex),
        decay_radius=5.0,
        descriptor="zero",
    )
    for l in (0, 1, 2):
        vals = moment_2d(prof, l, np.array([0.0, 1.0, 2.0]), 1.0)
        assert_allclose(vals, 0.0, atol=1e-15)


def test_moment_linearity_in_profile():
    rng = np.random.default_rng(42)
    z1 = complex(*rng.standard_normal(2))
    z2 = complex(*rng.standard_normal(2))
    p1 = gaussian_slab_2d(z1, 1.0)
    p2 = gaussian_slab_2d(z2, 2.0)
    combined = Profile2D(
        eval=lambda xf, y, k: p1.eval(xf, y, k) + p2.eval(xf, y, k),
        decay_radius=24.0,
        descriptor="sum",
    )
    p = np.array([-1.1, 0.0, 0.4])
    got = moment_2d(combined, 0, p, 1.0)
    expect = moment_2d(p1, 0, p, 1.0) + moment_2d(p2, 0, p, 1.0)
    assert_allclose(got, expect, rtol=1e-8)


def test_spatial_moment_y_integrates_every_y_at_once():
    # one sampler call over all requested y: the same 15 rows at 1 and at
    # 4,097 points, to 1e-9 of the largest |w_l| (here to rounding)
    g = gaussian_slab_2d(0.5, 1.0)
    seen = []
    for y in (np.array([0.4]), np.linspace(-12.0, 12.0, 4097)):
        prof, calls = _counted_eval(_eval_only(g))
        for l in (0, 1, 2):
            closed = g.moment_y(y, 1.0)[l]
            got = spatial_moment_y(prof, l, y, 1.0)
            assert np.max(np.abs(got - closed)) <= 1e-12 * np.max(np.abs(closed))
        seen.append(len(calls))
    assert seen[0] == seen[1] == 3 * 15


@settings(max_examples=25, deadline=None, derandomize=True)
@given(c=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3), y0=st.floats(-3.0, 3.0))
def test_separable_moments_match_its_eval_only_copy(c, y0):
    closed = separable_profile(
        lambda x: c[0] + c[1] * x + c[2] * x * x, lambda y: np.exp(-0.5 * y * y), 12.0
    )
    y = np.array([y0, 0.0, 2.5])
    peak = max(abs(c[0]) + abs(c[1]) + abs(c[2]), 1e-300)
    for l in (0, 1, 2):
        got = spatial_moment_y(_eval_only(closed), l, y, 1.0)
        assert np.max(np.abs(closed.moment_y(y, 1.0)[l] - got)) <= 1e-12 * peak


def test_spatial_moments():
    axial_only = Profile2D(
        eval=lambda xf, y, k: np.where(
            (np.asarray(xf) >= 0) & (np.asarray(xf) <= 1),
            np.asarray(xf, dtype=complex) * np.ones(np.broadcast(xf, y).shape),
            0.0,
        ),
        decay_radius=1.0,
        descriptor="w = x_frac",
    )
    assert_allclose(spatial_moment_y(axial_only, 0, 0.3, 1.0), 0.5, rtol=1e-12)
    assert_allclose(spatial_moment_y(axial_only, 1, -2.0, 1.0), 1.0 / 3.0, rtol=1e-12)

    g = gaussian_slab_2d(0.5, 2.0)
    y = np.array([0.0, 1.0, 3.0])
    w0 = spatial_moment_y(g, 0, y, 1.0)
    w1 = spatial_moment_y(g, 1, y, 1.0)
    assert_allclose(w0, 0.5 * np.exp(-y * y / 8.0), rtol=1e-14)
    assert_allclose(w0, 2.0 * w1, rtol=1e-14)
    assert_allclose(spatial_moment_y(g, 2, y, 1.0), w0 / 3.0, rtol=1e-14)
    with pytest.raises(DomainError):
        spatial_moment_y(g, 3, 0.0, 1.0)


def test_analytic_vs_numeric_transform_gaussian():
    rng = np.random.default_rng(2024)
    prof = gaussian_slab_2d(0.9 - 0.2j, 1.4)
    spec = TransformSpec(truncation_radius=prof.decay_radius)
    for _ in range(6):
        xf = rng.uniform(0.0, 1.0)
        p = rng.uniform(-2.5, 2.5)
        numeric = fourier_1d(lambda y: prof.eval(xf, y, 1.0), p, spec)
        assert_allclose(numeric, prof.analytic_transform(xf, p, 1.0), rtol=1e-6)
    assert prof.analytic_transform(1.7, 0.5, 1.0) == 0.0


def test_analytic_vs_numeric_transform_ex1():
    # the 1/y^2 tail makes this the hard catalog case: wide window, dense grid
    rng = np.random.default_rng(99)
    prof = ex1_profile(Z, ALPHA, LW)
    spec = TransformSpec(truncation_radius=2000.0 * LW, sample_count=2**20)
    scale = 2 * np.pi * Z * LW / np.e  # peak of |transform|
    # stay a correlation length away from the support edge at p = ALPHA,
    # where the truncated tail converges slowest
    offsets = np.concatenate((rng.uniform(1.0, 3.0, 3), -rng.uniform(1.0, 3.0, 3)))
    for dp in offsets:
        p = ALPHA + dp / LW
        xf = rng.uniform(0.0, 1.0)
        numeric = fourier_1d(lambda y: prof.eval(xf, y, 1.0), p, spec)
        exact = prof.analytic_transform(xf, p, 1.0)
        assert_allclose(numeric, exact, rtol=1e-6, atol=1e-6 * scale)
    # the sampled-moment route must agree too
    p = ALPHA + np.array([-2.0, -1.0, 1.0, 2.0]) / LW
    sampled = _eval_only(prof, sample_count=spec.sample_count)
    numeric = moment_2d(sampled, 0, p, 1.0)
    assert_allclose(numeric, ex1_hat(p), rtol=1e-6, atol=1e-6 * scale)


def test_moment_change_of_variable_form():
    # the physical-coordinate form ell^-(l+1) INT_0^ell x^l wt(x/ell, p) dx
    prof = gaussian_slab_2d(1.1, 0.9)
    ell = 3.7
    p = 0.6
    for l in (0, 1, 2):
        direct = integrate_1d(
            lambda x: x**l * prof.analytic_transform(x / ell, p, 1.0),
            0.0,
            ell,
            QuadratureSpec(rel_tol=1e-12),
        ) / ell ** (l + 1)
        assert_allclose(direct, moment_2d(prof, l, p, 1.0), rtol=1e-10)


def test_layered_profile_exact_axial_moments():
    g_hat = lambda p: np.sqrt(2 * np.pi) * np.exp(-0.5 * np.asarray(p) ** 2)
    p = np.array([0.0, 1.2])
    # (boundaries, values, INT_0^1 x^l axial dx for l = 0, 1, 2); the second
    # slab jumps off the dyadic points, where no panel edge ever lands
    cases = [
        ([0.0, 0.5, 1.0], [2.0, 0.0], [1.0, 0.25, 1.0 / 12.0]),
        ([0.0, 0.3, 0.7, 1.0], [1.5, -0.5, 2.0], [0.85, 0.4775, 1.1965 / 3.0]),
    ]
    for boundaries, values, axial in cases:
        prof = layered_profile(
            boundaries=boundaries,
            values=values,
            transverse=lambda y: np.exp(-0.5 * np.asarray(y) ** 2),
            decay_radius=12.0,
            transverse_transform=g_hat,
        )
        sampled = _eval_only(prof)
        for l, a_l in enumerate(axial):
            assert_allclose(moment_2d(prof, l, p, 1.0), a_l * g_hat(p), rtol=1e-13)
            numeric = moment_2d(sampled, l, p, 1.0)
            assert_allclose(numeric, a_l * g_hat(p), rtol=1e-9)


def _bilinear_profile(a=(0.2, 1.0, 0.4, 0.9, 0.1)):
    """A sampled_profile a(x_frac) b(y) on evenly spaced x nodes (by default
    kinked at x_frac = 1/4, 1/2, 3/4), and the exact axial integrals
    A_l = INT_0^1 x^l a dx of its interpolant."""
    a = np.asarray(a, dtype=float)
    x_nodes = np.linspace(0.0, 1.0, a.size)
    y_nodes = np.linspace(-6.0, 6.0, 49)
    b = np.exp(-0.5 * y_nodes**2) * (1.0 + 0.3j * y_nodes)
    prof = sampled_profile(x_nodes, y_nodes, np.outer(a, b), decay_radius=8.0)
    # Simpson's rule is exact for x^l times a linear piece (degree <= 3)
    x0, x1 = x_nodes[:-1], x_nodes[1:]
    xm, am = 0.5 * (x0 + x1), 0.5 * (a[:-1] + a[1:])
    axial = [
        np.sum((x1 - x0) / 6 * (x0**l * a[:-1] + 4 * xm**l * am + x1**l * a[1:]))
        for l in (0, 1, 2)
    ]
    return prof, y_nodes, b, axial


def _counted_eval(prof):
    """A copy of prof that records its eval calls, and the list of their arguments."""
    calls = []
    w = prof.eval
    return replace(prof, eval=lambda *args: calls.append(args) or w(*args)), calls


def _check_bilinear_moments(prof, y_nodes, b, axial):
    spec = TransformSpec(prof.decay_radius)
    y = np.linspace(-spec.truncation_radius, spec.truncation_radius, spec.sample_count + 1)
    p = np.array([0.0, 0.7, -1.3, 2.5])
    # the transverse interpolant on the same grid, transformed the same way
    b_interp = np.interp(y, y_nodes, b, left=0.0, right=0.0)
    b_hat = transform_samples_1d(b_interp, spec.truncation_radius, p)
    for l, a_l in enumerate(axial):
        assert_allclose(moment_2d(prof, l, p, 1.0), a_l * b_hat, rtol=1e-9)


def test_bilinear_sampled_moments_match_the_exact_axial_integral():
    _check_bilinear_moments(*_bilinear_profile())


def test_sampled_profile_panels_start_at_its_x_nodes():
    # 21 x nodes put 16 kinks off the dyadic points; halving toward each of
    # them would take about ten halvings apiece
    prof, y_nodes, b, axial = _bilinear_profile(0.6 + 0.4 * np.sin(2.3 * np.arange(21)))
    prof, calls = _counted_eval(prof)
    _check_bilinear_moments(prof, y_nodes, b, axial)
    assert len(calls) == 20 * 15  # one Kronrod panel per interval, none halved


def test_sampled_profile_reaches_second_order_quickly():
    prof = _bilinear_profile()[0]
    prof, calls = _counted_eval(prof)
    cfg = ScatteringConfig2D(k=0.8, ell=0.1, theta0=0.3)
    start = time.perf_counter()
    f2 = f2_2d(prof, cfg, 0.7)  # sampling the profile included
    assert time.perf_counter() - start < 2.0
    assert np.isfinite(f2)
    assert len(calls) == 4 * 15


def _tanh_jump(x, y):
    """exp(-y^2/2) for 0 <= x <= 0.5 + 0.25 tanh(y), else 0: the jump sweeps
    through x in [0.25, 0.75] as y varies, so no partition of the axial
    coordinate resolves every sample at once."""
    x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
    return np.where((x >= 0) & (x <= 0.5 + 0.25 * np.tanh(y)), np.exp(-0.5 * y * y), 0.0)


@pytest.mark.slow
def test_y_dependent_axial_jump_fails_fast():
    # [0, 1], then 45 rows for each of the 101 halvings of a 65,537-point row;
    # the convolution route first resolves the inner integrals of the five
    # outer nodes below the jump (16 rows each), then fails on the sixth
    routes = [(moment_2d, (0, 0.3, 1.0), 0), (_convolution_moment, (0.3, 1.0), 5 * 16)]
    for moment, args, resolved in routes:
        prof, calls = _counted_eval(
            Profile2D(eval=lambda x, y, k: _tanh_jump(x, y), decay_radius=12.0)
        )
        start = time.perf_counter()
        with pytest.raises(AccuracyError, match="did not converge") as info:
            moment(prof, *args)
        assert time.perf_counter() - start < 10.0
        assert info.value.estimate is not None
        assert info.value.error_estimate > 0
        assert len(calls) == resolved + 15 + 45 * 101


@pytest.mark.slow
def test_spatial_moment_y_of_a_moving_jump():
    # at one y the jump sits still and is resolved to g s^(l+1) / (l+1); over
    # 121 y it moves, no shared partition resolves it, and the sampler fails
    # after its 2,000 halvings rather than return values off at many y
    prof = Profile2D(eval=lambda x, y, k: _tanh_jump(x, y), decay_radius=12.0)
    y0 = 0.3
    s = 0.5 + 0.25 * np.tanh(y0)
    for l in (0, 1, 2):
        expect = np.exp(-0.5 * y0 * y0) * s ** (l + 1) / (l + 1)
        assert abs(spatial_moment_y(prof, l, y0, 1.0) - expect) <= 1e-8
    start = time.perf_counter()
    with pytest.raises(AccuracyError, match="within 2000 subdivisions"):
        spatial_moment_y(prof, 0, np.linspace(-3.0, 3.0, 121), 1.0)
    assert time.perf_counter() - start < 10.0


@pytest.mark.slow
def test_3d_axial_jump_fails_within_the_point_budget():
    prof = Profile3D(
        eval=lambda r1, r2, z, k: _tanh_jump(z, r1) * np.exp(-0.5 * np.asarray(r2) ** 2),
        decay_radius=8.0,
    )
    prof, calls = _counted_eval(prof)
    with pytest.raises(AccuracyError, match="did not converge"):
        moment_3d(prof, 0, (0.3, 0.1), 1.0)
    # a 1025 x 1025 mesh costs 16 times a 2D row, so it gets 6 halvings
    assert len(calls) == 15 + 45 * 6


def test_non_finite_profile_fails_on_the_first_panel():
    calls = []

    def w(x, y, k):
        calls.append(x)
        return np.where(np.asarray(y) > 1.0, np.nan, 1.0) * np.exp(-np.asarray(y) ** 2)

    for moment, args in ((moment_2d, (0, 0.3, 1.0)), (_convolution_moment, (0.3, 1.0))):
        calls.clear()
        with pytest.raises(AccuracyError, match=r"not finite on \[0, 1\]"):
            moment(Profile2D(eval=w, decay_radius=12.0), *args)
        assert len(calls) == 15


def _sheared_gaussian(g, shear):
    """The eval-only, non-separable profile g(x) exp(-(y - shear x)^2 / 2)."""

    def w(x, y, k):
        x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
        return np.where((x >= 0) & (x <= 1), g(x) * np.exp(-0.5 * (y - shear * x) ** 2), 0.0)

    return Profile2D(eval=w, decay_radius=12.0 + abs(shear))


def test_convolution_moment_of_a_sheared_gaussian():
    # Q(x1, x2, q) = g(x1) g(x2) sqrt(pi) e^{-shear^2 (x1 - x2)^2 / 4 - q^2 / 4
    # - i q shear (x1 + x2) / 2} in closed form, integrated over the simplex
    g = lambda x: 0.6 + 0.3j * x - 0.5 * x * x
    shear = 1.2
    prof = _sheared_gaussian(g, shear)
    prof, calls = _counted_eval(prof)

    def Q(x1, x2, q):
        phase = -0.25 * (shear * (x1 - x2)) ** 2 - 0.25 * q * q - 0.5j * q * shear * (x1 + x2)
        return g(x1) * g(x2) * np.sqrt(np.pi) * np.exp(phase)

    for q in (0.0, 0.8, -2.1):
        want = [
            dblquad(
                lambda x1, x2: part((x2 - x1) * Q(x1, x2, q)),
                0.0, 1.0, 0.0, lambda x2: x2, epsabs=1e-14, epsrel=1e-13,
            )[0]
            for part in (np.real, np.imag)
        ]
        assert_allclose(_convolution_moment(prof, q, 1.0), complex(*want), rtol=1e-9)
    # one outer panel of 15 nodes, each one row plus one inner panel of 15
    assert len(calls) == 15 * 16


def test_convolution_moment_of_a_bilinear_sampled_profile():
    # w = a(x) b(y) with a, b the linear interpolants, so C = A b^2 where A is
    # the simplex integral of (x2 - x1) a(x1) a(x2): A = INT_0^1 a F dx with
    # F(x) = INT_0^x (x - x1) a(x1) dx1, piecewise polynomial integrals
    a = np.array([0.2, 1.0, 0.4, 0.9, 0.1])
    prof, y_nodes, b, _ = _bilinear_profile(a)
    prof = replace(prof, sample_count=4096)
    prof, calls = _counted_eval(prof)
    x_nodes = np.linspace(0.0, 1.0, a.size)
    P = np.polynomial.Polynomial
    x = P([0.0, 1.0])
    A, M0, M1 = 0.0, 0.0, 0.0  # M_l = INT_0^x0 x1^l a(x1) dx1 at the piece start
    for x0, x1, a0, a1 in zip(x_nodes[:-1], x_nodes[1:], a[:-1], a[1:]):
        piece = a0 + (a1 - a0) / (x1 - x0) * (x - x0)
        m0 = M0 + piece.integ(lbnd=x0)
        m1 = M1 + (x * piece).integ(lbnd=x0)
        A += (piece * (x * m0 - m1)).integ(lbnd=x0)(x1)
        M0, M1 = m0(x1), m1(x1)

    y = np.linspace(-prof.decay_radius, prof.decay_radius, prof.sample_count + 1)
    p = np.array([0.0, 0.7, -1.3, 2.5])
    b_interp = np.interp(y, y_nodes, b, left=0.0, right=0.0)
    want = A * transform_samples_1d(b_interp**2, prof.decay_radius, p)
    assert_allclose(_convolution_moment(prof, p, 1.0), want, rtol=1e-9)
    # outer piece i holds i + 1 inner pieces, none halved: 15 (1 + 15 (i + 1))
    assert len(calls) == sum(15 * (1 + 15 * (i + 1)) for i in range(4))


@settings(max_examples=10, deadline=None, derandomize=True)
@given(
    s=st.builds(complex, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)).filter(
        lambda s: abs(s) > 0.1
    ),
    shear=st.floats(-2.0, 2.0),
    q=st.floats(-3.0, 3.0),
)
def test_convolution_moment_is_quadratic_in_w(s, shear, q):
    g = lambda x: 1.0 + 0.5 * x - 0.8 * x * x
    prof = replace(_sheared_gaussian(g, shear), sample_count=1024)
    scaled = replace(prof, eval=lambda x, y, k: s * prof.eval(x, y, k))
    base = _convolution_moment(prof, q, 1.0)
    assert_allclose(_convolution_moment(scaled, q, 1.0), s * s * base, rtol=1e-12)


def test_numeric_moments_share_the_sample_cache():
    prof = gaussian_slab_2d(0.7, 1.3)
    m0 = moment_2d(prof, 0, 0.4, 1.0)
    numeric = _eval_only(prof, sample_count=1024)
    assert_allclose(moment_2d(numeric, 1, 0.4, 1.0), m0 / 2)
    assert_allclose(moment_2d(numeric, 2, 0.4, 1.0), m0 / 3)
    # a derived profile starts with a cache of its own, which holds sample
    # arrays only: no stand-in profile objects
    assert prof._cache == {} and numeric._cache
    for samples in numeric._cache.values():
        assert all(isinstance(v, np.ndarray) for v in samples.values())

    calls = []

    def counted(x_frac, y, k):
        calls.append(x_frac)
        return prof.eval(x_frac, y, k)

    bare = Profile2D(eval=counted, decay_radius=prof.decay_radius, sample_count=1024)
    moment_2d(bare, 0, 0.4, 1.0)
    sampled = len(calls)
    assert sampled > 0
    moment_2d(bare, 2, 0.4, 1.0)
    assert len(calls) == sampled  # every order comes from the same samples


def test_sampled_moments_do_not_depend_on_call_order_or_threads():
    # each momentum is its own call, so the cached fine-grid window of each
    # sample set grows call by call (from 16 to 64 bins a side in ascending
    # order), in a different order in every case
    closed = gaussian_slab_2d(0.8 + 0.3j, 0.9)
    momenta = np.linspace(-1.0, 6.0, 36)
    requests = [(l, p) for l in (0, 1, 2) for p in momenta]

    def run(order, threads=1):
        prof = Profile2D(eval=closed.eval, decay_radius=closed.decay_radius)
        with ThreadPoolExecutor(threads) as pool:
            values = list(pool.map(lambda r: moment_2d(prof, r[0], r[1], 1.0), order))
        return dict(zip(order, values))

    ascending = run(requests)
    descending = run(requests[::-1])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = run(requests, threads=4)
    finally:
        sys.setswitchinterval(interval)
    assert all(ascending[r] == descending[r] == threaded[r] for r in requests)
    assert_allclose(
        [ascending[(0, p)] for p in momenta], closed.analytic_moment(0, momenta, 1.0), rtol=1e-9
    )


def test_negligible_moments_skip_the_truncation_check():
    # w = (1 - 2 x) g + P(x), with g a decaying Gaussian and P a shifted
    # Legendre polynomial orthogonal to the sampled powers of x: the zeroth
    # moment is rounding noise that does not decay, which must not trip the
    # truncation check, while the first moment -g/6 is checked and sampled
    def inside(x):
        return (x >= 0) & (x <= 1)

    def w2(x, y, k):
        x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
        p3 = 20 * x**3 - 30 * x**2 + 12 * x - 1
        return np.where(inside(x), (1 - 2 * x) * np.exp(-0.5 * y * y) + p3, 0.0)

    def w3(r1, r2, z, k):
        r1, r2, z = np.broadcast_arrays(r1, r2, np.asarray(z, float))
        p2 = 6 * z**2 - 6 * z + 1
        return np.where(inside(z), (1 - 2 * z) * np.exp(-0.5 * (r1 * r1 + r2 * r2)) + p2, 0.0)

    m1 = moment_2d(Profile2D(eval=w2, decay_radius=12.0), 1, 0.0, 1.0)
    assert_allclose(m1, -np.sqrt(2 * np.pi) / 6, rtol=1e-8)
    prof3 = Profile3D(eval=w3, decay_radius=12.0, sample_count=128)
    m1 = moment_3d(prof3, 1, (0.0, 0.0), 1.0)
    assert_allclose(m1, -2 * np.pi / 6, rtol=1e-8)


def test_truncation_guard_on_undersized_radius():
    prof = separable_profile(
        axial=lambda xf: np.ones_like(np.asarray(xf, dtype=complex)),
        transverse=lambda y: np.exp(-0.5 * np.asarray(y) ** 2),
        decay_radius=2.0,  # far too small for the edge-decay check
        descriptor="undersized",
    )
    with pytest.raises(TruncationError):
        moment_2d(prof, 0, 0.5, 1.0)
    with pytest.raises(TruncationError):
        undersized = replace(
            gaussian_slab_3d(1.0, 1.0), analytic_moment=None, decay_radius=2.0, sample_count=64
        )
        moment_3d(undersized, 0, (0.5, 0.0), 1.0)


def test_sampled_profile_interpolates_and_vanishes_outside():
    x_nodes = np.linspace(0.0, 1.0, 5)
    y_nodes = np.linspace(-3.0, 3.0, 7)
    vals = np.outer(x_nodes, np.exp(-y_nodes**2)).astype(complex)
    prof = sampled_profile(x_nodes, y_nodes, vals, decay_radius=3.0)
    assert_allclose(prof.eval(x_nodes[2], y_nodes[4], 1.0), vals[2, 4], rtol=1e-14)
    assert prof.eval(0.5, 10.0, 1.0) == 0.0
    assert prof.eval(-0.1, 0.0, 1.0) == 0.0


def test_profile_from_dict_round_trip():
    d = {"catalog": "ex1", "z": [0.3, 0.0], "alpha": 2.0, "L": 1.0}
    prof = profile_from_dict(d)
    assert_allclose(
        moment_2d(prof, 0, 3.0, 1.0),
        moment_2d(ex1_profile(Z, ALPHA, LW), 0, 3.0, 1.0),
        rtol=1e-14,
    )
    g3 = profile_from_dict({"catalog": "gaussian3d", "z": 2.0, "L": 1.0})
    assert_allclose(moment_3d(g3, 0, (0.0, 0.0), 1.0), 4.0 * np.pi, rtol=1e-14)
    assert profile_from_dict({"catalog": "uniform1d", "n": 1.5}).descriptor.endswith("1.5")
    with pytest.raises(DomainError):
        profile_from_dict({"catalog": "nope"})
    with pytest.raises(DomainError):
        profile_from_dict({"catalog": "gaussian2d", "z": 1.0})  # L missing


def _const_geometry(ell, l1, l2, ell_c):
    return types.SimpleNamespace(
        ell=ell,
        ell1=lambda y: np.full(np.shape(y) or (), l1, dtype=float),
        ell2=lambda y: np.full(np.shape(y) or (), l2, dtype=float),
        ell_c=ell_c,
        max_extent=ell + l1 + l2,
    )


def test_coated_zero_thickness_equals_rescaled_bare():
    slab = gaussian_slab_2d(0.8, 1.5)
    geo = _const_geometry(2.0, 0.0, 0.0, 2.0)
    coated = coated_profile(slab, geo, -1.0, 0.4)
    assert isinstance(coated, CoatedProfile2D)
    assert coated.bare is slab and coated.geometry is geo
    assert (coated.z1, coated.z2) == (-1.0, 0.4)
    xf = np.linspace(0.0, 1.0, 11)
    y = np.linspace(-3.0, 3.0, 5)
    for yi in y:
        assert_allclose(
            coated.eval(xf, yi, 1.0), slab.eval(xf, yi, 1.0), rtol=1e-14
        )
    assert_allclose(
        coated.moment_y(y, 1.0)[1], slab.moment_y(y, 1.0)[1], rtol=1e-14
    )


def test_coated_piecewise_values_and_moments():
    slab = gaussian_slab_2d(0.8, 1.5)
    z1, z2 = -0.6, 0.25
    geo = _const_geometry(1.0, 0.5, 0.25, 2.0)
    coated = coated_profile(slab, geo, z1, z2)
    y0 = 0.7
    assert_allclose(coated.eval(1.2 / 2.0, y0, 1.0), z1)
    assert_allclose(coated.eval(1.6 / 2.0, y0, 1.0), z2)
    assert coated.eval(1.9 / 2.0, y0, 1.0) == 0.0
    assert_allclose(
        coated.eval(0.3 / 2.0, y0, 1.0), slab.eval(0.3, y0, 1.0), rtol=1e-14
    )
    # closed-form branch moments against direct quadrature of eval
    raw = Profile2D(eval=coated.eval, decay_radius=coated.decay_radius)
    for l in (0, 1):
        direct = spatial_moment_y(raw, l, y0, 1.0)
        assert_allclose(coated.moment_y(y0, 1.0)[l], direct, rtol=1e-8)


def test_coating_over_an_eval_only_slab_matches_the_closed_slab():
    # the bare slab's spatial moments come from one sampler call for all orders
    slab = replace(gaussian_slab_2d(0.8, 1.5), sample_count=4096)
    geo = _const_geometry(1.0, 0.5, 0.25, 2.0)
    closed = coated_profile(slab, geo, -0.6, 0.25)
    sampled = coated_profile(_eval_only(slab), geo, -0.6, 0.25)
    y = np.linspace(-slab.decay_radius, slab.decay_radius, slab.sample_count + 1)
    for l in (0, 1, 2):
        assert_allclose(sampled.moment_y(y, 1.0)[l], closed.moment_y(y, 1.0)[l], atol=1e-10)


def _tapered_geometry(counts):
    # layers of thickness 0.5 and 0.25 at y = 0 under a Gaussian taper, so
    # that the coating's moments decay within the grid; counts their calls
    def layer(name, scale):
        def thickness(y):
            counts[name] += 1
            return scale * np.exp(-0.5 * (np.asarray(y, dtype=float) / 1.5) ** 2)

        return thickness

    return types.SimpleNamespace(
        ell=1.0, ell1=layer("ell1", 0.5), ell2=layer("ell2", 0.25), ell_c=2.0, max_extent=1.75
    )


def test_coating_samples_an_eval_only_bare_slab_in_one_call():
    # the bare slab's w_0, w_1, w_2 come from one sampler call of 15 rows
    slab = replace(gaussian_slab_2d(0.8, 1.5), sample_count=4096)
    bare, calls = _counted_eval(_eval_only(slab))
    coated = coated_profile(bare, _tapered_geometry({"ell1": 0, "ell2": 0}), -0.6, 0.25)
    closed = coated_profile(slab, _tapered_geometry({"ell1": 0, "ell2": 0}), -0.6, 0.25)
    p = np.array([0.0, 0.7, -1.3])
    got = moment_2d(coated, 0, p, 1.0)
    assert len(calls) == 15
    assert_allclose(got, moment_2d(closed, 0, p, 1.0), rtol=1e-9)
    for l in (1, 2):
        assert_allclose(moment_2d(coated, l, p, 1.0), moment_2d(closed, l, p, 1.0), rtol=1e-9)
    assert len(calls) == 15


def test_coated_moments_evaluate_the_layer_bounds_once():
    counts = {"ell1": 0, "ell2": 0}
    slab = replace(gaussian_slab_2d(0.8, 1.5), sample_count=4096)
    coated = coated_profile(slab, _tapered_geometry(counts), -0.6, 0.25)
    for l in (0, 1, 2):
        moment_2d(coated, l, 0.4, 1.0)
    assert counts == {"ell1": 1, "ell2": 1}


def test_coated_extent_check():
    slab = gaussian_slab_2d(0.8, 1.5)
    with pytest.raises(DomainError):
        coated_profile(slab, _const_geometry(1.0, 1.0, 1.0, 2.5), -1.0, 0.4)


def test_gaussian3d_moments():
    prof = gaussian_slab_3d(2.0, 1.0)
    pv = np.array([0.3, -0.2])
    expect0 = 2 * np.pi * 2.0 * np.exp(-0.5 * (pv @ pv))
    m0 = moment_3d(prof, 0, pv, 1.0)
    m1 = moment_3d(prof, 1, pv, 1.0)
    assert_allclose(m0, expect0, rtol=1e-13)
    assert_allclose(m1, 0.5 * m0, rtol=1e-13)
    numeric0 = moment_3d(replace(prof, analytic_moment=None), 0, pv, 1.0)
    assert_allclose(numeric0, expect0, rtol=1e-6)
    batch = moment_3d(prof, 0, np.array([[0.0, 0.0], [0.3, -0.2]]), 1.0)
    assert batch.shape == (2,)
    with pytest.raises(DomainError):
        moment_3d(prof, 2, pv, 1.0)


def test_moment_3d_sample_count_is_not_rewritten():
    prof = gaussian_slab_3d(2.0, 1.0)
    pv = np.array([0.3, -0.2])
    # a grid above the 3D cap is refused when the profile is built, not
    # silently replaced
    with pytest.raises(DomainError, match="at most 4096"):
        replace(prof, sample_count=8192)
    with pytest.raises(DomainError, match="at most 4096"):
        replace(prof, sample_count=65536)
    coarse = moment_3d(replace(prof, analytic_moment=None, sample_count=64), 0, pv, 1.0)
    assert_allclose(coarse, 2 * np.pi * 2.0 * np.exp(-0.5 * (pv @ pv)), rtol=1e-6)


def test_moment_validation():
    prof = gaussian_slab_2d(1.0, 1.0)
    with pytest.raises(DomainError):
        moment_2d(prof, 3, 0.0, 1.0)


def test_moment_y_errors_propagate_without_sampling_eval():
    calls = []

    def w(x, y, k):
        calls.append(x)
        return np.exp(-0.5 * np.asarray(y, dtype=float) ** 2) * np.ones_like(x)

    def rejects(y, k):
        raise DomainError("no closed moment here")

    prof = Profile2D(eval=w, decay_radius=12.0, moment_y=rejects)
    with pytest.raises(DomainError, match="no closed moment"):
        moment_2d(prof, 0, 0.3, 1.0)
    with pytest.raises(DomainError, match="no closed moment"):
        spatial_moment_y(prof, 0, 0.3, 1.0)
    assert calls == []


def test_profiles_own_a_validated_grid():
    w2 = gaussian_slab_2d(1.0, 1.0).eval
    w3 = gaussian_slab_3d(1.0, 1.0).eval
    assert Profile2D(eval=w2, decay_radius=12.0).sample_count == 65536
    assert Profile3D(eval=w3, decay_radius=12.0).sample_count == 1024
    assert Profile3D(eval=w3, decay_radius=12.0, sample_count=4096).sample_count == 4096
    with pytest.raises(DomainError, match="power of two"):
        Profile2D(eval=w2, decay_radius=12.0, sample_count=1000)
    with pytest.raises(DomainError, match="at most 4096"):
        Profile3D(eval=w3, decay_radius=12.0, sample_count=8192)
    for radius in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(DomainError, match="radius must be positive"):
            Profile2D(eval=w2, decay_radius=radius)
    with pytest.raises(DomainError, match="radius must be positive"):
        gaussian_slab_2d(0.5, np.inf)
    # a coating samples on its bare slab's grid
    slab = replace(gaussian_slab_2d(0.8, 1.5), sample_count=4096)
    coated = coated_profile(slab, _const_geometry(1.0, 0.5, 0.25, 2.0), -0.6, 0.25)
    assert (coated.decay_radius, coated.sample_count) == (slab.decay_radius, 4096)


def test_profiles_are_frozen():
    slab = gaussian_slab_2d(0.8, 1.5)
    built = [
        slab,
        gaussian_slab_3d(1.0, 1.0),
        coated_profile(slab, _const_geometry(1.0, 0.5, 0.25, 2.0), -0.6, 0.25),
        # alpha stays the threshold the support was probed at
        BornExactProfile(base=ex1_profile(0.3, 2.0, 1.0), alpha=2.0),
        constant_slab_1d(1.5),
    ]
    for prof in built:
        for f in fields(prof):
            with pytest.raises(FrozenInstanceError):
                setattr(prof, f.name, getattr(prof, f.name))
