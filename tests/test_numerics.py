import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from slabscat.numerics import (
    AccuracyError,
    DomainError,
    QuadratureSpec,
    TransformSpec,
    TruncationError,
    check_edge_decay,
    fourier_1d,
    gauss_legendre,
    integrate_1d,
    integrate_2d,
    transform_samples_1d,
    transform_samples_2d,
)
from slabscat.numerics import (
    _GK_WEIGHTS,
    _G_WEIGHTS,
    _WG,
    _integrate_moments,
    _transform_samples_1d_direct,
)
from slabscat.profiles import ex1_profile, gaussian_slab_2d, moment_2d


def test_gk_constants_consistent():
    assert_allclose(np.sum(_GK_WEIGHTS), 2.0, rtol=1e-15)
    assert_allclose(np.sum(_G_WEIGHTS), 2.0, rtol=1e-15)
    assert_allclose(_WG[3], 512.0 / 1225.0, rtol=1e-15)


def test_integrate_constant_exact():
    assert_allclose(integrate_1d(lambda x: np.ones_like(x), 0.0, 1.0), 1.0, rtol=1e-15)


def test_integrate_complex_exponential():
    val = integrate_1d(lambda x: np.exp(1j * x), 0.0, np.pi)
    assert_allclose(val, 2j, rtol=1e-12, atol=1e-13)


def test_integrate_polynomials_near_exact():
    rng = np.random.default_rng(20240811)
    for deg in range(11):
        coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        poly = np.polynomial.Polynomial(coeffs)
        exact = poly.integ()(2.5) - poly.integ()(-1.0)
        got = integrate_1d(lambda x: poly(x), -1.0, 2.5)
        assert_allclose(got, exact, rtol=1e-13)


def test_integrate_oscillatory():
    exact = (1.0 - np.cos(70.0)) / 7.0
    got = integrate_1d(lambda x: np.sin(7.0 * x), 0.0, 10.0)
    assert_allclose(got, exact, rtol=1e-10, atol=1e-12)


def test_integrate_reversed_limits_negates():
    fwd = integrate_1d(lambda x: x**2, 0.0, 2.0)
    rev = integrate_1d(lambda x: x**2, 2.0, 0.0)
    assert_allclose(rev, -fwd, rtol=1e-14)
    assert integrate_1d(lambda x: x, 1.0, 1.0) == 0.0


def _counted(f):
    """f, plus a list that collects every abscissa f is called on."""
    seen = []

    def counted(x):
        seen.extend(np.atleast_1d(x))
        return f(x)

    return counted, seen


def test_integrate_scalar_only_integrand_raises():
    # integrands are vectorized: one that rejects the panel's abscissae
    # raises on the first call, with no per-node retry
    f, seen = _counted(lambda x: math.exp(-x))
    with pytest.raises(TypeError):
        integrate_1d(f, 0.0, 1.0)
    assert len(seen) == 15


def test_integrate_broadcasts_a_constant_result():
    calls = []

    def constant(x):
        calls.append(x)
        return 2.0

    assert_allclose(integrate_1d(constant, 0.0, 1.0), 2.0, rtol=1e-15)
    assert len(calls) == 4
    with pytest.raises(ValueError):
        integrate_1d(lambda x: np.ones((2, x.size)), 0.0, 1.0)


def test_integrate_evaluates_each_abscissa_once():
    # a quadratic converges on the 4 initial panels: 4 x 15 abscissae
    f, seen = _counted(lambda x: x * x)
    assert_allclose(integrate_1d(f, 0.0, 1.0), 1.0 / 3.0, rtol=1e-14)
    assert len(seen) == 60
    assert len(set(seen)) == 60


def test_integrate_non_finite_integrand_fails_fast():
    f, seen = _counted(lambda x: np.where(x > 0.9, np.nan, x))
    with pytest.raises(AccuracyError, match=r"not finite on \[0.75, 1\]"):
        integrate_1d(f, 0.0, 1.0)
    assert len(seen) == 60


def test_integrate_propagates_package_errors():
    calls = []

    def rejects(x):
        calls.append(x)
        raise DomainError("outside the domain")

    with pytest.raises(DomainError):
        integrate_1d(rejects, 0.0, 1.0)
    assert len(calls) == 1  # no per-node retry


def test_integrate_budget_exhaustion_attaches_estimate():
    spec = QuadratureSpec(rel_tol=1e-14, abs_tol=1e-300, max_subdivisions=3)
    with pytest.raises(AccuracyError) as info:
        integrate_1d(lambda x: np.cos(50.0 * x) / (1.0 + x), 0.0, 10.0, spec)
    assert info.value.estimate is not None
    assert info.value.error_estimate > 0


def test_integrate_moments_of_kinked_rows():
    # INT_0^1 x^l |x - c| dx for kinks c off the dyadic points, in closed form
    c = np.array([0.3, 0.7])
    exact = [
        c * c ** (l + 1) / (l + 1) - c ** (l + 2) / (l + 2)
        + (1 - c ** (l + 2)) / (l + 2) - c * (1 - c ** (l + 1)) / (l + 1)
        for l in (0, 1, 2)
    ]
    f, seen = _counted(lambda x: np.abs(x - c))
    got = _integrate_moments(f, (0, 1, 2), spec=QuadratureSpec(rel_tol=1e-10))
    assert got.shape == (3, 2)
    assert_allclose(got, exact, rtol=1e-9)
    # 15 rows for [0, 1], then per halving 15 for each half and 15 more to
    # take the halved panel out of the running total
    assert len(seen) > 15 and (len(seen) - 15) % 45 == 0

    # panels that start at the kinks are polynomial: 15 rows each, no halving
    f, seen = _counted(lambda x: np.abs(x - c))
    got = _integrate_moments(f, (0, 1, 2), c, QuadratureSpec(rel_tol=1e-10))
    assert_allclose(got, exact, rtol=1e-13)
    assert len(seen) == 45


def _shapes_seen(f):
    """f, plus a list of the shape of every x it is called with."""
    shapes = []

    def recorded(x, y):
        shapes.append(np.shape(x))
        return f(x, y)

    return recorded, shapes


def test_integrate_2d_separable_and_coupled():
    got = integrate_2d(lambda x, y: x * y, 0.0, 1.0, 0.0, 1.0)
    assert_allclose(got, 0.25, rtol=1e-10)
    got = integrate_2d(lambda x, y: np.cos(x + y), 0.0, np.pi, 0.0, np.pi)
    assert_allclose(got, -4.0, rtol=1e-9, atol=1e-10)
    # exact value Ein(1) = gamma + E1(1)
    got = integrate_2d(lambda x, y: np.exp(-x * y), 0.0, 1.0, 0.0, 1.0)
    assert_allclose(got, 0.7965995992970531, rtol=1e-10)
    # a scalar-only integrand rejects the broadcast arrays and raises at once
    f, shapes = _shapes_seen(lambda x, y: math.exp(-x * y))
    with pytest.raises(TypeError):
        integrate_2d(f, 0.0, 1.0, 0.0, 1.0)
    assert shapes == [(16, 1)]


def test_integrate_2d_kinked_integrand_falls_back():
    # the kinks at x = 0.3 and y = 0.7 stall the tensor rule at every level
    f, shapes = _shapes_seen(lambda x, y: np.abs(x - 0.3) * np.abs(y - 0.7))
    assert_allclose(integrate_2d(f, 0.0, 1.0, 0.0, 1.0), 0.29 * 0.29, rtol=1e-8)
    assert shapes[:5] == [(16, 1), (32, 1), (64, 1), (128, 1), (256, 1)]
    assert len(shapes) > 5 and all(s == () for s in shapes[5:])  # nested scheme


def test_integrate_2d_non_finite_integrand_fails_after_one_level():
    f, shapes = _shapes_seen(lambda x, y: np.where(x > 0.9, np.nan, x * y))
    with pytest.raises(AccuracyError, match=r"not finite on \[0, 1\] x \[0, 2\]"):
        integrate_2d(f, 0.0, 1.0, 0.0, 2.0)
    assert shapes == [(16, 1)]


def test_quadrature_spec_validation():
    with pytest.raises(DomainError):
        QuadratureSpec(rel_tol=0.0)
    for bad in (-1e-3, np.nan, np.inf):
        with pytest.raises(DomainError):
            QuadratureSpec(abs_tol=bad)
    for bad in (np.nan, np.inf):
        with pytest.raises(DomainError, match="positive and finite"):
            QuadratureSpec(rel_tol=bad)
    for bad in (0, np.nan, np.inf, 2.5):
        with pytest.raises(DomainError):
            QuadratureSpec(max_subdivisions=bad)


def test_transform_spec_validation():
    for radius in (-1.0, np.inf):
        with pytest.raises(DomainError):
            TransformSpec(truncation_radius=radius)
    for count in (1000, 1024.0):
        with pytest.raises(DomainError):
            TransformSpec(truncation_radius=1.0, sample_count=count)


GAUSS_SPEC = TransformSpec(truncation_radius=12.0, sample_count=4096)


def gaussian(y):
    return np.exp(-0.5 * y * y)


def gaussian_hat(p):
    return np.sqrt(2.0 * np.pi) * np.exp(-0.5 * np.asarray(p) ** 2)


def test_fourier_gaussian_scalar_and_offgrid():
    for p in (0.0, 1.0, math.sqrt(2.0), -3.3):
        got = fourier_1d(gaussian, p, GAUSS_SPEC)
        assert_allclose(got, gaussian_hat(p), rtol=1e-9, atol=1e-12)


def test_fourier_vector_momenta_match_scalar_calls():
    p = np.array([-2.0, -0.5, 0.0, 0.7, 1.9])
    batch = fourier_1d(gaussian, p, GAUSS_SPEC)
    single = np.array([fourier_1d(gaussian, pi, GAUSS_SPEC) for pi in p])
    assert_allclose(batch, single, rtol=1e-14, atol=1e-15)


def test_fourier_linearity():
    rng = np.random.default_rng(7)
    a = complex(*rng.standard_normal(2))
    b = complex(*rng.standard_normal(2))
    f = lambda y: np.exp(-0.5 * y * y)
    g = lambda y: y * np.exp(-0.25 * y * y)
    combo = lambda y: a * f(y) + b * g(y)
    p = np.linspace(-2.0, 2.0, 9)
    lhs = fourier_1d(combo, p, GAUSS_SPEC)
    rhs = a * fourier_1d(f, p, GAUSS_SPEC) + b * fourier_1d(g, p, GAUSS_SPEC)
    assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-14)


def test_fourier_truncation_guard():
    slow = lambda y: 1.0 / (1.0 + y * y)
    spec = TransformSpec(truncation_radius=10.0, sample_count=1024)
    with pytest.raises(TruncationError):
        fourier_1d(slow, 0.5, spec)


def _nufft_cases():
    """(name, samples, radius): a Gaussian at 2^16 panels and ex1 at R = 400, 2^19."""
    y = np.linspace(-12.0, 12.0, 2**16 + 1)
    yield "gaussian", (0.7 + 0.2j) * gaussian(y), 12.0
    y = np.linspace(-400.0, 400.0, 2**19 + 1)
    yield "ex1", ex1_profile(0.1, 500.0, 0.01).eval(0.5, y, 1.0), 400.0


def test_transform_samples_matches_the_direct_sum():
    rng = np.random.default_rng(20261018)
    for name, values, radius in _nufft_cases():
        n = values.size - 1
        h = 2.0 * radius / n
        nyquist = np.pi / h
        p = np.concatenate(
            (
                rng.uniform(-4.0, 4.0, 16),
                [0.0, nyquist, -nyquist, 0.999 * nyquist, 1.5 * nyquist, -3.7 * nyquist],
            )
        )
        bound = 1e-13 * h * np.sum(np.abs(values))
        for samples in (values.real.copy(), values):
            got = transform_samples_1d(samples, radius, p)
            expect = _transform_samples_1d_direct(samples, radius, p)
            assert np.max(np.abs(got - expect)) <= bound, name
        # a read-only sample set takes the cached path: the same bits
        frozen = values.copy()
        frozen.setflags(write=False)
        assert np.array_equal(transform_samples_1d(frozen, radius, p), got)
        assert np.array_equal(transform_samples_1d(frozen, radius, p[::-1]), got[::-1])
        scalar = transform_samples_1d(values, radius, 1.3)
        assert np.ndim(scalar) == 0
        assert abs(scalar - _transform_samples_1d_direct(values, radius, 1.3)) <= bound
        assert transform_samples_1d(values, radius, np.array([])).shape == (0,)
        assert not np.any(transform_samples_1d(np.zeros(n + 1), radius, p))


def test_transform_samples_rejects_non_finite_momenta():
    values = gaussian(np.linspace(-12.0, 12.0, 1025))
    with pytest.raises(DomainError, match="finite"):
        transform_samples_1d(values, 12.0, [0.5, np.nan])


def test_edge_decay_check_covers_every_edge():
    check_edge_decay(np.zeros(5), "zero")
    check_edge_decay(np.array([1e-7, 1.0, 1e-7]), "decayed")
    mesh = np.zeros((5, 5))
    mesh[2, 2] = 1.0
    check_edge_decay(mesh, "decayed mesh")
    for i, j in ((0, 2), (4, 2), (2, 0), (2, 4)):
        edged = mesh.copy()
        edged[i, j] = 1e-3
        with pytest.raises(TruncationError, match="edged"):
            check_edge_decay(edged, "edged")


def test_non_finite_samples_fail_the_truncation_check():
    values = np.exp(-np.linspace(-5.0, 5.0, 11) ** 2)
    values[5] = np.nan
    with pytest.raises(AccuracyError, match="samples is not finite"):
        check_edge_decay(values, "samples")
    inf_core = lambda y: np.where(np.abs(y) < 1.0, np.inf, np.exp(-y * y))
    with pytest.raises(AccuracyError, match="integrand is not finite"):
        fourier_1d(inf_core, 0.5, TransformSpec(truncation_radius=12.0, sample_count=1024))
    # a NaN closed moment_y, on the sampled route
    nan_core = lambda y, k: (np.where(np.abs(y) < 1.0, np.nan, np.exp(-y * y)),) * 3
    prof = replace(gaussian_slab_2d(1.0, 1.0), analytic_moment=None, moment_y=nan_core)
    with pytest.raises(AccuracyError, match="profile moment is not finite"):
        moment_2d(prof, 0, 0.5, 1.0)


def test_fourier_2d_gaussian():
    radius, n = 12.0, 512
    x = np.linspace(-radius, radius, n + 1)
    X, Y = np.meshgrid(x, x, indexing="ij")
    values = np.exp(-0.5 * (X * X + Y * Y))
    check_edge_decay(values, "gaussian")
    for pvec in ((0.0, 0.0), (1.0, -0.5), (math.sqrt(2.0), 0.3)):
        got = transform_samples_2d(values, radius, pvec)
        expect = 2.0 * np.pi * np.exp(-0.5 * (pvec[0] ** 2 + pvec[1] ** 2))
        assert_allclose(got, expect, rtol=1e-8, atol=1e-10)
    batch = transform_samples_2d(values, radius, np.array([[0.0, 0.0], [1.0, -0.5]]))
    assert batch.shape == (2,)


def test_gauss_legendre_cached_and_exact():
    x, w = gauss_legendre(5)
    assert_allclose(np.sum(w), 2.0, rtol=1e-14)
    assert_allclose(np.dot(w, x**8), 2.0 / 9.0, rtol=1e-13)
    x2, w2 = gauss_legendre(5)
    assert x2 is x and w2 is w
