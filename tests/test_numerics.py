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
    _BAND_DECAY,
    _SampleRow,
    _band_ratio,
    _integrate_moments,
    _next_fast_len,
    _nufft_plan,
    _trapezoid_weights,
)
from slabscat import numerics
from slabscat.amp2d import ScatteringConfig2D, amplitude_2d
from slabscat.cloak import CoatingMaterials
from slabscat.dyson1d import constant_slab_1d, transfer_matrix_1d
from slabscat.kernels import momentum_grid
from slabscat.profiles import (
    Profile2D,
    _moment_samples,
    ex1_profile,
    gaussian_slab_2d,
    moment_2d,
    profile_from_dict,
)


def test_gk_constants_consistent():
    assert_allclose(np.sum(_GK_WEIGHTS), 2.0, rtol=1e-15)
    assert_allclose(np.sum(_G_WEIGHTS), 2.0, rtol=1e-15)
    assert_allclose(_WG[3], 512.0 / 1225.0, rtol=1e-15)


def test_integrate_constant_exact():
    assert_allclose(integrate_1d(lambda x: np.ones_like(x), 0.0, 1.0), 1.0, rtol=1e-15)


@pytest.mark.parametrize(
    "bad",
    [np.nan, np.inf, -np.inf] + [pytest.param(s * 10**400, id=f"{s:+}e400") for s in (1, -1)],
)
@pytest.mark.parametrize("limit", range(4))
def test_integrators_refuse_non_finite_limits(limit, bad):
    # refused before the integrand is evaluated, as a bad input rather than
    # as a non-finite integrand (or, for an int beyond the float range, as
    # an OverflowError from its conversion)
    calls = []
    f = lambda *x: calls.append(x) or np.ones(np.broadcast(*x).shape)
    limits = [0.0, 1.0, 0.0, 1.0]
    limits[limit] = bad
    with pytest.raises(DomainError, match="^integration limits must be finite$"):
        integrate_2d(f, *limits)
    if limit < 2:
        with pytest.raises(DomainError, match="^integration limits must be finite$"):
            integrate_1d(f, *limits[:2])
    assert calls == []


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
    # 318 jumps, off the dyadic points, never converge to 1e-14
    spec = QuadratureSpec(rel_tol=1e-14, abs_tol=1e-300)
    with pytest.raises(AccuracyError) as info:
        integrate_1d(lambda x: np.sign(np.sin(1e3 * x)), 0.0, 1.0, spec)
    assert str(info.value).startswith("integrate_1d did not converge within 2000 subdivisions")
    assert info.value.estimate is not None
    assert info.value.error_estimate > 0
    # a jump inside a panel 64 ulp wide runs out of halvings before the budget
    b, jump = 1.0 + 2.0**-46, 1.0 + 2.0**-47 + 3.0 * 2.0**-52
    step = lambda x: np.where(x < jump, 1.0, 0.0)
    with pytest.raises(AccuracyError) as info:
        integrate_1d(step, 1.0, b, QuadratureSpec(rel_tol=1e-300, abs_tol=0.0))
    assert str(info.value) == "integrate_1d hit the resolution limit of double precision"
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


_KINKED = lambda x, y: np.abs(x - 0.3) * np.abs(y - 0.7)


def _unit_square_sum(f, n):
    """The n x 2n tensor Gauss-Legendre sum of f over the unit square."""
    tx, wx = gauss_legendre(n)
    ty, wy = gauss_legendre(2 * n)
    return 0.25 * (wx @ f(0.5 + 0.5 * tx[:, None], 0.5 + 0.5 * ty[None, :]) @ wy)


def test_integrate_2d_kinked_integrand_raises():
    # the kinks at x = 0.3 and y = 0.7 stall the tensor rule at every level
    f, shapes = _shapes_seen(_KINKED)
    with pytest.raises(AccuracyError, match=r"by n = 256 on \[0, 1\] x \[0, 1\] \(error") as info:
        integrate_2d(f, 0.0, 1.0, 0.0, 1.0)
    assert shapes == [(16, 1), (32, 1), (64, 1), (128, 1), (256, 1)]
    # the n = 256 sum, and its gap to the n = 128 sum
    last, before = _unit_square_sum(_KINKED, 256), _unit_square_sum(_KINKED, 128)
    assert_allclose(info.value.estimate, last, rtol=1e-14)
    assert_allclose(info.value.error_estimate, abs(last - before), rtol=1e-9)
    assert info.value.error_estimate > 1e-8 * abs(last)


def test_integrate_2d_non_finite_integrand_fails_after_one_level():
    f, shapes = _shapes_seen(lambda x, y: np.where(x > 0.9, np.nan, x * y))
    with pytest.raises(AccuracyError, match=r"not finite on \[0, 1\] x \[0, 2\]"):
        integrate_2d(f, 0.0, 1.0, 0.0, 2.0)
    assert shapes == [(16, 1)]


def _batch(integrands):
    """The batch form of ``integrands``, plus a list of (live, x shape) per call."""
    calls = []

    def batch(live, x, y):
        calls.append((live.tolist(), np.shape(x)))
        shape = np.broadcast(x, y).shape
        return np.stack([np.broadcast_to(integrands[j](x, y), shape) for j in live])

    return batch, calls


# cos(w (x + 2y)) on the unit square stops at n = 32 for w <= 20, 64 at 40, 128 at 80
_WAVES = [lambda x, y, w=w: np.cos(w * (x + 2.0 * y)) for w in (1.0, 80.0, 5.0, 40.0, 20.0)]


def test_integrate_2d_batch_matches_single_calls_bit_for_bit():
    batch, calls = _batch(_WAVES)
    got = integrate_2d(batch, 0.0, 1.0, 0.0, 1.0, batch=len(_WAVES))
    assert got.shape == (len(_WAVES),)
    for f, value in zip(_WAVES, got):
        single = integrate_2d(f, 0.0, 1.0, 0.0, 1.0)
        assert value.tobytes() == np.complex128(single).tobytes()
    # each integrand runs until its own level: the w = 80 one alone reaches 128
    assert calls == [
        ([0, 1, 2, 3, 4], (16, 1)),
        ([0, 1, 2, 3, 4], (32, 1)),
        ([1, 3], (64, 1)),
        ([1], (128, 1)),
    ]


def test_integrate_2d_batch_blocks_are_capped():
    many = [lambda x, y, c=c: np.exp(-c * x * y) for c in np.linspace(0.5, 3.0, 40)]
    batch, calls = _batch(many)
    got = integrate_2d(batch, 0.0, 1.0, 0.0, 1.0, batch=len(many))
    for f, value in zip(many, got):
        assert value == integrate_2d(f, 0.0, 1.0, 0.0, 1.0)
    # 2^14 values a call: 32 integrands of 16 x 32 nodes, 8 of 32 x 64
    assert [len(live) for live, _ in calls] == [32, 8] + [8] * 5
    assert all(len(live) * 2 * shape[0] ** 2 <= 2**14 for live, shape in calls)


def test_integrate_2d_batch_non_finite_point_raises():
    broken = _WAVES[:2] + [lambda x, y: np.where(x > 0.9, np.nan, x * y)] + _WAVES[2:]
    batch, calls = _batch(broken)
    with pytest.raises(AccuracyError, match=r"not finite on \[0, 1\] x \[0, 2\]"):
        integrate_2d(batch, 0.0, 1.0, 0.0, 2.0, batch=len(broken))
    assert [shape for _, shape in calls] == [(16, 1)]


def test_integrate_2d_batch_kinked_point_raises():
    mixed = [_WAVES[0], _KINKED, _WAVES[2]]
    batch, calls = _batch(mixed)
    with pytest.raises(AccuracyError, match=r"\[0, 1\] x \[0, 1\] \(integrand 1\)") as info:
        integrate_2d(batch, 0.0, 1.0, 0.0, 1.0, batch=3)
    assert [live for live, _ in calls] == [[0, 1, 2], [0, 1, 2], [1], [1], [1]]
    # the attached estimates are the bits the integrand gets alone
    with pytest.raises(AccuracyError) as alone:
        integrate_2d(_KINKED, 0.0, 1.0, 0.0, 1.0)
    assert info.value.estimate == alone.value.estimate
    assert info.value.error_estimate == alone.value.error_estimate


def _batch_1d(integrands):
    """The 1-D batch form of ``integrands``, plus a list of (live, x shape) per call."""
    calls = []

    def batch(live, x):
        calls.append((live.tolist(), x.shape))
        return np.stack([np.broadcast_to(integrands[j](row), row.shape) for j, row in zip(live, x)])

    return batch, calls


# exp(i w x) on [0, 2] takes 0 halvings for w = 1, 28 for 60, 4 for 12 and 12 for 30
_PHASES = [lambda x, w=w: np.exp(1j * w * x) for w in (1.0, 60.0, 12.0, 30.0)]


@pytest.mark.parametrize("a, b", [(0.0, 2.0), (2.0, 0.0)])
def test_integrate_1d_batch_matches_single_calls_bit_for_bit(a, b):
    batch, calls = _batch_1d(_PHASES)
    got = integrate_1d(batch, a, b, batch=len(_PHASES))
    assert got.shape == (len(_PHASES),)
    for f, value in zip(_PHASES, got):
        single = integrate_1d(f, a, b)
        assert value.tobytes() == np.complex128(single).tobytes()
    # one call per round: the 4 initial panels of every integrand, then the
    # two halves of the worst panel of each still running, each stopping at
    # the round it stops at alone
    assert [live for live, _ in calls] == (
        [[0, 1, 2, 3]] + [[1, 2, 3]] * 4 + [[1, 3]] * 8 + [[1]] * 16
    )
    assert [shape for _, shape in calls] == [(4, 60)] + [(len(live), 30) for live, _ in calls[1:]]


def test_integrate_1d_batch_non_finite_integrand_raises_naming_it():
    broken = _PHASES[:2] + [lambda x: np.where(x > 0.9, np.nan, x)] + _PHASES[2:]
    batch, calls = _batch_1d(broken)
    with pytest.raises(AccuracyError, match=r"^integrand 2 is not finite on \[0.75, 1\]$"):
        integrate_1d(batch, 0.0, 1.0, batch=len(broken))
    assert len(calls) == 1


def test_integrate_1d_batch_budget_exhaustion_names_the_integrand():
    # the jumps of test_integrate_budget_exhaustion_attaches_estimate, beside
    # an integrand that stops at once
    spec = QuadratureSpec(rel_tol=1e-14, abs_tol=1e-300)
    jumps = lambda x: np.sign(np.sin(1e3 * x))
    batch, calls = _batch_1d([lambda x: x * x, jumps])
    with pytest.raises(AccuracyError) as info:
        integrate_1d(batch, 0.0, 1.0, spec, batch=2)
    assert str(info.value).startswith(
        "integrate_1d (integrand 1) did not converge within 2000 subdivisions"
    )
    assert len(calls) == 2001 and calls[1][0] == [1]
    with pytest.raises(AccuracyError) as alone:
        integrate_1d(jumps, 0.0, 1.0, spec)
    assert info.value.estimate == alone.value.estimate
    assert info.value.error_estimate == alone.value.error_estimate


def test_integrate_1d_empty_batch():
    batch, calls = _batch_1d([])
    got = integrate_1d(batch, 0.0, 1.0, batch=0)
    assert got.shape == (0,) and got.dtype == complex and calls == []
    assert integrate_1d(_batch_1d(_PHASES)[0], 1.0, 1.0, batch=4).tolist() == [0j] * 4


def test_quadrature_spec_validation():
    with pytest.raises(DomainError):
        QuadratureSpec(rel_tol=0.0)
    for bad in (-1e-3, np.nan, np.inf):
        with pytest.raises(DomainError):
            QuadratureSpec(abs_tol=bad)
    for bad in (np.nan, np.inf):
        with pytest.raises(DomainError, match="positive and finite"):
            QuadratureSpec(rel_tol=bad)


HUGE = 10**400  # a Python int beyond the float range: JSON and Python both allow one
_HUGE_INPUTS = {
    "ScatteringConfig2D-k": lambda: ScatteringConfig2D(k=HUGE, ell=1.0, theta0=0.3),
    "gaussian_slab_2d-L": lambda: gaussian_slab_2d(0.5, HUGE),
    "constant_slab_1d-n": lambda: constant_slab_1d(HUGE),
    "momentum_grid-k": lambda: momentum_grid(HUGE),
    "transfer_matrix_1d-k": lambda: transfer_matrix_1d(constant_slab_1d(1.5), HUGE, 1.0),
    "CoatingMaterials-z1": lambda: CoatingMaterials(z1=HUGE, z2=1.0),
    "profile_from_dict-L": lambda: profile_from_dict({"catalog": "gaussian2d", "z": 0.5, "L": HUGE}),
    "QuadratureSpec-rel_tol": lambda: QuadratureSpec(rel_tol=HUGE),
    "QuadratureSpec-abs_tol": lambda: QuadratureSpec(abs_tol=HUGE),
}


@pytest.mark.parametrize("case", sorted(_HUGE_INPUTS))
def test_an_int_too_large_for_a_float_is_a_domain_error(case):
    # the positive-finite and finite rules refuse it by its range, as they
    # refuse inf, rather than let float() or cmath overflow
    with pytest.raises(DomainError, match="finite"):
        _HUGE_INPUTS[case]()


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


def _transform_samples_1d_direct(values, radius, p):
    """transform_samples_1d as the explicit sum over every sample (test oracle)."""
    values = np.asarray(values, dtype=complex)
    n = values.size - 1
    wf = _trapezoid_weights(n, 2.0 * radius / n) * values
    wfr = wf.real.copy()
    wfi = wf.imag.copy()
    y = np.linspace(-radius, radius, n + 1)

    scalar = np.isscalar(p) or np.asarray(p).ndim == 0
    p_arr = np.atleast_1d(np.asarray(p, dtype=float))
    out = np.empty(p_arr.size, dtype=complex)
    for i, pi in enumerate(p_arr):
        ph = pi * y
        cs = np.cos(ph)
        sn = np.sin(ph)
        out[i] = (cs @ wfr + sn @ wfi) + 1j * (cs @ wfi - sn @ wfr)
    return out[0] if scalar else out


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
        # a sample row takes the cached path: the same bits
        frozen = _SampleRow(values)
        assert np.array_equal(transform_samples_1d(frozen, radius, p), got)
        assert np.array_equal(transform_samples_1d(frozen, radius, p[::-1]), got[::-1])
        scalar = transform_samples_1d(values, radius, 1.3)
        assert np.ndim(scalar) == 0
        assert abs(scalar - _transform_samples_1d_direct(values, radius, 1.3)) <= bound
        assert transform_samples_1d(values, radius, np.array([])).shape == (0,)
        assert not np.any(transform_samples_1d(np.zeros(n + 1), radius, p))


def test_transform_block_form_keeps_each_momentum_bits():
    # one call on m momenta (4,097 crosses a block edge) gives each momentum
    # the bits of its own one-momentum call, on cached and uncached rows
    rng = np.random.default_rng(20261019)
    radius, n = 3.0, 1024
    values = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    frozen = _SampleRow(values)
    h = 2.0 * radius / n
    bound = 1e-13 * h * np.sum(np.abs(values))
    for m in (1, 15, 30, 4097):
        p = rng.uniform(-2.5, 2.5, m) * np.pi / h
        for row in (values, frozen):
            got = transform_samples_1d(row, radius, p)
            alone = np.array([transform_samples_1d(row, radius, pi) for pi in p])
            assert got.tobytes() == alone.tobytes(), m
        assert np.max(np.abs(got - _transform_samples_1d_direct(values, radius, p))) <= bound


def test_transform_keeps_the_shape_of_the_momenta():
    values = gaussian(np.linspace(-12.0, 12.0, 1025))
    p = np.linspace(-3.0, 3.0, 35).reshape(7, 5)
    got = transform_samples_1d(values, 12.0, p)
    assert got.shape == (7, 5)
    assert got.tobytes() == transform_samples_1d(values, 12.0, p.ravel()).tobytes()
    assert transform_samples_1d(values, 12.0, np.empty((0, 3))).shape == (0, 3)


def test_read_only_row_takes_one_fft(monkeypatch):
    # one FFT per transformed row (m_0 and m_1) of the accepted grid, however
    # many angles; the grid search itself takes no NUFFT
    closed = gaussian_slab_2d(0.6 + 0.1j, 1.1)
    prof = Profile2D(eval=closed.eval, decay_radius=closed.decay_radius)
    cfg = ScatteringConfig2D(k=0.9, ell=0.1, theta0=0.3)
    ffts = []
    fine_grid = numerics._fine_grid
    monkeypatch.setattr(numerics, "_fine_grid", lambda v: ffts.append(v.size) or fine_grid(v))
    for theta in (0.7, 2.0, -2.9):
        amplitude_2d(prof, cfg, theta)
    panels = _moment_samples(prof, cfg.k)[0]
    assert ffts == [panels + 1] * 2
    # a finer grid's row keeps its whole fine grid from its first transform:
    # momenta far out in its band take no further FFT, and get a fresh row's bits
    row = _moment_samples(prof, cfg.k, panels=1024)[1][0]
    transform_samples_1d(row, prof.decay_radius, 0.4)
    far = np.array([0.4, 60.0, -75.0])
    got = transform_samples_1d(row, prof.decay_radius, far)
    assert ffts[2:] == [1025]
    fresh = transform_samples_1d(row.values.copy(), prof.decay_radius, far)
    assert got.tobytes() == fresh.tobytes()
    assert transform_samples_1d(row, prof.decay_radius, 0.4) == got[0]


def test_band_ratio_is_read_at_the_top_of_the_band():
    # a Gaussian on [-12, 12] (transform e^{-p^2/2}) has decayed on the outer
    # quarter of the band of 128 panels (|p| >= 12.6), not of 64 (|p| >= 6.3);
    # so has an odd row, whose transform vanishes at the band's very top, and
    # a mesh of their product
    for n, decayed in ((64, False), (128, True)):
        y = np.linspace(-12.0, 12.0, n + 1)
        for values in (gaussian(y), (1.0 - 2.0j) * y * gaussian(y)):
            assert (_band_ratio(values) <= _BAND_DECAY) == decayed
        assert (_band_ratio(np.outer(gaussian(y), y * gaussian(y))) <= _BAND_DECAY) == decayed
    # a kink (e^{-|y|}, transform 2 / (1 + p^2)) decays only as p^-2: not
    # within 2^16 panels, and each doubling divides its ratio by about 4
    kink = [_band_ratio(np.exp(-np.abs(np.linspace(-40.0, 40.0, n + 1)))) for n in (2**15, 2**16)]
    assert kink[1] > _BAND_DECAY and 0.2 < kink[1] / kink[0] < 0.3
    # zero samples have nothing to resolve
    assert _band_ratio(np.zeros(65)) == 0.0 and _band_ratio(np.zeros((65, 65))) == 0.0


def test_transform_samples_rejects_non_finite_momenta():
    values = gaussian(np.linspace(-12.0, 12.0, 1025))
    with pytest.raises(DomainError, match="finite"):
        transform_samples_1d(values, 12.0, [0.5, np.nan])
    for row, radius, message in (
        (values[:1], 12.0, "at least two samples"),
        (np.array([]), 12.0, "at least two samples"),
        (np.ones((3, 3)), 12.0, "one 1-D row"),
        (values, 0.0, "radius must be positive and finite"),
        (values, -12.0, "radius must be positive and finite"),
        (values, np.inf, "radius must be positive and finite"),
        (values, np.nan, "radius must be positive and finite"),
    ):
        with pytest.raises(DomainError, match=message):
            transform_samples_1d(row, radius, 0.5)


_MESH = np.exp(-0.5 * np.add.outer(*(np.linspace(-6.0, 6.0, 9) ** 2,) * 2))


@pytest.mark.parametrize(
    "values, radius, pvec, message",
    [
        (_MESH, 6.0, (0.5, np.nan), "transform momenta must be finite"),
        (_MESH, 0.0, (0.5, 0.2), "transform radius must be positive and finite"),
        (_MESH, -3.0, (0.5, 0.2), "transform radius must be positive and finite"),
        (_MESH, np.inf, (0.5, 0.2), "transform radius must be positive and finite"),
        (_MESH[:1, :1], 6.0, (0.5, 0.2), "a square mesh of at least 2 x 2 samples"),
        (_MESH[:, :5], 6.0, (0.5, 0.2), "a square mesh of at least 2 x 2 samples"),
    ],
    ids=["nan-momentum", "radius-0", "radius-negative", "radius-inf", "1x1", "9x5"],
)
def test_transform_samples_2d_refuses_what_1d_refuses(values, radius, pvec, message):
    with pytest.raises(DomainError, match=message):
        transform_samples_2d(values, radius, pvec)


def test_a_changed_array_transforms_to_its_new_values():
    # a read-only array that owns its data is no promise that it never
    # changes: made writeable, doubled and frozen again, it transforms anew
    values = gaussian(np.linspace(-12.0, 12.0, 1025)).astype(complex)
    values.setflags(write=False)
    before = transform_samples_1d(values, 12.0, 0.5)
    values.setflags(write=True)
    values *= 2.0
    values.setflags(write=False)
    after = transform_samples_1d(values, 12.0, 0.5)
    assert after == transform_samples_1d(values.copy(), 12.0, 0.5) == 2.0 * before


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


def test_next_fast_len_matches_scipy():
    scipy_fft = pytest.importorskip("scipy.fft")
    assert [_next_fast_len(n) for n in range(1, 20_000)] == [
        scipy_fft.next_fast_len(n) for n in range(1, 20_000)
    ]


def test_gauss_legendre_cached_and_exact():
    x, w = gauss_legendre(5)
    assert_allclose(np.sum(w), 2.0, rtol=1e-14)
    assert_allclose(np.dot(w, x**8), 2.0 / 9.0, rtol=1e-13)
    x2, w2 = gauss_legendre(5)
    assert x2 is x and w2 is w
    # cached arrays are shared, so no caller may write to them
    correction = _nufft_plan(257)[1]
    for array in (x, w, correction):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0
