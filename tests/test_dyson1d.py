import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp

from slabscat.dyson1d import (
    Profile1D,
    TransferMatrix1D,
    constant_slab_1d,
    dyson_terms,
    h_check,
    scattering_1d,
    transfer_matrix_1d,
)
from slabscat.numerics import AccuracyError, DomainError

VACUUM = Profile1D(eval=lambda x, k: 0.0, descriptor="vacuum")


def _wavefront_matrix(x, kk):
    # columns are the free solutions e^{+-ikx} and their derivatives
    return np.array(
        [
            [np.exp(1j * kk * x), np.exp(-1j * kk * x)],
            [1j * kk * np.exp(1j * kk * x), -1j * kk * np.exp(-1j * kk * x)],
        ]
    )


def _layers_oracle(k, faces, indices):
    # match psi, psi' at every face; layer j, of index indices[j], lies
    # between faces j and j + 1, with vacuum outside the first and last face
    outer = [1.0, *indices, 1.0]
    m = np.eye(2)
    for x, left, right in zip(faces, outer, outer[1:]):
        m = np.linalg.inv(_wavefront_matrix(x, k * right)) @ _wavefront_matrix(x, k * left) @ m
    return m


def _dop853_terms(profile, k, ell, n_terms):
    # the series terms by stepping the cascade T_m' = -i ell H T_{m-1} with an
    # adaptive Runge-Kutta method: an independent route to the collocated terms
    eye = np.eye(2, dtype=complex)[None]

    def rhs(x, y):
        t = y.reshape(n_terms, 2, 2)
        return (-1j * ell * (h_check(profile, x, k, ell) @ np.concatenate((eye, t[:-1])))).ravel()

    sol = solve_ivp(
        rhs, (0.0, 1.0), np.zeros(4 * n_terms, dtype=complex), method="DOP853",
        rtol=1e-12, atol=1e-14, max_step=1.0 / 16.0,
    )
    assert sol.success, sol.message
    return sol.y[:, -1].reshape(n_terms, 2, 2)


def _on_slab(x, values):
    return np.where((x >= 0.0) & (x <= 1.0), values, 0.0)


def test_h_check_structure():
    k, ell = 1.2, 0.4
    assert np.all(h_check(VACUUM, 0.3, k, ell) == 0.0)
    prof = constant_slab_1d(np.sqrt(1.8))  # w = 0.8 inside
    got = h_check(prof, 0.3, k, ell)
    phase = np.exp(-2j * k * ell * 0.3)
    expect = -0.5 * k * 0.8 * np.array([[1.0, phase], [-np.conj(phase), -1.0]])
    assert_allclose(got, expect, rtol=1e-14)
    assert np.all(h_check(prof, -0.5, k, ell) == 0.0)
    assert np.all(h_check(prof, 1.5, k, ell) == 0.0)
    rng = np.random.default_rng(3)
    for x in rng.uniform(0.0, 1.0, 7):
        h = h_check(prof, x, k, ell)
        assert abs(h[0, 0] + h[1, 1]) < 1e-15
        assert abs(np.linalg.det(h)) < 1e-15


def test_vacuum_gives_identity():
    m = transfer_matrix_1d(VACUUM, 1.0, 0.5)
    assert (m.m11, m.m12, m.m21, m.m22) == (1.0, 0.0, 0.0, 1.0)
    assert scattering_1d(m) == (0.0, 0.0, 1.0)


def test_constant_slab_against_wavefront_matching():
    n, k, ell = 1.5, 1.0, 0.1  # k ell = 0.1
    prof = constant_slab_1d(n)
    m = transfer_matrix_1d(prof, k, ell)
    oracle = _layers_oracle(k, [0.0, ell], [n])
    assert np.max(np.abs(m.as_array() - oracle)) < 1e-8
    assert abs(m.det - 1.0) < 1e-10

    direct = transfer_matrix_1d(prof, k, ell, method="direct")
    assert_allclose(direct.as_array(), m.as_array(), rtol=1e-10, atol=1e-14)

    r_left, r_right, t = scattering_1d(m)
    assert_allclose(r_left, -oracle[1, 0] / oracle[1, 1], rtol=1e-10)
    assert_allclose(r_right, oracle[0, 1] / oracle[1, 1], rtol=1e-10)
    # interference ("etalon") closed forms for the homogeneous slab
    t_closed = np.exp(-1j * k * ell) / (
        np.cos(k * n * ell) - 0.5j * (n + 1.0 / n) * np.sin(k * n * ell)
    )
    r_closed = -0.5j * (1.0 / n - n) * np.sin(k * n * ell) * t_closed * np.exp(1j * k * ell)
    assert_allclose(t, t_closed, rtol=1e-10)
    assert_allclose(r_left, r_closed, rtol=1e-10)


def test_unimodularity_for_random_bounded_profiles():
    rng = np.random.default_rng(11)
    for _ in range(4):
        c = (rng.normal(size=5) + 1j * rng.normal(size=5)) / 4.0

        def w(x, k, c=c):
            return _on_slab(x, sum(cj * np.exp(2j * np.pi * j * x) for j, cj in enumerate(c)))

        prof = Profile1D(eval=w, descriptor="random trig")
        m = transfer_matrix_1d(prof, 1.3, 0.2)
        assert abs(m.det - 1.0) < 1e-10


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    a=st.tuples(*[st.floats(-0.5, 0.5)] * 3),
    lossy=st.booleans(),
    kl=st.floats(0.05, 2.0),
)
def test_series_is_unimodular_matches_direct_and_conserves_flux(a, lossy, kl):
    scale = 1.0 + 0.3j if lossy else 1.0

    def w(x, k):
        values = a[0] + a[1] * np.cos(2 * np.pi * x) + a[2] * np.sin(np.pi * x)
        return _on_slab(x, scale * values)

    prof = Profile1D(eval=w, descriptor="trig")
    m = transfer_matrix_1d(prof, kl, 1.0)
    assert abs(m.det - 1.0) <= 1e-10
    direct = transfer_matrix_1d(prof, kl, 1.0, method="direct").as_array()
    assert np.linalg.norm(m.as_array() - direct) <= 1e-13 * np.linalg.norm(direct)
    oracle = np.eye(2) + _dop853_terms(prof, kl, 1.0, 24).sum(axis=0)
    for got in (m.as_array(), direct):
        assert np.linalg.norm(got - oracle) <= 1e-12 * np.linalg.norm(oracle)
    if not lossy:  # a real w neither absorbs nor amplifies
        r_left, r_right, t = scattering_1d(m)
        for r in (r_left, r_right):
            assert abs(abs(r) ** 2 + abs(t) ** 2 - 1.0) <= 1e-10


def test_term_decay_and_kl_scaling():
    prof = constant_slab_1d(1.5)
    terms = dyson_terms(prof, 1.0, 0.3, 10)  # k ell = 0.3
    norms = [np.linalg.norm(t) for t in terms]
    for i in range(4, 9):
        assert norms[i + 1] < norms[i]
    # with k-independent w each term depends on k and ell only through k*ell
    rescaled = dyson_terms(prof, 2.0, 0.15, 10)
    assert_allclose(rescaled, terms, rtol=1e-12, atol=1e-18)


def test_weak_contrast_first_order_reflection():
    w0, k, ell = 1e-4, 1.0, 0.35
    prof = Profile1D(eval=lambda x, kk: _on_slab(x, w0))
    r_left, r_right, t = scattering_1d(transfer_matrix_1d(prof, k, ell))
    # the slab sits on [0, ell], so the two sides differ by a round-trip phase
    assert_allclose(r_left, w0 * (np.exp(2j * k * ell) - 1.0) / 4.0, rtol=2e-4)
    assert_allclose(r_right, w0 * (1.0 - np.exp(-2j * k * ell)) / 4.0, rtol=2e-4)
    assert abs(t - 1.0) < 1e-3


def test_scattering_relations_and_guards():
    rng = np.random.default_rng(17)
    for _ in range(5):
        m12, m21, m22 = rng.normal(size=3) + 1j * rng.normal(size=3)
        m11 = (1.0 + m12 * m21) / m22
        m = TransferMatrix1D(m11=m11, m12=m12, m21=m21, m22=m22)
        assert abs(m.det - 1.0) < 1e-12
        r_left, r_right, t = scattering_1d(m)
        assert_allclose(t * t - r_left * r_right, m11 / m22, rtol=1e-12)
    with pytest.raises(DomainError):
        scattering_1d(TransferMatrix1D(1.0, 0.0, 0.0, 0.0))
    with pytest.warns(UserWarning):
        scattering_1d(TransferMatrix1D(1e9, 1.0, 1.0, 1e-9))


def test_series_stop_and_error_paths():
    strong = Profile1D(eval=lambda x, k: _on_slab(x, 40.0))
    with pytest.raises(AccuracyError, match="increment"):
        transfer_matrix_1d(strong, 1.0, 0.5, max_terms=3, tol=1e-15)
    for k, ell, options in (
        (1.0, 0.5, {"max_terms": 0}),
        (1.0, 0.5, {"max_terms": 2.5}),
        (1.0, 0.5, {"tol": np.nan}),
        (-1.0, 0.5, {"method": "direct"}),
        (0.0, 0.5, {"method": "direct"}),
        (1.0, -1.0, {"method": "direct"}),
        (np.inf, 0.5, {}),
        (1.0, np.nan, {}),
    ):
        with pytest.raises(DomainError):
            transfer_matrix_1d(VACUUM, k, ell, **options)
    with pytest.raises(DomainError):
        transfer_matrix_1d(VACUUM, 1.0, 0.5, method="euler")
    for k, ell, n_terms in (
        (1.0, 0.5, 0),
        (-1.0, 0.5, 3),
        (np.inf, 0.5, 3),
        (1.0, np.inf, 3),
        (1.0, 0.5, 2.5),
        (1.0, 0.5, True),
    ):
        with pytest.raises(DomainError):
            dyson_terms(VACUUM, k, ell, n_terms)


@pytest.mark.parametrize("n", [1e300, -2e154, complex(1e154, 1e154), complex(0.0, 1e200)])
def test_constant_slab_refuses_an_index_whose_square_overflows(n):
    # complex(n) ** 2 would raise OverflowError; the refusal is a DomainError
    with pytest.raises(DomainError, match="^n\\^2 must be finite$"):
        constant_slab_1d(n)


def test_constant_slab_takes_the_largest_index_whose_square_is_finite():
    n = 1e154  # n^2 = 1e308 is finite
    assert constant_slab_1d(n).eval(np.array([0.5, 2.0]), 1.0).tolist() == [n * n - 1.0, 0.0]


def test_two_layer_slab_against_wavefront_matching():
    # w jumps inside the slab, so panels close in on x_check = 0.37 from both sides
    k, ell = 1.0, 1.0
    prof = Profile1D(eval=lambda x, kk: _on_slab(x, np.where(x < 0.37, 0.5, 1.2)))
    oracle = _layers_oracle(k, [0.0, 0.37 * ell, ell], [np.sqrt(1.5), np.sqrt(2.2)])
    for method in ("series", "direct"):
        m = transfer_matrix_1d(prof, k, ell, method=method).as_array()
        assert np.linalg.norm(m - oracle) <= 1e-12 * np.linalg.norm(oracle), method


def test_unusable_profiles_fail_fast():
    nan = Profile1D(eval=lambda x, k: np.full(np.shape(x), np.nan))
    rng = np.random.default_rng(5)
    noise = Profile1D(eval=lambda x, k: rng.normal(size=np.shape(x)))
    for method in ("series", "direct"):
        # a non-finite value fails the first panel, before any halving
        with pytest.raises(AccuracyError, match=r"not finite on \[0, 1\]"):
            transfer_matrix_1d(nan, 1.0, 1.0, method=method)
        start = time.perf_counter()
        with pytest.raises(AccuracyError, match="did not converge"):
            transfer_matrix_1d(noise, 1.0, 1.0, method=method)
        assert time.perf_counter() - start < 1.0, method
    with pytest.raises(AccuracyError, match=r"not finite on \[0, 1\]"):
        dyson_terms(nan, 1.0, 1.0, 3)


def _two_layer(upper):
    # w jumps from 0.5 to upper at x_check = 0.37
    return Profile1D(eval=lambda x, k: _on_slab(x, np.where(x < 0.37, 0.5, upper)))


SMOOTH_LOSSY = Profile1D(
    eval=lambda x, k: _on_slab(x, (0.6 + 0.2j) + 0.3 * np.cos(2 * np.pi * x)), descriptor="lossy"
)


def test_dyson_terms_do_not_depend_on_how_many_are_asked_for():
    for prof, k, ell in ((SMOOTH_LOSSY, 1.3, 0.8), (_two_layer(1.2 + 0.3j), 1.0, 1.0)):
        assert np.array_equal(dyson_terms(prof, k, ell, 30)[:7], dyson_terms(prof, k, ell, 7))


def test_series_is_the_identity_plus_the_terms_up_to_the_stop():
    for prof, k, ell, tol in (
        (constant_slab_1d(1.5), 1.0, 0.5, 1e-12),
        (SMOOTH_LOSSY, 1.3, 0.8, 1e-9),
        (_two_layer(1.2 + 0.3j), 1.0, 1.0, 1e-12),
    ):
        total = np.eye(2, dtype=complex)
        for term in dyson_terms(prof, k, ell, 40):
            total = total + term
            if np.linalg.norm(term) < tol:
                break
        got = transfer_matrix_1d(prof, k, ell, tol=tol).as_array()
        assert np.array_equal(got, total)


def test_series_and_direct_evaluate_the_profile_at_the_same_points():
    # one panel list serves both modes, so both ask for w at the same abscissae
    for prof in (SMOOTH_LOSSY, _two_layer(1.2 + 0.3j)):
        seen = {}
        for method in ("series", "direct"):
            calls = seen[method] = []

            def w(x, k, calls=calls, inner=prof.eval):
                calls.append(np.array(x))
                return inner(x, k)

            transfer_matrix_1d(Profile1D(eval=w), 1.0, 1.0, method=method)
        assert len(seen["series"]) == len(seen["direct"]) > 1
        for a, b in zip(seen["series"], seen["direct"]):
            assert np.array_equal(a, b)


def test_a_large_term_budget_costs_nothing():
    # the series stops at the first term below tol, whatever max_terms allows
    prof = _two_layer(1.2 + 0.3j)
    default = transfer_matrix_1d(prof, 1.0, 1.0)
    start = time.perf_counter()
    large = transfer_matrix_1d(prof, 1.0, 1.0, max_terms=20_000)
    assert time.perf_counter() - start < 1.0
    assert large == default
