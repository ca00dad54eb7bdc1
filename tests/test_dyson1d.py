import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

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


def _slab_oracle(n, k, ell):
    # match psi, psi' at both faces of a homogeneous slab of index n
    kn = k * n
    return (
        np.linalg.inv(_wavefront_matrix(ell, k))
        @ _wavefront_matrix(ell, kn)
        @ np.linalg.inv(_wavefront_matrix(0.0, kn))
        @ _wavefront_matrix(0.0, k)
    )


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
    oracle = _slab_oracle(n, k, ell)
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
            if not 0.0 <= x <= 1.0:
                return 0.0
            return sum(cj * np.exp(2j * np.pi * j * x) for j, cj in enumerate(c))

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
        if not 0.0 <= x <= 1.0:
            return 0.0
        return scale * (a[0] + a[1] * np.cos(2 * np.pi * x) + a[2] * np.sin(np.pi * x))

    prof = Profile1D(eval=w, descriptor="trig")
    m = transfer_matrix_1d(prof, kl, 1.0)
    assert abs(m.det - 1.0) <= 1e-10
    direct = transfer_matrix_1d(prof, kl, 1.0, method="direct").as_array()
    assert np.linalg.norm(m.as_array() - direct) <= 1e-9 * np.linalg.norm(direct)
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
    prof = Profile1D(eval=lambda x, kk: w0 if 0.0 <= x <= 1.0 else 0.0)
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
    strong = Profile1D(eval=lambda x, k: 40.0 if 0.0 <= x <= 1.0 else 0.0)
    with pytest.raises(AccuracyError, match="increment"):
        transfer_matrix_1d(strong, 1.0, 0.5, max_terms=3, tol=1e-15)
    with pytest.raises(DomainError):
        transfer_matrix_1d(VACUUM, 1.0, 0.5, max_terms=0)
    with pytest.raises(DomainError):
        transfer_matrix_1d(VACUUM, 1.0, 0.5, method="euler")
    with pytest.raises(DomainError):
        dyson_terms(VACUUM, 1.0, 0.5, 0)
    with pytest.raises(DomainError):
        dyson_terms(VACUUM, -1.0, 0.5, 3)
