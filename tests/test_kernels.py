"""Tests for the discretized operator-kernel route.

The closed-form coefficients in amp2d act as the independent oracle for the
assembled channels; the exactly solvable one-sided profile checks the
product-transform support; hand-expanded term tables check the truncation
bookkeeping.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from slabscat import kernels
from slabscat.amp2d import ScatteringConfig2D, amplitude_2d, c_factor, f1_2d
from slabscat.exactborn import Ex1Params, ex1_f1
from slabscat.kernels import (
    amplitude_from_kernels,
    assemble_channels,
    kernel_matrix,
    kernel_n1,
    kernel_n2,
    kernel_n3,
    momentum_grid,
)
from slabscat.numerics import DomainError, TruncationError
from slabscat.profiles import (
    Profile2D,
    _convolution_moment,
    ex1_profile,
    gaussian_slab_2d,
    moment_2d,
)


def _zero_profile():
    def w_eval(x_frac, y, k):
        return np.zeros(np.broadcast(np.asarray(x_frac), np.asarray(y)).shape)

    return Profile2D(
        eval=w_eval,
        decay_radius=10.0,
        analytic_moment=lambda l, p, k: np.zeros(np.shape(p), dtype=complex),
    )


def _column(kernel, prof, a, b, grid, p0):
    """The exact column N_ab(p, p0) at the grid nodes."""
    return kernel(prof, a, b, grid.nodes, np.full(grid.nodes.size, p0), grid.k)


def test_momentum_grid_invariants():
    k = 1.7
    grid = momentum_grid(k, count=201)
    assert np.all(np.abs(grid.nodes) < k)
    assert np.all(grid.weights > 0)
    assert np.sum(grid.weights) == pytest.approx(2 * k, rel=1e-13)
    # the sine substitution integrates the propagating measure spectrally
    semicircle = np.sum(grid.weights * np.sqrt(k * k - grid.nodes**2))
    assert semicircle == pytest.approx(0.5 * np.pi * k * k, rel=1e-13)
    with pytest.raises(DomainError):
        momentum_grid(k, count=2)
    with pytest.raises(DomainError):
        momentum_grid(-1.0)
    with pytest.raises(DomainError, match="finite"):
        momentum_grid(np.inf)
    # very fine sine grids push nodes too close to the |p| = k endpoints
    with pytest.raises(DomainError):
        momentum_grid(k, count=601)


def test_kernel_n1_values_and_b_independence():
    prof = gaussian_slab_2d(0.4 + 0.1j, 1.3)
    k = 1.0
    m0_at_0 = (0.4 + 0.1j) * np.sqrt(2 * np.pi) * 1.3
    for a in (1, 2):
        want = (-1) ** a * 1j * m0_at_0 / (4 * np.pi)
        got = kernel_n1(prof, a, 1, 0.0, 0.0, k)
        assert complex(got) == pytest.approx(want, rel=1e-13)
    grid = momentum_grid(k, count=31)
    for a in (1, 2):
        k1 = kernel_matrix(prof, 1, a, 1, grid)
        k2 = kernel_matrix(prof, 1, a, 2, grid)
        np.testing.assert_array_equal(k1, k2)
    with pytest.raises(DomainError):
        kernel_n1(prof, 1, 1, 0.0, k, k)
    with pytest.raises(DomainError):
        kernel_n1(prof, 1, 1, 1.5 * k, 0.0, k)
    with pytest.raises(DomainError):
        kernel_n1(prof, 3, 1, 0.0, 0.0, k)
    with pytest.raises(DomainError, match="kernel order j"):
        kernel_matrix(prof, 4, 1, 1, grid)


def test_kernel_n2_symmetry_and_values():
    prof = gaussian_slab_2d(0.7, 0.9)
    k = 1.2
    # equal momenta, a + b even: the bracket closes exactly
    assert kernel_n2(prof, 1, 1, 0.3, 0.3, k) == pytest.approx(0.0, abs=1e-15)
    assert kernel_n2(prof, 2, 2, -0.5, -0.5, k) == pytest.approx(0.0, abs=1e-15)
    m1_at_0 = 0.7 * np.sqrt(2 * np.pi) * 0.9 / 2.0
    got = kernel_n2(prof, 1, 2, 0.0, 0.0, k)
    assert complex(got) == pytest.approx(-m1_at_0 / (2 * np.pi), rel=1e-13)
    grid = momentum_grid(k, count=31)
    mats = {
        (a, b): kernel_matrix(prof, 2, a, b, grid)
        for a in (1, 2)
        for b in (1, 2)
    }
    np.testing.assert_array_equal(mats[(1, 1)], mats[(2, 2)])
    np.testing.assert_array_equal(mats[(1, 2)], mats[(2, 1)])


def test_convolution_moment_one_sided_support():
    # ex1 is axially uniform, so C = w^2 / 6 and F[C] is a sixth of the
    # transform of w^2, one-sided above 2 alpha
    z, alpha, L = 0.5, 2.0, 1.0
    prof = ex1_profile(z, alpha, L)

    def closed(q):
        Q = q - 2 * alpha
        if Q <= 0:
            return 0.0
        return 2 * np.pi * z * z * L**4 * np.exp(-L * Q) * Q**3 / 6.0

    scale = 2 * np.pi * z * z * L
    for q in (alpha, 2 * alpha - 0.5, 2 * alpha):
        assert abs(_convolution_moment(prof, q, 1.0)) < 1e-8 * scale
    for q in (2 * alpha + 0.5, 2 * alpha + 1.5, 2 * alpha + 3.0):
        got = _convolution_moment(prof, q, 1.0)
        assert complex(got) == pytest.approx(closed(q) / 6.0, rel=1e-6)

    # independent check of one value against direct convolution of transforms
    def g_hat(p):
        return np.where(
            p >= alpha, 2 * np.pi * z * L * L * (alpha - p) * np.exp(L * (alpha - p)), 0.0
        )

    q = 2 * alpha + 1.5
    conv = quad(lambda s: (g_hat(s) * g_hat(q - s)).real, alpha, q - alpha)[0] / (
        2 * np.pi
    )
    assert _convolution_moment(prof, q, 1.0) == pytest.approx(conv / 6.0, rel=1e-6)

    with pytest.raises(TruncationError):
        _convolution_moment(
            replace(gaussian_slab_2d(1.0, 1.0), decay_radius=2.0, sample_count=1024), 0.3, 1.0
        )


def test_kernel_n3_axially_uniform_reduction():
    z, L, k = 0.7 + 0.2j, 0.9, 1.0
    prof = gaussian_slab_2d(z, L)
    p, pp = 0.3, -0.41
    q = p - pp
    m0 = z * np.sqrt(2 * np.pi) * L * np.exp(-0.5 * (L * q) ** 2)
    conv = z * z * np.sqrt(np.pi) * L * np.exp(-0.25 * (L * q) ** 2) / 6.0
    root = np.sqrt((1 - (p / k) ** 2) * (1 - (pp / k) ** 2))
    for a in (1, 2):
        for b in (1, 2):
            bracket = 1 - (p * p + pp * pp) / (2 * k * k) - (-1) ** (a + b) * root
            want = (
                1j
                * (-1) ** (a - 1)
                / (4 * np.pi * np.sqrt(1 - (pp / k) ** 2))
                * (m0 / 3.0 * bracket + conv)
            )
            got = kernel_n3(prof, a, b, p, pp, k)
            assert complex(got) == pytest.approx(want, rel=1e-12)
    zero = kernel_n3(_zero_profile(), 1, 1, p, pp, k)
    assert abs(complex(zero)) < 1e-14
    # the matrix is the kernel at every node pair, evaluated at once
    grid = momentum_grid(k, count=11)
    matrix = kernel_matrix(prof, 3, 2, 1, grid)
    for i, j in ((0, 10), (3, 7), (5, 5)):
        entry = kernel_n3(prof, 2, 1, grid.nodes[i], grid.nodes[j], k)
        assert matrix[i, j] == pytest.approx(complex(entry), rel=1e-12)


def test_channels_vacuum():
    prof = _zero_profile()
    k = 1.0
    grid = momentum_grid(k, count=31)
    for theta0 in (0.4, np.pi - 0.4):  # left and right incidence
        config = ScatteringConfig2D(k=k, ell=0.1, theta0=theta0)
        b_minus, a_plus = assemble_channels(prof, config, grid.nodes, 2, grid)
        np.testing.assert_allclose(b_minus, 0.0)
        np.testing.assert_allclose(a_plus, 0.0)
    assert amplitude_from_kernels(prof, ScatteringConfig2D(k, 0.1, 0.4), 1.0) == 0


def test_first_order_assembly_is_the_n1_column():
    prof = gaussian_slab_2d(0.25, 0.8)
    config = ScatteringConfig2D(k=1.0, ell=0.03, theta0=0.3)
    grid = momentum_grid(config.k, count=61)
    b_minus, a_plus = assemble_channels(prof, config, grid.nodes, 1, grid)
    pref = 2 * np.pi * config.varpi0
    np.testing.assert_allclose(
        a_plus, -pref * config.kl * _column(kernel_n1, prof, 1, 1, grid, config.p0),
        rtol=1e-12,
    )
    np.testing.assert_allclose(
        b_minus, pref * config.kl * _column(kernel_n1, prof, 2, 1, grid, config.p0),
        rtol=1e-12,
    )


def test_second_order_assembly_term_table():
    prof = gaussian_slab_2d(0.25, 0.8)
    k = 1.0
    grid = momentum_grid(k, count=61)
    n1 = {a: kernel_matrix(prof, 1, a, 1, grid) for a in (1, 2)}
    W = grid.weights

    def column(kernel, a, b, config):
        return _column(kernel, prof, a, b, grid, config.p0)

    def orders_1_and_2(config):
        one = assemble_channels(prof, config, grid.nodes, 1, grid)
        two = assemble_channels(prof, config, grid.nodes, 2, grid)
        return one, two

    # left incidence: single kernels at order 2 plus the 12*21 / 22*21 products
    config = ScatteringConfig2D(k=k, ell=0.03, theta0=0.3)
    pref = 2 * np.pi * config.varpi0
    (b_one, a_one), (b_two, a_two) = orders_1_and_2(config)
    col2 = column(kernel_n1, 2, 1, config)
    want_a = -pref * config.kl**2 * (
        column(kernel_n2, 1, 1, config) + n1[1] @ (W * col2)
    )
    want_b = pref * config.kl**2 * (
        column(kernel_n2, 2, 1, config) + n1[2] @ (W * col2)
    )
    np.testing.assert_allclose(a_two - a_one, want_a, rtol=1e-10)
    np.testing.assert_allclose(b_two - b_one, want_b, rtol=1e-10)

    # right incidence: the series run over 22 powers instead
    config = ScatteringConfig2D(k=k, ell=0.03, theta0=np.pi - 0.3)
    pref = 2 * np.pi * config.varpi0
    (b_one, a_one), (b_two, a_two) = orders_1_and_2(config)
    col2 = column(kernel_n1, 2, 2, config)
    want_b = pref * config.kl**2 * (
        column(kernel_n2, 2, 2, config) + n1[2] @ (W * col2)
    )
    want_a = -pref * config.kl**2 * (
        column(kernel_n2, 1, 2, config) + n1[1] @ (W * col2)
    )
    np.testing.assert_allclose(b_two - b_one, want_b, rtol=1e-10)
    np.testing.assert_allclose(a_two - a_one, want_a, rtol=1e-10)


def test_assembly_error_paths():
    prof = gaussian_slab_2d(0.25, 0.8)
    config = ScatteringConfig2D(k=1.0, ell=0.03, theta0=0.3)
    grid = momentum_grid(1.0, count=31)
    with pytest.raises(DomainError):
        assemble_channels(prof, config, grid.nodes, 4, grid)
    with pytest.raises(DomainError):  # a grid built for another wavenumber
        assemble_channels(prof, config, grid.nodes, 1, momentum_grid(1.5, count=31))
    with pytest.raises(DomainError):  # rows outside the propagating window
        assemble_channels(prof, config, np.array([0.2, 1.0]), 1, grid)
    with pytest.raises(DomainError):
        amplitude_from_kernels(prof, config, 1.0, truncation=4)
    with pytest.raises(DomainError):
        amplitude_from_kernels(prof, config, np.pi / 2)


def test_amplitude_matches_closed_forms():
    prof = gaussian_slab_2d(0.3 + 0.05j, 1.2)
    k, ell = 1.1, 0.05
    cases = [
        (-np.pi / 5, np.pi / 3),  # left incidence, transmission half
        (-np.pi / 5, 2.5),  # left incidence, reflection half
        (4 * np.pi / 3, 0.4),  # right incidence, reflection half
        (4 * np.pi / 3, 2.8),  # right incidence, transmission half
    ]
    for theta0, theta in cases:
        config = ScatteringConfig2D(k=k, ell=ell, theta0=theta0)
        first = amplitude_from_kernels(prof, config, theta, truncation=1)
        want1 = f1_2d(prof, config, theta) * config.kl
        assert first == pytest.approx(want1, rel=1e-6)
        second = amplitude_from_kernels(prof, config, theta, truncation=2)
        want2 = amplitude_2d(prof, config, theta, order=2).truncated
        assert second == pytest.approx(want2, rel=1e-6)


def test_third_order_matches_ex1_exact():
    # for k <= alpha the exact ex1 amplitude is i (e^{-i k ell c} - 1)/c * f1,
    # whose third-order coefficient is -c^2 f1 / 6
    z, alpha, L = 0.5, 1.0, 1.0
    prof = ex1_profile(z, alpha, L)
    k, kl = 1.0, 0.1
    cases = [
        (-np.pi / 5, np.pi / 3),  # left incidence, transmission half
        (-np.pi / 5, 2.5),  # left incidence, reflection half
        (4 * np.pi / 3, 0.4),  # right incidence, reflection half
        (4 * np.pi / 3, 2.8),  # right incidence, transmission half
        (0.3, 1.0),  # s < alpha / k: f1 and every order vanish
    ]
    errors, f1s = [], []
    for theta0, theta in cases:
        config = ScatteringConfig2D(k=k, ell=kl / k, theta0=theta0)
        second = amplitude_from_kernels(prof, config, theta, truncation=2)
        third = amplitude_from_kernels(prof, config, theta, truncation=3)
        f1 = ex1_f1(Ex1Params(z, alpha, L), config, theta)
        want = -c_factor(theta, theta0) ** 2 * f1 / 6.0
        errors.append(abs((third - second) / kl**3 - want))
        f1s.append(abs(f1))
    assert max(errors) <= 1e-10 * max(f1s)


def test_third_order_grid_refinement():
    prof = gaussian_slab_2d(0.3 + 0.05j, 1.2)
    config = ScatteringConfig2D(k=1.1, ell=0.05, theta0=-np.pi / 5)
    terms = []
    for count in (201, 401):
        second, third = (
            amplitude_from_kernels(prof, config, 2.5, truncation=t, node_count=count)
            for t in (2, 3)
        )
        terms.append(third - second)
    coarse, fine = terms
    assert abs(coarse - fine) <= 1e-7 * abs(fine)


def test_amplitude_grid_refinement():
    prof = gaussian_slab_2d(0.3, 1.2)
    config = ScatteringConfig2D(k=1.1, ell=0.05, theta0=-np.pi / 5)
    coarse = amplitude_from_kernels(prof, config, 2.5, truncation=2, node_count=201)
    fine = amplitude_from_kernels(prof, config, 2.5, truncation=2, node_count=402)
    assert abs(coarse - fine) < 1e-6 * abs(fine)


def test_amplitude_is_bit_for_bit_repeatable():
    # assembly is a fixed sequence of kernel evaluations and grid products,
    # so the same inputs give the same bits
    config = ScatteringConfig2D(k=1.1, ell=0.05, theta0=2.5)
    values = {
        amplitude_from_kernels(gaussian_slab_2d(0.3, 1.2), config, 0.4, node_count=21)
        for _ in range(8)
    }
    assert len(values) == 1


def test_sampled_route_matches_closed_with_linear_work(monkeypatch):
    # Nystrom assembly evaluates the first and last kernel of a chain only at
    # the requested row and at p0, so the momenta handed to the transforms
    # grow like the node count; only third-order chains take a grid matrix
    closed = gaussian_slab_2d(0.3 + 0.05j, 1.2)
    sampled = Profile2D(eval=closed.eval, decay_radius=closed.decay_radius)
    config = ScatteringConfig2D(k=1.1, ell=0.05, theta0=-np.pi / 5)
    momenta = []

    def counting(profile, l, p, *args, **kwargs):
        momenta.append(np.size(p))
        return moment_2d(profile, l, p, *args, **kwargs)

    for truncation, bound in ((2, 808), (3, 84_024)):
        momenta.clear()
        with monkeypatch.context() as patch:
            patch.setattr(kernels, "moment_2d", counting)
            got = amplitude_from_kernels(sampled, config, 2.5, truncation, 201)
        assert sum(momenta) <= bound
        want = amplitude_from_kernels(closed, config, 2.5, truncation, 201)
        assert got == pytest.approx(want, rel=1e-12, abs=0)
