"""Profiles whose first Born approximation is the exact amplitude.

If the transverse spectrum of the profile is one-sided,

    w~(x_frac, p; k) = 0   for p <= alpha,

then for every k <= alpha the first Born approximation reproduces the exact
scattering amplitude,

    f(theta) = - vv(k c, k s; k) / (2 sqrt(2 pi)),
    vv(p_x, p_y; k) = -k^2 INT_0^ell dx e^{-i x p_x} w~(x/ell, p_y; k),

and such slabs are perfectly invisible for k <= alpha/2 (the momentum
transfer k*s never reaches the support edge).  The module provides the
support-condition predicate, the exact amplitude, the worked one-sided
example

    w(x_frac, y) = z e^{i alpha y} / (y/L + i)^2

with its closed-form coefficients (including the arcsine bracket
x_function), and a Richardson extractor that recovers the series
coefficients from any amplitude-of-thickness function.
"""

import math
from dataclasses import dataclass

import numpy as np

from .amp2d import c_factor, s_factor
from .numerics import (
    DomainError,
    QuadratureSpec,
    TransformSpec,
    _integrate_moments,
    check_edge_decay,
    fourier_1d,
    integrate_1d,
    transform_samples_1d,
)
from .profiles import Profile2D

__all__ = [
    "BornExactProfile",
    "Ex1Params",
    "is_born_exact",
    "ttv",
    "exact_amplitude",
    "ex1_exact",
    "ex1_f1",
    "ex1_f2",
    "x_function",
    "extract_series_coefficients",
]

_SQRT_PI_OVER_2 = math.sqrt(math.pi / 2.0)
_VALIDITY_SLACK = 1.0 + 1e-12
_EXTRACT_LEVELS = 8  # thicknesses ell_max * 2^-j of extract_series_coefficients


@dataclass(frozen=True)
class Ex1Params:
    """Parameters of the worked one-sided profile z e^{i a y}/(y/L + i)^2."""

    z: complex
    alpha: float
    L: float

    def __post_init__(self):
        if not 0 < self.alpha < math.inf:
            raise DomainError("alpha must be positive and finite")
        if not 0 < self.L < math.inf:
            raise DomainError("L must be positive and finite")


# sampling grid of the one-sided support probe: momenta per side, x_frac
# slices, the tolerated below/above magnitude ratio, and the probing k
_SUPPORT_P_COUNT = 25
_SUPPORT_X_COUNT = 5
_SUPPORT_REL_TOL = 1e-9
_SUPPORT_K = 1.0


def _transform_slice(profile, x_frac, p, k):
    """w~(x_frac, p; k) on a 1-D array of momenta p; a closed w~ also broadcasts x_frac."""
    if profile.analytic_transform is not None:
        return np.asarray(profile.analytic_transform(x_frac, p, k), dtype=complex)
    spec = TransformSpec(profile.decay_radius, profile.sample_count)
    return fourier_1d(lambda y: profile.eval(x_frac, y, k), p, spec)


def is_born_exact(profile, alpha):
    """Probe whether w~(x_frac, p; k) vanishes for all p <= alpha.

    The transform is sampled on a grid of x_frac slices and momenta below
    alpha; the largest magnitude found there is compared against the largest
    magnitude on the mirrored grid above alpha.  Each slice is transformed
    once, at all of its momenta.  A profile that is zero everywhere passes
    vacuously.
    """
    k = _SUPPORT_K
    # momentum span: wide enough to cover both the reflected support window
    # and the spectral width suggested by the decay radius
    span = 2.0 * abs(alpha) + 100.0 / profile.decay_radius
    offsets = span * np.linspace(0.0, 1.0, _SUPPORT_P_COUNT) ** 2
    momenta = np.concatenate((alpha - offsets, alpha + offsets[1:]))
    xs = np.linspace(0.05, 0.95, _SUPPORT_X_COUNT)
    below = 0.0
    above = 0.0
    for xf in xs:
        magnitude = np.abs(_transform_slice(profile, xf, momenta, k))
        below = max(below, np.max(magnitude[:_SUPPORT_P_COUNT]))
        above = max(above, np.max(magnitude[_SUPPORT_P_COUNT:]))
    return below <= _SUPPORT_REL_TOL * max(above, below)


@dataclass(frozen=True)
class BornExactProfile:
    """A profile paired with its verified support threshold alpha (frozen)."""

    base: Profile2D
    alpha: float

    def __post_init__(self):
        if not is_born_exact(self.base, self.alpha):
            raise DomainError(
                "the profile's transform does not vanish below the support "
                f"threshold alpha = {self.alpha}"
            )


def ttv(profile, p_x, p_y, k, ell, quadrature=None):
    """Interaction transform -k^2 INT_0^ell dx e^{-i x p_x} w~(x/ell, p_y; k).

    ``ell`` is the slab thickness; the axial integral is adaptive in the
    scaled coordinate, to ``quadrature`` (default QuadratureSpec()): by
    integrate_1d of a closed transform, else by the axial sampler over the
    rows e^{-i ell p_x x_frac} w(x_frac, y) on the transverse grid, whose
    one integrated row is checked for edge decay and transformed at p_y.
    """
    spec = quadrature or QuadratureSpec()
    phase = lambda xf: np.exp(-1j * ell * p_x * xf)
    if profile.analytic_transform is not None:
        integrand = lambda xf: phase(xf) * _transform_slice(profile, xf, p_y, k)
        return -(k * k) * ell * integrate_1d(integrand, 0.0, 1.0, spec)
    y = np.linspace(-profile.decay_radius, profile.decay_radius, profile.sample_count + 1)
    row = lambda xf: phase(xf) * profile.eval(xf, y, k)
    values = _integrate_moments(row, (0,), profile._axial_breaks, spec)[0]
    check_edge_decay(values, "integrand")
    return -(k * k) * ell * transform_samples_1d(values, profile.decay_radius, p_y)


def _check_validity(k, alpha):
    """Refuse k above the support threshold alpha rather than extrapolate."""
    if k > alpha * _VALIDITY_SLACK:
        raise DomainError(f"exact amplitude is only valid for k <= alpha = {alpha}; got k = {k}")


def exact_amplitude(profile, config, theta, quadrature=None):
    """Exact amplitude of a Born-exact profile for k <= alpha.

    ``profile`` is a BornExactProfile; requesting k above its support
    threshold is refused rather than extrapolated.
    """
    _check_validity(config.k, profile.alpha)
    k = config.k
    c = c_factor(theta, config.theta0)
    s = s_factor(theta, config.theta0)
    value = ttv(profile.base, k * c, k * s, k, config.ell, quadrature)
    return -value / (2.0 * math.sqrt(2.0 * math.pi))


def ex1_f1(params, config, theta):
    """Closed-form first-order coefficient of the worked one-sided profile."""
    k = config.k
    K = k * params.L
    a = params.alpha / k
    s = s_factor(theta, config.theta0)
    if s - a < 0:
        return 0j
    return -_SQRT_PI_OVER_2 * params.z * K * K * (s - a) * math.exp(K * (a - s))


def ex1_f2(params, config, theta):
    """Closed-form second-order coefficient, including the arcsine bracket."""
    k = config.k
    K = k * params.L
    a = params.alpha / k
    s = s_factor(theta, config.theta0)
    c = c_factor(theta, config.theta0)
    term1 = -c * ex1_f1(params, config, theta)
    chi = x_function(math.sin(theta), math.sin(config.theta0), a)
    term2 = 0.0
    if chi != 0.0:
        # chi is gated by s >= 2a, so the exponent is nonpositive here
        term2 = _SQRT_PI_OVER_2 * params.z**2 * K**4 * math.exp(K * (2 * a - s)) * chi
    return 0.5j * (term1 + term2)


_BRACKET_SWITCH = 1e-4


def ex1_exact(params, config, theta):
    """Exact amplitude of the worked profile for k <= alpha.

    f = i (e^{-i k ell c} - 1)/c * f1; the removable c -> 0 singularity is
    evaluated by the series u [1 - iv/2 + (-iv)^2/6 + ...] with v = k ell c.
    """
    _check_validity(config.k, params.alpha)
    u = config.kl
    c = c_factor(theta, config.theta0)
    v = u * c
    if abs(v) < _BRACKET_SWITCH:
        w = -1j * v
        bracket = u * (1.0 + w / 2.0 + w**2 / 6.0 + w**3 / 24.0 + w**4 / 120.0)
    else:
        bracket = 1j * (np.exp(-1j * v) - 1.0) / c
    return bracket * ex1_f1(params, config, theta)


def x_function(sigma, sigma0, xi):
    """The gated arcsine bracket entering the second-order coefficient.

    Vanishes unless sigma - sigma0 >= 2 xi (which for sigma, sigma0 in
    [-1, 1] also forces the two remaining step factors to be 1); in
    particular it vanishes identically for xi >= 1.
    """
    sigma = np.asarray(sigma, dtype=float)
    sigma0 = np.asarray(sigma0, dtype=float)
    xi = np.asarray(xi, dtype=float)
    scalar = sigma.ndim == 0 and sigma0.ndim == 0 and xi.ndim == 0
    sigma, sigma0, xi = np.atleast_1d(sigma, sigma0, xi)
    sigma, sigma0, xi = np.broadcast_arrays(sigma, sigma0, xi)

    live = (
        (sigma - sigma0 - 2.0 * xi >= 0)
        & (sigma - xi + 1.0 >= 0)
        & (1.0 - xi - sigma0 >= 0)
    )
    a = np.clip(sigma - xi, -1.0, 1.0)
    b = np.clip(sigma0 + xi, -1.0, 1.0)
    ra = np.sqrt(1.0 - a * a)
    rb = np.sqrt(1.0 - b * b)
    bracket = (
        (2.0 * (xi - sigma) * (xi + sigma0) - 1.0) * (np.arcsin(a) - np.arcsin(b))
        + 2.0 * (sigma + sigma0) * (rb - ra)
        + a * ra
        - b * rb
    )
    out = np.where(live, 0.5 * bracket, 0.0)
    return float(out[0]) if scalar else out


def _neville_at_zero(x, y):
    """Polynomial extrapolation of the samples (x_i, y_i) to x = 0."""
    x = np.asarray(x, dtype=float)
    t = np.asarray(y, dtype=complex).copy()
    n = t.size
    for level in range(1, n):
        for i in range(n - level):
            t[i] = t[i + 1] + (t[i] - t[i + 1]) * x[i + level] / (x[i + level] - x[i])
    return t[0]


def extract_series_coefficients(amplitude_fn, k, ell_max):
    """Recover (f1, f2) of f = f1 (k ell) + f2 (k ell)^2 + O((k ell)^3).

    ``amplitude_fn(ell)`` is evaluated on the thicknesses ell_max * 2^-j,
    j = 0, ..., 7; the first coefficient comes from extrapolating f/(k ell)
    to zero thickness, the second from extrapolating the deflated remainder.
    """
    ells = ell_max * 2.0 ** (-np.arange(_EXTRACT_LEVELS))
    us = k * ells
    amps = np.array([amplitude_fn(ell) for ell in ells], dtype=complex)
    f1 = _neville_at_zero(us, amps / us)
    f2 = _neville_at_zero(us, (amps - f1 * us) / us**2)
    return f1, f2
