"""The exactly solvable one-sided profile class.

If the transverse spectrum of the profile is one-sided,

    w~(x_frac, p; k) = 0   for p <= alpha,

then for every k <= alpha the first Born approximation reproduces the exact
scattering amplitude,

    f(theta) = - vv(k c, k s; k) / (2 sqrt(2 pi)),
    vv(p_x, p_y; k) = -k^2 INT_0^ell dx e^{-i x p_x} w~(x/ell, p_y; k),

and such slabs are perfectly invisible for k <= alpha/2 (the momentum
transfer k*s never reaches the support edge).  The module provides the worked
one-sided example

    w(x_frac, y) = z e^{i alpha y} / (y/L + i)^2

with its exact amplitude ex1_exact and its closed first-order coefficient
ex1_f1, of which the exact amplitude is a multiple.  (Its closed second-order
coefficient, with an arcsine bracket, and a Richardson extractor of the series
coefficients serve the test suite as oracles and live there.)
"""

import math
from dataclasses import dataclass

import numpy as np

from .amp2d import c_factor, s_factor
from .numerics import DomainError, _finite, _positive_finite

__all__ = [
    "Ex1Params",
    "ex1_exact",
    "ex1_f1",
]

_SQRT_PI_OVER_2 = math.sqrt(math.pi / 2.0)
_VALIDITY_SLACK = 1.0 + 1e-12


@dataclass(frozen=True)
class Ex1Params:
    """Parameters of the worked one-sided profile z e^{i a y}/(y/L + i)^2."""

    z: complex
    alpha: float
    L: float

    def __post_init__(self):
        _finite(self.z, "z")
        _positive_finite(self.alpha, "alpha")
        _positive_finite(self.L, "L")


def _beyond_support(k, alpha):
    """Whether k lies above the support threshold alpha, past the exact formula's reach."""
    return k > alpha * _VALIDITY_SLACK


def _check_validity(k, alpha):
    """Refuse k above the support threshold alpha rather than extrapolate."""
    if _beyond_support(k, alpha):
        raise DomainError(f"exact amplitude is only valid for k <= alpha = {alpha}; got k = {k}")


def ex1_f1(params, config, theta):
    """Closed-form first-order coefficient of the worked one-sided profile."""
    k = config.k
    K = k * params.L
    a = params.alpha / k
    s = s_factor(theta, config.theta0)
    if s - a < 0:
        return 0j
    return -_SQRT_PI_OVER_2 * params.z * K * K * (s - a) * math.exp(K * (a - s))


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
