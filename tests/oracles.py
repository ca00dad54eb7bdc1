"""Second routes to numbers the library gives, kept for the tests to check it by.

None of this is library API; the test modules import it from here.  The file
name does not start with ``test_``, so pytest does not collect it.

* The 3D Gaussian slab in closed form.  For w = z0 exp(-(x^2+y^2)/2L^2) the
  coefficients of slabscat.amp3d close: with K = kL and h(theta, phi, theta0)
  = sin(theta0) sin(theta) cos(phi) + (cos 2 theta + cos 2 theta0)/4 - 1/2
  (equal to -|g|^2/2, so h >= -2),

      f1 = sqrt(pi/2) (z0 K^2 / k) e^{K^2 h(theta, phi - phi0, theta0)},
      f2 = sqrt(pi/2) (i z0 K^2 / 2k) [ (cos theta0 - cos theta)
               e^{K^2 h(theta, phi - phi0, theta0)} + z0 K^2 Y ],
      Y(theta, phi, theta0, phi0, K) = (1/2 pi) INT d alpha d beta sin(alpha)
               e^{K^2 [h(theta, phi - beta, alpha) + h(alpha, beta - phi0, theta0)]},

  with Y(K=0) = 1.  gaussian_h and gaussian_Y implement these; amp3d's
  generic path must agree with them.
* The closed second-order coefficient ex1_f2 of the exactly solvable profile
  ex1 (slabscat.exactborn), with its arcsine bracket x_function.
* A Richardson extractor, extract_series_coefficients, that recovers the
  first two series coefficients from any amplitude-of-thickness function.
"""

import math

import numpy as np

from slabscat.amp2d import c_factor, s_factor
from slabscat.exactborn import ex1_f1
from slabscat.numerics import DomainError, integrate_2d

_SQRT_PI_OVER_2 = math.sqrt(math.pi / 2.0)
_EXTRACT_LEVELS = 8  # thicknesses ell_max * 2^-j of extract_series_coefficients


def gaussian_h(theta, phi, theta0):
    """Gaussian-slab exponent: -|g(theta, phi+phi0, theta0, phi0)|^2 / 2."""
    return (
        np.sin(theta0) * np.sin(theta) * np.cos(phi)
        + 0.25 * (np.cos(2.0 * np.asarray(theta)) + np.cos(2.0 * np.asarray(theta0)))
        - 0.5
    )


def gaussian_Y(theta, phi, theta0, phi0, K):
    """Normalized double integral entering the Gaussian second-order form."""
    if K < 0:
        raise DomainError("K = kL must be nonnegative")
    K2 = K * K

    def integrand(alpha, beta):
        expo = gaussian_h(theta, phi - beta, alpha) + gaussian_h(
            alpha, beta - phi0, theta0
        )
        return np.sin(alpha) * np.exp(K2 * expo)

    val = integrate_2d(integrand, 0.0, 0.5 * np.pi, 0.0, 2.0 * np.pi)
    return float(val.real) / (2.0 * np.pi)


def ex1_f2(params, config, theta):
    """Closed-form second-order coefficient of ex1, including the arcsine bracket."""
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
    An ell_max or a k * ell_max that is not positive and finite raises
    DomainError.
    """
    if not (0 < ell_max < np.inf and 0 < k * ell_max < np.inf):
        raise DomainError("ell_max and k * ell_max must be positive and finite")
    ells = ell_max * 2.0 ** (-np.arange(_EXTRACT_LEVELS))
    us = k * ells
    amps = np.array([amplitude_fn(ell) for ell in ells], dtype=complex)
    f1 = _neville_at_zero(us, amps / us)
    f2 = _neville_at_zero(us, (amps - f1 * us) / us**2)
    return f1, f2
