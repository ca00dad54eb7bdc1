"""Low-frequency scattering amplitudes of a 3D planar slab.

A scalar plane wave with wave vector direction (theta0, phi0) hits a slab
occupying 0 <= z <= ell with permittivity 1 + w(x, y, z/ell; k).  Expanding
the amplitude in powers of k*ell at fixed k,

    f(theta, phi) = f1*(k ell) + f2*(k ell)^2 + O((k ell)^3),

the first two coefficients are expressed through the transverse transform
moments m_l(p_vec; k) of the profile and the momentum-transfer direction
pair g(theta, phi, alpha, beta) = (sin theta cos phi - sin alpha cos beta,
sin theta sin phi - sin alpha sin beta):

    f1 = k / (2 sqrt(2 pi)) * m_0(k g(theta, phi, theta0, phi0)),
    f2 = i k / (2 sqrt(2 pi)) * [ (cos theta0 - cos theta)
                                   * m_1(k g(theta, phi, theta0, phi0))
          + k^2/(8 pi^2) INT_0^{pi/2} d alpha INT_0^{2 pi} d beta sin(alpha)
                * m_0(k g(theta, phi, alpha, beta))
                * m_0(k g(alpha, beta, theta0, phi0)) ].

Both coefficients carry units of length.  Observation polar angles
theta = pi/2 (detectors at z = +-infinity) are excluded.

For the Gaussian slab w = z0 exp(-(x^2+y^2)/2L^2) the coefficients close:
with K = kL and h(theta, phi, theta0) = sin(theta0) sin(theta) cos(phi)
+ (cos 2 theta + cos 2 theta0)/4 - 1/2 (equal to -|g|^2/2, so h >= -2),

    f1 = sqrt(pi/2) (z0 K^2 / k) e^{K^2 h(theta, phi - phi0, theta0)},
    f2 = sqrt(pi/2) (i z0 K^2 / 2k) [ (cos theta0 - cos theta)
             e^{K^2 h(theta, phi - phi0, theta0)} + z0 K^2 Y ],
    Y(theta, phi, theta0, phi0, K) = (1/2 pi) INT d alpha d beta sin(alpha)
             e^{K^2 [h(theta, phi - beta, alpha) + h(alpha, beta - phi0, theta0)]},

with Y(K=0) = 1.  gaussian_h and gaussian_Y implement these; the module's
generic path must agree with them, which is the main cross-check here.
"""

import math
from dataclasses import dataclass

import numpy as np

from .amp2d import _GRAZING_TOL, AmplitudeResult
from .numerics import DomainError, integrate_2d
from .profiles import moment_3d

__all__ = [
    "ScatteringConfig3D",
    "Direction3D",
    "g_vector",
    "gaussian_h",
    "gaussian_Y",
    "f1_3d",
    "f2_3d",
    "amplitude_3d",
    "normalized_cross_section",
]

_PREF = 1.0 / (2.0 * math.sqrt(2.0 * math.pi))


@dataclass(frozen=True)
class ScatteringConfig3D:
    """Incident wave: wavenumber, slab thickness, and incidence direction."""

    k: float
    ell: float
    theta0: float
    phi0: float = 0.0

    def __post_init__(self):
        if not 0 < self.k < math.inf:
            raise DomainError("k must be positive and finite")
        if not 0 < self.ell < math.inf:
            raise DomainError("ell must be positive and finite")
        if not (math.isfinite(self.theta0) and math.isfinite(self.phi0)):
            raise DomainError("theta0 and phi0 must be finite")
        if abs(math.cos(self.theta0)) < _GRAZING_TOL:
            raise DomainError("grazing incidence (cos theta0 = 0) is excluded")

    @property
    def kl(self):
        return self.k * self.ell


@dataclass(frozen=True)
class Direction3D:
    """Observation direction in spherical angles."""

    theta: float
    phi: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.theta <= np.pi:
            raise DomainError("theta must lie in [0, pi]")
        if abs(math.cos(self.theta)) < _GRAZING_TOL:
            raise DomainError("theta = pi/2 (in-plane observation) is excluded")
        if not 0.0 <= self.phi < 2.0 * np.pi:
            raise DomainError("phi must lie in [0, 2 pi)")


def g_vector(theta, phi, alpha, beta):
    """Transverse momentum-transfer direction pair between two directions."""
    g1 = np.sin(theta) * np.cos(phi) - np.sin(alpha) * np.cos(beta)
    g2 = np.sin(theta) * np.sin(phi) - np.sin(alpha) * np.sin(beta)
    return g1, g2


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


def f1_3d(profile, config, direction):
    """First-order 3D amplitude coefficient (units of length)."""
    k = config.k
    g1, g2 = g_vector(direction.theta, direction.phi, config.theta0, config.phi0)
    m0 = moment_3d(profile, 0, np.array([k * g1, k * g2]), k)
    return k * _PREF * m0


def f2_3d(profile, config, direction, spec=None):
    """Second-order 3D amplitude coefficient (units of length)."""
    k = config.k
    g1, g2 = g_vector(direction.theta, direction.phi, config.theta0, config.phi0)
    m1 = moment_3d(profile, 1, np.array([k * g1, k * g2]), k)
    term1 = (math.cos(config.theta0) - math.cos(direction.theta)) * m1

    def integrand(alpha, beta):
        alpha, beta = np.broadcast_arrays(
            np.asarray(alpha, dtype=float), np.asarray(beta, dtype=float)
        )
        out1, out2 = g_vector(direction.theta, direction.phi, alpha, beta)
        in1, in2 = g_vector(alpha, beta, config.theta0, config.phi0)
        m_out = moment_3d(profile, 0, k * np.stack([out1.ravel(), out2.ravel()], axis=-1), k)
        m_in = moment_3d(profile, 0, k * np.stack([in1.ravel(), in2.ravel()], axis=-1), k)
        return (np.sin(alpha) * (m_out * m_in).reshape(alpha.shape))

    integral = integrate_2d(integrand, 0.0, 0.5 * np.pi, 0.0, 2.0 * np.pi, spec)
    term2 = k * k / (8.0 * np.pi**2) * integral
    return 1j * k * _PREF * (term1 + term2)


def amplitude_3d(profile, config, direction, order=2, spec=None):
    """Assemble the truncated 3D amplitude f1*(kl) + f2*(kl)^2."""
    if order not in (1, 2):
        raise DomainError("order must be 1 or 2")
    f1 = complex(f1_3d(profile, config, direction))
    f2 = 0j
    if order == 2:
        f2 = complex(f2_3d(profile, config, direction, spec=spec))
    kl = config.kl
    return AmplitudeResult(f1=f1, f2=f2, truncated=f1 * kl + f2 * kl * kl, order=order)


def normalized_cross_section(profile, config, direction, order=2):
    """Differential cross section normalized to the forward direction."""
    forward = amplitude_3d(profile, config, Direction3D(0.0, 0.0), order)
    if abs(forward.truncated) == 0.0:
        raise DomainError("forward amplitude vanishes; normalization undefined")
    value = amplitude_3d(profile, config, direction, order)
    return abs(value.truncated) ** 2 / abs(forward.truncated) ** 2
