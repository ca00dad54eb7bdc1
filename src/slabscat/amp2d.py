"""Low-frequency 2D scattering amplitudes of an inhomogeneous slab.

For a unit-amplitude plane wave incident at angle theta0 on a slab occupying
0 <= x <= ell, the scattering amplitude at observation angle theta expands in
the small parameter k*ell as

    f(theta) = f1(theta) * (k ell) + f2(theta) * (k ell)^2 + O((k ell)^3),

with the coefficients expressed through the transform moments of the profile:

    f1 = k / (2 sqrt(2 pi)) * m_0(k s)
    f2 = i k / (2 sqrt(2 pi)) * [ -c * m_1(k s)
         + k/(4 pi) * INT_{-pi/2}^{pi/2} dphi m_0(k s(theta, phi))
                                              m_0(k s(phi, theta0)) ]

where s(theta, theta0) = sin theta - sin theta0 and
c(theta, theta0) = cos theta - cos theta0.  Both coefficients are
dimensionless and depend on k but not on ell; the delta-function forward beam
is excluded by convention, so these are the smooth parts only.

Observation and incidence angles of +-pi/2 (grazing, along the slab faces)
are outside the domain of the channel decomposition and rejected.
"""

from dataclasses import dataclass

import numpy as np

from .numerics import DomainError, QuadratureSpec, integrate_1d
from .profiles import moment_2d

__all__ = [
    "ScatteringConfig2D",
    "AmplitudeResult",
    "s_factor",
    "c_factor",
    "f1_2d",
    "f2_2d",
    "amplitude_2d",
]

# |cos| below this marks a grazing angle (theta = +-pi/2), excluded everywhere
_GRAZING_TOL = 1e-9


@dataclass(frozen=True)
class ScatteringConfig2D:
    """Wavenumber, slab thickness, and incidence angle of a 2D problem."""

    k: float
    ell: float
    theta0: float

    def __post_init__(self):
        if not 0 < self.k < np.inf:
            raise DomainError("k must be positive and finite")
        if not 0 < self.ell < np.inf:
            raise DomainError("ell must be positive and finite")
        if not np.isfinite(self.theta0):
            raise DomainError("theta0 must be finite")
        if abs(np.cos(self.theta0)) < _GRAZING_TOL:
            raise DomainError("theta0 = +-pi/2 (grazing incidence) is excluded")

    @property
    def kl(self):
        """The expansion parameter k*ell."""
        return self.k * self.ell

    @property
    def p0(self):
        """Incident transverse momentum k sin(theta0)."""
        return self.k * np.sin(self.theta0)

    @property
    def varpi0(self):
        """Axial wavenumber magnitude k |cos(theta0)| of the incident wave."""
        return self.k * abs(np.cos(self.theta0))


@dataclass(frozen=True)
class AmplitudeResult:
    """Amplitude coefficients and their truncated k*ell series (2D and 3D)."""

    f1: complex
    f2: complex
    truncated: complex
    order: int


def s_factor(theta, theta0):
    """sin(theta) - sin(theta0)."""
    return np.sin(theta) - np.sin(theta0)


def c_factor(theta, theta0):
    """cos(theta) - cos(theta0)."""
    return np.cos(theta) - np.cos(theta0)


def _check_theta(theta):
    if not np.all(np.isfinite(theta)):
        raise DomainError("theta must be finite")
    if np.any(np.abs(np.cos(theta)) < _GRAZING_TOL):
        raise DomainError("theta = +-pi/2 (grazing observation) is excluded")


def f1_2d(profile, config, theta):
    """First-order amplitude coefficient f1(theta)."""
    _check_theta(theta)
    k = config.k
    p = k * s_factor(theta, config.theta0)
    return k / (2.0 * np.sqrt(2.0 * np.pi)) * moment_2d(profile, 0, p, k)


def f2_2d(profile, config, theta, spec=None):
    """Second-order amplitude coefficient f2(theta).

    The phi-integral runs over the propagating directions (-pi/2, pi/2) of
    the intermediate channel; it is evaluated by adaptive quadrature with the
    supplied QuadratureSpec.
    """
    _check_theta(theta)
    spec = spec or QuadratureSpec()
    k = config.k
    theta0 = config.theta0
    s = s_factor(theta, theta0)
    term1 = -c_factor(theta, theta0) * moment_2d(profile, 1, k * s, k)

    def integrand(phi):
        left = moment_2d(profile, 0, k * s_factor(theta, phi), k)
        right = moment_2d(profile, 0, k * s_factor(phi, theta0), k)
        return np.asarray(left, dtype=complex) * np.asarray(right, dtype=complex)

    term2 = k / (4.0 * np.pi) * integrate_1d(integrand, -np.pi / 2.0, np.pi / 2.0, spec)
    return 1j * k / (2.0 * np.sqrt(2.0 * np.pi)) * (term1 + term2)


def amplitude_2d(profile, config, theta, order=2, spec=None):
    """Truncated amplitude f1*(k ell) [+ f2*(k ell)^2] with its coefficients."""
    if order not in (1, 2):
        raise DomainError("order must be 1 or 2")
    f1 = complex(f1_2d(profile, config, theta))
    f2 = 0j
    if order == 2:
        f2 = complex(f2_2d(profile, config, theta, spec=spec))
    kl = config.kl
    return AmplitudeResult(f1=f1, f2=f2, truncated=f1 * kl + f2 * kl * kl, order=order)
