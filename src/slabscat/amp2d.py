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

from .numerics import DomainError, _finite, _positive_finite, integrate_1d
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


def _grazing(theta):
    """Whether any of the angles theta grazes the slab faces."""
    return (abs(np.cos(theta)) < _GRAZING_TOL).any()


def _check_angles(theta, name):
    """Refuse angles theta that are not finite or that graze the slab faces."""
    _finite(theta, name)
    if _grazing(theta):
        raise DomainError(f"grazing {name} (cos {name} = 0) is excluded")


@dataclass(frozen=True)
class ScatteringConfig2D:
    """Wavenumber, slab thickness, and incidence angle of a 2D problem."""

    k: float
    ell: float
    theta0: float

    def __post_init__(self):
        _positive_finite(self.k, "k")
        _positive_finite(self.ell, "ell")
        _check_angles(self.theta0, "theta0")

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


def _truncate(f1, f2, kl, order):
    """The AmplitudeResult of f1 and f2 at ``order``; order 1 drops f2."""
    f2 = f2 if order == 2 else 0j
    return AmplitudeResult(f1=f1, f2=f2, truncated=f1 * kl + f2 * kl * kl, order=order)


def s_factor(theta, theta0):
    """sin(theta) - sin(theta0)."""
    return np.sin(theta) - np.sin(theta0)


def c_factor(theta, theta0):
    """cos(theta) - cos(theta0)."""
    return np.cos(theta) - np.cos(theta0)


def _runs(k):
    """(slice, value) of every run of equal values in the 1-D array k (none if it is empty)."""
    edges = [0, *(np.flatnonzero(k[1:] != k[:-1]) + 1), k.size]
    return [(slice(a, b), k[a]) for a, b in zip(edges[:-1], edges[1:]) if a < b]


def _sweep_2d(profile, configs, thetas, order=2, spec=None):
    """f1 and f2 (0j at order 1) lists at the points (configs[j], thetas[j]).

    The route of f1_2d, f2_2d, amplitude_2d, the CLI and verify_invisibility:
    m_0 (and m_1) of the outgoing momenta once per run of equal k, then one
    integrate_1d per f2.  Prefactors stay per point (numpy rounds an array's
    complex division otherwise), so a point's bits do not depend on its batch.
    """
    theta = np.asarray(thetas, dtype=float)
    _check_angles(theta, "theta")
    k = np.array([c.k for c in configs])
    momenta = k * s_factor(theta, np.array([c.theta0 for c in configs]))
    m = np.empty((order, k.size), dtype=complex)  # m_0 and m_1 at momenta
    for run, kj in _runs(k):
        for l in range(order):
            m[l, run] = moment_2d(profile, l, momenta[run], kj)
    f1 = [complex(c.k / (2.0 * np.sqrt(2.0 * np.pi)) * m0) for c, m0 in zip(configs, m[0])]
    if order == 1:
        return f1, [0j] * k.size
    f2 = []
    for c, t, m1 in zip(configs, theta, m[1]):
        def integrand(phi):
            # one transform of the panel's left and right momenta together
            momenta = np.concatenate((c.k * s_factor(t, phi), c.k * s_factor(phi, c.theta0)))
            values = np.asarray(moment_2d(profile, 0, momenta, c.k), dtype=complex)
            return values[: phi.size] * values[phi.size :]

        term1 = -c_factor(t, c.theta0) * m1
        term2 = c.k / (4.0 * np.pi) * integrate_1d(integrand, -np.pi / 2.0, np.pi / 2.0, spec)
        f2.append(complex(1j * c.k / (2.0 * np.sqrt(2.0 * np.pi)) * (term1 + term2)))
    return f1, f2


def f1_2d(profile, config, theta):
    """First-order amplitude coefficient f1(theta); an array of angles gives an array."""
    f1, _ = _sweep_2d(profile, [config] * np.size(theta), np.ravel(theta), order=1)
    return np.array(f1, dtype=complex).reshape(np.shape(theta))[()]


def f2_2d(profile, config, theta, spec=None):
    """Second-order amplitude coefficient f2(theta); an array of angles gives an array.

    The phi-integral runs over the propagating directions (-pi/2, pi/2) of
    the intermediate channel; it is evaluated by adaptive quadrature with the
    supplied QuadratureSpec.
    """
    _, f2 = _sweep_2d(profile, [config] * np.size(theta), np.ravel(theta), spec=spec)
    return np.array(f2, dtype=complex).reshape(np.shape(theta))[()]


def amplitude_2d(profile, config, theta, order=2, spec=None):
    """Truncated amplitude f1*(k ell) [+ f2*(k ell)^2] with its coefficients."""
    if order not in (1, 2):
        raise DomainError("order must be 1 or 2")
    (f1,), (f2,) = _sweep_2d(profile, [config], [theta], order, spec)
    return _truncate(f1, f2, config.kl, order)
