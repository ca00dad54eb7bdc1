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

For the Gaussian slab w = z0 exp(-(x^2+y^2)/2L^2) both coefficients close
in terms of K = kL; the test suite checks the generic path against those
closed forms, which is the main cross-check here.
"""

import math
from dataclasses import dataclass

import numpy as np

from .amp2d import _check_angles, _runs, _truncate
from .numerics import DomainError, _finite, _positive_finite, integrate_2d
from .profiles import moment_3d

__all__ = [
    "ScatteringConfig3D",
    "Direction3D",
    "g_vector",
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
        _positive_finite(self.k, "k")
        _positive_finite(self.ell, "ell")
        _check_angles(self.theta0, "theta0")
        _finite(self.phi0, "phi0")

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
        _check_angles(self.theta, "theta")
        if not 0.0 <= self.phi < 2.0 * np.pi:
            raise DomainError("phi must lie in [0, 2 pi)")


def g_vector(theta, phi, alpha, beta):
    """Transverse momentum-transfer direction pair between two directions."""
    g1 = np.sin(theta) * np.cos(phi) - np.sin(alpha) * np.cos(beta)
    g2 = np.sin(theta) * np.sin(phi) - np.sin(alpha) * np.sin(beta)
    return g1, g2


def _sweep_3d(profile, configs, directions, order=2, spec=None):
    """f1 and f2 (0j at order 1) lists at the points (configs[j], directions[j]).

    The curve route of f1_3d, f2_3d, amplitude_3d and the CLI: one integrate_2d
    batch for every f2 integral, and m_0 of the incoming momenta once per run of k.
    Every point has the theta0 and phi0 of configs[0].
    """
    theta0, phi0 = configs[0].theta0, configs[0].phi0
    k = np.array([c.k for c in configs])
    theta = np.array([d.theta for d in directions])
    phi = np.array([d.phi for d in directions])
    momenta = k[:, None] * np.stack(g_vector(theta, phi, theta0, phi0), axis=-1)
    m = np.empty((order, k.size), dtype=complex)  # m_0 and m_1 at momenta
    for run, kj in _runs(k):
        for l in range(order):
            m[l, run] = moment_3d(profile, l, momenta[run], kj)
    f1 = [complex(c.k * _PREF * m0_j) for c, m0_j in zip(configs, m[0])]
    if order == 1:
        return f1, [0j] * k.size
    out1, out2 = np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi)
    in1, in2 = np.sin(theta0) * np.cos(phi0), np.sin(theta0) * np.sin(phi0)

    def integrand(live, alpha, beta):
        sin_a = np.sin(alpha)
        a1, a2 = sin_a * np.cos(beta), sin_a * np.sin(beta)
        column = (-1,) + (1,) * a1.ndim
        out = np.stack([out1[live].reshape(column) - a1, out2[live].reshape(column) - a2], -1)
        incoming = np.stack([a1 - in1, a2 - in2], -1).reshape(-1, 2)
        m0 = np.empty((2,) + out.shape[:-1], dtype=complex)  # outgoing, incoming
        for run, kj in _runs(k[live]):
            outgoing = moment_3d(profile, 0, (kj * out[run]).reshape(-1, 2), kj)
            m0[0, run] = outgoing.reshape(m0[0, run].shape)
            m0[1, run] = moment_3d(profile, 0, kj * incoming, kj).reshape(a1.shape)
        return sin_a * (m0[0] * m0[1])

    integrals = integrate_2d(integrand, 0.0, 0.5 * np.pi, 0.0, 2.0 * np.pi, spec, k.size)
    f2 = []
    for c, d, m1, integral in zip(configs, directions, m[1], integrals):
        term1 = (math.cos(theta0) - math.cos(d.theta)) * m1
        term2 = c.k * c.k / (8.0 * np.pi**2) * integral
        f2.append(complex(1j * c.k * _PREF * (term1 + term2)))
    return f1, f2


def f1_3d(profile, config, direction):
    """First-order 3D amplitude coefficient (units of length)."""
    return _sweep_3d(profile, [config], [direction], order=1)[0][0]


def f2_3d(profile, config, direction, spec=None):
    """Second-order 3D amplitude coefficient (units of length)."""
    return _sweep_3d(profile, [config], [direction], spec=spec)[1][0]


def amplitude_3d(profile, config, direction, order=2, spec=None):
    """Assemble the truncated 3D amplitude f1*(kl) + f2*(kl)^2."""
    if order not in (1, 2):
        raise DomainError("order must be 1 or 2")
    (f1,), (f2,) = _sweep_3d(profile, [config], [direction], order, spec)
    return _truncate(f1, f2, config.kl, order)


def normalized_cross_section(profile, config, direction, order=2):
    """Differential cross section normalized to the forward direction."""
    forward = amplitude_3d(profile, config, Direction3D(0.0, 0.0), order)
    if abs(forward.truncated) == 0.0:
        raise DomainError("forward amplitude vanishes; normalization undefined")
    value = amplitude_3d(profile, config, direction, order)
    return abs(value.truncated) ** 2 / abs(forward.truncated) ** 2
