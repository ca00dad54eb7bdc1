"""1D slab scattering through the rescaled Dyson series.

For a slab with permittivity 1 + w(x/ell; k) on 0 <= x <= ell, writing the
field as psi = A+(x) e^{ikx} + A-(x) e^{-ikx} with the usual no-extra-terms
gauge psi' = ik (A+ e^{ikx} - A- e^{-ikx}) turns the Helmholtz equation into
a linear evolution A' = -i H(x) A with the traceless, rank-one generator

    H_check(x_check) = -(k w(x_check; k) / 2)
        [[1,                exp(-2 i k ell x_check)],
         [-exp(2 i k ell x_check),              -1]]

in the rescaled coordinate x_check = x / ell.  The transfer matrix mapping
the coefficient pair across the slab is the x-ordered exponential

    M = sum_n (-i ell)^n INT_{0<x1<...<xn<1} H(xn) ... H(x1) dx1 ... dxn,

whose n-th term scales as (k ell)^n: each H carries one factor of k.  The
ordered-simplex integrals are evaluated by the equivalent initial-value
cascade T_n'(x) = -i ell H(x) T_{n-1}(x), T_0 = I, T_n(0) = 0, stepped with
an adaptive high-order Runge-Kutta method; the partial-sum ("series") mode
keeps the individual term matrices so convergence can be inspected, while
the "direct" mode steps U' = -i ell H U in one go.

Reflection/transmission follow from the matrix entries: R_left = -M21/M22,
R_right = M12/M22, and T = 1/M22 on both sides since det M = 1.
"""

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numerics import AccuracyError, DomainError

__all__ = [
    "TransferMatrix1D",
    "Profile1D",
    "constant_slab_1d",
    "h_check",
    "dyson_terms",
    "transfer_matrix_1d",
    "scattering_1d",
]

_ODE_RTOL = 1e-12
_ODE_ATOL = 1e-14
_MAX_STEP = 1.0 / 16.0
# |M22| below which scattering_1d warns of a nearby spectral singularity
_SINGULAR_TOL = 1e-8


@dataclass(frozen=True)
class TransferMatrix1D:
    """2x2 transfer matrix; unimodular for permittivity-profile scatterers."""

    m11: complex
    m12: complex
    m21: complex
    m22: complex

    @property
    def det(self):
        return self.m11 * self.m22 - self.m12 * self.m21

    def as_array(self):
        return np.array([[self.m11, self.m12], [self.m21, self.m22]])

    @classmethod
    def from_array(cls, m):
        m = np.asarray(m)
        return cls(
            m11=complex(m[0, 0]), m12=complex(m[0, 1]),
            m21=complex(m[1, 0]), m22=complex(m[1, 1]),
        )


@dataclass(frozen=True)
class Profile1D:
    """Bounded 1D profile w(x_check; k), zero outside x_check in [0, 1]; frozen."""

    eval: Callable
    descriptor: str = ""


def constant_slab_1d(n):
    """Homogeneous slab of refractive index n: w = n^2 - 1 inside the slab."""
    if not np.isfinite(n):
        raise DomainError("n must be finite")
    w0 = complex(n) ** 2 - 1.0

    def w_eval(x_check, k):
        inside = (0.0 <= np.real(x_check)) & (np.real(x_check) <= 1.0)
        return np.where(inside, w0, 0.0)

    return Profile1D(eval=w_eval, descriptor=f"constant slab n={n}")


def h_check(profile, x_check, k, ell):
    """Evolution generator at rescaled position x_check (a 2x2 array)."""
    w = complex(np.asarray(profile.eval(x_check, k)).item())
    up = np.exp(2j * k * ell * x_check)
    down = np.exp(-2j * k * ell * x_check)
    return -0.5 * k * w * np.array([[1.0, down], [-up, -1.0]])


def _integrate_across(rhs, start, what):
    """The state at x_check = 1 of y' = rhs(x, y), y(0) = start, by adaptive DOP853."""
    from scipy.integrate import solve_ivp  # imported on first use: it loads slowly

    sol = solve_ivp(
        rhs, (0.0, 1.0), start, method="DOP853", rtol=_ODE_RTOL, atol=_ODE_ATOL, max_step=_MAX_STEP
    )
    if not sol.success:
        raise AccuracyError(f"{what} integration failed: {sol.message}")
    return sol.y[:, -1]


def dyson_terms(profile, k, ell, n_terms):
    """Ordered-simplex series terms T_1..T_n at x_check = 1, shape (n, 2, 2).

    The whole cascade T_m' = -i ell H T_{m-1} is integrated simultaneously:
    the dependency is strictly lower triangular, so a single adaptive pass
    produces every term on shared steps.
    """
    if n_terms < 1:
        raise DomainError("n_terms must be at least 1")
    if not (k > 0 and ell > 0):
        raise DomainError("k and ell must be positive")
    eye = np.eye(2, dtype=complex)[None]

    def rhs(x, y):
        t = y.reshape(n_terms, 2, 2)
        h = h_check(profile, x, k, ell)
        # T_m' = -i ell H T_{m-1} for every m at once, with T_0 = I
        return (-1j * ell * (h @ np.concatenate((eye, t[:-1])))).ravel()

    end = _integrate_across(rhs, np.zeros(4 * n_terms, dtype=complex), "series term")
    return end.reshape(n_terms, 2, 2)


def transfer_matrix_1d(profile, k, ell, max_terms=24, tol=1e-12, method="series"):
    """Transfer matrix of the slab profile.

    "series" accumulates ordered-simplex terms until one falls below tol in
    Frobenius norm (raising if max_terms is exhausted first); "direct" steps
    the evolution U' = -i ell H U across the slab in a single integration.
    """
    if not (0 < k < np.inf and 0 < ell < np.inf):
        raise DomainError("k and ell must be positive and finite")
    if not isinstance(max_terms, (int, np.integer)) or isinstance(max_terms, bool) or max_terms < 1:
        raise DomainError("max_terms must be an integer of at least 1")
    if not 0 < tol < np.inf:
        raise DomainError("tol must be positive and finite")
    if method not in ("series", "direct"):
        raise DomainError("method must be 'series' or 'direct'")

    if method == "direct":
        def rhs(x, y):
            u = y.reshape(2, 2)
            return (-1j * ell * (h_check(profile, x, k, ell) @ u)).ravel()

        end = _integrate_across(rhs, np.eye(2, dtype=complex).ravel(), "transfer-matrix")
        return TransferMatrix1D.from_array(end.reshape(2, 2))

    terms = dyson_terms(profile, k, ell, max_terms)
    total = np.eye(2, dtype=complex)
    for m in range(max_terms):
        total = total + terms[m]
        if np.linalg.norm(terms[m]) < tol:
            return TransferMatrix1D.from_array(total)
    last = float(np.linalg.norm(terms[-1]))
    raise AccuracyError(
        f"series not converged after {max_terms} terms; last increment norm {last:.3e}"
    )


def scattering_1d(matrix):
    """Reflection/transmission amplitudes (R_left, R_right, T) from M.

    A tiny |M22| flags proximity to a spectral singularity (a lasing-type
    resonance where the amplitudes blow up); that is reported as a warning,
    not an error, since the matrix itself is still well defined.
    """
    m22 = complex(matrix.m22)
    if m22 == 0:
        raise DomainError("M22 vanishes: amplitudes are undefined")
    if abs(m22) < _SINGULAR_TOL:
        warnings.warn(
            f"|M22| = {abs(m22):.3e} is below {_SINGULAR_TOL:.1e}: "
            "near a spectral singularity, amplitudes are unreliable",
            UserWarning,
            stacklevel=2,
        )
    return -matrix.m21 / m22, matrix.m12 / m22, 1.0 / m22
