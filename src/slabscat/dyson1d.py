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
ordered-simplex integrals are evaluated by the equivalent cascade
T_n(x) = -i ell INT_0^x H T_{n-1}, T_0 = I, collocated on adaptive Chebyshev-
Lobatto panels [a, b] (Greengard 1991, SIAM J. Numer. Anal. 28(4)).  With Q
the spectral integration matrix and A = -i ell (b - a) H = c u v^T, where
c = i ell (b - a) k w / 2, u = (1, -exp(2 i k ell x_check)) and
v = (1, exp(-2 i k ell x_check)), the collocation U = U(a) + Q (A U) reduces
to the scalars s_j = v_j^T U_j: s = V U(a) + G s with
G_ij = Q_ij c_j (1 - exp(2 i k ell (x_j - x_i))), and U(b) = U(a) + R s with
R = [Q_Nj c_j u_j].  Both modes read one panel list, a panel accepted when
its fine and coarse propagators agree.  "direct" takes their product;
"series" runs the cascade s_m = V T_m(a) + G s_{m-1}, T_m(b) = T_m(a) +
R s_{m-1} term-major, one pass over the panels per term, so only the terms
the stop rule reads are made.

Reflection/transmission follow from the matrix entries: R_left = -M21/M22,
R_right = M12/M22, and T = 1/M22 on both sides since det M = 1.
"""

import functools
import itertools
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numerics import AccuracyError, DomainError, _finite, _integer_at_least, _positive_finite

__all__ = [
    "TransferMatrix1D",
    "Profile1D",
    "constant_slab_1d",
    "h_check",
    "dyson_terms",
    "transfer_matrix_1d",
    "scattering_1d",
]

_NODES = 16  # a panel's coarse step; its fine step has 2 * _NODES intervals
_AGREE = 1e-14  # relative gap at which the two steps accept the panel
_MIN_WIDTH = 2.0**-50
_MAX_PANELS = 256  # an interior jump in w takes about 80
_MIN_TERMS = 1  # the fewest series terms max_terms and n_terms take
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
    """Bounded 1D profile w(x_check; k), zero outside x_check in [0, 1]; frozen.

    eval takes an array of x_check and returns values broadcastable to its shape.
    """

    eval: Callable
    descriptor: str = ""


def constant_slab_1d(n):
    """Homogeneous slab of refractive index n: w = n^2 - 1 inside the slab."""
    _finite(n, "n")
    _finite(complex(n) * complex(n), "n^2")  # a product overflows to inf, a power raises
    w0 = complex(n) ** 2 - 1.0

    def w_eval(x_check, k):
        inside = (0.0 <= np.real(x_check)) & (np.real(x_check) <= 1.0)
        return np.where(inside, w0, 0.0)

    return Profile1D(eval=w_eval, descriptor=f"constant slab n={n}")


def _factors(profile, x_check, k, ell):
    """H_check = coef u v^T as (coef, u, v), coef = -k w / 2, from one eval call."""
    x = np.asarray(x_check, dtype=float)
    coef = -0.5 * k * np.broadcast_to(profile.eval(x, k), x.shape)
    up, ones = np.exp(2j * k * ell * x), np.ones(x.shape)
    return coef, np.stack([ones, -up], -1), np.stack([ones, np.exp(-2j * k * ell * x)], -1)


def h_check(profile, x_check, k, ell):
    """Evolution generator at x_check, shape x_check.shape + (2, 2), from one eval call."""
    coef, u, v = _factors(profile, x_check, k, ell)
    return coef[..., None, None] * (u[..., :, None] * v[..., None, :])


@functools.lru_cache(maxsize=None)
def _lobatto(n):
    """Chebyshev-Lobatto nodes x on [0, 1] and their integration matrix Q, read-only.

    (Q f)_i integrates f's interpolant from 0 to x_i; n's nodes are every other of 2n's.
    """
    cheb = np.polynomial.chebyshev
    t = -np.cos(np.pi * np.arange(n + 1) / n)
    to_coefficients = np.linalg.inv(cheb.chebvander(t, n))
    q = cheb.chebvander(t, n + 1) @ cheb.chebint(to_coefficients, lbnd=-1, scl=0.5)
    x = 0.5 * (1.0 + t)
    for array in (x, q):
        array.setflags(write=False)
    return x, q


def _collocate(q, c, u, v):
    """A panel's (v, G, R, propagator): s = v U(start) + G s, U(end) = U(start) + R s."""
    g, r = q * c * (v @ u.T), q[-1] * c * u.T
    return v, g, r, np.eye(2) + r @ np.linalg.solve(np.eye(len(g)) - g, v)


def _panels(profile, k, ell):
    """The accepted panels of [0, 1] left to right, from a stack; a rejected one is halved."""
    x, q = _lobatto(2 * _NODES)
    qc = _lobatto(_NODES)[1]
    panels, stack, budget = [], [(0.0, 1.0)], _MAX_PANELS
    while stack:
        lo, hi = stack.pop()
        budget -= 1
        coef, u, v = _factors(profile, lo + (hi - lo) * x, k, ell)
        if not np.all(np.isfinite(coef)):
            raise AccuracyError(f"profile is not finite on [{lo:.17g}, {hi:.17g}]")
        c = -1j * ell * (hi - lo) * coef
        fine = _collocate(q, c, u, v)
        coarse = _collocate(qc, c[::2], u[::2], v[::2])[3]
        if np.linalg.norm(fine[3] - coarse) <= _AGREE * np.linalg.norm(fine[3]):
            panels.append(fine)
        elif hi - lo > _MIN_WIDTH and budget > 0:
            stack += [(0.5 * (lo + hi), hi), (lo, 0.5 * (lo + hi))]
        else:
            raise AccuracyError(f"collocation did not converge on [{lo:.17g}, {hi:.17g}]")
    return panels


def _terms(panels):
    """Yield T_1, T_2, ... at x_check = 1, each from one cascade step on every panel."""
    v, g, r = (np.array(factor) for factor in list(zip(*panels))[:3])
    s = v  # v T_0 on every panel
    while True:
        ends = np.add.accumulate(r @ s)  # T_m at each panel's end
        yield ends[-1]
        s = g @ s
        s[1:] += v[1:] @ ends[:-1]  # v T_m(start) on the panels after the first


def _check_inputs(k, ell, count, name):
    _positive_finite(k, "k")
    _positive_finite(ell, "ell")
    _integer_at_least(count, _MIN_TERMS, name)


def dyson_terms(profile, k, ell, n_terms):
    """Ordered-simplex series terms T_1..T_n at x_check = 1, shape (n, 2, 2).

    Term m is one pass of the cascade over the panels; its bits do not depend on n.
    """
    _check_inputs(k, ell, n_terms, "n_terms")
    return np.array(list(itertools.islice(_terms(_panels(profile, k, ell)), n_terms)))


def transfer_matrix_1d(profile, k, ell, max_terms=24, tol=1e-12, method="series"):
    """Transfer matrix of the slab profile.

    "series" accumulates ordered-simplex terms until one falls below tol in
    Frobenius norm (raising if max_terms is exhausted first); "direct"
    multiplies the panel propagators of the evolution U' = -i ell H U.
    """
    _check_inputs(k, ell, max_terms, "max_terms")
    _positive_finite(tol, "tol")
    if method not in ("series", "direct"):
        raise DomainError("method must be 'series' or 'direct'")

    panels = _panels(profile, k, ell)
    if method == "direct":
        product = functools.reduce(lambda u, panel: panel[3] @ u, panels, np.eye(2))
        return TransferMatrix1D.from_array(product)

    total = np.eye(2, dtype=complex)
    for term in itertools.islice(_terms(panels), max_terms):
        total = total + term
        if np.linalg.norm(term) < tol:
            return TransferMatrix1D.from_array(total)
    last = float(np.linalg.norm(term))
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
