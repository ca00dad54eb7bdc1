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
Lobatto panels [a, b] as T_n = T_n(a) + Q (A T_{n-1}), with Q the spectral
integration matrix and A = -i ell (b - a) H (Greengard 1991, SIAM J. Numer.
Anal. 28(4)); the partial-sum ("series") mode keeps the individual term
matrices so convergence can be inspected, while the "direct" mode solves
U = U(a) + Q (A U) on each panel as one linear system.

Reflection/transmission follow from the matrix entries: R_left = -M21/M22,
R_right = M12/M22, and T = 1/M22 on both sides since det M = 1.
"""

import functools
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

_NODES = 16  # a panel's coarse step; its fine step has 2 * _NODES intervals
_AGREE = 1e-14  # relative gap at which the two steps accept the panel
_MIN_WIDTH = 2.0**-50
_MAX_PANELS = 256  # an interior jump in w takes about 80
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
    if not np.isfinite(n):
        raise DomainError("n must be finite")
    w0 = complex(n) ** 2 - 1.0

    def w_eval(x_check, k):
        inside = (0.0 <= np.real(x_check)) & (np.real(x_check) <= 1.0)
        return np.where(inside, w0, 0.0)

    return Profile1D(eval=w_eval, descriptor=f"constant slab n={n}")


def h_check(profile, x_check, k, ell):
    """Evolution generator at x_check, shape x_check.shape + (2, 2), from one eval call."""
    x = np.asarray(x_check, dtype=float)
    w = np.broadcast_to(profile.eval(x, k), x.shape)
    up, down = np.exp(2j * k * ell * x), np.exp(-2j * k * ell * x)
    h = np.stack([np.ones_like(up), down, -up, -np.ones_like(up)], -1)
    return (-0.5 * k * w)[..., None, None] * h.reshape(x.shape + (2, 2))


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


def _series_step(kernel, terms):
    """Carry T_0 = I, T_1, ... across a panel: T_m = T_m(start) + Q (A T_{m-1})."""
    starts = np.tile(terms, (1, len(kernel) // 2, 1))
    path, ends = starts[0], terms.astype(complex)
    for m in range(1, len(terms)):
        path = kernel @ path + starts[m]
        ends[m] = path[-2:]
    return ends


def _direct_step(kernel, u):
    """Carry U across a panel by solving U = U(start) + Q (A U) as one system."""
    return np.linalg.solve(np.eye(len(kernel)) - kernel, np.tile(u, (len(kernel) // 2, 1)))[-2:]


def _sweep(step, state, profile, k, ell):
    """The state at x_check = 1 of the collocated evolution from state at 0.

    Panels are taken left to right from a stack; step(kernel, state) carries the
    state across one, with kernel = Q (x) A, block (i, j) = Q_ij A(x_j).  A panel
    whose fine and coarse steps disagree is halved.
    """
    x, q = _lobatto(2 * _NODES)
    qc = _lobatto(_NODES)[1]
    stack, budget = [(0.0, 1.0)], _MAX_PANELS
    while stack:
        lo, hi = stack.pop()
        budget -= 1
        h = h_check(profile, lo + (hi - lo) * x, k, ell)
        if not np.all(np.isfinite(h)):
            raise AccuracyError(f"profile is not finite on [{lo:.17g}, {hi:.17g}]")
        a = (-1j * ell * (hi - lo) * h).transpose(1, 0, 2)
        fine = step((q[:, None, :, None] * a).reshape(2 * len(q), -1), state)
        coarse = step((qc[:, None, :, None] * a[:, ::2]).reshape(2 * len(qc), -1), state)
        if np.linalg.norm(fine - coarse) <= _AGREE * np.linalg.norm(fine):
            state = fine
        elif hi - lo > _MIN_WIDTH and budget > 0:
            stack += [(0.5 * (lo + hi), hi), (lo, 0.5 * (lo + hi))]
        else:
            raise AccuracyError(f"collocation did not converge on [{lo:.17g}, {hi:.17g}]")
    return state


def _check_inputs(k, ell, count, name):
    if not (0 < k < np.inf and 0 < ell < np.inf):
        raise DomainError("k and ell must be positive and finite")
    if not isinstance(count, (int, np.integer)) or isinstance(count, bool) or count < 1:
        raise DomainError(f"{name} must be an integer of at least 1")


def dyson_terms(profile, k, ell, n_terms):
    """Ordered-simplex series terms T_1..T_n at x_check = 1, shape (n, 2, 2).

    The whole cascade crosses each panel at once, so all terms share its values.
    """
    _check_inputs(k, ell, n_terms, "n_terms")
    start = np.concatenate(([np.eye(2)], np.zeros((n_terms, 2, 2))))
    return _sweep(_series_step, start, profile, k, ell)[1:]


def transfer_matrix_1d(profile, k, ell, max_terms=24, tol=1e-12, method="series"):
    """Transfer matrix of the slab profile.

    "series" accumulates ordered-simplex terms until one falls below tol in
    Frobenius norm (raising if max_terms is exhausted first); "direct"
    collocates the evolution U' = -i ell H U across the slab in one sweep.
    """
    _check_inputs(k, ell, max_terms, "max_terms")
    if not 0 < tol < np.inf:
        raise DomainError("tol must be positive and finite")
    if method not in ("series", "direct"):
        raise DomainError("method must be 'series' or 'direct'")

    if method == "direct":
        return TransferMatrix1D.from_array(_sweep(_direct_step, np.eye(2), profile, k, ell))

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
