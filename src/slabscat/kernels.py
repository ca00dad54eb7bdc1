"""Operator-kernel route to the amplitude, used to cross-check the closed forms.

The scattering channels admit series solutions in products of momentum-space
kernel operators.  Writing N_ab for the operator with kernel
N_ab(p, p'; k) = sum_j (k ell)^j N^(j)_ab(p, p'; k), the smooth parts of the
channel functions for a source on the left are

    B-_left  = 2 pi varpi0 * sum_{j>=0} <p| N22^j N21 |p0>,
    A+_left  = 2 pi varpi0 * [delta - <p| N11 |p0>
                               - sum_{j>=0} <p| N12 N22^j N21 |p0>],

and for a source on the right

    B-_right = 2 pi varpi0 * [delta + sum_{j>=1} <p| N22^j |p0>],
    A+_right = -2 pi varpi0 * sum_{j>=0} <p| N12 N22^j |p0>,

with varpi0 = k |cos theta0|, p0 = k sin theta0, and delta standing for
delta(p - p0) (kept symbolic; it is the unscattered beam).  Operator products
integrate the intermediate momentum over the propagating window (-k, k),
discretized here on a Gauss-Legendre grid after the substitution p = k sin
phi, which absorbs the 1/sqrt(1 - p'^2/k^2) endpoint weight exactly.

The amplitude is then

    f(theta) = -i/sqrt(2 pi) * channel(k sin theta)

with the A+ channel for cos theta > 0 and B- for cos theta < 0, the delta
parts excluded.  Truncating every product by its total power of k*ell
reproduces the closed-form coefficients of :mod:`slabscat.amp2d`, which is
the entire point: two independent evaluation paths for the same amplitude.

The first three kernel orders are

    N^(1)_ab = (-1)^a i m_0(p - p') / (4 pi sqrt(1 - p'^2/k^2)),
    N^(2)_ab = [(-1)^(a+b) - sqrt((k^2 - p^2)/(k^2 - p'^2))] m_1(p - p') / (4 pi),
    N^(3)_ab = i (-1)^(a-1) / (4 pi sqrt(1 - p'^2/k^2)) *
               { m_2(p - p') [1 - (p^2 + p'^2)/(2 k^2)
                              - (-1)^(a+b) sqrt((1 - p^2/k^2)(1 - p'^2/k^2))]
                 + INT_0^1 dx2 INT_0^x2 dx1 (x2 - x1) Q(x1, x2, p - p'; k) },

where m_l are the transform moments and Q is the transverse Fourier
transform of w(x1, y) w(x2, y).  By Fubini the simplex term is the transform
of one more axial moment of the profile,

    C(y) = INT_0^1 dx2 x2^2 w(x2, y) INT_0^1 dt (1 - t) w(x2 t, y),

sampled once per profile and transformed like m_l, so every order is
evaluated at a whole array of momentum pairs at once and amplitude assembly
reaches third order.

Chains are evaluated by Nystrom's method (Atkinson 1997, *The Numerical
Solution of Integral Equations of the Second Kind*, section 4.1): every
kernel is known at any momentum pair, so in <p| N_1 ... N_m |p0> the last
kernel is evaluated at the grid nodes against the column p' = p0, the first
at the requested rows p against the nodes, and only the kernels in between
(third-order chains, as N^(1)_22) as grid matrices; a one-kernel chain is
N_1(p, p0) itself.  Nothing is interpolated, so the only discretization
error is the quadrature over the intermediate momenta.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .amp2d import _check_angles
from .numerics import DomainError, _integer_at_least, _positive_finite, gauss_legendre
from .profiles import _convolution_moment, moment_2d

__all__ = [
    "MomentumGrid",
    "momentum_grid",
    "kernel_n1",
    "kernel_n2",
    "kernel_n3",
    "kernel_matrix",
    "assemble_channels",
    "amplitude_from_kernels",
]

_EDGE_MARGIN = 1e-10
_MIN_NODES = 3  # the fewest nodes a momentum grid takes


@dataclass(frozen=True)
class MomentumGrid:
    """Quadrature nodes and weights for the propagating window (-k, k)."""

    k: float
    nodes: np.ndarray
    weights: np.ndarray


def momentum_grid(k, count=201):
    """Build a Gauss-Legendre MomentumGrid in phi, with p = k sin(phi).

    The substitution makes the weights absorb the endpoint measure.
    """
    _positive_finite(k, "k")
    _integer_at_least(count, _MIN_NODES, "count")
    t, w = gauss_legendre(count)
    phi = 0.5 * np.pi * t
    nodes = k * np.sin(phi)
    weights = 0.5 * np.pi * w * k * np.cos(phi)
    if np.min(k - np.abs(nodes)) <= _EDGE_MARGIN * k:
        raise DomainError(
            "grid nodes fall within 1e-10 of |p| = k; reduce the node count"
        )
    return MomentumGrid(k=float(k), nodes=nodes, weights=weights)


def _kernel_arguments(a, b, p, pp, k):
    """p and p' as float arrays, once a, b are 1 or 2 and every momentum is inside (-k, k)."""
    if a not in (1, 2) or b not in (1, 2):
        raise DomainError("kernel indices a, b must be 1 or 2")
    p = np.asarray(p, dtype=float)
    pp = np.asarray(pp, dtype=float)
    if np.any(np.abs(p) >= k) or np.any(np.abs(pp) >= k):
        raise DomainError(
            "kernel momenta must lie strictly inside (-k, k); the evaluation "
            "is singular at |p'| = k"
        )
    return p, pp


def kernel_n1(profile, a, b, p, pp, k):
    """First-order kernel; independent of the index b."""
    p, pp = _kernel_arguments(a, b, p, pp, k)
    m0 = moment_2d(profile, 0, p - pp, k)
    return (-1.0) ** a * 1j * m0 / (4.0 * np.pi * np.sqrt(1.0 - (pp / k) ** 2))


def kernel_n2(profile, a, b, p, pp, k):
    """Second-order kernel."""
    p, pp = _kernel_arguments(a, b, p, pp, k)
    m1 = moment_2d(profile, 1, p - pp, k)
    bracket = (-1.0) ** (a + b) - np.sqrt((k * k - p * p) / (k * k - pp * pp))
    return bracket * m1 / (4.0 * np.pi)


def kernel_n3(profile, a, b, p, pp, k):
    """Third-order kernel.

    Its simplex term is the transform of the profile's "convolution"
    samples (see profiles._convolution_moment), so like m_2 it is evaluated
    at the whole p - p' array at once.
    """
    p, pp = _kernel_arguments(a, b, p, pp, k)
    m2 = moment_2d(profile, 2, p - pp, k)
    conv = _convolution_moment(profile, p - pp, k)
    root = np.sqrt((1.0 - (p / k) ** 2) * (1.0 - (pp / k) ** 2))
    bracket = 1.0 - (p * p + pp * pp) / (2.0 * k * k) - (-1.0) ** (a + b) * root
    pref = 1j * (-1.0) ** (a - 1) / (4.0 * np.pi * np.sqrt(1.0 - (pp / k) ** 2))
    return pref * (m2 * bracket + conv)


def _kernel_block(profile, j, a, b, p, pp, k):
    """N^(j)_ab at every pair of the momenta p and p', as a (p.size, p'.size) array."""
    if j not in (1, 2, 3):
        raise DomainError("kernel order j must be 1, 2, or 3")
    kernel = (kernel_n1, kernel_n2, kernel_n3)[j - 1]
    return kernel(profile, a, b, p[:, None], pp[None, :], k)


def kernel_matrix(profile, j, a, b, grid):
    """Discretize N^(j)_ab on the grid (rows: p, columns: p')."""
    return _kernel_block(profile, j, a, b, grid.nodes, grid.nodes, grid.k)


def _channel_chains(left, m):
    """Kernel-index words of the (B-, A+) series to m kernels, with their signs."""
    if left:
        b_chains = [("22",) * j + ("21",) for j in range(m)]
        a_chains = [("11",)] + [("12",) + ("22",) * j + ("21",) for j in range(m - 1)]
    else:
        b_chains = [("22",) * j for j in range(1, m + 1)]
        a_chains = [("12",) + ("22",) * j for j in range(m)]
    return (b_chains, 1.0), (a_chains, -1.0)


def _chain_sum(block, chains, truncation, kl, weights):
    """Sum over words and order assignments of <p| N... |p0> * (k ell)^total.

    The last kernel of a word is evaluated against the column p0, the first
    at the rows p, and the ones in between on the grid, so a product of m
    kernels integrates m - 1 intermediate momenta with the grid weights.
    """
    total = 0.0
    for chain in chains:
        m = len(chain)
        for orders in itertools.product(range(1, truncation + 1), repeat=m):
            if sum(orders) > truncation:
                continue
            vec = block(orders[-1], chain[-1], "p" if m == 1 else "nodes", "p0")
            for i in reversed(range(m - 1)):
                matrix = block(orders[i], chain[i], "p" if i == 0 else "nodes", "nodes")
                # the rows p one by one: BLAS blocks rows, so their bits would
                # depend on how many angles share the call
                weighted = weights[:, None] * vec
                rows = matrix[:, None] if i == 0 else [matrix]
                vec = np.concatenate([row @ weighted for row in rows])
            total = total + kl ** sum(orders) * vec[:, 0]
    return total


def assemble_channels(profile, config, p, truncation, grid):
    """Smooth parts (B-, A+) of the channel functions at the momenta p.

    The incidence side is the sign of cos theta0, and the delta parts (the
    unscattered beam) are left out.  Products are truncated by total power
    of k*ell; their intermediate momenta run over the grid nodes.  Each
    kernel block a chain needs is built once per call.
    """
    if truncation not in (1, 2, 3):
        raise DomainError("truncation must be 1, 2, or 3")
    if grid.k != config.k:
        raise DomainError("the momentum grid was built for another wavenumber")
    momenta = {
        "p": np.atleast_1d(np.asarray(p, dtype=float)),
        "nodes": grid.nodes,
        "p0": np.array([config.p0]),
    }
    blocks = {}

    def block(j, ab, rows, cols):
        key = (j, ab, rows, cols)
        if key not in blocks:
            blocks[key] = _kernel_block(
                profile, j, int(ab[0]), int(ab[1]), momenta[rows], momenta[cols], grid.k
            )
        return blocks[key]

    pref = 2.0 * np.pi * config.varpi0
    return tuple(
        pref * sign * _chain_sum(block, chains, truncation, config.kl, grid.weights)
        for chains, sign in _channel_chains(math.cos(config.theta0) > 0, truncation)
    )


def amplitude_from_kernels(profile, config, theta, truncation=2, node_count=201):
    """Amplitude at observation angle(s) theta via the discretized kernel route.

    Assembles the channels up to ``truncation`` in total k*ell power at
    p = k sin theta, once for an array of angles, and reads the A+ channel
    for cos theta > 0, B- otherwise.  Each angle's bits are its own call's.
    """
    thetas = np.atleast_1d(np.asarray(theta, dtype=float))
    _check_angles(thetas, "theta")
    if thetas.size == 0:
        return np.empty(0, dtype=complex)
    grid = momentum_grid(config.k, count=node_count)
    p = [config.k * math.sin(t) for t in thetas]
    b_minus, a_plus = assemble_channels(profile, config, p, truncation, grid)
    pref = -1j / math.sqrt(2.0 * math.pi)
    out = [pref * complex(a if math.cos(t) > 0 else b) for t, a, b in zip(thetas, a_plus, b_minus)]
    return np.array(out) if np.ndim(theta) else out[0]
