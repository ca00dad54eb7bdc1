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
evaluated on the whole grid at once and amplitude assembly reaches third
order.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import BarycentricInterpolator

from .amp2d import _GRAZING_TOL
from .numerics import DomainError, gauss_legendre
from .profiles import _convolution_moment, moment_2d

__all__ = [
    "MomentumGrid",
    "KernelMatrix",
    "ChannelFunctions",
    "momentum_grid",
    "varpi",
    "kernel_n1",
    "kernel_n2",
    "kernel_n3",
    "kernel_matrix",
    "assemble_channels",
    "amplitude_from_kernels",
]

_EDGE_MARGIN = 1e-10


@dataclass(frozen=True)
class MomentumGrid:
    """Quadrature nodes and weights for the propagating window (-k, k)."""

    k: float
    nodes: np.ndarray
    weights: np.ndarray
    query_points: np.ndarray  # interpolation abscissae phi, with p = k sin(phi)

    def query_of(self, p):
        """Map a momentum to the interpolation variable phi of this grid."""
        return np.arcsin(np.clip(p / self.k, -1.0, 1.0))


def momentum_grid(k, count=201):
    """Build a Gauss-Legendre MomentumGrid in phi, with p = k sin(phi).

    The substitution makes the weights absorb the endpoint measure.
    """
    if not k > 0:
        raise DomainError("k must be positive")
    if count < 3:
        raise DomainError("a momentum grid needs at least 3 nodes")
    t, w = gauss_legendre(count)
    phi = 0.5 * np.pi * t
    nodes = k * np.sin(phi)
    weights = 0.5 * np.pi * w * k * np.cos(phi)
    if np.min(k - np.abs(nodes)) <= _EDGE_MARGIN * k:
        raise DomainError(
            "grid nodes fall within 1e-10 of |p| = k; reduce the node count"
        )
    return MomentumGrid(k=float(k), nodes=nodes, weights=weights, query_points=phi)


@dataclass(frozen=True)
class KernelMatrix:
    """One discretized kernel N^(j)_ab on a MomentumGrid."""

    j: int
    a: int
    b: int
    values: np.ndarray
    grid: MomentumGrid


def varpi(p, k):
    """Axial wavenumber sqrt(k^2 - p^2), continued as i sqrt(p^2 - k^2)."""
    p = np.asarray(p, dtype=float)
    scalar = p.ndim == 0
    p = np.atleast_1d(p)
    out = np.empty(p.shape, dtype=complex)
    prop = np.abs(p) < k
    out[prop] = np.sqrt(k * k - p[prop] ** 2)
    out[~prop] = 1j * np.sqrt(p[~prop] ** 2 - k * k)
    return complex(out[0]) if scalar else out


def _validate_ab(a, b):
    if a not in (1, 2) or b not in (1, 2):
        raise DomainError("kernel indices a, b must be 1 or 2")


def _validate_momenta(p, pp, k):
    if np.any(np.abs(np.asarray(p)) >= k) or np.any(np.abs(np.asarray(pp)) >= k):
        raise DomainError(
            "kernel momenta must lie strictly inside (-k, k); the evaluation "
            "is singular at |p'| = k"
        )


def kernel_n1(profile, a, b, p, pp, k, transform=None):
    """First-order kernel; independent of the index b."""
    _validate_ab(a, b)
    _validate_momenta(p, pp, k)
    p = np.asarray(p, dtype=float)
    pp = np.asarray(pp, dtype=float)
    m0 = moment_2d(profile, 0, p - pp, k, transform=transform)
    return (-1.0) ** a * 1j * m0 / (4.0 * np.pi * np.sqrt(1.0 - (pp / k) ** 2))


def kernel_n2(profile, a, b, p, pp, k, transform=None):
    """Second-order kernel."""
    _validate_ab(a, b)
    _validate_momenta(p, pp, k)
    p = np.asarray(p, dtype=float)
    pp = np.asarray(pp, dtype=float)
    m1 = moment_2d(profile, 1, p - pp, k, transform=transform)
    bracket = (-1.0) ** (a + b) - np.sqrt((k * k - p * p) / (k * k - pp * pp))
    return bracket * m1 / (4.0 * np.pi)


def kernel_n3(profile, a, b, p, pp, k, transform=None):
    """Third-order kernel.

    Its simplex term is the transform of the profile's "convolution"
    samples (see profiles._convolution_moment), so like m_2 it is evaluated
    at the whole p - p' array at once.
    """
    _validate_ab(a, b)
    _validate_momenta(p, pp, k)
    p = np.asarray(p, dtype=float)
    pp = np.asarray(pp, dtype=float)
    m2 = moment_2d(profile, 2, p - pp, k, transform=transform)
    conv = _convolution_moment(profile, p - pp, k, transform)
    root = np.sqrt((1.0 - (p / k) ** 2) * (1.0 - (pp / k) ** 2))
    bracket = 1.0 - (p * p + pp * pp) / (2.0 * k * k) - (-1.0) ** (a + b) * root
    pref = 1j * (-1.0) ** (a - 1) / (4.0 * np.pi * np.sqrt(1.0 - (pp / k) ** 2))
    return pref * (m2 * bracket + conv)


def kernel_matrix(profile, j, a, b, grid, transform=None):
    """Discretize N^(j)_ab on the grid (rows: p, columns: p')."""
    if j not in (1, 2, 3):
        raise DomainError("kernel order j must be 1, 2, or 3")
    n = grid.nodes.size
    P = np.repeat(grid.nodes, n)
    PP = np.tile(grid.nodes, n)
    kernel = (kernel_n1, kernel_n2, kernel_n3)[j - 1]
    vals = kernel(profile, a, b, P, PP, grid.k, transform)
    return KernelMatrix(j=j, a=a, b=b, values=vals.reshape(n, n), grid=grid)


@dataclass(frozen=True)
class ChannelFunctions:
    """Smooth channel values on the grid plus symbolic delta coefficients."""

    grid: MomentumGrid
    side: str
    truncation: int
    p0: float
    B_minus: np.ndarray
    A_plus: np.ndarray
    B_minus_delta: complex
    A_plus_delta: complex

    def __post_init__(self):
        if self.side == "left" and self.B_minus_delta != 0:
            raise DomainError("left-incidence B- carries no delta part")
        if self.side == "right" and self.A_plus_delta != 0:
            raise DomainError("right-incidence A+ carries no delta part")


def _channel_chains(side):
    """Kernel-index words of each channel's series, with overall signs."""
    if side == "left":
        b_chains = lambda m: [("22",) * j + ("21",) for j in range(m)]
        a_chains = lambda m: [("11",)] + [
            ("12",) + ("22",) * j + ("21",) for j in range(max(m - 1, 0))
        ]
        return (b_chains, 1.0), (a_chains, -1.0)
    if side == "right":
        b_chains = lambda m: [("22",) * j for j in range(1, m + 1)]
        a_chains = lambda m: [("12",) + ("22",) * j for j in range(m)]
        return (b_chains, 1.0), (a_chains, -1.0)
    raise DomainError("side must be 'left' or 'right'")


def _index_kernels(kernels):
    table = {}
    grid = None
    for km in kernels:
        if grid is None:
            grid = km.grid
        elif km.grid is not grid and not (
            km.grid.nodes.shape == grid.nodes.shape
            and np.array_equal(km.grid.nodes, grid.nodes)
        ):
            raise DomainError("kernel matrices were built on mismatched grids")
        table[(km.j, km.a, km.b)] = km.values
    return table, grid


def _lookup(table, j, a, b):
    key = (j, a, b)
    if key in table:
        return table[key]
    if j == 1:  # first order is b-independent
        alt = (1, a, 3 - b)
        if alt in table:
            return table[alt]
    raise DomainError(f"missing kernel matrix N^({j})_{a}{b} for the requested truncation")


def _interpolant(grid, values):
    """Barycentric interpolant in phi over the grid nodes.

    scipy builds the weights over a random permutation of the nodes; a fixed
    ``rng`` makes repeated calls, and so every amplitude, bit-for-bit equal.
    """
    return BarycentricInterpolator(grid.query_points, values, rng=0)


def _column_at(values, grid, p0):
    """Interpolate the p' dependence of a kernel matrix at p' = p0.

    Every kernel order carries an inverse square-root endpoint weight in p'
    (poles at |p'| = k sit on the interpolation interval's ends); stripping
    the weight before polynomial interpolation and dividing it back keeps
    the interpolant smooth.
    """
    scale = np.sqrt(1.0 - (grid.nodes / grid.k) ** 2)
    interp = _interpolant(grid, (values * scale).T)
    s0 = math.sqrt(1.0 - (p0 / grid.k) ** 2)
    return np.asarray(interp(grid.query_of(p0)), dtype=complex) / s0


def _chain_sum(table, grid, chains, truncation, p0, kl):
    """Sum over words and order assignments of <p| N... |p0> * (k ell)^total."""
    total = np.zeros(grid.nodes.size, dtype=complex)
    for chain in chains:
        m = len(chain)
        if m > truncation:
            continue
        for orders in itertools.product(range(1, truncation + 1), repeat=m):
            if sum(orders) > truncation:
                continue
            word = [
                _lookup(table, o, int(ab[0]), int(ab[1]))
                for o, ab in zip(orders, chain)
            ]
            vec = _column_at(word[-1], grid, p0)
            for matrix in reversed(word[:-1]):
                vec = matrix @ (grid.weights * vec)
            total += kl ** sum(orders) * vec
    return total


def assemble_channels(kernels, config, side, truncation):
    """Assemble the channel functions from discretized kernels.

    ``kernels`` is an iterable of KernelMatrix on one common grid, covering
    every order up to ``truncation`` (first-order matrices may be supplied
    for a single b thanks to their b-independence).  Products are truncated
    by total power of k*ell.
    """
    if truncation not in (1, 2, 3):
        raise DomainError("truncation must be 1, 2, or 3")
    table, grid = _index_kernels(kernels)
    if grid is None:
        raise DomainError("no kernel matrices supplied")
    k = config.k
    p0 = config.p0
    pref = 2.0 * np.pi * config.varpi0
    (b_chains, b_sign), (a_chains, a_sign) = _channel_chains(side)
    b_vals = pref * b_sign * _chain_sum(
        table, grid, b_chains(truncation), truncation, p0, config.kl
    )
    a_vals = pref * a_sign * _chain_sum(
        table, grid, a_chains(truncation), truncation, p0, config.kl
    )
    return ChannelFunctions(
        grid=grid,
        side=side,
        truncation=truncation,
        p0=p0,
        B_minus=b_vals,
        A_plus=a_vals,
        B_minus_delta=pref if side == "right" else 0j,
        A_plus_delta=pref if side == "left" else 0j,
    )


def amplitude_from_kernels(
    profile, config, theta, truncation=2, node_count=201, transform=None
):
    """Amplitude at observation angle theta via the discretized kernel route.

    Builds the kernel matrices up to ``truncation`` in total k*ell power,
    assembles the channel dictated by the incidence side (sign of
    cos theta0), and reads off the smooth part at p = k sin theta; the
    delta parts (unscattered beam) are excluded.
    """
    if truncation not in (1, 2, 3):
        raise DomainError("amplitude assembly supports truncation 1, 2, or 3")
    if abs(math.cos(theta)) < _GRAZING_TOL:
        raise DomainError("theta = +-pi/2 is excluded")
    grid = momentum_grid(config.k, count=node_count)
    kernels = []
    for j in range(1, truncation + 1):
        for a in (1, 2):
            bs = (1,) if j == 1 else (1, 2)
            for b in bs:
                kernels.append(kernel_matrix(profile, j, a, b, grid, transform))
    side = "left" if math.cos(config.theta0) > 0 else "right"
    channels = assemble_channels(kernels, config, side, truncation)
    p = config.k * math.sin(theta)
    values = channels.A_plus if math.cos(theta) > 0 else channels.B_minus
    interp = _interpolant(grid, values)
    smooth = complex(interp(grid.query_of(p)))
    return -1j / math.sqrt(2.0 * math.pi) * smooth
