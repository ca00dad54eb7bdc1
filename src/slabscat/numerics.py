"""Numerical substrate: adaptive quadrature, Fourier transforms, coefficient functions.

Conventions used throughout the package:

* Fourier transforms use the physics sign convention

      F(p) = INT exp(-i*p*y) f(y) dy,

  evaluated at arbitrary (off-grid) momenta ``p``.
* Quadrature routines accept complex-valued integrands, which are vectorized:
  they take an ndarray of abscissae and return the matching ndarray (or an
  array that broadcasts to it).  A 2-D integrand f(x, y) receives
  broadcastable arrays of shapes (n, 1) and (1, 2n) and returns the (n, 2n)
  values (a batch integrand gets the indices of its live integrands first).
  An exception an integrand raises propagates.
* Every transform of sampled data truncated to a finite window is guarded by
  ``check_edge_decay``, the package's single truncation check.

integrate_1d is an adaptive Gauss-Kronrod (G7/K15) bisection scheme with
per-panel error estimates (the classic QUADPACK 15-point constants); a batch
of its integrands (a sweep curve's f2 integrals) advances together, one call
per round.  Its stopping rule, _bisect, also drives _integrate_moments, the
one axial sampler of eval-only profiles.
integrate_2d is a tensor Gauss-Legendre rule whose order doubles until two
levels agree (exponentially convergent for smooth integrands, Trefethen &
Weideman, SIAM Rev. 56(3), 2014); an integrand it does not resolve by
n = 256 raises AccuracyError; a batch of them (a sweep curve) is evaluated in
blocks of at most 2^14 values.

transform_samples_1d evaluates the trapezoid sum over uniform samples at
off-grid momenta as a type-2 NUFFT (Dutt & Rokhlin, SIAM J. Sci. Comput.
14(6), 1993): one numpy FFT per sample set on a twice-finer 11-smooth grid,
then a kernel sum over 17 bins per momentum, taken as one array step per
block of up to 4,096 momenta.  It matches the direct sum to rounding.  Its
samples are always a _SampleRow, which keeps its whole fine grid once it is
transformed: a sampled profile's cached moment row runs the FFT once, and a
plain array becomes a row of its own, so it is transformed afresh on each
call.  transform_samples_2d sums with explicit
phase factors; both transforms check their radius and momenta in one place.
_band_ratio, which sizes a sampled profile's transverse grid, reads the same
trapezoid transform of a row or a mesh at the top of its band, by one FFT.
"""

import contextvars
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SlabscatError",
    "AccuracyError",
    "TruncationError",
    "DomainError",
    "QuadratureSpec",
    "TransformSpec",
    "check_edge_decay",
    "integrate_1d",
    "integrate_2d",
    "fourier_1d",
    "transform_samples_1d",
    "transform_samples_2d",
    "gauss_legendre",
]


class SlabscatError(Exception):
    """Base class for all errors raised by this package."""


class AccuracyError(SlabscatError):
    """An adaptive routine failed to reach the requested tolerance.

    The best available estimate is attached as ``estimate`` and the error
    indicator of that estimate as ``error_estimate``.
    """

    def __init__(self, message, estimate=None, error_estimate=None):
        super().__init__(message)
        self.estimate = estimate
        self.error_estimate = error_estimate


class TruncationError(SlabscatError):
    """A transform's integrand is not small at the truncation boundary."""


class DomainError(SlabscatError):
    """Inputs lie outside the domain an operation is defined on."""


_LARGEST = sys.float_info.max  # a Python int above the largest float is not finite


def _positive_finite(value, name):
    """Return a number that is positive and finite, else refuse it naming it ``name``."""
    if not 0 < value < math.inf or value > _LARGEST:
        raise DomainError(f"{name} must be positive and finite")
    return value


def _finite(values, name):
    """Refuse a number, or an array of them, that is not all finite (a number by its range)."""
    scalar = isinstance(values, (int, float, complex))
    if not (
        abs(values.real) <= _LARGEST >= abs(values.imag) if scalar else np.isfinite(values).all()
    ):
        raise DomainError(f"{name} must be finite")


def _integer_at_least(value, floor, name):
    """Return an integer of at least ``floor``, else refuse it naming it ``name``."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < floor:
        raise DomainError(f"{name} must be an integer >= {floor}")
    return value


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances of the adaptive integrators; each integrator sets its own subdivision budget."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12

    def __post_init__(self):
        _positive_finite(self.rel_tol, "rel_tol")
        if not 0 <= self.abs_tol <= _LARGEST:
            raise DomainError("abs_tol must be nonnegative and finite")


@dataclass(frozen=True)
class TransformSpec:
    """Truncation and sampling parameters for numeric Fourier transforms.

    ``truncation_radius`` is the half-width R of the sampled window [-R, R];
    ``sample_count`` is the number of uniform panels, a power of two (the
    grid has sample_count + 1 nodes including both ends).
    """

    truncation_radius: float
    sample_count: int = 65536

    def __post_init__(self):
        _positive_finite(self.truncation_radius, "truncation_radius")
        n = self.sample_count
        if not isinstance(n, (int, np.integer)) or n < 2 or (n & (n - 1)) != 0:
            raise DomainError("sample_count must be a power of two")


_EDGE_REL_TOL = 1e-6


def check_edge_decay(values, what):
    """Raise TruncationError unless ``values`` is small on every edge.

    ``values`` are samples of a truncated integrand (1-D, or 2-D on a mesh);
    their magnitude on each edge of the array must not exceed 1e-6 of their
    peak.  An all-zero array passes; one with a value that is not finite
    raises AccuracyError.
    """
    mag = np.abs(values)
    peak = np.max(mag)  # NaN or inf if any value is
    if not np.isfinite(peak):
        raise AccuracyError(f"{what} is not finite")
    if peak == 0.0:
        return
    edge = max(np.max(np.take(mag, [0, -1], axis=axis)) for axis in range(mag.ndim))
    if edge > _EDGE_REL_TOL * peak:
        raise TruncationError(
            f"{what} has magnitude {edge:.3e} at the truncation boundary, "
            f"more than {_EDGE_REL_TOL:.0e} of its peak {peak:.3e}; enlarge "
            "the truncation radius"
        )


# 15-point Kronrod abscissae (nonnegative half) and weights, with the
# embedded 7-point Gauss weights, as published with QUADPACK's dqk15.
_XGK = np.array(
    [
        0.991455371120812639206854697526329,
        0.949107912342758524526189684047851,
        0.864864423359769072789712788640926,
        0.741531185599394439863864773280788,
        0.586087235467691130294144838258730,
        0.405845151377397166906606412076961,
        0.207784955007898467600689403773245,
        0.000000000000000000000000000000000,
    ]
)
_WGK = np.array(
    [
        0.022935322010529224963732008058970,
        0.063092092629978553290700663189204,
        0.104790010322250183839876322541518,
        0.140653259715525918745189590510238,
        0.169004726639267902826583426598550,
        0.190350578064785409913256402421014,
        0.204432940075298892414161999234649,
        0.209482141084727828012999174891714,
    ]
)
_WG = np.array(
    [
        0.129484966168869693270611432679082,
        0.279705391489276667901467771423780,
        0.381830050505118944950369775488975,
        0.417959183673469387755102040816327,
    ]
)

# Full 15-node arrays on [-1, 1], ordered left to right.
_GK_NODES = np.concatenate((-_XGK[:7], [0.0], _XGK[6::-1]))
_GK_WEIGHTS = np.concatenate((_WGK[:7], [_WGK[7]], _WGK[6::-1]))
# Positions of the embedded Gauss nodes within the 15-node array
# (indices 1, 3, 5, 7, 9, 11, 13) and their weights.
_G_IDX = np.arange(1, 14, 2)
_G_WEIGHTS = np.concatenate((_WG[:3], [_WG[3]], _WG[2::-1]))

_DEFAULT_QUAD = QuadratureSpec()


def _sample(f, shape, *args):
    """f(*args) as a complex array of ``shape``, broadcast to it if need be.

    A result that does not broadcast to ``shape`` raises ValueError.
    """
    values = np.asarray(f(*args), dtype=complex)
    return values if values.shape == shape else np.broadcast_to(values, shape)


def _gk_nodes(lo, hi):
    """The 15 Kronrod abscissae of the panel [lo, hi]."""
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * _GK_NODES


def _gk_panel(fx, lo, hi, what):
    """[error, lo, hi, kron] of one panel from its 15 f-values.

    A non-finite estimate raises at once (naming ``what``): bisection cannot repair it.
    """
    half_width = 0.5 * (hi - lo)
    kron = half_width * np.dot(_GK_WEIGHTS, fx)
    gauss = half_width * np.dot(_G_WEIGHTS, fx[_G_IDX])
    if not (np.isfinite(kron) and np.isfinite(gauss)):
        raise AccuracyError(f"{what} is not finite on [{lo:.17g}, {hi:.17g}]")
    return [abs(kron - gauss), lo, hi, kron]


_INITIAL_PANELS = 4
# integrate_1d's budget of halvings, and the most the axial sampler gets
_MAX_SUBDIVISIONS = 2000


def _bisect(panels, estimate, halvings, spec, budget, what):
    """The stopping rule of the adaptive G7/K15 integrators, for one integral.

    ``panels`` holds the [error, lo, hi, ...] records of an integral whose
    estimate is ``estimate`` after ``halvings`` halvings.  None means the
    summed errors are within max(abs_tol, rel_tol * max|estimate|); else the
    index of the worst panel and the spans of its halves, for the caller to
    evaluate.  If the ``budget`` of halvings is spent first, or the worst
    panel cannot be halved, AccuracyError carries the estimate.
    """
    error = sum(p[0] for p in panels)
    if error <= max(spec.abs_tol, spec.rel_tol * np.max(np.abs(estimate), initial=0.0)):
        return None
    if halvings >= budget:
        raise AccuracyError(
            f"{what} did not converge within {budget} "
            f"subdivisions (error estimate {error:.3e})",
            estimate=estimate,
            error_estimate=error,
        )
    worst = max(range(len(panels)), key=lambda i: panels[i][0])
    lo, hi = panels[worst][1:3]
    mid = 0.5 * (lo + hi)
    if mid <= lo or mid >= hi:
        raise AccuracyError(
            f"{what} hit the resolution limit of double precision",
            estimate=estimate,
            error_estimate=error,
        )
    return worst, [(lo, mid), (mid, hi)]


def _finite_limits(*limits):
    """The integration limits as floats; DomainError if one is not finite."""
    for x in limits:
        _finite(x, "integration limits")
    return [float(x) for x in limits]


def integrate_1d(f, a, b, spec=None, batch=None):
    """Adaptively integrate a complex-valued function over [a, b].

    Parameters
    ----------
    f : callable
        Vectorized integrand: called once per panel with the ndarray of its
        15 abscissae, it returns the matching ndarray of (possibly complex)
        values, or an array that broadcasts to it.  Each abscissa is
        evaluated once, and an exception f raises propagates.
    a, b : float
        Integration limits, a < b allowed in either order (b < a negates).
    spec : QuadratureSpec, optional
        Tolerances; the result satisfies
        |error| <= max(abs_tol, rel_tol * |result|) per the G7/K15 estimator.
    batch : int, optional
        With ``batch`` = m, f is m integrands, and the ndarray of their
        integrals is returned.  Each round makes one call f(live, x) for the
        integrands ``live`` still running: row i of the 2-D x holds the
        abscissae of integrand live[i] (its 4 initial panels, then the two
        halves of its worst panel, 15 per panel) and f returns the values of
        x's shape.  Each keeps its own panels and stops on its own, bit for
        bit as alone.

    Returns
    -------
    complex

    Raises
    ------
    AccuracyError
        If a panel's estimate is not finite (the message names the panel),
        or if the tolerance is not met within 2,000 subdivisions, or a panel
        narrows to the resolution of double precision; in the latter two
        cases the best estimate is attached to the exception.  In a batch
        the message names the integrand.
    DomainError
        Before any evaluation, if a limit is not finite.
    ValueError
        If f returns values that do not broadcast to its abscissae.
    """
    spec = spec or _DEFAULT_QUAD
    a, b = _finite_limits(a, b)
    sign = 1.0 if a <= b else -1.0
    a, b = min(a, b), max(a, b)
    g = f
    if batch is None:  # a batch of one, whose f still gets one panel per call
        panel_values = lambda x: [_sample(f, _GK_NODES.shape, row) for row in x.reshape(-1, 15)]
        g = lambda live, x: np.concatenate(panel_values(x))
    out = np.zeros(1 if batch is None else batch, dtype=complex)
    live = np.arange(out.size if a < b else 0)
    edges = np.linspace(a, b, _INITIAL_PANELS + 1)
    spans = np.broadcast_to(np.stack((edges[:-1], edges[1:]), 1), (live.size, _INITIAL_PANELS, 2))
    panels, worst = [[] for _ in live], [0] * live.size  # worst: where new records go
    while live.size:
        x = _gk_nodes(spans[..., :1], spans[..., 1:]).reshape(live.size, -1)
        values = _sample(g, x.shape, live, x).reshape(spans.shape[:2] + (15,))
        halves = {}  # of the integrands still running
        for j, fx, span in zip(live, values, spans):
            who = "integrand" if batch is None else f"integrand {j}"
            records = [_gk_panel(v, lo, hi, who) for v, (lo, hi) in zip(fx, span)]
            panels[j][worst[j] : worst[j] + 1] = records
            estimate = sign * sum(p[3] for p in panels[j])
            what = "integrate_1d" if batch is None else f"integrate_1d ({who})"
            halvings = len(panels[j]) - _INITIAL_PANELS
            step = _bisect(panels[j], estimate, halvings, spec, _MAX_SUBDIVISIONS, what)
            if step is None:
                out[j] = estimate
            else:
                worst[j], halves[j] = step
        live, spans = np.array(list(halves), dtype=int), np.array(list(halves.values()))
    return out if batch is not None else out[0]


# the embedded Gauss weights at their places among the 15 Kronrod nodes
_G_WEIGHTS_AT_NODES = np.zeros(15)
_G_WEIGHTS_AT_NODES[_G_IDX] = _G_WEIGHTS

# The axial sampler's tolerances, and its budget of evaluated points: a halving
# evaluates 45 rows, so a row that stands for a profile's whole transverse grid
# (sample_count, the cap: 65,537 points in 2D, 1025^2 in 3D) gets 101 halvings
# in 2D and 6 in 3D whatever grid it samples, and an unresolvable row fails on
# the first grid, in milliseconds.
_AXIAL_SPEC = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-12)
_AXIAL_POINTS = 3e8
# The size of the row a sampler call stands for, where that is more than its
# own.  A sampled profile sets it to its cap's row while it samples a grid
# (profiles._level), so every call made meanwhile (the nested calls of the
# convolution route and a coating's calls on its bare slab included) gets the
# cap's budget; calls made outside, such as spatial_moment_y's, keep their own.
_BUDGET_ROW = contextvars.ContextVar("_BUDGET_ROW", default=1)


def _integrate_moments(f, orders, breaks=(), spec=_AXIAL_SPEC):
    """INT_0^1 x^l f(x) dx for each l in ``orders``, of a row f(x) of any shape.

    The one axial sampler: every axial integral of an eval-only profile is
    one call.  Adaptive G7/K15 by integrate_1d's stopping rule, from the
    panels between the ``breaks`` in (0, 1) (where f is known to kink or jump);
    a panel's error is its largest |K15 - G7| over every order and entry,
    so the tolerance is relative to the largest |moment| over the row, not
    per entry.  ``spec`` sets only the tolerances: the sampler gets
    _AXIAL_POINTS / (45 * n) halvings, at least 1 and at most integrate_1d's
    2,000, where n is the larger of f's row size and _BUDGET_ROW, and raises
    AccuracyError when they run out or a panel is not finite.  A panel sums
    its rows node by node: a halved panel is evaluated again to take its
    estimate out of the running total, so memory stays at a few rows.
    """
    what = "axial moment sampler"

    def panel(lo, hi):
        kron = gauss = 0.0
        for x, wk, wg in zip(_gk_nodes(lo, hi), _GK_WEIGHTS, _G_WEIGHTS_AT_NODES):
            powers = np.power(x, orders)
            values = np.asarray(f(x))
            kron = kron + np.multiply.outer(wk * powers, values)
            if wg:
                gauss = gauss + np.multiply.outer(wg * powers, values)
        half_width = 0.5 * (hi - lo)
        error = half_width * np.max(np.abs(kron - gauss), initial=0.0)
        if not np.isfinite(error):
            raise AccuracyError(f"{what}: integrand not finite on [{lo:.17g}, {hi:.17g}]")
        return [error, lo, hi], half_width * kron

    edges = np.unique(np.clip([0.0, *breaks, 1.0], 0.0, 1.0))
    panels, total = [], 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        record, part = panel(lo, hi)
        panels.append(record)
        total = total + part

    row_size = max(np.size(total) // len(orders), _BUDGET_ROW.get())
    budget = min(_MAX_SUBDIVISIONS, max(1, int(_AXIAL_POINTS / (45 * row_size))))
    halvings = 0
    while (step := _bisect(panels, total, halvings, spec, budget, what)) is not None:
        worst, halves = step
        (left, left_sum), (right, right_sum) = (panel(*span) for span in halves)
        total = total + ((left_sum + right_sum) - panel(*panels[worst][1:])[1])
        panels[worst : worst + 1] = [left, right]
        halvings += 1
    return total


# Orders n of the doubling tensor rule: n nodes in x times 2n nodes in y.
_TENSOR_ORDERS = (16, 32, 64, 128, 256)
# A level hands a batch integrand blocks of max(1, _TENSOR_BLOCK // 2n^2) integrands.
_TENSOR_BLOCK = 1 << 14


def _tensor_level(f, live, a, b, c, d, n):
    """The n x 2n tensor Gauss-Legendre sums over [a, b] x [c, d] of f's integrands ``live``."""
    tx, wx = gauss_legendre(n)
    ty, wy = gauss_legendre(2 * n)
    hx = 0.5 * (b - a)
    hy = 0.5 * (d - c)
    x = 0.5 * (a + b) + hx * tx
    y = 0.5 * (c + d) + hy * ty
    size = max(1, _TENSOR_BLOCK // (2 * n * n))
    totals = []
    for start in range(0, live.size, size):
        block = live[start : start + size]
        for fxy in _sample(f, (block.size, n, 2 * n), block, x[:, None], y[None, :]):
            totals.append(hx * hy * (wx @ fxy @ wy))
            if not np.isfinite(totals[-1]):
                raise AccuracyError(
                    f"integrand is not finite on [{a:.17g}, {b:.17g}] x [{c:.17g}, {d:.17g}]"
                )
    return np.array(totals)


def integrate_2d(f, a, b, c, d, spec=None, batch=None):
    """Integrate a complex-valued f(x, y) over [a, b] x [c, d].

    A tensor Gauss-Legendre rule with n nodes in x and 2n in y doubles its
    order, n = 16, 32, ..., 256, until two levels agree:
    |I_2n - I_n| <= max(abs_tol, rel_tol * |I_2n|); I_2n is returned.  Each
    level makes one call f(x, y) with broadcastable arrays of shapes (n, 1)
    and (1, 2n), which must return the (n, 2n) values (or an array that
    broadcasts to them).

    With ``batch`` = m, f is m integrands, and the ndarray of their integrals
    is returned: f(live, x, y) returns the (live.size, n, 2n) values of the
    integrands ``live`` still running, called once per block of at most
    max(1, 2^14 // 2n^2).  Each stops at its own level, bit for bit as alone.
    An exception f raises propagates.

    Raises
    ------
    AccuracyError
        At once if a level's sum is not finite; or if an integrand has not
        converged at n = 256 (a kinked one, say), with the n = 256 sum as
        ``estimate`` and its gap to the n = 128 sum as ``error_estimate``.
        The message names the rectangle, and in a batch the integrand.
    DomainError
        Before any evaluation, if a limit is not finite.
    ValueError
        If f returns values that do not broadcast to its abscissae.
    """
    spec = spec or _DEFAULT_QUAD
    _finite_limits(a, b, c, d)
    g = f if batch is not None else (lambda live, x, y: np.asarray(f(x, y))[None])
    out = np.empty(1 if batch is None else batch, dtype=complex)
    live, previous = np.arange(out.size), np.full(out.size, np.nan)
    for n in _TENSOR_ORDERS:
        if not live.size:
            break
        totals = _tensor_level(g, live, a, b, c, d, n)
        gaps = np.abs(totals - previous)
        done = gaps <= np.maximum(spec.abs_tol, spec.rel_tol * np.abs(totals))
        out[live[done]] = totals[done]
        live, previous, gaps = live[~done], totals[~done], gaps[~done]
    if live.size:
        which = f" (integrand {live[0]})" if batch is not None else ""
        raise AccuracyError(
            f"integrate_2d did not converge by n = {_TENSOR_ORDERS[-1]} on [{a:.17g}, {b:.17g}]"
            f" x [{c:.17g}, {d:.17g}]{which} (error estimate {gaps[0]:.3e})",
            estimate=previous[0],
            error_estimate=gaps[0],
        )
    return out if batch is not None else out[0]


def _trapezoid_weights(n_panels, h):
    w = np.full(n_panels + 1, h)
    w[0] = 0.5 * h
    w[-1] = 0.5 * h
    return w


# Type-2 NUFFT: the "exponential of semicircle" kernel exp(beta (sqrt(1 - z^2)
# - 1)) spans _NUFFT_W bins of a fine grid about twice as long as the sample
# set; w = 16 with beta = 2.30 w keeps the gap from the direct sum at rounding
# level (Barnett, Magland & af Klinteberg, SIAM J. Sci. Comput. 41(5), 2019).
_NUFFT_W = 16
_NUFFT_BETA = 2.30 * _NUFFT_W
# Gauss-Legendre nodes on [0, 1] for the kernel's Fourier transform
_NUFFT_KERNEL_NODES = 2 + 3 * _NUFFT_W // 2

# Momenta per vectorized kernel sum; larger blocks outgrow the cache and run slower.
_NUFFT_BLOCK = 4096


def _es_kernel(z):
    """The kernel exp(beta (sqrt(1 - z^2) - 1)) on |z| <= 1, zero outside."""
    inside = np.abs(z) <= 1.0
    root = np.sqrt(np.where(inside, 1.0 - z * z, 0.0))
    return np.where(inside, np.exp(_NUFFT_BETA * (root - 1.0)), 0.0)


def _next_fast_len(n):
    """The least m >= n (n >= 1) with no prime factor above 11, a fast FFT length.

    The product below is divisible by every such number under 2^64, and by
    no number with a larger prime factor.
    """
    while (2**64 * 3**41 * 5**28 * 7**23 * 11**19) % n:
        n += 1
    return n


@functools.lru_cache(maxsize=None)
def _nufft_plan(count):
    """(fine-grid length, kernel transform at each sample offset) for count samples.

    The kernel transform is even in both the kernel's argument and the
    offset; it is accumulated one quadrature node at a time over the
    nonnegative offsets, so no count x nodes matrix is ever formed.  The
    array is read-only.
    """
    n_fine = _next_fast_len(2 * count)
    offsets = np.arange(count) - (count - 1) // 2
    scale = np.pi * _NUFFT_W / n_fine * np.arange(offsets[-1] + 1)
    t, wq = gauss_legendre(_NUFFT_KERNEL_NODES)
    z = 0.5 * (t + 1.0)
    correction = np.zeros(scale.size)
    for zq, weight in zip(z, 0.5 * wq * _es_kernel(z)):
        correction += weight * np.cos(scale * zq)
    correction = _NUFFT_W * correction[np.abs(offsets)]
    correction.setflags(write=False)
    return n_fine, correction


def _fine_grid(values):
    """Bins -W .. W-1 of the FFT of the pre-corrected, zero-padded samples (h = 1), read-only.

    W = n_fine / 2 + 18, so they reach every kernel sum.
    """
    count = values.size
    n_fine, correction = _nufft_plan(count)
    half = (count - 1) // 2
    a = _trapezoid_weights(count - 1, 1.0) * values / correction
    padded = np.zeros(n_fine, dtype=complex)
    padded[: count - half] = a[half:]
    padded[n_fine - half :] = a[:half]
    width = n_fine // 2 + _NUFFT_W + 2
    bins = np.take(np.fft.fft(padded), np.arange(-width, width), mode="wrap")
    bins.setflags(write=False)
    return bins


class _SampleRow:
    """A read-only copy of one 1-D sample row and, once it is transformed, its whole fine grid."""

    def __init__(self, values):
        self.values = np.array(values, dtype=complex)
        self.values.setflags(write=False)
        self.size = self.values.size
        self.bins = None  # _fine_grid(values), set by the first transform


# A grid has resolved the transform of a sample array whose _band_ratio is at
# most this (profiles._moment_samples asks it of the next grid too).
_BAND_DECAY = 1e-13


def _band_ratio(values):
    """How far the trapezoid transform of uniform samples has decayed at the top of its band.

    ``values`` are a row, or a square mesh, of n + 1 samples per axis on
    [-R, R], h = 2R / n apart.  Their trapezoid transform at the momenta
    j pi / R, |j| <= n / 2, which span the band |p| <= pi / h, is one FFT of
    the samples with each axis's two end samples folded into one (the ends
    share the phase of every such momentum).  The ratio is the transform's
    largest magnitude where some |p_axis| >= 3/4 pi / h over its peak: once
    it is at most _BAND_DECAY, the sum's aliasing error anywhere in the band
    is of that order, for a transform that keeps decaying beyond it.  It
    looks at no momentum a caller asks for.  All-zero samples give 0.
    """
    folded = np.array(values, dtype=complex)
    for axis in range(folded.ndim):
        folded = np.moveaxis(folded, axis, 0)
        folded[0] = 0.5 * (folded[0] + folded[-1])
        folded = np.moveaxis(folded[:-1], 0, axis)
    magnitude = np.abs(np.fft.fftn(folded))
    near = np.abs(np.fft.fftfreq(magnitude.shape[0])) >= 0.375
    top = np.zeros(magnitude.shape, dtype=bool)
    for axis in range(magnitude.ndim):
        top |= np.expand_dims(near, [a for a in range(magnitude.ndim) if a != axis])
    peak = np.max(magnitude)
    return np.max(magnitude[top]) / peak if peak > 0.0 else 0.0


def _scaled_momenta(radius, p, scale):
    """p * scale, once the transform radius and the scaled momenta are checked.

    A radius that is not positive and finite, or a scaled momentum that is
    not finite (a momentum that is not, or one too large for the transform's
    phases), raises DomainError.  Both sampled transforms check through it.
    """
    _positive_finite(radius, "transform radius")
    scaled = p * scale
    _finite(scaled, "transform momenta")
    return scaled


def transform_samples_1d(values, radius, p):
    """Fourier transform of uniformly sampled data at arbitrary momenta.

    ``values`` are f on the uniform grid y_j = -radius + j*h covering
    [-radius, radius] (h = 2*radius/(len(values)-1)); trapezoid end
    correction (half weights at both ends) is applied.  ``p`` may be a
    scalar or an array of any shape of finite momenta, on or off the grid;
    the result has its shape.

    The sum over samples is a type-2 NUFFT: the samples are divided by the
    kernel's Fourier transform, zero-padded onto a fine grid about twice as
    long and transformed by one FFT; each momentum is then a sum of the
    kernel over the w + 1 nearest fine-grid bins, evaluated for a block of
    momenta at once and added in the same order for each, so a momentum
    gets the same bits in any batch.  It agrees with the direct
    sum to rounding: within 1e-13 of h * sum(|values|), at any momentum.
    ``values`` may be a sampled profile's cached row (a _SampleRow), which
    keeps its whole fine grid for later calls; an array is copied into a row
    of its own, so it is transformed afresh on each call.
    Samples that are not one row of at least two, a radius that is not
    positive and finite, or a momentum that is not finite raise DomainError.
    """
    row = values if isinstance(values, _SampleRow) else _SampleRow(values)
    if row.values.ndim != 1 or row.size < 2:
        raise DomainError("transform_samples_1d needs one 1-D row of at least two samples")
    n = row.size - 1
    n_fine = _nufft_plan(row.size)[0]
    h = 2.0 * radius / n
    shape = np.shape(p)
    p_arr = np.asarray(p, dtype=float).ravel()

    # fine-grid position of each momentum; the sum is periodic in p*h with
    # period 2 pi, i.e. n_fine bins, and both reductions below are exact
    position = _scaled_momenta(radius, p_arr, h * n_fine / (2.0 * np.pi))
    if p_arr.size == 0:
        return np.empty(shape, dtype=complex)
    position = np.fmod(position, n_fine)
    position -= n_fine * np.round(position / n_fine)
    first = np.floor(position - 0.5 * _NUFFT_W).astype(int)
    bins = row.bins  # kept from the row's first transform (racing threads repeat one FFT)
    if bins is None:
        bins = row.bins = _fine_grid(row.values)
    width = bins.size // 2
    total = np.zeros(p_arr.size, dtype=complex)
    q = np.arange(_NUFFT_W + 1)[:, None]
    for start in range(0, p_arr.size, _NUFFT_BLOCK):
        block = slice(start, start + _NUFFT_BLOCK)
        reach = first[block] + q  # row q: the q-th bin of each momentum
        terms = _es_kernel((2.0 / _NUFFT_W) * (position[block] - reach)) * bins[reach + width]
        partial = total[block]
        for row in terms:  # in q order, as a sum per momentum would add them
            partial += row
    # the fine grid is centred on sample n // 2, at y = h * (n // 2) - radius
    out = h * np.exp(1j * p_arr * (radius - h * (n // 2))) * total
    return out.reshape(shape) if shape else out[0]


def fourier_1d(f, p, spec):
    """Fourier transform INT exp(-i*p*y) f(y) dy of a decaying function.

    Parameters
    ----------
    f : callable
        Function of y, vectorized; must decay so its tail beyond the
        truncation radius is negligible (check_edge_decay enforces it).
    p : float or 1D ndarray
        Momentum (or momenta) at which to evaluate the transform.
    spec : TransformSpec
        Truncation radius and sampling density.

    Returns
    -------
    complex (or ndarray of complex when p is an array)
    """
    radius = spec.truncation_radius
    y = np.linspace(-radius, radius, spec.sample_count + 1)
    values = np.asarray(f(y), dtype=complex)
    check_edge_decay(values, "integrand")
    return transform_samples_1d(values, radius, p)


def transform_samples_2d(values, radius, pvec):
    """2D analog of transform_samples_1d on an (n+1) x (n+1) uniform grid.

    ``values[i, j]`` is f at (x_i, y_j); ``pvec`` is one momentum pair
    (px, py) or an array of shape (m, 2).  A mesh that is not square with at
    least 2 x 2 samples, a radius that is not positive and finite, or a
    momentum that is not finite raise DomainError, as in
    transform_samples_1d.
    """
    values = np.asarray(values, dtype=complex)
    if values.ndim != 2 or values.shape[0] != values.shape[1] or values.shape[0] < 2:
        raise DomainError("transform_samples_2d needs a square mesh of at least 2 x 2 samples")
    pv = np.atleast_2d(np.asarray(pvec, dtype=float))
    single = np.asarray(pvec).ndim == 1
    _scaled_momenta(radius, pv, radius)  # |px x| <= |px| radius on the mesh
    n = values.shape[0] - 1
    h = 2.0 * radius / n
    w = _trapezoid_weights(n, h)
    x = np.linspace(-radius, radius, n + 1)

    out = np.empty(pv.shape[0], dtype=complex)
    for i, (px, py) in enumerate(pv):
        u = w * np.exp(-1j * px * x)
        v = w * np.exp(-1j * py * x)
        out[i] = u @ (values @ v)
    return out[0] if single else out


@functools.lru_cache(maxsize=None)
def gauss_legendre(n):
    """Cached Gauss-Legendre nodes and weights on [-1, 1], read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    for array in (nodes, weights):
        array.setflags(write=False)
    return nodes, weights
