"""Numerical substrate: adaptive quadrature, Fourier transforms, coefficient functions.

Conventions used throughout the package:

* Fourier transforms use the physics sign convention

      F(p) = INT exp(-i*p*y) f(y) dy,

  evaluated at arbitrary (off-grid) momenta ``p``.
* Quadrature routines accept complex-valued integrands, which are vectorized:
  they take an ndarray of abscissae and return the matching ndarray (or an
  array that broadcasts to it).  A 2-D integrand f(x, y) receives
  broadcastable arrays of shapes (n, 1) and (1, 2n) and returns the (n, 2n)
  values; on the nested path it receives a scalar x and a 1-D ndarray of y
  values.  An exception an integrand raises propagates.
* Every transform of sampled data truncated to a finite window is guarded by
  ``check_edge_decay``, the package's single truncation check.

integrate_1d is an adaptive Gauss-Kronrod (G7/K15) bisection scheme with
per-panel error estimates (the classic QUADPACK 15-point constants); its loop
also drives _integrate_moments, the one axial sampler of eval-only profiles.
integrate_2d is a tensor Gauss-Legendre rule whose order doubles until two
levels agree (exponentially convergent for smooth integrands, Trefethen &
Weideman, SIAM Rev. 56(3), 2014); integrands it does not resolve by n = 256
fall back to nested integrate_1d calls.

transform_samples_1d evaluates the trapezoid sum over uniform samples at
off-grid momenta as a type-2 NUFFT (Dutt & Rokhlin, SIAM J. Sci. Comput.
14(6), 1993): one FFT per sample set on a twice-finer grid, then a short
kernel sum per momentum.  It matches the direct sum to rounding.  The FFT
runs once per read-only sample set (such as the cached axial moments of a
profile); only the fine-grid bins its momenta reach are kept.
transform_samples_2d sums with explicit phase factors.
"""

import threading
import weakref
from dataclasses import dataclass, replace

import numpy as np
import scipy.fft

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


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and subdivision budget for the adaptive integrators."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    max_subdivisions: int = 2000

    def __post_init__(self):
        if not 0 < self.rel_tol < np.inf:
            raise DomainError("rel_tol must be positive and finite")
        if not 0 <= self.abs_tol < np.inf:
            raise DomainError("abs_tol must be nonnegative and finite")
        n = self.max_subdivisions
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
            raise DomainError("max_subdivisions must be an integer of at least 1")


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
        if not 0 < self.truncation_radius < np.inf:
            raise DomainError("truncation_radius must be positive and finite")
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


def _gk_panel(fx, lo, hi):
    """[error, lo, hi, kron] of one panel from its 15 f-values.

    A non-finite estimate raises at once, since bisection cannot repair it.
    """
    half_width = 0.5 * (hi - lo)
    kron = half_width * np.dot(_GK_WEIGHTS, fx)
    gauss = half_width * np.dot(_G_WEIGHTS, fx[_G_IDX])
    if not (np.isfinite(kron) and np.isfinite(gauss)):
        raise AccuracyError(f"integrand is not finite on [{lo:.17g}, {hi:.17g}]")
    return [abs(kron - gauss), lo, hi, kron]


_INITIAL_PANELS = 4


def _bisect(panels, halve, total, spec, what):
    """The bisection loop of the adaptive G7/K15 integrators.

    ``panels`` holds [error, lo, hi, ...] records; halve(record, mid) returns
    the records of a panel's halves and total() the current estimate.  The
    worst panel is halved until the summed errors are within
    max(abs_tol, rel_tol * max|total|); if the budget runs out first, or a
    panel cannot be halved, AccuracyError carries the estimate.
    """
    subdivisions = 0
    while True:
        estimate = total()
        error = sum(p[0] for p in panels)
        if error <= max(spec.abs_tol, spec.rel_tol * np.max(np.abs(estimate), initial=0.0)):
            return estimate
        if subdivisions >= spec.max_subdivisions:
            raise AccuracyError(
                f"{what} did not converge within {spec.max_subdivisions} "
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
        panels[worst : worst + 1] = halve(panels[worst], mid)
        subdivisions += 1


def integrate_1d(f, a, b, spec=None):
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

    Returns
    -------
    complex

    Raises
    ------
    AccuracyError
        If a panel's estimate is not finite (the message names the panel),
        or if the tolerance is not met within max_subdivisions; in the
        latter case the best estimate is attached to the exception.
    ValueError
        If f returns values that do not broadcast to its abscissae.
    """
    spec = spec or _DEFAULT_QUAD
    a = float(a)
    b = float(b)
    if a == b:
        return 0j
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0

    def panel(lo, hi):
        return _gk_panel(_sample(f, _GK_NODES.shape, _gk_nodes(lo, hi)), lo, hi)

    # panels: list of [error, a, b, kron]
    edges = np.linspace(a, b, _INITIAL_PANELS + 1)
    panels = [panel(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
    halve = lambda record, mid: [panel(record[1], mid), panel(mid, record[2])]
    total = lambda: sign * sum(p[3] for p in panels)
    return _bisect(panels, halve, total, spec, "integrate_1d")


# the embedded Gauss weights at their places among the 15 Kronrod nodes
_G_WEIGHTS_AT_NODES = np.zeros(15)
_G_WEIGHTS_AT_NODES[_G_IDX] = _G_WEIGHTS

# The axial sampler's tolerances, and its budget of evaluated points: a halving
# evaluates 45 rows, so a default 2D row (65,537 points) gets 101 halvings and
# a default 3D mesh (1025^2 points) 6, and an unresolvable row fails in seconds.
_AXIAL_SPEC = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-12)
_AXIAL_POINTS = 3e8


def _integrate_moments(f, orders, breaks=(), spec=_AXIAL_SPEC):
    """INT_0^1 x^l f(x) dx for each l in ``orders``, of a row f(x) of any shape.

    The one axial sampler: every axial integral of an eval-only profile is
    one call.  Adaptive G7/K15 by the loop of integrate_1d, from the panels
    between the ``breaks`` in (0, 1) (where f is known to kink or jump);
    a panel's error is its largest |K15 - G7| over every order and entry,
    so the tolerance is relative to the largest |moment| over the row, not
    per entry.  It gets _AXIAL_POINTS / (45 * row size) halvings, at least 1
    and at most spec.max_subdivisions, and raises AccuracyError when they
    run out or a panel is not finite.  A panel sums its rows node by node:
    a halved panel is evaluated again to take its estimate out of the
    running total, so memory stays at a few rows.
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

    def halve(record, mid):
        nonlocal total
        (left, left_sum), (right, right_sum) = panel(record[1], mid), panel(mid, record[2])
        total = total + ((left_sum + right_sum) - panel(*record[1:])[1])
        return [left, right]

    row_size = max(1, np.size(total) // len(orders))
    halvings = min(spec.max_subdivisions, max(1, int(_AXIAL_POINTS / (45 * row_size))))
    return _bisect(panels, halve, lambda: total, replace(spec, max_subdivisions=halvings), what)


# Orders n of the doubling tensor rule: n nodes in x times 2n nodes in y.
_TENSOR_ORDERS = (16, 32, 64, 128, 256)


def _tensor_level(f, a, b, c, d, n):
    """The n x 2n tensor Gauss-Legendre sum of f over [a, b] x [c, d]."""
    tx, wx = gauss_legendre(n)
    ty, wy = gauss_legendre(2 * n)
    hx = 0.5 * (b - a)
    hy = 0.5 * (d - c)
    x = 0.5 * (a + b) + hx * tx
    y = 0.5 * (c + d) + hy * ty
    fxy = _sample(f, (n, 2 * n), x[:, None], y[None, :])
    total = hx * hy * (wx @ fxy @ wy)
    if not np.isfinite(total):
        raise AccuracyError(
            f"integrand is not finite on [{a:.17g}, {b:.17g}] x [{c:.17g}, {d:.17g}]"
        )
    return total


def integrate_2d(f, a, b, c, d, spec=None):
    """Integrate a complex-valued f(x, y) over [a, b] x [c, d].

    A tensor Gauss-Legendre rule with n nodes in x and 2n in y doubles its
    order, n = 16, 32, ..., 256, until two levels agree:
    |I_2n - I_n| <= max(abs_tol, rel_tol * |I_2n|); I_2n is returned.  Each
    level makes one call f(x, y) with broadcastable arrays of shapes (n, 1)
    and (1, 2n), which must return the (n, 2n) values (or an array that
    broadcasts to them).

    If the rule has not converged at n = 256 (a kinked integrand), the
    nested adaptive scheme takes over.  There f is called with a scalar x
    and a 1-D ndarray of y values.  An exception f raises propagates.

    Raises
    ------
    AccuracyError
        At once if a level's sum is not finite (the message names the
        rectangle); or if the nested adaptive scheme fails to converge.
    ValueError
        If f returns values that do not broadcast to its abscissae.
    """
    spec = spec or _DEFAULT_QUAD
    previous = None
    for n in _TENSOR_ORDERS:
        total = _tensor_level(f, a, b, c, d, n)
        if previous is not None and abs(total - previous) <= max(
            spec.abs_tol, spec.rel_tol * abs(total)
        ):
            return total
        previous = total
    return _integrate_2d_nested(f, a, b, c, d, spec)


def _integrate_2d_nested(f, a, b, c, d, spec):
    """Iterated adaptive integration of f(x, y) over [a, b] x [c, d].

    The inner (y) integral runs at a tenth of the requested tolerances so the
    outer adaptive pass sees a consistent integrand ("tolerance splitting").
    f is called as f(x, y) with a scalar x and an ndarray of y values.
    """
    inner_spec = replace(spec, rel_tol=0.1 * spec.rel_tol, abs_tol=0.1 * spec.abs_tol)

    def outer(xs):
        return np.array(
            [integrate_1d(lambda y: f(x, y), c, d, inner_spec) for x in xs],
            dtype=complex,
        )

    return integrate_1d(outer, a, b, spec)


def _trapezoid_weights(n_panels, h):
    w = np.full(n_panels + 1, h)
    w[0] = 0.5 * h
    w[-1] = 0.5 * h
    return w


def _transform_samples_1d_direct(values, radius, p):
    """transform_samples_1d as the explicit sum over every sample (test oracle)."""
    values = np.asarray(values, dtype=complex)
    n = values.size - 1
    wf = _trapezoid_weights(n, 2.0 * radius / n) * values
    wfr = wf.real.copy()
    wfi = wf.imag.copy()
    y = np.linspace(-radius, radius, n + 1)

    scalar = np.isscalar(p) or np.asarray(p).ndim == 0
    p_arr = np.atleast_1d(np.asarray(p, dtype=float))
    out = np.empty(p_arr.size, dtype=complex)
    for i, pi in enumerate(p_arr):
        ph = pi * y
        cs = np.cos(ph)
        sn = np.sin(ph)
        out[i] = (cs @ wfr + sn @ wfi) + 1j * (cs @ wfi - sn @ wfr)
    return out[0] if scalar else out


# Type-2 NUFFT: the "exponential of semicircle" kernel exp(beta (sqrt(1 - z^2)
# - 1)) spans _NUFFT_W bins of a fine grid about twice as long as the sample
# set; w = 16 with beta = 2.30 w keeps the gap from the direct sum at rounding
# level (Barnett, Magland & af Klinteberg, SIAM J. Sci. Comput. 41(5), 2019).
_NUFFT_W = 16
_NUFFT_BETA = 2.30 * _NUFFT_W
# Gauss-Legendre nodes on [0, 1] for the kernel's Fourier transform
_NUFFT_KERNEL_NODES = 2 + 3 * _NUFFT_W // 2

_nufft_plans = {}
# id(values) -> [weakref to values, half-width W, fine-grid bins -W .. W-1]
_nufft_windows = {}
_nufft_windows_lock = threading.Lock()


def _es_kernel(z):
    """The kernel exp(beta (sqrt(1 - z^2) - 1)) on |z| <= 1, zero outside."""
    inside = np.abs(z) <= 1.0
    root = np.sqrt(np.where(inside, 1.0 - z * z, 0.0))
    return np.where(inside, np.exp(_NUFFT_BETA * (root - 1.0)), 0.0)


def _nufft_plan(count):
    """(fine-grid length, kernel transform at each sample offset) for count samples.

    The kernel transform is even in both the kernel's argument and the
    offset; it is accumulated one quadrature node at a time over the
    nonnegative offsets, so no count x nodes matrix is ever formed.
    """
    plan = _nufft_plans.get(count)
    if plan is None:
        n_fine = scipy.fft.next_fast_len(2 * count)
        offsets = np.arange(count) - (count - 1) // 2
        scale = np.pi * _NUFFT_W / n_fine * np.arange(offsets[-1] + 1)
        t, wq = gauss_legendre(_NUFFT_KERNEL_NODES)
        z = 0.5 * (t + 1.0)
        correction = np.zeros(scale.size)
        for zq, weight in zip(z, 0.5 * wq * _es_kernel(z)):
            correction += weight * np.cos(scale * zq)
        plan = _nufft_plans[count] = (n_fine, _NUFFT_W * correction[np.abs(offsets)])
    return plan


def _fine_grid(values):
    """The FFT of the pre-corrected, zero-padded samples (trapezoid weights, h = 1)."""
    count = values.size
    n_fine, correction = _nufft_plan(count)
    half = (count - 1) // 2
    a = _trapezoid_weights(count - 1, 1.0) * values / correction
    padded = np.zeros(n_fine, dtype=complex)
    padded[: count - half] = a[half:]
    padded[n_fine - half :] = a[:half]
    return scipy.fft.fft(padded)


def _window(values, half_width):
    """Fine-grid bins -W .. W-1 (W >= half_width) of a sample set.

    The bins of a read-only array that owns its data are cached, keyed by a
    weakref to it, and grow to the next power of two when a call needs more.
    Every bin is sliced from the one FFT of the whole set, so its value does
    not depend on the window or on which momenta came first.
    """
    n_fine = _nufft_plan(values.size)[0]
    if values.flags.writeable or not values.flags.owndata:
        return np.take(_fine_grid(values), np.arange(-half_width, half_width), mode="wrap")
    key = id(values)
    with _nufft_windows_lock:
        entry = _nufft_windows.get(key)
        if entry is not None and entry[0]() is values and entry[1] >= half_width:
            return entry[2]
    width = 1 << (int(half_width) - 1).bit_length()
    width = min(width, n_fine // 2 + _NUFFT_W + 2)
    bins = np.take(_fine_grid(values), np.arange(-width, width), mode="wrap")
    bins.setflags(write=False)
    with _nufft_windows_lock:
        entry = _nufft_windows.get(key)
        if entry is not None and entry[0]() is values:
            if entry[1] >= width:
                return entry[2]
            entry[1:] = [width, bins]
        else:
            ref = weakref.ref(values, lambda _, key=key: _nufft_windows.pop(key, None))
            _nufft_windows[key] = [ref, width, bins]
    return bins


def transform_samples_1d(values, radius, p):
    """Fourier transform of uniformly sampled data at arbitrary momenta.

    ``values`` are f on the uniform grid y_j = -radius + j*h covering
    [-radius, radius] (h = 2*radius/(len(values)-1)); trapezoid end
    correction (half weights at both ends) is applied.  ``p`` may be a
    scalar or a 1D array of finite momenta, on or off the grid.

    The sum over samples is a type-2 NUFFT: the samples are divided by the
    kernel's Fourier transform, zero-padded onto a fine grid about twice as
    long and transformed by one FFT; each momentum is then a sum of the
    kernel over the w + 1 nearest fine-grid bins.  It agrees with the direct
    sum to rounding: within 1e-13 of h * sum(|values|), at any momentum.  A
    read-only ``values`` array that owns its data is treated as immutable:
    the fine-grid bins its momenta reach are cached for later calls.
    """
    values = np.asarray(values, dtype=complex)
    n = values.size - 1
    h = 2.0 * radius / n
    scalar = np.isscalar(p) or np.asarray(p).ndim == 0
    p_arr = np.atleast_1d(np.asarray(p, dtype=float))
    if p_arr.size == 0:
        return np.empty(0, dtype=complex)
    n_fine = _nufft_plan(values.size)[0]

    # fine-grid position of each momentum; the sum is periodic in p*h with
    # period 2 pi, i.e. n_fine bins, and both reductions below are exact
    position = p_arr * (h * n_fine / (2.0 * np.pi))
    if not np.all(np.isfinite(position)):
        raise DomainError("transform momenta must be finite")
    position = np.fmod(position, n_fine)
    position -= n_fine * np.round(position / n_fine)
    first = np.floor(position - 0.5 * _NUFFT_W).astype(int)
    half_width = max(-first.min(), first.max() + _NUFFT_W + 1)
    bins = _window(values, half_width)
    width = bins.size // 2
    total = np.zeros(p_arr.size, dtype=complex)
    for q in range(_NUFFT_W + 1):
        kernel = _es_kernel((2.0 / _NUFFT_W) * (position - (first + q)))
        total += kernel * bins[first + q + width]
    # the fine grid is centred on sample n // 2, at y = h * (n // 2) - radius
    out = h * np.exp(1j * p_arr * (radius - h * (n // 2))) * total
    return out[0] if scalar else out


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
    (px, py) or an array of shape (m, 2).
    """
    values = np.asarray(values, dtype=complex)
    n = values.shape[0] - 1
    h = 2.0 * radius / n
    w = _trapezoid_weights(n, h)
    x = np.linspace(-radius, radius, n + 1)

    pv = np.atleast_2d(np.asarray(pvec, dtype=float))
    single = np.asarray(pvec).ndim == 1
    out = np.empty(pv.shape[0], dtype=complex)
    for i, (px, py) in enumerate(pv):
        u = w * np.exp(-1j * px * x)
        v = w * np.exp(-1j * py * x)
        out[i] = u @ (values @ v)
    return out[0] if single else out


_leggauss_cache = {}


def gauss_legendre(n):
    """Cached Gauss-Legendre nodes and weights on [-1, 1]."""
    if n not in _leggauss_cache:
        _leggauss_cache[n] = np.polynomial.legendre.leggauss(n)
    return _leggauss_cache[n]
