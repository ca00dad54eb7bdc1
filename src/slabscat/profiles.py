"""Slab permittivity profiles and their transforms and moments.

A slab of thickness ell occupying 0 <= x <= ell has relative permittivity
eps = 1 + w(x/ell, y; k); profiles are stored in the scaled axial coordinate
x_frac = x/ell on [0, 1], with w = 0 outside.  Everything downstream consumes
profiles through two quantities:

* transform moments   m_l(p; k) = INT_0^1 dx_frac x_frac^l w~(x_frac, p; k),
  where w~ is the transverse Fourier transform of w, and
* spatial moments     w_l(y; k) = INT_0^1 dx_frac x_frac^l w(x_frac, y; k).

Profiles may carry closed forms for the transform and the moments; when those
are absent one axial sampler, adaptive Gauss-Kronrod over x_frac of whole rows
of ``eval`` samples (numerics._integrate_moments), takes every axial integral:
the moments on the profile's transverse grid (2D and 3D), which are then
transformed (in 2D by a type-2 NUFFT), spatial_moment_y at any y, and the a_l
of separable_profile.  The transverse grid is sized by convergence: 64
panels, doubled (re-using every sample) until the samples' transforms have
decayed at the top of the grid's band on it and on the next grid, and at
most ``sample_count`` panels, which a transform that decays only as a power
of the momentum takes as soon as two grids show it.
The sampler's first panels end where the profile declares an axial kink or
jump (the x nodes of a sampled profile, the boundaries of a layered one).
Nested, it gives the simplex convolution C(y) of w with itself that the
third-order kernel needs (see _convolution_moment).  A profile the
sampler cannot resolve within its budget of evaluated points (an axial jump
whose position moves with y, say) raises AccuracyError.  For a 2D profile
one private function, _spatial_moments, chooses between its closed
``moment_y`` (w_0, w_1, w_2 in one call) and the sampler.

``CATALOG`` is the one table of named closed-form profiles (in 1D, 2D and
3D); ``profile_from_dict`` builds a profile from its JSON form
``{"catalog": <name>, <param>: value, ...}``, the form the CLI reads too.

Profiles are frozen dataclasses, so no code can change one once it is built,
and they are safe to share across threads; the internal sample cache only ever
adds idempotent entries.
"""

import math
import numbers
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from .dyson1d import constant_slab_1d
from .numerics import (
    DomainError,
    TransformSpec,
    _BAND_DECAY,
    _BUDGET_ROW,
    _band_ratio,
    _finite,
    _integrate_moments,
    _positive_finite,
    _SampleRow,
    check_edge_decay,
    transform_samples_1d,
    transform_samples_2d,
)

if TYPE_CHECKING:
    from .cloak import BilayerGeometry

__all__ = [
    "Profile2D",
    "Profile3D",
    "CoatedProfile2D",
    "CATALOG",
    "moment_2d",
    "moment_3d",
    "spatial_moment_y",
    "coated_profile",
    "ex1_profile",
    "gaussian_slab_2d",
    "gaussian_slab_3d",
    "separable_profile",
    "layered_profile",
    "sampled_profile",
    "profile_from_dict",
]


@dataclass(frozen=True)
class Profile2D:
    """A 2D slab profile w(x_frac, y; k).

    ``eval`` takes (x_frac, y, k) with array-broadcastable x_frac/y and
    returns w, already zero outside x_frac in [0, 1].  The optional closed
    forms, when present, must agree with ``eval``:

    * analytic_moment(l, p, k): transform moment m_l(p; k), vectorized in p,
    * moment_y(y, k): the spatial moments (w_0, w_1, w_2)(y; k) in one call,
      each shaped like y.

    Each closed-form builder here makes a w = a(x_frac) g(y) through one
    constructor.  Moments without a closed form are sampled on the
    profile's transverse grid: uniform panels on [-decay_radius,
    decay_radius], a radius that bounds the support well enough for
    transforms truncated there to pass the edge-decay check.  The grid
    starts at 64 panels and doubles until the samples' transforms have
    decayed at the top of its band, there and on the next grid;
    ``sample_count`` (a power of two) is the cap, which a kinked or slowly
    decaying profile reaches.  A momentum
    beyond the band of that grid takes the first finer one whose band holds
    it.  Each grid's samples are cached per k, since w may depend on k.  A
    profile is frozen (assigning to a field raises FrozenInstanceError);
    ``dataclasses.replace`` derives a variant with a cache of its own:
    ``analytic_moment=None, moment_y=None`` for the sampled route, another
    ``sample_count``, or a wrapped ``eval``.
    """

    eval: Callable
    decay_radius: float
    descriptor: str = ""
    analytic_moment: Optional[Callable] = None
    moment_y: Optional[Callable] = None
    sample_count: int = 65536
    # interior x_frac where eval may kink or jump, set by the builders that
    # know them; the axial sampler starts its panels there
    _axial_breaks: tuple = field(default=(), repr=False)
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        _check_grid(self)


# 3D moments sample up to a (sample_count + 1)^2 mesh, so their cap is lower
_MAX_SAMPLES_3D = 4096


@dataclass(frozen=True)
class Profile3D:
    """A 3D slab profile w(r1, r2, z_frac; k); see Profile2D for semantics.

    ``eval`` takes (r1, r2, z_frac, k); ``analytic_moment`` takes
    (l, p1, p2, k).  The sampled route takes square meshes on
    [-decay_radius, decay_radius]^2 from 65^2 points up to the cap of
    (sample_count + 1)^2, so ``sample_count`` is at most 4096.  Like a
    Profile2D it is frozen, declares its axial breaks (in z_frac), caches its
    samples per k, and is varied by ``dataclasses.replace``.
    """

    eval: Callable
    decay_radius: float
    descriptor: str = ""
    analytic_moment: Optional[Callable] = None
    sample_count: int = 1024
    # interior z_frac where eval may kink or jump; the axial sampler starts
    # its panels there
    _axial_breaks: tuple = field(default=(), repr=False)
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        _check_grid(self, _MAX_SAMPLES_3D)


@dataclass(frozen=True, kw_only=True)
class CoatedProfile2D(Profile2D):
    """A bare slab wrapped in two homogeneous coating layers; see coated_profile.

    ``geometry`` is the BilayerGeometry the layers were built from.
    """

    geometry: "BilayerGeometry"


def _check_grid(profile, max_samples=None):
    """Refuse a transverse grid the sampled route cannot use."""
    _positive_finite(profile.decay_radius, "decay_radius")
    TransformSpec(profile.decay_radius, profile.sample_count)  # a power of two
    n = profile.sample_count
    if max_samples is not None and n > max_samples:
        raise DomainError(f"3D moments sample at most {max_samples} panels per axis, not {n}")


def _unit_mask(x_frac):
    x_frac = np.asarray(x_frac, dtype=float)
    return (x_frac >= 0.0) & (x_frac <= 1.0)


def _spatial_moments(profile, y, k, orders):
    """{l: w_l(y; k)} for each l in ``orders`` of a 2D profile, as complex arrays.

    The one choice between closed and sampled spatial moments: a closed
    ``moment_y`` when the profile has one, else one call of the axial sampler
    (numerics._integrate_moments, to its own tolerances and budget of
    evaluated points) over every y at once, from the declared axial breaks.
    """
    if profile.moment_y is not None:
        closed = profile.moment_y(y, k)
        return {l: np.asarray(closed[l], dtype=complex) for l in orders}
    row = lambda xf: profile.eval(xf, y, k)
    moments = _integrate_moments(row, orders, profile._axial_breaks)
    return {l: np.asarray(vals, dtype=complex) for l, vals in zip(orders, moments)}


# the first transverse grid of the sampled route, in panels per axis
_FIRST_PANELS = 64
# A transform that decays exponentially or faster at least squares its band
# ratio (numerics._band_ratio) when a resolving grid doubles.  One that decays
# only as p^-a (a kink or a jump in the transverse coordinate) divides it by
# 2^a, and a grid much coarser than the profile's features leaves it near 1;
# neither is resolved short of the cap.  So when two grids in a row have not
# decayed and the finer one's ratio is at least the coarser one's to this
# power, the search takes the cap.
_ALGEBRAIC_POWER = 1.5


def _sample_nodes(profile, k, route, nodes):
    """The raw samples {name: values} of a route at the transverse ``nodes``.

    ``nodes`` is (y,) for a 2D profile and (r1, r2) for a 3D one, flat
    arrays.  The "moments" route samples m_l for l = 0, 1, 2 of a 2D
    profile, by _spatial_moments (closed or sampled), and for l = 0, 1 of a
    3D profile, by the axial sampler.  The "convolution" route samples a 2D
    profile's

        C(y) = INT_0^1 dx2 x2^2 w(x2, y) INT_0^1 dt (1 - t) w(x2 t, y)

    under the key "C", by the same sampler nested: over x2 from the declared
    breaks, and at each x2 over t from the breaks b/x2 with b < x2.
    """
    breaks = profile._axial_breaks
    if isinstance(profile, Profile3D):
        r1, r2 = nodes
        layer = lambda zf: profile.eval(r1, r2, zf, k)
        return dict(zip((0, 1), _integrate_moments(layer, (0, 1), breaks)))
    (y,) = nodes
    if route == "moments":
        return _spatial_moments(profile, y, k, (0, 1, 2))
    w_row = lambda xf: profile.eval(xf, y, k)

    def layer(x2):
        # INT_0^1 dt (1 - t) w(x2 t, y), from the breaks below x2
        t_breaks = [b / x2 for b in breaks if b < x2]
        tail = lambda t: (1.0 - t) * w_row(x2 * t)
        return _integrate_moments(tail, (0,), t_breaks)[0] * w_row(x2)

    return {"C": _integrate_moments(layer, (2,), breaks)[0]}


def _level(profile, k, route, panels, coarse=None):
    """(samples, ratios): a route's read-only samples on ``panels`` panels per axis.

    The nodes are sampled with the halving budget of the cap's grid (see
    numerics._BUDGET_ROW); with ``coarse``, the samples of a coarser grid of
    the same nodes, only the new ones are, and the coarse samples keep their
    places.  Every
    sample array that is not negligible passes the edge-decay check, and
    ``ratios`` holds its numerics._band_ratio (0 for a negligible one).  A 3D
    mesh is made read-only in place, and a 2D row becomes a _SampleRow, which
    keeps its own NUFFT window.
    """
    r = np.linspace(-profile.decay_radius, profile.decay_radius, panels + 1)
    axes = np.meshgrid(*(r,) * (2 if isinstance(profile, Profile3D) else 1), indexing="ij")
    fresh = np.ones(axes[0].shape, dtype=bool)
    if coarse is not None:  # a 2D row's samples are its values
        coarse = {name: getattr(vals, "values", vals) for name, vals in coarse.items()}
        stride = panels // (next(iter(coarse.values())).shape[0] - 1)
        old = (slice(None, None, stride),) * len(axes)
        fresh[old] = False
    token = _BUDGET_ROW.set((profile.sample_count + 1) ** len(axes))
    try:
        raw = _sample_nodes(profile, k, route, [a[fresh] for a in axes])
    finally:
        _BUDGET_ROW.reset(token)
    samples = {}
    for name, vals in raw.items():
        samples[name] = np.empty(fresh.shape, dtype=complex)
        samples[name][fresh] = vals
        if coarse is not None:
            samples[name][old] = coarse[name]

    # a moment that is uniformly negligible against the largest one (e.g. a
    # coating that nulls it to rounding level) has nothing left to truncate
    # or resolve; a non-finite one is checked whatever the others, and fails
    peaks = {name: np.max(np.abs(vals)) for name, vals in samples.items()}
    overall = max(peaks.values(), default=0.0)
    ratios = {}
    for name, vals in samples.items():
        ratios[name] = 0.0
        if not np.isfinite(peaks[name]) or peaks[name] > 1e-9 * overall:
            check_edge_decay(vals, "profile moment")
            ratios[name] = _band_ratio(vals)
    if isinstance(profile, Profile3D):
        for mesh in samples.values():
            mesh.setflags(write=False)
        return samples, ratios
    return {name: _SampleRow(row) for name, row in samples.items()}, ratios


def _moment_samples(profile, k, route="moments", panels=0):
    """(panels, samples): a route's samples (see _sample_nodes) on a transverse grid.

    The grid is the accepted one, or the finer one of ``panels`` panels per
    axis (a power of two up to ``sample_count``).  The search starts at 64
    panels and doubles, each grid re-using the samples of the one before.
    A grid is accepted when the band ratio (numerics._band_ratio) of every
    sample array is at most _BAND_DECAY on it and on the next grid, which
    is sampled to confirm it: a feature that one grid aliases to a decayed
    transform shows on the other.  The search goes straight to the cap,
    ``sample_count`` panels, when a ratio falls no faster than a power of p
    would make it (see _ALGEBRAIC_POWER), and stops there in any case.  The
    accepted grid and every finer one taken are cached in
    ``_cache[(route, k)]``, keyed by panels (the accepted one is the
    coarsest), so a grid's samples depend on (route, k, panels) alone and
    not on the momenta asked or their order.
    """
    grids = profile._cache.get((route, float(k)))
    if grids and not panels:
        n = min(grids)
        return n, grids[n]
    grids = profile._cache.setdefault((route, float(k)), {})
    if not grids:
        cap = profile.sample_count
        n, confirm = min(_FIRST_PANELS, cap), None
        samples, ratios = _level(profile, k, route, n)
        while n < cap:
            confirm, next_ratios = _level(profile, k, route, 2 * n, samples)
            if max(*ratios.values(), *next_ratios.values()) <= _BAND_DECAY:
                break
            algebraic = any(
                min(ratio, next_ratios[name]) > _BAND_DECAY
                and next_ratios[name] >= ratio**_ALGEBRAIC_POWER
                for name, ratio in ratios.items()
            )
            n, samples, ratios, confirm = 2 * n, confirm, next_ratios, None
            if algebraic and n < cap:
                n, samples = cap, _level(profile, k, route, cap, samples)[0]
        grids[n] = samples
        if confirm is not None:
            grids[2 * n] = confirm
    n = max(grids)
    while n < panels:
        grids[2 * n] = _level(profile, k, route, 2 * n, grids[n])[0]
        n *= 2
    n = max(panels, min(grids))
    return n, grids[n]


def _sampled_transform(profile, k, route, name, p, transform):
    """transform(samples, radius, p) of a route's samples ``name`` at the momenta p.

    p is an (m,) array in 2D and an (m, 2) array in 3D.  Each momentum is
    transformed on the accepted grid if that grid's band |p| <= pi / h holds
    it (in 3D, both components), else on the first finer grid whose band
    does, or on the cap's grid.
    """
    panels, samples = _moment_samples(profile, k, route)
    scale = np.pi / (2.0 * profile.decay_radius)  # n panels hold the band |p| <= n scale
    reach = np.abs(p) if p.ndim == 1 else np.abs(p).max(axis=1)
    # the common case, without the masks below: they add 13% to a cache hit
    if panels == profile.sample_count or reach.max(initial=0.0) <= panels * scale:
        return transform(samples[name], profile.decay_radius, p)
    out = np.empty(len(p), dtype=complex)
    todo = np.ones(len(p), dtype=bool)
    while True:
        take = todo if panels == profile.sample_count else todo & (reach <= panels * scale)
        if take.any():
            out[take] = transform(samples[name], profile.decay_radius, p[take])
        todo &= ~take
        if not todo.any():
            return out
        panels, samples = _moment_samples(profile, k, route, 2 * panels)


def _check_finite(k, name, values):
    """Refuse a wavenumber k, or ``values`` (momenta, or y), that are not all finite.

    The sum of the values is the fast test: a non-finite entry makes it
    non-finite (and so, rarely, does overflow, which the entry-by-entry test
    then clears).  ``name`` names the values in the message.
    """
    if not math.isfinite(k):
        raise DomainError("k must be finite")
    if not math.isfinite(np.add.reduce(values, axis=None)):
        _finite(values, name)


def moment_2d(profile, l, p, k):
    """Transform moment m_l(p; k) = INT_0^1 x_frac^l w~(x_frac, p; k) dx_frac.

    Parameters
    ----------
    profile : Profile2D
    l : int in {0, 1, 2}
    p : float or ndarray
        Transverse momentum (vectorized, any shape).
    k : float
        Wavenumber: w may depend on it, so sampled moments are cached per k.

    Returns
    -------
    complex, or ndarray of complex of p's shape when p is an array

    A closed ``analytic_moment`` is used if present; else the spatial
    moments on the profile's transverse grid (see _spatial_moments: its
    ``moment_y``, or ``eval`` integrated over x_frac, which raises
    AccuracyError if the axial sampler cannot resolve the profile within its
    budget) are transformed, each momentum on the coarsest grid whose
    transforms have decayed and whose band holds it (see _moment_samples).
    Momenta or a k that are not finite raise DomainError on either route;
    samples that are not finite raise AccuracyError, and an error
    ``moment_y`` or ``eval`` raises propagates.
    """
    if l not in (0, 1, 2):
        raise DomainError("moment order l must be 0, 1, or 2")
    p_arr = np.asarray(p, dtype=float)
    scalar = p_arr.ndim == 0
    p_arr = p_arr.reshape(1) if scalar else p_arr
    _check_finite(k, "transform momenta", p_arr)

    if profile.analytic_moment is not None:
        out = np.asarray(profile.analytic_moment(l, p_arr, k), dtype=complex)
        return out[0] if scalar else out

    out = _sampled_transform(profile, k, "moments", l, p_arr.ravel(), transform_samples_1d)
    return out[0] if scalar else out.reshape(p_arr.shape)


def _convolution_moment(profile, p, k):
    """F[C](p), the transverse transform of the "convolution" samples C(y).

    By Fubini it is the simplex term of the third-order kernel,
    INT_0^1 dx2 INT_0^x2 dx1 (x2 - x1) Q(x1, x2, p), where Q is the
    transverse transform of w(x1, y) w(x2, y); C is sampled from ``eval``
    (for an axially uniform w, C = w^2 / 6) and transformed like m_l.
    """
    p_arr = np.asarray(p, dtype=float)
    _check_finite(k, "transform momenta", p_arr)
    out = _sampled_transform(profile, k, "convolution", "C", p_arr.ravel(), transform_samples_1d)
    return out.reshape(p_arr.shape) if p_arr.ndim else out[0]


def moment_3d(profile, l, pvec, k):
    """3D transform moment m_l(p_vec; k); p_vec is (p1, p2) or an (m, 2) array.

    A closed ``analytic_moment`` is used if present; else samples on a
    square transverse mesh are transformed: the coarsest mesh, from 65^2
    points up to the cap's (sample_count + 1)^2, whose transforms have
    decayed and whose band holds the momentum (see _moment_samples).
    Momenta or a k that are not finite raise DomainError on either route.
    """
    if l not in (0, 1):
        raise DomainError("3D moment order l must be 0 or 1")
    pv = np.asarray(pvec, dtype=float)
    single = pv.ndim == 1
    pv = np.atleast_2d(pv)
    _check_finite(k, "transform momenta", pv)

    if profile.analytic_moment is not None:
        out = np.asarray(profile.analytic_moment(l, pv[:, 0], pv[:, 1], k), dtype=complex)
        return out[0] if single else out

    out = _sampled_transform(profile, k, "moments", l, pv, transform_samples_2d)
    return out[0] if single else out


def spatial_moment_y(profile, l, y, k):
    """Spatial moment w_l(y; k) = INT_0^1 x_frac^l w(x_frac, y; k) dx_frac.

    By _spatial_moments: a closed ``moment_y`` is used if present; without
    one ``eval`` at every requested y is one call of the axial sampler, for
    order l alone, from the declared axial breaks.  It meets 1e-9 of the
    largest |w_l| over the requested y, not a tolerance per point, and a jump
    whose position moves with y, which no shared partition resolves, raises
    AccuracyError.  A y or a k that is not finite raises DomainError on either
    route.
    """
    if l not in (0, 1, 2):
        raise DomainError("spatial moment order l must be 0, 1, or 2")
    scalar = np.isscalar(y) or np.asarray(y).ndim == 0
    y_arr = np.atleast_1d(np.asarray(y, dtype=float))
    _check_finite(k, "y", y_arr)
    out = _spatial_moments(profile, y_arr, k, (l,))[l]
    return out[0] if scalar else out


# ---------------------------------------------------------------------------
# catalog profiles
# ---------------------------------------------------------------------------


def _separable_2d(
    axial, a_l, transverse, transverse_transform, decay_radius, descriptor, breaks=()
):
    """Profile2D of w(x_frac, y) = a(x_frac) g(y), given its a_l for l = 0, 1, 2.

    Every moment closes through a_l = INT_0^1 x_frac^l a dx_frac: w_l = a_l g(y),
    and with the transverse transform g~ also m_l = a_l g~(p).  ``breaks`` are
    the x_frac where a kinks or jumps.
    """

    def w_eval(x_frac, y, k):
        x_frac, y = np.broadcast_arrays(
            np.asarray(x_frac, dtype=float), np.asarray(y, dtype=float)
        )
        vals = np.asarray(axial(x_frac), dtype=complex) * np.asarray(
            transverse(y), dtype=complex
        )
        return np.where(_unit_mask(x_frac), vals, 0.0)

    analytic_moment = None
    if transverse_transform is not None:
        analytic_moment = lambda l, p, k: a_l[l] * np.asarray(
            transverse_transform(p), dtype=complex
        )

    def w_moment_y(y, k):
        g = np.asarray(transverse(y), dtype=complex)
        return tuple(a * g for a in a_l)

    return Profile2D(
        eval=w_eval,
        decay_radius=float(decay_radius),
        descriptor=descriptor,
        analytic_moment=analytic_moment,
        moment_y=w_moment_y,
        _axial_breaks=tuple(breaks),
    )


# a = 1 and a_l = 1 / (l + 1) for a slab with no axial variation
_uniform = lambda x_frac: 1.0
_uniform_moments = tuple(1.0 / (l + 1.0) for l in (0, 1, 2))


def _decay_radius(L, widths):
    """The decay radius widths * L that a builder derives from its width L.

    An L that is not positive and finite, or one whose radius overflows,
    raises DomainError naming L.
    """
    _positive_finite(L, "L")
    if widths * L == np.inf:
        raise DomainError(f"L = {L:g} is too large: the decay radius {widths:g} * L overflows")
    return widths * L


def ex1_profile(z, alpha, L):
    """Slab with w(x_frac, y) = z e^{i alpha y} / (y/L + i)^2.

    Its transverse transform is one-sided in momentum:
    w~(p) = 2 pi z L^2 (alpha - p) e^{L(alpha - p)} for p >= alpha, else 0,
    which is what makes the profile exactly solvable at low frequency.
    """
    z = complex(z)
    alpha = float(alpha)
    L = float(L)
    _finite((z, alpha), "z and alpha")
    radius = _decay_radius(L, 2000.0)

    def g(y):
        y = np.asarray(y, dtype=float)
        return z * np.exp(1j * alpha * y) / (y / L + 1j) ** 2

    def g_hat(p):
        p = np.asarray(p, dtype=float)
        out = np.zeros(p.shape, dtype=complex)
        m = p >= alpha
        out[m] = 2.0 * np.pi * z * L * L * (alpha - p[m]) * np.exp(L * (alpha - p[m]))
        return out

    return _separable_2d(
        _uniform, _uniform_moments, g, g_hat, radius, f"ex1(z={z}, alpha={alpha}, L={L})"
    )


def gaussian_slab_2d(z, L):
    """Slab with w(x_frac, y) = z e^{-y^2 / 2 L^2} (no axial variation)."""
    z = complex(z)
    L = float(L)
    _finite(z, "z")
    radius = _decay_radius(L, 12.0)

    def g(y):
        return z * np.exp(-0.5 * (np.asarray(y, dtype=float) / L) ** 2)

    def g_hat(p):
        p = np.asarray(p, dtype=float)
        return z * np.sqrt(2.0 * np.pi) * L * np.exp(-0.5 * (L * p) ** 2)

    return _separable_2d(
        _uniform, _uniform_moments, g, g_hat, radius, f"gaussian2d(z={z}, L={L})"
    )


def gaussian_slab_3d(z, L):
    """3D slab with w(r1, r2, z_frac) = z e^{-(r1^2 + r2^2) / 2 L^2}."""
    z = complex(z)
    L = float(L)
    _finite(z, "z")
    radius = _decay_radius(L, 12.0)

    def w_eval(r1, r2, z_frac, k):
        r1, r2, z_frac = np.broadcast_arrays(
            np.asarray(r1, dtype=float),
            np.asarray(r2, dtype=float),
            np.asarray(z_frac, dtype=float),
        )
        g = z * np.exp(-0.5 * (r1 * r1 + r2 * r2) / (L * L))
        return np.where(_unit_mask(z_frac), g, 0.0)

    def w_moment(l, p1, p2, k):
        p1 = np.asarray(p1, dtype=float)
        p2 = np.asarray(p2, dtype=float)
        return (
            2.0 * np.pi * z * L * L * np.exp(-0.5 * L * L * (p1 * p1 + p2 * p2)) / (l + 1.0)
        )

    return Profile3D(
        eval=w_eval,
        decay_radius=radius,
        descriptor=f"gaussian3d(z={z}, L={L})",
        analytic_moment=w_moment,
    )


def separable_profile(
    axial,
    transverse,
    decay_radius,
    transverse_transform=None,
    descriptor="separable",
):
    """Profile w(x_frac, y) = axial(x_frac) * transverse(y).

    The axial moments a_l = INT_0^1 x_frac^l axial dx_frac (l = 0, 1, 2) come
    from one axial sampler call when the profile is built; a closed
    transverse transform upgrades it to fully analytic moments.
    """
    a = _integrate_moments(lambda xf: np.asarray(axial(xf), dtype=complex), (0, 1, 2))
    return _separable_2d(axial, a, transverse, transverse_transform, decay_radius, descriptor)


def layered_profile(
    boundaries,
    values,
    transverse,
    decay_radius,
    transverse_transform=None,
    descriptor="layered",
):
    """Piecewise-constant axial factor times a transverse factor.

    ``boundaries`` is an increasing sequence in [0, 1] with len(values) + 1
    entries; layer i takes the constant ``values[i]`` on
    [boundaries[i], boundaries[i+1]).  Axial moments are exact closed forms.
    """
    b = np.asarray(boundaries, dtype=float)
    v = np.asarray(values, dtype=complex)
    if b.ndim != 1 or v.ndim != 1 or b.size != v.size + 1:
        raise DomainError("boundaries must have exactly one more entry than values")
    _finite(np.concatenate((b, v)), "boundaries and values")
    if np.any(np.diff(b) < 0) or b[0] < 0 or b[-1] > 1:
        raise DomainError("boundaries must increase within [0, 1]")

    def axial(x_frac):
        x_frac = np.asarray(x_frac, dtype=float)
        idx = np.clip(np.searchsorted(b, x_frac, side="right") - 1, 0, v.size - 1)
        out = v[idx]
        inside = (x_frac >= b[0]) & (x_frac <= b[-1])
        return np.where(inside, out, 0.0)

    a_l = [np.sum(v * (b[1:] ** (l + 1) - b[:-1] ** (l + 1))) / (l + 1.0) for l in (0, 1, 2)]
    return _separable_2d(axial, a_l, transverse, transverse_transform, decay_radius, descriptor, b)


def sampled_profile(x_nodes, y_nodes, values, decay_radius, descriptor="sampled"):
    """Bilinear interpolation of tabulated w on a rectangular (x_frac, y) grid.

    Outside the tabulated rectangle the profile is zero.  This is the
    interchange format for externally defined profiles.  Each axis needs at
    least two finite nodes, strictly increasing or strictly decreasing, and
    the values must be finite; anything else raises DomainError.
    """
    x_nodes = np.asarray(x_nodes, dtype=float)
    y_nodes = np.asarray(y_nodes, dtype=float)
    values = np.asarray(values, dtype=complex)
    if values.shape != (x_nodes.size, y_nodes.size):
        raise DomainError("values must have shape (len(x_nodes), len(y_nodes))")
    monotonic = lambda steps: (steps > 0).all() or (steps < 0).all()
    for name, nodes in (("x_nodes", x_nodes), ("y_nodes", y_nodes)):
        row = nodes.ndim == 1 and nodes.size >= 2 and np.isfinite(nodes).all()
        if not (row and monotonic(np.diff(nodes))):
            raise DomainError(
                f"{name} must be a row of two or more finite, strictly monotonic nodes"
            )
    _finite(values, "values")
    # the interpolant reads both axes in increasing order
    if x_nodes[0] > x_nodes[-1]:
        x_nodes, values = x_nodes[::-1], values[::-1]
    if y_nodes[0] > y_nodes[-1]:
        y_nodes, values = y_nodes[::-1], values[:, ::-1]
    cells = x_nodes.size - 1

    def w_eval(x_frac, y, k):
        # per x cell the table touches: its two rows interpolated in y (zero
        # outside the nodes), blended linearly in x
        x_frac, y = np.broadcast_arrays(
            np.asarray(x_frac, dtype=float), np.asarray(y, dtype=float)
        )
        out = np.zeros(x_frac.shape, dtype=complex)
        inside = _unit_mask(x_frac)
        reach = (x_frac.min(initial=np.inf), x_frac.max(initial=-np.inf))
        first, last = np.searchsorted(x_nodes, reach, side="right")
        for i in range(max(first - 1, 0), min(last, cells)):
            x0, x1 = x_nodes[i], x_nodes[i + 1]
            take = inside & (x_frac >= x0) & (x_frac <= x1)
            t = (x_frac[take] - x0) / (x1 - x0)
            row0, row1 = (
                np.interp(y[take], y_nodes, values[j], left=0.0, right=0.0) for j in (i, i + 1)
            )
            out[take] = row0 + t * (row1 - row0)
        return out

    return Profile2D(
        eval=w_eval,
        decay_radius=float(decay_radius),
        descriptor=descriptor,
        _axial_breaks=tuple(x_nodes),  # the interpolant kinks there
    )


def coated_profile(slab, geometry, z1, z2):
    """Wrap a bare slab with two homogeneous coating layers.

    The coated slab occupies [0, ell_c]: the bare profile on [0, ell], the
    first layer (permittivity 1 + z1) on a further thickness ell1(y), the
    second (1 + z2) on ell2(y), and vacuum up to ell_c.  The result is a
    CoatedProfile2D in the coordinate rescaled by ell_c that carries the
    geometry, names both contrasts in its descriptor, and samples on the
    bare slab's transverse grid.

    ``geometry`` must provide ell (bare thickness), ell_c and a callable
    thicknesses(y) returning (ell1, ell2); a geometry whose extent
    ell + ell1 + ell2 exceeds ell_c at any requested y raises a DomainError
    when those y are evaluated.  Its ``moment_y`` evaluates the layer bounds
    once and takes the bare slab's w_0, w_1, w_2 together: from the bare
    slab's own ``moment_y``, or else from one axial sampler call.
    """
    z1 = complex(z1)
    z2 = complex(z2)
    _finite((z1, z2), "z1 and z2")
    ell = float(geometry.ell)
    ell_c = float(geometry.ell_c)
    if ell <= 0 or ell_c < ell:
        raise DomainError("geometry must satisfy 0 < ell <= ell_c")

    def layer_bounds(y):
        l1, l2 = (np.asarray(t, dtype=float) for t in geometry.thicknesses(y))
        extent = ell + l1 + l2
        if np.any(extent > ell_c * (1.0 + 1e-12)):
            raise DomainError(
                "coating extent exceeds ell_c at some of the requested y"
            )
        return l1, l2

    def w_eval(x_frac, y, k):
        x_frac, y = np.broadcast_arrays(
            np.asarray(x_frac, dtype=float), np.asarray(y, dtype=float)
        )
        l1, l2 = layer_bounds(y)
        x = x_frac * ell_c
        out = np.zeros(np.broadcast(x, l1).shape, dtype=complex)
        in_bare = (x_frac >= 0.0) & (x <= ell)
        out = np.where(in_bare, np.asarray(slab.eval(x / ell, y, k), dtype=complex), out)
        out = np.where((x > ell) & (x <= ell + l1), z1, out)
        out = np.where((x > ell + l1) & (x <= ell + l1 + l2), z2, out)
        return np.where(_unit_mask(x_frac), out, 0.0)

    def w_moment_y(y, k):
        # branch-wise: exact power integrals over the homogeneous layers plus
        # the bare slab's own axial moments, all in physical x before rescaling
        l1, l2 = layer_bounds(y)
        a = ell
        b = ell + l1
        c = ell + l1 + l2
        bare = _spatial_moments(slab, y, k, (0, 1, 2))
        return tuple(
            (
                ell ** (l + 1) * bare[l]
                + z1 * (b ** (l + 1) - a ** (l + 1)) / (l + 1.0)
                + z2 * (c ** (l + 1) - b ** (l + 1)) / (l + 1.0)
            )
            / ell_c ** (l + 1)
            for l in (0, 1, 2)
        )

    return CoatedProfile2D(
        eval=w_eval,
        decay_radius=slab.decay_radius,
        sample_count=slab.sample_count,
        descriptor=f"coated({slab.descriptor}; z1={z1}, z2={z2})",
        moment_y=w_moment_y,
        geometry=geometry,
    )


# name -> (builder, dimension, {parameter: complex or float}); the parameters
# are the builder's keyword arguments, and a float one takes no [re, im] pair
CATALOG = {
    "ex1": (ex1_profile, "2d", {"z": complex, "alpha": float, "L": float}),
    "gaussian2d": (gaussian_slab_2d, "2d", {"z": complex, "L": float}),
    "gaussian3d": (gaussian_slab_3d, "3d", {"z": complex, "L": float}),
    "uniform1d": (constant_slab_1d, "1d", {"n": complex}),
}


def profile_from_dict(data):
    """Build a catalog profile from ``{"catalog": <name>, <param>: value, ...}``.

    CATALOG lists each name's parameters, complex or real; only a complex one
    may be written as an ``[re, im]`` pair.  Data that is not a dict, unknown
    names, missing parameters and values of the wrong kind (a pair or a
    complex number for a real parameter) raise a DomainError.
    """
    if not isinstance(data, dict):
        raise DomainError(f"profile data must be a dict, not {type(data).__name__}")
    name = data.get("catalog")
    if name not in CATALOG:
        raise DomainError(f"unknown profile catalog {name!r}; available: {sorted(CATALOG)}")
    builder, _, kinds = CATALOG[name]
    missing = [key for key in kinds if key not in data]
    if missing:
        raise DomainError(f"catalog {name} requires {', '.join(missing)}")

    def number(value, kind=numbers.Number):
        return isinstance(value, kind) and not isinstance(value, bool)

    params = {}
    for key, kind in kinds.items():
        value = data[key]
        pair = isinstance(value, (list, tuple)) and len(value) == 2
        if kind is float and not number(value, numbers.Real):
            raise DomainError(f"catalog {name}: {key} must be a real number")
        if pair and all(number(part, numbers.Real) for part in value):
            value = complex(*value)
        elif not number(value):
            raise DomainError(f"catalog {name}: {key} must be a number or an [re, im] pair")
        params[key] = value
    return builder(**params)
