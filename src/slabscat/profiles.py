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
of separable_profile.  Its first panels end where the profile declares an
axial kink or jump (the x nodes of a sampled profile, the boundaries of a
layered one).  Nested, it gives the simplex convolution C(y) of w with itself
that the third-order kernel needs (see _convolution_moment).  A profile the
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

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from .dyson1d import constant_slab_1d
from .numerics import (
    DomainError,
    TransformSpec,
    _integrate_moments,
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

    * analytic_transform(x_frac, p, k): transverse Fourier transform,
      broadcasting x_frac against p,
    * analytic_moment(l, p, k): transform moment m_l(p; k), vectorized in p,
    * moment_y(y, k): the spatial moments (w_0, w_1, w_2)(y; k) in one call,
      each shaped like y.

    Each closed-form builder here makes a w = a(x_frac) g(y) through one
    constructor.  Moments without a closed form are sampled on the
    profile's transverse grid: ``sample_count`` uniform panels (a power of
    two) on [-decay_radius, decay_radius], a radius that bounds the support
    well enough for transforms truncated there to pass the edge-decay check.
    With ``k_dependent`` False (the default) samples taken at one k are
    reused at every k.  A profile is frozen (assigning to a field raises
    FrozenInstanceError); ``dataclasses.replace`` derives a variant with a
    cache of its own: ``analytic_moment=None, moment_y=None`` for the
    sampled route, another ``sample_count``, or a wrapped ``eval``.
    """

    eval: Callable
    decay_radius: float
    descriptor: str = ""
    analytic_transform: Optional[Callable] = None
    analytic_moment: Optional[Callable] = None
    moment_y: Optional[Callable] = None
    k_dependent: bool = False
    sample_count: int = 65536
    # interior x_frac where eval may kink or jump, set by the builders that
    # know them; the axial sampler starts its panels there
    _axial_breaks: tuple = field(default=(), repr=False)
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        _check_grid(self)


# 3D moments sample a (sample_count + 1)^2 mesh, so their grid is coarser
_MAX_SAMPLES_3D = 4096


@dataclass(frozen=True)
class Profile3D:
    """A 3D slab profile w(r1, r2, z_frac; k); see Profile2D for semantics.

    ``eval`` takes (r1, r2, z_frac, k); ``analytic_moment`` takes
    (l, p1, p2, k).  The sampled route takes a (sample_count + 1)^2 mesh on
    [-decay_radius, decay_radius]^2, so ``sample_count`` is at most 4096.
    Like a Profile2D it is frozen, reuses samples at every k unless
    ``k_dependent``, and is varied by ``dataclasses.replace``.
    """

    eval: Callable
    decay_radius: float
    descriptor: str = ""
    analytic_moment: Optional[Callable] = None
    k_dependent: bool = False
    sample_count: int = 1024
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        _check_grid(self, _MAX_SAMPLES_3D)


@dataclass(frozen=True, kw_only=True)
class CoatedProfile2D(Profile2D):
    """A bare slab wrapped in two homogeneous coating layers; see coated_profile."""

    bare: Profile2D
    geometry: "BilayerGeometry"
    z1: complex
    z2: complex


def _check_grid(profile, max_samples=None):
    """Refuse a transverse grid the sampled route cannot use."""
    TransformSpec(profile.decay_radius, profile.sample_count)  # R > 0, a power of two
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


def _moment_samples(profile, k, route="moments"):
    """Spatial moment samples on the profile's transverse grid, cached per route.

    The "moments" route samples m_l for l = 0, 1, 2 of a 2D profile on the
    1-D y grid, by _spatial_moments (closed or sampled), and for l = 0, 1 of
    a 3D profile on the r1 x r2 mesh, by the axial sampler.  The
    "convolution" route samples a 2D profile's

        C(y) = INT_0^1 dx2 x2^2 w(x2, y) INT_0^1 dt (1 - t) w(x2 t, y)

    under the key "C", by the same sampler nested: over x2 from the declared
    breaks, and at each x2 over t from the breaks b/x2 with b < x2.
    """
    key = (route, float(k) if profile.k_dependent else None)
    if key in profile._cache:
        return profile._cache[key]
    r = np.linspace(-profile.decay_radius, profile.decay_radius, profile.sample_count + 1)

    if isinstance(profile, Profile3D):
        r1, r2 = np.meshgrid(r, r, indexing="ij")
        layer = lambda zf: profile.eval(r1, r2, zf, k)
        moments = dict(zip((0, 1), _integrate_moments(layer, (0, 1))))
    elif route == "moments":
        moments = _spatial_moments(profile, r, k, (0, 1, 2))
    else:
        breaks = profile._axial_breaks
        w_row = lambda xf: profile.eval(xf, r, k)

        def layer(x2):
            # INT_0^1 dt (1 - t) w(x2 t, y), from the breaks below x2
            t_breaks = [b / x2 for b in breaks if b < x2]
            tail = lambda t: (1.0 - t) * w_row(x2 * t)
            return _integrate_moments(tail, (0,), t_breaks)[0] * w_row(x2)

        moments = {"C": _integrate_moments(layer, (2,), breaks)[0]}
    # complex copies owning their data, which transform_samples_1d caches
    samples = {name: np.array(row, dtype=complex) for name, row in moments.items()}

    # a moment that is uniformly negligible against the largest one (e.g. a
    # coating that nulls it to rounding level) has nothing left to truncate;
    # a non-finite one is checked whatever the others, and fails the check
    peaks = {l: np.max(np.abs(vals)) for l, vals in samples.items()}
    overall = max(peaks.values(), default=0.0)
    for l, vals in samples.items():
        if not np.isfinite(peaks[l]) or peaks[l] > 1e-9 * overall:
            check_edge_decay(vals, "profile moment")
        # read-only, so transform_samples_1d may cache its fine-grid bins
        vals.setflags(write=False)
    profile._cache[key] = samples
    return samples


def moment_2d(profile, l, p, k):
    """Transform moment m_l(p; k) = INT_0^1 x_frac^l w~(x_frac, p; k) dx_frac.

    Parameters
    ----------
    profile : Profile2D
    l : int in {0, 1, 2}
    p : float or 1D ndarray
        Transverse momentum (vectorized).
    k : float
        Wavenumber (enters only through k-dependent profiles).

    Returns
    -------
    complex, or ndarray of complex when p is an array

    A closed ``analytic_moment`` is used if present; else the spatial
    moments on the profile's transverse grid (see _spatial_moments: its
    ``moment_y``, or ``eval`` integrated over x_frac, which raises
    AccuracyError if the axial sampler cannot resolve the profile within its
    budget) are transformed.  Samples that are not finite raise
    AccuracyError, and an error ``moment_y`` or ``eval`` raises propagates.
    """
    if l not in (0, 1, 2):
        raise DomainError("moment order l must be 0, 1, or 2")
    scalar = np.isscalar(p) or np.asarray(p).ndim == 0
    p_arr = np.atleast_1d(np.asarray(p, dtype=float))

    if profile.analytic_moment is not None:
        out = np.asarray(profile.analytic_moment(l, p_arr, k), dtype=complex)
        return out[0] if scalar else out

    samples = _moment_samples(profile, k)
    out = transform_samples_1d(samples[l], profile.decay_radius, p_arr)
    return out[0] if scalar else out


def _convolution_moment(profile, p, k):
    """F[C](p), the transverse transform of the "convolution" samples C(y).

    By Fubini it is the simplex term of the third-order kernel,
    INT_0^1 dx2 INT_0^x2 dx1 (x2 - x1) Q(x1, x2, p), where Q is the
    transverse transform of w(x1, y) w(x2, y); C is sampled from ``eval``
    (for an axially uniform w, C = w^2 / 6) and transformed like m_l.
    """
    samples = _moment_samples(profile, k, route="convolution")
    return transform_samples_1d(samples["C"], profile.decay_radius, p)


def moment_3d(profile, l, pvec, k):
    """3D transform moment m_l(p_vec; k); p_vec is (p1, p2) or an (m, 2) array.

    A closed ``analytic_moment`` is used if present; else samples on the
    profile's (sample_count + 1)^2 transverse mesh are transformed.
    """
    if l not in (0, 1):
        raise DomainError("3D moment order l must be 0 or 1")
    pv = np.atleast_2d(np.asarray(pvec, dtype=float))
    single = np.asarray(pvec).ndim == 1

    if profile.analytic_moment is not None:
        out = np.asarray(profile.analytic_moment(l, pv[:, 0], pv[:, 1], k), dtype=complex)
        return out[0] if single else out

    samples = _moment_samples(profile, k)
    out = transform_samples_2d(samples[l], profile.decay_radius, pv)
    return out[0] if single else out


def spatial_moment_y(profile, l, y, k):
    """Spatial moment w_l(y; k) = INT_0^1 x_frac^l w(x_frac, y; k) dx_frac.

    By _spatial_moments: a closed ``moment_y`` is used if present; without
    one ``eval`` at every requested y is one call of the axial sampler, for
    order l alone, from the declared axial breaks.  It meets 1e-9 of the
    largest |w_l| over the requested y, not a tolerance per point, and a jump
    whose position moves with y, which no shared partition resolves, raises
    AccuracyError.
    """
    if l not in (0, 1, 2):
        raise DomainError("spatial moment order l must be 0, 1, or 2")
    scalar = np.isscalar(y) or np.asarray(y).ndim == 0
    y_arr = np.atleast_1d(np.asarray(y, dtype=float))
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
    and with the transverse transform g~ also w~ = a(x_frac) g~(p) and
    m_l = a_l g~(p).  ``breaks`` are the x_frac where a kinks or jumps.
    """

    def w_eval(x_frac, y, k):
        x_frac, y = np.broadcast_arrays(
            np.asarray(x_frac, dtype=float), np.asarray(y, dtype=float)
        )
        vals = np.asarray(axial(x_frac), dtype=complex) * np.asarray(
            transverse(y), dtype=complex
        )
        return np.where(_unit_mask(x_frac), vals, 0.0)

    closed = {}
    if transverse_transform is not None:
        def w_transform(x_frac, p, k):
            x_frac, p = np.broadcast_arrays(
                np.asarray(x_frac, dtype=float), np.asarray(p, dtype=float)
            )
            vals = np.asarray(axial(x_frac), dtype=complex) * np.asarray(
                transverse_transform(p), dtype=complex
            )
            return np.where(_unit_mask(x_frac), vals, 0.0)

        closed["analytic_transform"] = w_transform
        closed["analytic_moment"] = lambda l, p, k: a_l[l] * np.asarray(
            transverse_transform(p), dtype=complex
        )

    def w_moment_y(y, k):
        g = np.asarray(transverse(y), dtype=complex)
        return tuple(a * g for a in a_l)

    return Profile2D(
        eval=w_eval,
        decay_radius=float(decay_radius),
        descriptor=descriptor,
        moment_y=w_moment_y,
        _axial_breaks=tuple(breaks),
        **closed,
    )


# a = 1 and a_l = 1 / (l + 1) for a slab with no axial variation
_uniform = lambda x_frac: 1.0
_uniform_moments = tuple(1.0 / (l + 1.0) for l in (0, 1, 2))


def ex1_profile(z, alpha, L):
    """Slab with w(x_frac, y) = z e^{i alpha y} / (y/L + i)^2.

    Its transverse transform is one-sided in momentum:
    w~(p) = 2 pi z L^2 (alpha - p) e^{L(alpha - p)} for p >= alpha, else 0,
    which is what makes the profile exactly solvable at low frequency.
    """
    z = complex(z)
    alpha = float(alpha)
    L = float(L)
    if L <= 0:
        raise DomainError("L must be positive")

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
        _uniform, _uniform_moments, g, g_hat, 2000.0 * L, f"ex1(z={z}, alpha={alpha}, L={L})"
    )


def gaussian_slab_2d(z, L):
    """Slab with w(x_frac, y) = z e^{-y^2 / 2 L^2} (no axial variation)."""
    z = complex(z)
    L = float(L)
    if L <= 0:
        raise DomainError("L must be positive")

    def g(y):
        return z * np.exp(-0.5 * (np.asarray(y, dtype=float) / L) ** 2)

    def g_hat(p):
        p = np.asarray(p, dtype=float)
        return z * np.sqrt(2.0 * np.pi) * L * np.exp(-0.5 * (L * p) ** 2)

    return _separable_2d(
        _uniform, _uniform_moments, g, g_hat, 12.0 * L, f"gaussian2d(z={z}, L={L})"
    )


def gaussian_slab_3d(z, L):
    """3D slab with w(r1, r2, z_frac) = z e^{-(r1^2 + r2^2) / 2 L^2}."""
    z = complex(z)
    L = float(L)
    if L <= 0:
        raise DomainError("L must be positive")

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
        decay_radius=12.0 * L,
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
    interchange format for externally defined profiles.
    """
    from scipy.interpolate import RegularGridInterpolator

    x_nodes = np.asarray(x_nodes, dtype=float)
    y_nodes = np.asarray(y_nodes, dtype=float)
    values = np.asarray(values, dtype=complex)
    if values.shape != (x_nodes.size, y_nodes.size):
        raise DomainError("values must have shape (len(x_nodes), len(y_nodes))")
    interp = RegularGridInterpolator(
        (x_nodes, y_nodes), values, method="linear", bounds_error=False, fill_value=0.0
    )

    def w_eval(x_frac, y, k):
        x_frac, y = np.broadcast_arrays(
            np.asarray(x_frac, dtype=float), np.asarray(y, dtype=float)
        )
        pts = np.stack([x_frac.ravel(), y.ravel()], axis=-1)
        out = interp(pts).reshape(x_frac.shape)
        return np.where(_unit_mask(x_frac), out, 0.0)

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
    CoatedProfile2D in the coordinate rescaled by ell_c that also carries
    the bare slab, the geometry and both contrasts, and samples on the bare
    slab's transverse grid.

    ``geometry`` must provide ell (bare thickness), callables ell1/ell2 of y,
    and ell_c; a geometry whose extent ell + ell1 + ell2 exceeds ell_c at any
    requested y raises a DomainError.  Its ``moment_y`` evaluates the layer
    bounds once and takes the bare slab's w_0, w_1, w_2 together: from the
    bare slab's own ``moment_y``, or else from one axial sampler call.
    """
    z1 = complex(z1)
    z2 = complex(z2)
    ell = float(geometry.ell)
    ell_c = float(geometry.ell_c)
    if ell <= 0 or ell_c < ell:
        raise DomainError("geometry must satisfy 0 < ell <= ell_c")
    max_extent = getattr(geometry, "max_extent", None)
    if max_extent is not None and max_extent > ell_c * (1.0 + 1e-12):
        raise DomainError(
            f"coating extent {max_extent:.6g} exceeds ell_c = {ell_c:.6g}"
        )

    def layer_bounds(y):
        l1 = np.asarray(geometry.ell1(y), dtype=float)
        l2 = np.asarray(geometry.ell2(y), dtype=float)
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
        k_dependent=slab.k_dependent,
        bare=slab,
        geometry=geometry,
        z1=z1,
        z2=z2,
    )


# name -> (builder, dimension, parameter names); the names are the builder's
# keyword arguments
CATALOG = {
    "ex1": (ex1_profile, "2d", ("z", "alpha", "L")),
    "gaussian2d": (gaussian_slab_2d, "2d", ("z", "L")),
    "gaussian3d": (gaussian_slab_3d, "3d", ("z", "L")),
    "uniform1d": (constant_slab_1d, "1d", ("n",)),
}


def profile_from_dict(data):
    """Build a catalog profile from ``{"catalog": <name>, <param>: value, ...}``.

    The parameters of each name are listed in CATALOG; complex ones may be
    written as ``[re, im]`` pairs.  Unknown names and missing parameters
    raise a DomainError.
    """
    name = data.get("catalog")
    if name not in CATALOG:
        raise DomainError(f"unknown profile catalog {name!r}; available: {sorted(CATALOG)}")
    builder, _, names = CATALOG[name]
    missing = [key for key in names if key not in data]
    if missing:
        raise DomainError(f"catalog {name} requires {', '.join(missing)}")
    params = {
        key: complex(*data[key]) if isinstance(data[key], (list, tuple)) else data[key]
        for key in names
    }
    return builder(**params)
