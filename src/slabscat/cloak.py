"""Bilayer coatings that null the low-frequency scattering of a planar slab.

A slab of relative permittivity eps(x, y) = 1 + w(x, y) occupying
0 <= x <= ell scatters nothing at first and second order in k*ell precisely
when both axial moments of the contrast vanish at every transverse position:

    INT_0^ell (eps - 1) dx = 0   and   INT_0^ell x (eps - 1) dx = 0.

A bare slab with nonzero moments ell*w0bar(y) and ell^2*w1bar(y) can
therefore be hidden (to second order) by appending two homogeneous layers of
contrast z1 = eps1 - 1 on (ell, ell + l1] and z2 = eps2 - 1 on
(ell + l1, ell + l1 + l2].  The combined moments vanish when

    z1 l1 + z2 l2 = -ell w0bar,
    z1 l1 (l1 + 2 ell) + z2 l2 (l2 + 2 l1 + 2 ell) = -2 ell^2 w1bar,

whose nonnegative solution is

    l2 = ell sqrt([w0bar^2 + 2 z1 (w1bar - w0bar)] / [z2 (z2 - z1)]),
    l1 = -(z2 l2 + ell w0bar) / z1.

For a profiled slab eps = 1 + z0 g(y) (so w0bar = z0 g and w1bar = z0 g / 2)
the radicand reduces to X = z0 g (z0 g - z1) / (z2 (z2 - z1)), and both
thicknesses are real and nonnegative whenever z1 < 0 < z2.  The design is
per-y and per-k; only real moments admit a design (the verification path
accepts complex contrasts).
"""

import json
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .amp2d import ScatteringConfig2D, _sweep_2d
from .numerics import DomainError, _finite, _positive_finite
from .profiles import CoatedProfile2D

__all__ = [
    "CoatingMaterials",
    "SlabMomentPair",
    "BilayerGeometry",
    "InvisibilityReport",
    "design_geometry",
    "verify_invisibility",
    "export_geometry",
]

_IMAG_TOL = 1e-12
_NEG_TOL = 1e-12
# k*ell_c from which design_geometry warns that the low-frequency premise is strained
_KL_WARN = 0.3


@dataclass(frozen=True)
class CoatingMaterials:
    """Permittivity contrasts z = eps - 1 of the two coating layers."""

    z1: complex
    z2: complex

    def __post_init__(self):
        object.__setattr__(self, "z1", complex(self.z1))
        object.__setattr__(self, "z2", complex(self.z2))
        _finite((self.z1, self.z2), "coating contrasts")
        if self.z1 == self.z2:
            raise DomainError("coating contrasts must differ (z1 != z2)")
        if self.z1 == 0:
            raise DomainError("the inner coating contrast must be nonzero")


@dataclass(frozen=True)
class SlabMomentPair:
    """Axial contrast moments of the bare slab as functions of y.

    w0bar(y) = INT_0^1 w dx_frac and w1bar(y) = INT_0^1 x_frac w dx_frac,
    i.e. the values produced by spatial_moment_y.
    """

    w0bar: Callable
    w1bar: Callable


@dataclass(frozen=True)
class BilayerGeometry:
    """A designed coating: the materials, the bare thickness and the extent.

    ``thicknesses(y)`` returns (ell1, ell2), each shaped like y and NaN
    where the design fails, from one closed-form solve.  ``ell_c`` is the
    largest ell + ell1 + ell2 over ``y_grid``; ``feasible`` says whether
    every point of the grid admits a design, and ``reason`` names the
    first that does not.
    """

    thicknesses: Callable
    ell: float
    ell_c: float
    feasible: bool
    reason: str
    materials: CoatingMaterials
    y_grid: np.ndarray


@dataclass(frozen=True)
class InvisibilityReport:
    """Residual moments and amplitudes of a coated slab."""

    moment0_max: float
    moment1_max: float
    theta_grid: np.ndarray
    f1: np.ndarray
    f2: np.ndarray
    ell_c: float
    kl_c: float


def _design_arrays(w0, w1, z1, z2, ell):
    """Vectorized bilayer solve; returns (ell1, ell2, ok, why).

    Invalid points get NaN thicknesses; ``why`` describes the first failure.
    """
    w0 = np.atleast_1d(np.asarray(w0, dtype=complex))
    w1 = np.atleast_1d(np.asarray(w1, dtype=complex))
    why = ""
    ok = np.ones(np.broadcast(w0, w1).shape, dtype=bool)

    def fail(mask, message):
        nonlocal why
        mask = np.broadcast_to(mask, ok.shape)
        if not why and np.any(mask & ok):
            why = message
        ok[mask & ok] = False

    finite = np.isfinite(w0) & np.isfinite(w1)
    fail(~finite, "slab moments must be finite")
    # zeros in their place keep the arithmetic below free of inf - inf
    w0, w1 = np.where(finite, w0, 0.0), np.where(finite, w1, 0.0)
    fail(
        (np.abs(w0.imag) > _IMAG_TOL * (1.0 + np.abs(w0)))
        | (np.abs(w1.imag) > _IMAG_TOL * (1.0 + np.abs(w1))),
        "slab moments must be real-valued for design",
    )
    w0r, w1r = w0.real, w1.real
    rad = (w0r * w0r + 2.0 * z1 * (w1r - w0r)) / (z2 * (z2 - z1))
    fail(
        np.abs(rad.imag) > _IMAG_TOL * (1.0 + np.abs(rad)),
        "square-root argument is not real; the bilayer method is not applicable",
    )
    radr = rad.real
    fail(
        radr < -_NEG_TOL * (1.0 + np.abs(rad)),
        "square-root argument is negative; the bilayer method is not applicable",
    )
    ell2 = ell * np.sqrt(np.where(ok, np.clip(radr, 0.0, None), np.nan))
    ell1c = -(z2 * ell2 + ell * w0r) / z1
    fail(
        np.abs(ell1c.imag) > _IMAG_TOL * (1.0 + np.abs(ell1c)),
        "inner thickness is not real; the bilayer method is not applicable",
    )
    fail(
        ell1c.real < -_NEG_TOL * ell,
        "inner thickness comes out negative; the bilayer method is not applicable",
    )
    ell1 = np.where(ok, np.clip(ell1c.real, 0.0, None), np.nan)
    return ell1, np.where(ok, ell2, np.nan), ok, why


def _y_grid(y_grid):
    """y_grid as a float array; one that is not a nonempty finite 1D grid raises DomainError."""
    y_grid = np.asarray(y_grid, dtype=float)
    if y_grid.ndim != 1 or y_grid.size == 0:
        raise DomainError("y_grid must be a nonempty 1D array")
    _finite(y_grid, "y_grid values")
    return y_grid


def _solve(moments, materials, ell, y):
    """The closed-form design at every y: (ell1, ell2, ok, why), each shaped like y."""
    y = np.asarray(y, dtype=float)
    w0, w1 = (
        np.broadcast_to(np.asarray(w(y), dtype=complex), y.shape)
        for w in (moments.w0bar, moments.w1bar)
    )
    ell1, ell2, ok, why = _design_arrays(w0, w1, materials.z1, materials.z2, ell)
    return ell1.reshape(y.shape), ell2.reshape(y.shape), ok.reshape(y.shape), why


def design_geometry(moments, materials, ell, y_grid, k=None):
    """Design the coating over a y grid and package it as a BilayerGeometry.

    Feasibility is reported per grid: the geometry is feasible only if every
    sampled y admits real nonnegative thicknesses, and ``reason`` names the
    first failing point otherwise.  ``thicknesses(y)`` re-evaluates the
    closed-form design once per call (infeasible y yield NaN).  ell_c is the
    smallest overall extent covering ell + ell1 + ell2 on the grid; when
    ``k`` is given and k*ell_c >= 0.3, a warning flags that the
    low-frequency premise is strained.
    """
    _positive_finite(ell, "ell")
    y_grid = _y_grid(y_grid)
    l1, l2, ok, why = _solve(moments, materials, ell, y_grid)
    bad = y_grid[~ok]
    reason = f"{why} (first failing grid point y = {bad[0]:.6g})" if bad.size else ""
    ell_c = float(np.nanmax(ell + l1 + l2)) if np.any(ok) else ell
    if k is not None and k * ell_c >= _KL_WARN:
        warnings.warn(
            f"k*ell_c = {k * ell_c:.3g} is not small; the design only "
            "nulls the first two orders in k*ell_c",
            stacklevel=2,
        )
    return BilayerGeometry(
        thicknesses=lambda y: _solve(moments, materials, ell, y)[:2],
        ell=float(ell),
        ell_c=ell_c,
        feasible=not bad.size,
        reason=reason,
        materials=materials,
        y_grid=y_grid,
    )


_DEFAULT_THETA0 = 4.0 * np.pi / 3.0


def verify_invisibility(coated, k, y_grid, theta_grid=None, theta0=_DEFAULT_THETA0):
    """Residuals of a coated slab: axial moments over y and f1/f2 over angle.

    ``coated`` must be a CoatedProfile2D, as profiles.coated_profile returns.
    The report carries max_y |INT_0^ell_c (eps_c - 1) dx|,
    max_y |INT_0^ell_c x (eps_c - 1) dx|, and the first two amplitude
    coefficients on the angle grid; a properly designed cloak drives all of
    them to rounding level.
    """
    if not isinstance(coated, CoatedProfile2D):
        raise DomainError("verify_invisibility expects a coated_profile result")
    ell_c = float(coated.geometry.ell_c)
    y_grid = _y_grid(y_grid)
    m0, m1, _ = coated.moment_y(y_grid, k)
    if theta_grid is None:
        theta_grid = np.linspace(0.25, 2.0 * np.pi - 0.25, 10)
    theta_grid = np.asarray(theta_grid, dtype=float)
    config = ScatteringConfig2D(k=k, ell=ell_c, theta0=theta0)
    f1, f2 = _sweep_2d(coated, [config] * theta_grid.size, theta_grid)
    return InvisibilityReport(
        moment0_max=float(np.max(np.abs(m0))) * ell_c,
        moment1_max=float(np.max(np.abs(m1))) * ell_c**2,
        theta_grid=theta_grid,
        f1=np.array(f1, dtype=complex),
        f2=np.array(f2, dtype=complex),
        ell_c=ell_c,
        kl_c=k * ell_c,
    )


def _geometry_header(geometry):
    """A geometry's scalar fields as plain JSON values, for the CSV header and the JSON output."""
    z1, z2 = geometry.materials.z1, geometry.materials.z2
    return {
        "ell": float(geometry.ell),
        "ell_c": float(geometry.ell_c),
        "feasible": bool(geometry.feasible),
        "reason": geometry.reason,
        "z1": [float(z1.real), float(z1.imag)],
        "z2": [float(z2.real), float(z2.imag)],
    }


def export_geometry(geometry, path):
    """Write the coating outline as CSV (y, ell1, ell2) with a JSON header."""
    y = geometry.y_grid
    l1, l2 = geometry.thicknesses(y)
    path = Path(path)
    lines = ["# " + json.dumps(_geometry_header(geometry), sort_keys=True), "y,ell1,ell2"]
    for yi, a, b in zip(y, l1, l2):
        lines.append("%.17g,%.17g,%.17g" % (yi, a, b))
    path.write_text("\n".join(lines) + "\n")
    return path
