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

import cmath
import json
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .amp2d import ScatteringConfig2D, f1_2d, f2_2d
from .numerics import DomainError
from .profiles import CoatedProfile2D

__all__ = [
    "InfeasibleDesignError",
    "CoatingMaterials",
    "SlabMomentPair",
    "BilayerGeometry",
    "InvisibilityReport",
    "design_bilayer",
    "design_geometry",
    "verify_invisibility",
    "export_geometry",
]

_IMAG_TOL = 1e-12
_NEG_TOL = 1e-12
# k*ell_c from which design_geometry warns that the low-frequency premise is strained
_KL_WARN = 0.3


class InfeasibleDesignError(DomainError):
    """No real, nonnegative layer thicknesses exist for the requested design."""


@dataclass(frozen=True)
class CoatingMaterials:
    """Permittivity contrasts z = eps - 1 of the two coating layers."""

    z1: complex
    z2: complex

    def __post_init__(self):
        object.__setattr__(self, "z1", complex(self.z1))
        object.__setattr__(self, "z2", complex(self.z2))
        if not (cmath.isfinite(self.z1) and cmath.isfinite(self.z2)):
            raise DomainError("coating contrasts must be finite")
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
    """A designed coating: layer thicknesses over y and the overall extent."""

    ell1: Callable
    ell2: Callable
    ell: float
    ell_c: float
    feasible: bool
    reason: str = ""
    materials: Optional[CoatingMaterials] = None
    y_grid: Optional[np.ndarray] = None
    max_extent: Optional[float] = None


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
    ell1 = np.where(ok, np.clip(ell1c.real, 0.0, None), np.nan)
    fail(
        ell1c.real < -_NEG_TOL * ell,
        "inner thickness comes out negative; the bilayer method is not applicable",
    )
    ell1 = np.where(ok, ell1, np.nan)
    ell2 = np.where(ok, ell2, np.nan)
    return ell1, ell2, ok, why


def design_bilayer(moments, materials, ell, y):
    """Layer thicknesses (ell1, ell2) nulling both moments at one y."""
    if not 0 < ell < np.inf:
        raise DomainError("ell must be positive and finite")
    if not np.isfinite(y):
        raise DomainError("y must be finite")
    w0 = complex(moments.w0bar(y))
    w1 = complex(moments.w1bar(y))
    ell1, ell2, ok, why = _design_arrays(w0, w1, materials.z1, materials.z2, ell)
    if not bool(ok[0]):
        raise InfeasibleDesignError(f"{why} (at y = {y:.6g})")
    return float(ell1[0]), float(ell2[0])


def design_geometry(moments, materials, ell, y_grid, k=None):
    """Design the coating over a y grid and package it as a BilayerGeometry.

    Feasibility is reported per grid: the geometry is feasible only if every
    sampled y admits real nonnegative thicknesses, and ``reason`` names the
    first failing point otherwise.  The thickness callables re-evaluate the
    closed-form design (infeasible y yield NaN).  ell_c is the smallest
    overall extent covering ell + ell1 + ell2 on the grid; when ``k`` is
    given and k*ell_c >= 0.3, a warning flags that the low-frequency
    premise is strained.
    """
    if not 0 < ell < np.inf:
        raise DomainError("ell must be positive and finite")
    y_grid = np.asarray(y_grid, dtype=float)
    if y_grid.ndim != 1 or y_grid.size == 0:
        raise DomainError("y_grid must be a nonempty 1D array")
    if not np.all(np.isfinite(y_grid)):
        raise DomainError("y_grid values must be finite")
    z1, z2 = materials.z1, materials.z2

    def _solve(y):
        y = np.asarray(y, dtype=float)
        scalar = y.ndim == 0
        w0 = np.asarray(moments.w0bar(y), dtype=complex)
        w1 = np.asarray(moments.w1bar(y), dtype=complex)
        ell1, ell2, ok, why = _design_arrays(w0, w1, z1, z2, ell)
        if scalar:
            return ell1[0], ell2[0], ok[0], why
        return ell1, ell2, ok, why

    l1, l2, ok, why = _solve(y_grid)
    feasible = bool(np.all(ok))
    reason = ""
    if not feasible:
        bad = y_grid[np.nonzero(~ok)[0][0]]
        reason = f"{why} (first failing grid point y = {bad:.6g})"
    extent = ell + l1 + l2
    max_extent = float(np.nanmax(extent)) if np.any(ok) else ell
    if k is not None and k * max_extent >= _KL_WARN:
        warnings.warn(
            f"k*ell_c = {k * max_extent:.3g} is not small; the design only "
            "nulls the first two orders in k*ell_c",
            stacklevel=2,
        )
    return BilayerGeometry(
        ell1=lambda y: _solve(y)[0],
        ell2=lambda y: _solve(y)[1],
        ell=float(ell),
        ell_c=max_extent,
        feasible=feasible,
        reason=reason,
        materials=materials,
        y_grid=y_grid,
        max_extent=max_extent,
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
    y_grid = np.asarray(y_grid, dtype=float)
    m0, m1, _ = coated.moment_y(y_grid, k)
    if theta_grid is None:
        theta_grid = np.linspace(0.25, 2.0 * np.pi - 0.25, 10)
    theta_grid = np.asarray(theta_grid, dtype=float)
    config = ScatteringConfig2D(k=k, ell=ell_c, theta0=theta0)
    f1 = np.asarray(f1_2d(coated, config, theta_grid), dtype=complex)
    f2 = np.array([f2_2d(coated, config, t) for t in theta_grid], dtype=complex)
    return InvisibilityReport(
        moment0_max=float(np.max(np.abs(m0))) * ell_c,
        moment1_max=float(np.max(np.abs(m1))) * ell_c**2,
        theta_grid=theta_grid,
        f1=f1,
        f2=f2,
        ell_c=ell_c,
        kl_c=k * ell_c,
    )


def export_geometry(geometry, path):
    """Write the coating outline as CSV (y, ell1, ell2) with a JSON header."""
    if geometry.y_grid is None:
        raise DomainError("geometry carries no sample grid to export")

    def _pair(z):
        return None if z is None else [z.real, z.imag]

    header = {
        "ell": geometry.ell,
        "ell_c": geometry.ell_c,
        "feasible": geometry.feasible,
        "reason": geometry.reason,
        "z1": _pair(geometry.materials.z1 if geometry.materials else None),
        "z2": _pair(geometry.materials.z2 if geometry.materials else None),
    }
    y = geometry.y_grid
    l1 = np.asarray(geometry.ell1(y), dtype=float)
    l2 = np.asarray(geometry.ell2(y), dtype=float)
    path = Path(path)
    lines = ["# " + json.dumps(header, sort_keys=True), "y,ell1,ell2"]
    for yi, a, b in zip(y, l1, l2):
        lines.append("%.17g,%.17g,%.17g" % (yi, a, b))
    path.write_text("\n".join(lines) + "\n")
    return path
