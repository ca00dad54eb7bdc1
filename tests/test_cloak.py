"""Tests for the bilayer invisibility design.

The moment equations themselves are the oracle for the designed thicknesses
(exact nulling, checked symbolically on random feasible inputs), the
Gaussian-slab design is pinned against hand-evaluated closed forms, and the
verification path is checked on a fully designed cloak.
"""

import json
import warnings

import numpy as np
import pytest

from slabscat.amp2d import ScatteringConfig2D, amplitude_2d
from slabscat.cloak import (
    BilayerGeometry,
    CoatingMaterials,
    InfeasibleDesignError,
    SlabMomentPair,
    design_bilayer,
    design_geometry,
    export_geometry,
    verify_invisibility,
)
from slabscat.numerics import DomainError
from slabscat.profiles import (
    Profile2D,
    coated_profile,
    gaussian_slab_2d,
    spatial_moment_y,
)

FIG_RATIO = np.sqrt(25.0 / 7.0)  # ell2 / ell for the unit Gaussian design at y=0


def _gaussian_moments(z0, L):
    g = lambda y: np.exp(-np.asarray(y, dtype=float) ** 2 / (2.0 * L * L))
    return SlabMomentPair(w0bar=lambda y: z0 * g(y), w1bar=lambda y: 0.5 * z0 * g(y))


def test_materials_validation():
    with pytest.raises(DomainError):
        CoatingMaterials(z1=0.3, z2=0.3)
    with pytest.raises(DomainError):
        CoatingMaterials(z1=0.0, z2=0.3)
    with pytest.raises(DomainError, match="finite"):
        CoatingMaterials(np.nan, 0.4)
    mats = CoatingMaterials(z1=-1.0, z2=0.4)
    assert mats.z1 == -1.0 + 0j and mats.z2 == 0.4 + 0j


def test_design_trivial_and_pinned_values():
    mats = CoatingMaterials(z1=-1.0, z2=0.4)
    zero = SlabMomentPair(w0bar=lambda y: 0.0, w1bar=lambda y: 0.0)
    assert design_bilayer(zero, mats, 0.37, 0.0) == (0.0, 0.0)

    # unit-amplitude Gaussian profile at its peak: hand-evaluated thicknesses
    ell = 0.37
    moments = _gaussian_moments(1.0, 2.0 * ell)
    l1, l2 = design_bilayer(moments, mats, ell, 0.0)
    assert l2 == pytest.approx(ell * FIG_RATIO, rel=1e-12)
    assert l1 == pytest.approx(ell * (1.0 + 0.4 * FIG_RATIO), rel=1e-12)


def test_design_nulls_the_moment_equations():
    rng = np.random.default_rng(20240815)
    mats = CoatingMaterials(z1=-1.0, z2=0.4)
    ell = 0.8
    for _ in range(50):
        w0 = rng.uniform(0.0, 1.5)
        w1 = rng.uniform(0.0, w0) if w0 > 0 else 0.0
        pair = SlabMomentPair(w0bar=lambda y: w0, w1bar=lambda y: w1)
        l1, l2 = design_bilayer(pair, mats, ell, 0.0)
        assert l1 >= 0.0 and l2 >= 0.0
        r1 = mats.z1 * l1 + mats.z2 * l2 + ell * w0
        r2 = (
            mats.z1 * l1 * (l1 + 2 * ell)
            + mats.z2 * l2 * (l2 + 2 * l1 + 2 * ell)
            + 2 * ell * ell * w1
        )
        assert abs(r1) < 1e-12 * ell * max(1.0, w0)
        assert abs(r2) < 1e-12 * ell * ell * max(1.0, w1)


def test_design_infeasible_paths():
    mats = CoatingMaterials(z1=-1.0, z2=0.4)
    complex_pair = SlabMomentPair(w0bar=lambda y: 0.5 + 0.2j, w1bar=lambda y: 0.25)
    with pytest.raises(DomainError):
        design_bilayer(complex_pair, mats, 1.0, 0.0)
    negative_radicand = SlabMomentPair(w0bar=lambda y: 0.1, w1bar=lambda y: 5.0)
    with pytest.raises(InfeasibleDesignError):
        design_bilayer(negative_radicand, mats, 1.0, 0.0)
    # positive z1 makes the inner thickness negative
    mats_pos = CoatingMaterials(z1=1.0, z2=2.0)
    pair = SlabMomentPair(w0bar=lambda y: 1.0, w1bar=lambda y: 1.0)
    with pytest.raises(InfeasibleDesignError):
        design_bilayer(pair, mats_pos, 1.0, 0.0)
    with pytest.raises(DomainError):
        design_bilayer(pair, mats, -1.0, 0.0)


def test_design_profiled_matches_bilayer():
    # across a profiled slab eps = 1 + z0 g(y) the general solve reduces to
    # the closed form with radicand X = z0 g (z0 g - z1) / (z2 (z2 - z1))
    ell = 0.37
    z0, z1, z2 = 0.8, -0.9, 0.5
    profiled = _gaussian_moments(z0, 2.0 * ell)
    for y in (-1.3, -0.2, 0.0, 0.45, 2.0):
        zg = profiled.w0bar(y)
        X = zg * (zg - z1) / (z2 * (z2 - z1))
        l1, l2 = design_bilayer(profiled, CoatingMaterials(z1=z1, z2=z2), ell, y)
        assert l2 == pytest.approx(ell * np.sqrt(X), rel=1e-12, abs=1e-15)
        assert l1 == pytest.approx(-ell * (z2 * np.sqrt(X) + zg) / z1, rel=1e-12, abs=1e-15)

    # a zero profile needs no coating
    zero = _gaussian_moments(0.0, 2.0 * ell)
    assert design_bilayer(zero, CoatingMaterials(z1=z1, z2=z2), ell, 0.0) == (0.0, 0.0)


def test_geometry_on_the_gaussian_example():
    ell = 1.0
    L = 2.0 * ell
    mats = CoatingMaterials(z1=-1.0, z2=0.4)
    moments = _gaussian_moments(1.0, L)
    y_grid = np.linspace(-8.0 * L, 8.0 * L, 81)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        geom = design_geometry(moments, mats, ell, y_grid, k=0.01)
    assert geom.feasible
    assert geom.reason == ""
    # the overall extent peaks at y = 0: ell_c = ell (2 + sqrt(7))
    assert geom.ell_c == pytest.approx(ell * (2.0 + np.sqrt(7.0)), rel=1e-12)
    l1 = np.asarray(geom.ell1(y_grid))
    l2 = np.asarray(geom.ell2(y_grid))
    assert l1[40] == pytest.approx(ell * (1.0 + 0.4 * FIG_RATIO), rel=1e-12)
    assert l2[40] == pytest.approx(ell * FIG_RATIO, rel=1e-12)
    # thicknesses shrink monotonically away from the peak
    right = slice(40, None)
    assert np.all(np.diff(l1[right]) <= 0)
    assert np.all(np.diff(l2[right]) <= 0)
    assert np.all(np.diff(l1[: 40 + 1]) >= 0)
    assert np.all(np.diff(l2[: 40 + 1]) >= 0)
    assert np.all(l1 >= 0) and np.all(l2 >= 0)

    with pytest.warns(UserWarning):
        design_geometry(moments, mats, ell, y_grid, k=0.1)

    # a positive inner contrast fails wherever the profile is weak
    bad = design_geometry(moments, CoatingMaterials(z1=1.0, z2=2.0), ell, y_grid)
    assert not bad.feasible
    assert bad.reason != ""
    assert np.any(np.isnan(np.asarray(bad.ell1(y_grid))))


def test_design_refuses_non_finite_moments_and_inputs():
    mats = CoatingMaterials(z1=-1.0, z2=0.4)
    ell = 0.4
    good = _gaussian_moments(1.0, 2.0 * ell)
    nan_at_zero = SlabMomentPair(
        w0bar=lambda y: np.where(np.asarray(y) == 0.0, np.nan, good.w0bar(y)),
        w1bar=good.w1bar,
    )
    y_grid = np.array([-1.0, 0.0, 1.0])
    geom = design_geometry(nan_at_zero, mats, ell, y_grid)
    assert not geom.feasible
    assert geom.reason.startswith("slab moments must be finite")
    assert geom.reason.endswith("y = 0)")
    assert np.isnan(geom.ell1(0.0)) and np.isfinite(geom.ell1(1.0))
    with pytest.raises(InfeasibleDesignError, match="slab moments must be finite"):
        design_bilayer(nan_at_zero, mats, ell, 0.0)
    for bad_ell, grid in ((np.inf, y_grid), (ell, [0.0, np.nan, 1.0]), (ell, [0.0, np.inf])):
        with pytest.raises(DomainError, match="finite"):
            design_geometry(good, mats, bad_ell, grid)
    for bad_ell, y in ((np.inf, 0.0), (ell, np.nan)):
        with pytest.raises(DomainError, match="finite"):
            design_bilayer(good, mats, bad_ell, y)


def test_designed_cloak_is_invisible():
    ell = 0.01
    L = 2.0 * ell
    z0 = 0.6
    k = 1.0
    slab = gaussian_slab_2d(z0, L)
    mats = CoatingMaterials(z1=-z0, z2=0.4 * z0)
    moments = _gaussian_moments(z0, L)
    y_grid = np.linspace(-10.0 * L, 10.0 * L, 61)
    # the moment pair used for design agrees with the slab's own moments
    np.testing.assert_allclose(
        moments.w0bar(y_grid), spatial_moment_y(slab, 0, y_grid, k), rtol=1e-12
    )
    np.testing.assert_allclose(
        moments.w1bar(y_grid), spatial_moment_y(slab, 1, y_grid, k), rtol=1e-12
    )
    geom = design_geometry(moments, mats, ell, y_grid, k=k)
    assert geom.feasible
    coated = coated_profile(slab, geom, mats.z1, mats.z2)
    report = verify_invisibility(coated, k, y_grid)
    assert report.kl_c == pytest.approx(k * geom.ell_c)
    assert report.moment0_max < 1e-12 * geom.ell_c * z0
    assert report.moment1_max < 1e-12 * geom.ell_c**2 * z0

    bare_cfg = ScatteringConfig2D(k=k, ell=ell, theta0=4.0 * np.pi / 3.0)
    bare = np.array(
        [
            abs(amplitude_2d(slab, bare_cfg, t).truncated)
            for t in report.theta_grid
        ]
    )
    coated_amp = np.abs(report.f1 * report.kl_c + report.f2 * report.kl_c**2)
    assert np.max(coated_amp) < 1e-8 * np.max(bare)


def test_verify_zero_thickness_and_k_mismatch():
    ell = 0.01
    L = 2.0 * ell
    z0 = 0.6
    slab = gaussian_slab_2d(z0, L)
    zero = lambda y: np.zeros(np.shape(np.asarray(y, dtype=float)))
    geom = BilayerGeometry(
        ell1=zero, ell2=zero, ell=ell, ell_c=ell, feasible=True, max_extent=ell
    )
    coated = coated_profile(slab, geom, -z0, 0.4 * z0)
    report = verify_invisibility(coated, 1.0, np.linspace(-5 * L, 5 * L, 21))
    # nothing is coated, so the residual is the bare slab's own moment
    assert report.moment0_max == pytest.approx(ell * z0, rel=1e-10)
    assert report.moment1_max == pytest.approx(0.5 * ell * ell * z0, rel=1e-10)

    with pytest.raises(DomainError):
        verify_invisibility(slab, 1.0, np.array([0.0]))

    # a dispersive slab designed at k1 is no longer nulled at k2
    def zk(k):
        return 0.5 * k

    g = lambda y: np.exp(-np.asarray(y, dtype=float) ** 2 / (2.0 * L * L))
    disp = Profile2D(
        eval=lambda x, y, k: np.where(
            (np.asarray(x) >= 0) & (np.asarray(x) <= 1), zk(k) * g(y), 0.0
        ),
        decay_radius=12.0 * L,
        moment_y=lambda y, k: tuple(zk(k) * g(y) / (l + 1.0) for l in (0, 1, 2)),
        k_dependent=True,
    )
    k1, k2 = 1.0, 2.0
    moments = _gaussian_moments(zk(k1), L)
    mats = CoatingMaterials(z1=-zk(k1), z2=0.4 * zk(k1))
    y_grid = np.linspace(-10 * L, 10 * L, 41)
    geom = design_geometry(moments, mats, ell, y_grid, k=k1)
    coated = coated_profile(disp, geom, mats.z1, mats.z2)
    at_design = verify_invisibility(coated, k1, y_grid)
    assert at_design.moment0_max < 1e-12 * geom.ell_c * zk(k1)
    off_design = verify_invisibility(coated, k2, y_grid)
    assert off_design.moment0_max == pytest.approx(
        ell * (zk(k2) - zk(k1)), rel=1e-10
    )


def test_export_geometry(tmp_path):
    ell = 1.0
    mats = CoatingMaterials(z1=-1.0, z2=0.4)
    moments = _gaussian_moments(1.0, 2.0 * ell)
    y_grid = np.linspace(-8.0, 8.0, 33)
    geom = design_geometry(moments, mats, ell, y_grid)
    path = export_geometry(geom, tmp_path / "coating.csv")
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# ")
    header = json.loads(lines[0][2:])
    assert header["ell_c"] == pytest.approx(geom.ell_c)
    assert header["z1"] == [-1.0, 0.0]
    assert header["feasible"] is True
    assert lines[1] == "y,ell1,ell2"
    data = np.loadtxt(path, delimiter=",", skiprows=2)
    assert data.shape == (33, 3)
    np.testing.assert_allclose(data[:, 0], y_grid)
    np.testing.assert_allclose(data[:, 1], geom.ell1(y_grid), rtol=1e-15)
    np.testing.assert_allclose(data[:, 2], geom.ell2(y_grid), rtol=1e-15)

    bare = BilayerGeometry(
        ell1=lambda y: 0.0, ell2=lambda y: 0.0, ell=1.0, ell_c=1.0, feasible=True
    )
    with pytest.raises(DomainError):
        export_geometry(bare, tmp_path / "nope.csv")
