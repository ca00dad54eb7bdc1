"""Acceptance suite: one test per claim the package is built around.

Each test computes its verdict first, prints a single summary line
(visible with -rA or on failure), and then asserts, so a plain
``pytest -v`` run reads as a per-criterion checklist.
"""

import numpy as np
import pytest
from scipy.integrate import quad

from slabscat.amp2d import (
    ScatteringConfig2D,
    amplitude_2d,
    c_factor,
    f1_2d,
    f2_2d,
)
from slabscat.amp3d import (
    Direction3D,
    ScatteringConfig3D,
    f1_3d,
    f2_3d,
    gaussian_h,
    gaussian_Y,
    normalized_cross_section,
)
from slabscat.cli import execute, load_config, validate_config
from slabscat.cloak import (
    CoatingMaterials,
    SlabMomentPair,
    design_geometry,
    verify_invisibility,
)
from slabscat.dyson1d import (
    Profile1D,
    TransferMatrix1D,
    constant_slab_1d,
    dyson_terms,
    scattering_1d,
    transfer_matrix_1d,
)
from slabscat.exactborn import (
    Ex1Params,
    ex1_exact,
    extract_series_coefficients,
    x_function,
)
from slabscat.kernels import amplitude_from_kernels
from slabscat.profiles import (
    Profile2D,
    coated_profile,
    ex1_profile,
    gaussian_slab_2d,
    gaussian_slab_3d,
)

# worked one-sided profile, lengths in mm
EX1_Z, EX1_ALPHA, EX1_LW, EX1_ELL = 0.1, 500.0, 0.01, 0.001

# 36 angles away from the grazing exclusions at +-pi/2
THETAS = np.linspace(-1.5, 1.5, 36)

SQ = np.sqrt(np.pi / 2.0)


@pytest.mark.slow
def test_criterion_1_invisibility_both_paths():
    # k = 0.4 alpha puts every momentum k*s strictly below the transform
    # support threshold: the amplitude coefficients must vanish.
    prof = ex1_profile(EX1_Z, EX1_ALPHA, EX1_LW)
    k = 0.4 * EX1_ALPHA

    for th0 in THETAS:
        config = ScatteringConfig2D(k=k, ell=EX1_ELL, theta0=th0)
        for th in THETAS:
            assert f1_2d(prof, config, th) == 0
            assert f2_2d(prof, config, th) == 0

    # Numeric-transform path: strip every closed form so the moments come
    # from sampled data.  The catalog's decay radius is far too small for a
    # 1e-10 target on this slowly decaying oscillatory profile; the tail of
    # the truncated transform scales like 2 z L^2 / (R^2 |alpha - q|), so
    # the sampled profile's grid of R = 400 with 2^19 panels keeps both the
    # tail and the aliased replicas below ~1e-12 on the sampled momentum range.
    bare = Profile2D(
        eval=prof.eval,
        decay_radius=400.0,
        sample_count=2**19,
        descriptor="ex1 sampled",
    )

    worst1 = 0.0
    worst2 = 0.0
    for th0 in THETAS:
        config = ScatteringConfig2D(k=k, ell=EX1_ELL, theta0=th0)
        for th in THETAS:
            worst1 = max(worst1, abs(f1_2d(bare, config, th)))
            worst2 = max(worst2, abs(f2_2d(bare, config, th)))

    ok = worst1 < 1e-10 and worst2 < 1e-10
    print(
        f"criterion 1: {'PASS' if ok else 'FAIL'} - analytic path exactly zero; "
        f"numeric max |f1| = {worst1:.2e}, max |f2| = {worst2:.2e} (bound 1e-10)"
    )
    assert worst1 < 1e-10
    assert worst2 < 1e-10


def test_criterion_2_second_order_identity():
    # For k <= alpha the intermediate-channel convolution is gated shut, so
    # f2 = -(i/2) c f1 must hold on the whole angle grid.
    prof = ex1_profile(EX1_Z, EX1_ALPHA, EX1_LW)
    worst = 0.0
    scale = 0.0
    for k in (0.9 * EX1_ALPHA, 0.65 * EX1_ALPHA):
        for th0 in THETAS:
            config = ScatteringConfig2D(k=k, ell=EX1_ELL, theta0=th0)
            for th in THETAS:
                f1 = f1_2d(prof, config, th)
                f2 = f2_2d(prof, config, th)
                worst = max(worst, abs(f2 + 0.5j * c_factor(th, th0) * f1))
                scale = max(scale, abs(f1))
    assert scale > 0  # the grid reaches the visible region at these k
    ok = worst < 1e-12 * scale
    print(
        f"criterion 2: {'PASS' if ok else 'FAIL'} - max |f2 + (i/2) c f1| = "
        f"{worst:.2e} against 1e-12 * max|f1| = {1e-12 * scale:.2e}"
    )
    assert worst < 1e-12 * scale


def test_criterion_3_convergence_order():
    # The series is in k*ell at fixed k, so the thickness is what varies;
    # k = 0.9 alpha keeps the exact formula valid and the amplitude nonzero
    # at this angle pair.
    theta, theta0 = np.pi / 3.0, 4.0 * np.pi / 3.0
    params = Ex1Params(z=EX1_Z, alpha=EX1_ALPHA, L=EX1_LW)
    prof = ex1_profile(EX1_Z, EX1_ALPHA, EX1_LW)
    k = 0.9 * EX1_ALPHA

    kls = np.geomspace(0.02, 0.3, 12)
    diffs = []
    for kl in kls:
        config = ScatteringConfig2D(k=k, ell=kl / k, theta0=theta0)
        exact = ex1_exact(params, config, theta)
        trunc = amplitude_2d(prof, config, theta, order=2).truncated
        diffs.append(abs(exact - trunc))
    slope = float(np.polyfit(np.log(kls), np.log(diffs), 1)[0])

    config = ScatteringConfig2D(k=k, ell=2.0e-4, theta0=theta0)
    f1c = f1_2d(prof, config, theta)
    f2c = f2_2d(prof, config, theta)
    g1, g2 = extract_series_coefficients(
        lambda ell: ex1_exact(params, ScatteringConfig2D(k=k, ell=ell, theta0=theta0), theta),
        k,
        0.2 / k,
    )
    rel1 = abs(g1 - f1c) / abs(f1c)
    rel2 = abs(g2 - f2c) / abs(f2c)

    ok = 2.8 <= slope <= 3.2 and rel1 < 1e-5 and rel2 < 1e-5
    print(
        f"criterion 3: {'PASS' if ok else 'FAIL'} - remainder slope {slope:.4f} "
        f"(want [2.8, 3.2]); extracted coefficients rel {rel1:.2e}, {rel2:.2e}"
    )
    assert 2.8 <= slope <= 3.2
    assert rel1 < 1e-5
    assert rel2 < 1e-5


def test_criterion_4_kernel_route_cross_check():
    prof = gaussian_slab_2d(0.5, 1.0)
    rng = np.random.default_rng(20260816)
    worst_closed = 0.0
    worst_refine = 0.0
    for _ in range(20):
        k = rng.uniform(0.6, 1.6)
        theta = rng.uniform(-1.3, 1.3)
        theta0 = rng.uniform(-1.3, 1.3) + np.pi * rng.integers(0, 2)
        config = ScatteringConfig2D(k=k, ell=0.1, theta0=theta0)
        closed = amplitude_2d(prof, config, theta, order=2).truncated
        a201 = amplitude_from_kernels(prof, config, theta, truncation=2, node_count=201)
        a401 = amplitude_from_kernels(prof, config, theta, truncation=2, node_count=401)
        worst_closed = max(worst_closed, abs(a201 - closed) / abs(closed))
        worst_refine = max(worst_refine, abs(a401 - a201) / abs(a401))
    ok = worst_closed < 1e-6 and worst_refine < 1e-7
    print(
        f"criterion 4: {'PASS' if ok else 'FAIL'} - 201-node vs closed rel "
        f"{worst_closed:.2e} (bound 1e-6); 401-node refinement {worst_refine:.2e} "
        f"(bound 1e-7)"
    )
    assert worst_closed < 1e-6
    assert worst_refine < 1e-7


def test_criterion_5_x_function():
    rng = np.random.default_rng(5)
    for _ in range(30):
        sig, sig0 = rng.uniform(-1.0, 1.0, size=2)
        xi = rng.uniform(1.0, 5.0)
        assert x_function(sig, sig0, xi) == 0.0

    # oracle: the bracket is the phi-integral of the product of the two
    # gated linear factors over the propagating window
    def chi_oracle(sig, sig0, xi):
        def f(phi):
            sp = np.sin(phi)
            return max(sig - sp - xi, 0.0) * max(sp - sig0 - xi, 0.0)

        kinks = [
            float(np.arcsin(np.clip(sig - xi, -1.0, 1.0))),
            float(np.arcsin(np.clip(sig0 + xi, -1.0, 1.0))),
        ]
        val, _ = quad(
            f, -np.pi / 2.0, np.pi / 2.0, points=kinks, limit=200,
            epsabs=1e-14, epsrel=1e-11,
        )
        return val

    worst = 0.0
    for _ in range(50):
        xi = rng.uniform(0.02, 0.9)
        sig = rng.uniform(2.0 * xi - 1.0, 1.0)
        sig0 = rng.uniform(-1.0, sig - 2.0 * xi)
        want = chi_oracle(sig, sig0, xi)
        got = x_function(sig, sig0, xi)
        worst = max(worst, abs(got - want) / max(abs(want), 1e-300))
    ok = worst < 1e-6
    print(
        f"criterion 5: {'PASS' if ok else 'FAIL'} - zero for xi >= 1; "
        f"50 feasible triples vs phi-integral oracle rel {worst:.2e} (bound 1e-6)"
    )
    assert worst < 1e-6


def test_criterion_6_cloak_nulling():
    z0, Lg, ell = 0.5, 2.0, 1.0

    def g(y):
        return np.exp(-np.asarray(y, dtype=float) ** 2 / (2.0 * Lg * Lg))

    moments = SlabMomentPair(w0bar=lambda y: z0 * g(y), w1bar=lambda y: 0.5 * z0 * g(y))
    materials = CoatingMaterials(z1=-z0, z2=0.4 * z0)
    y_grid = np.linspace(-8.0, 8.0, 81)
    geometry = design_geometry(moments, materials, ell, y_grid)
    assert geometry.feasible, geometry.reason

    l2_center = float(np.atleast_1d(geometry.ell2(0.0))[0]) / ell
    gap_l2 = abs(l2_center - np.sqrt(25.0 / 7.0))

    slab = gaussian_slab_2d(z0, Lg)
    coated = coated_profile(slab, geometry, materials.z1, materials.z2)
    k = 0.05
    theta_grid = np.array([0.2, 0.7, 1.2, 1.9, 2.4, 2.9, 3.4, 3.9, 4.4, 5.1, 5.6, 6.1])
    report = verify_invisibility(coated, k, y_grid, theta_grid=theta_grid)

    bare_cfg = ScatteringConfig2D(k=k, ell=ell, theta0=4.0 * np.pi / 3.0)
    bare1 = max(abs(f1_2d(slab, bare_cfg, t)) for t in theta_grid)
    bare2 = max(abs(f2_2d(slab, bare_cfg, t)) for t in theta_grid)
    ratio1 = float(np.max(np.abs(report.f1))) / bare1
    ratio2 = float(np.max(np.abs(report.f2))) / bare2

    ok = (
        gap_l2 < 1e-12
        and report.moment0_max < 1e-12
        and report.moment1_max < 1e-12
        and ratio1 < 1e-8
        and ratio2 < 1e-8
    )
    print(
        f"criterion 6: {'PASS' if ok else 'FAIL'} - |ell2(0)/ell - sqrt(25/7)| = "
        f"{gap_l2:.1e}; residual moments {report.moment0_max:.1e}/"
        f"{report.moment1_max:.1e}; coated/bare amplitude ratios "
        f"{ratio1:.1e}/{ratio2:.1e}"
    )
    assert gap_l2 < 1e-12
    assert report.moment0_max < 1e-12
    assert report.moment1_max < 1e-12
    assert ratio1 < 1e-8
    assert ratio2 < 1e-8


def test_criterion_7_gaussian_closed_forms_3d():
    rng = np.random.default_rng(7)
    k = 1.3
    worst1 = 0.0
    worst2 = 0.0
    for _ in range(20):
        K = rng.uniform(0.15, 2.0)
        z = complex(rng.uniform(0.2, 1.0), rng.uniform(-0.3, 0.3))
        prof = gaussian_slab_3d(z, K / k)
        theta = np.arccos(rng.uniform(0.1, 0.95) * rng.choice([-1.0, 1.0]))
        theta0 = np.arccos(rng.uniform(0.1, 0.95) * rng.choice([-1.0, 1.0]))
        phi = rng.uniform(0.0, 2.0 * np.pi)
        phi0 = rng.uniform(0.0, 2.0 * np.pi)
        config = ScatteringConfig3D(k=k, ell=1.0, theta0=theta0, phi0=phi0)
        direction = Direction3D(theta, phi)

        h = gaussian_h(theta, phi - phi0, theta0)
        Y = gaussian_Y(theta, phi, theta0, phi0, K)
        closed1 = SQ * z * K * K / k * np.exp(K * K * h)
        closed2 = (
            SQ * 0.5j * z * K * K / k
            * ((np.cos(theta0) - np.cos(theta)) * np.exp(K * K * h) + z * K * K * Y)
        )
        worst1 = max(worst1, abs(f1_3d(prof, config, direction) - closed1) / abs(closed1))
        worst2 = max(worst2, abs(f2_3d(prof, config, direction) - closed2) / abs(closed2))

    y0_gap = abs(gaussian_Y(0.0, 0.0, 0.0, 0.0, 0.0) - 1.0)

    prof = gaussian_slab_3d(0.8, 1.2)
    config = ScatteringConfig3D(k=1.0, ell=0.3, theta0=0.0)
    forward = normalized_cross_section(prof, config, Direction3D(0.0, 0.0))

    ok = worst1 < 1e-6 and worst2 < 1e-6 and y0_gap < 1e-10 and forward == 1.0
    print(
        f"criterion 7: {'PASS' if ok else 'FAIL'} - generic vs closed rel "
        f"{worst1:.2e}/{worst2:.2e} (bound 1e-6); Y(K=0) off by {y0_gap:.1e}; "
        f"forward normalized cross section = {forward!r}"
    )
    assert worst1 < 1e-6
    assert worst2 < 1e-6
    assert y0_gap < 1e-10
    assert forward == 1.0


def test_criterion_8_dyson_series():
    n, k, ell = 1.5, 1.0, 0.1
    t_exact = np.exp(-1j * k * ell) / (
        np.cos(k * n * ell) - 0.5j * (n + 1.0 / n) * np.sin(k * n * ell)
    )
    r_exact = -0.5j * (1.0 / n - n) * np.sin(k * n * ell) * t_exact * np.exp(1j * k * ell)

    terms = dyson_terms(constant_slab_1d(n), k, ell, 20)
    partial = np.eye(2, dtype=complex) + terms.sum(axis=0)
    r_left, _, t = scattering_1d(TransferMatrix1D.from_array(partial))
    rel = max(abs(r_left - r_exact) / abs(r_exact), abs(t - t_exact) / abs(t_exact))

    rng = np.random.default_rng(8)
    worst_det = 0.0
    for _ in range(50):
        c = (rng.normal(size=4) + 1j * rng.normal(size=4)) * 0.3

        def w(x, k_, c=c):
            x = np.asarray(x, dtype=float)
            val = (
                c[0]
                + c[1] * np.cos(2.0 * np.pi * x)
                + c[2] * np.sin(2.0 * np.pi * x)
                + 0.5 * c[3] * np.cos(4.0 * np.pi * x)
            )
            return np.where((x >= 0.0) & (x <= 1.0), val, 0.0)

        mat = transfer_matrix_1d(
            Profile1D(eval=w), rng.uniform(0.5, 2.0), rng.uniform(0.05, 0.25)
        )
        worst_det = max(worst_det, abs(mat.det - 1.0))

    ok = rel < 1e-8 and worst_det <= 1e-10
    print(
        f"criterion 8: {'PASS' if ok else 'FAIL'} - 20-term partial sum vs "
        f"analytic slab rel {rel:.2e} (bound 1e-8); worst |det - 1| = "
        f"{worst_det:.2e} over 50 random profiles (bound 1e-10)"
    )
    assert rel < 1e-8
    assert worst_det <= 1e-10


def _preset_rows(name):
    cfg, violations = validate_config(load_config(None, name))
    assert not violations, violations
    result, _note = execute(cfg)
    return result.rows


def test_criterion_9_figure_properties():
    checks = []

    # fig3: second-order and exact curves indistinguishable up to kl = 0.5
    rows = _preset_rows("fig3")
    exact = {r[0]: r[3] for r in rows if r[5] == "exact"}
    order2 = {r[0]: r[3] for r in rows if r[5] == "order2"}
    scale = max(exact.values())
    gap = max(abs(order2[kl] - exact[kl]) for kl in exact if kl <= 0.5 + 1e-12)
    checks.append(
        ("fig3 order2-vs-exact gap < 1% of curve scale for kl <= 0.5",
         gap < 0.01 * scale, f"measured {gap / scale:.2%}")
    )

    # fig6: first and second order agree at the poles for kl <= 0.2
    rows = _preset_rows("fig6")
    tags = {r[5] for r in rows}
    pole_tags = [
        t for t in tags
        if min(abs(float(t.split("=")[1])), abs(float(t.split("=")[1]) - np.pi)) < 1e-3
    ]
    assert len(pole_tags) == 2
    worst = 0.0
    for tag in pole_tags:
        o1 = {r[0]: r[3] for r in rows if r[5] == tag and r[4] == 1}
        o2 = {r[0]: r[3] for r in rows if r[5] == tag and r[4] == 2}
        for kl in o1:
            if kl <= 0.2 + 1e-12:
                worst = max(worst, abs(o1[kl] - o2[kl]) / max(o1[kl], o2[kl]))
    checks.append(
        ("fig6 order1-vs-order2 within 2% at the poles for kl <= 0.2",
         worst <= 0.02, f"measured {worst:.2%}")
    )

    # fig7: the backward lobe beats the forward one
    rows = _preset_rows("fig7")
    curve = {r[0]: r[3] for r in rows if r[5] == "order2"}
    thetas = sorted(curve)
    fwd, bwd = curve[thetas[0]], curve[thetas[-1]]
    checks.append(
        ("fig7 backward lobe exceeds forward lobe",
         bwd > fwd, f"backward/forward = {bwd / fwd:.4f}")
    )

    # fig8: growing kL drains weight away from mid angles, and every curve
    # keeps the backward excess
    rows = _preset_rows("fig8")
    tags = sorted({r[5] for r in rows}, key=lambda s: float(s.split("=")[1]))
    fractions = []
    backward_ok = True
    for tag in tags:
        curve = {r[0]: r[3] for r in rows if r[5] == tag}
        th = np.array(sorted(curve))
        vals = np.array([curve[t] for t in th])
        backward_ok = backward_ok and vals[-1] > vals[0]
        mid = (th > np.pi / 4.0) & (th < 3.0 * np.pi / 4.0)
        fractions.append(vals[mid].sum() / vals.sum())
    monotone = all(a > b for a, b in zip(fractions, fractions[1:]))
    checks.append(
        ("fig8 backward > forward for every kL",
         backward_ok, "all curves")
    )
    checks.append(
        ("fig8 larger kL concentrates weight at the poles",
         monotone, "mid-angle fractions " + ", ".join(f"{f:.3g}" for f in fractions))
    )

    ok = all(good for _name, good, _info in checks)
    detail = "; ".join(
        f"{name}: {'ok' if good else 'FAILED'} ({info})" for name, good, info in checks
    )
    print(f"criterion 9: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail
