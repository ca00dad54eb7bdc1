"""The benchmark's four workloads: seeded inputs, the tasks of one pass, and checks.

Every workload draws its inputs from ``numpy.random.default_rng(seed)`` in its
constructor; ``pass_tasks`` returns the fixed task list of one pass with fresh
program state, so every pass repeats the same work.  A task is one user-level
call into slabscat (``run``, timed) plus a check of its output (``check``,
untimed), which returns ``None`` when the output is correct and a message
otherwise.
"""

import json
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

# Calls go through the module attributes, so a traced run sees them.
from slabscat import amp2d, cli, cloak, dyson1d, profiles

REFERENCE_DIR = Path(__file__).with_name("reference")


class Task(NamedTuple):
    label: str
    run: Callable[[], object]
    check: Callable[[object], object]


class Workload:
    """Defaults shared by the workloads.

    ``round_passes`` is the number of passes in one round.  A run times whole
    rounds, and ``task_ms_tail`` is taken within each round, so its percentile
    level is the same however fast the program is.  Rounds of about 50 tasks
    put the tail near p80: the eleventh-slowest of 50 is still one of the
    slow tasks of the list, where the eleventh-slowest of hundreds is a
    latency spike from other load on the machine (1-3% of tasks on a shared
    2-core box).
    """

    round_passes = 1

    @staticmethod
    def wrap_eval(fn):
        """Hook around the ``eval`` of profiles the workload builds itself."""
        return fn

    def pass_tasks(self):
        raise NotImplementedError

    def warm_up(self):
        """One untimed task, so lazy set-up is paid before timing starts."""
        self.pass_tasks()[0].run()

    def details(self):
        """Workload-specific facts for the result file."""
        return {}


def _angle(rng):
    """A non-grazing angle, on the transmission or the reflection side."""
    return float(rng.uniform(-1.2, 1.2) + np.pi * rng.integers(0, 2))


def _within(value, reference, rel):
    return abs(value - reference) <= rel * abs(reference)


# ---------------------------------------------------------------------------
# paper_presets


PRESETS = ("fig3", "fig4", "fig6", "fig7", "fig8")


def compare_tables(text, reference, rel_tol):
    """Compare a preset's output table with its reference; None if it matches.

    Each value may differ from the reference by rel_tol times the peak
    magnitude of its curve: for sweep tables the complex amplitude f per
    (order, method) curve, for geometry tables each numeric column.
    """
    lines, ref_lines = text.splitlines(), reference.splitlines()
    if len(lines) != len(ref_lines):
        return f"{len(lines)} lines against {len(ref_lines)} in the reference"
    if lines and lines[0].startswith("# "):
        header, ref_header = json.loads(lines[0][2:]), json.loads(ref_lines[0][2:])
        if header.keys() != ref_header.keys():
            return "header keys differ from the reference"
        for key, ref in ref_header.items():
            value = header[key]
            if isinstance(ref, float) and isinstance(value, (int, float)):
                if not _within(value, ref, rel_tol):
                    return f"header {key} = {value!r} against {ref!r}"
            elif value != ref:
                return f"header {key} = {value!r} against {ref!r}"
        lines, ref_lines = lines[1:], ref_lines[1:]
    if lines[0] != ref_lines[0]:
        return f"columns {lines[0]!r} against {ref_lines[0]!r}"
    columns = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    ref_rows = [line.split(",") for line in ref_lines[1:]]

    if columns[1:] == ["re_f", "im_f", "abs2_f", "order", "method"]:
        f = np.array([float(r[1]) + 1j * float(r[2]) for r in rows])
        ref_f = np.array([float(r[1]) + 1j * float(r[2]) for r in ref_rows])
        curves = {}
        for i, r in enumerate(ref_rows):
            curves.setdefault((r[4], r[5]), []).append(i)
        for i, (r, ref) in enumerate(zip(rows, ref_rows)):
            if r[4:] != ref[4:]:
                return f"row {i + 1} is {r[4:]} against {ref[4:]}"
            if not _within(float(r[0]), float(ref[0]), rel_tol):
                return f"row {i + 1} has {columns[0]} = {r[0]} against {ref[0]}"
        for (order, method), idx in curves.items():
            peak = np.max(np.abs(ref_f[idx]))
            err = np.abs(f[idx] - ref_f[idx])
            abs2_err = np.abs(
                np.array([float(rows[i][3]) - float(ref_rows[i][3]) for i in idx])
            )
            if np.max(err) > rel_tol * peak:
                return (
                    f"curve {method} order {order}: |f - f_ref| = {np.max(err):.3e} "
                    f"exceeds {rel_tol:.0e} x peak {peak:.3e}"
                )
            # | |f|^2 - |f_ref|^2 | <= (|f| + |f_ref|) |f - f_ref|
            if np.max(abs2_err) > (2.0 + rel_tol) * rel_tol * peak * peak:
                return f"curve {method} order {order}: abs2_f off by {np.max(abs2_err):.3e}"
        return None

    values = np.array([[float(v) for v in r] for r in rows])
    ref_values = np.array([[float(v) for v in r] for r in ref_rows])
    for j, name in enumerate(columns):
        peak = np.max(np.abs(ref_values[:, j]))
        err = np.max(np.abs(values[:, j] - ref_values[:, j]))
        if err > rel_tol * peak:
            return f"column {name}: error {err:.3e} exceeds {rel_tol:.0e} x peak {peak:.3e}"
    return None


class PaperPresets(Workload):
    """The five shipped presets through load -> validate -> execute -> write.

    The inputs are fixed, so the seed is recorded but unused.
    """

    name = "paper_presets"
    round_passes = 2

    def __init__(self, seed, out_dir):
        self.out_dir = Path(out_dir)
        self.references = {
            p: (REFERENCE_DIR / f"{p}.csv").read_text() for p in PRESETS
        }
        self.byte_identical = {}

    def _run(self, preset):
        cfg, violations = cli.validate_config(cli.load_config(preset=preset))
        if violations:
            raise ValueError(f"preset {preset} does not validate: {violations}")
        cfg.out_path = str(self.out_dir / f"{preset}.csv")
        result, _ = cli.execute(cfg)
        cli.write_result(result, cfg.out_path, "csv")
        return cfg

    def _check(self, preset, cfg):
        text = Path(cfg.out_path).read_text()
        reference = self.references[preset]
        self.byte_identical[preset] = text == reference
        return compare_tables(text, reference, cfg.numerics["rel_tol"])

    def pass_tasks(self):
        return [
            Task(p, lambda p=p: self._run(p), lambda cfg, p=p: self._check(p, cfg))
            for p in PRESETS
        ]

    def details(self):
        return {"byte_identical": dict(self.byte_identical)}


# ---------------------------------------------------------------------------
# sampled2d

SAMPLED_REL = 1e-9
CLOAK_RATIO = 1e-12


class _Slab:
    """One seeded 2D slab: its closed-form twin, and the profile the tasks use.

    Gaussian and separable slabs are rebuilt with ``eval`` alone.  A coated
    slab keeps the coating's closed spatial moments but has no closed
    transform, so it takes the sampled route as well.
    """

    def __init__(self, kind, rng):
        self.kind = kind
        self.k = float(rng.uniform(0.3, 1.0))
        self.ell = float(rng.uniform(0.05, 0.2))
        self.angles = [(_angle(rng), _angle(rng)) for _ in range(3)]
        L = float(rng.uniform(0.6, 1.5))
        if kind == "coated":
            z0 = float(rng.uniform(0.3, 0.8))
            self.closed = profiles.gaussian_slab_2d(z0, L)
            self.materials = cloak.CoatingMaterials(
                z1=-z0 * rng.uniform(0.8, 1.2), z2=0.4 * z0 * rng.uniform(0.8, 1.2)
            )
            self.y_grid = np.linspace(-12.0 * L, 12.0 * L, 121)
            return
        z = float(rng.uniform(0.2, 1.0))
        if kind == "gaussian":
            self.closed = profiles.gaussian_slab_2d(z, L)
            return
        c = rng.uniform(0.3, 1.0, size=3)
        self.closed = profiles.separable_profile(
            lambda x: c[0] + c[1] * x + c[2] * x * x,
            lambda y: z * np.exp(-0.5 * (np.asarray(y) / L) ** 2),
            12.0 * L,
            transverse_transform=lambda p: z * np.sqrt(2.0 * np.pi) * L
            * np.exp(-0.5 * (L * np.asarray(p)) ** 2),
            descriptor="separable",
        )

    def build(self, wrap_eval):
        """Build the profile the tasks see (for a coated slab, design the coating)."""
        if self.kind == "coated":
            bare = self.closed
            moments = cloak.SlabMomentPair(
                w0bar=lambda y: profiles.spatial_moment_y(bare, 0, y, self.k),
                w1bar=lambda y: profiles.spatial_moment_y(bare, 1, y, self.k),
            )
            geometry = cloak.design_geometry(moments, self.materials, self.ell, self.y_grid)
            return profiles.coated_profile(bare, geometry, self.materials.z1, self.materials.z2)
        return profiles.Profile2D(
            eval=wrap_eval(self.closed.eval),
            decay_radius=self.closed.decay_radius,
            descriptor=self.closed.descriptor + " [eval only]",
        )


class Sampled2D(Workload):
    """Seeded 2D slabs on the sampled-transform route (no closed forms).

    The first angle on each slab builds the profile and pays the sample-cache
    miss; the later angles hit the cache.
    """

    name = "sampled2d"
    round_passes = 2

    def __init__(self, seed, out_dir):
        rng = np.random.default_rng(seed)
        self.slabs = [
            _Slab(kind, rng) for kind in ("gaussian", "separable") * 3 + ("gaussian", "coated")
        ]

    def _amplitude(self, slab, built, theta, theta0):
        if not built:
            built.append(slab.build(self.wrap_eval))
        if slab.kind == "coated":
            return cloak.verify_invisibility(
                built[0], slab.k, slab.y_grid, theta_grid=[theta], theta0=theta0
            )
        config = amp2d.ScatteringConfig2D(k=slab.k, ell=slab.ell, theta0=theta0)
        return amp2d.amplitude_2d(built[0], config, theta, order=2)

    @staticmethod
    def _check(slab, theta, theta0, out):
        config = amp2d.ScatteringConfig2D(k=slab.k, ell=slab.ell, theta0=theta0)
        if slab.kind == "coated":
            got = (out.f1[0], out.f2[0])
            bare = (amp2d.f1_2d(slab.closed, config, theta), amp2d.f2_2d(slab.closed, config, theta))
            for name, value, ref in zip(("f1", "f2"), got, bare):
                if not abs(value) <= CLOAK_RATIO * abs(ref):
                    return f"coated |{name}| = {abs(value):.3e} against bare {abs(ref):.3e}"
            return None
        ref = amp2d.amplitude_2d(slab.closed, config, theta, order=2)
        for name in ("f1", "f2"):
            value, expect = getattr(out, name), getattr(ref, name)
            if not _within(value, expect, SAMPLED_REL):
                return f"{name} = {value!r} against closed form {expect!r}"
        return None

    def pass_tasks(self):
        tasks = []
        for i, slab in enumerate(self.slabs):
            built = []
            for j, (theta, theta0) in enumerate(slab.angles):
                tasks.append(
                    Task(
                        f"{slab.kind}{i}.{j}",
                        lambda s=slab, b=built, t=theta, t0=theta0: self._amplitude(s, b, t, t0),
                        lambda out, s=slab, t=theta, t0=theta0: self._check(s, t, t0, out),
                    )
                )
        return tasks


# ---------------------------------------------------------------------------
# kernels2d


class Kernels2D(Workload):
    """Seeded kernels-check configs for the gaussian2d catalog, via the CLI."""

    name = "kernels2d"
    round_passes = 4

    def __init__(self, seed, out_dir):
        rng = np.random.default_rng(seed)
        out_path = str(Path(out_dir) / "kernels2d.csv")
        self.configs = [
            {
                "command": "kernels-check",
                "profile": {
                    "catalog": "gaussian2d",
                    "z": float(rng.uniform(0.2, 0.8)),
                    "L": float(rng.uniform(0.5, 1.5)),
                },
                "physics": {
                    "k": float(rng.uniform(0.6, 1.6)),
                    "ell": float(rng.uniform(0.02, 0.1)),
                    "theta0": _angle(rng),
                    "thetas": [_angle(rng) for _ in range(3)],
                },
                "output": {"path": out_path, "format": "csv"},
            }
            for _ in range(12)
        ]

    def _run(self, raw):
        cfg, violations = cli.validate_config(raw)
        if violations:
            raise ValueError(f"config does not validate: {violations}")
        result, _ = cli.execute(cfg)
        cli.write_result(result, cfg.out_path, cfg.out_format)
        return cfg.numerics["check_tol"], result

    @staticmethod
    def check(out):
        check_tol, result = out
        closed = {r[0]: complex(r[1], r[2]) for r in result.rows if r[5] == "closed"}
        kernels = {r[0]: complex(r[1], r[2]) for r in result.rows if r[5] == "kernels"}
        if closed.keys() != kernels.keys() or not closed:
            return "kernel and closed rows do not pair up"
        scale = max(abs(v) for v in closed.values())
        worst = max(abs(kernels[t] - closed[t]) for t in closed) / scale
        if not worst <= check_tol:
            return f"kernel route deviates by {worst:.3e} against check_tol {check_tol:.0e}"
        return None

    def pass_tasks(self):
        return [
            Task(f"config{i}", lambda raw=raw: self._run(raw), self.check)
            for i, raw in enumerate(self.configs)
        ]


# ---------------------------------------------------------------------------
# dyson1d

DYSON_TOL = 1e-10
DIRECT_REL = 1e-9


class Dyson1D(Workload):
    """Seeded series-mode transfer matrices of uniform and one smooth slab."""

    name = "dyson1d"
    round_passes = 4

    def __init__(self, seed, out_dir):
        rng = np.random.default_rng(seed)

        def strata(count, lo, hi):
            # one draw from each of count equal slices of [lo, hi], so that a
            # pass, and its slowest task, cost about the same for every seed
            return lo + (hi - lo) * (np.arange(count) + rng.uniform(size=count)) / count

        a = rng.uniform(0.3, 1.0), rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)

        def smooth(x, k):
            x = np.asarray(x, dtype=float)
            w = a[0] + a[1] * np.cos(2.0 * np.pi * x) + a[2] * np.sin(np.pi * x)
            return np.where((x >= 0.0) & (x <= 1.0), w, 0.0)

        inhomogeneous = dyson1d.Profile1D(eval=smooth, descriptor="smooth inhomogeneous")
        self.cases = [
            (dyson1d.constant_slab_1d(n), float(kl))
            for n, kl in zip(strata(12, 1.1, 1.8), strata(12, 0.05, 2.0))
        ] + [(inhomogeneous, float(kl)) for kl in strata(4, 0.05, 2.0)]

    @staticmethod
    def _run(profile, kl):
        matrix = dyson1d.transfer_matrix_1d(profile, kl, 1.0)
        return matrix, dyson1d.scattering_1d(matrix)

    @staticmethod
    def _check(profile, kl, out):
        matrix, (r_left, r_right, t) = out
        if not abs(matrix.det - 1.0) <= DYSON_TOL:
            return f"|det M - 1| = {abs(matrix.det - 1.0):.3e}"
        for side, r in (("left", r_left), ("right", r_right)):
            flux = abs(r) ** 2 + abs(t) ** 2 - 1.0
            if not abs(flux) <= DYSON_TOL:
                return f"|R_{side}|^2 + |T|^2 - 1 = {flux:.3e}"
        direct = dyson1d.transfer_matrix_1d(profile, kl, 1.0, method="direct").as_array()
        gap = np.linalg.norm(matrix.as_array() - direct)
        if not gap <= DIRECT_REL * np.linalg.norm(direct):
            return f"series and direct matrices differ by {gap:.3e}"
        return None

    def pass_tasks(self):
        return [
            Task(
                f"{p.descriptor} kl={kl:.3f}",
                lambda p=p, kl=kl: self._run(p, kl),
                lambda out, p=p, kl=kl: self._check(p, kl, out),
            )
            for p, kl in self.cases
        ]


WORKLOADS = {w.name: w for w in (PaperPresets, Sampled2D, Kernels2D, Dyson1D)}
