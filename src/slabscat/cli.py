"""Command-line front end: validated JSON configs in, figure-ready tables out.

Every run is driven by a JSON config (from ``--config <path>`` or a shipped
``--preset <name>``) with this shape::

    {
      "command":  "amp2d" | "amp3d" | "exact2d" | "kernels-check"
                  | "cloak" | "dyson1d" | "sweep",
      "profile":  {"catalog": "<name>", ...params} | {"file": "<path>"},
      "physics":  { ...command-specific, see below... },
      "numerics": {"rel_tol": 1e-8, "node_count": 201,
                   "max_terms": 24, "series_tol": 1e-12, "check_tol": 1e-5},
      "output":   {"path": "out.csv", "format": "csv" | "json"}
    }

Profiles name an entry of ``profiles.CATALOG``, which lists each name's
dimension and parameters: ``gaussian2d`` (z, L), ``ex1`` (z, alpha, L) in
2D; ``gaussian3d`` (z, L) in 3D; ``uniform1d`` (n) in 1D.  Complex
parameters (z, n) may be written as ``[re, im]``.  A ``{"file": ...}``
profile points at a JSON file holding the same catalog object.

Grids are either explicit arrays ``[v1, v2, ...]`` or ranges
``{"start": a, "stop": b, "count": n}`` (inclusive, linearly spaced).

Every command but ``cloak`` is one sweep: a few curves evaluated along one
grid, of observation angle theta or of k*ell.  Per-command physics:

* ``amp2d``, ``amp3d``, ``exact2d``, ``kernels-check``: theta sweeps over
  ``thetas`` (grid) at fixed k, ell, theta0 (and phi0, phi in 3D), one curve
  per entry of ``orders`` (default [1, 2]).  ``exact2d`` (ex1 catalog only,
  k <= alpha) adds the exact amplitude (order tag 0) as the first curve;
  ``kernels-check`` has the curves "kernels" (discretized kernel route) and
  "closed" (second-order closed form) and fails the run (exit 3) if they
  disagree beyond check_tol
* ``cloak``:   ell, z0, z1, z2, g (catalog "gaussian" with L), y (grid),
  optional k; emits the designed layer-thickness table
* ``dyson1d``: kls (grid), ell (default 1), max_terms, series_tol; emits
  R_left/R_right/T per grid point
* ``sweep``:   domain "2d" or "3d"; variable "kl" or "theta" with its grid;
  2d: fixed theta, theta0, ell, methods from {"order1","order2","exact"};
  3d over kl: theta_values curves at fixed theta0/phi0/phi with a full
  profile; 3d over theta: fixed kl plus kL_values curves (the transverse
  width is derived per curve), orders selecting the truncation

Sweeps emit one row per grid point per curve with the columns (variable,
re_f, im_f, abs2_f, order, method); rows are assembled in grid-major
deterministic order no matter how many worker threads evaluate them,
floats are printed with 17 significant digits, and repeated runs, at any
thread count and for kernels-check too, are byte-identical.  Exit codes: 0
on success, 2 on validation failure, 3 on numerical failure; failures put a
machine-readable JSON diagnostic on standard error.
"""

import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from importlib import resources

import click
import numpy as np

from .amp2d import _GRAZING_TOL, ScatteringConfig2D, amplitude_2d
from .amp3d import Direction3D, ScatteringConfig3D, amplitude_3d
from .cloak import CoatingMaterials, SlabMomentPair, design_geometry, export_geometry
from .dyson1d import scattering_1d, transfer_matrix_1d
from .exactborn import Ex1Params, ex1_exact
from .kernels import amplitude_from_kernels
from .numerics import AccuracyError, DomainError, QuadratureSpec
from .profiles import CATALOG, profile_from_dict

__all__ = ["main", "load_config", "validate_config", "execute"]

_COMMANDS = ("amp2d", "amp3d", "exact2d", "kernels-check", "cloak", "dyson1d", "sweep")
_PRESET_NAMES = ("fig3", "fig4", "fig6", "fig7", "fig8")

_DEFAULT_NUMERICS = {
    "rel_tol": 1e-8,
    "node_count": 201,
    "max_terms": 24,
    "series_tol": 1e-12,
    "check_tol": 1e-5,
}


def _fmt(value):
    return "%.17g" % float(value)


def _round17(value):
    return float(_fmt(value))


# ---------------------------------------------------------------------------
# config loading and validation


def load_config(config_path=None, preset=None):
    """Read a raw config dict from a file or a shipped preset name."""
    if (config_path is None) == (preset is None):
        raise DomainError("exactly one of --config and --preset is required")
    if preset is not None:
        if preset not in _PRESET_NAMES:
            raise DomainError(
                f"unknown preset '{preset}'; available: {', '.join(_PRESET_NAMES)}"
            )
        text = (resources.files("slabscat") / "presets" / f"{preset}.json").read_text()
    else:
        try:
            with open(config_path, "r") as fh:
                text = fh.read()
        except OSError as exc:
            raise DomainError(f"cannot read config: {exc}")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"config is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise DomainError("config must be a JSON object")
    return raw


def _as_complex(value, label, violations):
    if isinstance(value, (int, float)):
        return complex(value)
    if (
        isinstance(value, list)
        and len(value) == 2
        and all(isinstance(v, (int, float)) for v in value)
    ):
        return complex(value[0], value[1])
    violations.append(f"{label} must be a number or an [re, im] pair")
    return 0j


def _positive(value, label, violations):
    if not isinstance(value, (int, float)) or not value > 0:
        violations.append(f"{label} must be a positive number")
        return 1.0
    return float(value)


def _grid(spec, label, violations, positive=False):
    if isinstance(spec, list):
        if len(spec) == 0 or not all(isinstance(v, (int, float)) for v in spec):
            violations.append(f"{label} must be a nonempty array of numbers")
            return np.array([1.0])
        values = np.array(spec, dtype=float)
    elif isinstance(spec, dict):
        missing = [key for key in ("start", "stop", "count") if key not in spec]
        if missing:
            violations.append(f"{label} range is missing {', '.join(missing)}")
            return np.array([1.0])
        count = spec["count"]
        if not isinstance(count, int) or count < 1:
            violations.append(f"{label} count must be a positive integer")
            return np.array([1.0])
        if not all(isinstance(spec[key], (int, float)) for key in ("start", "stop")):
            violations.append(f"{label} start/stop must be numbers")
            return np.array([1.0])
        if spec["start"] > spec["stop"]:
            violations.append(f"{label} start exceeds stop")
            return np.array([1.0])
        values = np.linspace(float(spec["start"]), float(spec["stop"]), count)
    else:
        violations.append(f"{label} must be an array or a start/stop/count range")
        return np.array([1.0])
    if positive and np.any(values <= 0):
        violations.append(f"{label} values must all be positive")
    return values


def _check_angles(values, label, violations, polar=False):
    values = np.atleast_1d(values)
    if np.any(np.abs(np.cos(values)) < _GRAZING_TOL):
        violations.append(f"{label} touches the excluded pi/2 line")
    if polar and (np.any(values < 0) or np.any(values > np.pi)):
        violations.append(f"{label} must lie in [0, pi]")


def _angle(phys, key, violations, polar=False):
    if key not in phys:
        violations.append(f"physics.{key} is required")
        return 0.0
    value = phys[key]
    if not isinstance(value, (int, float)):
        violations.append(f"physics.{key} must be a number")
        return 0.0
    _check_angles(float(value), f"physics.{key}", violations, polar=polar)
    return float(value)


def _azimuths(phys, physics, violations):
    """Copy the 3D azimuths phi0 and phi (default 0) into ``physics``.

    phi0 may be any finite number; phi must lie in Direction3D's [0, 2 pi).
    """
    for key in ("phi0", "phi"):
        value = phys.get(key, 0.0)
        if not isinstance(value, (int, float)) or not np.isfinite(value):
            violations.append(f"physics.{key} must be a finite number")
            value = 0.0
        elif key == "phi" and not 0.0 <= value < 2.0 * np.pi:
            violations.append("physics.phi must lie in [0, 2 pi)")
        physics[key] = float(value)


def _profile_dict(raw, violations):
    """The profile object (from its file if given), None if absent, False if unusable."""
    prof = raw.get("profile")
    if prof is None:
        return None
    if not isinstance(prof, dict):
        violations.append("profile must be an object")
        return False
    if "file" in prof:
        try:
            with open(prof["file"], "r") as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            violations.append(f"profile.file cannot be loaded: {exc}")
            return False
        if not isinstance(loaded, dict):
            violations.append("profile.file must hold a JSON object")
            return False
        return loaded
    return prof


def _validate_profile(prof, dimension, violations, derived=()):
    """Check a catalog dict and return it (params coerced), or None.

    ``derived`` names catalog parameters the command computes itself; they
    are not read from the profile.
    """
    names = sorted(name for name, entry in CATALOG.items() if entry[1] == dimension)
    if prof is None:
        violations.append("profile is required for this command")
    if not isinstance(prof, dict):
        return None
    name = prof.get("catalog")
    if name not in names:
        violations.append(f"profile.catalog must be one of {names} for this command")
        return None
    out = {"catalog": name}
    for key in CATALOG[name][2]:
        if key in derived:
            continue
        if key not in prof:
            violations.append(f"profile.{key} is required by catalog {name}")
            return None
        if key in ("z", "n"):
            out[key] = _as_complex(prof[key], f"profile.{key}", violations)
        else:
            out[key] = _positive(prof[key], f"profile.{key}", violations)
    return out


@dataclass
class Sweep:
    """Curves evaluated along one grid; every command but cloak is one.

    ``domain`` selects the point function and the shape of a curve: in 2D
    (method, order tag), method one of order1, order2, exact, kernels,
    closed; in 3D (profile overrides, fixed theta or None, order, label);
    in 1D (channel, order tag).  Rows are grid-major, curves in list order.
    """

    domain: str
    variable: str  # "theta" or "kl"
    grid: np.ndarray
    curves: list


@dataclass
class RunConfig:
    """A validated run: fixed physics, its sweep (None for cloak), and output."""

    command: str
    profile: dict
    physics: dict
    numerics: dict
    out_path: str
    out_format: str
    sweep: Sweep


def validate_config(raw):
    """Validate a raw config dict; returns (RunConfig or None, violations)."""
    violations = []
    command = raw.get("command")
    if command not in _COMMANDS:
        violations.append(f"command must be one of {', '.join(_COMMANDS)}")
        return None, violations

    numerics = dict(_DEFAULT_NUMERICS)
    extra = raw.get("numerics", {})
    if not isinstance(extra, dict):
        violations.append("numerics must be an object")
        extra = {}
    for key, value in extra.items():
        if key not in numerics:
            violations.append(f"numerics.{key} is not a known setting")
        elif key in ("node_count", "max_terms"):
            floor = 3 if key == "node_count" else 1
            if not isinstance(value, int) or value < floor:
                violations.append(f"numerics.{key} must be an integer >= {floor}")
            else:
                numerics[key] = value
        else:
            numerics[key] = _positive(value, f"numerics.{key}", violations)

    output = raw.get("output", {})
    if not isinstance(output, dict):
        violations.append("output must be an object")
        output = {}
    out_path = output.get("path", "")
    if not isinstance(out_path, str) or not out_path:
        violations.append("output.path must be a nonempty string")
        out_path = "out.csv"
    out_format = output.get("format", "csv")
    if out_format not in ("csv", "json"):
        violations.append("output.format must be 'csv' or 'json'")
        out_format = "csv"

    phys_raw = raw.get("physics", {})
    if not isinstance(phys_raw, dict):
        violations.append("physics must be an object")
        phys_raw = {}
    prof_raw = _profile_dict(raw, violations)

    profile, physics, sweep = _validate_command(
        command, prof_raw, phys_raw, raw, violations
    )
    if violations:
        return None, violations
    return RunConfig(command, profile, physics, numerics, out_path, out_format, sweep), []


def _validate_command(command, prof, phys, raw, violations):
    """Check a command's inputs; returns (profile, fixed physics, Sweep or None)."""
    if command == "cloak":
        physics = {"ell": _positive(phys.get("ell", 0.0), "physics.ell", violations)}
        for key in ("z0", "z1", "z2"):
            value = phys.get(key)
            if not isinstance(value, (int, float)):
                violations.append(f"physics.{key} must be a real number")
                value = 1.0
            physics[key] = float(value)
        if physics["z1"] == physics["z2"]:
            violations.append("physics.z1 and physics.z2 must differ")
        if physics["z1"] == 0.0:
            violations.append("physics.z1 must be nonzero")
        g = phys.get("g")
        if not (isinstance(g, dict) and g.get("catalog") == "gaussian"):
            violations.append("physics.g must be {'catalog': 'gaussian', 'L': ...}")
            physics["g_L"] = 1.0
        else:
            physics["g_L"] = _positive(g.get("L", 0.0), "physics.g.L", violations)
        physics["y"] = _grid(phys.get("y"), "physics.y", violations)
        k = phys.get("k")
        if k is not None:
            k = _positive(k, "physics.k", violations)
        physics["k"] = k
        return None, physics, None

    if command == "dyson1d":
        profile = _validate_profile(prof, "1d", violations)
        grid = _grid(phys.get("kls"), "physics.kls", violations, positive=True)
        physics = {"ell": _positive(phys.get("ell", 1.0), "physics.ell", violations)}
        curves = [("R_left", 0), ("R_right", 0), ("T", 0)]
        return profile, physics, Sweep("1d", "kl", grid, curves)

    if command in ("amp2d", "exact2d", "kernels-check", "amp3d"):
        polar = command == "amp3d"
        profile = _validate_profile(prof, "3d" if polar else "2d", violations)
        if command == "exact2d" and profile is not None and profile["catalog"] != "ex1":
            violations.append("exact2d requires the ex1 catalog profile")
            profile = None
        physics = {
            "k": _positive(phys.get("k", 0.0), "physics.k", violations),
            "ell": _positive(phys.get("ell", 0.0), "physics.ell", violations),
            "theta0": _angle(phys, "theta0", violations, polar=polar),
        }
        if polar:
            _azimuths(phys, physics, violations)
        thetas = _grid(phys.get("thetas"), "physics.thetas", violations)
        _check_angles(thetas, "physics.thetas", violations, polar=polar)
        orders = _subset(phys, "orders", [1, 2], [1, 2], violations)
        if command == "amp3d":
            curves = [({}, None, order, f"order{order}") for order in orders]
            return profile, physics, Sweep("3d", "theta", thetas, curves)
        curves = [(f"order{order}", order) for order in orders]
        if command == "kernels-check":
            curves = [("kernels", 2), ("closed", 2)]
        elif command == "exact2d":
            curves.insert(0, ("exact", 0))
            if profile is not None and physics["k"] > profile["alpha"] * (1.0 + 1e-12):
                violations.append("exact2d requires k <= profile alpha")
        return profile, physics, Sweep("2d", "theta", thetas, curves)

    # sweep
    domain = raw.get("domain", "2d")
    if domain not in ("2d", "3d"):
        violations.append("domain must be '2d' or '3d'")
        return None, {}, None
    variable = phys.get("variable")
    if variable not in ("kl", "theta"):
        violations.append("physics.variable must be 'kl' or 'theta'")
        return None, {}, None
    grid = _grid(phys.get("grid"), "physics.grid", violations, positive=(variable == "kl"))
    physics = {"ell": _positive(phys.get("ell", 0.0), "physics.ell", violations)}

    if domain == "2d":
        if variable != "kl":
            violations.append("2d sweeps support variable 'kl' only")
            return None, physics, None
        profile = _validate_profile(prof, "2d", violations)
        physics["theta"] = _angle(phys, "theta", violations)
        physics["theta0"] = _angle(phys, "theta0", violations)
        known = ("order1", "order2", "exact")
        methods = _subset(phys, "methods", known, ["order1", "order2"], violations)
        if "exact" in methods and (profile is None or profile["catalog"] != "ex1"):
            violations.append("the 'exact' sweep method requires the ex1 catalog")
        curves = [(m, 0 if m == "exact" else int(m[-1])) for m in methods]
        return profile, physics, Sweep("2d", "kl", grid, curves)

    physics["theta0"] = _angle(phys, "theta0", violations, polar=True)
    _azimuths(phys, physics, violations)
    orders = _subset(phys, "orders", [1, 2], [1, 2], violations)
    if variable == "kl":
        profile = _validate_profile(prof, "3d", violations)
        theta_values = _grid(phys.get("theta_values"), "physics.theta_values", violations)
        _check_angles(theta_values, "physics.theta_values", violations, polar=True)
        curves = [
            ({}, theta, order, f"theta={theta:.6g}")
            for theta in theta_values
            for order in orders
        ]
        return profile, physics, Sweep("3d", "kl", grid, curves)
    profile = _validate_profile(prof, "3d", violations, derived=("L",))
    if profile is not None and "L" in prof:
        violations.append(
            "theta sweeps derive the transverse width from kL_values; drop profile.L"
        )
    _check_angles(grid, "physics.grid", violations, polar=True)
    physics["k"] = _positive(phys.get("kl", 0.0), "physics.kl", violations) / physics["ell"]
    kL_values = _grid(phys.get("kL_values"), "physics.kL_values", violations, positive=True)
    curves = []
    for kL in kL_values:
        for order in orders:
            if len(kL_values) == 1:
                label = f"order{order}"
            elif len(orders) == 1:
                label = f"kL={kL:.6g}"
            else:
                label = f"kL={kL:.6g},order{order}"
            curves.append(({"L": kL / physics["k"]}, None, order, label))
    return profile, physics, Sweep("3d", "theta", grid, curves)


def _subset(phys, key, known, default, violations):
    """A nonempty list drawn from ``known`` (default's last entry on error)."""
    values = phys.get(key, default)
    if not (isinstance(values, list) and values and all(v in known for v in values)):
        violations.append(f"physics.{key} must be a nonempty subset of {known}")
        return default[-1:]
    return list(values)


# ---------------------------------------------------------------------------
# execution


@dataclass
class SweepResult:
    """Rows of (variable value, Re f, Im f, |f|^2, order tag, method tag)."""

    variable: str
    rows: list


def _map_ordered(fn, values, threads):
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, values))
    return [fn(v) for v in values]


def execute(cfg, threads=1):
    """Run a validated config; returns (SweepResult or BilayerGeometry, note)."""
    if cfg.sweep is None:
        return _run_cloak(cfg)
    sweep = cfg.sweep
    point = _POINTS[sweep.domain](cfg)
    rows = [
        (x, value.real, value.imag, abs(value) ** 2, order, label)
        for chunk in _map_ordered(point, sweep.grid, threads)
        for x, value, order, label in chunk
    ]
    result = SweepResult(variable=sweep.variable, rows=rows)
    if cfg.command == "kernels-check":
        return result, _kernel_deviation(rows, cfg.numerics["check_tol"])
    return result, f"{len(rows)} rows"


def _quad_spec(cfg):
    return QuadratureSpec(rel_tol=cfg.numerics["rel_tol"], abs_tol=1e-14)


def _wavenumber(cfg, x):
    """k at grid value x: fixed for theta sweeps, x / ell for kl sweeps."""
    return cfg.physics["k"] if cfg.sweep.variable == "theta" else x / cfg.physics["ell"]


def _point_2d(cfg):
    """Point function of a 2D sweep: x -> rows of every (method, order) curve."""
    prof = profile_from_dict(cfg.profile)
    phys = cfg.physics
    spec = _quad_spec(cfg)
    params = None
    if cfg.profile["catalog"] == "ex1":
        params = Ex1Params(**{key: cfg.profile[key] for key in ("z", "alpha", "L")})

    def point(x):
        config = ScatteringConfig2D(
            k=_wavenumber(cfg, x), ell=phys["ell"], theta0=phys["theta0"]
        )
        theta = x if cfg.sweep.variable == "theta" else phys["theta"]
        out = []
        for method, order in cfg.sweep.curves:
            if method == "exact":
                if config.k > params.alpha * (1.0 + 1e-12):
                    continue  # the exact formula stops being valid above alpha
                value = ex1_exact(params, config, theta)
            elif method == "kernels":
                value = amplitude_from_kernels(
                    prof, config, theta, truncation=2,
                    node_count=cfg.numerics["node_count"],
                )
            else:  # order1, order2, closed
                value = amplitude_2d(prof, config, theta, order=order, spec=spec).truncated
            out.append((x, value, order, method))
        return out

    return point


def _point_3d(cfg):
    """Point function of a 3D sweep: x -> rows of every curve."""
    phys = cfg.physics
    spec = _quad_spec(cfg)
    keys = [tuple(curve[0].items()) for curve in cfg.sweep.curves]
    built = {key: profile_from_dict(dict(cfg.profile, **dict(key))) for key in set(keys)}
    profiles = [built[key] for key in keys]

    def point(x):
        config = ScatteringConfig3D(
            k=_wavenumber(cfg, x), ell=phys["ell"], theta0=phys["theta0"], phi0=phys["phi0"]
        )
        out = []
        for prof, (_, theta, order, label) in zip(profiles, cfg.sweep.curves):
            direction = Direction3D(x if theta is None else theta, phys["phi"])
            res = amplitude_3d(prof, config, direction, order=order, spec=spec)
            out.append((x, res.truncated, order, label))
        return out

    return point


def _point_1d(cfg):
    """Point function of a 1D sweep: kl -> rows of the R_left, R_right, T curves."""
    prof = profile_from_dict(cfg.profile)
    ell = cfg.physics["ell"]

    def point(kl):
        matrix = transfer_matrix_1d(
            prof,
            kl / ell,
            ell,
            max_terms=cfg.numerics["max_terms"],
            tol=cfg.numerics["series_tol"],
        )
        channels = dict(zip(("R_left", "R_right", "T"), scattering_1d(matrix)))
        return [(kl, channels[name], order, name) for name, order in cfg.sweep.curves]

    return point


_POINTS = {"1d": _point_1d, "2d": _point_2d, "3d": _point_3d}


def _kernel_deviation(rows, check_tol):
    """Largest kernel-vs-closed gap relative to the largest closed amplitude."""
    kernels = np.array([complex(r[1], r[2]) for r in rows if r[5] == "kernels"])
    closed = np.array([complex(r[1], r[2]) for r in rows if r[5] == "closed"])
    scale = float(np.max(np.abs(closed)))
    worst = float(np.max(np.abs(kernels - closed)))  # a NaN gap fails the check
    worst = worst / scale if scale > 0 else worst
    note = f"max deviation {worst:.3e} against tolerance {check_tol:.1e}"
    if not worst <= check_tol:
        raise AccuracyError(f"kernel route disagrees with the closed forms: {note}")
    return note


def _run_cloak(cfg):
    phys = cfg.physics
    L = phys["g_L"]
    z0 = phys["z0"]

    def g(y):
        return np.exp(-np.asarray(y) ** 2 / (2.0 * L * L))

    moments = SlabMomentPair(
        w0bar=lambda y: z0 * g(y), w1bar=lambda y: 0.5 * z0 * g(y)
    )
    materials = CoatingMaterials(z1=phys["z1"], z2=phys["z2"])
    geometry = design_geometry(
        moments, materials, phys["ell"], phys["y"], k=phys["k"]
    )
    note = (
        f"feasible over the grid, ell_c = {geometry.ell_c:.6g}"
        if geometry.feasible
        else f"infeasible: {geometry.reason}"
    )
    return geometry, note


# ---------------------------------------------------------------------------
# output


def write_result(result, path, out_format):
    if isinstance(result, SweepResult):
        if out_format == "csv":
            lines = [f"{result.variable},re_f,im_f,abs2_f,order,method"]
            for var, re, im, a2, order, method in result.rows:
                lines.append(
                    f"{_fmt(var)},{_fmt(re)},{_fmt(im)},{_fmt(a2)},{order},{method}"
                )
            text = "\n".join(lines) + "\n"
        else:
            payload = {
                "columns": [result.variable, "re_f", "im_f", "abs2_f", "order", "method"],
                "rows": [
                    [_round17(var), _round17(re), _round17(im), _round17(a2), order, method]
                    for var, re, im, a2, order, method in result.rows
                ],
            }
            text = json.dumps(payload, sort_keys=True, indent=1) + "\n"
        with open(path, "w") as fh:
            fh.write(text)
        return

    # bilayer geometry
    if out_format == "csv":
        export_geometry(result, path)
        return
    ell1 = result.ell1(result.y_grid)
    ell2 = result.ell2(result.y_grid)
    payload = {
        "ell": _round17(result.ell),
        "ell_c": _round17(result.ell_c),
        "feasible": bool(result.feasible),
        "reason": result.reason,
        "z1": [_round17(result.materials.z1.real), _round17(result.materials.z1.imag)],
        "z2": [_round17(result.materials.z2.real), _round17(result.materials.z2.imag)],
        "rows": [
            [_round17(y), _round17(l1), _round17(l2)]
            for y, l1, l2 in zip(result.y_grid, ell1, ell2)
        ],
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=1) + "\n")


# ---------------------------------------------------------------------------
# click surface


def _fail(code, kind, payload):
    sys.stderr.write(json.dumps({"error": kind, **payload}, sort_keys=True) + "\n")
    sys.exit(code)


def _load_and_validate(config_path, preset):
    try:
        raw = load_config(config_path, preset)
    except DomainError as exc:
        _fail(2, "validation", {"violations": [str(exc)]})
    cfg, violations = validate_config(raw)
    if violations:
        _fail(2, "validation", {"violations": violations})
    return cfg


@click.group()
def main():
    """Low-frequency slab-scattering toolkit."""


@main.command()
@click.option("--config", "config_path", default=None, help="JSON run config.")
@click.option("--preset", default=None, help=f"One of: {', '.join(_PRESET_NAMES)}.")
@click.option("--out", "out_path", default=None, help="Override output.path.")
@click.option(
    "--format", "out_format", type=click.Choice(["csv", "json"]), default=None,
    help="Override output.format.",
)
@click.option("--threads", default=1, show_default=True, help="Sweep worker threads.")
@click.option("--tol", default=None, type=float, help="Override the main tolerance.")
def run(config_path, preset, out_path, out_format, threads, tol):
    """Execute a config and write its output table."""
    cfg = _load_and_validate(config_path, preset)
    if threads < 1:
        _fail(2, "validation", {"violations": ["--threads must be at least 1"]})
    if tol is not None:
        if not tol > 0:
            _fail(2, "validation", {"violations": ["--tol must be positive"]})
        cfg.numerics["rel_tol"] = tol
        cfg.numerics["check_tol"] = tol
        cfg.numerics["series_tol"] = tol
    if out_path is not None:
        cfg.out_path = out_path
    if out_format is not None:
        cfg.out_format = out_format
    try:
        result, note = execute(cfg, threads=threads)
        write_result(result, cfg.out_path, cfg.out_format)
    except (AccuracyError, ArithmeticError) as exc:
        _fail(3, "numerical", {"message": str(exc)})
    except DomainError as exc:
        _fail(2, "validation", {"violations": [str(exc)]})
    click.echo(f"{cfg.command}: {note} -> {cfg.out_path}")


@main.command()
@click.option("--config", "config_path", default=None, help="JSON run config.")
@click.option("--preset", default=None, help=f"One of: {', '.join(_PRESET_NAMES)}.")
def validate(config_path, preset):
    """Check a config without executing it; lists every violation."""
    try:
        raw = load_config(config_path, preset)
    except DomainError as exc:
        click.echo(json.dumps({"valid": False, "violations": [str(exc)]}, sort_keys=True))
        sys.exit(2)
    _, violations = validate_config(raw)
    click.echo(json.dumps({"valid": not violations, "violations": violations}, sort_keys=True))
    if violations:
        sys.exit(2)


if __name__ == "__main__":
    main()
