import json

import numpy as np
import pytest
from click.testing import CliRunner
from numpy.testing import assert_allclose

from slabscat.amp2d import ScatteringConfig2D, amplitude_2d
from slabscat.amp3d import Direction3D, ScatteringConfig3D, amplitude_3d
from slabscat.cli import load_config, main, validate_config
from slabscat.dyson1d import constant_slab_1d, scattering_1d, transfer_matrix_1d
from slabscat.exactborn import Ex1Params, ex1_exact
from slabscat.numerics import DomainError
from slabscat.profiles import ex1_profile, gaussian_slab_2d, gaussian_slab_3d

PRESETS = ("fig3", "fig4", "fig6", "fig7", "fig8")


def _invoke(*args):
    return CliRunner().invoke(main, list(args))


def _run_json(tmp_path, cfg):
    """Run cfg with JSON output; returns the payload's rows."""
    cfg = dict(cfg, output={"path": str(tmp_path / "out.json"), "format": "json"})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    result = _invoke("run", "--config", str(path))
    assert result.exit_code == 0, result.output
    return json.loads((tmp_path / "out.json").read_text())["rows"]


def test_presets_all_validate():
    for name in PRESETS:
        result = _invoke("validate", "--preset", name)
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert report == {"valid": True, "violations": []}


def test_config_source_exclusivity_and_unknown_preset(tmp_path):
    assert _invoke("run").exit_code == 2
    assert _invoke("run", "--preset", "fig4", "--config", "x.json").exit_code == 2
    assert _invoke("run", "--preset", "fig99").exit_code == 2
    result = _invoke("run", "--preset", "fig4", "--threads", "0")
    assert result.exit_code == 2 and "--threads must be at least 1" in result.output
    with pytest.raises(DomainError):
        load_config(None, None)


def test_validation_collects_every_violation(tmp_path):
    cfg = {
        "command": "amp2d",
        "profile": {"catalog": "gaussian2d", "z": 1.0},  # L missing
        "physics": {
            "k": -2.0,
            "ell": 0.1,
            "theta0": np.pi / 2,
            "thetas": [],
        },
        "output": {"path": "", "format": "xml"},
    }
    _, violations = validate_config(cfg)
    text = "\n".join(violations)
    for fragment in (
        "profile.L",
        "physics.k",
        "theta0",
        "thetas",
        "output.path",
        "output.format",
    ):
        assert fragment in text, f"missing complaint about {fragment}: {violations}"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    result = _invoke("run", "--config", str(path))
    assert result.exit_code == 2

    _, empty_grid = validate_config(
        {
            "command": "sweep",
            "domain": "2d",
            "profile": {"catalog": "gaussian2d", "z": 1.0, "L": 1.0},
            "physics": {
                "variable": "kl",
                "grid": {"start": 0.2, "stop": 0.1, "count": 5},
                "ell": 1.0,
                "theta": 0.5,
                "theta0": 0.1,
            },
            "output": {"path": "x.csv"},
        }
    )
    assert any("start exceeds stop" in v for v in empty_grid)


@pytest.mark.parametrize("command", ["amp3d", "sweep3d"])
def test_validation_checks_the_azimuths(tmp_path, command):
    cfg = dict(THREAD_CASES["amp3d" if command == "amp3d" else "sweep3d_kl"])
    cfg["output"] = {"path": str(tmp_path / "out.csv")}
    for phi0, phi, complaints in (
        ("abc", 7.0, ["physics.phi0 must be a finite number", "physics.phi must lie in"]),
        (0.5, -1.0, ["physics.phi must lie in"]),
        (0.5, "abc", ["physics.phi must be a finite number"]),
    ):
        cfg["physics"] = dict(cfg["physics"], phi0=phi0, phi=phi)
        _, violations = validate_config(cfg)
        assert len(violations) == len(complaints), violations
        for violation, fragment in zip(violations, complaints):
            assert fragment in violation
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        result = _invoke("validate", "--config", str(path))
        assert result.exit_code == 2
        assert json.loads(result.output)["violations"] == violations
    # any finite incidence azimuth is accepted; phi = 2 pi is not
    cfg["physics"] = dict(cfg["physics"], phi0=-9.0, phi=0.0)
    assert validate_config(cfg)[1] == []
    cfg["physics"] = dict(cfg["physics"], phi=2.0 * np.pi)
    assert validate_config(cfg)[1] == ["physics.phi must lie in [0, 2 pi)"]


def test_fig4_run_is_deterministic_and_exact(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        result = _invoke("run", "--preset", "fig4", "--out", str(out))
        assert result.exit_code == 0, result.output
    assert out1.read_bytes() == out2.read_bytes()
    header = json.loads(out1.read_text().splitlines()[0][2:])
    assert header["feasible"] is True
    assert_allclose(header["ell_c"], 2.0 + np.sqrt(7.0), rtol=1e-12)
    data = np.loadtxt(str(out1), delimiter=",", skiprows=2)
    assert data.shape == (81, 3)
    assert np.all(data[:, 1:] >= 0.0)


def test_fig4_json_carries_the_csv_header_and_rows(tmp_path):
    csv_out, json_out = tmp_path / "fig4.csv", tmp_path / "fig4.json"
    assert _invoke("run", "--preset", "fig4", "--out", str(csv_out)).exit_code == 0
    result = _invoke("run", "--preset", "fig4", "--out", str(json_out), "--format", "json")
    assert result.exit_code == 0, result.output
    payload = json.loads(json_out.read_text())
    header = json.loads(csv_out.read_text().splitlines()[0][2:])
    assert {key: payload[key] for key in header} == header
    assert payload["rows"] == np.loadtxt(str(csv_out), delimiter=",", skiprows=2).tolist()


def test_file_profile_gives_the_inline_rows(tmp_path):
    profile = {"catalog": "gaussian2d", "z": [0.3, 0.05], "L": 1.2}
    cfg = {
        "command": "amp2d",
        "profile": profile,
        "physics": {"k": 1.1, "ell": 0.05, "theta0": 2.5, "thetas": [0.4, 2.8]},
    }
    inline = _run_json(tmp_path, cfg)
    (tmp_path / "profile.json").write_text(json.dumps(profile))
    from_file = _run_json(tmp_path, dict(cfg, profile={"file": str(tmp_path / "profile.json")}))
    assert from_file == inline


def test_bad_profile_is_one_violation(tmp_path):
    (tmp_path / "array.json").write_text("[1, 2]")
    cases = [
        ({"file": str(tmp_path / "missing.json")}, "profile.file cannot be loaded"),
        ({"file": str(tmp_path / "array.json")}, "profile.file must hold a JSON object"),
        ("gaussian2d", "profile must be an object"),
    ]
    for profile, complaint in cases:
        cfg = dict(THREAD_CASES["amp2d"], profile=profile, output={"path": "x.csv"})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        result = _invoke("validate", "--config", str(path))
        assert result.exit_code == 2
        violations = json.loads(result.output)["violations"]
        assert len(violations) == 1 and violations[0].startswith(complaint), violations
    cfg = dict(THREAD_CASES["amp2d"], output={"path": "x.csv"})
    del cfg["profile"]
    assert validate_config(cfg)[1] == ["profile is required for this command"]


@pytest.mark.parametrize(
    "grid, complaint",
    [
        ([], "must be a nonempty array of numbers"),
        ([0.1, "a"], "must be a nonempty array of numbers"),
        ({"start": 0.1, "count": 3}, "range is missing stop"),
        ({"start": 0.1, "stop": 0.2, "count": 0}, "count must be a positive integer"),
        ({"start": 0.1, "stop": 0.2, "count": 2.5}, "count must be a positive integer"),
        ({"start": "0.1", "stop": 0.2, "count": 3}, "start/stop must be numbers"),
        ({"start": -0.1, "stop": 0.2, "count": 3}, "values must all be positive"),
        ("0.1:0.2", "must be an array or a start/stop/count range"),
    ],
)
def test_grid_violations(grid, complaint):
    cfg = dict(THREAD_CASES["sweep2d_kl"], output={"path": "x.csv"})
    cfg["physics"] = dict(cfg["physics"], grid=grid)
    assert validate_config(cfg)[1] == [f"physics.grid {complaint}"]


def test_sweep_2d_exact_rows_stop_at_the_support_edge(tmp_path):
    cfg = {
        "command": "sweep",
        "domain": "2d",
        "profile": {"catalog": "ex1", "z": 0.1, "alpha": 500.0, "L": 0.01},
        "physics": {
            "variable": "kl",
            "grid": [0.4, 0.5, 0.6],
            "ell": 0.001,
            "theta": np.pi / 3,
            "theta0": 4 * np.pi / 3,
            "methods": ["order2", "exact"],
        },
        "output": {"path": str(tmp_path / "s.csv"), "format": "csv"},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    result = _invoke("run", "--config", str(path))
    assert result.exit_code == 0, result.output
    lines = (tmp_path / "s.csv").read_text().splitlines()
    assert lines[0] == "kl,re_f,im_f,abs2_f,order,method"
    methods = [line.split(",")[-1] for line in lines[1:]]
    # exact is valid for k <= alpha, i.e. kl <= 0.5 here: 2 + 2 + 1 rows
    assert methods == ["order2", "exact", "order2", "exact", "order2"]


def test_amp2d_json_rows_match_the_api(tmp_path):
    thetas = [0.4, 2.8]
    cfg = {
        "command": "amp2d",
        "profile": {"catalog": "gaussian2d", "z": [0.3, 0.05], "L": 1.2},
        "physics": {"k": 1.1, "ell": 0.05, "theta0": 2.5, "thetas": thetas},
        "output": {"path": str(tmp_path / "a.json"), "format": "json"},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    result = _invoke("run", "--config", str(path))
    assert result.exit_code == 0, result.output
    payload = json.loads((tmp_path / "a.json").read_text())
    assert payload["columns"][0] == "theta"
    rows = payload["rows"]
    assert len(rows) == 4  # two angles x orders 1, 2
    prof = gaussian_slab_2d(0.3 + 0.05j, 1.2)
    config = ScatteringConfig2D(k=1.1, ell=0.05, theta0=2.5)
    expect = amplitude_2d(prof, config, 0.4, order=2).truncated
    row = rows[1]
    assert row[4] == 2 and row[5] == "order2"
    assert_allclose(row[1] + 1j * row[2], expect, rtol=1e-12)


def test_exact2d_rows_match_the_api(tmp_path):
    cfg = {
        "command": "exact2d",
        "profile": {"catalog": "ex1", "z": 0.1, "alpha": 500.0, "L": 0.01},
        "physics": {"k": 400.0, "ell": 0.001, "theta0": 4 * np.pi / 3, "thetas": [1.0, 2.0]},
    }
    rows = _run_json(tmp_path, cfg)
    assert [(r[0], r[4], r[5]) for r in rows] == [
        (theta, order, method)
        for theta in (1.0, 2.0)
        for order, method in ((0, "exact"), (1, "order1"), (2, "order2"))
    ]
    params = Ex1Params(z=0.1, alpha=500.0, L=0.01)
    prof = ex1_profile(0.1, 500.0, 0.01)
    config = ScatteringConfig2D(k=400.0, ell=0.001, theta0=4 * np.pi / 3)
    for row in rows:
        if row[5] == "exact":
            expect = ex1_exact(params, config, row[0])
        else:
            expect = amplitude_2d(prof, config, row[0], order=row[4]).truncated
        assert abs(expect) > 0
        assert_allclose(row[1] + 1j * row[2], expect, rtol=1e-12)


def test_amp3d_rows_match_the_api(tmp_path):
    cfg = {
        "command": "amp3d",
        "profile": {"catalog": "gaussian3d", "z": 2.0, "L": 1.5},
        "physics": {
            "k": 0.8, "ell": 0.3, "theta0": 0.4, "phi0": 0.7, "phi": 1.9,
            "thetas": [0.2, 2.5],
        },
    }
    rows = _run_json(tmp_path, cfg)
    assert [(r[0], r[4], r[5]) for r in rows] == [
        (0.2, 1, "order1"), (0.2, 2, "order2"), (2.5, 1, "order1"), (2.5, 2, "order2"),
    ]
    prof = gaussian_slab_3d(2.0, 1.5)
    config = ScatteringConfig3D(k=0.8, ell=0.3, theta0=0.4, phi0=0.7)
    for row in rows:
        expect = amplitude_3d(prof, config, Direction3D(row[0], 1.9), order=row[4])
        assert_allclose(row[1] + 1j * row[2], expect.truncated, rtol=1e-12)


def test_kernels_check_passes_then_fails_on_absurd_tol(tmp_path):
    # a smooth Gaussian slab, and ex1, whose one-sided spectrum kinks the
    # kernels at p - p' = alpha
    cases = {
        "gaussian2d": (
            {"catalog": "gaussian2d", "z": 0.3, "L": 1.2},
            {"k": 1.1, "ell": 0.05, "theta0": 2.5, "thetas": [0.4]},
        ),
        "ex1": (
            {"catalog": "ex1", "z": 0.5, "alpha": 1.0, "L": 1.0},
            {"k": 1.0, "ell": 0.1, "theta0": -np.pi / 5, "thetas": [np.pi / 3, 2.5]},
        ),
    }
    for name, (profile, physics) in cases.items():
        cfg = {
            "command": "kernels-check",
            "profile": profile,
            "physics": physics,
            "output": {"path": str(tmp_path / f"{name}.csv"), "format": "csv"},
        }
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        result = _invoke("run", "--config", str(path))
        assert result.exit_code == 0, (name, result.output)
        assert "max deviation" in result.output
        result = _invoke("run", "--config", str(path), "--tol", "1e-16")
        assert result.exit_code == 3, name


def test_dyson1d_rows_match_the_api(tmp_path):
    cfg = {
        "command": "dyson1d",
        "profile": {"catalog": "uniform1d", "n": 1.5},
        "physics": {"kls": [0.1, 0.2], "ell": 1.0},
        "output": {"path": str(tmp_path / "d.csv"), "format": "csv"},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    result = _invoke("run", "--config", str(path))
    assert result.exit_code == 0, result.output
    lines = (tmp_path / "d.csv").read_text().splitlines()
    assert [line.split(",")[-1] for line in lines[1:]] == [
        "R_left", "R_right", "T", "R_left", "R_right", "T",
    ]
    r_left, _, _ = scattering_1d(transfer_matrix_1d(constant_slab_1d(1.5), 0.1, 1.0))
    got = lines[1].split(",")
    assert_allclose(float(got[1]) + 1j * float(got[2]), r_left, rtol=1e-15)


# one small config per row-producing command and sweep shape
THREAD_CASES = {
    "amp2d": {
        "command": "amp2d",
        "profile": {"catalog": "gaussian2d", "z": [0.3, 0.05], "L": 1.2},
        "physics": {"k": 1.1, "ell": 0.05, "theta0": 2.5, "thetas": [0.4, 1.0, 2.8]},
    },
    "exact2d": {
        "command": "exact2d",
        "profile": {"catalog": "ex1", "z": 0.1, "alpha": 500.0, "L": 0.01},
        "physics": {"k": 400.0, "ell": 0.001, "theta0": 4.0, "thetas": [0.5, 1.0, 2.0]},
    },
    "amp3d": {
        "command": "amp3d",
        "profile": {"catalog": "gaussian3d", "z": 2.0, "L": 1.5},
        "physics": {"k": 0.8, "ell": 0.3, "theta0": 0.4, "phi0": 0.7, "phi": 1.9,
                    "thetas": [0.2, 1.0, 2.5]},
    },
    "kernels_check": {
        "command": "kernels-check",
        "profile": {"catalog": "gaussian2d", "z": 0.3, "L": 1.2},
        "physics": {"k": 1.1, "ell": 0.05, "theta0": 2.5, "thetas": [0.4, 2.0, 3.0]},
        "numerics": {"node_count": 21},
    },
    "dyson1d": {
        "command": "dyson1d",
        "profile": {"catalog": "uniform1d", "n": 1.5},
        "physics": {"kls": [0.1, 0.2, 0.4], "ell": 1.0},
    },
    "sweep2d_kl": {
        "command": "sweep",
        "domain": "2d",
        "profile": {"catalog": "ex1", "z": 0.1, "alpha": 500.0, "L": 0.01},
        "physics": {"variable": "kl", "grid": [0.2, 0.4, 0.6], "ell": 0.001,
                    "theta": 1.0, "theta0": 4.0, "methods": ["order1", "order2", "exact"]},
    },
    "sweep3d_kl": {
        "command": "sweep",
        "domain": "3d",
        "profile": {"catalog": "gaussian3d", "z": 3.0, "L": 2.0},
        "physics": {"variable": "kl", "grid": [0.05, 0.1, 0.2], "ell": 1.0,
                    "theta0": 0.0, "theta_values": [0.0, 2.0], "orders": [1, 2]},
    },
    "sweep3d_theta": {
        "command": "sweep",
        "domain": "3d",
        "profile": {"catalog": "gaussian3d", "z": 10.0},
        "physics": {
            "variable": "theta",
            "grid": {"start": 0.0, "stop": np.pi, "count": 8},
            "ell": 1.0,
            "kl": 0.2,
            "theta0": 0.0,
            "kL_values": [1.0],
            "orders": [2],
        },
    },
}


@pytest.mark.parametrize("case", sorted(THREAD_CASES))
def test_threads_do_not_change_bytes(tmp_path, case):
    cfg = dict(THREAD_CASES[case], output={"path": str(tmp_path / "t1.csv"), "format": "csv"})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert _invoke("run", "--config", str(path)).exit_code == 0
    for threads in ("2", "4"):
        out = tmp_path / f"t{threads}.csv"
        result = _invoke("run", "--config", str(path), "--threads", threads, "--out", str(out))
        assert result.exit_code == 0, result.output
        assert (tmp_path / "t1.csv").read_bytes() == out.read_bytes()
