"""Guards on the public surface: exported names, the benchmark's entry points,
error handling and the import.

perfbench/layers.json lists the functions the traced benchmark run wraps, and
the tracer reads some of their arguments by position; a rename or deletion
there would break the benchmark without failing any numerical test.
"""

import ast
import importlib
import inspect
import json
import subprocess
import sys
from pathlib import Path

import slabscat

MODULES = (
    "numerics", "profiles", "amp2d", "amp3d", "exactborn", "kernels", "cloak", "dyson1d", "cli",
)
LAYERS = json.loads((Path(__file__).parents[1] / "perfbench" / "layers.json").read_text())

# positional parameters the tracer and the workloads rely on
POSITIONS = {
    ("numerics", "transform_samples_1d"): ("values", "radius", "p"),
    ("profiles", "moment_2d"): ("profile", "l", "p"),
    ("profiles", "moment_3d"): ("profile", "l", "pvec"),
    ("profiles", "spatial_moment_y"): ("profile", "l", "y", "k"),
    ("profiles", "separable_profile"): ("axial", "transverse", "decay_radius"),
    ("profiles", "coated_profile"): ("slab", "geometry", "z1", "z2"),
    ("kernels", "kernel_matrix"): ("profile", "j", "a", "b", "grid"),
    ("cli", "validate_config"): ("raw",),
    ("cli", "execute"): ("cfg",),
    ("cli", "write_result"): ("result", "path", "out_format"),
    ("cloak", "verify_invisibility"): ("coated", "k", "y_grid", "theta_grid", "theta0"),
    ("cloak", "design_geometry"): ("moments", "materials", "ell", "y_grid"),
    ("amp2d", "amplitude_2d"): ("profile", "config", "theta"),
    ("amp2d", "f1_2d"): ("profile", "config", "theta"),
    ("amp2d", "f2_2d"): ("profile", "config", "theta"),
    ("dyson1d", "transfer_matrix_1d"): ("profile", "k", "ell"),
    ("dyson1d", "scattering_1d"): ("matrix",),
}
# keyword parameters (and dataclass fields) the workloads pass by name
KEYWORDS = {
    ("profiles", "separable_profile"): ("transverse_transform", "descriptor"),
    ("amp2d", "amplitude_2d"): ("order",),
    ("dyson1d", "transfer_matrix_1d"): ("method",),
    ("profiles", "Profile2D"): ("eval", "decay_radius", "descriptor"),
    ("cloak", "CoatingMaterials"): ("z1", "z2"),
    ("cloak", "SlabMomentPair"): ("w0bar", "w1bar"),
    ("amp2d", "ScatteringConfig2D"): ("k", "ell", "theta0"),
    ("dyson1d", "Profile1D"): ("eval", "descriptor"),
}


def test_every_exported_name_resolves():
    missing = [name for name in slabscat.__all__ if not hasattr(slabscat, name)]
    for module_name in MODULES:
        module = importlib.import_module(f"slabscat.{module_name}")
        missing += [
            f"{module_name}.{name}" for name in module.__all__ if not hasattr(module, name)
        ]
    assert missing == []


def test_traced_functions_exist_with_the_arguments_the_tracer_reads():
    for layer, names in LAYERS["traced"].items():
        module = importlib.import_module(f"slabscat.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name} is gone"
    for (layer, name), expected in POSITIONS.items():
        function = getattr(importlib.import_module(f"slabscat.{layer}"), name)
        params = list(inspect.signature(function).parameters)
        assert tuple(params[: len(expected)]) == expected, f"{layer}.{name}{tuple(params)}"
    for (layer, name), expected in KEYWORDS.items():
        function = getattr(importlib.import_module(f"slabscat.{layer}"), name)
        params = inspect.signature(function).parameters
        assert set(expected) <= set(params), f"{layer}.{name}{tuple(params)}"


def test_only_the_cli_handles_exceptions():
    # the library lets every error propagate; only the command line turns
    # errors into exit codes, so any other handler must re-raise
    swallowing = []
    for path in Path(slabscat.__file__).parent.glob("*.py"):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ExceptHandler):
                if not any(isinstance(inner, ast.Raise) for inner in ast.walk(node)):
                    swallowing.append(f"{path.name}:{node.lineno}")
    assert swallowing == []


def test_import_does_not_load_the_ode_solver():
    src = str(Path(slabscat.__file__).parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import slabscat; "
    code += "print('scipy.integrate' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60
    )
    assert out.stdout.strip() == "False"


def test_a_failing_property_fails_the_run_cleanly(tmp_path):
    # under the suite's settings (warnings are errors) a failing hypothesis
    # property is an ordinary failure: exit code 1, not an INTERNALERROR (3)
    (tmp_path / "test_property.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 0\n"
    )
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(pyproject),
         "--rootdir", str(tmp_path), "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 1, out.stdout + out.stderr
    assert "INTERNALERROR" not in out.stdout + out.stderr
