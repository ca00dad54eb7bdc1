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
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


def _owned_nodes(tree):
    """(node, name of the innermost function or class around it) for every node of tree."""
    stack = [(tree, "<module>")]
    while stack:
        node, owner = stack.pop()
        yield node, owner
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            owner = node.name
        stack.extend((child, owner) for child in ast.iter_child_nodes(node))


def _is_positive_finite_test(node):
    """A comparison ``0 < x < inf`` (inf, np.inf or math.inf)."""
    if not (isinstance(node, ast.Compare) and [type(op) for op in node.ops] == [ast.Lt] * 2):
        return False
    last = node.comparators[-1]
    zero = isinstance(node.left, ast.Constant) and node.left.value == 0
    return zero and getattr(last, "attr", getattr(last, "id", None)) == "inf"


def test_each_input_rule_is_written_once():
    # the positive-finite rule lives in numerics._positive_finite and the
    # grazing tolerance in amp2d; a copy elsewhere drifts from its message
    positive_finite, grazing = [], set()
    for path in sorted(Path(slabscat.__file__).parent.glob("*.py")):
        for node, owner in _owned_nodes(ast.parse(path.read_text())):
            if _is_positive_finite_test(node):
                positive_finite.append(f"{path.name}:{owner}")
            names = [getattr(node, "id", None), getattr(node, "attr", None)]
            if isinstance(node, ast.ImportFrom):
                names += [alias.name for alias in node.names]
            if "_GRAZING_TOL" in names:
                grazing.add(path.name)
    assert positive_finite == ["numerics.py:_positive_finite"]
    assert grazing == {"amp2d.py"}



# the refusal message of each rule the CLI shares with a library type, as a
# pattern, and the one module that may write it
_SHARED_RULES = {
    r"must lie in \[0, pi\]": "amp3d.py",  # a polar angle
    r"must lie in \[0, 2 pi\)": "amp3d.py",  # an observation azimuth
    r"must differ": "cloak.py",  # two coating contrasts
    r"integer.*(>=|at least)": "numerics.py",  # the floor of a count
}


def test_each_rule_shared_with_the_cli_is_written_once():
    # the CLI calls the library's check with its field label; a copy of the
    # message elsewhere is a second copy of the rule.  Only profiles reads a
    # CATALOG entry (its parameter table): elsewhere the catalog is listed
    homes = {pattern: set() for pattern in _SHARED_RULES}
    catalog_readers = set()
    for path in sorted(Path(slabscat.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                for pattern in _SHARED_RULES:
                    if re.search(pattern, node.value):
                        homes[pattern].add(path.name)
            value = getattr(node, "value", None)
            if isinstance(node, ast.Subscript) and "CATALOG" in (
                getattr(value, "id", None), getattr(value, "attr", None)
            ):
                catalog_readers.add(path.name)
    assert homes == {pattern: {home} for pattern, home in _SHARED_RULES.items()}
    assert catalog_readers == {"profiles.py"}


def test_momenta_reach_a_moment_by_one_path():
    # moment_2d, moment_3d and _convolution_moment share one body: only it
    # checks transform momenta and calls the sampled transform
    callers = {}
    profiles = Path(slabscat.__file__).parent / "profiles.py"
    for node, owner in _owned_nodes(ast.parse(profiles.read_text())):
        name = getattr(getattr(node, "func", None), "id", None)
        if name == "_check_finite":
            name += f"({getattr(node.args[1], 'value', None)})"  # what it checks
        callers.setdefault(name, []).append(owner)
    assert callers["_sampled_transform"] == ["_moment"]
    assert callers["_check_finite(transform momenta)"] == ["_moment"]

def _private_names_defined(stmt):
    """The private (single-underscore) names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        names = {stmt.name}
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = {node.id for target in targets for node in ast.walk(target)
                 if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    else:
        return set()
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def test_every_private_top_level_name_is_used_in_src():
    # a private function, class or constant that nothing else in the package
    # refers to is dead code (a test oracle belongs under tests/)
    defined, used = {}, set()
    for path in sorted(Path(slabscat.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            names = _private_names_defined(stmt)
            defined.update((name, f"{path.name}:{stmt.lineno} {name}") for name in names)
            nodes = list(ast.walk(stmt))
            refs = {node.id for node in nodes
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            refs |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
            used |= refs - names  # a definition does not count as its own use
    assert sorted(where for name, where in defined.items() if name not in used) == []


def test_cli_numerics_defaults_are_the_librarys():
    # the CLI repeats the library's defaults in one table (check_tol, the
    # kernels-check gate, is the CLI's own); they must not drift apart
    numerics, kernels, dyson1d, cli = (
        importlib.import_module(f"slabscat.{name}")
        for name in ("numerics", "kernels", "dyson1d", "cli")
    )

    def default(fn, name):
        return inspect.signature(fn).parameters[name].default

    node_counts = {
        default(kernels.amplitude_from_kernels, "node_count"),
        default(kernels.momentum_grid, "count"),
    }
    assert len(node_counts) == 1
    library = {
        "rel_tol": numerics.QuadratureSpec().rel_tol,
        "node_count": node_counts.pop(),
        "max_terms": default(dyson1d.transfer_matrix_1d, "max_terms"),
        "series_tol": default(dyson1d.transfer_matrix_1d, "tol"),
    }
    assert {key: value for key, value in cli._DEFAULT_NUMERICS.items()
            if key != "check_tol"} == library


_MUTABLE_CALLS = {"dict", "list", "set", "defaultdict", "Lock", "RLock"}


def _is_mutable(value):
    """A dict, list or set display, or a call that makes a container or a lock."""
    if isinstance(value, (ast.Dict, ast.List, ast.Set)):
        return True
    if isinstance(value, ast.Call):
        func = value.func
        return getattr(func, "id", getattr(func, "attr", None)) in _MUTABLE_CALLS
    return False


def test_no_module_level_mutable_state():
    # a module-level container or lock is shared by every caller and thread;
    # caches belong to the object whose value they hold (a profile's samples),
    # so only UPPER_CASE tables and __all__ may be bound to one
    found = []
    for path in sorted(Path(slabscat.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets = [stmt.target]
            else:
                continue
            if not _is_mutable(stmt.value):
                continue
            names = [node.id for target in targets for node in ast.walk(target)
                     if isinstance(node, ast.Name)]
            found += [f"{path.name}:{stmt.lineno} {name}" for name in names
                      if name != "__all__" and name != name.upper()]
    assert found == []


def test_import_does_not_load_the_ode_solver():
    # scipy is a test dependency only: neither the import, nor a 1D transfer
    # matrix by either method, nor a sampled transform (the NUFFT runs on
    # numpy's FFT), nor a tabulated profile and its moment loads any of it
    src = str(Path(slabscat.__file__).parents[1])
    scipy_loaded = "print(any(m.split('.')[0] == 'scipy' for m in sys.modules)); "
    code = f"import sys; sys.path.insert(0, {src!r}); import slabscat; " + scipy_loaded
    code += "slab = slabscat.constant_slab_1d(1.5); "
    code += "methods = ('series', 'direct'); "
    code += "[slabscat.transfer_matrix_1d(slab, 1.0, 0.5, method=m) for m in methods]; "
    code += scipy_loaded
    code += "slabscat.numerics.transform_samples_1d([1.0] * 9, 1.0, 0.5); " + scipy_loaded
    code += "from dataclasses import replace; from slabscat.profiles import sampled_profile; "
    code += "table = sampled_profile([0.0, 0.5, 1.0], [-1.0, 0.0, 1.0], [[1, 2, 1]] * 3, 2.0); "
    code += "table = replace(table, sample_count=128); "
    code += "slabscat.moment_2d(table, 0, 0.3, 1.0); " + scipy_loaded
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60
    )
    assert out.stdout.split() == ["False"] * 4


@pytest.mark.slow
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
