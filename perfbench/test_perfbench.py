"""Self-tests of the benchmark: its checks catch perturbed outputs, failures are
counted, traced work counters repeat for a seed, and it refuses to run
without the program.  From the repository root (takes about five minutes):

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from run import run_pass, tail  # noqa: E402
from workloads import PRESETS, REFERENCE_DIR, Kernels2D, Task, compare_tables  # noqa: E402

COUNTERS = [
    m["name"]
    for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    if m["unit"] == "count"
]


def _offset(text, column, factor):
    """Scale one numeric cell of the row where that column peaks."""
    lines = text.splitlines()
    start = 2 if lines[0].startswith("# ") else 1
    rows = [line.split(",") for line in lines[start:]]
    i = max(range(len(rows)), key=lambda r: abs(float(rows[r][column])))
    rows[i][column] = repr(float(rows[i][column]) * factor)
    return "\n".join(lines[:start] + [",".join(r) for r in rows]) + "\n"


@pytest.mark.parametrize("preset", PRESETS)
def test_reference_tables_match_themselves(preset):
    text = (REFERENCE_DIR / f"{preset}.csv").read_text()
    assert compare_tables(text, text, 1e-8) is None


@pytest.mark.parametrize("preset, column", [("fig3", 1), ("fig6", 2), ("fig4", 2)])
def test_preset_row_offset_fails_but_in_tolerance_change_passes(preset, column):
    reference = (REFERENCE_DIR / f"{preset}.csv").read_text()
    assert compare_tables(_offset(reference, column, 1.0 + 1e-6), reference, 1e-8)
    nudged = _offset(reference, column, 1.0 + 1e-10)
    assert nudged != reference
    assert compare_tables(nudged, reference, 1e-8) is None


def test_kernel_deviation_above_check_tol_fails():
    def result(gap):
        closed = 0.3 - 0.2j
        kernels = closed * (1.0 + gap)
        return SimpleNamespace(rows=[
            (0.4, kernels.real, kernels.imag, abs(kernels) ** 2, 2, "kernels"),
            (0.4, closed.real, closed.imag, abs(closed) ** 2, 2, "closed"),
        ])

    assert Kernels2D.check((1e-5, result(1e-12))) is None
    assert "check_tol" in Kernels2D.check((1e-5, result(2e-5)))


def test_run_pass_counts_failed_and_raising_tasks():
    def boom():
        raise ValueError("no")

    tasks = [
        Task("good", lambda: 1, lambda out: None),
        Task("wrong", lambda: 2, lambda out: f"got {out}"),
        Task("raises", boom, lambda out: None),
    ]
    wall, latencies, failures = run_pass(tasks)
    assert len(latencies) == 3 and wall >= 0
    assert [f.split(":")[0] for f in failures] == ["wrong", "raises"]


@pytest.mark.parametrize("round_tasks, per_pass", [(48, 24), (192, 12)])
def test_tail_level_does_not_depend_on_the_number_of_rounds(round_tasks, per_pass):
    # one round of a fixed pattern: fast tasks and a few slow ones at the top
    one = [0.001 * (i % 7 + 1) for i in range(round_tasks - 3)] + [0.5, 0.6, 0.7]
    value, level, beyond = tail(one, round_tasks, per_pass)
    assert beyond == 10 and level == 100.0 * (round_tasks - 10) / round_tasks
    for rounds in (2, 3, 5):
        assert tail(one * rounds, round_tasks, per_pass) == (value, level, beyond)


def test_tail_of_small_rounds_is_the_slowest_tasks_median():
    # two passes of five presets: the last task is the slowest in both
    one = [0.03, 0.002, 6.0, 1.4, 7.5, 0.03, 0.002, 6.2, 1.5, 7.9]
    for rounds in (1, 2, 3):
        assert tail(one * rounds, 10, 5) == (7.7, 100.0, 0)


def _traced_counts(workload):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "11",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"]
    return {name: result["metrics"][name]["value"] for name in COUNTERS}


@pytest.mark.parametrize("workload", ["paper_presets", "sampled2d", "kernels2d", "dyson1d"])
def test_traced_counters_repeat_for_a_seed(workload):
    first = _traced_counts(workload)
    assert first == _traced_counts(workload)
    assert any(first.values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dyson1d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
