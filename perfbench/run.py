"""slabscat benchmark: one workload per run; end-to-end metrics, or a traced per-layer breakdown.

Run from the repository root:

    python3 perfbench/run.py --workload sampled2d --seed 7 --seconds 20 --trace 0

Workloads: paper_presets, sampled2d, kernels2d, dyson1d (see workloads.py and
the ``why`` of each in BENCHMARK.json).  The program is imported from
``src/`` of the checkout; nothing is installed.

Each run starts one worker process, serial (threads=1, BLAS at its default),
which sets up (imports, seeded inputs, one untimed warm-up task), prints
``ready``, and then times rounds of passes over the workload's task list.  A
round is a fixed number of passes (``round_passes`` in workloads.py).  The
first round always runs; each further round runs only if it is expected to end
within ``--seconds`` of the start.  Every task's output is checked, untimed.

``task_ms_tail`` is taken within each round, at the highest percentile with
ten task latencies beyond it, and the median over rounds is reported.  A
round has a fixed number of tasks, so the percentile level does not change
when the program gets faster and runs more rounds.  Where a round has ten
tasks or fewer (paper_presets), it is the slowest task's median latency.

``--trace 0`` prints every ``end_to_end`` metric of BENCHMARK.json.  Set-up
time is the median over three processes (the worker and two set-up-only
processes), each timed from its start to its ``ready`` line.

``--trace 1`` runs the same rounds and then one more pass with every public
function of the layers in layers.json wrapped (tracing.py), and prints every
``per_layer`` metric.  The counters of that pass repeat exactly for a seed.
``trace.overhead_s`` is that one traced pass's wall time minus the median
untraced pass: a single-sample difference, so on the fast workloads, where
tracing costs less than the pass-to-pass noise, it can be negative.

The last line of standard output is the JSON result; the lines before it
are a readable summary and the provenance.  The full record (per-task
latencies, provenance, byte identity of the preset tables) goes to
``.perfbench/result-<workload>-trace<k>.json`` and the spans of a traced pass
to ``.perfbench/trace-<workload>.npz``.
"""

import argparse
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
SETUP_SAMPLES = 3
WORKER_TIMEOUT_S = 170.0
TAIL_BEYOND = 10


# ---------------------------------------------------------------------------
# worker: set-up, timed passes, optional traced pass


def run_pass(tasks, tracer=None):
    """Run one pass; returns (wall seconds excluding checks, latencies, failures)."""
    latencies, failures = [], []
    check_s = 0.0
    start = time.perf_counter()
    for task in tasks:
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.task += 1
            tracer.active = True
        try:
            out = task.run()
            error = None
        except Exception as exc:  # a task that raises counts as failed
            error = f"raised {type(exc).__name__}: {exc}"
        finally:
            if tracer is not None:
                tracer.active = False
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        if error is None:
            try:
                error = task.check(out)
            except Exception as exc:  # so does a check that cannot run
                error = f"check raised {type(exc).__name__}: {exc}"
        check_s += time.perf_counter() - t1
        if error is not None:
            failures.append(f"{task.label}: {error}")
    return time.perf_counter() - start - check_s, latencies, failures


def _blas_threads():
    """Thread counts reported by the OpenBLAS libraries loaded in this process."""
    import ctypes

    found = {}
    with open("/proc/self/maps") as maps:
        libs = {m.group(1) for m in re.finditer(r"(/\S*openblas\S*\.so\S*)", maps.read())}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(lib).name] = fn()
                break
    return found


def provenance():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "threads": 1,
        "git_commit": commit,
    }


def worker(args):
    sys.path.insert(0, str(ROOT / "src"))
    import slabscat

    if Path(slabscat.__file__).resolve().parent != ROOT / "src" / "slabscat":
        raise SystemExit(f"perfbench: imported slabscat from {slabscat.__file__}, not src/")
    from tracing import Tracer
    from workloads import WORKLOADS

    (OUT / "out").mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, OUT / "out")
    workload.warm_up()
    print("ready", flush=True)
    if args.setup_only:
        return

    walls, latencies, failures = [], [], []
    tasks_per_pass = len(workload.pass_tasks())
    rounds = 0
    start = time.perf_counter()
    while True:
        for _ in range(workload.round_passes):
            wall, lat, failed = run_pass(workload.pass_tasks())
            walls.append(wall)
            latencies += lat
            failures += failed
        rounds += 1
        # run another round only if it should end within the time given
        if (time.perf_counter() - start) * (rounds + 1) / rounds > args.seconds:
            break

    report = {}
    if args.trace:
        tracer = Tracer()
        workload.wrap_eval = tracer.wrap_eval
        tracer.install()
        try:
            wall, lat, failed = run_pass(workload.pass_tasks(), tracer)
        finally:
            tracer.uninstall()
        failures += failed
        report["traced_latencies"] = lat
        tracer.save(OUT / f"trace-{args.workload}.npz")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        overhead = {"trace.overhead_s": wall - statistics.median(walls)}
        report["per_layer"] = {
            m["name"]: overhead[m["name"]] if m["name"] in overhead else tracer.metric(m["name"])
            for m in spec["per_layer"]
        }
        report["traced_wall_s"] = wall
        report["spans"] = len(tracer.span_start)

    report.update(
        walls=walls,
        latencies=latencies,
        failures=failures,
        tasks_per_pass=tasks_per_pass,
        round_passes=workload.round_passes,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,  # KiB to MiB
        provenance=provenance(),
        details=workload.details(),
    )
    print(json.dumps(report), flush=True)


# ---------------------------------------------------------------------------
# orchestrator: spawn processes, reduce, print


def spawn(args, setup_only):
    """Start one worker; returns (seconds from start to ready, its report or None)."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--worker",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + (["--setup-only"] if setup_only else [])
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or first != "ready\n":
        raise SystemExit(f"perfbench: worker failed (exit code {proc.returncode})")
    return ready_s, None if setup_only else json.loads(rest.strip().splitlines()[-1])


def tail(latencies, round_tasks, tasks_per_pass):
    """Median over rounds of each round's tail: (value, level %, beyond).

    A round's tail is the highest percentile of its round_tasks latencies
    with TAIL_BEYOND samples above it.  With TAIL_BEYOND tasks or fewer in a
    round no percentile qualifies; then the slowest task's median latency
    over all passes is taken, reported as p100 with zero samples beyond it.
    """
    if round_tasks <= TAIL_BEYOND:
        per_task = [latencies[i::tasks_per_pass] for i in range(tasks_per_pass)]
        return max(statistics.median(t) for t in per_task), 100.0, 0
    rounds = [
        sorted(latencies[i:i + round_tasks]) for i in range(0, len(latencies), round_tasks)
    ]
    level = 100.0 * (round_tasks - TAIL_BEYOND) / round_tasks
    value = statistics.median(r[round_tasks - TAIL_BEYOND - 1] for r in rounds)
    return value, level, TAIL_BEYOND


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper_presets", "sampled2d", "kernels2d", "dyson1d"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.worker:
        return worker(args)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "slabscat" / "__init__.py").is_file() or not spec_path.is_file():
        raise SystemExit("perfbench: run from a slabscat checkout with src/slabscat and BENCHMARK.json")
    spec = json.loads(spec_path.read_text())

    setup = [spawn(args, setup_only=True)[0] for _ in range(SETUP_SAMPLES - 1)] if not args.trace else []
    ready_s, report = spawn(args, setup_only=False)
    setup.append(ready_s)

    latencies = report["latencies"]
    round_tasks = report["round_passes"] * report["tasks_per_pass"]
    attempted = len(latencies) + len(report.get("traced_latencies", []))
    failed = len(report["failures"])
    tail_s, tail_level, beyond = tail(latencies, round_tasks, report["tasks_per_pass"])
    if args.trace:
        values, group = report["per_layer"], spec["per_layer"]
    else:
        group = spec["end_to_end"]
        values = {
            "wall_s": statistics.median(report["walls"]),
            "task_ms_p50": 1e3 * statistics.median(latencies),
            "task_ms_tail": 1e3 * tail_s,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": report["peak_rss_mb"],
            "ok_frac": (attempted - failed) / attempted,
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in group}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(report["walls"]),
        "tasks_per_pass": report["tasks_per_pass"],
        "round_passes": report["round_passes"],
        "rounds": len(report["walls"]) // report["round_passes"],
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "task_ms_tail_percentile": tail_level,
        "task_ms_tail_beyond": beyond,
        "setup_samples_s": setup,
        "pass_walls_s": report["walls"],
        "task_latencies_s": latencies,
        **({"traced_task_latencies_s": report["traced_latencies"]} if args.trace else {}),
        "failures": report["failures"],
        "metrics": metrics,
        **{k: report[k] for k in ("provenance", "details", "traced_wall_s", "spans") if k in report},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    for failure in report["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(
        f"{args.workload} seed={args.seed}: {record['rounds']} rounds x "
        f"{record['round_passes']} passes x {record['tasks_per_pass']} tasks"
        f"{' + 1 traced pass' if args.trace else ''}, {failed} of {attempted} failed "
        f"(failed_frac {record['failed_frac']:.3g})"
    )
    print(
        f"task_ms_tail is p{tail_level:.1f} of each round's {round_tasks} task "
        f"latencies ({beyond} beyond it), median over {record['rounds']} rounds"
    )
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    print("provenance: " + json.dumps(
        {**record.get("provenance", {}), "seed": args.seed, "rounds": record["rounds"],
         "passes": record["passes"], "tasks_per_pass": record["tasks_per_pass"],
         "tail_percentile": tail_level}
    ))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
