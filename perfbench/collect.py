"""Run the benchmark over several seeds, in one or more sets, and summarise each metric.

From the repository root:

    python3 perfbench/collect.py --seeds 1-10 --sets 2 --out perfbench/baseline.json

A set makes one untraced run per seed on every workload, workload by
workload; the sets run one after the other.  For each set and each
end-to-end metric it reports the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median, beside a third of
the metric's bound.  With two sets or more it also reports how far each later
set's median moved from the first set's, in the metric's worse direction, as
a share of the first median, beside the bound.  One traced run per workload
(first seed) follows the last set.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    record = json.loads((ROOT / ".perfbench" / f"result-{workload}-trace{trace}.json").read_text())
    return result, record


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def collect_set(workload, seeds, spec):
    """One untraced run per seed; the per-seed runs and each metric's quartiles."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values, runs, provenance = {}, [], None
    for seed in seeds:
        result, record = run(workload, seed, spec["run_seconds"], 0)
        provenance = record["provenance"]
        runs.append({"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
                     "failed": result["failed"], "rounds": record["rounds"],
                     "passes": record["passes"],
                     "task_ms_tail_percentile": record["task_ms_tail_percentile"],
                     "byte_identical": record["details"].get("byte_identical")})
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    end_to_end = {}
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median
        end_to_end[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                            "bound": bounds[name], "values": vals}
        flag = "" if spread < bounds[name] / 3 else "  above a third of the bound"
        print(f"{workload:14s} {name:14s} median {median:.6g} spread {spread:.4f}{flag}",
              flush=True)
    return {"runs": runs, "end_to_end": end_to_end, "provenance": provenance}


def worsening(first, later, better):
    """How far a later median is worse than the first, as a share of the first."""
    change = (later - first) / first
    return change if better == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--workloads", default=None, help="comma-separated; default all")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    sets = []
    for k in range(args.sets):
        print(f"set {k + 1} of {args.sets}", flush=True)
        sets.append({w: collect_set(w, args.seeds, spec) for w in workloads})

    summary = {"run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for workload in workloads:
        entry = dict(sets[0][workload])
        entry["repeat_sets"] = [s[workload] for s in sets[1:]]
        agreement = {}
        for name, m in metrics.items():
            first = entry["end_to_end"][name]["median"]
            worst = max(
                (worsening(first, s["end_to_end"][name]["median"], m["better"])
                 for s in entry["repeat_sets"]),
                default=None,
            )
            if worst is not None:
                agreement[name] = {"worse_by": worst, "bound": m["bound"],
                                   "within": worst <= m["bound"]}
                print(f"{workload:14s} {name:14s} later set worse by {worst:+.4f} "
                      f"(bound {m['bound']})", flush=True)
        entry["agreement"] = agreement
        traced, _ = run(workload, args.seeds[0], spec["run_seconds"], 1)
        entry["per_layer"] = {name: m["value"] for name, m in traced["metrics"].items()}
        entry["traced_seed"] = args.seeds[0]
        summary["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
