"""Alternating parent/change runs of the benchmark, recorded as a BENCH file.

    python3 scripts/bench_pairs.py --parent <checkout> --change <checkout> \
        --workload ladder_modes --seed 7 --pairs 10 --seconds 10 \
        [--trace-runs 3] --out BENCH_9.json

Each pair runs `perfbench/run.py` once in each checkout, the side that runs
first alternating from pair to pair.  Every run's end-to-end metrics (its
`op_p50_s` is that run's median operation time) are appended to the
workload's entry in `--out`, keyed `<workload>/seed<seed>`, together with
each side's median and quartiles, the pairs the change won on each
end-to-end metric (`change_wins`; `change_wins_op_p50_s` repeats the
`op_p50_s` count), and the machine and library versions.  The end-to-end
metrics and whether lower or higher is better come from `end_to_end` in
the change checkout's `BENCHMARK.json`.  With `--trace-runs K`, K traced
runs (`--trace 1`) per side follow the pairs, alternating in the same way;
their per-layer metrics are kept under `trace_runs` and each metric's
median per side under `summary.trace`.  Running again with the same key
adds runs to the entry.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

SIDES = ("parent", "change")
RUN_FIELDS = ("correct", "attempted", "failed", "first")


def end_to_end(checkout: Path) -> dict[str, bool]:
    """The end-to-end metrics of the checkout's BENCHMARK.json, each with
    whether lower is better."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}


def run_once(
    checkout: Path, workload: str, seed: int, seconds: float, trace: bool = False
) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    run = {name: m["value"] for name, m in result["metrics"].items()}
    run.update(correct=result["correct"], attempted=result["attempted"],
               failed=result["failed"])
    return run


def summary(
    runs: dict[str, list[dict]],
    trace_runs: dict[str, list[dict]],
    lower_is_better: dict[str, bool],
) -> dict:
    out = {}
    pairs = list(zip(runs["parent"], runs["change"]))
    if pairs:
        for side in SIDES:
            for metric in lower_is_better:
                q1, med, q3 = np.percentile([r[metric] for r in runs[side]], [25, 50, 75])
                out.setdefault(side, {})[metric] = {"median": med, "q1": q1, "q3": q3}
        # ties count for neither side
        out["change_wins"] = {
            metric: sum((c[metric] < p[metric]) if lower else (c[metric] > p[metric])
                        for p, c in pairs)
            for metric, lower in lower_is_better.items()
        }
        out["change_wins_op_p50_s"] = out["change_wins"]["op_p50_s"]
    out["pairs"] = len(pairs)
    traced = {side: trace_runs[side] for side in SIDES if trace_runs[side]}
    if traced:
        # per-layer medians; the run's bookkeeping fields are not metrics
        out["trace"] = {
            side: {name: float(np.median([r[name] for r in side_runs]))
                   for name in side_runs[0] if name not in RUN_FIELDS}
            for side, side_runs in traced.items()
        }
    return out


def machine() -> dict:
    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        names = [ln.split(":", 1)[1].strip() for ln in cpuinfo.read_text().splitlines()
                 if ln.startswith("model name")]
        cpu = names[0] if names else cpu
    return {"platform": platform.platform(), "cpu": cpu,
            "cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace-runs", type=int, default=0,
                        help="traced runs per side after the pairs")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    bench = json.loads(args.out.read_text()) if args.out.exists() else {}
    bench["machine"] = machine()
    entry = bench.setdefault("workloads", {}).setdefault(
        f"{args.workload}/seed{args.seed}",
        {"seconds": args.seconds, "runs": {side: [] for side in SIDES}},
    )
    if entry["seconds"] != args.seconds:
        parser.error(f"entry was run at {entry['seconds']} s, not {args.seconds} s")
    trace_runs = entry.setdefault("trace_runs", {side: [] for side in SIDES})
    checkouts = {"parent": args.parent, "change": args.change}
    lower_is_better = end_to_end(args.change)

    def alternate(count: int, done: int, runs: dict, trace: bool) -> None:
        for i in range(count):
            order = SIDES if (done + i) % 2 == 0 else SIDES[::-1]
            for side in order:
                run = run_once(checkouts[side], args.workload, args.seed,
                               args.seconds, trace)
                run["first"] = side == order[0]
                runs[side].append(run)
                shown = "" if trace else f": op_p50_s {run['op_p50_s']:.5f}"
                print(f"{args.workload} seed {args.seed} "
                      f"{'trace' if trace else 'pair'} {i + 1} {side}{shown}", flush=True)
            entry["summary"] = summary(entry["runs"], trace_runs, lower_is_better)
            args.out.write_text(json.dumps(bench, indent=1) + "\n")

    alternate(args.pairs, len(entry["runs"]["parent"]), entry["runs"], False)
    alternate(args.trace_runs, len(trace_runs["parent"]), trace_runs, True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
