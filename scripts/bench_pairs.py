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
adds runs to the entry.  After the pairs it prints one line per end-to-end
metric over all of the entry's pairs: each side's median, the relative
change and the pairs the change won.  A second line per metric gives the
verdict of the pairs, also kept under the entry's `verdict`: whether a gain
may be claimed (the change won at least 9 of 10 pairs and its median is
better than the parent's by more than the parent's interquartile range),
and whether the change median is within the metric's relative `bound` of
the parent median, or unresolved where the parent's interquartile range is
wider than the bound and not every change run beats every parent run.

Next to every run a fixed reference kernel is timed in a fresh child on one
BLAS thread: one `eigh` of a seeded 256 x 256 symmetric matrix and one
`json.dumps` of 10^5 seeded floats, best of 5.  It is kept as the run's
`reference_s`, and each side's median of it under `summary.reference_s`,
so that runs made at different times, on a faster or slower spell of a
shared machine, can be read against each other.
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
RUN_FIELDS = ("correct", "attempted", "failed", "first", "reference_s")
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
REFERENCE_KERNEL = """
import json, time
import numpy as np
rng = np.random.default_rng(0)
a = rng.standard_normal((256, 256))
a += a.T
floats = rng.standard_normal(100_000).tolist()
best = float("inf")
for _ in range(5):
    start = time.perf_counter()
    np.linalg.eigh(a)
    json.dumps(floats)
    best = min(best, time.perf_counter() - start)
print(best)
"""


def end_to_end(checkout: Path) -> dict[str, bool]:
    """The end-to-end metrics of the checkout's BENCHMARK.json, each with
    whether lower is better."""
    return {m["name"]: m["better"] == "lower" for m in _spec(checkout)}


def bounds(checkout: Path) -> dict[str, float]:
    """The relative bound of each end-to-end metric of the checkout's
    BENCHMARK.json."""
    return {m["name"]: m["bound"] for m in _spec(checkout)}


def _spec(checkout: Path) -> list[dict]:
    return json.loads((checkout / "BENCHMARK.json").read_text())["end_to_end"]


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


def reference_s() -> float:
    """The reference kernel's best time in s, in a fresh child on one BLAS
    thread."""
    env = dict(os.environ, **{name: "1" for name in BLAS_THREADS})
    proc = subprocess.run(
        [sys.executable, "-c", REFERENCE_KERNEL],
        env=env, capture_output=True, text=True, check=True,
    )
    return float(proc.stdout)


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
        # entries recorded before the kernel was timed have no reference
        timed = {side: [r["reference_s"] for r in runs[side] if "reference_s" in r]
                 for side in SIDES}
        if all(timed.values()):
            out["reference_s"] = {side: float(np.median(t)) for side, t in timed.items()}
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


def summary_lines(summ: dict, lower_is_better: dict[str, bool]) -> list[str]:
    """One line per end-to-end metric of a summary with pairs."""
    lines = []
    for metric in lower_is_better:
        parent = summ["parent"][metric]["median"]
        change = summ["change"][metric]["median"]
        relative = f"{(change - parent) / parent:+.1%}" if parent else "n/a"
        lines.append(
            f"{metric}: parent {parent:.6g}, change {change:.6g} ({relative}), "
            f"change wins {summ['change_wins'][metric]} of {summ['pairs']}"
        )
    return lines


def verdict_lines(
    runs: dict[str, list[dict]],
    summ: dict,
    lower_is_better: dict[str, bool],
    bound: dict[str, float],
) -> list[str]:
    """One verdict line per end-to-end metric of a summary with pairs: the
    gain claim and the bound check described in the module docstring."""
    lines = []
    for metric, lower in lower_is_better.items():
        parent, change = summ["parent"][metric], summ["change"][metric]
        # how much better the change median is, and the parent's spread
        gain = (parent["median"] - change["median"] if lower
                else change["median"] - parent["median"])
        spread = parent["q3"] - parent["q1"]
        wins, pairs = summ["change_wins"][metric], summ["pairs"]
        claim = 10 * wins >= 9 * pairs and gain > spread
        allowed = bound[metric] * abs(parent["median"])
        # the runs' values with higher meaning better
        score = {side: [r[metric] * (-1 if lower else 1) for r in runs[side]]
                 for side in SIDES}
        beats_all = min(score["change"]) > max(score["parent"])
        if spread > allowed and not beats_all:
            within = "unresolved"
        else:
            within = "within" if gain >= -allowed else "outside"
        lines.append(
            f"{metric}: gain claimed {'yes' if claim else 'no'} "
            f"(won {wins} of {pairs}, needs {(9 * pairs + 9) // 10}; median better "
            f"by {gain:.6g}, parent IQR {spread:.6g}); "
            f"bound {bound[metric]:.0%}: {within}"
        )
    return lines


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
    bound = bounds(args.change)

    def alternate(count: int, done: int, runs: dict, trace: bool) -> None:
        for i in range(count):
            order = SIDES if (done + i) % 2 == 0 else SIDES[::-1]
            for side in order:
                run = run_once(checkouts[side], args.workload, args.seed,
                               args.seconds, trace)
                run["first"] = side == order[0]
                run["reference_s"] = reference_s()
                runs[side].append(run)
                shown = "" if trace else f": op_p50_s {run['op_p50_s']:.5f}"
                shown += f", reference_s {run['reference_s']:.5f}"
                print(f"{args.workload} seed {args.seed} "
                      f"{'trace' if trace else 'pair'} {i + 1} {side}{shown}", flush=True)
            entry["summary"] = summary(entry["runs"], trace_runs, lower_is_better)
            args.out.write_text(json.dumps(bench, indent=1) + "\n")

    alternate(args.pairs, len(entry["runs"]["parent"]), entry["runs"], False)
    if entry["runs"]["parent"]:
        entry["verdict"] = verdict_lines(
            entry["runs"], entry["summary"], lower_is_better, bound
        )
        args.out.write_text(json.dumps(bench, indent=1) + "\n")
        lines = summary_lines(entry["summary"], lower_is_better) + entry["verdict"]
        print("\n".join(lines), flush=True)
    alternate(args.trace_runs, len(trace_runs["parent"]), trace_runs, True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
