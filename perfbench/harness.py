"""Closed-loop measurement of one workload: one client, one process, the
next operation starts when the last one has finished and been checked.

A run repeats whole passes over the workload's seeded input set until
`seconds` have been measured, so every run sees each input equally often.
Garbage is collected before each operation, outside the timed region.

Times are reported at a reference machine speed.  On small shared VMs the
CPU speed drifts by 15-25 % in episodes of 10-20 s, which moved the median
of identical runs by more than 10 %.  A fixed probe, independent of fluxq,
runs between operations; each operation's wall time is scaled by
PROBE_REF_S over the probe times around it.  The raw median is printed in
the diagnostics line.
"""
from __future__ import annotations

import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import tracing
import workloads

WORKLOADS = workloads.BUILDERS
SETUP_RUNS = 5  # child processes timed per run; setup_s is their median
PROBE_EVERY_S = 0.5
PROBE_REF_S = 0.020  # probe time that defines the reference speed


@contextlib.contextmanager
def workspace(root: Path):
    """A private directory for generated netlists, removed on exit."""
    base = root / ".perfbench_work"
    path = base / str(os.getpid())
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()


def setup(
    workload: str, seed: int, workdir: Path, smoke: bool
) -> list[workloads.Operation]:
    """Generates the inputs and their references, then warms up with one
    operation of the smoke-sized instance: same code paths, lazy imports
    and first-call costs, without paying a full-size operation per set-up."""
    ops = WORKLOADS[workload](seed, workdir, smoke)
    warm_dir = workdir / "warmup"
    warm_dir.mkdir()
    warm = WORKLOADS[workload](seed, warm_dir, True)[0]
    with contextlib.suppress(Exception, SystemExit):
        warm.run()
    # Objects alive now live for the whole run; freezing them keeps the
    # collection before each operation short.
    gc.collect()
    gc.freeze()
    return ops


def drift_probe() -> float:
    """Fixed work, independent of fluxq, whose time gauges how fast the
    machine runs right now (about 20 ms): interpreter arithmetic, object
    allocation, small numpy calls and BLAS.  Each part alone tracked the
    drift of some workloads and not others; their sum tracked all four."""
    start = perf_counter()
    total = 0
    for i in range(50_000):
        total += i * i
    table = {str(i): i for i in range(30_000)}
    total += sum(table.values())
    x = np.ones(64)
    for _ in range(2_000):
        x = np.sqrt(x + 1.0)
    a = np.full((192, 192), 1.0 / 192)
    for _ in range(8):
        a = a @ a
    return perf_counter() - start


def time_setup(workload: str, seed: int, root: Path, smoke: bool) -> list[float]:
    """Wall times, at reference speed, of fresh processes that start the
    interpreter, import numpy, scipy and fluxq, generate the inputs and
    warm up."""
    argv = [
        sys.executable,
        str(Path(__file__).resolve().parent / "run.py"),
        "--setup-only",
        "--workload",
        workload,
        "--seed",
        str(seed),
    ] + (["--smoke"] if smoke else [])
    times = []
    for _ in range(1 if smoke else SETUP_RUNS):
        before = drift_probe()
        start = perf_counter()
        subprocess.run(argv, cwd=root, check=True, timeout=170, stdout=subprocess.DEVNULL)
        wall = perf_counter() - start
        times.append(wall * 2 * PROBE_REF_S / (before + drift_probe()))
    return times


@dataclass
class Measurement:
    times: list[float] = field(default_factory=list)  # raw wall seconds
    starts: list[float] = field(default_factory=list)
    pass_of_op: list[int] = field(default_factory=list)
    probes: list[tuple[float, float]] = field(default_factory=list)  # (stamp, s)
    failed: int = 0
    wrong: int = 0
    checked: int = 0
    passes: int = 0
    errors: Counter = field(default_factory=Counter)

    def probe(self) -> None:
        self.probes.append((perf_counter(), drift_probe()))

    def scaled_times(self) -> np.ndarray:
        """Each operation's time at reference speed, gauged by the mean of
        the last probe before it and the first probe after it."""
        stamps = [s for s, _ in self.probes]
        values = [v for _, v in self.probes]
        out = np.empty(len(self.times))
        for i, (start, took) in enumerate(zip(self.starts, self.times)):
            after = bisect_right(stamps, start)
            gauge = 0.5 * (values[after - 1] + values[after])
            out[i] = took * PROBE_REF_S / gauge
        return out


def measure(
    ops: list[workloads.Operation],
    seconds: float,
    tracer: tracing.Tracer | None = None,
) -> Measurement:
    """Whole passes over `ops` until `seconds` have elapsed.  An exception
    or a failed check counts the operation as failed; neither stops the run."""
    m = Measurement()
    m.probe()
    start = perf_counter()
    while True:
        if tracer is not None:
            tracer.pass_index = m.passes
        for op in ops:
            if perf_counter() - m.probes[-1][0] >= PROBE_EVERY_S:
                m.probe()
            gc.collect()
            m.pass_of_op.append(m.passes)
            t0 = perf_counter()
            m.starts.append(t0)
            try:
                result = op.run()
            except (Exception, SystemExit) as exc:
                m.times.append(perf_counter() - t0)
                m.failed += 1
                m.errors[f"{type(exc).__name__} in run"] += 1
                continue
            m.times.append(perf_counter() - t0)
            m.checked += 1
            try:
                op.check(result)
            except Exception as exc:
                m.failed += 1
                m.wrong += 1
                m.errors[f"{op.name}: {exc}"] += 1
            result = None  # not alive during the next operation
        m.passes += 1
        if perf_counter() - start >= seconds:
            m.probe()
            return m


def end_to_end(m: Measurement, setup_s: float) -> dict[str, float]:
    times = m.scaled_times()
    return {
        "op_p50_s": float(np.median(times)),
        "ops_per_s": len(times) / float(times.sum()),
        "ok_frac": (len(times) - m.failed) / len(times),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_layers(
    ops: list[workloads.Operation], seconds: float, plain: Measurement
) -> tuple[Measurement, dict[str, float]]:
    """A traced measurement and its per-layer metrics, at reference speed."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = measure(ops, seconds, tracer)
    finally:
        tracer.uninstall()
    scaled = traced.scaled_times()
    ratio = scaled / np.asarray(traced.times)
    owner = np.asarray(traced.pass_of_op)
    pass_scale = [float(np.median(ratio[owner == k])) for k in range(traced.passes)]
    values = tracing.layer_metrics(tracer, len(ops), pass_scale)
    values["trace.overhead_frac"] = float(
        np.median(scaled) / np.median(plain.scaled_times()) - 1.0
    )
    return traced, values


def main(
    workload: str, seed: int, seconds: float, trace: bool, root: Path, smoke: bool
) -> int:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    setup_times = [] if trace else time_setup(workload, seed, root, smoke)
    with workspace(root) as workdir:
        ops = setup(workload, seed, workdir, smoke)
        plain = measure(ops, seconds / 2 if trace else seconds)
        runs = [plain]
        if trace:
            traced, values = traced_layers(ops, seconds / 2, plain)
            runs.append(traced)
        else:
            values = end_to_end(plain, statistics.median(setup_times))

    attempted = sum(len(r.times) for r in runs)
    failed = sum(r.failed for r in runs)
    info = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "smoke": smoke,
        "threads_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "ops_per_pass": len(ops),
        "passes": [r.passes for r in runs],
        "checked": sum(r.checked for r in runs),
        "fail_frac": failed / attempted,
        "errors": dict(sum((r.errors for r in runs), Counter()).most_common(10)),
        "raw_op_p50_s": statistics.median(plain.times),
        # a diagnostic only: most workloads leave fewer than ten samples
        # beyond it, and its run-to-run spread exceeds any allowed bound
        "op_p90_s": float(np.quantile(plain.scaled_times(), 0.9)),
        "ops_timed": len(plain.times),
        "setup_runs_ref_s": setup_times,
        "probe_median_s": statistics.median(v for r in runs for _, v in r.probes),
        "probes": sum(len(r.probes) for r in runs),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in wanted
    }
    print(json.dumps({"info": info}))
    print(
        json.dumps(
            {
                "correct": sum(r.wrong for r in runs) == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0
