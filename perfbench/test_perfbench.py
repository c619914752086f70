"""Smoke-sized self-check of the benchmark: tiny instances of every
workload, a few seconds in all.  From the checkout root:

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import contextlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_benchmark_json_lists_the_workloads_the_benchmark_runs():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.BUILDERS)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(workloads.BUILDERS))
def test_smoke_run_emits_every_metric_and_checks_every_output(workload, trace):
    done = bench(
        "--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", trace,
        "--smoke",
    )
    assert done.returncode == 0, done.stderr
    *_, info_line, result_line = done.stdout.strip().splitlines()
    info, result = json.loads(info_line)["info"], json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    specs = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        s["name"]: s["unit"] for s in specs
    }
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert result["correct"] is True
    assert result["attempted"] >= 1
    errored = sum(v for k, v in info["errors"].items() if k.endswith(" in run"))
    assert info["checked"] == result["attempted"] - errored
    if workload == "passive_sweep":
        # fluxq raises at the 1e-12 decade: 3 of the 21 configurations
        assert result["failed"] * 7 == result["attempted"]
    else:
        assert result["failed"] == 0
    if trace == "0":
        assert result["metrics"]["ok_frac"]["value"] > 0
        assert result["metrics"]["setup_s"]["value"] > 0


@pytest.fixture
def scratch():
    path = ROOT / ".perfbench_work" / f"test-{os.getpid()}"
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path)
    with contextlib.suppress(OSError):
        path.parent.rmdir()


def test_per_layer_names_are_traced_functions_or_modules(scratch):
    import fluxq.cli

    ops = workloads.BUILDERS["ladder_modes"](1, scratch, True)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        measured = harness.measure(ops, 0.0, tracer)
    finally:
        tracer.uninstall()
    traced = tracing.layer_metrics(tracer, len(ops), [1.0] * measured.passes)
    assert not hasattr(fluxq.cli.main, "__wrapped__"), "tracer left a wrapper behind"
    for spec in SPEC["per_layer"]:
        name = spec["name"]
        prefix, _, stat = name.rpartition(".")
        if prefix in tracing.MODULES or name == "trace.overhead_frac":
            continue
        module, _, function = prefix.partition(".")
        owner = vars(sys.modules[f"fluxq.{module}"])
        if function == "assignment_row":
            owner = vars(owner["QuadraticLagrangian"])
        assert callable(owner.get(function)), name
        assert stat in {"self_s", "calls", "raised", "floor_ratio"}, name
    # `modes` diagnoses quantizability once; legendre_transform does not
    # diagnose again behind the CLI's back.
    assert traced["quantize.diagnose_quantizability.calls"] == 1
    assert traced["cli.main.calls"] == 1
    assert traced["quantize.normal_modes.floor_ratio"] >= 1


def test_kron_oracle_matches_the_reduced_example_circuit():
    # passive_lc.cir reduces to 6 pF across 4 nH (README of the repo)
    parts = [
        workloads.Part("C1", "C", "2", "0", 2e-12),
        workloads.Part("C2", "C", "2", "0", 4e-12),
        workloads.Part("L3", "L", "2", "3", 1e-9),
        workloads.Part("L4", "L", "3", "0", 3e-9),
    ]
    (omega,) = workloads.kron_omegas(parts)
    assert omega == pytest.approx(1.0 / (4e-9 * 6e-12) ** 0.5, rel=1e-12)
    assert workloads.zero_mode_count(parts, "node") == 0
    assert workloads.zero_mode_count(parts, "loop") == 0


def test_modes_check_rejects_a_shifted_spectrum():
    reference = [1e10, 2e10]
    ghz = [w / (2e9 * 3.141592653589793) for w in reference]
    payload = {
        "frequencies_ghz": ghz + [1e3],
        "zero_modes": 0,
        "ground_state": {"products_over_hbar2": [1.0, 1.2, 3.0]},
    }
    workloads.check_modes_payload(payload, np.array(reference), 0, 1e-8)
    payload["frequencies_ghz"] = [ghz[0] * 1.001] + ghz[1:] + [1e3]
    with pytest.raises(workloads.CheckFailed):
        workloads.check_modes_payload(payload, np.array(reference), 0, 1e-8)


def test_refuses_to_run_without_the_fluxq_sources(scratch):
    bare = scratch
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = bench(
        "--workload", "gaussian_evolve", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=bare,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
