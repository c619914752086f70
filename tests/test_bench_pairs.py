import runpy
from pathlib import Path

import pytest

BENCH_PAIRS = runpy.run_path(
    str(Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"),
    run_name="bench_pairs",
)
LOWER_IS_BETTER = {"op_p50_s": True, "ops_per_s": False, "setup_s": True}


def _runs(op_p50_s, ops_per_s, setup_s):
    return [
        {"op_p50_s": a, "ops_per_s": b, "setup_s": c, "correct": True}
        for a, b, c in zip(op_p50_s, ops_per_s, setup_s)
    ]


def test_summary_of_two_pairs():
    runs = {
        "parent": _runs([2.0, 2.0], [10.0, 10.0], [0.5, 0.7]),
        # op_p50_s: one win, one loss; ops_per_s: one win (higher), one
        # tie; setup_s: two ties
        "change": _runs([1.0, 3.0], [12.0, 10.0], [0.5, 0.7]),
    }
    out = BENCH_PAIRS["summary"](runs, {"parent": [], "change": []}, LOWER_IS_BETTER)
    assert out["pairs"] == 2
    assert out["change_wins"] == {"op_p50_s": 1, "ops_per_s": 1, "setup_s": 0}
    assert out["change_wins_op_p50_s"] == 1
    assert out["parent"]["setup_s"] == pytest.approx({"median": 0.6, "q1": 0.55, "q3": 0.65})
    assert out["change"]["ops_per_s"] == pytest.approx({"median": 11.0, "q1": 10.5, "q3": 11.5})
    assert "trace" not in out

    lines = BENCH_PAIRS["summary_lines"](out, LOWER_IS_BETTER)
    assert lines == [
        "op_p50_s: parent 2, change 2 (+0.0%), change wins 1 of 2",
        "ops_per_s: parent 10, change 11 (+10.0%), change wins 1 of 2",
        "setup_s: parent 0.6, change 0.6 (+0.0%), change wins 0 of 2",
    ]


def test_summary_keeps_each_side_s_median_reference_time():
    runs = {
        "parent": _runs([2.0] * 3, [10.0] * 3, [0.5] * 3),
        "change": _runs([1.0] * 3, [12.0] * 3, [0.5] * 3),
    }
    for side, times in (("parent", [0.03, 0.01, 0.02]), ("change", [0.04, 0.05, 0.06])):
        for run, t in zip(runs[side], times):
            run["reference_s"] = t
    out = BENCH_PAIRS["summary"](runs, {"parent": [], "change": []}, LOWER_IS_BETTER)
    assert out["reference_s"] == {"parent": 0.02, "change": 0.05}
    # runs recorded without the kernel give no reference median
    del runs["change"][0]["reference_s"], runs["change"][1]["reference_s"]
    out = BENCH_PAIRS["summary"](runs, {"parent": [], "change": []}, LOWER_IS_BETTER)
    assert out["reference_s"] == {"parent": 0.02, "change": 0.06}
    for run in runs["change"]:
        run.pop("reference_s", None)
    out = BENCH_PAIRS["summary"](runs, {"parent": [], "change": []}, LOWER_IS_BETTER)
    assert "reference_s" not in out


def test_reference_kernel_runs_in_a_child_on_one_blas_thread(monkeypatch):
    calls = []
    run = BENCH_PAIRS["subprocess"].run

    def recorded(command, **kwargs):
        calls.append((command, kwargs["env"]))
        return run(command, **kwargs)

    monkeypatch.setattr(BENCH_PAIRS["subprocess"], "run", recorded)
    seconds = BENCH_PAIRS["reference_s"]()
    assert 0.0 < seconds < 10.0
    (command, env), = calls
    assert command[1:] == ["-c", BENCH_PAIRS["REFERENCE_KERNEL"]]
    assert all(env[name] == "1" for name in BENCH_PAIRS["BLAS_THREADS"])


def test_summary_of_trace_runs_skips_bookkeeping_fields():
    trace_runs = {
        "parent": [
            {"cli.self_s": 1.0, "correct": True, "first": True, "reference_s": 0.1},
            {"cli.self_s": 3.0, "correct": True, "first": False},
        ],
        "change": [],
    }
    out = BENCH_PAIRS["summary"]({"parent": [], "change": []}, trace_runs, LOWER_IS_BETTER)
    assert out == {"pairs": 0, "trace": {"parent": {"cli.self_s": 2.0}}}


def test_verdict_of_a_win_a_loss_a_tie_and_an_unresolved_metric():
    metrics = {
        # win: every pair, by more than the parent's interquartile range
        "op_p50_s": (True, 0.2, [2.0, 2.1, 1.9, 2.0, 2.1] * 2, [1.5] * 10),
        # loss: worse than the parent by more than the 20 % bound
        "ops_per_s": (False, 0.2, [10.0] * 10, [5.0] * 10),
        "ok_frac": (False, 0.1, [1.0] * 10, [1.0] * 10),
        # the parent's spread is wider than the bound and the change does
        # not beat every parent run
        "setup_s": (True, 0.25, [0.5, 1.5] * 5, [1.0] * 10),
        # a spread wider than the bound, but every change run beats every
        # parent run; won every pair, yet by less than the parent's spread
        "peak_rss_mb": (True, 0.15, [50.0, 100.0] * 5, [40.0] * 10),
    }
    lower_is_better = {name: m[0] for name, m in metrics.items()}
    bound = {name: m[1] for name, m in metrics.items()}
    runs = {
        side: [{name: m[2 + k][i] for name, m in metrics.items()} for i in range(10)]
        for k, side in enumerate(("parent", "change"))
    }
    out = BENCH_PAIRS["summary"](runs, {"parent": [], "change": []}, lower_is_better)
    lines = BENCH_PAIRS["verdict_lines"](runs, out, lower_is_better, bound)
    assert lines == [
        "op_p50_s: gain claimed yes (won 10 of 10, needs 9; median better by 0.5, "
        "parent IQR 0.1); bound 20%: within",
        "ops_per_s: gain claimed no (won 0 of 10, needs 9; median better by -5, "
        "parent IQR 0); bound 20%: outside",
        "ok_frac: gain claimed no (won 0 of 10, needs 9; median better by 0, "
        "parent IQR 0); bound 10%: within",
        "setup_s: gain claimed no (won 5 of 10, needs 9; median better by 0, "
        "parent IQR 1); bound 25%: unresolved",
        "peak_rss_mb: gain claimed no (won 10 of 10, needs 9; median better by 35, "
        "parent IQR 50); bound 15%: within",
    ]


def test_bounds_read_from_the_benchmark_spec():
    root = Path(__file__).resolve().parent.parent
    bound = BENCH_PAIRS["bounds"](root)
    assert set(bound) == set(BENCH_PAIRS["end_to_end"](root))
    assert all(0.0 < b < 1.0 for b in bound.values())
