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


def test_summary_of_trace_runs_skips_bookkeeping_fields():
    trace_runs = {
        "parent": [{"cli.self_s": 1.0, "correct": True, "first": True},
                   {"cli.self_s": 3.0, "correct": True, "first": False}],
        "change": [],
    }
    out = BENCH_PAIRS["summary"]({"parent": [], "change": []}, trace_runs, LOWER_IS_BETTER)
    assert out == {"pairs": 0, "trace": {"parent": {"cli.self_s": 2.0}}}
