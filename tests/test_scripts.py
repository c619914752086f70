"""The scripts the README lists run from a plain checkout: each puts the
checkout's `src` on its own path, so no PYTHONPATH or install is needed."""
import os
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
TESTS = Path(__file__).resolve().parent


def _run_script(name, cwd, *args):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_mode_tables_runs_without_pythonpath(tmp_path):
    proc = _run_script("mode_tables.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    titles = [line for line in proc.stdout.splitlines() if "[" in line]
    assert titles == [
        "active variant  [node]",
        "active variant  [loop]",
        "reduced tank  [node]",
        "passive circuit, Cg = 8.9e-20 F  [node]",
        "passive circuit, Lg = 1e-14 H  [loop]",
    ]


def test_waveforms_runs_without_pythonpath(tmp_path):
    proc = _run_script("waveforms.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    passive = "t_s,C1_V,C1_A,C2_V,C2_A,L3_V,L3_A,L4_V,L4_A,L3L4_sum_V,C1C2_sum_A"
    headers = {
        "tank.csv": "t_s,C_V,C_A,L_V,L_A",
        "passive_node_rep.csv": passive,
        "passive_loop_rep.csv": passive,
        "passive_extended_rep.csv": passive,
    }
    for name, header in headers.items():
        with open(tmp_path / "waveforms" / name) as f:
            assert f.readline().rstrip("\n") == header


def test_linetrace_reports_what_one_test_file_leaves_unrun(tmp_path):
    test_file = str(TESTS / "test_netlist.py")
    proc = _run_script("linetrace.py", tmp_path, "-q", "-p", "no:cacheprovider", test_file)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = proc.stdout.split("lines and branches of src/fluxq never run:\n")[1]
    modules = [line for line in report.splitlines() if line.startswith("src/")]
    # the netlist tests run every line and branch of netlist.py, import the
    # package but never the CLI, and leave the library's other modules unrun
    assert modules == [
        "src/fluxq/cli.py: never imported",
        "src/fluxq/lagrangian.py:",
        "src/fluxq/pipeline.py:",
        "src/fluxq/quantize.py:",
        "src/fluxq/simulate.py:",
        "src/fluxq/topology.py:",
    ]
    assert "  lines never run: " in report
