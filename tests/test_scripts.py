"""The scripts the README lists run from a plain checkout: each puts the
checkout's `src` on its own path, so no PYTHONPATH or install is needed."""
import os
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run_script(name, cwd):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name)],
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
