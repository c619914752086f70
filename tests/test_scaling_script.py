import re
import runpy
from pathlib import Path

SCALING = runpy.run_path(
    str(Path(__file__).resolve().parent.parent / "scripts" / "scaling.py"),
    run_name="scaling",
)


def test_scaling_table_on_a_small_ladder(capsys):
    assert SCALING["main"](["--n", "16", "--processes", "1", "--repeats", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("ladder n = 16, seed 7: median of 1 processes")
    assert lines[1].split()[1:] == [
        "node", "(16)", "loop", "(12)", "extended", "(20)"
    ]
    rows = {line[:26].strip(): line[26:].split() for line in lines[2:-1]}
    assert list(rows) == list(SCALING["STAGES"])
    assert re.fullmatch(
        r"node CLI modes / eigh per process: median (\d+\.\d\d)x, "
        r"quartiles (\d+\.\d\d)x-(\d+\.\d\d)x",
        lines[-1],
    )
    assert rows["eigh of F^-1 K F^-T"][1::2] == ["(1.00x)"] * 3
    for stage in ("extended_node_lagrangian", "_design_paths"):
        assert rows[stage][:2] == ["-", "-"]  # extended only
        assert rows[stage][3].endswith("x)")
    for stage in (
        "node_lagrangian", "propagate_covariance", "initial_state", "evolve_modes", "_series"
    ):
        node_only = rows[stage]
        assert node_only[1].endswith("x)") and node_only[2:] == ["-", "-"]
    loop_only = rows["loop_lagrangian"]
    assert loop_only[0] == loop_only[3] == "-" and len(loop_only) == 4
    assert loop_only[2].endswith("x)")
    for stage in (
        "eigh of random symmetric",
        "quantize_circuit", "legendre_transform", "normal_modes", "ground_state",
        "topology_report",
        "mode_attribution", "parse_netlist + validate", "modes JSON", "CLI modes",
    ):
        assert len(rows[stage]) == 6
        assert all(float(ms) > 0.0 for ms in rows[stage][::2])
