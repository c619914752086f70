import importlib
import re
import runpy
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxq import (
    GeometricMode,
    GeometricPolicy,
    Representation,
    SingularKineticMatrix,
    augment_geometric,
    build_spanning_tree,
    diagnose_quantizability,
    extended_node_lagrangian,
    fundamental_loops,
    legendre_transform,
    loop_lagrangian,
    node_lagrangian,
    normal_modes,
    quantize_circuit,
    topology_report,
)
from fluxq.cli import main

from conftest import extended, load
from test_topology import _random_multigraph

ROOT = Path(__file__).resolve().parent.parent
PASSIVE = str(ROOT / "netlists" / "passive_lc.cir")

# the stages the pipeline must run once, by the module that defines them
STAGES = {
    "topology": (
        "topology_report",
        "build_spanning_tree",
        "fundamental_loops",
        "capacitor_only_cycles",
    ),
    "lagrangian": ("augment_geometric",),
    "quantize": ("diagnose_quantizability",),
}


# what modes and simulate must leave to other commands or representations:
# the reduction steps (read by analyze and reduce) and the other builders
BUILDERS = {
    "topology": ("_merge_parallel", "_eliminate_series"),
    "lagrangian": ("node_lagrangian", "loop_lagrangian", "extended_node_lagrangian"),
}


def _count_calls(monkeypatch, stages) -> Counter:
    """Counts calls of each stage, wrapped in every fluxq namespace that
    holds it, so calls between fluxq modules are counted too."""
    calls: Counter = Counter()
    for module, names in stages.items():
        for name in names:
            original = getattr(importlib.import_module(f"fluxq.{module}"), name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            for key, namespace in list(sys.modules.items()):
                if key.split(".")[0] == "fluxq" and vars(namespace).get(name) is original:
                    monkeypatch.setattr(namespace, name, counted)
    return calls


@pytest.fixture
def stage_calls(monkeypatch) -> Counter:
    return _count_calls(monkeypatch, STAGES)


@pytest.mark.parametrize("rep", ["node", "loop", "extended"])
@pytest.mark.parametrize(
    "argv", [["modes"], ["simulate", "--samples", "16"]], ids=lambda a: a[0]
)
def test_modes_and_simulate_run_each_stage_once(stage_calls, capsys, argv, rep):
    assert main([argv[0], PASSIVE, "--rep", rep, *argv[1:]]) == 0
    everything = [name for names in STAGES.values() for name in names]
    assert stage_calls == Counter(everything)


@pytest.mark.parametrize("rep", ["node", "loop", "extended"])
@pytest.mark.parametrize(
    "argv", [["modes"], ["simulate", "--samples", "16"]], ids=lambda a: a[0]
)
def test_modes_and_simulate_build_one_lagrangian_and_no_reduction(
    monkeypatch, capsys, argv, rep
):
    calls = _count_calls(monkeypatch, BUILDERS)
    assert main([argv[0], PASSIVE, "--rep", rep, *argv[1:]]) == 0
    builder = {"node": "node_lagrangian", "loop": "loop_lagrangian"}
    assert calls == Counter([builder.get(rep, "extended_node_lagrangian")])


def test_analyze_builds_one_spanning_tree(stage_calls, capsys):
    assert main(["analyze", PASSIVE]) == 0
    assert stage_calls["build_spanning_tree"] == 1
    assert stage_calls["fundamental_loops"] == 1


def _stage_by_stage(circuit, rep, policy):
    """The representation's Lagrangian and observed circuit, assembled
    from the public stages with no state shared between them."""
    augmented, record = augment_geometric(circuit, topology_report(circuit), policy)
    if rep is Representation.NODE_FLUX:
        return node_lagrangian(augmented, build_spanning_tree(augmented)), augmented
    tree = build_spanning_tree(circuit)
    if rep is Representation.LOOP_CHARGE:
        loops = fundamental_loops(circuit, tree)
        lag = loop_lagrangian(circuit, loops, record)
        return lag, circuit
    return extended(circuit, policy), augmented


@pytest.mark.parametrize("name", ["passive_lc", "reduced_lc", "wheel", "active_lc"])
@pytest.mark.parametrize("rep", list(Representation), ids=lambda r: r.value)
@pytest.mark.parametrize("mode", list(GeometricMode), ids=lambda m: m.value)
def test_pipeline_matches_stage_by_stage(name, rep, mode):
    circuit = load(f"{name}.cir")
    policy = GeometricPolicy(cap_mode=mode)
    lag, observed = _stage_by_stage(circuit, rep, policy)
    try:
        modes = normal_modes(legendre_transform(lag))
    except SingularKineticMatrix:
        with pytest.raises(SingularKineticMatrix):
            quantize_circuit(circuit, rep, policy)
        return
    q = quantize_circuit(circuit, rep, policy)
    assert q.observed == observed
    assert q.lagrangian.labels == lag.labels
    assert np.array_equal(q.lagrangian.M, lag.M)
    assert np.array_equal(q.lagrangian.K, lag.K)
    assert q.lagrangian.component_ids == lag.component_ids
    assert np.array_equal(q.lagrangian.A, lag.A)
    assert np.array_equal(q.modes.omegas, modes.omegas)


def _table(out: str, title: str) -> dict[str, str]:
    """Coordinate -> printed frequency of one table of mode_tables.py."""
    body = out.split(f"\n{title}\n", 1)[1].split("\n\n", 1)[0]
    return {line.split()[0]: line.split()[1] for line in body.splitlines()[1:]}


def test_mode_tables_script(capsys):
    script = runpy.run_path(str(ROOT / "scripts" / "mode_tables.py"), run_name="tables")
    assert script["main"]() == 0
    out = capsys.readouterr().out
    assert re.findall(r"^(\S.*  \[\w+\])$", out, re.M) == [
        "active variant  [node]",
        "active variant  [loop]",
        "reduced tank  [node]",
        "passive circuit, Cg = 8.9e-20 F  [node]",
        "passive circuit, Lg = 1e-14 H  [loop]",
    ]
    tank = _table(out, "reduced tank  [node]")
    passive = _table(out, "passive circuit, Cg = 8.9e-20 F  [node]")
    # the augmented passive circuit keeps the reduced tank's mode on phi_2
    # and adds the geometric one on the passive node 3
    assert tank["phi_2"] == passive["phi_2"] == "1.027"
    assert float(passive["phi_3"]) == pytest.approx(1.9e4, rel=0.05)


# Cg/C = Lg/L = 1e-7: every component of _random_multigraph is 1e-12 (F or H)
STRAY = GeometricPolicy(GeometricMode.MINIMAL, 1e-19, 1e-19)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 10_000))
def test_minimal_quantizes_every_multigraph_in_three_representations(seed):
    """MINIMAL adds as many geometric capacitors and self-inductances as the
    design node and loop M have null directions, and then every circuit
    quantizes in all three representations.  The design modes (below
    1e14 rad/s; the strays' lie near 1e15 and above) agree in count, and
    node and extended lie within 10 (Cg/C + Lg/L) of loop."""
    circuit = _random_multigraph(np.random.default_rng(seed))
    report = topology_report(circuit)
    augmented, record = augment_geometric(circuit, report, STRAY)
    node = diagnose_quantizability(node_lagrangian(circuit))
    loop = diagnose_quantizability(loop_lagrangian(circuit, report.loops))
    assert len(record.added_capacitors) == len(node.null_space)
    assert len(record.loop_kinetic_rows) == len(loop.null_space)
    # quantize_circuit's stages, sharing one report (as it does)
    lags = (
        node_lagrangian(augmented),
        extended_node_lagrangian(circuit, report.loops, augmented, record),
        loop_lagrangian(circuit, report.loops, record),
    )
    design = []
    for lag in lags:
        omegas = normal_modes(legendre_transform(lag)).omegas
        design.append(omegas[(omegas > 0.0) & (omegas < 1e14)])
    *fluxes, charges = design
    for omegas in fluxes:
        assert omegas.size == charges.size
        np.testing.assert_allclose(omegas, charges, rtol=10 * (1e-7 + 1e-7))
