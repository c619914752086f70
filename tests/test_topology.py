import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fluxq import (
    build_spanning_tree,
    fundamental_loops,
    passive_loop_deficiency,
    passive_nodes,
    reduce_circuit,
    topology_report,
)
from fluxq.netlist import Circuit, Component, ComponentKind
from fluxq.topology import _forest_steps, capacitor_only_cycles

from conftest import random_active_circuit


def test_tree_reduced(reduced_lc):
    tree = build_spanning_tree(reduced_lc)
    assert tree.tree == ("C",)
    assert tree.chords == ("L",)


def test_tree_passive(passive_lc):
    # growth from ground prefers the capacitor C1 into node 2, then the
    # earliest-declared eligible branch L3 into node 3
    tree = build_spanning_tree(passive_lc)
    assert set(tree.tree) == {"C1", "L3"}
    assert set(tree.chords) == {"C2", "L4"}


def test_tree_wheel(wheel):
    tree = build_spanning_tree(wheel)
    assert len(tree.tree) == 3
    assert len(tree.chords) == 3


def test_tree_disconnected_raises():
    from fluxq.netlist import parse_netlist

    circuit = parse_netlist("C1 1 0 1pF\nC2 5 6 1pF")
    with pytest.raises(ValueError):
        build_spanning_tree(circuit)


def test_loop_counts(passive_lc, reduced_lc, wheel):
    for circuit, expected in ((passive_lc, 2), (reduced_lc, 1), (wheel, 3)):
        tree = build_spanning_tree(circuit)
        loops = fundamental_loops(circuit, tree)
        assert len(loops) == expected
        c, n = len(circuit.components), len(circuit.nodes)
        assert len(loops) == c + 1 - n


def test_loops_close(passive_lc, wheel):
    for circuit in (passive_lc, wheel):
        tree = build_spanning_tree(circuit)
        by_id = {c.id: c for c in circuit.components}
        for loop in fundamental_loops(circuit, tree):
            assert loop.path[0] == (loop.chord, +1)
            # signed boundary of the path must vanish at every node
            boundary: dict[str, int] = {}
            for cid, sign in loop.path:
                comp = by_id[cid]
                boundary[comp.a] = boundary.get(comp.a, 0) + sign
                boundary[comp.b] = boundary.get(comp.b, 0) - sign
            assert all(v == 0 for v in boundary.values())


def test_passive_nodes(passive_lc, reduced_lc, wheel):
    assert passive_nodes(passive_lc) == {"3"}
    assert passive_nodes(reduced_lc) == set()
    assert passive_nodes(wheel) == {"4"}


def test_deficiency(passive_lc, reduced_lc, wheel):
    for circuit, expected in ((passive_lc, 1), (reduced_lc, 0), (wheel, 1)):
        tree = build_spanning_tree(circuit)
        loops = fundamental_loops(circuit, tree)
        deficiency, witnesses = passive_loop_deficiency(circuit, loops)
        assert deficiency == expected
        assert len(witnesses) == expected


def test_deficiency_witness_is_capacitor_loop(passive_lc):
    tree = build_spanning_tree(passive_lc)
    loops = fundamental_loops(passive_lc, tree)
    _, witnesses = passive_loop_deficiency(passive_lc, loops)
    w = witnesses[0]
    # the capacitor-only loop is the one chorded by C2
    chord_index = [loop.chord for loop in loops].index("C2")
    expected = np.zeros(len(loops))
    expected[chord_index] = 1.0
    assert np.array_equal(w, expected)


def test_deficiency_invariant_under_declaration_order(passive_lc):
    # permuting declarations changes the spanning tree and the loop basis,
    # but the rank deficiency is basis independent
    baseline = None
    perms = [
        [0, 1, 2, 3],
        [3, 2, 1, 0],
        [1, 3, 0, 2],
        [2, 0, 3, 1],
    ]
    for perm in perms:
        comps = tuple(passive_lc.components[i] for i in perm)
        circuit = Circuit(passive_lc.nodes, comps)
        tree = build_spanning_tree(circuit)
        loops = fundamental_loops(circuit, tree)
        deficiency, _ = passive_loop_deficiency(circuit, loops)
        if baseline is None:
            baseline = deficiency
        assert deficiency == baseline == 1


def test_reduce_passive_to_tank(passive_lc):
    reduced = reduce_circuit(passive_lc)
    by_kind = {c.kind: c for c in reduced.components}
    cap = by_kind[ComponentKind.CAPACITOR]
    ind = by_kind[ComponentKind.INDUCTOR]
    assert cap.value == pytest.approx(6e-12)
    assert ind.value == pytest.approx(4e-9)
    assert cap.id == "C1||C2"
    assert ind.id == "L3+L4"
    assert set(reduced.nodes) == {"0", "2"}


def test_reduce_is_idempotent(passive_lc, reduced_lc, wheel):
    for circuit in (passive_lc, reduced_lc, wheel):
        once = reduce_circuit(circuit)
        assert reduce_circuit(once) == once


def test_reduce_wheel_is_identity(wheel):
    assert reduce_circuit(wheel) == wheel


def test_report_json(wheel):
    report = topology_report(wheel)
    payload = report.to_json_dict()
    assert payload == {
        "n": 4,
        "c": 6,
        "l": 3,
        "passive_nodes": ["4"],
        "loop_deficiency": 1,
        "reducible": False,
    }


@given(st.integers(0, 10_000))
def test_loop_count_formula_random(seed):
    rng = np.random.default_rng(seed)
    circuit = random_active_circuit(rng)
    tree = build_spanning_tree(circuit)
    loops = fundamental_loops(circuit, tree)
    assert len(loops) == len(circuit.components) + 1 - len(circuit.nodes)


@given(st.integers(0, 10_000))
def test_random_active_circuits_are_fully_active(seed):
    rng = np.random.default_rng(seed)
    circuit = random_active_circuit(rng)
    assert passive_nodes(circuit) == set()
    tree = build_spanning_tree(circuit)
    loops = fundamental_loops(circuit, tree)
    deficiency, _ = passive_loop_deficiency(circuit, loops)
    assert deficiency == 0


def test_reduce_propagates_consistent_ics():
    from fluxq.netlist import parse_netlist

    circuit = parse_netlist(
        "C1 2 0 2pF\nC2 2 0 4pF\nL3 2 3 1nH\nL4 3 0 3nH\n"
        ".ic C1 2mV\n.ic C2 2mV\n.ic L3 1uA\n.ic L4 1uA\n"
    )
    reduced = reduce_circuit(circuit)
    assert reduced.ics["C1||C2"] == pytest.approx(2e-3)
    # chain 2 -> 3 -> 0 aligned with both declarations
    assert reduced.ics["L3+L4"] == pytest.approx(1e-6)


def test_reduce_sums_parallel_inductor_currents():
    from fluxq.netlist import parse_netlist

    circuit = parse_netlist(
        "C1 1 0 1pF\nLa 1 0 1nH\nLb 1 0 1nH\nLc 0 1 1nH\n"
        ".ic La 1uA\n.ic Lb 2uA\n.ic Lc 3uA\n"
    )
    reduced = reduce_circuit(circuit)
    merged = next(c for c in reduced.components if c.kind is ComponentKind.INDUCTOR)
    # Lc is declared in the opposite direction, so its current subtracts
    assert reduced.ics[merged.id] == pytest.approx(1e-6 + 2e-6 - 3e-6)


def _greedy_tree_reference(circuit):
    """The O(N*C) tree growth build_spanning_tree replaced: scan every
    component per added node for the least (kind, declaration order) one
    with exactly one visited terminal."""
    root = "0" if "0" in circuit.nodes else circuit.nodes[0]
    visited = {root}
    tree, parent_node, parent_component = [], {}, {}
    order = {c.id: i for i, c in enumerate(circuit.components)}

    def key(c):
        return (0 if c.kind is ComponentKind.CAPACITOR else 1, order[c.id])

    while len(visited) < len(circuit.nodes):
        best = None
        for c in circuit.components:
            if (c.a in visited) == (c.b in visited):
                continue
            if best is None or key(c) < key(best):
                best = c
        child, parent = (best.b, best.a) if best.a in visited else (best.a, best.b)
        visited.add(child)
        tree.append(best.id)
        parent_node[child] = parent
        parent_component[child] = best.id
    chords = tuple(c.id for c in circuit.components if c.id not in set(tree))
    return tuple(tree), chords, parent_node, parent_component


def _random_multigraph(rng):
    """Connected LC multigraph in shuffled declaration order, with parallel
    same-kind components and capacitor/inductor pairs on the same nodes."""
    n = int(rng.integers(2, 12))
    nodes = ["0"] + [f"n{i}" for i in range(1, n)]
    pairs = [(nodes[i], nodes[int(rng.integers(0, i))]) for i in range(1, n)]
    for _ in range(int(rng.integers(0, 3 * n))):
        if pairs and rng.random() < 0.4:
            pairs.append(pairs[int(rng.integers(0, len(pairs)))])
        else:
            a, b = rng.choice(n, size=2, replace=False)
            pairs.append((nodes[int(a)], nodes[int(b)]))
    comps = []
    for k, idx in enumerate(rng.permutation(len(pairs))):
        a, b = pairs[int(idx)]
        if rng.random() < 0.5:
            a, b = b, a
        kind = ComponentKind.CAPACITOR if rng.random() < 0.5 else ComponentKind.INDUCTOR
        comps.append(Component(f"{kind.value}{k}", kind, 1e-12, (a, b)))
    return Circuit(tuple(nodes), tuple(comps))


def _as_tuple(tree):
    return tree.tree, tree.chords, tree.parent_node, tree.parent_component


def test_tree_matches_greedy_reference_on_netlists(
    passive_lc, reduced_lc, wheel, active_lc
):
    for circuit in (passive_lc, reduced_lc, wheel, active_lc):
        assert _as_tuple(build_spanning_tree(circuit)) == _greedy_tree_reference(circuit)


@pytest.mark.parametrize("seed", range(40))
def test_tree_matches_greedy_reference_on_multigraphs(seed):
    circuit = _random_multigraph(np.random.default_rng(seed))
    assert _as_tuple(build_spanning_tree(circuit)) == _greedy_tree_reference(circuit)


@pytest.mark.parametrize("seed", range(40))
def test_report_reducible_matches_full_reduction(seed):
    circuit = _random_multigraph(np.random.default_rng(seed))
    reduced = reduce_circuit(circuit)
    changed = [c.id for c in reduced.components] != [c.id for c in circuit.components]
    assert topology_report(circuit).reducible is changed


def _capacitor_cycles_reference(circuit, loops):
    """The O(N*C) traversal capacitor_only_cycles replaced: a breadth-first
    forest grown with a list frontier, scanning every capacitor for each
    visited node, then one witness per capacitor outside the forest."""
    caps = [c for c in circuit.components if c.kind is ComponentKind.CAPACITOR]
    parent_node, parent_comp, visited, forest = {}, {}, set(), set()
    for start in circuit.nodes:
        if start in visited:
            continue
        visited.add(start)
        frontier = [start]
        while frontier:
            node = frontier.pop(0)
            for c in caps:
                if node not in c.terminals:
                    continue
                other = c.b if c.a == node else c.a
                if other in visited:
                    continue
                visited.add(other)
                forest.add(c.id)
                parent_node[other] = node
                parent_comp[other] = c
                frontier.append(other)
    loop_index = {loop.chord: i for i, loop in enumerate(loops)}
    witnesses = []
    for c in caps:
        if c.id in forest:
            continue
        cycle = {c.id: +1}
        for comp, u, v in _forest_steps(parent_node, parent_comp, c.b, c.a):
            sign = +1 if comp.terminals == (u, v) else -1
            cycle[comp.id] = cycle.get(comp.id, 0) + sign
        w = [0] * len(loops)
        for cid, sign in cycle.items():
            if cid in loop_index:
                w[loop_index[cid]] = sign
        witnesses.append(tuple(w))
    return tuple(witnesses)


def _assert_cycles_match_reference(circuit):
    loops = fundamental_loops(circuit, build_spanning_tree(circuit))
    assert capacitor_only_cycles(circuit, loops) == _capacitor_cycles_reference(
        circuit, loops
    )


def test_capacitor_cycles_match_scan_reference_on_netlists(
    passive_lc, reduced_lc, wheel, active_lc
):
    for circuit in (passive_lc, reduced_lc, wheel, active_lc):
        _assert_cycles_match_reference(circuit)


@pytest.mark.parametrize("seed", range(40))
def test_capacitor_cycles_match_scan_reference_on_multigraphs(seed):
    circuit = _random_multigraph(np.random.default_rng(seed))
    _assert_cycles_match_reference(circuit)
