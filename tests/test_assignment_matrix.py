"""The signed assignment matrix A against a dict-of-dicts reference.

The reference assembles each representation's branch assignment the way
fluxq once stored it: one {coordinate label: coefficient} dict per
component, with each geometric capacitor's dict summed over the design
path a breadth-first search from its first terminal finds, then one row
Lg<chord> per geometric loop self-inductance.  The dicts are densified in
label order and give A, which must equal the library's exactly.  M and K
are built as fluxq once built them: each component's rank-one term added
in declaration order, then Lg (1/Lg in the extended K) on the diagonal of
each self-inductance's coordinate; they must equal the library's Gram
products bit for bit.
"""
from collections import deque

import numpy as np
import pytest

from fluxq import (
    ComponentKind,
    GeometricMode,
    GeometricPolicy,
    Representation,
    augment_geometric,
    extended_node_lagrangian,
    loop_lagrangian,
    node_lagrangian,
    topology_report,
)
from fluxq.netlist import GROUND

from conftest import ladder, load


def _difference(a, b):
    combo = {}
    if a != GROUND:
        combo[f"phi_{a}"] = combo.get(f"phi_{a}", 0.0) + 1.0
    if b != GROUND:
        combo[f"phi_{b}"] = combo.get(f"phi_{b}", 0.0) - 1.0
    return {k: v for k, v in combo.items() if v != 0.0}


def _component_order_gram(rows, weights):
    """sum_k weights[k] rows[k]^T rows[k], the terms added in row order."""
    gram = np.zeros((rows.shape[1], rows.shape[1]))
    for row, weight in zip(rows, weights):
        gram += weight * np.outer(row, row)
    return gram


def _design_path(circuit, u, v):
    """(component, direction) steps from u to v on the breadth-first tree of
    u over the design components, neighbors in declaration order."""
    adjacency = {}
    for c in circuit.components:
        if not c.geometric:
            adjacency.setdefault(c.a, []).append((c, +1, c.b))
            adjacency.setdefault(c.b, []).append((c, -1, c.a))
    parents, seen, frontier = {}, {u}, deque([u])
    while frontier:
        node = frontier.popleft()
        for c, direction, other in adjacency.get(node, ()):
            if other not in seen:
                seen.add(other)
                parents[other] = (node, c, direction)
                frontier.append(other)
    steps, node = [], v
    while node != u:
        node, comp, direction = parents[node]
        steps.append((comp, direction))
    return steps[::-1]


def _reference(circuit, rep, policy):
    """(labels, row ids, A, kinetic mask, values, M, K)."""
    report = topology_report(circuit)
    augmented, record = augment_geometric(circuit, report, policy)
    loops = report.loops
    geometric = []  # (loop index, {label: coefficient}) per self-inductance
    if rep is Representation.NODE_FLUX:
        components, kinetic_kind = augmented.components, ComponentKind.CAPACITOR
        labels = tuple(f"phi_{n}" for n in augmented.nodes if n != GROUND)
        assignment = {c.id: _difference(c.a, c.b) for c in components}
    elif rep is Representation.LOOP_CHARGE:
        components, kinetic_kind = circuit.components, ComponentKind.INDUCTOR
        labels = tuple(f"Q_{i + 1}" for i in range(len(loops)))
        assignment = {c.id: {} for c in components}
        for lbl, loop in zip(labels, loops):
            for cid, sign in loop.path:
                combo = assignment[cid]
                combo[lbl] = combo.get(lbl, 0.0) + sign
        assignment = {
            cid: {k: v for k, v in combo.items() if v != 0.0}
            for cid, combo in assignment.items()
        }
        for row in record.loop_kinetic_rows:
            (i,) = np.flatnonzero(row)
            geometric.append((i, {labels[i]: 1.0}))
    else:
        components, kinetic_kind = augmented.components, ComponentKind.CAPACITOR
        paths = [_design_path(augmented, c.a, c.b) for c in record.added_capacitors]
        capacitive = {
            c.id for c in circuit.components if c.kind is ComponentKind.CAPACITOR
        }
        capacitive.update(comp.id for path in paths for comp, _ in path)
        dynamic = [
            i
            for i, loop in enumerate(loops)
            if record.loop_kinetic_rows[:, i].any() and loop.chord in capacitive
        ]
        geometric = [(i, {f"Phi_{i + 1}": 1.0}) for i in dynamic]
        labels = tuple(f"phi_{n}" for n in circuit.nodes if n != GROUND)
        labels += tuple(f"Phi_{i + 1}" for i in dynamic)
        chord_loop = {loop.chord: i for i, loop in enumerate(loops)}
        assignment = {}
        for c in circuit.components:
            combo = dict(_difference(c.a, c.b))
            li = chord_loop.get(c.id)
            if li is not None and li in dynamic:
                combo[f"Phi_{li + 1}"] = combo.get(f"Phi_{li + 1}", 0.0) - 1.0
            assignment[c.id] = {k: v for k, v in combo.items() if v != 0.0}
        for c, path in zip(record.added_capacitors, paths):
            combo = {}
            for comp, direction in path:
                for lbl, coeff in assignment[comp.id].items():
                    combo[lbl] = combo.get(lbl, 0.0) + direction * coeff
            assignment[c.id] = {k: v for k, v in combo.items() if v != 0.0}

    def dense(combos):
        index = {lbl: i for i, lbl in enumerate(labels)}
        rows = np.zeros((len(combos), len(labels)))
        for r, combo in enumerate(combos):
            for lbl, coeff in combo.items():
                rows[r, index[lbl]] = coeff
        return rows

    a = dense([assignment[c.id] for c in components])
    values = np.array([c.value for c in components], dtype=float)
    kin = np.array([c.kind is kinetic_kind for c in components], dtype=bool)
    M = _component_order_gram(a[kin], values[kin])
    K = _component_order_gram(a[~kin], 1.0 / values[~kin])
    lg = policy.default_lg
    for _, combo in geometric:
        (j,) = (labels.index(lbl) for lbl in combo)
        if rep is Representation.LOOP_CHARGE:
            M[j, j] += lg
        else:
            K[j, j] += 1.0 / lg
    ids = tuple(c.id for c in components)
    ids += tuple(f"Lg{loops[i].chord}" for i, _ in geometric)
    rows = dense([combo for _, combo in geometric])
    a = np.vstack([a, rows])
    kin = np.append(kin, [rep is Representation.LOOP_CHARGE] * len(geometric))
    values = np.append(values, [lg] * len(geometric))
    return labels, ids, a, kin, values, M, K


def _library(circuit, rep, policy):
    report = topology_report(circuit)
    augmented, record = augment_geometric(circuit, report, policy)
    if rep is Representation.NODE_FLUX:
        return node_lagrangian(augmented)
    if rep is Representation.LOOP_CHARGE:
        return loop_lagrangian(circuit, report.loops, record)
    return extended_node_lagrangian(circuit, report.loops, augmented, record)


@pytest.mark.parametrize(
    "name",
    ["passive_lc.cir", "reduced_lc.cir", "active_lc.cir", "wheel.cir", "ladder64"],
)
@pytest.mark.parametrize("rep", list(Representation), ids=lambda r: r.value)
@pytest.mark.parametrize("mode", list(GeometricMode), ids=lambda m: m.value)
def test_assignment_matrix_matches_dict_reference(name, rep, mode):
    circuit = ladder(64, np.random.default_rng(7)) if name == "ladder64" else load(name)
    policy = GeometricPolicy(cap_mode=mode)
    labels, ids, a, kin, values, M, K = _reference(circuit, rep, policy)
    lag = _library(circuit, rep, policy)
    assert lag.labels == labels
    assert lag.component_ids == ids
    assert np.array_equal(lag.A, a)
    assert np.array_equal(lag.kinetic, kin)
    assert np.array_equal(lag.values, values)
    assert np.array_equal(lag.M, M)
    assert np.array_equal(lag.K, K)
    assert lag.A.dtype == np.float64
    assert np.array_equal(lag.A, np.round(lag.A))
    assert not np.signbit(lag.A[lag.A == 0]).any()
    assert np.array_equal(lag.assignment_matrix(ids), lag.A)
    assert lag.to_json_dict()["flux_assignment"] == {
        cid: {lbl: coeff for lbl, coeff in zip(labels, row) if coeff != 0.0}
        for cid, row in zip(ids, a)
    }


def test_assignment_matrix_rejects_an_unknown_component(passive_lc):
    lag = node_lagrangian(passive_lc)
    with pytest.raises(ValueError, match="'C9'"):
        lag.assignment_matrix(["C1", "C9"])
