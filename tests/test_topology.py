import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxq import (
    GeometricPolicy,
    RankCrossCheckFailure,
    Representation,
    build_spanning_tree,
    fundamental_loops,
    parse_netlist,
    passive_loop_deficiency,
    passive_nodes,
    quantize_circuit,
    reduce_circuit,
    serialize_netlist,
    topology_report,
)
from fluxq.cli import main
from fluxq.netlist import Circuit, Component, ComponentKind
from fluxq.quantize import _K_RANK_TOL
from fluxq.topology import (
    SpanningTree,
    _certifies_full_rank,
    _equilibrated_rank,
    capacitor_only_cycles,
)

from conftest import ladder, passive_class_circuit, random_active_circuit


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


def test_capacitor_only_cycles_confirm_the_count_numerically():
    # the wheel with values spread over 230 orders of magnitude: the
    # equilibrated B diag(L) B^T cannot confirm its one capacitor cycle
    circuit = parse_netlist(
        "La 0 4 8.08e217\nLb 2 4 2.48e-10\nLc 3 4 3.23e-15\n"
        "Ca 0 2 2.37e102\nCb 2 3 1.19e-4\nCc 3 0 890.8\n"
    )
    loops = fundamental_loops(circuit, build_spanning_tree(circuit))
    with pytest.raises(
        RankCrossCheckFailure, match="loop inductance form rank unconfirmed"
    ):
        capacitor_only_cycles(circuit, loops)


def test_report_json(wheel):
    report = topology_report(wheel)
    payload = report.to_json_dict()
    assert payload == {
        "n": 4,
        "c": 6,
        "l": 3,
        "passive_nodes": ["4"],
        "loop_deficiency": 1,
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


def _greedy_tree_reference(circuit, first=ComponentKind.CAPACITOR):
    """The O(N*C) tree growth build_spanning_tree replaced: scan every
    component per added node for the least (kind, declaration order) one
    with exactly one visited terminal, the kind `first` before the other."""
    root = "0" if "0" in circuit.nodes else circuit.nodes[0]
    visited = {root}
    tree, parent_node, parent_component = [], {}, {}
    order = {c.id: i for i, c in enumerate(circuit.components)}

    def key(c):
        return (0 if c.kind is first else 1, order[c.id])

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
def test_report_reducible_matches_full_reduction(seed, tmp_path, capsys):
    circuit = _random_multigraph(np.random.default_rng(seed))
    reduced = reduce_circuit(circuit)
    changed = [c.id for c in reduced.components] != [c.id for c in circuit.components]
    netlist = tmp_path / "multigraph.cir"
    netlist.write_text(serialize_netlist(circuit))
    assert main(["analyze", str(netlist)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["reducible"] is changed
    assert payload["reduction"] == (serialize_netlist(reduced) if changed else None)


def _capacitor_cycle_rank(circuit):
    """Independent cycles of the capacitor subgraph, counted by union-find:
    the capacitors that close a cycle among the nodes already joined."""
    root = {n: n for n in circuit.nodes}

    def find(n):
        while root[n] != n:
            root[n] = root[root[n]]
            n = root[n]
        return n

    rank = 0
    for c in circuit.components:
        if c.kind is ComponentKind.CAPACITOR:
            a, b = find(c.a), find(c.b)
            rank += a == b
            root[a] = b
    return rank


def _assert_cycles_are_the_capacitor_loops(circuit):
    loops = fundamental_loops(circuit, build_spanning_tree(circuit))
    witnesses = capacitor_only_cycles(circuit, loops)
    kinds = {c.id: c.kind for c in circuit.components}
    capacitor_loops = [
        i
        for i, loop in enumerate(loops)
        if all(kinds[cid] is ComponentKind.CAPACITOR for cid, _ in loop.path)
    ]
    # each witness is the unit vector of one capacitor-only loop, and every
    # such loop has one
    units = [tuple(int(j == i) for j in range(len(loops))) for i in capacitor_loops]
    assert witnesses == tuple(units)
    assert len(witnesses) == _capacitor_cycle_rank(circuit)


def test_capacitor_cycles_are_the_capacitor_loops_on_netlists(
    passive_lc, reduced_lc, wheel, active_lc
):
    for circuit in (passive_lc, reduced_lc, wheel, active_lc):
        _assert_cycles_are_the_capacitor_loops(circuit)


@pytest.mark.parametrize("seed", range(40))
def test_capacitor_cycles_are_the_capacitor_loops_on_multigraphs(seed):
    circuit = _random_multigraph(np.random.default_rng(seed))
    _assert_cycles_are_the_capacitor_loops(circuit)


def test_capacitor_cycles_of_an_inductor_first_tree_never_fall_short():
    """Loops of a tree that takes inductors first may miss capacitor-only
    directions; the rank cross-check then raises rather than return too
    few witnesses."""
    raised = 0
    for seed in range(300):
        circuit = _random_multigraph(np.random.default_rng(seed))
        tree = SpanningTree(*_greedy_tree_reference(circuit, ComponentKind.INDUCTOR))
        loops = fundamental_loops(circuit, tree)
        try:
            witnesses = capacitor_only_cycles(circuit, loops)
        except RankCrossCheckFailure:
            raised += 1
            continue
        assert len(witnesses) == _capacitor_cycle_rank(circuit)
    assert 0 < raised < 300


def _equilibrate(mat):
    """Symmetric scaling to unit diagonal; a zero diagonal entry is scaled
    by 1."""
    diag = np.diag(mat)
    scale = np.where(diag > 0.0, 1.0 / np.sqrt(np.where(diag > 0.0, diag, 1.0)), 1.0)
    return mat * scale[:, None] * scale


def _eigenvalue_rank(eq, rel_tol):
    """The eigenvalue rule alone: eigenvalues of the equilibrated matrix
    above rel_tol times the largest, in magnitude."""
    svals = np.abs(np.linalg.eigvalsh(eq))
    smax = svals.max()
    return 0 if smax == 0.0 else int(np.sum(svals > rel_tol * smax))


@st.composite
def psd_matrices(draw):
    """(matrix, rel_tol): Q diag(lambda) Q^T with lambda_max = 1, the
    smallest eigenvalue placed against the thresholds, optional zero rows
    and diagonal scalings up to 1e+-30.  Q is random orthogonal, or the
    Fourier basis of a symmetric circulant with a positive first row: its
    diagonal is constant, so equilibration only rescales the spectrum, and
    its Gershgorin bound equals lambda_max, so the certificate's shift
    meets the threshold without slack."""
    n = draw(st.integers(1, 48))
    rel_tol = draw(st.sampled_from([1e-12, 1e-10]))
    circulant = draw(st.booleans())
    low = draw(
        st.sampled_from(["threshold", "near", "margin", "straddle", "zero", "wide"])
    )
    zero_rows = draw(st.integers(0, 2))
    decades = draw(st.integers(0, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    sign = rng.choice([-1.0, 1.0])
    smallest = {
        "threshold": rel_tol,
        "near": rel_tol * (1.0 + sign * 10.0 ** rng.uniform(-8, -1)),
        # just above the certificate's margin
        "margin": rel_tol + 4.0 * n * n * np.finfo(float).eps
        * (1.0 + sign * 10.0 ** rng.uniform(-6, 0)),
        "straddle": 10.0 ** rng.uniform(-13, -9),
        "zero": 0.0,
        "wide": 10.0 ** rng.uniform(-17, 0),
    }[low]
    floor = np.log10(max(smallest, 1e-17))
    if circulant:
        # mu_k = mu_{n-k} keeps the circulant real and symmetric; the
        # others stay far below lambda_max so every c_j is positive
        half = 10.0 ** rng.uniform(floor, max(floor, -6), n // 2 + 1)
        half[rng.integers(1, n // 2 + 1) if n > 1 else 0] = smallest
        k = np.arange(n)
        mu = half[np.minimum(k, n - k)]
        mu[0] = 1.0
        c = np.fft.ifft(mu).real
        mat = c[(k[None, :] - k[:, None]) % n]
    else:
        lam = 10.0 ** rng.uniform(floor, 0, n)
        lam[0] = 1.0
        if n > 1:
            count = rng.integers(1, 4) if low == "zero" else 1
            lam[rng.integers(1, n, count)] = smallest
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        mat = (q * lam) @ q.T
    zero = rng.choice(n, min(zero_rows, n), replace=False)
    mat[zero] = 0.0
    mat[:, zero] = 0.0
    d = 10.0 ** rng.uniform(-decades, decades, n)
    return mat * d[:, None] * d, rel_tol


@settings(max_examples=400)
@given(psd_matrices())
def test_certificate_decides_as_the_eigenvalue_rule(case):
    mat, rel_tol = case
    # the errstate is the one cli.run sets
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        eq = _equilibrate(mat)
        reference = _eigenvalue_rank(eq, rel_tol)
        certified = _certifies_full_rank(eq, rel_tol)
        assert _equilibrated_rank(mat, rel_tol) == reference
    assert not certified or reference == mat.shape[0]


def test_certificate_confirms_a_wide_margin_and_never_a_zero_row():
    n = 32
    rng = np.random.default_rng(3)
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    well = (q * np.linspace(1e-6, 1.0, n)) @ q.T
    assert _certifies_full_rank(_equilibrate(well), 1e-10)
    well[5] = well[:, 5] = 0.0
    assert not _certifies_full_rank(_equilibrate(well), 1e-10)
    assert not _certifies_full_rank(np.zeros((n, n)), 1e-10)


def test_node_quantization_reads_zero_rows_without_eigenvalues(monkeypatch, wheel):
    # the capacitor-only cycles of the wheel's rim and of the ladder's
    # parallel capacitors are zero rows of B diag(L) B^T; M and K have full
    # rank, so one Cholesky per rank test confirms each of the three
    def no_eigvalsh(*args, **kwargs):
        raise AssertionError("numpy.linalg.eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
    for circuit in (wheel, ladder(32, np.random.default_rng(7))):
        q = quantize_circuit(circuit, Representation.NODE_FLUX, GeometricPolicy())
        assert q.modes.zero_mode_count == 0


@pytest.mark.parametrize("seed", range(20))
def test_rank_fallback_counts_eigenvalues_and_leaves_its_argument(seed):
    # the loop-representation K of the passive sweep's circuits has zero
    # modes that are not zero rows, so the in-place certificate fails and
    # the eigenvalue rule runs on the matrix scaled again
    circuit = passive_class_circuit(seed, np.random.default_rng(7))
    k = quantize_circuit(circuit, Representation.LOOP_CHARGE, GeometricPolicy()).lagrangian.K
    before = k.tobytes()
    eq = _equilibrate(k)
    assert not _certifies_full_rank(eq.copy(), _K_RANK_TOL)
    expected = _eigenvalue_rank(eq, _K_RANK_TOL)
    assert expected < len(k)
    assert _equilibrated_rank(k, _K_RANK_TOL) == expected
    assert k.tobytes() == before
