import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fluxq import (
    Circuit,
    Component,
    ComponentKind,
    GeometricMode,
    GeometricPolicy,
    QuadraticLagrangian,
    Representation,
    augment_geometric,
    build_spanning_tree,
    diagnose_quantizability,
    extended_node_lagrangian,
    fundamental_loops,
    legendre_transform,
    loop_lagrangian,
    node_lagrangian,
    normal_modes,
    parse_netlist,
    quantize_circuit,
    reduce_circuit,
    topology_report,
)
from fluxq.topology import inductor_participation

from fluxq import lagrangian as lagrangian_module

from conftest import (
    extended,
    ladder,
    load,
    passive_class_circuit,
    random_active_circuit,
)
from test_topology import _random_multigraph

MINIMAL = GeometricPolicy(cap_mode=GeometricMode.MINIMAL)
ALL_PAIRS = GeometricPolicy(cap_mode=GeometricMode.ALL_PAIRS)
CIRCUIT_NAMES = (
    "passive_lc.cir", "reduced_lc.cir", "wheel.cir", "active_lc.cir", "ladder128"
)


def _circuit(name):
    if name == "ladder128":
        return ladder(128, np.random.default_rng(7))
    return load(name)


def _row(lag, cid):
    """Component cid's nonzero coefficients in A, by coordinate label."""
    return {lbl: c for lbl, c in zip(lag.labels, lag.assignment_row(cid)) if c != 0.0}


def test_node_matrices_passive(passive_lc):
    lag = node_lagrangian(passive_lc, build_spanning_tree(passive_lc))
    assert lag.labels == ("phi_2", "phi_3")
    assert np.allclose(lag.M, [[6e-12, 0.0], [0.0, 0.0]])
    third = 1e9 / 3.0
    assert np.allclose(lag.K, [[1e9, -1e9], [-1e9, 1e9 + third]])
    assert _row(lag, "L3") == {"phi_2": 1.0, "phi_3": -1.0}
    assert _row(lag, "L4") == {"phi_3": 1.0}


def test_node_matrices_reduced(reduced_lc):
    lag = node_lagrangian(reduced_lc, build_spanning_tree(reduced_lc))
    assert np.allclose(lag.M, [[6e-12]])
    assert np.allclose(lag.K, [[2.5e8]])


def test_node_no_capacitors_zero_mass():
    circuit = parse_netlist("L1 1 0 1nH\nL2 1 0 2nH")
    lag = node_lagrangian(circuit, build_spanning_tree(circuit))
    assert np.all(lag.M == 0.0)


def test_loop_matrices_passive(passive_lc):
    tree = build_spanning_tree(passive_lc)
    loops = fundamental_loops(passive_lc, tree)
    lag = loop_lagrangian(passive_lc, loops)
    assert lag.labels == ("Q_1", "Q_2")
    assert np.allclose(lag.M, [[0.0, 0.0], [0.0, 4e-9]])
    # diagonal and coupling magnitudes; the off-diagonal sign depends on
    # the chord orientation convention
    assert lag.K[0, 0] == pytest.approx(7.5e11)
    assert lag.K[1, 1] == pytest.approx(5e11)
    assert abs(lag.K[0, 1]) == pytest.approx(5e11)
    assert _row(lag, "C2") in ({"Q_1": 1.0}, {"Q_1": -1.0})


def test_loop_matrices_reduced(reduced_lc):
    tree = build_spanning_tree(reduced_lc)
    loops = fundamental_loops(reduced_lc, tree)
    lag = loop_lagrangian(reduced_lc, loops)
    assert np.allclose(lag.M, [[4e-9]])
    assert np.allclose(lag.K, [[1.0 / 6e-12]])


def test_loop_mass_rank_wheel(wheel):
    tree = build_spanning_tree(wheel)
    loops = fundamental_loops(wheel, tree)
    lag = loop_lagrangian(wheel, loops)
    assert lag.M.shape == (3, 3)
    assert np.linalg.matrix_rank(lag.M, tol=1e-12 * np.abs(lag.M).max()) == 2
    # direct construction of B diag(L) B^T as an independent check
    B, inductors = inductor_participation(wheel, loops)
    values = np.diag([wheel.component(cid).value for cid in inductors])
    assert np.allclose(lag.M, B @ values @ B.T)


def test_augment_minimal_passive(passive_lc):
    report = topology_report(passive_lc)
    augmented, record = augment_geometric(passive_lc, report, MINIMAL)
    assert len(record.added_capacitors) == 1
    cg = record.added_capacitors[0]
    assert cg.terminals == ("3", "2")
    assert cg.value == pytest.approx(8.9e-20)
    assert cg.geometric
    assert len(augmented.components) == 5
    # one self-inductance on the capacitor-only loop, a kinetic row of the
    # loop Lagrangian named after the loop's chord
    chord_index = [loop.chord for loop in report.loops].index("C2")
    assert np.array_equal(record.loop_kinetic_rows, np.eye(2)[[chord_index]])
    lag = loop_lagrangian(passive_lc, report.loops, record)
    assert lag.component_ids[-1] == "LgC2" and lag.kinetic[-1]
    assert _row(lag, "LgC2") == {f"Q_{chord_index + 1}": 1.0}
    bare = loop_lagrangian(passive_lc, report.loops)
    assert lag.M[chord_index, chord_index] == bare.M[chord_index, chord_index] + 1e-15


def test_augment_minimal_noop(reduced_lc):
    report = topology_report(reduced_lc)
    augmented, record = augment_geometric(reduced_lc, report, MINIMAL)
    assert augmented == reduced_lc
    assert record.added_capacitors == ()
    assert record.loop_kinetic_rows.shape == (0, len(report.loops))


def test_augment_all_pairs(passive_lc):
    report = topology_report(passive_lc)
    augmented, record = augment_geometric(passive_lc, report, ALL_PAIRS)
    pairs = {frozenset(c.terminals) for c in record.added_capacitors}
    assert pairs == {
        frozenset(("2", "0")),
        frozenset(("3", "0")),
        frozenset(("3", "2")),
    }
    assert np.array_equal(record.loop_kinetic_rows, np.eye(2))
    lag = loop_lagrangian(passive_lc, report.loops, record)
    lg_ids = tuple(f"Lg{loop.chord}" for loop in report.loops)
    assert lag.component_ids[-2:] == lg_ids
    assert np.array_equal(lag.assignment_matrix(lg_ids), np.eye(2))


def test_augment_off_identity(passive_lc):
    report = topology_report(passive_lc)
    augmented, record = augment_geometric(
        passive_lc, report, GeometricPolicy(cap_mode=GeometricMode.OFF)
    )
    assert augmented == passive_lc
    assert record.loop_kinetic_rows.shape == (0, 2)
    lag = loop_lagrangian(passive_lc, report.loops, record)
    assert lag.component_ids == tuple(c.id for c in passive_lc.components)


def _eager_loop_inductance(report, policy):
    """The l x l loop self-inductance matrix as a sum: one
    default_lg-weighted projector per normalized witness under MINIMAL,
    default_lg on every loop under ALL_PAIRS, none under OFF."""
    l = len(report.loops)
    if policy.cap_mode is GeometricMode.OFF:
        return np.zeros((l, l))
    if policy.cap_mode is GeometricMode.ALL_PAIRS:
        return policy.default_lg * np.eye(l)
    inductance = np.zeros((l, l))
    for w in np.array(report.witnesses, dtype=float).reshape(-1, l):
        wv = w / np.linalg.norm(w)
        inductance += policy.default_lg * np.outer(wv, wv)
    return inductance


@pytest.mark.parametrize("mode", list(GeometricMode), ids=lambda m: m.value)
@pytest.mark.parametrize("name", CIRCUIT_NAMES)
def test_loop_self_inductance_rows_add_the_eager_sum_to_m(name, mode):
    """The record's self-inductance rows, the last terms of the loop
    Lagrangian, add exactly the summed loop inductance to M (each is the
    last term of its diagonal entry) and nothing to K."""
    circuit = _circuit(name)
    report = topology_report(circuit)
    policy = GeometricPolicy(cap_mode=mode)
    _, record = augment_geometric(circuit, report, policy)
    lag = loop_lagrangian(circuit, report.loops, record)
    bare = loop_lagrangian(circuit, report.loops)
    assert np.array_equal(lag.M, bare.M + _eager_loop_inductance(report, policy))
    assert np.array_equal(lag.K, bare.K)


@pytest.mark.parametrize("mode", [GeometricMode.MINIMAL, GeometricMode.ALL_PAIRS])
@pytest.mark.parametrize("name", CIRCUIT_NAMES)
def test_node_representation_carries_no_loop_self_inductance(name, mode):
    """The node representation's terms are the augmented circuit's
    components only; the loop representation's end in one kinetic Lg row
    per self-inductance row of the record."""
    circuit, policy = _circuit(name), GeometricPolicy(cap_mode=mode)
    report = topology_report(circuit)
    augmented, record = augment_geometric(circuit, report, policy)
    node = quantize_circuit(circuit, Representation.NODE_FLUX, policy).lagrangian
    assert node.component_ids == tuple(c.id for c in augmented.components)
    assert np.array_equal(node.A, node_lagrangian(augmented).A)
    loop = loop_lagrangian(circuit, report.loops, record)
    n = len(circuit.components)
    chords = [report.loops[i].chord for i in np.nonzero(record.loop_kinetic_rows)[1]]
    assert loop.component_ids[n:] == tuple(f"Lg{chord}" for chord in chords)
    assert np.array_equal(loop.A[n:], record.loop_kinetic_rows)
    assert loop.kinetic[n:].all() and (loop.values[n:] == policy.default_lg).all()


@pytest.mark.parametrize("seed", range(300))
def test_loop_inductance_product_on_multigraphs(seed):
    """The extended representation's loop fluxes are the loops that the
    record's self-inductance rows cover, also at a subnormal Lg, where
    they are those at 1e-15."""
    circuit = _random_multigraph(np.random.default_rng(seed))
    report = topology_report(circuit)
    labels = {}
    for lg in (1e-15, 5e-324):
        policy = GeometricPolicy(GeometricMode.MINIMAL, default_lg=lg)
        augmented, record = augment_geometric(circuit, report, policy)
        rows = np.flatnonzero(record.loop_kinetic_rows.any(0)) + 1
        lag = extended_node_lagrangian(circuit, report.loops, augmented, record)
        phis = [int(s[len("Phi_") :]) for s in lag.labels if s[0] == "P"]
        assert phis == rows.tolist()
        labels[lg] = lag.labels
    assert labels[5e-324] == labels[1e-15]


@pytest.mark.parametrize("mode", list(GeometricMode), ids=lambda m: m.value)
def test_augment_rejects_a_report_of_another_circuit(passive_lc, reduced_lc, mode):
    # the augmentation reads the report's tree, loops and capacitor cycles
    foreign = topology_report(reduced_lc)
    with pytest.raises(ValueError, match="does not describe this circuit"):
        augment_geometric(passive_lc, foreign, GeometricPolicy(cap_mode=mode))


def test_augment_minimal_bridges_each_inductor_tree_edge_without_ground():
    # without ground the tree grows from the first node, "a" here; its one
    # inductor edge is L1 (c to a), and the one geometric capacitor across
    # it joins C1's island to "a", leaving the common mode as M's only null
    # direction
    circuit = Circuit(
        ("a", "b", "c"),
        (
            Component("L1", ComponentKind.INDUCTOR, 1e-9, ("a", "c")),
            Component("L2", ComponentKind.INDUCTOR, 1e-9, ("b", "a")),
            Component("C1", ComponentKind.CAPACITOR, 1e-12, ("b", "c")),
        ),
    )
    report = topology_report(circuit)
    assert report.tree.parent_component == {"c": "L1", "b": "C1"}
    augmented, record = augment_geometric(circuit, report, MINIMAL)
    cg = Component(
        "Cgca", ComponentKind.CAPACITOR, MINIMAL.default_cg, ("c", "a"), geometric=True
    )
    assert record.added_capacitors == (cg,)
    assert augmented.components == circuit.components + (cg,)
    (null,) = diagnose_quantizability(node_lagrangian(augmented)).null_space
    np.testing.assert_allclose(null, np.full(3, 3**-0.5))


def test_design_paths_between_nodes_the_circuit_does_not_join_raise():
    # the search from node 1 runs out without reaching node 3
    circuit = parse_netlist("C1 1 0 1pF\nL1 1 0 1nH\nC2 2 3 1pF\nL2 2 3 1nH\n")
    cg = Component("Cg13", ComponentKind.CAPACITOR, 1e-19, ("1", "3"), geometric=True)
    with pytest.raises(ValueError, match="no design path between nodes '1' and '3'"):
        lagrangian_module._design_paths(circuit, (cg,))


def test_lagrangian_rejects_terms_of_unequal_length():
    # one row of A per term: its id, kinetic flag and value
    with pytest.raises(ValueError, match="differ in length"):
        QuadraticLagrangian(
            Representation.NODE_FLUX,
            ("phi_1", "phi_2"),
            np.eye(2),
            ("C1", "L1"),
            np.array([True, False]),
            np.array([1e-12]),
        )


def test_a_design_inductor_named_lg_keeps_its_row():
    """A design inductor named LgC2 keeps that id; the self-inductance of
    the loop of chord C2 takes the next free one, LgC2_2."""
    circuit = parse_netlist(
        "C1 2 0 2pF\nC2 2 0 4pF\nL3 2 3 1nH\nL4 3 0 3nH\nLgC2 2 0 5nH\n"
    )
    report = topology_report(circuit)
    augmented, record = augment_geometric(circuit, report, MINIMAL)
    c2 = [loop.chord for loop in report.loops].index("C2")
    loop = loop_lagrangian(circuit, report.loops, record)
    ext = extended_node_lagrangian(circuit, report.loops, augmented, record)
    for lag in (loop, ext):
        assert lag.component_ids.count("LgC2") == 1
        assert lag.component_ids[-1] == "LgC2_2"
        assert lag.values[-1] == MINIMAL.default_lg
    # the design inductor's row is its branch charge over the loops
    bare = loop_lagrangian(circuit, report.loops)
    assert np.array_equal(loop.assignment_row("LgC2"), bare.assignment_row("LgC2"))
    assert _row(loop, "LgC2_2") == {f"Q_{c2 + 1}": 1.0}
    assert _row(ext, "LgC2") == {"phi_2": 1.0}
    assert _row(ext, "LgC2_2") == {f"Phi_{c2 + 1}": 1.0}


def test_policy_validation():
    with pytest.raises(ValueError):
        GeometricPolicy(cap_mode=GeometricMode.MINIMAL, default_cg=0.0)
    for mode in (GeometricMode.MINIMAL, GeometricMode.ALL_PAIRS):
        for name in ("default_cg", "default_lg"):
            for value in (np.inf, -np.inf, np.nan):
                with pytest.raises(ValueError, match="must be positive and finite"):
                    GeometricPolicy(cap_mode=mode, **{name: value})


def test_extended_momenta_pattern(passive_lc):
    """Coefficient pattern of the augmented kinetic matrix: the loop-1
    geometric flux couples only through C2, with coefficient -C2."""
    lag = extended(passive_lc, ALL_PAIRS)
    assert lag.labels == ("phi_2", "phi_3", "Phi_1", "Phi_2")
    i2 = lag.labels.index("phi_2")
    ip1 = lag.labels.index("Phi_1")
    assert lag.M[i2, ip1] == pytest.approx(-4e-12)
    row = lag.M[ip1]
    expected = np.zeros(4)
    expected[i2], expected[ip1] = -4e-12, 4e-12
    assert np.allclose(row, expected)
    # the chord of each dynamic loop carries its loop flux
    assert _row(lag, "C2") == {"phi_2": 1.0, "Phi_1": -1.0}
    assert _row(lag, "L4") == {"phi_3": 1.0, "Phi_2": -1.0}


def test_extended_geometric_caps_follow_design_paths(passive_lc):
    lag = extended(passive_lc, ALL_PAIRS)
    # across (3,2): shadows L3; across (3,0): shadows L4 including its loop
    # flux; across (2,0): shadows C1
    assert _row(lag, "Cg32") == {"phi_2": -1.0, "phi_3": 1.0}
    assert _row(lag, "Cg30") == {"phi_3": 1.0, "Phi_2": -1.0}
    assert _row(lag, "Cg20") == {"phi_2": 1.0}


def _scan_design_path(circuit, u, v):
    """Reference: BFS that rescans every design component for each node it
    visits, neighbors in declaration order."""
    design = [c for c in circuit.components if not c.geometric]
    prev = {}
    seen = {u}
    frontier = [u]
    while frontier and v not in seen:
        node = frontier.pop(0)
        for c in design:
            if node not in c.terminals:
                continue
            other = c.b if c.a == node else c.a
            if other in seen:
                continue
            seen.add(other)
            prev[other] = (node, c, +1 if c.a == node else -1)
            frontier.append(other)
    if v not in seen:
        raise ValueError(f"no design path between nodes {u!r} and {v!r}")
    steps = []
    node = v
    while node != u:
        node, comp, direction = prev[node]
        steps.append((comp, direction))
    return steps[::-1]


@pytest.mark.parametrize(
    "name",
    ["passive_lc.cir", "reduced_lc.cir", "active_lc.cir", "wheel.cir", "ladder64"],
)
@pytest.mark.parametrize("mode", list(GeometricMode))
def test_extended_design_paths_match_scan_bfs(name, mode, monkeypatch):
    """The indexed breadth-first trees give every geometric capacitor the
    path of a per-call scan BFS: identical paths, assignment, M and K."""
    circuit = ladder(64, np.random.default_rng(7)) if name == "ladder64" else load(name)
    policy = GeometricPolicy(cap_mode=mode)
    lag = extended(circuit, policy)
    augmented, record = augment_geometric(circuit, topology_report(circuit), policy)
    scan = [_scan_design_path(augmented, c.a, c.b) for c in record.added_capacitors]
    assert lagrangian_module._design_paths(augmented, record.added_capacitors) == scan
    monkeypatch.setattr(
        lagrangian_module,
        "_design_paths",
        lambda aug, caps: [_scan_design_path(aug, c.a, c.b) for c in caps],
    )
    reference = extended(circuit, policy)
    assert np.array_equal(lag.A, reference.A)
    assert np.array_equal(lag.M, reference.M)
    assert np.array_equal(lag.K, reference.K)
    if mode is GeometricMode.ALL_PAIRS:
        assert record.added_capacitors  # the comparison covered some paths


def _full_search_design_paths(augmented, capacitors):
    """Reference: a whole-circuit breadth-first search per first terminal
    over the design components (neighbors in declaration order, a node
    keeps its first parent), each capacitor's path read off that tree from
    its second terminal back to the root."""
    neighbors = {}
    for c in augmented.components:
        if not c.geometric:
            neighbors.setdefault(c.a, []).append((c.b, c))
            neighbors.setdefault(c.b, []).append((c.a, c))
    trees = {}
    paths = []
    for cap in capacitors:
        if cap.a not in trees:
            parent = {cap.a: None}
            frontier = [cap.a]
            for node in frontier:  # grows while it is read
                for other, c in neighbors.get(node, ()):
                    if other not in parent:
                        parent[other] = (node, c)
                        frontier.append(other)
            trees[cap.a] = parent
        parent = trees[cap.a]
        if cap.b == cap.a or cap.b not in parent:
            raise ValueError(f"no design path between nodes {cap.a!r} and {cap.b!r}")
        steps, node = [], cap.b
        while parent[node] is not None:
            prev, c = parent[node]
            steps.append((c, +1 if c.terminals == (prev, node) else -1))
            node = prev
        paths.append(steps[::-1])
    return paths


_PATH_CIRCUITS = (
    "passive_lc.cir",
    "reduced_lc.cir",
    "wheel.cir",
    "active_lc.cir",
    "ladder16",
    "ladder128",
    *(f"sweep{i}" for i in range(20)),
)


def _path_circuit(name):
    if name.startswith("ladder"):
        return ladder(int(name[len("ladder"):]), np.random.default_rng(7))
    if name.startswith("sweep"):
        return passive_class_circuit(int(name[len("sweep"):]), np.random.default_rng(7))
    return load(name)


@pytest.mark.parametrize("name", _PATH_CIRCUITS)
@pytest.mark.parametrize(
    "mode", [GeometricMode.MINIMAL, GeometricMode.ALL_PAIRS], ids=lambda g: g.value
)
def test_design_paths_match_full_search(name, mode):
    """Searches resumed only until each capacitor's second terminal is
    reached give the paths of a whole search per first terminal."""
    circuit = _path_circuit(name)
    policy = GeometricPolicy(cap_mode=mode)
    augmented, record = augment_geometric(circuit, topology_report(circuit), policy)
    caps = record.added_capacitors
    expected = _full_search_design_paths(augmented, caps)
    assert lagrangian_module._design_paths(augmented, caps) == expected
    if mode is GeometricMode.ALL_PAIRS:
        assert caps  # the comparison covered some paths


def test_extended_phi_block_restriction_matches_node(passive_lc):
    """With loop fluxes frozen at zero the extended Lagrangian restricted
    to the node block is the node Lagrangian of the augmented circuit."""
    report = topology_report(passive_lc)
    lag_ext = extended(passive_lc, ALL_PAIRS)
    augmented, _ = augment_geometric(passive_lc, report, ALL_PAIRS)
    lag_node = node_lagrangian(augmented, build_spanning_tree(augmented))
    n = len(lag_node.labels)
    assert np.allclose(lag_ext.M[:n, :n], lag_node.M)
    assert np.allclose(lag_ext.K[:n, :n], lag_node.K)


def test_extended_dynamic_loops_are_the_nonzero_loop_inductance_rows():
    """A loop is dynamic where a self-inductance row of the record covers
    it, and that self-inductance is a potential row of its own on the
    loop's flux, so no loop is dropped at the subnormal Lg = 5e-324."""
    circuit = parse_netlist(
        "L0 n2 0 1e-12\nC1 n2 0 1e-12\nC2 n1 n2 1e-12\nC3 n1 0 1e-12\n"
        "L4 0 n1 1e-12\nC5 n2 0 1e-12\nC6 0 n2 1e-12\nC7 0 n1 1e-12\n"
    )
    report = topology_report(circuit)
    for lg, phis in ((1e-15, [2, 4, 5, 6]), (5e-324, [2, 4, 5, 6])):
        policy = GeometricPolicy(GeometricMode.MINIMAL, default_lg=lg)
        augmented, record = augment_geometric(circuit, report, policy)
        rows = np.flatnonzero(record.loop_kinetic_rows.any(0)) + 1
        lag = extended_node_lagrangian(circuit, report.loops, augmented, record)
        assert [int(s[len("Phi_") :]) for s in lag.labels if s[0] == "P"] == phis
        assert rows.tolist() == phis
        lg_ids = [f"Lg{report.loops[i - 1].chord}" for i in phis]
        assert list(lag.component_ids[-len(phis) :]) == lg_ids
        assert not lag.kinetic[-len(phis) :].any()
        assert np.array_equal(lag.A[-len(phis) :, -len(phis) :], np.eye(len(phis)))


def test_extended_reduces_to_node_when_inactive(reduced_lc):
    tree = build_spanning_tree(reduced_lc)
    lag_ext = extended(reduced_lc, MINIMAL)
    lag_node = node_lagrangian(reduced_lc, tree)
    assert lag_ext.labels == lag_node.labels
    assert np.allclose(lag_ext.M, lag_node.M)
    assert np.allclose(lag_ext.K, lag_node.K)


def test_extended_low_mode_converges_to_reduced(passive_lc, reduced_lc):
    red = node_lagrangian(reduced_lc, build_spanning_tree(reduced_lc))
    f_red = normal_modes(legendre_transform(red)).omegas[0] / (2 * np.pi)
    errors = []
    for cg, lg in ((8.9e-19, 1e-14), (8.9e-20, 1e-15), (8.9e-21, 1e-16)):
        policy = GeometricPolicy(
            cap_mode=GeometricMode.MINIMAL, default_cg=cg, default_lg=lg
        )
        lag = extended(passive_lc, policy)
        f_low = normal_modes(legendre_transform(lag)).omegas[0] / (2 * np.pi)
        errors.append(abs(f_low - f_red) / f_red)
    assert errors[0] > errors[-1]
    assert errors[-1] < 1e-6


def test_gauge_shift_changes_only_grounded_branches(passive_lc):
    lag = node_lagrangian(passive_lc, build_spanning_tree(passive_lc))
    shift = np.ones(lag.dim)
    for comp in passive_lc.components:
        row = lag.assignment_row(comp.id)
        touches_ground = "0" in comp.terminals
        if touches_ground:
            assert row @ shift != 0.0
        else:
            assert row @ shift == 0.0


@given(st.integers(0, 10_000))
def test_matrices_symmetric_psd_random(seed):
    rng = np.random.default_rng(seed)
    circuit = random_active_circuit(rng)
    tree = build_spanning_tree(circuit)
    loops = fundamental_loops(circuit, tree)
    for lag in (node_lagrangian(circuit, tree), loop_lagrangian(circuit, loops)):
        for mat in (lag.M, lag.K):
            assert np.allclose(mat, mat.T)
            evals = np.linalg.eigvalsh(mat)
            floor = -1e-12 * max(evals.max(), 0.0)
            assert evals.min() >= floor


def test_node_mass_singularity_matches_structure(passive_lc, wheel, active_lc):
    # M singular exactly when some node lacks a capacitive path to ground
    for circuit, singular in ((passive_lc, True), (wheel, True), (active_lc, False)):
        lag = node_lagrangian(circuit, build_spanning_tree(circuit))
        svals = np.linalg.svd(lag.M, compute_uv=False)
        numeric = svals.min() < 1e-12 * svals.max()
        assert numeric == singular


def test_reduction_preserves_nonzero_node_spectrum(passive_lc):
    """Eliminated coordinates are passive, so the finite generalized
    eigenvalues survive reduction; the singular pencil is solved by the
    QZ algorithm as an independent oracle."""
    import scipy.linalg

    lag_full = node_lagrangian(passive_lc, build_spanning_tree(passive_lc))
    evals = scipy.linalg.eig(lag_full.K, lag_full.M, right=False)
    finite = np.sort(np.real(evals[np.isfinite(evals)]))
    reduced = reduce_circuit(passive_lc)
    lag_red = node_lagrangian(reduced, build_spanning_tree(reduced))
    modes = normal_modes(legendre_transform(lag_red))
    assert finite.size == 1
    assert np.sqrt(finite[0]) == pytest.approx(modes.omegas[0], rel=1e-9)


def test_lagrangian_json_round(passive_lc):
    import json

    lag = node_lagrangian(passive_lc, build_spanning_tree(passive_lc))
    payload = json.loads(json.dumps(lag.to_json_dict()))
    assert payload["representation"] == "node"
    assert payload["labels"] == ["phi_2", "phi_3"]
    assert payload["M"][0][0] == pytest.approx(6e-12)
    assert payload["flux_assignment"]["L3"] == {"phi_2": 1.0, "phi_3": -1.0}
