import dataclasses
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxq import (
    HBAR,
    ComponentKind,
    GeometricMode,
    GeometricPolicy,
    HamiltonianSystem,
    KineticMatrixOverflow,
    RankCrossCheckFailure,
    Representation,
    SingularKineticMatrix,
    augment_geometric,
    build_spanning_tree,
    cli,
    diagnose_quantizability,
    fundamental_loops,
    ground_state,
    legendre_transform,
    loop_lagrangian,
    mode_attribution,
    mode_uncertainty_products,
    node_lagrangian,
    normal_modes,
    parse_netlist,
    quantize_circuit,
    reduce_circuit,
    topology_report,
)
from fluxq import lagrangian
from fluxq.quantize import (
    _BLOCK_ROOT_MIN_DIM,
    _K_RANK_TOL,
    _mass_blocks,
    _mass_root_weights,
    _max_weight_assignment,
)
from fluxq.topology import SpanningTree, _equilibrated_rank

from conftest import (
    attribution_weights,
    ladder,
    load,
    passive_class_circuit,
    pencil_frequencies_2x2,
    random_active_circuit,
)
from test_topology import _greedy_tree_reference

NETLIST_NAMES = ("passive_lc.cir", "reduced_lc.cir", "wheel.cir", "active_lc.cir")

MINIMAL = GeometricPolicy(cap_mode=GeometricMode.MINIMAL)


def node_system(circuit):
    return node_lagrangian(circuit, build_spanning_tree(circuit))


def loop_system(circuit, loop_inductance=None, kinetic_rows=()):
    tree = build_spanning_tree(circuit)
    loops = fundamental_loops(circuit, tree)
    return loop_lagrangian(circuit, loops, loop_inductance, kinetic_rows)


def augmented_node(circuit, policy=MINIMAL):
    report = topology_report(circuit)
    augmented, _ = augment_geometric(circuit, report, policy)
    return augmented, node_lagrangian(augmented, build_spanning_tree(augmented))


def augmented_loop(circuit, policy=MINIMAL):
    report = topology_report(circuit)
    _, record = augment_geometric(circuit, report, policy)
    tree = build_spanning_tree(circuit)
    loops = fundamental_loops(circuit, tree)
    return loop_lagrangian(
        circuit, loops, record.loop_inductance, record.loop_kinetic_rows
    )


def test_diagnose_passive_node_rep(passive_lc):
    diag = diagnose_quantizability(node_system(passive_lc))
    assert not diag.quantizable
    assert len(diag.null_space) == 1
    assert np.array_equal(diag.null_space[0], [0.0, 1.0])
    assert diag.attributions == ("node 3: no attached capacitance",)


def test_diagnose_passive_loop_rep(passive_lc):
    diag = diagnose_quantizability(loop_system(passive_lc))
    assert not diag.quantizable
    assert np.array_equal(diag.null_space[0], [1.0, 0.0])
    assert "loop 1" in diag.attributions[0]


def test_diagnose_names_a_combination_of_loops():
    # an inductor-first tree makes L1 the tree and both capacitors chords:
    # each loop holds L1, so only their difference misses its inductance
    circuit = parse_netlist("L1 0 1 1nH\nC1 0 1 1pF\nC2 0 1 2pF\n")
    tree = SpanningTree(*_greedy_tree_reference(circuit, ComponentKind.INDUCTOR))
    assert tree.tree == ("L1",)
    loops = fundamental_loops(circuit, tree)
    diag = diagnose_quantizability(loop_lagrangian(circuit, loops))
    assert not diag.quantizable
    # the row reduction gives (-1, 1); the first nonzero entry is made positive
    assert np.array_equal(diag.null_space[0], np.array([1.0, -1.0]) / np.sqrt(2.0))
    assert diag.attributions == ("loops 1, 2: no net inductance around the combination",)


def test_diagnose_augmented_is_quantizable(passive_lc):
    _, lag = augmented_node(passive_lc)
    assert diagnose_quantizability(lag).quantizable
    assert diagnose_quantizability(augmented_loop(passive_lc)).quantizable


def test_diagnose_wheel(wheel):
    diag_n = diagnose_quantizability(node_system(wheel))
    assert not diag_n.quantizable
    assert diag_n.attributions == ("node 4: no attached capacitance",)
    diag_l = diagnose_quantizability(loop_system(wheel))
    assert not diag_l.quantizable
    assert len(diag_l.null_space) == 1


def test_diagnose_rank_cross_check_failure(passive_lc):
    # Cg = 1e300 swamps the design capacitors: the structural rows are of
    # full rank, but the equilibrated M is numerically singular
    _, lag = augmented_node(passive_lc, GeometricPolicy(GeometricMode.MINIMAL, 1e300))
    with pytest.raises(RankCrossCheckFailure) as err:
        diagnose_quantizability(lag)
    assert isinstance(err.value, RuntimeError)
    assert (err.value.structural, err.value.numeric) == (0, 1)
    assert str(err.value) == (
        "kinetic matrix rank unconfirmed: structural null space dimension 0 "
        "disagrees with numeric estimate 1"
    )


def test_legendre_scalar(reduced_lc):
    h = legendre_transform(node_system(reduced_lc))
    assert np.allclose(h.minv, [[1.0 / 6e-12]])
    assert np.allclose(h.k, [[2.5e8]])


def test_legendre_raises_on_passive(passive_lc):
    with pytest.raises(SingularKineticMatrix) as err:
        legendre_transform(node_system(passive_lc))
    assert "node 3" in str(err.value)
    assert not err.value.diagnosis.quantizable


def test_legendre_augmented_matches_direct_inverse(passive_lc):
    """2x2 inverse oracle: adjugate over determinant."""
    _, lag = augmented_node(passive_lc)
    cg = 8.9e-20
    m = np.array([[6e-12 + cg, -cg], [-cg, cg]])
    assert np.allclose(lag.M, m)
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    inverse = np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]]) / det
    h = legendre_transform(lag)
    assert np.allclose(h.minv, inverse, rtol=1e-12)
    cond = np.linalg.cond(m)
    assert cond == pytest.approx(6.7e7, rel=0.01)


def test_modes_reduced_frequency(reduced_lc):
    h = legendre_transform(node_system(reduced_lc))
    modes = normal_modes(h)
    f_ghz = modes.omegas[0] / (2 * math.pi) / 1e9
    closed_form = 1.0 / (2 * math.pi * math.sqrt(6e-12 * 4e-9)) / 1e9
    assert f_ghz == pytest.approx(closed_form, rel=1e-12)
    assert f_ghz == pytest.approx(1.0273, rel=1e-4)


def test_modes_augmented_node_against_pencil_oracle(passive_lc):
    _, lag = augmented_node(passive_lc)
    modes = normal_modes(legendre_transform(lag))
    freqs = modes.omegas / (2 * math.pi)
    cg = 8.9e-20
    oracle = pencil_frequencies_2x2(
        [[6e-12 + cg, -cg], [-cg, cg]],
        [[1e9, -1e9], [-1e9, 1e9 + 1e9 / 3.0]],
    )
    assert freqs[0] == pytest.approx(oracle[0], rel=1e-10)
    assert freqs[1] == pytest.approx(oracle[1], rel=1e-10)
    assert freqs[1] == pytest.approx(1.948e13, rel=1e-3)


def test_modes_augmented_loop_against_pencil_oracle(passive_lc):
    policy = GeometricPolicy(cap_mode=GeometricMode.MINIMAL, default_lg=1e-14)
    lag = augmented_loop(passive_lc, policy)
    modes = normal_modes(legendre_transform(lag))
    freqs = modes.omegas / (2 * math.pi)
    k12 = lag.K[0, 1]
    oracle = pencil_frequencies_2x2(
        [[1e-14, 0.0], [0.0, 4e-9]],
        [[7.5e11, k12], [k12, 5e11]],
    )
    assert freqs[0] == pytest.approx(oracle[0], rel=1e-10)
    assert freqs[1] == pytest.approx(oracle[1], rel=1e-10)
    assert freqs[1] == pytest.approx(1.378e12, rel=1e-3)


def test_mode_shape_invariants(passive_lc):
    _, lag = augmented_node(passive_lc)
    h = legendre_transform(lag)
    modes = normal_modes(h)
    m = h.mass_matrix()
    gram = modes.modes.T @ m @ modes.modes
    assert np.abs(gram - np.eye(2)).max() < 1e-10
    residual = h.k @ modes.modes - m @ modes.modes @ np.diag(modes.omegas**2)
    for k in range(2):
        scale = np.linalg.norm(h.k @ modes.modes[:, k]) + np.linalg.norm(
            modes.omegas[k] ** 2 * (m @ modes.modes[:, k])
        )
        assert np.linalg.norm(residual[:, k]) <= 1e-9 * scale


@pytest.mark.parametrize("name", NETLIST_NAMES)
@pytest.mark.parametrize("rep", list(Representation), ids=lambda r: r.value)
def test_hamiltonian_holds_only_the_mass_factor(name, rep):
    """M is held once, as its Cholesky factor; M^-1 is formed on first read,
    as the symmetrized Gram product of the factor's triangular inverse."""
    try:
        q = quantize_circuit(load(name), rep, GeometricPolicy())
    except SingularKineticMatrix:
        return
    h = q.hamiltonian
    assert [f.name for f in dataclasses.fields(h)] == ["labels", "mass_factor", "k"]
    assert "minv" not in vars(h)
    assert np.array_equal(h.mass_factor, np.linalg.cholesky(q.lagrangian.M))
    inv = scipy.linalg.solve_triangular(h.mass_factor, np.eye(h.dim), lower=True)
    with np.errstate(over="ignore", invalid="ignore"):
        eager = inv.T @ inv
        eager = 0.5 * (eager + eager.T)
    assert np.array_equal(h.minv, eager)
    assert "minv" in vars(h)
    with pytest.raises(dataclasses.FrozenInstanceError):
        h.k = h.k


def test_zero_modes_are_legal():
    circuit = parse_netlist("C1 1 0 1pF")
    h = legendre_transform(node_system(circuit))
    modes = normal_modes(h)
    assert modes.zero_mode_count == 1
    assert modes.omegas[0] == 0.0
    with pytest.warns(UserWarning):
        ground_state(modes, h)


def test_ground_state_single_mode(reduced_lc):
    h = legendre_transform(node_system(reduced_lc))
    modes = normal_modes(h)
    state = ground_state(modes, h)
    products = mode_uncertainty_products(state)
    assert products[0] == pytest.approx(HBAR / 2.0, rel=1e-14)
    impedance = math.sqrt(4e-9 / 6e-12)
    assert impedance == pytest.approx(25.82, rel=1e-3)
    delta_phi = math.sqrt(state.cov[0, 0])
    assert delta_phi == pytest.approx(math.sqrt(HBAR * impedance / 2.0), rel=1e-12)


def test_ground_state_augmented_products(passive_lc):
    _, lag = augmented_node(passive_lc)
    h = legendre_transform(lag)
    modes = normal_modes(h)
    state = ground_state(modes, h)
    products = mode_uncertainty_products(state)
    assert np.all(products >= HBAR / 2.0 - 1e-12 * (HBAR / 2.0))


def test_mode_attribution_augmented(passive_lc):
    _, lag = augmented_node(passive_lc)
    h = legendre_transform(lag)
    modes = normal_modes(h)
    attribution = mode_attribution(modes, h)
    assert attribution["phi_2"] == pytest.approx(modes.omegas[0])
    assert attribution["phi_3"] == pytest.approx(modes.omegas[1])


def test_mode_attribution_single(reduced_lc):
    h = legendre_transform(node_system(reduced_lc))
    modes = normal_modes(h)
    assert list(mode_attribution(modes, h)) == ["phi_2"]


def test_mode_attribution_diagonal_identity():
    from fluxq.quantize import HamiltonianSystem

    k = np.diag([5e8, 9e8])
    h = HamiltonianSystem(
        ("a", "b"), mass_factor=np.diag(np.sqrt([2e-12, 3e-12])), k=k
    )
    modes = normal_modes(h)
    attribution = mode_attribution(modes, h)
    assert attribution["a"] == pytest.approx(math.sqrt(5e8 / 2e-12) / 1.0)
    assert attribution["b"] == pytest.approx(math.sqrt(9e8 / 3e-12) / 1.0)


def test_mode_attribution_without_coordinates():
    # a circuit without loops has no coordinate in the loop representation
    h = legendre_transform(loop_system(parse_netlist("C1 1 0 1pF")))
    assert mode_attribution(normal_modes(h), h) == {}


def _attribution_reference(modes, h):
    """mode_attribution as first written: M^{1/2} through np.diag and a
    per-column argmax, conflicts settled by optimal assignment."""
    m = h.mass_matrix()
    evals, q = np.linalg.eigh(m)
    msqrt = q @ np.diag(np.sqrt(np.clip(evals, 0.0, None))) @ q.T
    w = np.abs(msqrt @ modes.modes)
    picks = [int(np.argmax(w[:, k])) for k in range(modes.dim)]
    if len(set(picks)) != modes.dim:
        rows, cols = scipy.optimize.linear_sum_assignment(-w.T)
        picks = [int(c) for _, c in sorted(zip(rows, cols))]
    return {h.labels[coord]: float(modes.omegas[k]) for k, coord in enumerate(picks)}


def _assert_attribution_matches_reference(circuit, rep, policy):
    try:
        q = quantize_circuit(circuit, rep, policy)
    except SingularKineticMatrix:
        return  # nothing to attribute in this configuration
    expected = _attribution_reference(q.modes, q.hamiltonian)
    assert mode_attribution(q.modes, q.hamiltonian) == expected


# the bundled netlists under every geometric mode; ladders on both sides of
# _BLOCK_ROOT_MIN_DIM coordinates and circuits of the passive sweep's class
# (at its largest and smallest Cg/C) under the default policy
ATTRIBUTION_CASES = [
    pytest.param(GeometricPolicy(mode), name, id=f"{mode.value}-{name}")
    for name in NETLIST_NAMES
    for mode in GeometricMode
] + [
    pytest.param(MINIMAL, f"ladder{n}-seed{seed}", id=f"minimal-ladder{n}-seed{seed}")
    for n in (16, 64, 128, 256)
    for seed in (7, 11)
] + [
    pytest.param(
        GeometricPolicy(default_cg=ratio * 1e-12, default_lg=ratio * 1e-9),
        f"sweep{i}",
        id=f"minimal{ratio:.0e}-sweep{i}",
    )
    for i in range(0, 20, 3)
    for ratio in (1e-2, 1e-12)
]


def _attribution_circuit(name):
    if name.startswith("ladder"):
        n, seed = name[len("ladder"):].split("-seed")
        return ladder(int(n), np.random.default_rng(int(seed)))
    if name.startswith("sweep"):
        return passive_class_circuit(int(name[len("sweep"):]), np.random.default_rng(7))
    return load(name)


@pytest.mark.parametrize(("policy", "name"), ATTRIBUTION_CASES)
@pytest.mark.parametrize("rep", list(Representation), ids=lambda r: r.value)
def test_mode_attribution_matches_reference(name, policy, rep):
    _assert_attribution_matches_reference(_attribution_circuit(name), rep, policy)


def test_mode_attribution_raises_on_non_finite_weights(active_lc):
    # M stays finite at 6e307 F, but its square root times V does not
    policy = GeometricPolicy(GeometricMode.ALL_PAIRS, default_cg=6e307)
    q = quantize_circuit(active_lc, Representation.NODE_FLUX, policy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(KineticMatrixOverflow):
            mode_attribution(q.modes, q.hamiltonian)


@pytest.mark.parametrize("rep", list(Representation), ids=lambda r: r.value)
def test_ladder_mode_attribution_matches_reference(rep):
    # 128 nodes: per-column argmax conflicts, so the assignment path runs
    circuit = ladder(128, np.random.default_rng(7))
    _assert_attribution_matches_reference(circuit, rep, MINIMAL)


def _pattern_components(m):
    """Reference: the connected components of m's nonzero pattern, by a
    breadth-first search over its rows."""
    parts, seen = set(), set()
    for start in range(len(m)):
        if start in seen:
            continue
        comp, frontier = {start}, [start]
        for i in frontier:  # grows while it is read
            for j in np.flatnonzero(m[i]).tolist():
                if j not in comp:
                    comp.add(j)
                    frontier.append(j)
        seen |= comp
        parts.add(frozenset(comp))
    return parts


def _label_partition(label):
    parts = {}
    for j, lbl in enumerate(label.tolist()):
        parts.setdefault(lbl, set()).add(j)
    return {frozenset(p) for p in parts.values()}


# The Cholesky factor of this matrix is exact, and its fill entry (2, 1) is
# 1 - 1 * 1 = 0: coordinate 1 loses its parent 2 in the elimination forest
# although entry (2, 0) still joins the three coordinates.
_CANCELLED_BLOCK = np.array([[1.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]])


def _block_diagonal_mass(sizes, cancelled, rng, spread=20):
    """A random SPD matrix with one connected component per entry of
    `sizes` (a random tree plus random extra couplings, diagonally
    dominant) on randomly permuted coordinates.  With `cancelled`, 4^k
    times _CANCELLED_BLOCK, |k| <= spread, is one more component, on
    coordinates in increasing order, which are returned too."""
    n = sum(sizes) + 3 * cancelled
    perm = rng.permutation(n)
    m = np.zeros((n, n))
    start = 0
    for size in sizes:
        idx = perm[start : start + size]
        start += size
        edges = [(k, int(rng.integers(0, k))) for k in range(1, size)]
        edges += [(a, b) for a in range(size) for b in range(a) if rng.random() < 0.3]
        for a, b in edges:
            w = rng.uniform(-1.0, 1.0)
            m[idx[a], idx[b]] = m[idx[b], idx[a]] = w
        m[idx, idx] = np.abs(m[idx]).sum(1) + rng.uniform(0.1, 1.0, size)
    cut = np.sort(perm[start:])
    if cancelled:
        m[np.ix_(cut, cut)] = 4.0 ** int(rng.integers(-spread, spread + 1)) * _CANCELLED_BLOCK
    return m, cut


@settings(max_examples=200)
@given(
    st.lists(st.integers(1, 5), min_size=1, max_size=10),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_mass_blocks_are_the_components_of_m(sizes, cancelled, seed):
    m, cut = _block_diagonal_mass(sizes, cancelled, np.random.default_rng(seed))
    f = np.linalg.cholesky(m)
    if cancelled:
        assert f[cut[2], cut[1]] == 0.0 != m[cut[2], cut[1]]  # the fill cancelled
    assert _label_partition(_mass_blocks(f)) == _pattern_components(m)


def test_mass_blocks_join_a_factor_with_a_cancelled_fill_entry():
    f = np.linalg.cholesky(_CANCELLED_BLOCK)
    assert f[2, 1] == 0.0
    assert _mass_blocks(f).tolist() == [1, 1, 1]


@pytest.mark.parametrize("cancelled", [False, True])
@pytest.mark.parametrize("seed", range(4))
def test_block_root_weights_match_the_dense_root(seed, cancelled):
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 6, _BLOCK_ROOT_MIN_DIM).tolist()
    m, _ = _block_diagonal_mass(sizes, cancelled, rng, spread=0)
    v = rng.standard_normal(m.shape)
    evals, q = np.linalg.eigh(m)
    expected = np.abs((q * np.sqrt(evals)) @ q.T @ v)
    w = _mass_root_weights(np.linalg.cholesky(m), v)
    assert np.abs(w - expected).max() <= 1e-12 * np.abs(expected).max()


def _optimal_picks(w):
    """The oracle: scipy's assignment of modes (rows of -w^T) to
    coordinates, read as the coordinate of each mode."""
    rows, cols = scipy.optimize.linear_sum_assignment(-w.T)
    assert rows.tolist() == list(range(w.shape[0]))
    return cols.tolist()


@given(st.integers(1, 64), st.booleans(), st.integers(0, 2**32 - 1))
def test_max_weight_assignment_matches_linear_sum_assignment(n, orthogonal, seed):
    # |orthogonal| is the shape mode_attribution passes (M^{1/2} V is
    # orthogonal); uniform positive weights have no such structure.  The
    # errstate is the one cli.run sets: the inf prices must not trip it.
    rng = np.random.default_rng(seed)
    if orthogonal:
        w = np.abs(np.linalg.qr(rng.standard_normal((n, n)))[0])
    else:
        w = rng.random((n, n))
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        picks = _max_weight_assignment(w)
    assert picks == _optimal_picks(w)


@given(st.integers(1, 24), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_max_weight_assignment_with_ties_is_optimal(n, top, seed):
    # small integers: many optimal assignments, and every total is exact
    w = np.random.default_rng(seed).integers(0, top, (n, n)).astype(float)
    picks = _max_weight_assignment(w)
    assert sorted(picks) == list(range(n))
    assert w[picks, range(n)].sum() == w[_optimal_picks(w), range(n)].sum()


def test_max_weight_assignment_tie_rule():
    # all picks conflict on coordinate 0; mode 0 keeps it and the others
    # augment in mode order, each to the lowest coordinate left
    assert _max_weight_assignment(np.ones((5, 5))) == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("seed", [7, 11])
@pytest.mark.parametrize("rep", list(Representation), ids=lambda r: r.value)
def test_max_weight_assignment_on_ladder_weights(seed, rep):
    q = quantize_circuit(ladder(128, np.random.default_rng(seed)), rep, MINIMAL)
    w = attribution_weights(q.modes, q.hamiltonian)
    assert len(set(w.argmax(axis=0).tolist())) < q.modes.dim  # picks conflict
    assert _max_weight_assignment(w) == _optimal_picks(w)


@pytest.mark.parametrize("name", NETLIST_NAMES)
@pytest.mark.parametrize("rep", list(Representation), ids=lambda r: r.value)
def test_momentum_modes_are_inverse_transpose(name, rep):
    q = quantize_circuit(load(name), rep, MINIMAL)
    v, u = q.modes.modes, q.modes.momentum_modes
    solved = np.linalg.solve(v.T, np.eye(q.modes.dim))
    assert np.abs(u - solved).max() <= 1e-12 * np.abs(solved).max()
    assert np.abs(v.T @ u - np.eye(q.modes.dim)).max() <= 1e-12
    assert not u.flags.writeable


@given(st.integers(0, 10_000))
def test_representation_duality_random(seed):
    """Nonzero spectra of the node and loop representations agree."""
    rng = np.random.default_rng(seed)
    circuit = random_active_circuit(rng)
    tree = build_spanning_tree(circuit)
    loops = fundamental_loops(circuit, tree)
    node_modes = normal_modes(legendre_transform(node_lagrangian(circuit, tree)))
    loop_modes = normal_modes(legendre_transform(loop_lagrangian(circuit, loops)))
    wn = node_modes.omegas[node_modes.omegas > 0.0]
    wl = loop_modes.omegas[loop_modes.omegas > 0.0]
    assert wn.size == wl.size
    if wn.size:
        assert np.abs(wn - wl).max() <= 1e-9 * wn.max()


def test_reduction_spectrum_consistency(passive_lc):
    reduced = reduce_circuit(passive_lc)
    modes_red = normal_modes(legendre_transform(node_system(reduced)))
    _, lag_aug = augmented_node(passive_lc)
    modes_aug = normal_modes(legendre_transform(lag_aug))
    for w in modes_red.omegas:
        assert np.min(np.abs(modes_aug.omegas - w)) <= 0.01 * w


def _fraction_nullspace_reference(rows, dim):
    """The exact rational Gauss-Jordan (first nonzero pivot) that the
    diagnosis used before it moved to floating-point row reduction."""
    from fractions import Fraction

    matrix = [[Fraction(int(x)) for x in row] for row in rows]
    pivots = []
    rank = 0
    for col in range(dim):
        pivot_row = next(
            (r for r in range(rank, len(matrix)) if matrix[r][col] != 0), None
        )
        if pivot_row is None:
            continue
        matrix[rank], matrix[pivot_row] = matrix[pivot_row], matrix[rank]
        pv = matrix[rank][col]
        matrix[rank] = [x / pv for x in matrix[rank]]
        for r in range(len(matrix)):
            if r != rank and matrix[r][col] != 0:
                factor = matrix[r][col]
                matrix[r] = [a - factor * b for a, b in zip(matrix[r], matrix[rank])]
        pivots.append(col)
        rank += 1
    basis = []
    for fc in (c for c in range(dim) if c not in pivots):
        vec = [Fraction(0)] * dim
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -matrix[r][fc]
        basis.append([float(x) for x in vec])
    return np.array(basis).reshape(len(basis), dim)


def _random_integer_rows(rng):
    rows, dim = int(rng.integers(1, 15)), int(rng.integers(1, 18))
    kind = rng.integers(0, 3)
    if kind == 0:  # full random, generically of full rank
        return rng.integers(-3, 4, size=(rows, dim))
    if kind == 1:  # rank-deficient: sums of a few -3..3 rows
        base = rng.integers(-3, 4, size=(int(rng.integers(1, 5)), dim))
        return rng.integers(0, 2, size=(rows, len(base))) @ base
    # sparse, with repeated and zero rows
    mat = rng.integers(-3, 4, size=(rows, dim)) * (rng.random((rows, dim)) < 0.3)
    mat[rng.integers(0, rows)] = mat[rng.integers(0, rows)]
    return mat


@pytest.mark.parametrize("seed", range(60))
def test_nullspace_matches_fraction_reference(seed):
    from fluxq.quantize import _rref_nullspace

    rows = _random_integer_rows(np.random.default_rng(seed))
    expected = _fraction_nullspace_reference(rows, rows.shape[1])
    got = _rref_nullspace(rows.astype(float))
    assert got.shape == expected.shape
    scale = max(1.0, np.abs(expected).max(initial=0.0))
    assert np.abs(got - expected).max(initial=0.0) <= 1e-12 * scale
    # exact zeros stay exact: the diagnosis names a null vector's support
    assert np.array_equal(got != 0.0, expected != 0.0)


@pytest.mark.parametrize("seed", range(20))
def test_nullspace_of_incidence_rows_is_exact(seed):
    # node-incidence rows (ground column dropped) are totally unimodular:
    # every pivot is +-1, so the basis must equal the rational one exactly
    from fluxq.quantize import _rref_nullspace

    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 12))
    rows = np.zeros((int(rng.integers(1, 2 * dim)), dim + 1))
    for row in rows:
        a, b = rng.choice(dim + 1, size=2, replace=False)
        row[a], row[b] = 1.0, -1.0
    rows = rows[:, 1:]
    expected = _fraction_nullspace_reference(rows, dim)
    assert np.array_equal(_rref_nullspace(rows), expected)


def _tall_integer_rows(kind, dim, rng):
    """At least as many rows as columns, so the LU certificate is tried."""
    rows = dim + int(rng.integers(0, 8))
    if kind == "full":  # generically of full column rank
        return rng.integers(-3, 4, size=(rows, dim))
    if kind == "low_row_rank":  # sums of fewer -3..3 rows than columns
        base = rng.integers(-3, 4, size=(dim - int(rng.integers(1, 4)), dim))
        return rng.integers(0, 2, size=(rows, len(base))) @ base
    # one column the sum of two others: rank-deficient however tall
    mat = rng.integers(-3, 4, size=(rows, dim))
    mat[:, int(rng.integers(1, dim - 1))] = mat[:, 0] + mat[:, -1]
    return mat


@pytest.mark.parametrize("dim", [3, 12, 25, 40])
@pytest.mark.parametrize("kind", ["full", "low_row_rank", "dependent_column"])
def test_nullspace_of_tall_rows_matches_fraction_reference(kind, dim):
    from fluxq.quantize import _rref_nullspace

    rows = _tall_integer_rows(kind, dim, np.random.default_rng(dim))
    expected = _fraction_nullspace_reference(rows, dim)
    assert (expected.shape[0] == 0) == (kind == "full")
    got = _rref_nullspace(rows.astype(float))
    assert got.shape == expected.shape
    scale = max(1.0, np.abs(expected).max(initial=0.0))
    assert np.abs(got - expected).max(initial=0.0) <= 1e-12 * scale
    assert np.array_equal(got != 0.0, expected != 0.0)


def test_nullspace_of_large_grounded_incidence_is_empty():
    # a connected graph with ground: its incidence rows without the ground
    # column have full column rank, which the LU certificate settles
    from fluxq.quantize import _rref_nullspace

    rng = np.random.default_rng(5)
    dim = 120
    edges = [(i, int(rng.integers(0, i))) for i in range(1, dim + 1)]
    edges += [tuple(rng.choice(dim + 1, size=2, replace=False)) for _ in range(60)]
    rows = np.zeros((len(edges), dim + 1))
    for r, (a, b) in enumerate(edges):
        rows[r, a], rows[r, b] = 1.0, -1.0
    got = _rref_nullspace(rows[:, 1:])
    assert got.shape == (0, dim) and got.dtype == np.float64


def _reference_modes(h):
    """(omegas, modes, momentum_modes) of normal_modes in its earlier
    formulation: three scipy.linalg.solve_triangular calls and
    np.linalg.eigh."""
    f = h.mass_factor
    kt = scipy.linalg.solve_triangular(f, h.k, lower=True, check_finite=False)
    kt = scipy.linalg.solve_triangular(f, kt.T, lower=True, check_finite=False).T
    kt = 0.5 * (kt + kt.T)
    evals, u = np.linalg.eigh(kt)
    v = scipy.linalg.solve_triangular(f, u, lower=True, trans="T")
    clipped = np.clip(evals, 0.0, None)
    clipped[: h.dim - _equilibrated_rank(h.k, _K_RANK_TOL)] = 0.0
    return np.sqrt(clipped), v, f @ u


def _reference_minv(h):
    inv = scipy.linalg.solve_triangular(h.mass_factor, np.eye(h.dim), lower=True)
    with np.errstate(over="ignore", invalid="ignore"):
        minv = inv.T @ inv
        return 0.5 * (minv + minv.T)


def _reference_dense_root_weights(f, v):
    evals, q = np.linalg.eigh(f @ f.T)
    return np.abs(((q * np.sqrt(np.maximum(evals, 0.0))) @ q.T) @ v)


def _assert_solves_keep_their_bits(h):
    modes = normal_modes(h)
    omegas, v, u = _reference_modes(h)
    assert np.array_equal(modes.omegas, omegas)
    assert np.array_equal(modes.modes, v)
    assert np.array_equal(modes.momentum_modes, u)
    assert np.array_equal(h.minv, _reference_minv(h))
    # the dense path of _mass_root_weights: few coordinates, or one block
    if h.dim < _BLOCK_ROOT_MIN_DIM or len(set(_mass_blocks(h.mass_factor))) == 1:
        expected = _reference_dense_root_weights(h.mass_factor, modes.modes)
        assert np.array_equal(_mass_root_weights(h.mass_factor, modes.modes), expected)


# the bundled netlists under every geometric mode, ladders of 16 to 128
# nodes, and the twenty circuits of the passive sweep's class at three Cg/C
# ratios and without augmentation
SOLVE_CASES = [
    pytest.param(GeometricPolicy(mode), name, id=f"{mode.value}-{name}")
    for name in NETLIST_NAMES
    for mode in GeometricMode
] + [
    pytest.param(MINIMAL, f"ladder{n}-seed7", id=f"minimal-ladder{n}-seed7")
    for n in (16, 64, 128)
] + [
    pytest.param(
        GeometricPolicy(default_cg=ratio * 1e-12, default_lg=ratio * 1e-9),
        f"sweep{i}",
        id=f"minimal{ratio:.0e}-sweep{i}",
    )
    for i in range(20)
    for ratio in (1e-2, 1e-6, 1e-12)
] + [
    pytest.param(GeometricPolicy(GeometricMode.OFF), f"sweep{i}", id=f"off-sweep{i}")
    for i in range(20)
]


@pytest.mark.parametrize(("policy", "name"), SOLVE_CASES)
@pytest.mark.parametrize("rep", list(Representation), ids=lambda r: r.value)
def test_mode_solve_keeps_its_bits(name, policy, rep):
    try:
        q = quantize_circuit(_attribution_circuit(name), rep, policy)
    except SingularKineticMatrix:
        return
    _assert_solves_keep_their_bits(q.hamiltonian)


# at 32 to 34 coordinates the GEMMs after the eigensolve round differently
# unless the eigenvectors come in np.linalg.eigh's C order
@pytest.mark.parametrize("n", [8, 16, 30, 32, 33, 128])
def test_mode_solve_keeps_its_bits_on_random_matrices(n):
    rng = np.random.default_rng(n)
    a, b = rng.standard_normal((2, n, n))
    m = a @ a.T + n * np.eye(n)
    k = b @ b.T
    h = HamiltonianSystem(tuple(map(str, range(n))), np.linalg.cholesky(m), k)
    _assert_solves_keep_their_bits(h)


@pytest.mark.parametrize("source", ["L1 1 0 1n", "C1 1 0 1p\nC2 1 2 1p"])
def test_mode_solve_of_an_empty_system(source, capfd):
    # no loops: the loop representation has no coordinate, and LAPACK's
    # dtrtrs would reject the empty system with a message on stdout
    h = legendre_transform(loop_system(parse_netlist(source + "\n")))
    modes = normal_modes(h)
    assert modes.omegas.shape == (0,) and modes.zero_mode_count == 0
    assert modes.modes.shape == modes.momentum_modes.shape == (0, 0)
    assert h.minv.shape == (0, 0)
    assert ground_state(modes, h).cov.shape == (0, 0)
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize(("policy", "name"), SOLVE_CASES)
@pytest.mark.parametrize("rep", list(Representation), ids=lambda r: r.value)
def test_gram_scatter_equals_the_dense_product(name, policy, rep, monkeypatch):
    """_gram_matrices' component-order scatter gives M and K bit for bit as
    the dense GEMM A^T diag(w) A of these circuits, exactly symmetric."""
    calls, gram = [], lagrangian._gram_matrices

    def recorded(a, components, kinetic_kind):
        M, K, kin, ids = gram(a, components, kinetic_kind)
        # copies: the loop and extended Lagrangians add to M and K in place
        calls.append((a.copy(), components, kinetic_kind, M.copy(), K.copy(), kin, ids))
        return M, K, kin, ids

    monkeypatch.setattr(lagrangian, "_gram_matrices", recorded)
    try:
        quantize_circuit(_attribution_circuit(name), rep, policy)
    except SingularKineticMatrix:
        pass
    (a, components, kinetic_kind, M, K, kin, ids), = calls
    values = np.array([c.value for c in components])
    assert np.array_equal(kin, [c.kind is kinetic_kind for c in components])
    assert ids == tuple(c.id for c in components)
    for got, rows, weights in ((M, kin, values), (K, ~kin, 1.0 / values)):
        expected = (a[rows].T * weights[rows]) @ a[rows]
        assert got.dtype == np.float64
        assert got.tobytes() == expected.tobytes()
        assert got.tobytes() == got.T.copy().tobytes()


def test_hamiltonian_shares_k_read_only(active_lc):
    lag = node_lagrangian(active_lc)
    h = legendre_transform(lag)
    assert h.k is lag.K
    for k in (lag.K, h.k):
        with pytest.raises(ValueError, match="read-only"):
            k[0, 0] = 1.0


@pytest.mark.parametrize(("policy", "name"), SOLVE_CASES)
@pytest.mark.parametrize("rep", list(Representation), ids=lambda r: r.value)
def test_payload_spreads_match_the_ground_state_covariance(name, policy, rep, capsys):
    """The CLI reads delta_x and delta_p as row norms of the vacuum factors;
    they agree with the roots of the covariance diagonal within 4 eps, and
    the zero-mode warning keeps its one stderr line."""
    circuit = _attribution_circuit(name)
    config = cli.RunConfig(
        "modes", Path(name), rep, policy.cap_mode, policy.default_cg, policy.default_lg
    )
    try:
        payload = cli._mode_payload(config, circuit)
    except SingularKineticMatrix:
        return
    err = capsys.readouterr().err
    q = quantize_circuit(circuit, rep, policy)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        var = np.diag(ground_state(q.modes, q.hamiltonian).cov).reshape(2, -1)
    eps = np.finfo(float).eps
    for spread, expected in zip(("delta_x", "delta_p"), np.sqrt(var)):
        got = np.array(payload["ground_state"][spread])
        assert np.all(np.abs(got - expected) <= 4 * eps * expected)
    n = q.modes.zero_mode_count
    message = f"{n} zero mode(s); ground state restricted to the oscillating subspace"
    assert err == (f"warning: {message}\n" if n else "")
    assert [str(w.message) for w in caught] == ([message] if n else [])
