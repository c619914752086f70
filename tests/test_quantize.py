import dataclasses
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import given
from hypothesis import strategies as st

from fluxq import (
    HBAR,
    GeometricMode,
    GeometricPolicy,
    HamiltonianSystem,
    KineticMatrixOverflow,
    RankCrossCheckFailure,
    Representation,
    SingularKineticMatrix,
    augment_geometric,
    build_spanning_tree,
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

from conftest import ladder, load, pencil_frequencies_2x2, random_active_circuit

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


@pytest.mark.parametrize("name", NETLIST_NAMES)
@pytest.mark.parametrize("mode", list(GeometricMode), ids=lambda g: g.value)
@pytest.mark.parametrize("rep", list(Representation), ids=lambda r: r.value)
def test_mode_attribution_matches_reference(name, mode, rep):
    _assert_attribution_matches_reference(load(name), rep, GeometricPolicy(mode))


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
