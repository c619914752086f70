"""Quadratic Lagrangian assembly for LC circuits.

Every representation is one signed integer assignment matrix A (energy
terms x coordinates): row i gives term i's branch flux (or branch charge,
in the loop representation) as a combination of the coordinates.  A term
is a component or a geometric loop self-inductance, the row Lg<chord>.
M and K are Gram matrices of the kinetic and potential rows.

* node flux: one flux coordinate per non-ground node; kinetic energy from
  capacitors, potential from inductors; every branch flux is the node-flux
  difference across the branch (loop fluxes held constant at zero).
* loop charge: one charge coordinate per fundamental loop; kinetic energy
  from inductors, potential from capacitors; A is the transposed loop
  matrix, so every branch charge is the signed sum of the loop charges
  through the branch; a loop self-inductance is its loop's unit row.
* extended node flux: node fluxes plus one dynamical loop-flux coordinate
  per loop that carries a geometric self-inductance and whose flux some
  capacitor's branch flux contains.  A chord of dynamic loop l carries
  branch flux (phi_a - phi_b - Phi_l); each geometric capacitor inherits
  the branch flux of the shortest design-component path between its
  terminals, so the tiny loop it forms with that path threads no flux;
  the self-inductance of loop l is a potential row, Phi_l's unit row.

All quantities are SI.  A, M and K are dense arrays; M and K are summed
over the pairs of nonzeros in each row of A, in row order.
"""
from __future__ import annotations

import enum
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .netlist import GROUND, Circuit, Component, ComponentKind
from .topology import (
    FundamentalLoop,
    SpanningTree,
    TopologyReport,
    _bfs_walk,
    _forest_steps,
    loop_matrix,
)


class Representation(enum.Enum):
    NODE_FLUX = "node"
    LOOP_CHARGE = "loop"
    EXTENDED_NODE_FLUX = "extended"


class GeometricMode(enum.Enum):
    OFF = "off"
    MINIMAL = "minimal"
    ALL_PAIRS = "allpairs"


@dataclass(frozen=True)
class GeometricPolicy:
    """How to introduce geometric (parasitic) components.

    cap_mode selects the augmentation: OFF adds nothing; MINIMAL adds one
    geometric capacitor per inductor tree edge and one self-inductance per
    capacitor chord's loop, as many as a grounded design circuit's node
    and loop M have null directions; ALL_PAIRS adds a geometric capacitor
    between every unordered node pair and a self-inductance on every loop.
    """

    cap_mode: GeometricMode = GeometricMode.MINIMAL
    default_cg: float = 8.9e-20
    default_lg: float = 1e-15

    def __post_init__(self):
        if self.cap_mode is not GeometricMode.OFF:
            for name in ("default_cg", "default_lg"):
                if not 0.0 < getattr(self, name) < np.inf:
                    raise ValueError(f"{name} must be positive and finite when augmenting")


@dataclass(frozen=True)
class AugmentationRecord:
    """What augment_geometric added under `policy`: the geometric
    capacitors, and the geometric loop self-inductances as loop-space rows
    (rows x l), each the unit vector of the loop it covers; each is a term
    of value default_lg in the loop and extended representations."""

    added_capacitors: tuple[Component, ...]
    loop_kinetic_rows: np.ndarray
    policy: GeometricPolicy


@dataclass
class QuadraticLagrangian:
    """L = 1/2 xdot^T M xdot - 1/2 x^T K x over the named coordinates.

    A is the signed assignment matrix: row i is the branch flux (or branch
    charge, in the loop representation) of term component_ids[i], of value
    values[i], over the coordinates in label order.  Its entries are small
    integers held as float64 (no -0.0).  M and K are formed here, once, as
    the Gram matrices of the rows where `kinetic` is set and of the others;
    the kinetic rows' span determines quantizability.
    """

    representation: Representation
    labels: tuple[str, ...]
    A: np.ndarray
    component_ids: tuple[str, ...]
    kinetic: np.ndarray
    values: np.ndarray
    M: np.ndarray = field(init=False)
    K: np.ndarray = field(init=False)

    def __post_init__(self):
        terms = {len(self.component_ids), len(self.kinetic), len(self.values)}
        if terms != {len(self.A)}:
            raise ValueError("A, component_ids, kinetic and values differ in length")
        self.M, self.K = _gram_matrices(self.A, self.values, self.kinetic)

    @property
    def dim(self) -> int:
        return len(self.labels)

    def assignment_row(self, cid: str) -> np.ndarray:
        return self.assignment_matrix([cid])[0]

    def assignment_matrix(self, cids) -> np.ndarray:
        """The rows of A of the given component ids, in that order; raises
        ValueError for an id without a row."""
        return self.A[self._term_rows(cids)]

    def _term_rows(self, cids) -> list[int]:
        """The row indices of the given component ids' terms, in that
        order, into A, kinetic and values; raises ValueError for an id
        without a row."""
        row = {cid: i for i, cid in enumerate(self.component_ids)}
        try:
            return [row[cid] for cid in cids]
        except KeyError as exc:
            raise ValueError(
                f"component {exc.args[0]!r} missing from the assignment"
            ) from None

    def to_json_dict(self) -> dict:
        return {
            "representation": self.representation.value,
            "labels": list(self.labels),
            "M": self.M.tolist(),
            "K": self.K.tolist(),
            "flux_assignment": {
                cid: {self.labels[j]: float(row[j]) for j in np.flatnonzero(row)}
                for cid, row in zip(self.component_ids, self.A)
            },
        }


def _node_labels(circuit: Circuit) -> tuple[str, ...]:
    return tuple(f"phi_{n}" for n in circuit.nodes if n != GROUND)


def _node_rows(
    circuit: Circuit, components: tuple[Component, ...], extra: int = 0
) -> np.ndarray:
    """Integer node-flux difference rows (components x non-ground nodes,
    then `extra` zero columns): +1 in the first terminal's column, -1 in
    the second's.  Every entry of an assignment matrix is -1, 0 or +1."""
    column = {n: j for j, n in enumerate(n for n in circuit.nodes if n != GROUND)}
    width = len(column) + extra
    column[GROUND] = width  # a scratch column, dropped below
    ends = [column[t] for c in components for t in c.terminals]
    ends = np.array(ends, dtype=np.intp).reshape(-1, 2)
    rows = np.arange(len(components))
    a = np.zeros((len(components), width + 1), dtype=np.int8)
    a[rows, ends[:, 0]] += 1
    a[rows, ends[:, 1]] -= 1
    return a[:, :width]


def _gram_matrices(
    a: np.ndarray, values: np.ndarray, kin: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """M = A_kin^T diag(values) A_kin and K = A_pot^T diag(1/values) A_pot
    over the assignment matrix A; the kinetic rows are those where kin is
    set.  One bincount adds each row's value a_i a_j to entry (i, j) for
    each pair of its nonzeros, in row order: M and K are exactly
    symmetric, and the GEMM's unless its blocking regroups the sums."""
    n = a.shape[1]
    rows, cols = np.nonzero(a != 0)  # a bool scan, faster than a float one
    count = np.bincount(rows, minlength=len(a))[rows]  # nonzeros in the row
    # nonzero p once per nonzero of its row, paired with each in turn
    left = np.repeat(np.arange(rows.size), count)
    shift = np.searchsorted(rows, rows) - np.cumsum(count) + count
    right = np.arange(left.size) + np.repeat(shift, count)
    sign = a[rows, cols]
    # values near either end of the double range overflow M or K (a
    # subnormal Lg gives an inf in K); the diagnosis and the mode solve
    # report that
    with np.errstate(over="ignore"):
        weight = np.divide(1.0, values, out=values.copy(), where=~kin)
    # per nonzero (k, i): w_k a_ki, and where row i of M (or K) starts
    term, start = weight[rows] * sign, (~kin[rows] * n + cols) * n
    grams = np.bincount(start[left] + cols[right], term[left] * sign[right], 2 * n * n)
    M, K = grams.astype(float, copy=False).reshape(2, n, n)  # int when empty
    return M, K


def _terms(
    components: tuple[Component, ...], kinetic_kind: ComponentKind, chords=(), lg=0.0
) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """The row ids, kinetic mask and values of the components' rows, then
    of one geometric self-inductance of value lg per loop chord, named
    Lg<chord> under _geometric_id's rule; the kinetic rows are those of
    kinetic_kind."""
    existing = {c.id for c in components}
    ids = [c.id for c in components]
    ids += [_geometric_id(existing, f"Lg{chord}") for chord in chords]
    kinds = [c.kind for c in components] + [ComponentKind.INDUCTOR] * len(chords)
    values = [c.value for c in components] + [lg] * len(chords)
    kin = np.array([kind is kinetic_kind for kind in kinds], dtype=bool)
    return tuple(ids), kin, np.array(values, dtype=float)


def node_lagrangian(
    circuit: Circuit, tree: SpanningTree | None = None
) -> QuadraticLagrangian:
    """Node-flux Lagrangian: M is the capacitance matrix, K the inverse
    inductance matrix, both over node-flux differences; loop fluxes are
    held constant (zero), so the assignment ignores the tree, which need
    not be built."""
    labels = _node_labels(circuit)
    a = _node_rows(circuit, circuit.components).astype(float)
    terms = _terms(circuit.components, ComponentKind.CAPACITOR)
    return QuadraticLagrangian(Representation.NODE_FLUX, labels, a, *terms)


def loop_labels(loops: tuple[FundamentalLoop, ...]) -> tuple[str, ...]:
    return tuple(f"Q_{i + 1}" for i in range(len(loops)))


def loop_lagrangian(
    circuit: Circuit,
    loops: tuple[FundamentalLoop, ...],
    record: AugmentationRecord | None = None,
) -> QuadraticLagrangian:
    """Loop-charge Lagrangian: M from inductors shared between loops, K
    from capacitors; A is the transposed loop matrix, so each branch charge
    is the signed sum of the loop charges through it.  Each of the
    record's geometric self-inductances is one more kinetic row, the unit
    vector of its loop (it never enters the circuit as a series branch).
    `loops` are the circuit's fundamental loops and the record its
    augment_geometric result over them."""
    rows = np.zeros((0, len(loops))) if record is None else record.loop_kinetic_rows
    lg = 0.0 if record is None else record.policy.default_lg
    a = np.vstack([loop_matrix(circuit, loops).T, rows])
    chords = [loops[i].chord for i in np.nonzero(rows)[1]]
    terms = _terms(circuit.components, ComponentKind.INDUCTOR, chords, lg)
    labels = loop_labels(loops)
    return QuadraticLagrangian(Representation.LOOP_CHARGE, labels, a, *terms)


def _geometric_id(existing: set[str], base: str) -> str:
    """base, or else the first of base_2, base_3, ... not in existing;
    the id is added to existing, so it names nothing else."""
    cid = base
    k = 2
    while cid in existing:
        cid = f"{base}_{k}"
        k += 1
    existing.add(cid)
    return cid


def augment_geometric(
    circuit: Circuit, report: TopologyReport, policy: GeometricPolicy
) -> tuple[Circuit, AugmentationRecord]:
    """Add geometric components per the policy.

    Geometric capacitors become real circuit components (flagged).  The
    geometric loop self-inductances are the record's loop-space rows, which
    the loop and extended Lagrangians take as terms of their own; inserting
    them as series branches would create nodes the model does not contain.

    The report must be the circuit's own topology_report.  Its tree takes
    capacitors first, so it has one inductor edge per capacitor island
    less one, the nullity of a grounded circuit's node M: MINIMAL puts a
    capacitor across each, (child, parent).  Its fundamental loops index
    the loop matrix, and its witnesses (the capacitor chords' loops) carry
    the MINIMAL self-inductances.  Raises ValueError when the report's
    tree and chords do not partition the circuit's component ids.
    """
    tree = report.tree
    if sorted(tree.tree + tree.chords) != sorted(c.id for c in circuit.components):
        raise ValueError("topology report does not describe this circuit")
    l = len(report.loops)

    if policy.cap_mode is GeometricMode.OFF:
        return circuit, AugmentationRecord((), np.zeros((0, l)), policy)

    if policy.cap_mode is GeometricMode.MINIMAL:
        pairs = sorted(
            (node, tree.parent_node[node])
            for node, cid in tree.parent_component.items()
            if circuit.component(cid).kind is ComponentKind.INDUCTOR
        )
        cycles = report.witnesses
        kinetic_rows = np.array(cycles, dtype=float).reshape(len(cycles), l)
    else:  # ALL_PAIRS
        nodes = circuit.nodes
        pairs = [(b, a) for i, a in enumerate(nodes) for b in nodes[i + 1 :]]
        kinetic_rows = np.eye(l)

    existing = {c.id for c in circuit.components}
    added: list[Component] = []
    for a, b in pairs:
        cid = _geometric_id(existing, f"Cg{a}{b}")
        added.append(
            Component(
                cid, ComponentKind.CAPACITOR, policy.default_cg, (a, b), geometric=True
            )
        )
    augmented = Circuit(
        circuit.nodes, circuit.components + tuple(added), dict(circuit.ics)
    )
    return augmented, AugmentationRecord(tuple(added), kinetic_rows, policy)


def extended_node_lagrangian(
    circuit: Circuit,
    loops: tuple[FundamentalLoop, ...],
    augmented: Circuit,
    record: AugmentationRecord,
) -> QuadraticLagrangian:
    """Node fluxes plus dynamical loop fluxes for every loop carrying a
    geometric self-inductance whose flux a capacitor sees: the loop's chord
    is a capacitor, or a geometric capacitor's design path crosses it.

    Tree components keep phi_a - phi_b.  The chord of dynamic loop l
    carries phi_a - phi_b - Phi_l, which makes the signed flux sum around
    that loop equal -Phi_l.  Geometric capacitors copy the flux of the
    shortest design path between their terminals.  The self-inductance of
    loop l is a potential row of its own on Phi_l, which adds
    1/2 Phi_l^2 / Lg to the potential.  `loops` are the circuit's
    fundamental loops and (augmented, record) its augment_geometric result
    over them."""
    paths = _design_paths(circuit, record.added_capacitors)
    # A loop flux enters M only through a capacitor chord or a geometric
    # capacitor whose design path crosses the chord.  A loop without either
    # has an inductive chord, so its current already meets an inductance;
    # its self-inductance would add a coordinate without kinetic energy and
    # is left out (a relative change of Lg/L to the chord's inductance).
    capacitive = {
        c.id for c in circuit.components if c.kind is ComponentKind.CAPACITOR
    }
    capacitive.update(comp.id for path in paths for comp, _ in path)
    # the loops that carry a geometric self-inductance
    carried = np.flatnonzero(record.loop_kinetic_rows.any(axis=0))
    dynamic = [int(i) for i in carried if loops[i].chord in capacitive]
    phi_labels = _node_labels(circuit)
    ext_labels = phi_labels + tuple(f"Phi_{i + 1}" for i in dynamic)

    # Node-flux rows for every component, then -1 in the loop-flux column
    # of each dynamic chord.  A geometric capacitor's row is the signed sum
    # of its design path's rows: their node-flux parts telescope to its own
    # terminal difference, so only the dynamic chords on the path add to it.
    comps = augmented.components
    row = {c.id: i for i, c in enumerate(comps)}
    column = {loops[i].chord: len(phi_labels) + k for k, i in enumerate(dynamic)}
    a = _node_rows(circuit, comps, len(dynamic))
    a[[row[cid] for cid in column], list(column.values())] = -1
    steps = [
        (row[c.id], column[comp.id], -direction)
        for c, path in zip(record.added_capacitors, paths)
        for comp, direction in path
        if comp.id in column
    ]
    rows, cols, signs = np.array(steps, dtype=np.intp).reshape(-1, 3).T
    np.add.at(a, (rows, cols), signs)
    # the self-inductance rows come last, one unit row per Phi column
    lg_rows = np.eye(len(dynamic), len(ext_labels), len(phi_labels), dtype=a.dtype)
    a = np.vstack([a, lg_rows], dtype=float)
    terms = _terms(comps, ComponentKind.CAPACITOR, column, record.policy.default_lg)
    return QuadraticLagrangian(Representation.EXTENDED_NODE_FLUX, ext_labels, a, *terms)


def _design_paths(
    circuit: Circuit, capacitors: tuple[Component, ...]
) -> list[list[tuple[Component, int]]]:
    """Each capacitor's path from its first to its second terminal on the
    breadth-first tree of its first terminal over the circuit's design
    (non-geometric) components, as (component, direction) steps; direction
    is +1 where a component is traversed from its first to its second
    terminal.  One search runs per first terminal, resumed only until each
    capacitor's second terminal is reached; the parents it has recorded by
    then are those of the whole search."""
    searches: dict[str, tuple[dict, dict, Iterator[str]]] = {}
    paths = []
    for c in capacitors:
        if c.a not in searches:
            parent_node, parent_comp = {}, {}
            walk = _bfs_walk(circuit, c.a, parent_node, parent_comp)
            searches[c.a] = parent_node, parent_comp, walk
        parent_node, parent_comp, walk = searches[c.a]
        if c.b not in parent_node:
            for node in walk:
                if node == c.b:
                    break
            else:
                raise ValueError(f"no design path between nodes {c.a!r} and {c.b!r}")
        steps = _forest_steps(parent_node, parent_comp, c.a, c.b)
        paths.append(
            [(comp, +1 if comp.terminals == (u, v) else -1) for comp, u, v in steps]
        )
    return paths


def _signed_sums(lag: QuadraticLagrangian, laws, circuit: Circuit, trajectory):
    """laws (one row per law, one column per component of the circuit)
    applied to the branch quantities over the trajectory grid, computed as
    (laws @ A) @ coords.  The small-integer rows of laws @ A combine
    exactly before they touch the coordinates, so telescoping sums of
    node-flux differences cancel exactly."""
    rows = lag.assignment_matrix([c.id for c in circuit.components])
    return (laws @ rows) @ trajectory.coords


def flux_law_residual(
    circuit: Circuit, loops: tuple[FundamentalLoop, ...], trajectory
) -> np.ndarray:
    """Signed sum of branch fluxes around each of the given loops of the
    circuit, one row per loop over the trajectory grid.  Identically zero in the node
    representation; equals -Phi_l(t) for dynamic loops of the extended
    representation."""
    lag = _trajectory_lagrangian(trajectory)
    if lag.representation is Representation.LOOP_CHARGE:
        raise ValueError("flux law applies to flux-type trajectories")
    return _signed_sums(lag, loop_matrix(circuit, loops), circuit, trajectory)


def charge_law_residual(circuit: Circuit, trajectory) -> np.ndarray:
    """Signed sum of branch charges at each non-ground node, one row per
    node.  Each loop charge enters and leaves every node it visits, so the
    residual vanishes identically under the fundamental-loop construction."""
    lag = _trajectory_lagrangian(trajectory)
    if lag.representation is not Representation.LOOP_CHARGE:
        raise ValueError("charge law applies to loop-charge trajectories")
    # the node-incidence matrix: +1 where a component leaves a node
    laws = _node_rows(circuit, circuit.components).T
    return _signed_sums(lag, laws, circuit, trajectory)


def _trajectory_lagrangian(trajectory) -> QuadraticLagrangian:
    lag = getattr(trajectory, "lagrangian", None)
    if lag is None:
        raise ValueError("trajectory carries no coordinate assignment")
    return lag
