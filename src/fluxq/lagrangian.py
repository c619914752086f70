"""Quadratic Lagrangian assembly for LC circuits.

Every representation is one signed integer assignment matrix A
(components x coordinates): row i gives component i's branch flux (or
branch charge, in the loop representation) as a combination of the
coordinates.  M and K are Gram matrices of its kinetic and potential rows.

* node flux: one flux coordinate per non-ground node; kinetic energy from
  capacitors, potential from inductors; every branch flux is the node-flux
  difference across the branch (loop fluxes held constant at zero).
* loop charge: one charge coordinate per fundamental loop; kinetic energy
  from inductors, potential from capacitors; A is the transposed loop
  matrix, so every branch charge is the signed sum of the loop charges
  through the branch.
* extended node flux: node fluxes plus one dynamical loop-flux coordinate
  per loop that carries a geometric self-inductance and whose flux some
  capacitor's branch flux contains.  A chord of dynamic loop l carries
  branch flux (phi_a - phi_b - Phi_l); each geometric capacitor inherits
  the branch flux of the shortest design-component path between its
  terminals, so the tiny loop it forms with that path threads no flux.

All quantities are SI.  A, M and K are dense arrays; M and K are summed
over the pairs of nonzeros in each row of A, in component order.
"""
from __future__ import annotations

import enum
import functools
from collections.abc import Iterator
from dataclasses import dataclass

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

_SYM_TOL = 1e-14


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
    geometric capacitor per passive node (toward its tree parent) and a
    self-inductance on every capacitor-only fundamental loop; ALL_PAIRS
    adds a geometric capacitor between every unordered node pair and a
    self-inductance on every loop.
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
    capacitors, and the exact loop-space support of the geometric
    self-inductance form (rows x l, unit vectors of the loops it covers),
    for the structural quantizability analysis.  The (l x l)
    self-inductance matrix itself, loop_inductance, is formed on first
    read: the loop representation reads it, the node and extended ones
    never do."""

    added_capacitors: tuple[Component, ...]
    loop_kinetic_rows: np.ndarray
    policy: GeometricPolicy

    @functools.cached_property
    def loop_inductance(self) -> np.ndarray | None:
        """The diagonal loop self-inductance matrix, None when OFF:
        default_lg on the diagonal of every loop the kinetic rows touch,
        which is default_lg times the identity for ALL_PAIRS and the
        capacitor-only loops for MINIMAL."""
        if self.policy.cap_mode is GeometricMode.OFF:
            return None
        touched = self.loop_kinetic_rows.any(axis=0)
        return np.diag(np.where(touched, self.policy.default_lg, 0.0))


@dataclass
class QuadraticLagrangian:
    """L = 1/2 xdot^T M xdot - 1/2 x^T K x over the named coordinates.

    A is the signed assignment matrix: row i is the branch flux (or branch
    charge, in the loop representation) of component_ids[i] as a
    combination of the coordinates, columns in label order.  Its entries
    are small integers held as float64 (no -0.0).  The rows where
    `kinetic` is set build M; kinetic_forms holds additional exact support
    rows (geometric loop self-inductances).  Their joint span determines
    quantizability.
    """

    representation: Representation
    labels: tuple[str, ...]
    M: np.ndarray
    K: np.ndarray
    A: np.ndarray
    component_ids: tuple[str, ...]
    kinetic: np.ndarray
    kinetic_forms: np.ndarray = ()

    def __post_init__(self):
        forms = np.asarray(self.kinetic_forms, dtype=float)
        self.kinetic_forms = forms.reshape(len(forms), self.dim)
        for name, mat in (("M", self.M), ("K", self.K)):
            scratch = np.abs(mat)
            scale = scratch.max(initial=0.0)
            # an overflowed (inf) entry is left to the diagnosis (M) or the
            # mode solve (K) to report
            with np.errstate(invalid="ignore"):
                np.abs(np.subtract(mat, mat.T, out=scratch), out=scratch)
                asymmetry = scratch.max(initial=0.0)
            if scale and asymmetry > _SYM_TOL * scale:
                raise ValueError(f"{name} is not symmetric")

    @property
    def dim(self) -> int:
        return len(self.labels)

    def assignment_row(self, cid: str) -> np.ndarray:
        return self.assignment_matrix([cid])[0]

    def assignment_matrix(self, cids) -> np.ndarray:
        """The rows of A of the given component ids, in that order; raises
        ValueError for an id without a row."""
        row = {cid: i for i, cid in enumerate(self.component_ids)}
        try:
            return self.A[[row[cid] for cid in cids]]
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
    a: np.ndarray, components: tuple[Component, ...], kinetic_kind: ComponentKind
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[str, ...]]:
    """M = A_kin^T diag(value) A_kin and K = A_pot^T diag(1/value) A_pot over
    the assignment matrix A, whose rows are the components; the kinetic
    rows are those of kinetic_kind.  Returns M, K, the kinetic row mask and
    the row ids.  One bincount adds each row's value a_i a_j to entry (i, j)
    for each pair of its nonzeros, in component order: M and K are exactly
    symmetric, and the GEMM's unless its blocking regroups the sums."""
    values = np.array([c.value for c in components], dtype=float)
    kin = np.array([c.kind is kinetic_kind for c in components], dtype=bool)
    n = a.shape[1]
    rows, cols = np.nonzero(a != 0)  # a bool scan, faster than a float one
    count = np.bincount(rows, minlength=len(a))[rows]  # nonzeros in the row
    # nonzero p once per nonzero of its row, paired with each in turn
    left = np.repeat(np.arange(rows.size), count)
    shift = np.searchsorted(rows, rows) - np.cumsum(count) + count
    right = np.arange(left.size) + np.repeat(shift, count)
    sign = a[rows, cols]
    # values near either end of the double range overflow M or K; the
    # diagnosis and the mode solve report that
    with np.errstate(over="ignore"):
        weight = np.divide(1.0, values, out=values.copy(), where=~kin)
    # per nonzero (k, i): w_k a_ki, and where row i of M (or K) starts
    term, start = weight[rows] * sign, (~kin[rows] * n + cols) * n
    grams = np.bincount(start[left] + cols[right], term[left] * sign[right], 2 * n * n)
    M, K = grams.astype(float, copy=False).reshape(2, n, n)  # int when empty
    return M, K, kin, tuple(c.id for c in components)


def node_lagrangian(
    circuit: Circuit, tree: SpanningTree | None = None
) -> QuadraticLagrangian:
    """Node-flux Lagrangian: M is the capacitance matrix, K the inverse
    inductance matrix, both over node-flux differences; loop fluxes are
    held constant (zero), so the assignment ignores the tree, which need
    not be built."""
    labels = _node_labels(circuit)
    a = _node_rows(circuit, circuit.components).astype(float)
    M, K, kin, ids = _gram_matrices(a, circuit.components, ComponentKind.CAPACITOR)
    return QuadraticLagrangian(Representation.NODE_FLUX, labels, M, K, a, ids, kin)


def loop_labels(loops: tuple[FundamentalLoop, ...]) -> tuple[str, ...]:
    return tuple(f"Q_{i + 1}" for i in range(len(loops)))


def loop_lagrangian(
    circuit: Circuit,
    loops: tuple[FundamentalLoop, ...],
    loop_inductance: np.ndarray | None = None,
    loop_kinetic_rows: np.ndarray = (),
) -> QuadraticLagrangian:
    """Loop-charge Lagrangian: M from inductors shared between loops, K
    from capacitors; A is the transposed loop matrix, so each branch charge
    is the signed sum of the loop charges through it.  An optional
    geometric self-inductance matrix is added to M (it never enters as a
    series branch); loop_kinetic_rows (rows x loops) carries its exact
    loop-space support for the structural diagnosis."""
    labels = loop_labels(loops)
    dim = len(labels)
    a = np.ascontiguousarray(loop_matrix(circuit, loops).T)
    M, K, kin, ids = _gram_matrices(a, circuit.components, ComponentKind.INDUCTOR)
    if loop_inductance is not None:
        extra = np.asarray(loop_inductance, dtype=float)
        if extra.shape != (dim, dim):
            raise ValueError("loop inductance matrix has wrong shape")
        M += extra
    return QuadraticLagrangian(
        Representation.LOOP_CHARGE, labels, M, K, a, ids, kin, loop_kinetic_rows
    )


def _geometric_id(existing: set[str], a: str, b: str) -> str:
    base = f"Cg{a}{b}"
    cid = base
    k = 2
    while cid in existing:
        cid = f"{base}_{k}"
        k += 1
    return cid


def augment_geometric(
    circuit: Circuit, report: TopologyReport, policy: GeometricPolicy
) -> tuple[Circuit, AugmentationRecord]:
    """Add geometric components per the policy.

    Geometric capacitors become real circuit components (flagged).  The
    geometric loop self-inductances are a loop-space matrix (the record's
    loop_inductance, formed on first read) to be added to the
    loop-representation kinetic matrix; inserting them as series branches
    would create nodes the model does not contain.

    The report must be the circuit's own topology_report: its spanning
    tree places the MINIMAL capacitors, its fundamental loops index the
    loop matrix, and its witnesses (the capacitor-only loops) carry the
    MINIMAL self-inductances.  Raises ValueError when the report's tree
    and chords do not partition the circuit's component ids.
    """
    tree = report.tree
    if sorted(tree.tree + tree.chords) != sorted(c.id for c in circuit.components):
        raise ValueError("topology report does not describe this circuit")
    l = len(report.loops)

    if policy.cap_mode is GeometricMode.OFF:
        return circuit, AugmentationRecord((), np.zeros((0, l)), policy)

    if policy.cap_mode is GeometricMode.MINIMAL:
        pairs = []
        for node in report.passive_nodes:
            neighbor = tree.parent_node.get(node)
            if neighbor is None:  # the root, so the circuit has no ground
                ends = {t for c in circuit.incident(node) for t in c.terminals}
                neighbor = min(ends - {node})
            pairs.append((node, neighbor))
        cycles = report.witnesses
        kinetic_rows = np.array(cycles, dtype=float).reshape(len(cycles), l)
    else:  # ALL_PAIRS
        nodes = circuit.nodes
        pairs = [(b, a) for i, a in enumerate(nodes) for b in nodes[i + 1 :]]
        kinetic_rows = np.eye(l)

    existing = {c.id for c in circuit.components}
    added: list[Component] = []
    for a, b in pairs:
        cid = _geometric_id(existing, a, b)
        existing.add(cid)
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
    shortest design path between their terminals.  The potential gains
    1/2 Phi^T Lg^{-1} Phi from the loop self-inductances.  `loops` are
    the circuit's fundamental loops and (augmented, record) its
    augment_geometric result over them."""
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
    a = a.astype(float)

    M, K, kin, ids = _gram_matrices(a, comps, ComponentKind.CAPACITOR)
    if dynamic:
        # the Phi coordinates come last, each with 1/Lg on its diagonal; a
        # subnormal Lg makes that inf, which the mode solve reports
        with np.errstate(over="ignore"):
            inverse = 1.0 / np.float64(record.policy.default_lg)
        phi = np.arange(len(phi_labels), len(ext_labels))
        K[phi, phi] += inverse
    return QuadraticLagrangian(
        Representation.EXTENDED_NODE_FLUX, ext_labels, M, K, a, ids, kin
    )


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
