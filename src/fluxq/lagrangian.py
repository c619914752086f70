"""Quadratic Lagrangian assembly for LC circuits.

Three coordinate systems are supported:

* node flux: one flux coordinate per non-ground node; kinetic energy from
  capacitors, potential from inductors; every branch flux is the node-flux
  difference across the branch (loop fluxes held constant at zero).
* loop charge: one charge coordinate per fundamental loop; kinetic energy
  from inductors, potential from capacitors; every branch charge is the
  signed sum of the loop charges through the branch.
* extended node flux: node fluxes plus one dynamical loop-flux coordinate
  per loop that carries a geometric self-inductance.  A chord of dynamic
  loop l carries branch flux (phi_a - phi_b - Phi_l); each geometric
  capacitor inherits the branch flux of the shortest design-component path
  between its terminals, so the tiny loop it forms with that path threads
  no flux.

All quantities are SI.  Matrices are dense; circuits are small.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .netlist import GROUND, Circuit, Component, ComponentKind
from .topology import (
    FundamentalLoop,
    SpanningTree,
    TopologyReport,
    fundamental_loops,
    passive_nodes,
    topology_report,
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
    geometric capacitor per passive node (toward its tree parent) and one
    self-inductance per deficient loop direction; ALL_PAIRS adds a
    geometric capacitor between every unordered node pair and a
    self-inductance on every loop.  Overrides replace the defaults for
    specific node pairs / loop chords.
    """

    cap_mode: GeometricMode = GeometricMode.MINIMAL
    default_cg: float = 8.9e-20
    default_lg: float = 1e-15
    cap_overrides: dict[frozenset, float] = field(default_factory=dict)
    loop_overrides: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.cap_mode is not GeometricMode.OFF:
            if not self.default_cg > 0.0:
                raise ValueError("default_cg must be positive when augmenting")
            if not self.default_lg > 0.0:
                raise ValueError("default_lg must be positive when augmenting")


@dataclass(frozen=True)
class AugmentationRecord:
    added_capacitors: tuple[Component, ...]
    loop_inductance: np.ndarray | None  # (l x l) PSD matrix, None when OFF
    loop_labels: tuple[str, ...]  # chord id per fundamental loop
    # exact loop-space support of the self-inductance form, for the
    # structural quantizability analysis
    loop_kinetic_rows: tuple[tuple[float, ...], ...] = ()


@dataclass
class QuadraticLagrangian:
    """L = 1/2 xdot^T M xdot - 1/2 x^T K x over the named coordinates.

    flux_assignment maps each component id to its branch flux (or branch
    charge, in the loop representation) as a signed combination of
    coordinates.  kinetic_components lists the ids whose assignment vectors
    build M; kinetic_forms holds additional exact support rows (geometric
    loop self-inductances).  Their joint span determines quantizability.
    """

    representation: Representation
    labels: tuple[str, ...]
    M: np.ndarray
    K: np.ndarray
    flux_assignment: dict[str, dict[str, float]]
    kinetic_components: tuple[str, ...]
    kinetic_forms: tuple[dict[str, float], ...] = ()

    def __post_init__(self):
        for name, mat in (("M", self.M), ("K", self.K)):
            scale = np.abs(mat).max() if mat.size else 0.0
            if scale and np.abs(mat - mat.T).max() > _SYM_TOL * scale:
                raise ValueError(f"{name} is not symmetric")

    @property
    def dim(self) -> int:
        return len(self.labels)

    def assignment_row(self, cid: str) -> np.ndarray:
        row = np.zeros(self.dim)
        index = {lbl: i for i, lbl in enumerate(self.labels)}
        for lbl, coeff in self.flux_assignment[cid].items():
            row[index[lbl]] = coeff
        return row

    def assignment_matrix(self, cids) -> np.ndarray:
        return _signed_rows([self.flux_assignment[cid] for cid in cids], self.labels)

    def to_json_dict(self) -> dict:
        return {
            "representation": self.representation.value,
            "labels": list(self.labels),
            "M": self.M.tolist(),
            "K": self.K.tolist(),
            "flux_assignment": {
                cid: dict(combo) for cid, combo in self.flux_assignment.items()
            },
        }


def _node_labels(circuit: Circuit) -> tuple[str, ...]:
    return tuple(f"phi_{n}" for n in circuit.nodes if n != GROUND)


def _difference_vector(a: str, b: str) -> dict[str, float]:
    combo: dict[str, float] = {}
    if a != GROUND:
        combo[f"phi_{a}"] = combo.get(f"phi_{a}", 0.0) + 1.0
    if b != GROUND:
        combo[f"phi_{b}"] = combo.get(f"phi_{b}", 0.0) - 1.0
    return {k: v for k, v in combo.items() if v != 0.0}


def _signed_rows(
    combos: list[dict[str, float]], labels: tuple[str, ...]
) -> np.ndarray:
    """One row per signed combination of coordinates, columns in label order."""
    index = {lbl: i for i, lbl in enumerate(labels)}
    rows = np.zeros((len(combos), len(labels)))
    for r, combo in enumerate(combos):
        for lbl, coeff in combo.items():
            rows[r, index[lbl]] = coeff
    return rows


def _gram_matrices(
    components: tuple[Component, ...],
    assignment: dict[str, dict[str, float]],
    labels: tuple[str, ...],
    kinetic_kind: ComponentKind,
) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """M = A_kin^T diag(value) A_kin and K = A_pot^T diag(1/value) A_pot over
    the signed assignment matrix A (components x coordinates); the kinetic
    rows are the components of kinetic_kind, whose ids are returned too."""
    a = _signed_rows([assignment[c.id] for c in components], labels)
    values = np.array([c.value for c in components], dtype=float)
    kin = np.array([c.kind is kinetic_kind for c in components], dtype=bool)
    M = (a[kin].T * values[kin]) @ a[kin]
    K = (a[~kin].T * (1.0 / values[~kin])) @ a[~kin]
    return M, K, tuple(c.id for c in components if c.kind is kinetic_kind)


def node_lagrangian(
    circuit: Circuit, tree: SpanningTree | None = None
) -> QuadraticLagrangian:
    """Node-flux Lagrangian: M is the capacitance matrix, K the inverse
    inductance matrix, both over node-flux differences; loop fluxes are
    held constant (zero), so the assignment ignores the tree, which need
    not be built."""
    labels = _node_labels(circuit)
    assignment = {c.id: _difference_vector(c.a, c.b) for c in circuit.components}
    M, K, kinetic = _gram_matrices(
        circuit.components, assignment, labels, ComponentKind.CAPACITOR
    )
    return QuadraticLagrangian(
        Representation.NODE_FLUX, labels, M, K, assignment, kinetic
    )


def loop_labels(loops: tuple[FundamentalLoop, ...]) -> tuple[str, ...]:
    return tuple(f"Q_{i + 1}" for i in range(len(loops)))


def loop_lagrangian(
    circuit: Circuit,
    loops: tuple[FundamentalLoop, ...],
    loop_inductance: np.ndarray | None = None,
    loop_kinetic_rows: tuple[tuple[float, ...], ...] = (),
) -> QuadraticLagrangian:
    """Loop-charge Lagrangian: M from inductors shared between loops, K
    from capacitors; each branch charge is the signed sum of the loop
    charges through it.  An optional geometric self-inductance matrix is
    added to M (it never enters as a series branch); loop_kinetic_rows
    carries its exact loop-space support for the structural diagnosis."""
    labels = loop_labels(loops)
    dim = len(labels)
    assignment: dict[str, dict[str, float]] = {c.id: {} for c in circuit.components}
    for lbl, loop in zip(labels, loops):
        for cid, sign in loop.path:
            combo = assignment[cid]
            combo[lbl] = combo.get(lbl, 0.0) + sign
    assignment = {
        cid: {k: v for k, v in combo.items() if v != 0.0}
        for cid, combo in assignment.items()
    }
    M, K, kinetic = _gram_matrices(
        circuit.components, assignment, labels, ComponentKind.INDUCTOR
    )
    if loop_inductance is not None:
        extra = np.asarray(loop_inductance, dtype=float)
        if extra.shape != (dim, dim):
            raise ValueError("loop inductance matrix has wrong shape")
        M = M + extra
    forms = tuple(
        {labels[i]: float(row[i]) for i in range(dim) if row[i] != 0.0}
        for row in loop_kinetic_rows
    )
    return QuadraticLagrangian(
        Representation.LOOP_CHARGE, labels, M, K, assignment, kinetic, forms
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
    geometric loop self-inductances are returned as a loop-space matrix to
    be added to the loop-representation kinetic matrix; inserting them as
    series branches would create nodes the model does not contain.

    The report must be the circuit's own topology_report: its spanning
    tree places the MINIMAL capacitors, its fundamental loops index the
    loop matrix, and its witnesses (the capacitor-only cycles) carry the
    MINIMAL self-inductances.  Raises ValueError when the report's tree
    and chords do not partition the circuit's component ids.
    """
    tree = report.tree
    if sorted(tree.tree + tree.chords) != sorted(c.id for c in circuit.components):
        raise ValueError("topology report does not describe this circuit")
    loop_lbls = tuple(loop.chord for loop in report.loops)
    l = len(report.loops)

    if policy.cap_mode is GeometricMode.OFF:
        return circuit, AugmentationRecord((), None, loop_lbls)

    existing = {c.id for c in circuit.components}
    added: list[Component] = []
    loop_matrix = np.zeros((l, l))
    kinetic_rows = []

    def cg_value(a: str, b: str) -> float:
        return policy.cap_overrides.get(frozenset((a, b)), policy.default_cg)

    if policy.cap_mode is GeometricMode.MINIMAL:
        for node in sorted(passive_nodes(circuit)):
            neighbor = tree.parent_node.get(node)
            if neighbor is None:
                neighbors = sorted(
                    {t for c in circuit.incident(node) for t in c.terminals} - {node}
                )
                neighbor = GROUND if GROUND in neighbors else neighbors[0]
            cid = _geometric_id(existing, node, neighbor)
            existing.add(cid)
            added.append(
                Component(
                    cid,
                    ComponentKind.CAPACITOR,
                    cg_value(node, neighbor),
                    (node, neighbor),
                    geometric=True,
                )
            )
        for w in report.witnesses:
            wv = np.asarray(w, dtype=float)
            wv = wv / np.linalg.norm(wv)
            lg = policy.default_lg
            support = np.flatnonzero(wv)
            if support.size == 1:
                lg = policy.loop_overrides.get(loop_lbls[support[0]], policy.default_lg)
            loop_matrix += lg * np.outer(wv, wv)
            kinetic_rows.append(tuple(float(x) for x in w))
    else:  # ALL_PAIRS
        for i, a in enumerate(circuit.nodes):
            for b in circuit.nodes[i + 1 :]:
                cid = _geometric_id(existing, b, a)
                existing.add(cid)
                added.append(
                    Component(
                        cid,
                        ComponentKind.CAPACITOR,
                        cg_value(a, b),
                        (b, a),
                        geometric=True,
                    )
                )
        for i, lbl in enumerate(loop_lbls):
            loop_matrix[i, i] = policy.loop_overrides.get(lbl, policy.default_lg)
            row = [0.0] * l
            row[i] = 1.0
            kinetic_rows.append(tuple(row))

    augmented = Circuit(
        circuit.nodes, circuit.components + tuple(added), dict(circuit.ics)
    )
    return augmented, AugmentationRecord(
        tuple(added), loop_matrix, loop_lbls, tuple(kinetic_rows)
    )


def _shortest_design_path(
    circuit: Circuit, u: str, v: str
) -> list[tuple[Component, int]]:
    """BFS through design (non-geometric) components from u to v; neighbors
    expanded in declaration order so ties are deterministic.  Returns the
    steps as (component, direction) with direction +1 when traversed from
    its first to its second terminal."""
    design = [c for c in circuit.components if not c.geometric]
    prev: dict[str, tuple[str, Component, int]] = {}
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
    steps: list[tuple[Component, int]] = []
    node = v
    while node != u:
        parent, comp, direction = prev[node]
        steps.append((comp, direction))
        node = parent
    steps.reverse()
    return steps


def extended_node_lagrangian(
    circuit: Circuit, tree: SpanningTree, policy: GeometricPolicy
) -> QuadraticLagrangian:
    """Node fluxes plus dynamical loop fluxes for every loop carrying a
    geometric self-inductance.

    Tree components keep phi_a - phi_b.  The chord of dynamic loop l
    carries phi_a - phi_b - Phi_l, which makes the signed flux sum around
    that loop equal -Phi_l.  Geometric capacitors copy the flux of the
    shortest design path between their terminals.  The potential gains
    1/2 Phi^T Lg^{-1} Phi from the loop self-inductances.  The loops are
    those of the circuit's topology report, which index the augmentation,
    so `tree` is not read."""
    report = topology_report(circuit)
    augmented, record = augment_geometric(circuit, report, policy)
    return _extended_lagrangian(circuit, report.loops, augmented, record)


def _extended_lagrangian(
    circuit: Circuit,
    loops: tuple[FundamentalLoop, ...],
    augmented: Circuit,
    record: AugmentationRecord,
) -> QuadraticLagrangian:
    """extended_node_lagrangian from the circuit's fundamental loops and
    its augment_geometric result."""
    if record.loop_inductance is None:
        dynamic: list[int] = []
    else:
        dynamic = [
            i
            for i in range(len(loops))
            if np.any(record.loop_inductance[i] != 0.0)
        ]
    phi_labels = _node_labels(circuit)
    ext_labels = phi_labels + tuple(f"Phi_{i + 1}" for i in dynamic)

    chord_loop = {loop.chord: i for i, loop in enumerate(loops)}
    assignment: dict[str, dict[str, float]] = {}
    for c in circuit.components:
        combo = dict(_difference_vector(c.a, c.b))
        li = chord_loop.get(c.id)
        if li is not None and li in dynamic:
            combo[f"Phi_{li + 1}"] = combo.get(f"Phi_{li + 1}", 0.0) - 1.0
        assignment[c.id] = {k: v for k, v in combo.items() if v != 0.0}

    for c in record.added_capacitors:
        combo: dict[str, float] = {}
        for comp, direction in _shortest_design_path(augmented, c.a, c.b):
            for lbl, coeff in assignment[comp.id].items():
                combo[lbl] = combo.get(lbl, 0.0) + direction * coeff
        assignment[c.id] = {k: v for k, v in combo.items() if v != 0.0}

    M, K, kinetic = _gram_matrices(
        augmented.components, assignment, ext_labels, ComponentKind.CAPACITOR
    )
    if dynamic:
        # the Phi coordinates come last, in the order of `dynamic`
        block = record.loop_inductance[np.ix_(dynamic, dynamic)]
        K[len(phi_labels) :, len(phi_labels) :] += np.linalg.inv(block)
    return QuadraticLagrangian(
        Representation.EXTENDED_NODE_FLUX, ext_labels, M, K, assignment, kinetic
    )


def _signed_sums(lag: QuadraticLagrangian, laws, trajectory) -> np.ndarray:
    """One row per law, a list of (component id, sign) terms: the signed
    sum of the branch quantities over the trajectory grid, computed as
    (signs @ A) @ coords.  The small-integer rows of signs @ A combine
    exactly before they touch the coordinates, so telescoping sums of
    node-flux differences cancel exactly."""
    cids = list(dict.fromkeys(cid for terms in laws for cid, _ in terms))
    for cid in cids:
        if cid not in lag.flux_assignment:
            raise ValueError(f"trajectory does not cover component {cid!r}")
    column = {cid: j for j, cid in enumerate(cids)}
    signs = np.zeros((len(laws), len(cids)))
    for i, terms in enumerate(laws):
        for cid, sign in terms:
            signs[i, column[cid]] += sign
    return (signs @ lag.assignment_matrix(cids)) @ trajectory.coords


def flux_law_residual(circuit: Circuit, tree: SpanningTree, trajectory) -> np.ndarray:
    """Signed sum of branch fluxes around each fundamental loop, one row
    per loop over the trajectory grid.  Identically zero in the node
    representation; equals -Phi_l(t) for dynamic loops of the extended
    representation."""
    lag = _trajectory_lagrangian(trajectory)
    if lag.representation is Representation.LOOP_CHARGE:
        raise ValueError("flux law applies to flux-type trajectories")
    loops = fundamental_loops(circuit, tree)
    return _signed_sums(lag, [loop.path for loop in loops], trajectory)


def charge_law_residual(
    circuit: Circuit, loops: tuple[FundamentalLoop, ...], trajectory
) -> np.ndarray:
    """Signed sum of branch charges at each non-ground node, one row per
    node.  Each loop charge enters and leaves every node it visits, so the
    residual vanishes identically under the fundamental-loop construction."""
    lag = _trajectory_lagrangian(trajectory)
    if lag.representation is not Representation.LOOP_CHARGE:
        raise ValueError("charge law applies to loop-charge trajectories")
    laws = [
        [(c.id, +1 if c.a == node else -1) for c in circuit.incident(node)]
        for node in circuit.nodes
        if node != GROUND
    ]
    return _signed_sums(lag, laws, trajectory)


def _trajectory_lagrangian(trajectory) -> QuadraticLagrangian:
    lag = getattr(trajectory, "lagrangian", None)
    if lag is None:
        raise ValueError("trajectory carries no coordinate assignment")
    return lag
