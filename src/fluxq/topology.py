"""Graph analysis of LC netlists: ground-rooted spanning tree, fundamental
loop basis, passive-variable detection and series/parallel reduction."""
from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .netlist import GROUND, Circuit, Component, ComponentKind

# relative eigenvalue threshold of the equilibrated loop inductance form
_RANK_TOL = 1e-12


class RankCrossCheckFailure(RuntimeError):
    """The structural null space of a PSD matrix and the numeric rank of the
    equilibrated matrix disagree: the matrix is too ill-conditioned in
    floating point to confirm the structural answer."""

    def __init__(self, matrix: str, structural: int, numeric: int):
        super().__init__(
            f"{matrix} rank unconfirmed: structural null space dimension "
            f"{structural} disagrees with numeric estimate {numeric}"
        )
        self.structural = structural
        self.numeric = numeric


def _equilibrated_rank(mat: np.ndarray, rel_tol: float) -> int:
    """Numeric rank of a PSD matrix, independent of the SI scale of its rows.

    Symmetric equilibration to unit diagonal keeps structurally zero
    directions at machine-zero singular values, while physically tiny but
    nonzero entries (a geometric Cg or Lg far below the design values) stay
    O(1); a plain threshold against the largest singular value would
    swallow them in stiff augmented circuits."""
    if mat.shape[0] == 0:
        return 0
    diag = np.diag(mat)
    # PSD: a zero diagonal entry forces a zero row, so scaling it by 1 is safe
    scale = np.where(diag > 0.0, 1.0 / np.sqrt(np.where(diag > 0.0, diag, 1.0)), 1.0)
    # scaled by rows, then by columns (the outer product of the scales
    # overflows for a subnormal diagonal entry); the singular values of a
    # symmetric matrix are its absolute eigenvalues
    svals = np.abs(np.linalg.eigvalsh(mat * scale[:, None] * scale))
    smax = svals.max()
    if smax == 0.0:
        return 0
    return int(np.sum(svals > rel_tol * smax))


@dataclass(frozen=True)
class SpanningTree:
    """Ground-rooted spanning tree.  `tree` and `chords` partition the
    component ids; parent maps record, for every non-root node, the tree
    component and node on its ground side."""

    tree: tuple[str, ...]
    chords: tuple[str, ...]
    parent_node: dict[str, str] = field(default_factory=dict)
    parent_component: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class FundamentalLoop:
    """Cycle formed by one chord plus the tree path between its endpoints.
    `path` lists (component id, sign) traversing the loop; the orientation
    is fixed by traversing the chord from its first to its second declared
    terminal with sign +1."""

    chord: str
    path: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class TopologyReport:
    """Counts and passive variables of a circuit, with the stages later
    steps reuse: the spanning tree, its fundamental loops and the integer
    capacitor-only cycles over those loops (`witnesses`, as returned by
    capacitor_only_cycles).  to_json_dict prints only the counts."""

    n: int
    c: int
    l: int
    passive_nodes: tuple[str, ...]
    loop_deficiency: int
    witnesses: tuple[tuple[int, ...], ...]
    reducible: bool
    tree: SpanningTree
    loops: tuple[FundamentalLoop, ...]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "c": self.c,
            "l": self.l,
            "passive_nodes": list(self.passive_nodes),
            "loop_deficiency": self.loop_deficiency,
            "reducible": self.reducible,
        }


def build_spanning_tree(circuit: Circuit) -> SpanningTree:
    """Grow a deterministic tree from ground: at every step the eligible
    component with a capacitor preferred over an inductor is taken, ties
    broken by declaration order.  Prim's algorithm over a heap of the
    components touching the tree, stale entries dropped when popped.
    Raises ValueError on disconnected input."""
    if not circuit.components:
        return SpanningTree((), ())
    root = GROUND if GROUND in circuit.nodes else circuit.nodes[0]
    comps = circuit.components
    # heap key: capacitor before inductor, then declaration order
    incident: dict[str, list[tuple[int, int, str]]] = {}
    for i, c in enumerate(comps):
        kind = 0 if c.kind is ComponentKind.CAPACITOR else 1
        incident.setdefault(c.a, []).append((kind, i, c.b))
        incident.setdefault(c.b, []).append((kind, i, c.a))
    visited = {root}
    heap = list(incident.get(root, ()))
    heapq.heapify(heap)
    tree: list[str] = []
    parent_node: dict[str, str] = {}
    parent_component: dict[str, str] = {}
    while len(visited) < len(circuit.nodes):
        if not heap:
            raise ValueError("circuit is not connected; no spanning tree exists")
        _kind, i, child = heapq.heappop(heap)
        if child in visited:
            continue
        best = comps[i]
        parent = best.a if child == best.b else best.b
        visited.add(child)
        tree.append(best.id)
        parent_node[child] = parent
        parent_component[child] = best.id
        for entry in incident[child]:
            if entry[2] not in visited:
                heapq.heappush(heap, entry)

    tree_set = set(tree)
    chords = tuple(c.id for c in comps if c.id not in tree_set)
    return SpanningTree(tuple(tree), chords, parent_node, parent_component)


def fundamental_loops(
    circuit: Circuit, tree: SpanningTree
) -> tuple[FundamentalLoop, ...]:
    """One loop per chord, in chord order; each loop is the chord plus the
    unique tree path between its terminals."""
    by_id = {c.id: c for c in circuit.components}
    loops = []
    for chord_id in tree.chords:
        chord = by_id[chord_id]
        path: list[tuple[str, int]] = [(chord_id, +1)]
        for cid, u, v in _forest_steps(
            tree.parent_node, tree.parent_component, chord.b, chord.a
        ):
            sign = +1 if by_id[cid].terminals == (u, v) else -1
            path.append((cid, sign))
        loops.append(FundamentalLoop(chord_id, tuple(path)))
    return tuple(loops)


def passive_nodes(circuit: Circuit) -> set[str]:
    """Non-ground nodes with no attached capacitor."""
    with_cap = set()
    for c in circuit.components:
        if c.kind is ComponentKind.CAPACITOR:
            with_cap.update(c.terminals)
    return {n for n in circuit.nodes if n != GROUND and n not in with_cap}


def loop_matrix(circuit: Circuit, loops: tuple[FundamentalLoop, ...]) -> np.ndarray:
    """Signed loop matrix B (loops x components, in circuit order): B[i, j]
    is the sign with which loop i traverses component j, 0 off the loop.
    Integer-valued float64; a loop passes a component at most once."""
    column = {c.id: j for j, c in enumerate(circuit.components)}
    rows = [i for i, loop in enumerate(loops) for _ in loop.path]
    cols = [column[cid] for loop in loops for cid, _ in loop.path]
    b = np.zeros((len(loops), len(circuit.components)))
    b[rows, cols] = [sign for loop in loops for _, sign in loop.path]
    return b


def inductor_participation(
    circuit: Circuit, loops: tuple[FundamentalLoop, ...]
) -> tuple[np.ndarray, list[str]]:
    """Signed loop-over-inductor participation matrix B (loops x inductors):
    the inductor columns of the loop matrix."""
    inductor = [c.kind is ComponentKind.INDUCTOR for c in circuit.components]
    ids = [c.id for c, is_inductor in zip(circuit.components, inductor) if is_inductor]
    return loop_matrix(circuit, loops)[:, inductor], ids


def passive_loop_deficiency(
    circuit: Circuit, loops: tuple[FundamentalLoop, ...]
) -> tuple[int, tuple[np.ndarray, ...]]:
    """Rank deficiency of the inductance form over the loop basis, with
    unit witness loop-space vectors.

    Structurally, a deficient direction is an independent cycle of the
    capacitor-only subgraph (a loop combination with no inductance); its
    expansion in the fundamental basis is read off the chords it contains.
    The numeric rank of B diag(L) B^T cross-checks the structural count.
    """
    cycles = _checked_cycles(circuit, loops)
    witnesses = tuple(np.asarray(w, float) / np.linalg.norm(w) for w in cycles)
    return len(cycles), witnesses


def _checked_cycles(
    circuit: Circuit, loops: tuple[FundamentalLoop, ...]
) -> tuple[tuple[int, ...], ...]:
    """capacitor_only_cycles, cross-checked against the numeric rank
    deficiency of the equilibrated B diag(L) B^T; raises
    RankCrossCheckFailure where they disagree."""
    cycles = capacitor_only_cycles(circuit, loops)
    B, inductors = inductor_participation(circuit, loops)
    W = (B * [circuit.component(cid).value for cid in inductors]) @ B.T
    numeric = len(loops) - _equilibrated_rank(W, _RANK_TOL)
    if numeric != len(cycles):
        raise RankCrossCheckFailure("loop inductance form", len(cycles), numeric)
    return cycles


def capacitor_only_cycles(
    circuit: Circuit, loops: tuple[FundamentalLoop, ...]
) -> tuple[tuple[int, ...], ...]:
    """Independent capacitor-only cycles as exact integer vectors over the
    fundamental-loop basis.  These span the null space of the loop-space
    inductance form."""
    caps = [c for c in circuit.components if c.kind is ComponentKind.CAPACITOR]
    parent_node, parent_comp = _bfs_forest(_adjacency(caps), circuit.nodes)
    forest = {c.id for c in parent_comp.values()}

    loop_index = {loop.chord: i for i, loop in enumerate(loops)}
    witnesses = []
    for c in caps:
        if c.id in forest:
            continue
        # signed cycle: the extra capacitor plus the forest path b -> a; the
        # sign of each chord on it is the cycle's coefficient on that loop
        w = [0] * len(loops)
        steps = _forest_steps(parent_node, parent_comp, c.b, c.a)
        for comp, u, v in [(c, *c.terminals), *steps]:
            if comp.id in loop_index:
                w[loop_index[comp.id]] = +1 if comp.terminals == (u, v) else -1
        if not any(w):
            raise RuntimeError(f"capacitor cycle through {c.id} has no chord content")
        witnesses.append(tuple(w))
    return tuple(witnesses)


def _adjacency(components) -> dict[str, list[tuple[str, Component]]]:
    """node -> (other terminal, component) for the given components at it,
    in the given order."""
    adjacency: dict[str, list[tuple[str, Component]]] = {}
    for c in components:
        adjacency.setdefault(c.a, []).append((c.b, c))
        adjacency.setdefault(c.b, []).append((c.a, c))
    return adjacency


def _bfs_forest(
    adjacency: dict[str, list[tuple[str, Component]]], roots
) -> tuple[dict[str, str], dict[str, Component]]:
    """Breadth-first forest over an _adjacency index, one tree from each
    root not reached before, in order: each reached non-root node's parent
    node and the component to it.  Neighbors are expanded in adjacency
    order and a node keeps the parent that reached it first."""
    parent_node: dict[str, str] = {}
    parent_comp: dict[str, Component] = {}
    seen: set[str] = set()
    for root in roots:
        if root in seen:
            continue
        seen.add(root)
        frontier = deque([root])
        while frontier:
            node = frontier.popleft()
            for other, c in adjacency.get(node, ()):
                if other not in seen:
                    seen.add(other)
                    parent_node[other] = node
                    parent_comp[other] = c
                    frontier.append(other)
    return parent_node, parent_comp


def _forest_steps(
    parent_node: dict[str, str], parent_comp: dict, src: str, dst: str
) -> list[tuple]:
    """Steps (parent_comp entry, from-node, to-node) along a rooted forest
    from src to dst through their lowest common ancestor; the entry is
    whatever parent_comp maps a node to (a component or a component id)."""
    up_src = [src]
    while up_src[-1] in parent_node:
        up_src.append(parent_node[up_src[-1]])
    on_src = set(up_src)
    down = []
    node = dst
    while node not in on_src:
        parent = parent_node[node]
        down.append((parent_comp[node], parent, node))
        node = parent
    down.reverse()
    if node == src:  # src is an ancestor of dst, as on a tree rooted at src
        return down
    up = up_src[: up_src.index(node)]  # node is the lowest common ancestor
    return [(parent_comp[n], n, parent_node[n]) for n in up] + down


def _replace_group(
    circuit: Circuit, group, merged: Component
) -> tuple[tuple[Component, ...], dict[str, float]]:
    """The circuit's components with `merged` in place of group[0] and the
    rest of the group dropped, and the initial conditions of the others."""
    first, dropped = group[0].id, {c.id for c in group}
    components = tuple(
        merged if c.id == first else c
        for c in circuit.components
        if c.id == first or c.id not in dropped
    )
    return components, {k: v for k, v in circuit.ics.items() if k not in dropped}


def _merge_parallel(circuit: Circuit) -> Circuit | None:
    groups: dict[tuple[ComponentKind, frozenset[str]], list[Component]] = {}
    for c in circuit.components:
        groups.setdefault((c.kind, frozenset(c.terminals)), []).append(c)
    target = next((g for g in groups.values() if len(g) > 1), None)
    if target is None:
        return None
    first = target[0]
    if first.kind is ComponentKind.CAPACITOR:
        value = sum(c.value for c in target)
    else:
        value = 1.0 / sum(1.0 / c.value for c in target)
    merged_id = "||".join(c.id for c in target)
    merged = Component(
        merged_id,
        first.kind,
        value,
        first.terminals,
        geometric=all(c.geometric for c in target),
    )
    components, ics = _replace_group(circuit, target, merged)
    declared = [circuit.ics.get(c.id) for c in target]
    if all(v is not None for v in declared):
        if first.kind is ComponentKind.CAPACITOR:
            # parallel capacitors share the branch voltage
            if len(set(declared)) == 1:
                ics[merged_id] = declared[0]
        else:
            # parallel inductor currents add, signed by terminal orientation
            signs = [
                +1 if c.terminals == first.terminals else -1 for c in target
            ]
            ics[merged_id] = sum(s * v for s, v in zip(signs, declared))
    return Circuit(circuit.nodes, components, ics)


def _eliminate_series(circuit: Circuit) -> Circuit | None:
    passive = passive_nodes(circuit)
    for node in circuit.nodes:
        if node == GROUND or node not in passive:
            continue
        incident = circuit.incident(node)
        if len(incident) != 2:
            continue
        c1, c2 = incident
        if c1.kind is not c2.kind:
            continue
        outer1 = c1.b if c1.a == node else c1.a
        outer2 = c2.b if c2.a == node else c2.a
        if outer1 == outer2:
            continue
        if c1.kind is ComponentKind.INDUCTOR:
            value = c1.value + c2.value
        else:
            value = 1.0 / (1.0 / c1.value + 1.0 / c2.value)
        merged_id = f"{c1.id}+{c2.id}"
        merged = Component(
            merged_id,
            c1.kind,
            value,
            (outer1, outer2),
            geometric=c1.geometric and c2.geometric,
        )
        components, ics = _replace_group(circuit, (c1, c2), merged)
        nodes = tuple(n for n in circuit.nodes if n != node)
        if c1.kind is ComponentKind.INDUCTOR:
            # series currents agree up to the chain orientation
            i1, i2 = circuit.ics.get(c1.id), circuit.ics.get(c2.id)
            if i1 is not None and i2 is not None:
                s1 = +1 if c1.terminals == (outer1, node) else -1
                s2 = +1 if c2.terminals == (node, outer2) else -1
                if s1 * i1 == s2 * i2:
                    ics[merged_id] = s1 * i1
        return Circuit(nodes, components, ics)
    return None


def reduce_circuit(circuit: Circuit) -> Circuit:
    """Fixpoint of parallel same-kind merging and series elimination of
    passive degree-2 internal nodes.  Merged ids carry provenance, e.g.
    'C1||C2' (parallel) or 'L3+L4' (series)."""
    current = circuit
    while True:
        step = _merge_parallel(current)
        if step is not None:
            current = step
            continue
        step = _eliminate_series(current)
        if step is not None:
            current = step
            continue
        return current


def topology_report(circuit: Circuit) -> TopologyReport:
    tree = build_spanning_tree(circuit)
    loops = fundamental_loops(circuit, tree)
    cycles = _checked_cycles(circuit, loops)
    # every reduction step changes the component ids, so one step decides
    reducible = (
        _merge_parallel(circuit) is not None or _eliminate_series(circuit) is not None
    )
    return TopologyReport(
        n=len(circuit.nodes),
        c=len(circuit.components),
        l=len(loops),
        passive_nodes=tuple(sorted(passive_nodes(circuit))),
        loop_deficiency=len(cycles),
        witnesses=cycles,
        reducible=reducible,
        tree=tree,
        loops=loops,
    )
