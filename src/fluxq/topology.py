"""Graph analysis of LC netlists: ground-rooted spanning tree, fundamental
loop basis, passive-variable detection and series/parallel reduction."""
from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .netlist import GROUND, Circuit, Component, ComponentKind

_RANK_TOL = 1e-12


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
    n: int
    c: int
    l: int
    passive_nodes: tuple[str, ...]
    loop_deficiency: int
    witnesses: tuple[tuple[float, ...], ...]
    reducible: bool

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


def _ancestry(tree: SpanningTree, node: str) -> list[str]:
    chain = [node]
    while chain[-1] in tree.parent_node:
        chain.append(tree.parent_node[chain[-1]])
    return chain


def _tree_steps(tree: SpanningTree, src: str, dst: str) -> list[tuple[str, str, str]]:
    """Steps (component id, from-node, to-node) along the tree from src to dst."""
    up_src = _ancestry(tree, src)
    up_dst = _ancestry(tree, dst)
    in_src = set(up_src)
    lca = next(n for n in up_dst if n in in_src)
    steps = []
    node = src
    while node != lca:
        parent = tree.parent_node[node]
        steps.append((tree.parent_component[node], node, parent))
        node = parent
    down = []
    node = dst
    while node != lca:
        parent = tree.parent_node[node]
        down.append((tree.parent_component[node], parent, node))
        node = parent
    steps.extend(reversed(down))
    return steps


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
        for cid, u, v in _tree_steps(tree, chord.b, chord.a):
            comp = by_id[cid]
            sign = +1 if comp.terminals == (u, v) else -1
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


def inductor_participation(
    circuit: Circuit, loops: tuple[FundamentalLoop, ...]
) -> tuple[np.ndarray, list[str]]:
    """Signed loop-over-inductor participation matrix B (loops x inductors)."""
    inductors = [c.id for c in circuit.components if c.kind is ComponentKind.INDUCTOR]
    index = {cid: j for j, cid in enumerate(inductors)}
    B = np.zeros((len(loops), len(inductors)))
    for i, loop in enumerate(loops):
        for cid, sign in loop.path:
            j = index.get(cid)
            if j is not None:
                B[i, j] += sign
    return B, inductors


def passive_loop_deficiency(
    circuit: Circuit, loops: tuple[FundamentalLoop, ...]
) -> tuple[int, tuple[np.ndarray, ...]]:
    """Rank deficiency of the inductance form over the loop basis, with
    witness loop-space vectors.

    Structurally, a deficient direction is an independent cycle of the
    capacitor-only subgraph (a loop combination with no inductance); its
    expansion in the fundamental basis is read off the chords it contains.
    The numeric rank of B diag(L) B^T cross-checks the structural count.
    """
    witnesses = []
    for w in capacitor_only_cycles(circuit, loops):
        arr = np.asarray(w, dtype=float)
        witnesses.append(arr / np.linalg.norm(arr))

    B, inductors = inductor_participation(circuit, loops)
    if loops:
        values = np.array([circuit.component(cid).value for cid in inductors])
        W = B @ np.diag(values) @ B.T if inductors else np.zeros((len(loops), len(loops)))
        svals = np.linalg.svd(W, compute_uv=False) if W.size else np.zeros(0)
        smax = svals.max() if svals.size else 0.0
        rank = int(np.sum(svals > _RANK_TOL * smax)) if smax > 0 else 0
        numeric = len(loops) - rank
    else:
        numeric = 0
    if numeric != len(witnesses):
        raise RuntimeError(
            f"structural deficiency {len(witnesses)} disagrees with numeric rank "
            f"deficiency {numeric}"
        )
    return len(witnesses), tuple(witnesses)


def capacitor_only_cycles(
    circuit: Circuit, loops: tuple[FundamentalLoop, ...]
) -> tuple[tuple[int, ...], ...]:
    """Independent capacitor-only cycles as exact integer vectors over the
    fundamental-loop basis.  These span the null space of the loop-space
    inductance form."""
    caps = [c for c in circuit.components if c.kind is ComponentKind.CAPACITOR]
    # each node's capacitors in declaration order, so the breadth-first
    # forest is the one a scan over all capacitors per node would grow
    node_caps: dict[str, list[Component]] = {}
    for c in caps:
        node_caps.setdefault(c.a, []).append(c)
        node_caps.setdefault(c.b, []).append(c)
    parent_node: dict[str, str] = {}
    parent_comp: dict[str, Component] = {}
    visited: set[str] = set()
    forest: set[str] = set()
    for start in circuit.nodes:
        if start in visited:
            continue
        visited.add(start)
        frontier = deque([start])
        while frontier:
            node = frontier.popleft()
            for c in node_caps.get(node, ()):
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
        # signed cycle: the extra capacitor plus the forest path b -> a
        cycle: dict[str, int] = {c.id: +1}
        for comp, u, v in _forest_steps(parent_node, parent_comp, c.b, c.a):
            sign = +1 if comp.terminals == (u, v) else -1
            cycle[comp.id] = cycle.get(comp.id, 0) + sign
        w = [0] * len(loops)
        for cid, sign in cycle.items():
            if cid in loop_index:
                w[loop_index[cid]] = sign
        if not any(w):
            raise RuntimeError(f"capacitor cycle through {c.id} has no chord content")
        witnesses.append(tuple(w))
    return tuple(witnesses)


def _forest_steps(
    parent_node: dict[str, str], parent_comp: dict[str, Component], src: str, dst: str
) -> list[tuple[Component, str, str]]:
    def chain(node: str) -> list[str]:
        out = [node]
        while out[-1] in parent_node:
            out.append(parent_node[out[-1]])
        return out

    up_src, up_dst = chain(src), chain(dst)
    in_src = set(up_src)
    lca = next(n for n in up_dst if n in in_src)
    steps = []
    node = src
    while node != lca:
        parent = parent_node[node]
        steps.append((parent_comp[node], node, parent))
        node = parent
    down = []
    node = dst
    while node != lca:
        parent = parent_node[node]
        down.append((parent_comp[node], parent, node))
        node = parent
    steps.extend(reversed(down))
    return steps


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
    dropped = {c.id for c in target}
    components = []
    for c in circuit.components:
        if c.id == first.id:
            components.append(merged)
        elif c.id not in dropped:
            components.append(c)
    ics = {k: v for k, v in circuit.ics.items() if k not in dropped}
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
    return Circuit(circuit.nodes, tuple(components), ics)


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
        dropped = {c1.id, c2.id}
        components = []
        for c in circuit.components:
            if c.id == c1.id:
                components.append(merged)
            elif c.id not in dropped:
                components.append(c)
        nodes = tuple(n for n in circuit.nodes if n != node)
        ics = {k: v for k, v in circuit.ics.items() if k not in dropped}
        if c1.kind is ComponentKind.INDUCTOR:
            # series currents agree up to the chain orientation
            i1, i2 = circuit.ics.get(c1.id), circuit.ics.get(c2.id)
            if i1 is not None and i2 is not None:
                s1 = +1 if c1.terminals == (outer1, node) else -1
                s2 = +1 if c2.terminals == (node, outer2) else -1
                if s1 * i1 == s2 * i2:
                    ics[merged_id] = s1 * i1
        return Circuit(nodes, tuple(components), ics)
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
    deficiency, witnesses = passive_loop_deficiency(circuit, loops)
    # every reduction step changes the component ids, so one step decides
    reducible = (
        _merge_parallel(circuit) is not None or _eliminate_series(circuit) is not None
    )
    return TopologyReport(
        n=len(circuit.nodes),
        c=len(circuit.components),
        l=len(loops),
        passive_nodes=tuple(sorted(passive_nodes(circuit))),
        loop_deficiency=deficiency,
        witnesses=tuple(tuple(w) for w in witnesses),
        reducible=reducible,
    )
