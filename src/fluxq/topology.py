"""Graph analysis of LC netlists: ground-rooted spanning tree, fundamental
loop basis, passive-variable detection and series/parallel reduction."""
from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .netlist import GROUND, Circuit, Component, ComponentKind

# relative eigenvalue threshold of the equilibrated loop inductance form
_RANK_TOL = 1e-12
# rounding margin c n^2 eps of the Cholesky full-rank certificate
_CERTIFICATE_C = 4.0
_EPS = np.finfo(float).eps


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
    swallow them in stiff augmented circuits.  The rank counts the
    eigenvalues of the equilibrated matrix above rel_tol times the largest
    in magnitude.

    Exactly-zero rows (a node without a capacitor, a loop without an
    inductor) are null directions: with a unit diagonal in their place, one
    Cholesky certificate (_certifies_full_rank) confirms the other rows,
    and only where it fails are the eigenvalues counted.

    mat must be a Gram matrix X^T diag(w) X with positive finite weights w,
    as every caller's is (M after the diagnosis's finiteness check, K after
    the mode solve's overflow check, B diag(L) B^T): a zero diagonal entry
    then heads a zero row, and where the eigenvalues are counted some row
    has a unit diagonal (the certificate holds on the identity), so the
    largest eigenvalue is positive."""
    n = mat.shape[0]
    if n == 0:
        return 0
    diag = mat.diagonal()
    live = diag > 0.0
    scale = 1.0 / np.sqrt(np.where(live, diag, 1.0))
    # scaled by rows, then by columns (the outer product of the scales
    # overflows for a subnormal diagonal entry), in one buffer
    eq = np.multiply(mat, scale[:, None])
    eq *= scale
    zero = (~live).nonzero()[0]
    eq[zero, zero] = 1.0
    if _certifies_full_rank(eq, rel_tol):
        return n - zero.size
    eq = mat * scale[:, None] * scale  # again: the certificate factored it
    # the singular values of a symmetric matrix are its absolute eigenvalues
    svals = np.abs(np.linalg.eigvalsh(eq))
    return int(np.sum(svals > rel_tol * svals.max()))


def _certifies_full_rank(eq: np.ndarray, rel_tol: float) -> bool:
    """Whether one LAPACK Cholesky proves that every eigenvalue of the
    symmetric matrix eq exceeds rel_tol times the largest by more than the
    rounding of either this test or an eigenvalue count.

    It factors S = eq - sigma I with sigma = (rel_tol + c n^2 eps) g, where
    g = max_i sum_j |eq_ij| bounds lambda_max by Gershgorin's theorem.  A
    factorization that runs to completion gives R^T R = S + dS with
    |dS| <= gamma_{n+1} |R^T| |R|, gamma_{n+1} ~ (n+1) u (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., SIAM 2002, Sec. 10.1.1),
    so ||dS||_2 <= n gamma_{n+1} g (1 + O(n u)) and
    lambda_min(eq) >= sigma - (n (n+1) + 1) u g (the last u from rounding the
    shifted diagonal).  The computed eigenvalues of eq lie within
    p(n) u ||eq||_2 <= p(n) u g of the exact ones (p(n) a modest polynomial;
    LAPACK Users' Guide, 3rd ed., Sec. 4.7), so with c = 4 (8 n^2 u) each
    computed eigenvalue exceeds rel_tol times the largest computed one for
    any p(n) up to ~6 n^2, and the eigenvalue rule counts full rank too.
    A failed factorization (info > 0: a pivot <= 0 or NaN) proves nothing.
    A zero row makes the shifted pivot -sigma, so it always fails.  eq is
    shifted and factored in place.

    Zero rows decouple: up to a permutation, eq is the block diagonal of
    its live rows and zeros, so its spectrum is the live block's plus exact
    zeros.  Ones in place of the zeros leave the live block's largest
    eigenvalue (at least its unit diagonal) the largest and g unchanged, so
    a certificate of that matrix, with the margin of all n rows, proves
    that the eigenvalue rule counts every live row."""
    n = eq.shape[0]
    g = np.abs(eq).sum(1).max()
    eq.flat[:: n + 1] -= (rel_tol + _CERTIFICATE_C * n * n * _EPS) * g
    # factored in place as the Fortran-ordered transpose, whose upper
    # triangle is the lower triangle that eigvalsh reads
    _, info = scipy.linalg.lapack.dpotrf(eq.T, lower=0, clean=0, overwrite_a=1)
    return info == 0


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
    steps reuse: the spanning tree, its fundamental loops and the unit
    integer vectors of its capacitor-only loops (`witnesses`, as returned
    by capacitor_only_cycles).  to_json_dict prints only the counts."""

    n: int
    c: int
    l: int
    passive_nodes: tuple[str, ...]
    loop_deficiency: int
    witnesses: tuple[tuple[int, ...], ...]
    tree: SpanningTree
    loops: tuple[FundamentalLoop, ...]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "c": self.c,
            "l": self.l,
            "passive_nodes": list(self.passive_nodes),
            "loop_deficiency": self.loop_deficiency,
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
    loops = []
    for chord_id in tree.chords:
        chord = circuit.component(chord_id)
        path: list[tuple[str, int]] = [(chord_id, +1)]
        for cid, u, v in _forest_steps(
            tree.parent_node, tree.parent_component, chord.b, chord.a
        ):
            sign = +1 if circuit.component(cid).terminals == (u, v) else -1
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
    unit witness loop-space vectors: the capacitor-only fundamental loops
    of capacitor_only_cycles, whose count the numeric rank of
    B diag(L) B^T cross-checks."""
    cycles = capacitor_only_cycles(circuit, loops)
    return len(cycles), tuple(np.asarray(w, float) for w in cycles)


def capacitor_only_cycles(
    circuit: Circuit, loops: tuple[FundamentalLoop, ...]
) -> tuple[tuple[int, ...], ...]:
    """Independent capacitor-only cycles as exact integer vectors over the
    fundamental-loop basis: the unit vector of each loop whose row of the
    inductor participation B is zero.  The loops must be the
    fundamental_loops of build_spanning_tree, which takes capacitors first:
    every tree path between a capacitor chord's terminals is then
    capacitor-only (a minimum spanning tree's cycle property), so those
    chords' loops span the null space of B diag(L) B^T.  Their count is
    cross-checked against the numeric rank deficiency of the equilibrated
    B diag(L) B^T, and RankCrossCheckFailure is raised where the two
    disagree, as it is for loops of any other tree that miss a direction."""
    B, inductors = inductor_participation(circuit, loops)
    unit = np.eye(len(loops), dtype=int)[~B.any(axis=1)]
    witnesses = tuple(map(tuple, unit.tolist()))
    W = (B * [circuit.component(cid).value for cid in inductors]) @ B.T
    numeric = len(loops) - _equilibrated_rank(W, _RANK_TOL)
    if numeric != len(witnesses):
        raise RankCrossCheckFailure("loop inductance form", len(witnesses), numeric)
    return witnesses


def _bfs_walk(
    circuit: Circuit,
    root: str,
    parent_node: dict[str, str],
    parent_comp: dict[str, Component],
) -> Iterator[str]:
    """Breadth-first search from root over the circuit's design
    (non-geometric) components, read off the cached Circuit.incident index,
    yielding each node as it is reached once its parent node and the
    component to it are recorded in parent_node and parent_comp.
    Neighbors are expanded in declaration order and a node keeps the
    parent that reached it first, so a search stopped early has recorded
    exactly the parents that the whole search records for the nodes it
    has reached."""
    seen = {root}
    frontier = deque([root])
    while frontier:
        node = frontier.popleft()
        for c in circuit.incident(node):
            other = c.b if c.a == node else c.a
            if other not in seen and not c.geometric:
                seen.add(other)
                parent_node[other] = node
                parent_comp[other] = c
                frontier.append(other)
                yield other


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
    """The two components of the first passive node with exactly two,
    merged in series.  A passive node has no capacitor, so both are
    inductors; on _merge_parallel's fixpoint their outer nodes differ."""
    passive = passive_nodes(circuit)
    for node in circuit.nodes:
        if node not in passive or len(circuit.incident(node)) != 2:
            continue
        c1, c2 = circuit.incident(node)
        outer1 = c1.b if c1.a == node else c1.a
        outer2 = c2.b if c2.a == node else c2.a
        merged_id = f"{c1.id}+{c2.id}"
        merged = Component(
            merged_id,
            c1.kind,
            c1.value + c2.value,
            (outer1, outer2),
            geometric=c1.geometric and c2.geometric,
        )
        components, ics = _replace_group(circuit, (c1, c2), merged)
        nodes = tuple(n for n in circuit.nodes if n != node)
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
    passive degree-2 internal nodes, whose two components are inductors
    (series capacitors are not merged).  Merged ids carry provenance, e.g.
    'C1||C2' (parallel) or 'L3+L4' (series).  Returns `circuit` itself
    when no step applies."""
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
    cycles = capacitor_only_cycles(circuit, loops)
    return TopologyReport(
        n=len(circuit.nodes),
        c=len(circuit.components),
        l=len(loops),
        passive_nodes=tuple(sorted(passive_nodes(circuit))),
        loop_deficiency=len(cycles),
        witnesses=cycles,
        tree=tree,
        loops=loops,
    )
