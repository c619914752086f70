import math
from pathlib import Path

import hypothesis
import numpy as np
import pytest

from fluxq import (
    Circuit,
    Component,
    ComponentKind,
    augment_geometric,
    extended_node_lagrangian,
    parse_netlist,
    topology_report,
)

hypothesis.settings.register_profile(
    "suite", max_examples=40, deadline=None, derandomize=True
)
hypothesis.settings.load_profile("suite")

NETLISTS = Path(__file__).resolve().parent.parent / "netlists"


def load(name: str) -> Circuit:
    return parse_netlist((NETLISTS / name).read_text())


def extended(circuit: Circuit, policy):
    """The extended node-flux Lagrangian from the circuit's topology report
    and its augmentation under the policy, as the pipeline builds it."""
    report = topology_report(circuit)
    augmented, record = augment_geometric(circuit, report, policy)
    return extended_node_lagrangian(circuit, report.loops, augmented, record)


@pytest.fixture
def passive_lc() -> Circuit:
    """Parallel capacitor pair feeding a series inductor chain; node 3 and
    the capacitor-only loop are passive."""
    return load("passive_lc.cir")


@pytest.fixture
def reduced_lc() -> Circuit:
    """Single 6 pF / 4 nH parallel tank, the reduction of passive_lc."""
    return load("reduced_lc.cir")


@pytest.fixture
def wheel() -> Circuit:
    """Inductor spokes to a hub without capacitors, capacitor rim without
    inductors; irreducible and unquantizable in either representation."""
    return load("wheel.cir")


@pytest.fixture
def active_lc() -> Circuit:
    """Same topology as passive_lc with placements swapped so every node
    has a capacitor and every loop an inductor."""
    return load("active_lc.cir")


def pencil_frequencies_2x2(M, K) -> tuple[float, float]:
    """Independent characteristic-polynomial oracle for a 2x2 pencil:
    det(K - a M) = A a^2 - B a + C, frequencies in Hz via the numerically
    stable quadratic formula (small root from the root product)."""
    M, K = np.asarray(M, float), np.asarray(K, float)
    A = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    B = (
        M[0, 0] * K[1, 1]
        + K[0, 0] * M[1, 1]
        - M[0, 1] * K[1, 0]
        - K[0, 1] * M[1, 0]
    )
    C = K[0, 0] * K[1, 1] - K[0, 1] * K[1, 0]
    disc = math.sqrt(B * B - 4.0 * A * C)
    a_high = (B + disc) / (2.0 * A)
    a_low = (2.0 * C) / (B + disc)
    return (
        math.sqrt(a_low) / (2.0 * math.pi),
        math.sqrt(a_high) / (2.0 * math.pi),
    )


def random_active_circuit(rng: np.random.Generator, max_nodes: int = 8) -> Circuit:
    """Random circuit with a capacitor spanning tree (every node has a
    capacitive path to ground, no capacitor-only loop) plus inductor
    chords, so both representations are quantizable."""
    n = int(rng.integers(2, max_nodes + 1))
    nodes = ["0"] + [f"n{i}" for i in range(1, n)]
    comps = []
    for i in range(1, n):
        other = nodes[int(rng.integers(0, i))]
        comps.append(
            Component(
                f"C{i}",
                ComponentKind.CAPACITOR,
                float(rng.uniform(0.5e-12, 5e-12)),
                (nodes[i], other),
            )
        )
    m = int(rng.integers(1, 2 * n))
    for j in range(m):
        a, b = rng.choice(n, size=2, replace=False)
        comps.append(
            Component(
                f"L{j}",
                ComponentKind.INDUCTOR,
                float(rng.uniform(0.5e-9, 5e-9)),
                (nodes[int(a)], nodes[int(b)]),
            )
        )
    return Circuit(tuple(nodes), tuple(comps))


def ladder(n: int, rng: np.random.Generator) -> Circuit:
    """Series inductors from ground through nodes 1..n, capacitors to ground
    on even nodes and a second one on every 4th; odd nodes are passive."""
    return parse_netlist(ladder_netlist(n, rng))


def ladder_netlist(n: int, rng: np.random.Generator) -> str:
    """The netlist text of ladder(n, rng)."""
    lines, prev = [], "0"
    for i in range(1, n + 1):
        lines.append(f"L{i} {prev} {i} {1e-9 * rng.uniform(0.8, 1.2)!r}")
        if i % 2 == 0:
            lines.append(f"C{i} {i} 0 {1e-12 * rng.uniform(0.8, 1.2)!r}")
        if i % 4 == 0:
            lines.append(f"Cx{i} {i} 0 {2e-12 * rng.uniform(0.8, 1.2)!r}")
        prev = str(i)
    return "\n".join(lines) + "\n"


def passive_class_circuit(i: int, rng: np.random.Generator) -> Circuit:
    """The i-th (0..19) circuit of the paper's class at the sizes of the
    benchmark's passive sweep: 4..16 active nodes on a random capacitor
    tree to ground, 1..3 capacitor chords closing capacitor-only loops, an
    inductor tree over the active nodes, 0..3 inductor chords, and 1..5
    passive nodes each reached only through two inductors."""
    n_active = 4 + 12 * i // 19
    value = lambda nominal: nominal * rng.uniform(0.5, 2.0)  # noqa: E731
    lines, cap_pairs = [], set()
    for j in range(1, n_active + 1):
        k = int(rng.integers(0, j))
        lines.append(f"C{j} {j} {k} {value(1e-12)!r}")
        cap_pairs.add(frozenset((j, k)))
    for k in range(1 + i % 3):
        while True:
            a, b = (int(x) for x in rng.choice(n_active + 1, size=2, replace=False))
            if frozenset((a, b)) not in cap_pairs:
                break
        cap_pairs.add(frozenset((a, b)))
        lines.append(f"Cc{k} {a} {b} {value(1e-12)!r}")
    for j in range(1, n_active + 1):
        lines.append(f"L{j} {j} {int(rng.integers(0, j))} {value(1e-9)!r}")
    for k in range(i % 4):
        a, b = rng.choice(n_active + 1, size=2, replace=False)
        lines.append(f"Lc{k} {a} {b} {value(1e-9)!r}")
    for k in range(1 + i % 5):
        a, b = rng.choice(n_active + 1, size=2, replace=False)
        lines.append(f"Lp{k}a {n_active + 1 + k} {a} {value(1e-9)!r}")
        lines.append(f"Lp{k}b {n_active + 1 + k} {b} {value(1e-9)!r}")
    return parse_netlist("\n".join(lines) + "\n")


def attribution_weights(modes, h) -> np.ndarray:
    """|M^{1/2} V| as mode_attribution forms it: rows are coordinates,
    columns modes."""
    evals, q = np.linalg.eigh(h.mass_matrix())
    msqrt = (q * np.sqrt(np.clip(evals, 0.0, None))) @ q.T
    return np.abs(msqrt @ modes.modes)
