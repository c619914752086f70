import math
from pathlib import Path

import hypothesis
import numpy as np
import pytest

from fluxq import Circuit, Component, ComponentKind, parse_netlist

hypothesis.settings.register_profile(
    "suite", max_examples=40, deadline=None, derandomize=True
)
hypothesis.settings.load_profile("suite")

NETLISTS = Path(__file__).resolve().parent.parent / "netlists"


def load(name: str) -> Circuit:
    return parse_netlist((NETLISTS / name).read_text())


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
    lines, prev = [], "0"
    for i in range(1, n + 1):
        lines.append(f"L{i} {prev} {i} {1e-9 * rng.uniform(0.8, 1.2)!r}")
        if i % 2 == 0:
            lines.append(f"C{i} {i} 0 {1e-12 * rng.uniform(0.8, 1.2)!r}")
        if i % 4 == 0:
            lines.append(f"Cx{i} {i} 0 {2e-12 * rng.uniform(0.8, 1.2)!r}")
        prev = str(i)
    return parse_netlist("\n".join(lines) + "\n")
