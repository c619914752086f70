"""Seeded circuit generators, the operation each workload times, and the
independent numpy/scipy checks of each operation's output.

fluxq sees only the generated netlist files (or netlist text, for the
library workload).  Every check below recomputes what it needs from the
benchmark's own component list; nothing is taken from fluxq except the
output under test (and, for covariance, the coordinate labels that name
the rows of that output).
"""
from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.constants
import scipy.linalg

C0 = 1e-12  # nominal capacitance, F
L0 = 1e-9  # nominal inductance, H
IC_VOLTS = 2e-3  # fluxq simulate default per design capacitor

# Cg/C = Lg/L for the passive sweep; every decade from 1e-2 to 1e-12.
SWEEP_RATIOS = (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12)
SWEEP_REPS = ("node", "loop", "extended")
SWEEP_CIRCUITS = 20

EXIT_OK = 0
EXIT_UNQUANTIZABLE = 3


@dataclass(frozen=True)
class Part:
    id: str
    kind: str  # "C" or "L"
    a: str
    b: str
    value: float


def netlist_text(parts: list[Part]) -> str:
    return "".join(f"{p.id} {p.a} {p.b} {p.value!r}\n" for p in parts)


# --------------------------------------------------------------- generators


def ladder(n: int, rng: np.random.Generator) -> list[Part]:
    """Series 1 nH inductors from ground through nodes 1..n, 1 pF to ground
    on even nodes and an extra 2 pF in parallel on every 4th node; each
    value is scaled by a seeded factor in [0.8, 1.2].  Odd nodes are
    passive: they touch only two inductors."""
    parts = []
    prev = "0"
    for i in range(1, n + 1):
        parts.append(Part(f"L{i}", "L", prev, str(i), L0 * rng.uniform(0.8, 1.2)))
        if i % 2 == 0:
            parts.append(Part(f"C{i}", "C", str(i), "0", C0 * rng.uniform(0.8, 1.2)))
        if i % 4 == 0:
            parts.append(
                Part(f"Cx{i}", "C", str(i), "0", 2 * C0 * rng.uniform(0.8, 1.2))
            )
        prev = str(i)
    return parts


def lc_grid(side: int, rng: np.random.Generator) -> list[Part]:
    """side x side nodes, each with a capacitor to ground, inductors between
    grid neighbours and from the four corners to ground.  No passive nodes
    and no capacitor-only loops, so no geometric component is added."""
    def node(r: int, c: int) -> str:
        return str(r * side + c + 1)

    parts = []
    for r in range(side):
        for c in range(side):
            n = node(r, c)
            parts.append(Part(f"C{n}", "C", n, "0", C0 * rng.uniform(0.5, 2.0)))
            if c + 1 < side:
                parts.append(
                    Part(f"Lh{n}", "L", n, node(r, c + 1), L0 * rng.uniform(0.5, 2.0))
                )
            if r + 1 < side:
                parts.append(
                    Part(f"Lv{n}", "L", n, node(r + 1, c), L0 * rng.uniform(0.5, 2.0))
                )
    for r, c in ((0, 0), (0, side - 1), (side - 1, 0), (side - 1, side - 1)):
        n = node(r, c)
        parts.append(Part(f"Lg{n}", "L", n, "0", L0 * rng.uniform(0.5, 2.0)))
    return parts


def passive_circuit(
    rng: np.random.Generator,
    n_active: int,
    n_passive: int,
    cap_chords: int,
    inductor_chords: int,
) -> list[Part]:
    """A circuit of the paper's class: active nodes on a random capacitor
    tree to ground, extra capacitor chords that close capacitor-only loops,
    an inductor tree over the active nodes, extra inductor chords, and
    passive nodes each reached only through two inductors.  The counts are
    arguments so that every seed yields circuits of the same sizes; the
    seed draws which nodes connect and the component values."""
    value = lambda nominal: nominal * rng.uniform(0.5, 2.0)  # noqa: E731
    parts: list[Part] = []
    cap_pairs: set[frozenset] = set()
    for i in range(1, n_active + 1):
        j = int(rng.integers(0, i))
        parts.append(Part(f"C{i}", "C", str(i), str(j), value(C0)))
        cap_pairs.add(frozenset((str(i), str(j))))
    for k in range(cap_chords):
        while True:
            a, b = (str(x) for x in rng.choice(n_active + 1, size=2, replace=False))
            if frozenset((a, b)) not in cap_pairs:
                break
        cap_pairs.add(frozenset((a, b)))
        parts.append(Part(f"Cc{k}", "C", a, b, value(C0)))
    for i in range(1, n_active + 1):
        j = int(rng.integers(0, i))
        parts.append(Part(f"L{i}", "L", str(i), str(j), value(L0)))
    for k in range(inductor_chords):
        a, b = (str(x) for x in rng.choice(n_active + 1, size=2, replace=False))
        parts.append(Part(f"Lc{k}", "L", a, b, value(L0)))
    for k in range(n_passive):
        p = str(n_active + 1 + k)
        a, b = (str(x) for x in rng.choice(n_active + 1, size=2, replace=False))
        parts.append(Part(f"Lp{k}a", "L", p, a, value(L0)))
        parts.append(Part(f"Lp{k}b", "L", p, b, value(L0)))
    return parts


# ------------------------------------------------------------------ oracles


def node_matrices(parts: list[Part], nodes: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Capacitance matrix C and inverse-inductance matrix K over `nodes`
    (ground eliminated), assembled from the benchmark's own part list."""
    index = {n: i for i, n in enumerate(nodes)}
    C = np.zeros((len(nodes), len(nodes)))
    K = np.zeros_like(C)
    for p in parts:
        target, weight = (C, p.value) if p.kind == "C" else (K, 1.0 / p.value)
        ia, ib = index.get(p.a), index.get(p.b)
        for i, si in ((ia, 1.0), (ib, -1.0)):
            for j, sj in ((ia, 1.0), (ib, -1.0)):
                if i is not None and j is not None:
                    target[i, j] += si * sj * weight
    return C, K


def kron_omegas(parts: list[Part]) -> np.ndarray:
    """Angular frequencies of the ideal circuit after Kron (Schur-complement)
    reduction of K over the passive nodes.  As Cg -> 0 and Lg -> 0 the low
    spectrum of every augmented representation converges to these."""
    nodes = sorted({n for p in parts for n in (p.a, p.b)} - {"0"}, key=int)
    C, K = node_matrices(parts, nodes)
    active = np.flatnonzero(np.diag(C) > 0.0)
    passive = np.flatnonzero(np.diag(C) == 0.0)
    k_red = K[np.ix_(active, active)]
    if passive.size:
        k_ap = K[np.ix_(active, passive)]
        k_red = k_red - k_ap @ np.linalg.solve(K[np.ix_(passive, passive)], k_ap.T)
    w2 = scipy.linalg.eigh(k_red, C[np.ix_(active, active)], eigvals_only=True)
    return np.sqrt(w2)


def zero_mode_count(parts: list[Part], rep: str) -> int:
    """Zero modes of the ideal circuit in a representation.  Node-flux
    coordinates drift freely on each inductor-connected island cut off from
    ground; loop charges drift freely around each independent inductor-only
    loop (the cycle rank of the inductor subgraph, ground included)."""
    parent = {}

    def root(n):
        while parent.setdefault(n, n) != n:
            n = parent[n]
        return n

    cycles = 0
    for p in parts:
        if p.kind == "L":
            ra, rb = root(p.a), root(p.b)
            if ra == rb:
                cycles += 1
            parent[ra] = rb
    if rep == "loop":
        return cycles
    nodes = {n for p in parts for n in (p.a, p.b)}
    return len({root(n) for n in nodes} - {root("0")})


def check_modes_payload(
    payload: dict, reference: np.ndarray, zero_modes: int, ratio: float
) -> None:
    """Raises CheckFailed unless the zero-mode count is `zero_modes`, the low
    positive spectrum matches the Kron reference and, without zero modes,
    every coordinate's uncertainty product is >= hbar/2.  (With zero modes
    fluxq restricts the ground state to the oscillating subspace, where the
    product bound need not hold coordinate by coordinate.)"""
    if payload["zero_modes"] != zero_modes:
        raise CheckFailed(f"{payload['zero_modes']} zero modes, expected {zero_modes}")
    omegas = 2.0 * np.pi * 1e9 * np.asarray(payload["frequencies_ghz"], dtype=float)
    if not np.all(np.isfinite(omegas)):
        raise CheckFailed("non-finite frequency")
    positive = np.sort(omegas[omegas > 1e-6 * reference.min()])
    if positive.size < reference.size:
        raise CheckFailed(
            f"{positive.size} positive modes, Kron reduction has {reference.size}"
        )
    # The parasitics shift the low modes by O(ratio).  Rounding in the stiff
    # eigenproblem shifts omega^2 by O(eps * omega_top^2), which dominates
    # for the lowest modes near the singular end of the sweep.
    rel = np.abs(positive[: reference.size] - reference) / reference
    tol = 10.0 * ratio + 10.0 * np.finfo(float).eps * (omegas.max() / reference) ** 2
    if np.any(rel > tol):
        worst = int(np.argmax(rel / tol))
        raise CheckFailed(
            f"low mode {worst} off Kron reduction by {rel[worst]:.3e} (tol {tol[worst]:.1e})"
        )
    products = np.asarray(payload["ground_state"]["products_over_hbar2"], dtype=float)
    if zero_modes == 0 and not np.all(products >= 1.0 - 1e-9):
        raise CheckFailed(f"Heisenberg product {products.min():.6g} < 1")


class CheckFailed(Exception):
    """An operation's output failed the benchmark's independent check."""


# ---------------------------------------------------------------- workloads


@dataclass
class Operation:
    """One timed unit of work.  `run` is timed; `check` receives its result
    and raises CheckFailed (or returns) outside the timed region."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], None]


def call_cli(argv: list[str]) -> tuple[int, str]:
    """fluxq's CLI, in process.  Looked up at call time, so a traced run
    sees the wrapped entry point."""
    from fluxq import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _expect_exit(code: int, wanted: int) -> None:
    if code != wanted:
        raise CheckFailed(f"exit {code}, expected {wanted}")


def ladder_modes(seed: int, workdir: Path, smoke: bool) -> list[Operation]:
    n = 16 if smoke else 128
    parts = ladder(n, np.random.default_rng(seed))
    path = workdir / f"ladder{n}.cir"
    path.write_text(netlist_text(parts))
    reference = kron_omegas(parts)
    ratio = 8.9e-20 / C0  # fluxq's default Cg against the nominal capacitor

    def check(result):
        code, text = result
        _expect_exit(code, EXIT_OK)
        check_modes_payload(json.loads(text), reference, 0, ratio)

    argv = ["modes", str(path), "--format", "json"]
    return [Operation(f"modes ladder{n}", lambda: call_cli(argv), check)]


def ladder_simulate(seed: int, workdir: Path, smoke: bool) -> list[Operation]:
    n = 16 if smoke else 32
    samples = 50 if smoke else 2000
    parts = ladder(n, np.random.default_rng(seed))
    path = workdir / f"ladder{n}.cir"
    path.write_text(netlist_text(parts))
    design_caps = [p.id for p in parts if p.kind == "C"]
    inductors = [p.id for p in parts if p.kind == "L"]
    n_cols = 1 + 2 * len(parts) + 2  # t_s, V and A per part, two sum columns

    def check(result):
        code, text = result
        _expect_exit(code, EXIT_OK)
        header, _, body = text.partition("\n")
        names = header.split(",")
        if len(names) != n_cols:
            raise CheckFailed(f"{len(names)} columns, expected {n_cols}")
        data = np.fromstring(body.replace("\n", ","), sep=",")
        if data.size != samples * n_cols:
            raise CheckFailed(f"{data.size} values, expected {samples * n_cols}")
        if not np.all(np.isfinite(data)):
            raise CheckFailed("non-finite value in trajectory")
        first = dict(zip(names, data[:n_cols]))
        if first["t_s"] != 0.0:
            raise CheckFailed("first row is not t = 0")
        volts = np.array([first[f"{cid}_V"] for cid in design_caps])
        amps = np.array([first[f"{cid}_A"] for cid in inductors])
        if np.abs(volts - IC_VOLTS).max() > 1e-9 * IC_VOLTS:
            raise CheckFailed("t = 0 capacitor voltages differ from 2 mV")
        if np.abs(amps).max() > 1e-15:
            raise CheckFailed("t = 0 inductor currents differ from 0 A")

    argv = ["simulate", str(path), "--samples", str(samples)]
    return [Operation(f"simulate ladder{n}", lambda: call_cli(argv), check)]


def gaussian_evolve(seed: int, workdir: Path, smoke: bool) -> list[Operation]:
    side = 3 if smoke else 8
    parts = lc_grid(side, np.random.default_rng(seed))
    text = netlist_text(parts)
    times = np.linspace(0.0, 4e-9, 20 if smoke else 200)
    nodes = sorted({n for p in parts for n in (p.a, p.b)} - {"0"}, key=int)
    C, K = node_matrices(parts, nodes)
    omegas = np.sqrt(scipy.linalg.eigh(K, C, eigvals_only=True))
    energy = 0.5 * scipy.constants.hbar * omegas.sum()
    cinv = np.linalg.inv(C)

    def run():
        from fluxq import lagrangian, netlist, quantize, simulate, topology

        circuit = netlist.parse_netlist(text)
        violations = netlist.validate_circuit(circuit)
        if violations:
            raise CheckFailed("; ".join(violations))
        report = topology.topology_report(circuit)
        augmented, _ = lagrangian.augment_geometric(
            circuit, report, lagrangian.GeometricPolicy()
        )
        lag = lagrangian.node_lagrangian(
            augmented, topology.build_spanning_tree(augmented)
        )
        h = quantize.legendre_transform(lag)
        modes = quantize.normal_modes(h)
        state = quantize.ground_state(modes, h)
        return lag.labels, simulate.propagate_covariance(modes, h, state, times)

    def check(result):
        labels, covs = result
        order = [nodes.index(lbl[len("phi_"):]) for lbl in labels]
        if sorted(order) != list(range(len(nodes))):
            raise CheckFailed("coordinates do not cover the grid nodes")
        k, minv = K[np.ix_(order, order)], cinv[np.ix_(order, order)]
        dim = len(order)
        mean_h = 0.5 * (
            np.einsum("ij,tji->t", k, covs[:, :dim, :dim])
            + np.einsum("ij,tji->t", minv, covs[:, dim:, dim:])
        )
        rel = np.abs(mean_h - energy) / energy
        if rel.max() > 1e-9:
            raise CheckFailed(f"<H>(t) off hbar/2 sum(omega) by {rel.max():.3e}")

    return [Operation(f"evolve grid{side}x{side}", run, check)]


def passive_sweep(seed: int, workdir: Path, smoke: bool) -> list[Operation]:
    rng = np.random.default_rng(seed)
    ops = []
    for i in range(1 if smoke else SWEEP_CIRCUITS):
        # 4..16 active nodes, 1..5 passive nodes, 1..3 capacitor chords and
        # 0..3 inductor chords, spread evenly over the circuits
        n_active = 4 + 12 * i // (SWEEP_CIRCUITS - 1)
        parts = passive_circuit(rng, n_active, 1 + i % 5, 1 + i % 3, i % 4)
        path = workdir / f"sweep{i}.cir"
        path.write_text(netlist_text(parts))
        reference = kron_omegas(parts)
        for rep in SWEEP_REPS:
            base = ["modes", str(path), "--format", "json", "--rep", rep]
            for ratio in SWEEP_RATIOS:
                argv = base + ["--cg", repr(ratio * C0), "--lg", repr(ratio * L0)]
                ops.append(
                    Operation(
                        f"sweep{i} {rep} {ratio:.0e}",
                        lambda argv=argv: call_cli(argv),
                        _sweep_check(reference, zero_mode_count(parts, rep), ratio),
                    )
                )
            ops.append(
                Operation(
                    f"sweep{i} {rep} off",
                    lambda base=base: call_cli(base + ["--geometric", "off"]),
                    lambda result: _expect_exit(result[0], EXIT_UNQUANTIZABLE),
                )
            )
    return ops


def _sweep_check(reference: np.ndarray, zero_modes: int, ratio: float):
    def check(result):
        code, text = result
        if code == EXIT_UNQUANTIZABLE and ratio <= SWEEP_RATIOS[-1]:
            return  # a diagnosis at the singular end of the sweep is an answer
        _expect_exit(code, EXIT_OK)
        check_modes_payload(json.loads(text), reference, zero_modes, ratio)

    return check


BUILDERS: dict[str, Callable[[int, Path, bool], list[Operation]]] = {
    "ladder_modes": ladder_modes,
    "ladder_simulate": ladder_simulate,
    "gaussian_evolve": gaussian_evolve,
    "passive_sweep": passive_sweep,
}
