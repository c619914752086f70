"""Singular-limit oracle for the node representation.

As the geometric capacitance Cg of the passive nodes goes to zero, the
low spectrum of the augmented node-flux circuit converges to that of the
design circuit with its passive nodes eliminated from K by Kron
(Schur-complement) reduction; the error is O(Cg/C).  The added high
modes, one per passive node, scale as Cg^(-1/2).  See Dorfler & Bullo,
IEEE TCAS-I 60, 150 (2013); Rymarz & DiVincenzo, PRX 13, 021017 (2023).

Below Cg/C ~ 1e-8 the eigensolve's rounding, ~eps C/Cg relative on the
low modes (the spread of the reduced matrix), outgrows the O(Cg/C) term
on the random circuits; the wheel and passive_lc stay on the O(Cg/C) line.

The reference matrices are stamped here from the netlist components, not
taken from the library.
"""
import numpy as np
import pytest
import scipy.linalg

from fluxq import (
    Circuit,
    Component,
    ComponentKind,
    GeometricMode,
    GeometricPolicy,
    Representation,
    quantize_circuit,
)

from conftest import load

CGS = (1e-16, 1e-17, 1e-18, 1e-19, 1e-20, 1e-21, 1e-22)
EPS = np.finfo(float).eps


def _random_passive_circuit(seed: int) -> Circuit:
    """Active nodes on a random capacitor tree to ground with one extra
    capacitor chord, an inductor tree over them, and passive nodes reached
    only through two inductors, the second possibly from another passive
    node."""
    rng = np.random.default_rng(seed)
    n_active, n_passive = 3 + seed % 4, 1 + seed % 3
    nodes = ["0"] + [str(i) for i in range(1, n_active + n_passive + 1)]
    pick = lambda upto: nodes[int(rng.integers(0, upto))]  # noqa: E731
    comps = []

    def add(kind, a, b, nominal):
        cid = f"{kind.value}{len(comps)}"
        comps.append(Component(cid, kind, nominal * rng.uniform(0.5, 2.0), (a, b)))

    for i in range(1, n_active + 1):
        add(ComponentKind.CAPACITOR, nodes[i], pick(i), 1e-12)
        add(ComponentKind.INDUCTOR, nodes[i], pick(i), 1e-9)
    add(ComponentKind.CAPACITOR, nodes[n_active], "0", 1e-12)
    for k in range(n_active + 1, len(nodes)):
        first = pick(n_active + 1)
        second = first
        while second == first:
            second = pick(k)
        add(ComponentKind.INDUCTOR, nodes[k], first, 1e-9)
        add(ComponentKind.INDUCTOR, nodes[k], second, 1e-9)
    return Circuit(tuple(nodes), tuple(comps))


def _kron_omegas(circuit: Circuit) -> tuple[np.ndarray, float, float]:
    """Angular frequencies of the design circuit with its capacitor-free
    nodes Kron-reduced out of K, and its smallest and largest capacitance."""
    nodes = [n for n in circuit.nodes if n != "0"]
    index = {n: i for i, n in enumerate(nodes)}
    C = np.zeros((len(nodes), len(nodes)))
    K = np.zeros_like(C)
    for c in circuit.components:
        target, y = (
            (C, c.value) if c.kind is ComponentKind.CAPACITOR else (K, 1.0 / c.value)
        )
        ends = [index[t] for t in c.terminals if t != "0"]
        for i in ends:
            target[i, i] += y
        if len(ends) == 2:
            target[ends[0], ends[1]] -= y
            target[ends[1], ends[0]] -= y
    active = np.flatnonzero(np.diag(C) > 0.0)
    passive = np.flatnonzero(np.diag(C) == 0.0)
    assert passive.size, "the oracle needs a passive node"
    k_ap = K[np.ix_(active, passive)]
    k_red = K[np.ix_(active, active)] - k_ap @ np.linalg.solve(
        K[np.ix_(passive, passive)], k_ap.T
    )
    w2 = scipy.linalg.eigh(k_red, C[np.ix_(active, active)], eigvals_only=True)
    caps = [c.value for c in circuit.components if c.kind is ComponentKind.CAPACITOR]
    return np.sqrt(w2), min(caps), max(caps)


CIRCUITS = {
    "wheel": lambda: load("wheel.cir"),
    "passive_lc": lambda: load("passive_lc.cir"),
    **{f"random{seed}": (lambda s=seed: _random_passive_circuit(s)) for seed in range(6)},
}


@pytest.mark.parametrize("name", list(CIRCUITS))
def test_node_spectrum_converges_to_kron_reduction(name):
    circuit = CIRCUITS[name]()
    reference, cmin, cmax = _kron_omegas(circuit)
    scaled_top = []
    for cg in CGS:
        policy = GeometricPolicy(cap_mode=GeometricMode.MINIMAL, default_cg=cg)
        omegas = quantize_circuit(circuit, Representation.NODE_FLUX, policy).modes.omegas
        assert omegas.size == len(circuit.nodes) - 1
        low = omegas[: reference.size]
        error = np.max(np.abs(low - reference) / reference)
        assert error <= cg / cmin + 10.0 * EPS * cmax / cg, (cg, error)
        scaled_top.append(omegas[-1] * np.sqrt(cg))
    # the added modes scale as Cg^(-1/2)
    spread = np.ptp(scaled_top) / np.mean(scaled_top)
    assert spread <= 1e-3, scaled_top
