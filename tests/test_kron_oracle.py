"""Singular-limit oracles for the node, loop and extended representations.

As the geometric capacitance Cg of the passive nodes goes to zero, the
low spectrum of the augmented node-flux circuit converges to that of the
design circuit with its passive nodes eliminated from K by Kron
(Schur-complement) reduction; the error is O(Cg/C).  The added high
modes, one per passive node, scale as Cg^(-1/2).  See Dorfler & Bullo,
IEEE TCAS-I 60, 150 (2013); Rymarz & DiVincenzo, PRX 13, 021017 (2023).

Below Cg/C ~ 1e-8 the eigensolve's rounding, ~eps C/Cg relative on the
low modes (the spread of the reduced matrix), outgrows the O(Cg/C) term
on the random circuits; the wheel and passive_lc stay on the O(Cg/C) line.

The loop representation is the dual: as the geometric self-inductance Lg
of the inductance-free (capacitor-only) cycles goes to zero, its low
spectrum converges to the Kron reduction of the cycle-space K over those
cycles, with an error O(Lg/L) plus the rounding floor ~eps L/Lg, and the
added modes, one per capacitor-only cycle, scale as Lg^(-1/2).  From
Lg/L ~ 1e-9 the rounding floor leads.

The extended representation keeps the node fluxes and adds a loop flux per
capacitor-only cycle, behind its self-inductance Lg.  As Cg and Lg go to
zero together, its low spectrum converges to the same node Kron reduction,
with an error O(Cg/C + Lg/L) plus a rounding floor ~eps L/Lg (beside the
node one's ~eps C/Cg), relative on the low modes.  On the random circuits
the floor leads from (Cg, Lg) ~ (1e-19, 1e-18) on: at Lg = 1e-20 and 1e-21
it reads 1e-5 to 4e-4, about 1e4 to 2e6 times the O(Cg/C + Lg/L) line.

Under ALL_PAIRS every node carries n - 1 geometric capacitors, one to
each other node (n counts ground).  A row of the capacitance perturbation
then holds (n - 1) Cg on the diagonal and at most (n - 1) Cg off it in
absolute value, so by Gershgorin's theorem its norm is at most
2 (n - 1) Cg, and the node line becomes 2 (n - 1) Cg/C_min (the worst case
reads 0.61 of it, random3).  The loop representation puts Lg on every loop
instead of the capacitor-only ones, on the MINIMAL line.  The extended
representation misses its line (the node one plus Lg/L_min, with both
floors) by 2e5 to 1e6 on every circuit but passive_lc: its low modes are
rounding noise, since the mode solve's reduced matrix spreads over
omega_max^2 (ROADMAP item 1).  Those cases are strict xfails.

The ALL_PAIRS cases also run the benchmark's 128-node ladder, whose
spectrum spreads over omega_max / omega_min ~ 1e8.  There the rounding
floor outgrows its eps estimate (item 1 again).  The loop case reads 1.6
times its line at Lg = 1e-18 and 5.4 times at 1e-21, a strict xfail.  The
node case reads 0.94 of its line at Cg = 1e-22 on one BLAS thread and
1.29 on two, so it is an xfail that may pass.  The extended case misses
its line by 4.2e5 (two threads) to 5.7e5 (one), a strict xfail.

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

from conftest import ladder, load

CGS = (1e-16, 1e-17, 1e-18, 1e-19, 1e-20, 1e-21, 1e-22)
LGS = (1e-15, 1e-16, 1e-17, 1e-18, 1e-19, 1e-20, 1e-21)
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


def _loop_kron_omegas(circuit: Circuit) -> tuple[np.ndarray, int, float, float]:
    """Angular frequencies of the design circuit's cycle space with its
    inductance-free cycles Kron-reduced out of K, the number of
    capacitor-free cycles (zero modes), and the smallest and largest
    inductance."""
    nodes = [n for n in circuit.nodes if n != "0"]
    index = {n: i for i, n in enumerate(nodes)}
    incidence = np.zeros((len(nodes), len(circuit.components)))
    for j, c in enumerate(circuit.components):
        for terminal, sign in zip(c.terminals, (1.0, -1.0)):
            if terminal != "0":
                incidence[index[terminal], j] += sign
    z = scipy.linalg.null_space(incidence)  # branches x cycles
    inductor = np.array([c.kind is ComponentKind.INDUCTOR for c in circuit.components])
    values = np.array([c.value for c in circuit.components])
    z_l, z_c = z[inductor], z[~inductor]
    m0 = z_l.T @ (values[inductor, None] * z_l)
    K = z_c.T @ (z_c / values[~inductor, None])
    n = scipy.linalg.null_space(z_l)  # cycles without inductance
    assert n.shape[1], "the oracle needs a capacitor-only cycle"
    q = scipy.linalg.null_space(n.T)
    k_qn = q.T @ K @ n
    k_red = q.T @ K @ q - k_qn @ np.linalg.solve(n.T @ K @ n, k_qn.T)
    w2 = scipy.linalg.eigh(k_red, q.T @ m0 @ q, eigvals_only=True)
    zero = scipy.linalg.null_space(z_c).shape[1]
    omegas = np.sqrt(np.clip(w2, 0.0, None))
    omegas[:zero] = 0.0
    return omegas, zero, values[inductor].min(), values[inductor].max()


CIRCUITS = {
    "wheel": lambda: load("wheel.cir"),
    "passive_lc": lambda: load("passive_lc.cir"),
    **{f"random{seed}": (lambda s=seed: _random_passive_circuit(s)) for seed in range(6)},
}
ALL_PAIRS_CIRCUITS = {
    **CIRCUITS, "ladder128": lambda: ladder(128, np.random.default_rng(7))
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


@pytest.mark.parametrize("name", list(CIRCUITS))
def test_loop_spectrum_converges_to_kron_reduction(name):
    circuit = CIRCUITS[name]()
    reference, zero, lmin, lmax = _loop_kron_omegas(circuit)
    scaled_top = []
    for lg in LGS:
        policy = GeometricPolicy(cap_mode=GeometricMode.MINIMAL, default_lg=lg)
        modes = quantize_circuit(circuit, Representation.LOOP_CHARGE, policy).modes
        assert modes.dim == len(circuit.components) - len(circuit.nodes) + 1
        # inductor-only cycles are zero modes on both sides
        assert modes.zero_mode_count == zero
        low = modes.omegas[: reference.size]
        error = np.max(np.abs(low - reference)) / reference.max()
        assert error <= lg / lmin + 10.0 * EPS * lmax / lg, (lg, error)
        scaled_top.append(modes.omegas[-1] * np.sqrt(lg))
    # the added modes scale as Lg^(-1/2)
    spread = np.ptp(scaled_top) / np.mean(scaled_top)
    assert spread <= 1e-3, scaled_top


@pytest.mark.parametrize("seed", range(6))
def test_extended_spectrum_converges_to_kron_reduction(seed):
    circuit = _random_passive_circuit(seed)
    reference, cmin, cmax = _kron_omegas(circuit)
    inductances = [c.value for c in circuit.components if c.kind is ComponentKind.INDUCTOR]
    lmin, lmax = min(inductances), max(inductances)
    for cg, lg in zip(CGS, LGS):
        policy = GeometricPolicy(
            cap_mode=GeometricMode.MINIMAL, default_cg=cg, default_lg=lg
        )
        omegas = quantize_circuit(
            circuit, Representation.EXTENDED_NODE_FLUX, policy
        ).modes.omegas
        low = omegas[: reference.size]
        error = np.max(np.abs(low - reference) / reference)
        line = cg / cmin + lg / lmin
        floor = 10.0 * EPS * (cmax / cg + lmax / lg)
        assert error <= line + floor, (cg, lg, error)


def _all_pairs(**values: float) -> GeometricPolicy:
    return GeometricPolicy(cap_mode=GeometricMode.ALL_PAIRS, **values)


def _all_pairs_cases(marks: dict) -> list:
    """The ALL_PAIRS circuit names, each with its marks."""
    return [pytest.param(n, marks=marks.get(n, ())) for n in ALL_PAIRS_CIRCUITS]


_ROUNDING_FLOOR = "the rounding floor of the mode solve outgrows its eps estimate"
_LADDER_NODE_FLOOR = pytest.mark.xfail(
    raises=AssertionError,
    strict=False,
    reason=f"{_ROUNDING_FLOOR} at Cg = 1e-22 with two BLAS threads, not with "
    "one (ROADMAP item 1)",
)
_LADDER_LOOP_FLOOR = pytest.mark.xfail(
    raises=AssertionError, strict=True, reason=f"{_ROUNDING_FLOOR} (ROADMAP item 1)"
)


@pytest.mark.parametrize("name", _all_pairs_cases({"ladder128": _LADDER_NODE_FLOOR}))
def test_all_pairs_node_spectrum_converges_to_kron_reduction(name):
    circuit = ALL_PAIRS_CIRCUITS[name]()
    reference, cmin, cmax = _kron_omegas(circuit)
    per_node = len(circuit.nodes) - 1  # geometric capacitors at each node
    for cg in CGS:
        policy = _all_pairs(default_cg=cg)
        omegas = quantize_circuit(circuit, Representation.NODE_FLUX, policy).modes.omegas
        low = omegas[: reference.size]
        error = np.max(np.abs(low - reference) / reference)
        assert error <= 2 * per_node * cg / cmin + 10.0 * EPS * cmax / cg, (cg, error)


@pytest.mark.parametrize("name", _all_pairs_cases({"ladder128": _LADDER_LOOP_FLOOR}))
def test_all_pairs_loop_spectrum_converges_to_kron_reduction(name):
    circuit = ALL_PAIRS_CIRCUITS[name]()
    reference, zero, lmin, lmax = _loop_kron_omegas(circuit)
    for lg in LGS:
        policy = _all_pairs(default_lg=lg)
        modes = quantize_circuit(circuit, Representation.LOOP_CHARGE, policy).modes
        assert modes.zero_mode_count == zero
        low = modes.omegas[: reference.size]
        error = np.max(np.abs(low - reference)) / reference.max()
        assert error <= lg / lmin + 10.0 * EPS * lmax / lg, (lg, error)


_EXTENDED_ALL_PAIRS_NOISE = pytest.mark.xfail(
    raises=AssertionError,
    strict=True,
    reason="low modes are rounding noise: the reduced matrix of the mode "
    "solve spreads over omega_max^2 (ROADMAP item 1)",
)


@pytest.mark.parametrize(
    "name",
    _all_pairs_cases(
        {n: _EXTENDED_ALL_PAIRS_NOISE for n in ALL_PAIRS_CIRCUITS if n != "passive_lc"}
    ),
)
def test_all_pairs_extended_spectrum_converges_to_kron_reduction(name):
    circuit = ALL_PAIRS_CIRCUITS[name]()
    reference, cmin, cmax = _kron_omegas(circuit)
    inductances = [c.value for c in circuit.components if c.kind is ComponentKind.INDUCTOR]
    lmin, lmax = min(inductances), max(inductances)
    per_node = len(circuit.nodes) - 1
    for cg, lg in zip(CGS, LGS):
        policy = _all_pairs(default_cg=cg, default_lg=lg)
        omegas = quantize_circuit(
            circuit, Representation.EXTENDED_NODE_FLUX, policy
        ).modes.omegas
        low = omegas[: reference.size]
        error = np.max(np.abs(low - reference) / reference)
        line = 2 * per_node * cg / cmin + lg / lmin
        floor = 10.0 * EPS * (cmax / cg + lmax / lg)
        assert error <= line + floor, (cg, lg, error)
