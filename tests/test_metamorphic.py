"""Metamorphic properties of the pipeline over generated passive circuits.

Each relation holds in exact arithmetic and needs no reference solver
beyond the Kron reduction of test_kron_oracle (Chen, Cheung & Yiu,
*Metamorphic testing: a new approach for generating next test cases*,
HKUST-CS98-01 (1998)):

* renaming the non-ground nodes keeps the node order, the spanning tree
  and every matrix, so `modes` gives the same frequencies_ghz and
  zero_modes bit for bit in every representation and geometric mode;
* permuting the netlist's component lines moves the node order, the
  spanning tree and so the coordinates, but each representation's
  MINIMAL low spectrum stays on its Kron line.  The property draws the
  three (Cg, Lg) pairs of the Kron oracles where that line leads the
  rounding floor: 9000 such cases held.  At the four smaller pairs the
  floor depends on the coordinates and outgrows its 10 eps estimate on
  6 of 1600 permutations, by up to 1.4 times, where the circuits as
  generated stay within it (ROADMAP item 1).  Two of those are explicit
  examples, strict xfails.

The examples are derandomized, so every run checks the same circuits.
"""
import contextlib
import io

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fluxq import (
    GeometricMode,
    GeometricPolicy,
    Representation,
    parse_netlist,
    quantize_circuit,
    serialize_netlist,
)
from fluxq.cli import RunConfig, _mode_payload
from fluxq.netlist import GROUND
from fluxq.quantize import SingularKineticMatrix

from conftest import passive_class_circuit
from test_kron_oracle import (
    CGS,
    EPS,
    LGS,
    _kron_omegas,
    _loop_kron_omegas,
    _random_passive_circuit,
)

PAIRS = tuple(zip(CGS, LGS))
SEEDS = st.integers(0, 2**32 - 1)


def _modes(circuit, rep, mode):
    """frequencies_ghz as bytes and zero_modes of the `modes` payload, or
    the name of the exception that makes the circuit not quantizable."""
    config = RunConfig("modes", None, rep, mode)
    try:
        with contextlib.redirect_stderr(io.StringIO()):  # the zero-mode warning
            payload = _mode_payload(config, circuit)
    except SingularKineticMatrix as exc:
        return type(exc).__name__
    return np.array(payload["frequencies_ghz"]).tobytes(), payload["zero_modes"]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(i=st.integers(0, 19), seed=SEEDS, order_seed=SEEDS)
def test_renaming_nodes_keeps_the_modes_bit_for_bit(i, seed, order_seed):
    circuit = passive_class_circuit(i, np.random.default_rng(seed))
    names = [n for n in circuit.nodes if n != GROUND]
    order = np.random.default_rng(order_seed).permutation(len(names))
    rename = {GROUND: GROUND, **{n: f"x{k}" for n, k in zip(names, order)}}
    lines = [line.split() for line in serialize_netlist(circuit).splitlines()]
    renamed = parse_netlist(
        "".join(f"{cid} {rename[a]} {rename[b]} {value}\n" for cid, a, b, value in lines)
    )
    assert renamed.nodes == tuple(rename[n] for n in circuit.nodes)
    for rep in Representation:
        for mode in GeometricMode:
            assert _modes(renamed, rep, mode) == _modes(circuit, rep, mode), (rep, mode)


_FLOOR = "the rounding floor outgrows its 10 eps estimate (ROADMAP item 1)"


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 9999), order_seed=SEEDS, pair=st.integers(0, 2))
@example(seed=338, order_seed=1719569202, pair=6).xfail(
    raises=AssertionError, reason=f"node: {_FLOOR}"
)
@example(seed=159, order_seed=4008166131, pair=6).xfail(
    raises=AssertionError, reason=f"extended: {_FLOOR}"
)
def test_permuted_lines_keep_the_minimal_low_spectrum_on_its_kron_line(
    seed, order_seed, pair
):
    """The bounds of test_kron_oracle's MINIMAL cases, the references from
    the circuit as generated, the spectra from its permuted netlist."""
    circuit = _random_passive_circuit(seed)
    lines = serialize_netlist(circuit).splitlines(keepends=True)
    order = np.random.default_rng(order_seed).permutation(len(lines))
    permuted = parse_netlist("".join(lines[k] for k in order))
    cg, lg = PAIRS[pair]
    policy = GeometricPolicy(GeometricMode.MINIMAL, default_cg=cg, default_lg=lg)

    reference, cmin, cmax = _kron_omegas(circuit)
    node = quantize_circuit(permuted, Representation.NODE_FLUX, policy).modes
    error = np.max(np.abs(node.omegas[: reference.size] - reference) / reference)
    assert error <= cg / cmin + 10.0 * EPS * cmax / cg, ("node", error)

    loop_reference, zero, lmin, lmax = _loop_kron_omegas(circuit)
    loop = quantize_circuit(permuted, Representation.LOOP_CHARGE, policy).modes
    assert loop.zero_mode_count == zero
    error = np.max(np.abs(loop.omegas[: loop_reference.size] - loop_reference))
    error /= loop_reference.max()
    assert error <= lg / lmin + 10.0 * EPS * lmax / lg, ("loop", error)

    ext = quantize_circuit(permuted, Representation.EXTENDED_NODE_FLUX, policy).modes
    error = np.max(np.abs(ext.omegas[: reference.size] - reference) / reference)
    line = cg / cmin + lg / lmin
    floor = 10.0 * EPS * (cmax / cg + lmax / lg)
    assert error <= line + floor, ("extended", error)
