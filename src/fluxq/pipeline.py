"""The quantization pipeline as one call: topology, geometric augmentation,
one Lagrangian, Legendre transform and normal modes, each stage run once.

All three representations share the circuit's spanning tree and its
fundamental loops (the tree/loop formulation of Burkard, Koch and
DiVincenzo, PRB 69, 064503 (2004)); the topology report carries them to
the augmentation and the Lagrangian.
"""
from __future__ import annotations

from dataclasses import dataclass

from .lagrangian import (
    GeometricPolicy,
    QuadraticLagrangian,
    Representation,
    augment_geometric,
    extended_node_lagrangian,
    loop_lagrangian,
    node_lagrangian,
)
from .netlist import Circuit
from .quantize import (
    HamiltonianSystem,
    ModeDecomposition,
    legendre_transform,
    normal_modes,
)
from .topology import topology_report


@dataclass(frozen=True)
class QuantizedCircuit:
    """`observed` is the circuit the coordinates describe: the augmented
    circuit in the node and extended representations, the design circuit
    in the loop one (its geometric self-inductances are rows of A only)."""

    observed: Circuit
    lagrangian: QuadraticLagrangian
    hamiltonian: HamiltonianSystem
    modes: ModeDecomposition


def quantize_circuit(
    circuit: Circuit, rep: Representation, policy: GeometricPolicy
) -> QuantizedCircuit:
    """Quantize the circuit in one representation under the geometric
    policy.  Raises SingularKineticMatrix when it is not quantizable."""
    report = topology_report(circuit)
    augmented, record = augment_geometric(circuit, report, policy)
    if rep is Representation.NODE_FLUX:
        observed, lag = augmented, node_lagrangian(augmented)
    elif rep is Representation.LOOP_CHARGE:
        observed = circuit
        lag = loop_lagrangian(circuit, report.loops, record)
    else:
        observed = augmented
        lag = extended_node_lagrangian(circuit, report.loops, augmented, record)
    h = legendre_transform(lag)
    return QuantizedCircuit(observed, lag, h, normal_modes(h))
