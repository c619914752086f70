"""fluxq: quantization and Gaussian simulation of lumped-element LC circuits."""

from types import ModuleType as _ModuleType

from .lagrangian import (
    AugmentationRecord,
    GeometricMode,
    GeometricPolicy,
    QuadraticLagrangian,
    Representation,
    augment_geometric,
    charge_law_residual,
    extended_node_lagrangian,
    flux_law_residual,
    loop_lagrangian,
    node_lagrangian,
)
from .netlist import (
    Circuit,
    Component,
    ComponentKind,
    NetlistError,
    parse_netlist,
    serialize_netlist,
    validate_circuit,
)
from .pipeline import QuantizedCircuit, quantize_circuit
from .quantize import (
    HBAR,
    GaussianState,
    HamiltonianSystem,
    KineticMatrixOverflow,
    ModeDecomposition,
    QuantizabilityDiagnosis,
    ReducedMatrixOverflow,
    SingularKineticMatrix,
    diagnose_quantizability,
    ground_state,
    legendre_transform,
    mode_attribution,
    mode_uncertainty_products,
    normal_modes,
)
from .simulate import (
    ComponentSeries,
    InconsistentInitialConditions,
    StepTooLarge,
    Trajectory,
    evolution_matrix,
    evolve_leapfrog,
    evolve_modes,
    initial_state,
    observables,
    propagate_covariance,
)
from .topology import (
    FundamentalLoop,
    RankCrossCheckFailure,
    SpanningTree,
    TopologyReport,
    build_spanning_tree,
    fundamental_loops,
    passive_loop_deficiency,
    passive_nodes,
    reduce_circuit,
    topology_report,
)

# the public names imported above, without the submodules they bind
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
