"""Classical and quantum Schrodinger bridges on uniform 1-D grids.

Classical side: the Wiener heat kernel and its log-domain propagator, the
Fortet/Sinkhorn solver for the two-marginal potential system, bridge
densities and drifts, the prior's marginal flow, and the relative entropy: the
Kullback-Leibler divergence of two densities (grid) and its Girsanov split
along an ensemble (sde), marginal divergence plus drift-mismatch integral.
Quantum side: a norm- and reversibility-exact Schrodinger solver, Nelson
current/osmotic drifts, the terminal reconditioning of a wavefunction path
on a measured density, and the region-conditioning (collapse) operator.
Euler-Maruyama sampling closes the loop between densities, drifts, and
trajectories.
"""

from . import errors
from .bridge import (
    BridgeProblem,
    BridgeSolution,
    bridge_density,
    bridge_drift_fields,
    floor_density,
    solve_schrodinger_system,
    time_reverse,
    wiener_backward_drift_fields,
    wiener_marginal_flow,
)
from .families import (
    box_mode,
    box_mode_energy,
    gaussian_density,
    gaussian_packet,
    indicator_density,
    mixture_density,
)
from .grid import (
    ComplexField,
    DensityField,
    Grid1D,
    ScalarField,
    gradient,
    integrate,
    kl_divergence,
    l1_distance,
    laplacian,
    log_gradient,
    normalize,
)
from .kernels import TransitionKernel, heat_kernel
from .quantum import (
    DriftDecomposition,
    QuantumModel,
    WavefunctionPath,
    collapse,
    drifts,
    energy,
    evolve,
    finite_action,
    hjb_residual,
    norm_l2,
    normalize_wavefunction,
    quantum_bridge,
)
from .sde import (
    EntropyReport,
    GeneratorCheckResult,
    GridDrift,
    PathEnsemble,
    duality_check,
    empirical_density,
    generator_check,
    path_entropy_backward,
    path_entropy_forward,
    sample_backward,
    sample_forward,
)

__version__ = "0.1.0"
