"""Classical and quantum Schrodinger bridges on uniform 1-D grids.

The names below are the public API; each module's docstring describes its layer.
The pipelines' named inputs sit with the types they build: the Gaussian,
indicator and mixture densities in grid, the packet and box modes in quantum.
"""

from . import errors
from .bridge import (
    BridgeProblem,
    BridgeSolution,
    bridge_density,
    bridge_drift_fields,
    floor_density,
    heat_kernel,
    solve_schrodinger_system,
    time_reverse,
    wiener_backward_drift_fields,
    wiener_marginal_flow,
)
from .grid import (
    ComplexField,
    DensityField,
    Grid1D,
    ScalarField,
    gaussian_density,
    indicator_density,
    integrate,
    kl_divergence,
    l1_distance,
    mixture_density,
    normalize,
)
from .quantum import (
    DriftDecomposition,
    QuantumModel,
    WavefunctionPath,
    box_mode,
    collapse,
    drifts,
    energy,
    evolve,
    finite_action,
    gaussian_packet,
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
