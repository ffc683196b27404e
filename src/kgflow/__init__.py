"""Relativistic scalar probability currents in 1+1 dimensions.

Positive-energy wave packets evaluated exactly in momentum space, the
conserved 4-current and its negative-density pockets, the orthonormal
Newton-Wigner position observable with equal-time kernel checks, the
current conditioned on a later measurement outcome together with its
Born-weighted decomposition identity, and arc-length tracing of current
lines through time reversals.
"""

from .conditional import (
    FinalOutcome,
    OutcomeEnsemble,
    conditional_current,
    decompose_check,
    make_final_outcome,
    make_outcome_ensemble,
    outcome_probabilities,
    weighted_integrand,
)
from .current import (
    CausalClass,
    DensityInterval,
    boost,
    classify,
    continuity_residual,
    current,
    density,
    rest_density,
    scan_negative_density,
)
from .errors import (
    CausalOrderError,
    CoverageError,
    DegenerateStateError,
    DomainError,
    GridMismatchError,
    NodeError,
    ScenarioError,
    TruncationError,
    ZeroProbabilityOutcomeError,
)
from .newton_wigner import (
    KernelMode,
    bessel_k0,
    nw_amplitude,
    nw_density,
    nw_gram_check,
    position_kernel,
)
from .scenarios import Scenario, build_ensemble, build_state, load_scenario
from .states import (
    Event,
    FourVector,
    GridSpec,
    SpectralState,
    evaluate_dpsi,
    evaluate_psi,
    inner,
    invariant_norm,
    make_gaussian_packet,
    superpose,
)
from .trajectories import (
    Box,
    FieldHandle,
    Trajectory,
    conditional_field,
    detect_closed,
    segment_stats,
    standard_field,
    trace,
    trace_many,
)

__version__ = "0.1.0"

__all__ = [
    "Box",
    "CausalClass",
    "CausalOrderError",
    "CoverageError",
    "DegenerateStateError",
    "DensityInterval",
    "DomainError",
    "Event",
    "FieldHandle",
    "FinalOutcome",
    "FourVector",
    "GridMismatchError",
    "GridSpec",
    "KernelMode",
    "NodeError",
    "OutcomeEnsemble",
    "Scenario",
    "ScenarioError",
    "SpectralState",
    "Trajectory",
    "TruncationError",
    "ZeroProbabilityOutcomeError",
    "bessel_k0",
    "boost",
    "build_ensemble",
    "build_state",
    "classify",
    "conditional_current",
    "conditional_field",
    "continuity_residual",
    "current",
    "decompose_check",
    "density",
    "detect_closed",
    "evaluate_dpsi",
    "evaluate_psi",
    "inner",
    "invariant_norm",
    "load_scenario",
    "make_final_outcome",
    "make_gaussian_packet",
    "make_outcome_ensemble",
    "nw_amplitude",
    "nw_density",
    "nw_gram_check",
    "outcome_probabilities",
    "position_kernel",
    "rest_density",
    "scan_negative_density",
    "segment_stats",
    "standard_field",
    "superpose",
    "trace",
    "trace_many",
    "weighted_integrand",
]
