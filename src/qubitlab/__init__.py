"""qubitlab: numerics for coherent sequences of qubit-register states.

The package covers four layers: exact-convention linear algebra on
density operators and projections (`linalg`), constructors and analytics
for coherent state sequences (`states`), projection-sequence tests with
exactly certified budgets and their builders (`rtests`), and the
distribution-rearrangement bounds plus uniform-integrability diagnostics
that tie a sequence's entropy growth to how well small-rank projections
can pin it (`infotheory`).  A CLI (`qubitlab`) drives replayable
experiments over all of it.
"""

from .dyadic import as_fraction, pow2_ceil, pow2_floor
from .infotheory import (
    FlattenResult,
    StepFamily,
    UIProfile,
    check_entropy_lower_bound,
    check_entropy_upper_bound,
    entropy_gap,
    entropy_gap_curve,
    flatten_distribution,
    prefix_integral,
    step_family,
    two_block_average,
    ui_profile,
    uniformity_dominance,
)
from .linalg import (
    DensityOperator,
    Projection,
    Spectrum,
    eigendecompose,
    partial_trace_k,
    partial_trace_last,
    projection_weight,
    shannon_entropy,
    tau_weight,
    tensor,
    top_k_projector,
    top_k_sum,
    validate_density,
    von_neumann_entropy,
)
from .rtests import (
    BuildOutcome,
    FailureReport,
    NullCondition,
    ProjectionSequence,
    QSTest,
    STest,
    TestTerm,
    block_state_test,
    block_test_sequence,
    build_entropy_deficiency_test,
    build_s_test,
    build_ui_test,
    evaluate_failure,
    null_condition_trend,
    state_weight,
    typical_subspace_decay,
    validate_qstest,
)
from .states import (
    DensitySpec,
    EntropyProfile,
    StateSequence,
    block_checkpoint,
    block_state,
    check_coherence,
    entropy_profile,
    entropy_rate_estimate,
    explicit_state,
    log_power_density,
    measure_state,
    prng_bits,
    pure_bitstring_state,
    tensor_power_state,
    tracial_state,
)

__version__ = "0.1.0"
