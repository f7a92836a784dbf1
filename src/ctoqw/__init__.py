"""Continuous-time open quantum walks on graphs.

Models couple a classical position on a finite graph with a quantum
internal state per vertex.  The package builds and validates such models,
evolves vertex-indexed block states exactly, samples the underlying jump
process, computes first-passage superoperators in closed form, and
classifies irreducible walks into the recurrence/transience trichotomy.
"""

from .classify import (
    ClassificationReport,
    IrreducibilityVerdict,
    RECURRENT,
    TRANSIENT_QUANTUM,
    TRANSIENT_UNIFORM,
    check_discrete_irreducible,
    check_irreducible,
    classify_trichotomy,
    return_probability_extremes,
)
from .errors import (
    BudgetError,
    ConvergenceError,
    CtoqwError,
    ModelError,
    PreconditionError,
)
from .fixtures import FIXTURES, get_fixture
from .model import (
    BlockState,
    SitedState,
    VertexSpace,
    WalkModel,
    build_lattice,
    build_walk,
    classical_embed,
    model_from_json,
    sited_block_state,
    state_from_json,
    state_to_json,
    validate,
)
from .passage import (
    TabooKernel,
    dwell_integral,
    expected_occupation,
    first_passage_map,
    jump_kernel,
    path_operator,
    propagated_path_operator,
    reach_probability,
    with_certificates,
)
from .semigroup import (
    BlockGenerator,
    Grid,
    build_block_generator,
    dyson_partial,
    evolve,
    evolve_grid,
    jump_tail_bound,
    lindblad_apply,
    position_distribution,
)
from .superop import SuperOp
from .trajectory import (
    EstimateReport,
    JumpEvent,
    TrajectoryRecord,
    estimate,
    sample_jump_time,
    simulate,
    survival_function,
)

__version__ = "0.1.0"
