"""Continuous-time open quantum walks on graphs.

Models couple a classical position on a finite graph with a quantum
internal state per vertex.  The package builds and validates such models,
evolves vertex-indexed block states exactly, samples the underlying jump
process, computes first-passage superoperators in closed form, and
classifies irreducible walks into the recurrence/transience trichotomy.

The names of ``__all__`` are looked up in their modules on each access, so
``import ctoqw`` (and ``import ctoqw.cli``) loads no module a command does
not use.  No name is stored in the package, so a patched function of a
module is seen through the package too.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "classify": (
        "ClassificationReport",
        "IrreducibilityVerdict",
        "RECURRENT",
        "TRANSIENT_QUANTUM",
        "TRANSIENT_UNIFORM",
        "check_discrete_irreducible",
        "check_irreducible",
        "classify_trichotomy",
        "return_probability_extremes",
    ),
    "errors": (
        "BudgetError",
        "ConvergenceError",
        "CtoqwError",
        "ModelError",
        "PreconditionError",
    ),
    "fixtures": ("FIXTURES", "get_fixture"),
    "model": (
        "BlockState",
        "SitedState",
        "VertexSpace",
        "WalkModel",
        "build_lattice",
        "build_walk",
        "classical_embed",
        "model_from_json",
        "sited_block_state",
        "state_from_json",
        "state_to_json",
        "validate",
    ),
    "passage": (
        "TabooKernel",
        "dwell_integral",
        "expected_occupation",
        "first_passage_map",
        "jump_kernel",
        "path_operator",
        "propagated_path_operator",
        "reach_probability",
        "with_certificates",
    ),
    "semigroup": (
        "BlockGenerator",
        "Grid",
        "build_block_generator",
        "dyson_partial",
        "evolve",
        "evolve_grid",
        "jump_tail_bound",
        "lindblad_apply",
        "position_distribution",
    ),
    "superop": ("SuperOp",),
    "trajectory": (
        "EstimateReport",
        "JumpEvent",
        "TrajectoryRecord",
        "estimate",
        "sample_jump_time",
        "simulate",
        "survival_function",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
