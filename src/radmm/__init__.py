"""Partition-based relaxed ADMM over lossy networks.

A simulator for multi-agent convex optimization where each node's cost
couples its own variable with its graph neighbors'. Nodes run synchronous
rounds of closed-form local minimization plus two-vector message exchange,
tolerate i.i.d. packet loss, and can be cross-checked against a centralized
stacked-vector reference of the same scheme.

The public names below are loaded on first access (PEP 562), so `import
radmm` loads no numpy and each command pays only for the modules it uses;
`radmm.X` and `from radmm import X` work as for eager imports.
"""

from importlib import import_module

_EXPORTS = {
    "core": (
        "Message",
        "NodeState",
        "QuadraticLocalSolver",
        "compute_messages",
        "consensus_residual",
        "initial_states",
        "local_x_update",
        "make_local_solver",
        "node_states",
        "relative_error",
        "sync_round",
    ),
    "engine": (
        "DIVERGENCE_NORM",
        "AlgorithmParams",
        "RunTrace",
        "SingularLocalSystemError",
        "run",
        "trace_to_csv",
    ),
    "graph": (
        "DisconnectedGraphError",
        "Graph",
        "generate_connected_rgg",
        "generate_rgg",
        "is_connected",
        "neighbors",
    ),
    "lossy": (
        "MASK_CONTRACT",
        "DeliveryMask",
        "LossModel",
        "LossSchedule",
        "delivery_array",
        "sample_mask",
    ),
    "problem": (
        "IndefiniteHessianError",
        "PartitionProblem",
        "QuadraticLocalCost",
        "Solution",
        "evaluate_local",
        "generate_instance",
        "global_cost",
        "problem_from_json",
        "problem_to_json",
        "solve_centralized",
    ),
    "reference": (
        "ConstraintMatrices",
        "ReferenceRound",
        "ReferenceState",
        "build_constraint_matrices",
        "build_reference_round",
        "check_equivalence",
        "reference_initial_state",
        "reference_step",
    ),
    "experiments": (
        "MonteCarloTrace",
        "SweepResult",
        "detect_convergence",
        "monte_carlo",
        "monte_carlo_settings",
        "monte_carlo_to_csv",
        "stability_sweep",
        "sweep_to_csv",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "config"}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _HOME.keys() | _SUBMODULES)
