"""Partition-based relaxed ADMM over lossy networks.

A simulator for multi-agent convex optimization where each node's cost
couples its own variable with its graph neighbors'. Nodes run synchronous
rounds of closed-form local minimization plus two-vector message exchange,
tolerate i.i.d. packet loss, and can be cross-checked against a centralized
stacked-vector reference of the same scheme.
"""

from .core import (
    DIVERGENCE_NORM,
    AlgorithmParams,
    Message,
    NodeState,
    QuadraticLocalSolver,
    RunTrace,
    SingularLocalSystemError,
    compute_messages,
    consensus_residual,
    initial_states,
    local_x_update,
    make_local_solver,
    node_states,
    relative_error,
    run,
    sync_round,
    trace_to_csv,
)
from .graph import (
    Graph,
    generate_connected_rgg,
    generate_rgg,
    is_connected,
    neighbors,
)
from .lossy import (
    MASK_CONTRACT,
    DeliveryMask,
    LossModel,
    LossSchedule,
    delivery_array,
    delivery_block,
    sample_mask,
)
from .problem import (
    IndefiniteHessianError,
    PartitionProblem,
    QuadraticLocalCost,
    Solution,
    evaluate_local,
    generate_instance,
    global_cost,
    problem_from_json,
    problem_to_json,
    solve_centralized,
)
from .reference import (
    ConstraintMatrices,
    ReferenceRound,
    ReferenceState,
    build_constraint_matrices,
    build_reference_round,
    check_equivalence,
    reference_initial_state,
    reference_step,
)
from .experiments import (
    MonteCarloTrace,
    SweepResult,
    detect_convergence,
    monte_carlo,
    monte_carlo_settings,
    monte_carlo_to_csv,
    stability_sweep,
    sweep_to_csv,
)

__version__ = "0.1.0"
