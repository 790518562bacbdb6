"""Node-local relaxed ADMM on partitioned problems, in synchronous rounds:
the readable specification that the stacked engine in `engine` is checked
against.

Every round has three barrier-separated phases, in this order:

1. each node minimizes its local cost plus the linear and quadratic coupling
   terms built from its stored auxiliary variables (the x-update),
2. each node computes, per neighbor, the pair of temporary vectors
   q = -z + 2*rho*x and transmits them (the message phase),
3. each node relaxes its stored auxiliary variables toward the received
   q-vectors, z <- (1-alpha)*z + alpha*q, skipping edges whose packet was
   lost this round (the gated z-update).

Loss realizations are pre-drawn by the schedule, never inside the round, so a
sequential sweep over nodes is bitwise identical to any concurrent execution.
Local costs are `QuadraticLocalCost`s, so every x-update is a closed-form
solve against a system factored once; any other cost is a TypeError.

The node-local functions (`local_x_update`, `compute_messages`,
`sync_round`) state a round; `node_states` reads the engine's stacked x and
z as node-local states, and `relative_error` scores them against reference
blocks it builds from their own neighbor sets, sharing with the engine only
the error sum and the block norms, which must agree bitwise.
`QuadraticLocalSolver` builds each node's system from the node's cost
alone, not from the problem's shared `local_blocks`, so that it stays an
independent check of the engine's set-up. `run`, `trace_to_csv`,
`AlgorithmParams` and `SingularLocalSystemError` live in `engine` and are
importable from here too.
"""

from __future__ import annotations

import numpy as np

from ._record import Frozen, Record
# run and trace_to_csv are not used here: `core.run` and `core.trace_to_csv`
# keep working for callers that still import them from this module
from .engine import (
    AlgorithmParams,
    SingularLocalSystemError,
    _block_norms,
    _error_sum,
    run,
    trace_to_csv,
)
from .graph import Graph, neighbors, stacked_slots
from .lossy import DeliveryMask
from .problem import PartitionProblem, QuadraticLocalCost, Solution


class NodeState(Record):
    """What one node stores: 3*deg + 1 vectors.

    x_self is the node's own iterate, x_neigh its local copies of each
    neighbor's variable. z_in_self[j] is the auxiliary vector about the
    node's own variable attached to the edge from j, z_in_neigh[j] the one
    about neighbor j's variable on that same edge.
    """

    def __init__(
        self,
        x_self: np.ndarray,
        x_neigh: dict[int, np.ndarray],
        z_in_self: dict[int, np.ndarray],
        z_in_neigh: dict[int, np.ndarray],
    ):
        self.x_self = x_self
        self.x_neigh = x_neigh
        self.z_in_self = z_in_self
        self.z_in_neigh = z_in_neigh
        if not (x_neigh.keys() == z_in_self.keys() == z_in_neigh.keys()):
            raise ValueError("x_neigh, z_in_self and z_in_neigh must share one neighbor set")

    def stacked_x(self) -> np.ndarray:
        """[x_self; x_neigh[j] for j ascending], the node's full local iterate."""
        return np.concatenate([self.x_self] + [self.x_neigh[j] for j in sorted(self.x_neigh)])


class Message(Frozen):
    """The two vectors one node sends a neighbor each round.

    q_about_sender updates the receiver's copy about the sender's variable,
    q_about_receiver the receiver's own-variable auxiliary.
    """

    def __init__(
        self, sender: int, receiver: int, q_about_sender: np.ndarray, q_about_receiver: np.ndarray
    ):
        self.__dict__.update(
            sender=sender,
            receiver=receiver,
            q_about_sender=q_about_sender,
            q_about_receiver=q_about_receiver,
        )


class QuadraticLocalSolver:
    """Closed-form minimizer of the per-round node objective for quadratic costs.

    Minimizes f(v) - linear' v + (rho/2) v' D v over the stacked local vector
    v = [x_self; x_neigh...], where D weights the own-variable block by the
    node degree and each neighbor block by one. The system matrix is constant
    across rounds, so it is factored once here and each round costs a single
    matrix-vector product.
    """

    def __init__(self, cost: QuadraticLocalCost, rho: float):
        n = cost.dim
        order = cost.neighbor_order()
        deg = len(order)
        m = cost.stacked_map()
        d = np.ones(n * (deg + 1))
        d[:n] = deg
        system = 2.0 * (m.T @ cost.q @ m) + rho * np.diag(d)
        try:
            np.linalg.cholesky(system)
        except np.linalg.LinAlgError as exc:
            raise SingularLocalSystemError(
                "local subproblem is singular (isolated node with rank-deficient cost?)"
            ) from exc
        self._inv = np.linalg.inv(system)
        self._base = 2.0 * (m.T @ (cost.q @ cost.b))
        self.neighbor_order = order
        self.dim = n

    def minimize(self, linear: np.ndarray) -> np.ndarray:
        return self._inv @ (self._base + linear)


def make_local_solver(cost: QuadraticLocalCost, params: AlgorithmParams) -> QuadraticLocalSolver:
    """Solver for one node's per-round subproblem (TypeError unless quadratic)."""
    if not isinstance(cost, QuadraticLocalCost):
        raise TypeError(f"no local solver for cost of type {type(cost).__name__}")
    return QuadraticLocalSolver(cost, params.rho)


def _stacked_linear(state: NodeState, order: list[int], n: int) -> np.ndarray:
    """Linear coefficients of the x-update: [sum_j z_in_self[j]; z_in_neigh[j]...]."""
    out = np.zeros(n * (len(order) + 1))
    head = out[:n]
    for j in order:
        head += state.z_in_self[j]
    for t, j in enumerate(order):
        out[n * (t + 1) : n * (t + 2)] = state.z_in_neigh[j]
    return out


def local_x_update(
    cost, state: NodeState, params: AlgorithmParams, solver=None
) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """One node's x-update: the unique minimizer of its round objective.

    Returns the new (x_self, x_neigh); the stored z variables are read only.
    Passing a prebuilt solver skips refactoring the constant system matrix.
    """
    if solver is None:
        solver = make_local_solver(cost, params)
    order = solver.neighbor_order
    n = solver.dim
    v = solver.minimize(_stacked_linear(state, order, n))
    x_self = v[:n]
    x_neigh = {j: v[n * (t + 1) : n * (t + 2)] for t, j in enumerate(order)}
    return x_self, x_neigh


def compute_messages(state: NodeState, params: AlgorithmParams, i: int) -> list[Message]:
    """The q-vector pairs node i sends this round, one message per neighbor."""
    two_rho = 2.0 * params.rho
    q_self_base = two_rho * state.x_self
    msgs = []
    for j in sorted(state.x_neigh):
        msgs.append(
            Message(
                sender=i,
                receiver=j,
                q_about_sender=q_self_base - state.z_in_self[j],
                q_about_receiver=two_rho * state.x_neigh[j] - state.z_in_neigh[j],
            )
        )
    return msgs


def sync_round(
    states: list[NodeState],
    p: PartitionProblem,
    params: AlgorithmParams,
    delivery: DeliveryMask,
    solvers: list | None = None,
) -> list[NodeState]:
    """One synchronous round: all x-updates, then all messages, then all z-updates.

    Node i's result depends only on its own state and on messages from its
    neighbors. states must hold one state per node, each keyed by exactly
    the node's graph neighbors (ValueError otherwise), and are never mutated.
    """
    g = p.graph
    n_nodes = g.node_count
    if len(states) != n_nodes:
        raise ValueError(f"expected {n_nodes} node states, got {len(states)}")
    for i, st in enumerate(states):
        if st.x_neigh.keys() != set(neighbors(g, i)):
            raise ValueError(f"state {i} does not hold exactly node {i}'s graph neighbors")
    for e in g.directed_edges():
        if e not in delivery.delivered:
            raise ValueError(f"delivery mask missing directed edge {e}")
    if solvers is None:
        solvers = [make_local_solver(c, params) for c in p.costs]

    mid = []
    for i, st in enumerate(states):
        x_self, x_neigh = local_x_update(p.costs[i], st, params, solver=solvers[i])
        mid.append(
            NodeState(
                x_self=x_self,
                x_neigh=x_neigh,
                z_in_self=st.z_in_self,
                z_in_neigh=st.z_in_neigh,
            )
        )

    inbox: list[list[Message]] = [[] for _ in range(n_nodes)]
    for i, st in enumerate(mid):
        for m in compute_messages(st, params, i):
            inbox[m.receiver].append(m)

    alpha, keep = params.alpha, 1.0 - params.alpha
    out = []
    for i, st in enumerate(mid):
        # one copy of the node's z dicts per round, relaxed message by message
        z_self, z_neigh = dict(st.z_in_self), dict(st.z_in_neigh)
        for m in inbox[i]:
            j = m.sender
            if delivery.delivered[(j, i)]:
                z_self[j] = keep * z_self[j] + alpha * m.q_about_receiver
                z_neigh[j] = keep * z_neigh[j] + alpha * m.q_about_sender
        out.append(NodeState(st.x_self, st.x_neigh, z_self, z_neigh))
    return out


def node_states(g: Graph, n: int, x: np.ndarray, z: np.ndarray) -> list[NodeState]:
    """The node-local states of graph g (variables n wide) that hold the
    stacked x and z, in the layouts the `reference` module states.

    The states hold views of x and z, not copies.
    """
    edges = g.directed_edges()
    if x.shape != (n * (len(edges) + g.node_count),) or z.shape != (2 * n * len(edges),):
        raise ValueError(f"x and z are not flat stacked iterates of this graph at n = {n}")
    pair = dict(zip(edges, z.reshape(-1, 2, n)))
    states, at = [], 0
    for i in range(g.node_count):
        order = neighbors(g, i)
        v = x[at : at + n * (len(order) + 1)]
        at += v.size
        states.append(
            NodeState(
                x_self=v[:n],
                x_neigh=dict(zip(order, v[n:].reshape(-1, n))),
                z_in_self={j: pair[(j, i)][1] for j in order},
                z_in_neigh={j: pair[(j, i)][0] for j in order},
            )
        )
    return states


def initial_states(p: PartitionProblem) -> list[NodeState]:
    """All-zero x and z, the canonical starting point."""
    g, n, e = p.graph, p.dim, len(p.graph.directed_edges())
    return node_states(g, n, np.zeros(n * (e + g.node_count)), np.zeros(2 * n * e))


def stack_node_xs(states: list[NodeState]) -> np.ndarray:
    """Every node's local iterate concatenated, in the `reference` x layout."""
    return np.concatenate([st.stacked_x() for st in states])


def relative_error(states: list[NodeState], sol: Solution) -> float:
    """Sum over nodes of ||local iterate - optimum block|| / ||optimum block||.

    The per-node block stacks the node's own optimum with its neighbors'
    (ascending), matching the layout of the node's local iterate. Raises on a
    zero-norm reference block, for which the ratio is undefined.
    """
    refs = [np.concatenate([sol.x_star[i]] + [sol.x_star[j] for j in sorted(st.x_neigh)])
            for i, st in enumerate(states)]
    ref, starts = np.concatenate(refs), np.cumsum([0] + [len(block) for block in refs[:-1]])
    return float(_error_sum(stack_node_xs(states), ref, starts, _block_norms(ref, starts)))


def consensus_residual(g: Graph, n: int, x: np.ndarray) -> float:
    """Largest disagreement between a node's variable and any copy a neighbor
    holds, for x flat in the `reference` layout (variables n wide)."""
    slots = stacked_slots(g)
    if x.shape != (n * len(slots.owner),):
        raise ValueError(f"x is not a flat stacked iterate of this graph at n = {n}")
    blocks = x.reshape(-1, n)
    owns, copies = blocks[slots.self_slot[slots.receiver]], blocks[slots.edge_slot]
    return float(np.linalg.norm(owns - copies, axis=1).max(initial=0.0))
