"""Node-local relaxed ADMM on partitioned problems, in synchronous rounds.

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
`sync_round`) are the readable specification of a round. `run` does not
iterate them: it runs a private stacked engine that performs the same
arithmetic on whole-graph arrays in the stacked layouts of `reference`
(which `node_states` reads as node-local states), and the tests check that
its error traces and recorded flat iterates are bitwise equal to a loop of
`sample_mask`, `sync_round` and `relative_error`; it builds no node-local
state. The engine is built once per problem and its rhos and advances a
batch of runs together, one row per (schedule, alpha, rho, stop tolerance);
`run` is a batch of one, a Monte Carlo in `experiments` hands it all its
runs, and a sweep its whole grid.
Its working set per round is bounded by two byte budgets, whatever the
batch size: large batches run in blocks of rows, and masks are drawn a
budgeted number of rounds at a time.
Every run starts from the all-zero `initial_states`, is scored every round
against the centralized optimum, and loses packets on exactly the graph's
directed edges. Every run of a batch is bitwise equal to the same run alone.
The engine is built per degree class: its index tables come from the
directed-edge arrays, and the local systems of all nodes of one degree are
factored at once, bitwise equal to one `QuadraticLocalSolver` per node.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ._record import Frozen, Record
from .graph import Graph, neighbors
from .lossy import DeliveryMask, LossSchedule, delivery_block
from .problem import PartitionProblem, QuadraticLocalCost, Solution, solve_centralized

DIVERGENCE_NORM = 1e8
_Z_CHECK_EVERY = 64
# The engine's working set: the uint64 hashes of one mask draw, and the
# state buffers of one block of rows, stay within these many bytes.
_MASK_BYTES = 1 << 17
_BLOCK_BYTES = 1 << 20


class SingularLocalSystemError(ValueError):
    """The node-local subproblem has no unique minimizer.

    With a positive penalty this can only happen on an isolated node whose
    own cost is rank deficient.
    """


class AlgorithmParams(Frozen):
    """Step size and penalty of the relaxed scheme.

    rho must be positive. alpha in (0, 1) is the provably convergent region;
    values outside it are accepted (stability sweeps probe them) and are
    reported by `guaranteed_convergent`.
    """

    def __init__(self, alpha: float, rho: float):
        if not rho > 0:
            raise ValueError(f"rho must be positive, got {rho}")
        self.__dict__.update(alpha=alpha, rho=rho)

    @property
    def guaranteed_convergent(self) -> bool:
        return 0.0 < self.alpha < 1.0


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


def _error_sum(x: np.ndarray, ref: np.ndarray, starts: np.ndarray, norms: np.ndarray):
    """Sum over node blocks of ||x block - ref block|| / ||ref block||.

    x and ref are flat in the `reference` x layout and block i starts at
    starts[i]; x may also hold one such flat iterate per row, which gives
    one sum per row. Both `relative_error` and the stacked engine compute
    the error here, so the two agree bitwise on equal iterates.
    """
    d = x - ref
    d *= d
    return (np.sqrt(np.add.reduceat(d, starts, axis=-1)) / norms).sum(axis=-1)


def _reference_blocks(
    sol: Solution, orders: tuple[tuple[int, ...], ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    ref, starts, norms = sol.stacked_blocks(orders)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ValueError(f"optimum block of node {zero[0]} has zero norm")
    return ref, starts, norms


def relative_error(states: list[NodeState], sol: Solution) -> float:
    """Sum over nodes of ||local iterate - optimum block|| / ||optimum block||.

    The per-node block stacks the node's own optimum with its neighbors'
    (ascending), matching the layout of the node's local iterate. Raises on a
    zero-norm reference block, for which the ratio is undefined.
    """
    orders = tuple(tuple(sorted(st.x_neigh)) for st in states)
    return float(_error_sum(stack_node_xs(states), *_reference_blocks(sol, orders)))


def consensus_residual(g: Graph, n: int, x: np.ndarray) -> float:
    """Largest disagreement between a node's variable and any copy a neighbor
    holds, for x flat in the `reference` layout (variables n wide)."""
    edges = np.array(g.directed_edges(), dtype=np.intp).reshape(-1, 2)
    if x.shape != (n * (len(edges) + g.node_count),):
        raise ValueError(f"x is not a flat stacked iterate of this graph at n = {n}")
    senders, receivers = edges.T
    blocks = x.reshape(-1, n)
    # directed edge e = (i, j) is e-th in sorted order, so i's copy of j is
    # block e + i + 1, and j's own variable heads node j's blocks
    copies = blocks[np.arange(len(edges)) + senders + 1]
    owns = blocks[np.searchsorted(senders, receivers) + receivers]
    return float(np.linalg.norm(owns - copies, axis=1).max(initial=0.0))


class RunTrace(Record):
    """Per-round record of one run.

    errors[t] is the relative error after round t+1; diverged marks early
    termination on a non-finite or runaway state. When states are recorded,
    xs[t] is x after round t+1 and z is z after the last round, flat in the
    `reference` layouts; otherwise both are None.
    """

    def __init__(
        self,
        errors: np.ndarray,
        diverged: bool,
        xs: np.ndarray | None = None,
        z: np.ndarray | None = None,
    ):
        self.errors = errors
        self.diverged = diverged
        self.xs = xs
        self.z = z

    @property
    def rounds_executed(self) -> int:
        return len(self.errors)


class _StackedEngine:
    """`sync_round` on whole-graph arrays, for quadratic costs; what `run` uses.

    Built once per problem and its rhos, and reusable across runs and batches.
    Every run starts from all-zero x and z and is scored against a reference
    solution, and a loss schedule must cover exactly `self.edges`. A run's
    flat buffer holds z in the `reference` layout, viewed as (edges, 2, n)
    with row e the slot pair of directed edge e, then an n-wide zero pad
    and, per node, the sum of its z_in_self, which heads the linear term of
    its x-update. x is flat in the `reference` layout too. A batch of runs
    stacks these buffers as rows.
    The gather tables are built from the directed-edge arrays (sender,
    reverse edge, rank among the receiver's neighbors), and each degree
    class is factored in one stacked cholesky and inv per rho.

    Every arithmetic step is the one `sync_round` takes, in the same order:
    the head sums add z_in_self in ascending neighbor order starting from
    zero, each node's x is `inv @ (base + linear)` (batched over the nodes of
    one degree; numpy hands each item of a stacked matmul to the same BLAS
    gemv as a single `inv @ v`), messages are 2 rho x - z, and a delivered
    edge relaxes to (1 - alpha) z + alpha q, with the row's own alpha and rho
    (elementwise products). Runs are therefore bitwise equal to the node-local
    rounds, which the tests check. A closed form x = c + K z would be faster
    to state but is not bitwise equal.
    """

    def __init__(self, p: PartitionProblem, rhos: Sequence[float]):
        for i, cost in enumerate(p.costs):
            if not isinstance(cost, QuadraticLocalCost):
                raise TypeError(
                    f"the stacked engine needs QuadraticLocalCost, node {i} has "
                    f"{type(cost).__name__}"
                )
        g, n = p.graph, p.dim
        self.n, self.rhos = n, tuple(dict.fromkeys(map(float, rhos)))
        self.edges = g.directed_edges()
        self.orders = tuple(tuple(neighbors(g, i)) for i in range(g.node_count))
        e_count, nodes = len(self.edges), np.arange(g.node_count)
        degs = [len(order) for order in self.orders]
        deg = np.array(degs, dtype=np.intp)
        # Edges are sender-major, so node j's out-edges are contiguous from
        # out_at[j], in its neighbor order: e = (j, i) is j's rank[e]-th.
        out_at = np.cumsum(deg) - deg
        sender = np.repeat(nodes, deg)
        rank = np.arange(e_count) - out_at[sender]
        # rev[e] is the reverse edge of e = (j, i), i's out-edge to j. The
        # senders into i come in ascending order, so the in-edges of i seen
        # so far give j's rank among i's neighbors. rev over node i's
        # out-edges therefore lists i's in-edges in its neighbor order.
        seen = out_at.tolist()
        rev = []
        for _, i in self.edges:
            rev.append(seen[i])
            seen[i] += 1
        rev = np.array(rev, dtype=np.intp)
        # x is a sequence of n-wide slots: node j's x_self in slot
        # out_at[j] + j, and its x_neigh copy on out-edge e in slot e + j + 1.
        self_slot = out_at + nodes
        edge_slot = np.arange(e_count) + sender + 1
        self.x_size = n * (e_count + g.node_count)
        self.z_shape = (e_count, 2, n)
        self.pad_at = pad = e_count * 2 * n
        self.head_at = head = pad + n
        self.row_size = head + n * g.node_count  # floats in one run's buffer
        col = np.arange(n)

        # head sums: the slabs of [0, z_in_self of each in-edge, zero pads up
        # to the largest degree] added in turn give the spec's 0 + z_1 + ...
        # (a pad adds +0.0, which leaves such a sum unchanged). numpy reduces
        # a non-innermost axis slab by slab, in order; it sums pairwise only
        # along the innermost axis, which here spans the nodes.
        terms = np.full((max(degs) + 1, g.node_count), pad, dtype=np.intp)
        terms[rank + 1, sender] = 2 * n * rev + n
        self.head_terms = terms[..., None] + col
        # where each slot's linear term starts: the node's head sum for
        # x_self, z_in_neigh of the in-edge for x_neigh
        slot_linear = np.empty(e_count + g.node_count, dtype=np.intp)
        slot_linear[self_slot] = head + n * nodes
        slot_linear[edge_slot] = 2 * n * rev
        # The x-update runs in degree-class-major order: the nodes of each
        # degree are contiguous, so one matmul solves a whole class. Each
        # class is also factored at once: numpy hands each item of a stacked
        # matmul, cholesky or inv to the same BLAS/LAPACK call as a single
        # matrix, so the inverses are bitwise those of QuadraticLocalSolver.
        # (Plain Python picks the members: an integer compare and nonzero
        # would touch numpy code that nothing else in a run does.)
        self.classes = []  # (inv stack per rho, span in class-major order, batch shape)
        class_slots, bases = [], []
        at = 0
        for d in sorted(set(degs)):
            members = [i for i, di in enumerate(degs) if di == d]
            costs = [p.costs[i] for i in members]
            k, m = len(members), n * (d + 1)
            scale = np.ones(m)
            scale[:n] = d
            hess, base = np.empty((k, m, m)), np.empty((k, m, 1))
            for r in sorted({c.rows for c in costs}):  # one stack per cost height
                sub = [s for s, c in enumerate(costs) if c.rows == r]
                blocks = [
                    [costs[s].a_self] + [costs[s].a_neigh[j] for j in self.orders[members[s]]]
                    for s in sub
                ]
                # each node's stacked_map, C-contiguous as np.hstack makes it
                maps = np.array(blocks).reshape(len(sub), d + 1, r, n).transpose(0, 2, 1, 3)
                maps = np.ascontiguousarray(maps).reshape(len(sub), r, m)
                q = np.array([costs[s].q for s in sub]).reshape(len(sub), r, r)
                b = np.array([costs[s].b for s in sub]).reshape(len(sub), r, 1)
                maps_t = maps.transpose(0, 2, 1)
                hess[sub] = 2.0 * (maps_t @ q @ maps)
                base[sub] = 2.0 * (maps_t @ (q @ b))
            invs = []
            for rho in self.rhos:
                system = hess + rho * np.diag(scale)
                try:
                    np.linalg.cholesky(system)
                except np.linalg.LinAlgError as exc:
                    raise SingularLocalSystemError(
                        "local subproblem is singular (isolated node with rank-deficient cost?)"
                    ) from exc
                invs.append(np.linalg.inv(system))
            self.classes.append((invs, slice(at, at + k * m), (k, m, 1)))
            bases.append(base)
            class_slots.append((self_slot[members][:, None] + np.arange(d + 1)).ravel())
            at += k * m
        self.base = np.concatenate(bases, axis=None)
        class_slots = np.concatenate(class_slots)
        self.linear = (slot_linear[class_slots, None] + col).ravel()
        from_slot = np.empty_like(class_slots)
        from_slot[class_slots] = np.arange(len(class_slots))
        self.from_class = (n * from_slot[:, None] + col).ravel()
        # message on e = (j, i): [2 rho x_self - z_in_self[i],
        # 2 rho x_neigh[i] - z_in_neigh[i]] of node j, whose z row is edge (i, j)
        self.message_x = n * np.stack([self_slot[sender], edge_slot], axis=1)[..., None] + col
        self.message_z = 2 * n * rev[:, None, None] + np.array([[n], [0]]) + col

    def run(
        self,
        runs: Sequence[tuple[LossSchedule | None, float, float, float | None]],
        k_max: int,
        solution: Solution,
        record_states: bool = False,
    ) -> list[RunTrace]:
        """`run` for every (schedule, alpha, rho, stop_tol) at once: one
        RunTrace each, in input order.

        Each run owns one row of a (runs, buffer) array, and a round does for
        all rows what it does for one: the same gathers, each item of the
        broadcast matmul goes to the same gemv, and the row's alpha and rho
        scale only its own q and z. Rows are kept in (rho, run) order, so
        each degree class takes one matmul per rho present against that
        rho's inverses. Every trace is therefore bitwise equal to that
        run's own `run`. rho must be one of the engine's and stop_tol None
        (no stop) or positive; every run is checked before any round. A run
        that diverges, or whose error falls below its stop_tol, is frozen on
        that round and its row dropped; errors are taken against solution.
        With record_states, each trace also holds its own copies of its x
        after every round and of its last z.

        The working set of a round is bounded whatever the batch size: rows
        whose buffers together exceed _BLOCK_BYTES run as consecutive blocks
        of rows that fit, and each `delivery_block` call draws as many rounds
        of the lossy rows' masks (1 to 64) as keep its uint64 hashes within
        _MASK_BYTES; a dropped row's part of a draw is dropped with it.
        Runs are independent and masks a pure function of (seed, round,
        edge), so neither bound changes a bit of any trace.
        """
        if k_max < 1:
            raise ValueError(f"k_max must be >= 1, got {k_max}")
        rho_at = {rho: i for i, rho in enumerate(self.rhos)}
        # per run: its schedule (None when it never loses a packet), alpha,
        # rho index and stop tolerance (-inf for none)
        settings = []
        for schedule, alpha, rho, tol in runs:
            if schedule is not None and schedule.edges != self.edges:
                raise ValueError("a loss schedule must cover exactly the graph's directed edges")
            if rho not in rho_at:
                raise ValueError(f"rho {rho} is not one of the engine's {self.rhos}")
            if tol is not None and not tol > 0:
                raise ValueError(f"stop_tol must be None or positive, got {tol}")
            lossy = schedule is not None and not schedule.loss_free
            settings.append((schedule if lossy else None, float(alpha), rho_at[rho],
                             -np.inf if tol is None else tol))
        reference = _reference_blocks(solution, self.orders)
        # Loss-free runs with one rho, alpha and stop tolerance follow one
        # trajectory: the first of them gets a row, the others share its result.
        first: dict = {}
        source = [first.setdefault((r,) if s[0] else s, r) for r, s in enumerate(settings)]
        # the runs that get a row, in (rho, run) order, in blocks of rows
        # whose buffers fit _BLOCK_BYTES
        ids = sorted(set(source), key=lambda r: (settings[r][2], r))
        size = max(1, _BLOCK_BYTES // (8 * self.row_size))
        ends = {}
        for at in range(0, len(ids), size):
            block = np.array(ids[at : at + size])
            ends.update(self._run_block(block, settings, k_max, reference, record_states))
        traces = []
        for r in source:
            errors, diverged, xs, z = ends[r]
            traces.append(RunTrace(errors=np.concatenate(errors), diverged=diverged,
                                   xs=None if xs is None else np.concatenate(xs),
                                   z=None if z is None else z.copy()))
        return traces

    def _run_block(self, ids, settings, k_max, reference, record_states) -> dict:
        """Run the runs ids, in (rho, run) order and with the settings `run`
        checked, from zero until each ends. Returns, per run, its error
        pieces, diverged flag, and with record_states its x pieces and last
        z (else None and None)."""
        errors: dict = {r: [] for r in ids}  # pieces per run
        xs: dict = {r: [] for r in ids}
        log, x_log = [], []  # the rows' errors and x, one entry a round
        ends: dict = {}
        buf = np.zeros((len(ids), self.row_size))
        tols = [settings[r][3] for r in ids]
        rows = 0  # rows the views below were made for
        # every row's delivery flag per z entry for rounds drawn_at ..
        # drawn_to - 1, (rows, rounds, edges * 2 n); loss-free rows deliver all
        gates, drawn_at, drawn_to = None, 0, 0
        lossy = np.array([settings[r][0] is not None for r in ids])
        for k in range(k_max):
            if rows != len(ids):
                # Views of the rows' state. A single row gets 1-D views, on
                # which numpy calls cost least; the axis -1 and -3 arguments
                # below address the same axes with or without the row axis.
                rows = len(ids)
                lead = (rows,) if rows > 1 else ()
                state = buf if rows > 1 else buf[0]
                z = state[..., : self.pad_at].reshape(lead + self.z_shape)
                heads = state[..., self.head_at :].reshape(lead + self.head_terms.shape[1:])
                v = np.empty(lead + (self.x_size,))
                xc = np.empty(lead + (self.x_size,))
                # (rho index, its rows) per rho present; the rows are in
                # (rho, run) order, and one rho takes the class views whole
                row_rho = [settings[r][2] for r in ids]
                present = sorted(set(row_rho))
                spans = [(i, slice(row_rho.index(i), row_rho.index(i) + row_rho.count(i)))
                         for i in present] if len(present) > 1 else [(present[0], ...)]
                solves = []
                for invs, at, shape in self.classes:
                    v_c, x_c = v[..., at].reshape(lead + shape), xc[..., at].reshape(lead + shape)
                    solves += [(invs[i], v_c[rs], x_c[rs]) for i, rs in spans]
                any_lossy = bool(lossy.any())
                relaxed = np.empty_like(z)
                # each row's alpha and rho scale its own q and z (shared ones
                # stay scalars, on which numpy calls cost least)
                alpha = [settings[r][1] for r in ids]
                alpha = np.reshape(alpha, (-1, 1, 1, 1)) if len(set(alpha)) > 1 else alpha[0]
                keep = 1.0 - alpha
                two_rho = [2.0 * self.rhos[i] for i in row_rho]
                two_rho = np.reshape(two_rho, (-1, 1, 1, 1)) if len(present) > 1 else two_rho[0]
            np.add.reduce(state.take(self.head_terms, axis=-1), axis=-3, out=heads)
            state.take(self.linear, axis=-1, out=v)
            v += self.base
            for inv, v_c, x_c in solves:
                np.matmul(inv, v_c, out=x_c)
            x = xc.take(self.from_class, axis=-1)
            q = x.take(self.message_x, axis=-1)
            q *= two_rho
            q -= state.take(self.message_z, axis=-1)
            q *= alpha
            if any_lossy:
                if k == drawn_to:
                    # as many rounds as keep the draw's uint64 hashes within
                    # _MASK_BYTES, and at most 64, which bounds the draws a
                    # row that stops early wastes
                    schedules = [settings[r][0] for r in ids[lossy]]
                    hashes = 8 * len(schedules) * len(self.edges)
                    drawn_at = k
                    drawn_to = k + min(64, k_max - k, max(1, _MASK_BYTES // hashes))
                    drawn = delivery_block(schedules, k, drawn_to - k)
                    # one flag per z entry: copyto broadcasting an (edges, 1,
                    # 1) mask is about twice as slow as with a full-size one
                    drawn = np.repeat(drawn, 2 * self.n, axis=-1)
                    if lossy.all():
                        gates = drawn
                    else:
                        gates = np.ones((rows,) + drawn.shape[1:], dtype=bool)
                        gates[lossy] = drawn
                np.multiply(z, keep, out=relaxed)
                relaxed += q
                np.copyto(z, relaxed, where=gates[:, k - drawn_at].reshape(z.shape))
            else:
                z *= keep
                z += q
            x_rows = x.reshape(rows, -1)
            if record_states:
                x_log.append(x_rows)  # x is a new array every round
            err = _error_sum(x, *reference).reshape(rows)
            log.append(err)
            # A cheap test first; the row-by-row checks run only on rounds on
            # which some run may end. NaN fails every comparison.
            check_z = (k + 1) % _Z_CHECK_EVERY == 0 and z.size
            if (
                k + 1 < k_max
                and not check_z
                and np.abs(x).max() < DIVERGENCE_NORM
                and all(t <= e < np.inf for e, t in zip(err.tolist(), tols))
            ):
                continue
            ok = (np.abs(x_rows).max(axis=1) < DIVERGENCE_NORM) & (err < np.inf)
            if check_z:
                ok &= np.abs(z).reshape(rows, -1).max(axis=1) < DIVERGENCE_NORM
            done = ~ok | (err < np.array(tols))
            if k + 1 == k_max:
                done[:] = True
            if not done.any():
                continue
            for pieces, entries in ((errors, log), (xs, x_log)):
                if entries:
                    block = np.array(entries)
                    entries.clear()
                    for row, r in enumerate(ids):
                        pieces[r].append(block[:, row])
            z_rows = z.reshape(rows, -1)
            for row in np.flatnonzero(done):
                r = ids[row]
                last = (xs[r], z_rows[row]) if record_states else (None, None)
                ends[r] = (errors[r], not ok[row], *last)
            live = ~done
            if gates is not None:
                gates = gates[live]
            buf, ids, lossy = buf[live], ids[live], lossy[live]
            tols = [t for t, alive in zip(tols, live) if alive]
            if not ids.size:
                break
        return ends


def run(
    p: PartitionProblem,
    params: AlgorithmParams,
    schedule: LossSchedule | None,
    k_max: int,
    solution: Solution | None = None,
    stop_tol: float | None = None,
    record_states: bool = False,
) -> RunTrace:
    """Iterate synchronous rounds from the all-zero start and record the trajectory.

    schedule=None means every packet is delivered; otherwise the schedule
    covers exactly the graph's directed edges (ValueError otherwise). Errors
    are taken against solution, by default `solve_centralized(p)`. The trace
    is a pure function of the arguments. A non-finite coordinate or a state
    magnitude beyond DIVERGENCE_NORM stops the run with the diverged flag
    instead of raising (|x| and the error are checked every round, |z| every
    _Z_CHECK_EVERY rounds). When stop_tol is given, the run ends at the
    first round whose relative error falls below it. With record_states the
    trace also holds x after every round and the last z (see `RunTrace`).

    The rounds run on the stacked engine as a batch of one, which needs
    QuadraticLocalCost costs (TypeError otherwise) and is bitwise equal to
    iterating `sync_round` from `initial_states`.
    """
    engine = _StackedEngine(p, (params.rho,))
    if solution is None:
        solution = solve_centralized(p)
    row = (schedule, params.alpha, params.rho, stop_tol)
    (trace,) = engine.run([row], k_max, solution, record_states=record_states)
    return trace


def trace_to_csv(trace: RunTrace) -> str:
    """CSV rows k, rel_error, diverged.

    The diverged column is 1 only on the terminal row of a diverged run.
    """
    lines = ["k,rel_error,diverged"]
    for t in range(trace.rounds_executed):
        div = 1 if (trace.diverged and t == trace.rounds_executed - 1) else 0
        lines.append(f"{t},{float(trace.errors[t])!r},{div}")
    return "\n".join(lines) + "\n"
