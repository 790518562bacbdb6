"""Centralized stacked-vector form of the algorithm, used as an oracle.

The node-local scheme is a rearrangement of a four-iterate relaxed splitting
on stacked vectors: per round, with P the permutation pairing the two copies
each edge keeps of the same variable and A the map pinning local copies to
edge slots,

    y = (I + P) z / (2 rho)
    w = (I - P) z / 2
    x = argmin { f(x) + (Pz)' A x + (rho/2) ||A x||^2 }
    z <- (1 - alpha) z - alpha P z - 2 alpha rho A x.

This module builds A and P explicitly and, once per (problem, params), a
`ReferenceRound` holding the inverse of the x-argmin system
2 H_f + rho A'A and the linear term 2 g_f; a step is then dense products
with P, that inverse and A. It also exposes a lockstep comparison against
the node-local rounds. It is deliberately plain dense linear algebra: it is
the oracle, not the performance path.

The stacked layouts, which the `engine` shares and `core.node_states`
reads as node-local states: x is the node blocks [x_self; x_neigh[j] for j
ascending] in node order. y, w and z hold one 2n-wide slot pair per directed
edge (i, j), in `Graph.directed_edges()` order: the block for i's variable,
then the block for j's. Receiver j holds them as z_in_neigh[i] and
z_in_self[i].
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from ._record import Frozen, Record
from .core import AlgorithmParams, make_local_solver, node_states, stack_node_xs, sync_round
from .graph import Graph, neighbors
from .lossy import DeliveryMask, LossModel, LossSchedule, sample_mask
from .problem import PartitionProblem


class ConstraintMatrices(Record):
    """Constraint map a, slot permutation p, and the index bookkeeping.

    slot_base[(i, j)] is the offset of the (i owns, neighbor j) slot pair:
    the own-variable block starts there, the neighbor-variable block n later.
    x_base[i] is the offset of node i's stacked copy block.
    """

    def __init__(
        self,
        a: np.ndarray,
        p: np.ndarray,
        slot_base: dict[tuple[int, int], int],
        x_base: list[int],
        n: int,
    ):
        self.a = a
        self.p = p
        self.slot_base = slot_base
        self.x_base = x_base
        self.n = n

    @property
    def y_dim(self) -> int:
        return self.a.shape[0]

    @property
    def x_dim(self) -> int:
        return self.a.shape[1]


def build_constraint_matrices(g: Graph, n: int) -> ConstraintMatrices:
    """A and P for graph g with per-node variable dimension n.

    Each slot row of A holds a single -I block: the own-variable slot of
    (i, j) pins node i's own variable (which therefore appears in deg(i)
    slots), the neighbor slot pins node i's copy of j's variable. P swaps
    the own slot of (i, j) with the neighbor slot of (j, i), i.e. the two
    copies of the same underlying variable on the two ends of an edge.
    """
    *x_base, x_dim = accumulate((n * (g.degree(i) + 1) for i in range(g.node_count)), initial=0)
    slot_base = {e: 2 * n * k for k, e in enumerate(g.directed_edges())}
    y_dim = 2 * n * len(slot_base)
    a = np.zeros((y_dim, x_dim))
    p = np.zeros((y_dim, y_dim))
    eye = np.eye(n)
    for i in range(g.node_count):
        nbrs = neighbors(g, i)
        for t, j in enumerate(nbrs):
            own = slot_base[(i, j)]
            nbr = own + n
            a[own : own + n, x_base[i] : x_base[i] + n] = -eye
            col = x_base[i] + n * (t + 1)
            a[nbr : nbr + n, col : col + n] = -eye
            mirror = slot_base[(j, i)]
            p[own : own + n, mirror + n : mirror + 2 * n] = eye
            p[nbr : nbr + n, mirror : mirror + n] = eye
    return ConstraintMatrices(a=a, p=p, slot_base=slot_base, x_base=x_base, n=n)


class ReferenceState(Record):
    """Stacked iterates. After a step, x/y/w belong to the round the step
    consumed and z is the next round's auxiliary vector."""

    def __init__(self, x: np.ndarray, y: np.ndarray, w: np.ndarray, z: np.ndarray):
        self.x = x
        self.y = y
        self.w = w
        self.z = z


def reference_initial_state(cm: ConstraintMatrices, z0: np.ndarray) -> ReferenceState:
    if z0.shape != (cm.y_dim,):
        raise ValueError(f"z0 must have shape ({cm.y_dim},), got {z0.shape}")
    return ReferenceState(x=np.zeros(cm.x_dim), y=np.zeros(cm.y_dim), w=np.zeros(cm.y_dim), z=z0.copy())


class ReferenceRound(Frozen):
    """One stacked round for a fixed (problem, params), built once.

    x_map is the inverse of the x-argmin system 2 H_f + rho A'A and lin the
    linear term 2 g_f.
    """

    def __init__(
        self, cm: ConstraintMatrices, params: AlgorithmParams, x_map: np.ndarray, lin: np.ndarray
    ):
        self.__dict__.update(cm=cm, params=params, x_map=x_map, lin=lin)


def build_reference_round(
    p: PartitionProblem, cm: ConstraintMatrices, params: AlgorithmParams
) -> ReferenceRound:
    """Assemble and invert the x-argmin system of p under params.

    H_f is block diagonal over the nodes' stacked copy vectors and A'A is
    diagonal (each row of A pins one coordinate: the node degree on
    own-variable coordinates, one elsewhere), so the system is inverted
    block by block. Raises ValueError when a block is singular.
    """
    ata = np.einsum("ij,ij->j", cm.a, cm.a)
    x_map = np.zeros((cm.x_dim, cm.x_dim))
    lin = np.zeros(cm.x_dim)
    for i, cost in enumerate(p.costs):
        m = cost.stacked_map()
        blk = slice(cm.x_base[i], cm.x_base[i] + m.shape[1])
        mtq = m.T @ cost.q
        try:
            x_map[blk, blk] = np.linalg.inv(2.0 * (mtq @ m) + params.rho * np.diag(ata[blk]))
        except np.linalg.LinAlgError as exc:
            raise ValueError("stacked x-update system is singular") from exc
        lin[blk] = 2.0 * (mtq @ cost.b)
    return ReferenceRound(cm=cm, params=params, x_map=x_map, lin=lin)


def reference_step(
    state: ReferenceState, rnd: ReferenceRound, delivery: DeliveryMask | None = None
) -> ReferenceState:
    """One four-iterate round on stacked vectors: P z, one product with the
    built inverse, A x.

    x = (2 H_f + rho A'A)^-1 (2 g_f - A'(Pz)). With a delivery mask, a lost
    directed edge j -> i keeps the slot pair at slot_base[(j, i)] (the
    auxiliaries node i holds for the edge from j) at its old value; without
    one every slot is updated.
    """
    cm, alpha, rho = rnd.cm, rnd.params.alpha, rnd.params.rho
    z = state.z
    pz = cm.p @ z
    y = (z + pz) / (2.0 * rho)
    w = (z - pz) / 2.0
    x = rnd.x_map @ (rnd.lin - cm.a.T @ pz)
    z_next = (1.0 - alpha) * z - alpha * pz - 2.0 * alpha * rho * (cm.a @ x)
    if delivery is not None:
        # the slot pairs follow directed-edge order, each 2n wide
        delivered = np.fromiter(map(delivery.delivered.__getitem__, cm.slot_base), bool)
        z_next = np.where(np.repeat(~delivered, 2 * cm.n), z, z_next)
    return ReferenceState(x=x, y=y, w=w, z=z_next)


def check_equivalence(
    p: PartitionProblem,
    params: AlgorithmParams,
    k_max: int,
    seed: int,
    loss: float | LossModel | None = None,
) -> float:
    """Max coordinate deviation between the stacked and node-local trajectories.

    Both start from the same Gaussian z (the node-local side reads its slots
    out of the stacked vector) and run in lockstep for k_max rounds,
    loss-free by default. With `loss` (a uniform probability or a LossModel)
    both sides get the same delivery mask each round, drawn from a schedule
    seeded with `seed`. Agreement to numerical-identity level certifies that
    the node-local rearrangement reproduces the stacked scheme exactly.
    """
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    cm = build_constraint_matrices(p.graph, p.dim)
    z0 = np.random.default_rng(seed).standard_normal(cm.y_dim)
    ref = reference_initial_state(cm, z0)
    states = node_states(p.graph, p.dim, np.zeros(cm.x_dim), z0)
    solvers = [make_local_solver(c, params) for c in p.costs]
    rnd = build_reference_round(p, cm, params)
    schedule = None
    if loss is not None:
        model = loss if isinstance(loss, LossModel) else LossModel.uniform(p.graph, loss)
        schedule = LossSchedule(model=model, seed=seed)
    complete = DeliveryMask.complete(p.graph)
    max_dev = 0.0
    for k in range(k_max):
        mask = None if schedule is None else sample_mask(schedule, k)
        ref = reference_step(ref, rnd, mask)
        states = sync_round(states, p, params, complete if mask is None else mask, solvers)
        dev = float(np.max(np.abs(ref.x - stack_node_xs(states)))) if cm.x_dim else 0.0
        if dev > max_dev:
            max_dev = dev
    return max_dev
