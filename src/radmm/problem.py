"""Partitioned quadratic costs, random instances, and the centralized optimum.

Each node i carries a cost of the form

    ||A_self x_i + sum_j A_neigh[j] x_j - b||^2_Q,    ||v||^2_M = v' M v,

so the global objective is a positive (semi)definite quadratic in the stacked
per-node variables. Instances are generated so the global Hessian is strictly
positive definite, which makes the optimizer unique and relative-error metrics
well defined.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from itertools import chain

import numpy as np

from ._record import Frozen, Record
from .graph import Graph, neighbors, stacked_slots

SYMMETRY_TOL = 1e-12
# draws `generate_instance` makes before giving up on a positive-definite Hessian
_MAX_RESAMPLES = 50
# Hessian entries `assemble_normal_equations` scatters per `np.add.at` call, so
# that the concatenated index and value arrays of a call stay small
_SCATTER_CHUNK = 1 << 12


class IndefiniteHessianError(ValueError):
    """The assembled global Hessian is not positive definite."""


def positive_definite(a: np.ndarray) -> bool:
    """Whether each matrix of a (..., m, m) has a finite Cholesky factor."""
    try:
        return bool(np.isfinite(np.linalg.cholesky(a)).all())
    except np.linalg.LinAlgError:
        return False


def check_weights(q: np.ndarray) -> None:
    """Raise ValueError unless every matrix of the stack q (k, r, r) is
    symmetric within SYMMETRY_TOL and positive definite; the message names
    the first matrix that fails, symmetry checked first."""
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which fails both tests
        asym = np.abs(q - q.swapaxes(1, 2)).max(axis=(1, 2), initial=0.0)
    bad = np.flatnonzero(asym > SYMMETRY_TOL)
    if bad.size:
        raise ValueError(f"q must be symmetric within {SYMMETRY_TOL}, asymmetry {asym[bad[0]]}")
    if not positive_definite(q):
        raise ValueError("q must be positive definite")


class QuadraticLocalCost(Record):
    """One node's quadratic cost data.

    a_self maps the node's own variable, a_neigh[j] the copy of neighbor j's
    variable, b is the target vector and q the positive-definite weight.
    Only the shapes are checked here; `PartitionProblem` checks the weights
    and marks the arrays read-only.
    """

    def __init__(
        self, a_self: np.ndarray, a_neigh: dict[int, np.ndarray], b: np.ndarray, q: np.ndarray
    ):
        self.a_self = a_self
        self.a_neigh = a_neigh
        self.b = b
        self.q = q
        r, n = a_self.shape
        if b.shape != (r,):
            raise ValueError(f"b must have shape ({r},), got {b.shape}")
        if q.shape != (r, r):
            raise ValueError(f"q must have shape ({r}, {r}), got {q.shape}")
        for j, a in a_neigh.items():
            if a.shape != (r, n):
                raise ValueError(f"a_neigh[{j}] must have shape ({r}, {n}), got {a.shape}")

    @property
    def rows(self) -> int:
        return self.a_self.shape[0]

    @property
    def dim(self) -> int:
        return self.a_self.shape[1]

    def neighbor_order(self) -> list[int]:
        return sorted(self.a_neigh)

    def stacked_map(self) -> np.ndarray:
        """Horizontal stack [a_self, a_neigh[j1], a_neigh[j2], ...], neighbors ascending."""
        blocks = [self.a_self] + [self.a_neigh[j] for j in self.neighbor_order()]
        return np.hstack(blocks)


class PartitionProblem(Frozen):
    """A graph plus one local cost per node, all with variable dimension `dim`.

    Read-only, and the one place a problem is checked, however it was built:
    one QuadraticLocalCost per node (TypeError otherwise), of dimension dim,
    keyed by the node's neighbors, with finite entries only (else a
    ValueError that names the first node with another), and the q of each
    cost height checked in one stacked `check_weights` call. `costs` is a
    tuple, and once every check has passed every cost array is marked
    read-only, so the checked data cannot change later.
    """

    def __init__(self, graph: Graph, costs: Sequence[QuadraticLocalCost], dim: int):
        costs = tuple(costs)
        if len(costs) != graph.node_count:
            raise ValueError("one cost per node required")
        heights: dict[int, list[np.ndarray]] = {}  # in order of first appearance
        arrays = []  # every cost array, marked read-only once every check passed
        for i, cost in enumerate(costs):
            if not isinstance(cost, QuadraticLocalCost):
                raise TypeError(f"costs must be QuadraticLocalCost, node {i} has "
                                f"{type(cost).__name__}")
            if cost.dim != dim:
                raise ValueError(f"cost {i} has dim {cost.dim}, expected {dim}")
            if set(cost.a_neigh) != set(neighbors(graph, i)):
                raise ValueError(
                    f"cost {i} neighbor keys {sorted(cost.a_neigh)} do not match "
                    f"graph neighbors {neighbors(graph, i)}"
                )
            own = (cost.a_self, *cost.a_neigh.values(), cost.b, cost.q)
            if not np.isfinite(np.concatenate(own, axis=None)).all():  # one test a node
                raise ValueError(f"cost {i} holds a non-finite entry")
            heights.setdefault(cost.rows, []).append(cost.q)
            arrays += own
        for qs in heights.values():
            check_weights(np.array(qs))
        for a in arrays:
            a.setflags(write=False)
        self.__dict__.update(graph=graph, costs=costs, dim=dim)

    def local_blocks(self) -> list[tuple[list[int], np.ndarray, np.ndarray, np.ndarray]]:
        """Per (degree d, cost height r), ascending: the nodes of that degree
        and height ascending and, stacked over them, the Hessian blocks
        2 (M'Q) M (k, m, m), the linear blocks 2 (M'Q) b (k, m) of the normal
        equations and the x-update bases 2 M'(Q b) (k, m), with M a node's
        `stacked_map` (m = dim (d + 1) columns), Q its weight and b its
        target. Each group takes one stacked product per factor, and numpy
        hands each item of a stacked matmul to the same BLAS call as a single
        matrix, so every block is bitwise the per-node product.

        `assemble_normal_equations` and the stacked engine both read them;
        the engine computes them once and hands them to its solve.
        """
        n, orders = self.dim, [neighbors(self.graph, i) for i in range(self.graph.node_count)]
        groups: dict[tuple[int, int], list[int]] = {}
        for i, cost in enumerate(self.costs):
            groups.setdefault((len(orders[i]), cost.rows), []).append(i)
        blocks = []
        for (d, r), nodes in sorted(groups.items()):
            k, m, costs = len(nodes), n * (d + 1), [self.costs[i] for i in nodes]
            maps = np.array([[c.a_self] + [c.a_neigh[j] for j in orders[i]]
                             for i, c in zip(nodes, costs)])
            # each node's stacked_map, C-contiguous as np.hstack makes it
            maps = maps.reshape(k, d + 1, r, n).transpose(0, 2, 1, 3)
            maps = np.ascontiguousarray(maps).reshape(k, r, m)
            q = np.array([c.q for c in costs]).reshape(k, r, r)
            b = np.array([c.b for c in costs]).reshape(k, r, 1)
            maps_t = maps.transpose(0, 2, 1)
            mtq = maps_t @ q
            stacks = mtq @ maps, (mtq @ b)[..., 0], (maps_t @ (q @ b))[..., 0]
            for stack in stacks:
                stack *= 2.0  # in place: no second full-size temporary
            blocks.append((nodes, *stacks))
        return blocks


class Solution(Record):
    """Per-node optimizer blocks; `global_cost(p, x_star)` is the optimal value.

    Two solutions are equal when their blocks are.
    """

    def __init__(self, x_star: list[np.ndarray]):
        self.x_star = x_star

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return len(self.x_star) == len(other.x_star) and all(
            map(np.array_equal, self.x_star, other.x_star)
        )


def evaluate_local(
    cost: QuadraticLocalCost, x_self: np.ndarray, x_neigh: dict[int, np.ndarray]
) -> float:
    """Evaluate one node's cost at its own variable and its neighbors' values."""
    if x_self.shape != (cost.dim,):
        raise ValueError(f"x_self must have shape ({cost.dim},), got {x_self.shape}")
    v = cost.a_self @ x_self - cost.b
    for j, a in cost.a_neigh.items():
        if j not in x_neigh:
            raise ValueError(f"missing neighbor vector for node {j}")
        if x_neigh[j].shape != (cost.dim,):
            raise ValueError(f"x_neigh[{j}] must have shape ({cost.dim},)")
        v = v + a @ x_neigh[j]
    return float(v @ cost.q @ v)


def global_cost(p: PartitionProblem, x: list[np.ndarray]) -> float:
    """Sum of all local costs under a single global assignment."""
    if len(x) != p.graph.node_count:
        raise ValueError("one vector per node required")
    total = 0.0
    for i, cost in enumerate(p.costs):
        total += evaluate_local(cost, x[i], {j: x[j] for j in cost.a_neigh})
    return total


def assemble_normal_equations(
    p: PartitionProblem, blocks: list[tuple] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Hessian and linear term of the global quadratic on the stacked variables.

    The global cost is x' H x / 2 - g' x + const with H = sum_i 2 S_i' M_i' Q_i M_i S_i
    where M_i is the node's stacked map and S_i selects [x_i; x_neighbors].
    The blocks are `p.local_blocks()`, computed here unless given, and are
    added in node order, so every entry is the sum of its nodes' terms in
    node order: nodes are scattered in chunks with `np.add.at`, which adds
    repeated indices one after another, and a node's own slots are distinct.
    """
    n, N = p.dim, p.graph.node_count
    size = N * n
    H, g = np.zeros((size, size)), np.zeros(size)
    col = np.arange(n)
    layout = stacked_slots(p.graph)
    # per node, as views of its group's stacks: the flat indices in H of its
    # Hessian block, that block, its slots in x and its linear block
    at, hess, slots, lin = [None] * N, [None] * N, [None] * N, [None] * N
    for nodes, group_hess, group_lin, _ in p.local_blocks() if blocks is None else blocks:
        # each node's variables are the owners of its x slots
        table = layout.owner[layout.self_slot[nodes][:, None] + np.arange(group_lin.shape[1] // n)]
        group_slots = (n * table[..., None] + col).reshape(len(nodes), -1)
        group_at = (size * group_slots)[:, :, None] + group_slots[:, None, :]
        for i, *views in zip(nodes, group_at, group_hess, group_slots, group_lin):
            at[i], hess[i], slots[i], lin[i] = views
    start = 0
    while start < N:
        end, held = start, 0
        while end < N and held < _SCATTER_CHUNK:
            held += hess[end].size
            end += 1
        np.add.at(H.reshape(-1), np.concatenate(at[start:end], axis=None),
                  np.concatenate(hess[start:end], axis=None))
        start = end
    np.add.at(g, np.concatenate(slots), np.concatenate(lin))
    return H, g


def solve_centralized(p: PartitionProblem, blocks: list[tuple] | None = None) -> Solution:
    """Exact minimizer of the global cost: one dense LU solve of H u = g, with
    H and g assembled from blocks, `p.local_blocks()` unless given.

    Raises IndefiniteHessianError unless H is `positive_definite` (the
    optimizer would not be unique); there is no pseudo-inverse fallback.
    numpy has no triangular solve to reuse the Cholesky factor with.
    """
    H, g = assemble_normal_equations(p, blocks)
    if not positive_definite(H):
        raise IndefiniteHessianError(
            "global Hessian is singular or indefinite; the optimizer is not unique"
        )
    return Solution(x_star=list(np.linalg.solve(H, g).reshape(-1, p.dim)))


def _matrix_with_singular_values(
    rng: np.random.Generator, rows: int, cols: int, lo: float, hi: float
) -> np.ndarray:
    """Random rows x cols matrix with singular values i.i.d. uniform in [lo, hi]."""
    k = min(rows, cols)
    u, _ = np.linalg.qr(rng.standard_normal((rows, k)))
    v, _ = np.linalg.qr(rng.standard_normal((cols, k)))
    s = rng.uniform(lo, hi, size=k)
    return (u * s) @ v.T


def generate_instance(
    g: Graph,
    n: int,
    r_rows: int,
    seed: int,
    conditioning: float = 10.0,
) -> PartitionProblem:
    """Random quadratic instance on graph g, resampled until the Hessian H is PD.

    Per node: a_self has singular values in [1, conditioning], coupling blocks
    are scaled Gaussians, b is Gaussian, and q = M'M + I. Attempt t draws from
    the sub-seed (seed, t), so results are reproducible, and is accepted when
    H - tau I is `positive_definite`, tau = 1e-9 max(1, H's largest absolute
    row sum). That sum bounds lambda_max(H) (Gershgorin), so the test is as
    strict as lambda_min(H) > 1e-9 max(1, lambda_max(H)) or stricter. Raises
    IndefiniteHessianError when no attempt within the resample budget is
    accepted (a graph and dimension that admit no unique optimizer).
    """
    if n < 1 or r_rows < 1:
        raise ValueError("n and r_rows must be positive")
    if not conditioning >= 1:  # NaN fails it too
        raise ValueError("conditioning must be >= 1")
    coupling_scale = 1.0 / np.sqrt(r_rows * n)
    for attempt in range(_MAX_RESAMPLES):
        rng = np.random.default_rng(np.random.SeedSequence((seed, attempt)))
        costs = []
        for i in range(g.node_count):
            a_self = _matrix_with_singular_values(rng, r_rows, n, 1.0, conditioning)
            a_neigh = {
                j: coupling_scale * rng.standard_normal((r_rows, n))
                for j in neighbors(g, i)
            }
            b = rng.standard_normal(r_rows)
            m = rng.standard_normal((r_rows, r_rows))
            q = m.T @ m + np.eye(r_rows)
            q = 0.5 * (q + q.T)
            costs.append(QuadraticLocalCost(a_self=a_self, a_neigh=a_neigh, b=b, q=q))
        problem = PartitionProblem(graph=g, costs=costs, dim=n)
        H, _ = assemble_normal_equations(problem)
        H.reshape(-1)[:: len(H) + 1] -= 1e-9 * max(1.0, np.abs(H).sum(axis=1).max())
        if positive_definite(H):  # H is shifted in place: nothing reads it after
            return problem
    raise IndefiniteHessianError(
        f"no positive-definite instance within {_MAX_RESAMPLES} resamples "
        "(degenerate graph/dimension configuration)"
    )


# --- serialization ----------------------------------------------------------
#
# An instance document holds the schema, `dim`, the graph (node count, edges
# and optional positions) and the costs as one flat list of numbers: node by
# node a_self, a_neigh[j] for j ascending, b and q, each row-major, with
# `costs.rows` giving each node's row count r_i. Every shape follows from
# dim, r_i and the graph. Floats are emitted with Python's shortest-repr
# encoding (at most 17 significant digits), which parses back to the
# identical IEEE-754 double, so instances round-trip bit-exactly.

SCHEMA_INSTANCE = "radmm-instance/2"


def _object(v, what: str) -> dict:
    if not isinstance(v, dict):
        raise ValueError(f"instance {what} must be a JSON object, got {type(v).__name__}")
    return v


def _list(v, what: str) -> list:
    if not isinstance(v, list):
        raise ValueError(f"instance {what} must be a JSON list, got {type(v).__name__}")
    return v


def _integer(v, what: str) -> int:
    if type(v) is not int:
        raise ValueError(f"instance {what} must be an integer, got {v!r}")
    return v


def _numbers(v: list, what: str) -> np.ndarray:
    """The JSON numbers v as doubles, one `np.array` call; bool is no number
    here, and an integer beyond a double's range, NaN or an infinity is
    rejected."""
    if not set(map(type, v)) <= {int, float}:
        raise ValueError(f"instance {what} must hold numbers only")
    try:
        values = np.array(v, dtype=float)
    except OverflowError as exc:  # an integer beyond the range of a double
        raise ValueError(f"instance {what} must hold doubles: {exc}") from exc
    if not np.isfinite(values).all():
        raise ValueError(f"instance {what} must hold finite numbers")
    return values


def _edges(v) -> frozenset[tuple[int, int]]:
    edges = _list(v, "graph.edges")
    if not set(map(type, edges)) <= {list} or not set(map(len, edges)) <= {2}:
        raise ValueError("instance graph.edges must hold [i, j] pairs")
    if not set(map(type, chain.from_iterable(edges))) <= {int}:  # bool is no node id
        raise ValueError("instance graph.edges must hold integer node ids")
    pairs = frozenset(map(tuple, edges))
    if len(pairs) != len(edges):  # the encoder writes each edge once
        raise ValueError("instance graph.edges must name each edge once")
    return pairs


def _positions(v, node_count: int) -> np.ndarray:
    points = _list(v, "graph.positions")
    if len(points) != node_count or any(type(pt) is not list or len(pt) != 2 for pt in points):
        raise ValueError(f"instance graph.positions must hold {node_count} [x, y] pairs")
    return _numbers([c for pt in points for c in pt], "graph.positions").reshape(-1, 2)


def _uncosts(rows: list[int], data, g: Graph, n: int) -> list[QuadraticLocalCost]:
    """The document's costs. All their data is type-checked and converted in
    one pass, and each matrix is a view of that one array."""
    data = _list(data, "costs.data")
    orders = [neighbors(g, i) for i in range(g.node_count)]
    size = sum(r * n * (len(order) + 1) + r + r * r for r, order in zip(rows, orders))
    if len(data) != size:
        raise ValueError(f"instance costs.data must hold {size} numbers, got {len(data)}")
    values = _numbers(data, "costs.data")
    costs, at = [], 0
    for r, order in zip(rows, orders):
        end = at + r * n * (len(order) + 1)
        maps = values[at:end].reshape(len(order) + 1, r, n)
        b, q = values[end : end + r], values[end + r : end + r + r * r].reshape(r, r)
        at = end + r + r * r
        costs.append(QuadraticLocalCost(a_self=maps[0], a_neigh=dict(zip(order, maps[1:])),
                                        b=b, q=q))
    return costs


def problem_to_json(p: PartitionProblem) -> str:
    parts = [
        a.ravel()
        for c in p.costs
        for a in [c.a_self, *(c.a_neigh[j] for j in c.neighbor_order()), c.b, c.q]
    ]
    doc = {
        "schema": SCHEMA_INSTANCE,
        "dim": p.dim,
        "graph": {
            "nodes": p.graph.node_count,
            "edges": sorted(list(e) for e in p.graph.edges),
            "positions": None
            if p.graph.positions is None
            else [[float(x), float(y)] for x, y in p.graph.positions],
        },
        "costs": {
            "rows": [c.rows for c in p.costs],
            "data": np.concatenate(parts, dtype=float).tolist(),
        },
    }
    return json.dumps(doc)


def problem_from_json(text: str) -> PartitionProblem:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("instance document must be a JSON object")
    if doc.get("schema") != SCHEMA_INSTANCE:
        raise ValueError(
            f"unsupported instance schema {doc.get('schema')!r}: this version reads "
            f"{SCHEMA_INSTANCE}; regenerate the instance with `radmm generate`"
        )
    try:
        gdoc = _object(doc["graph"], "graph")
        nodes = _integer(gdoc["nodes"], "graph.nodes")
        # rows first: building the graph costs O(nodes) whatever the document's size
        cdoc = _object(doc["costs"], "costs")
        rows = [_integer(r, "costs.rows entry") for r in _list(cdoc["rows"], "costs.rows")]
        if len(rows) != nodes or any(r < 0 for r in rows):
            raise ValueError(f"instance costs.rows must hold {nodes} non-negative integers")
        positions = gdoc.get("positions")
        if positions is not None:
            positions = _positions(positions, nodes)
        g = Graph(node_count=nodes, edges=_edges(gdoc["edges"]), positions=positions)
        n = _integer(doc["dim"], "dim")
        if n < 1:
            raise ValueError(f"instance dim must be positive, got {n}")
        return PartitionProblem(graph=g, costs=_uncosts(rows, cdoc["data"], g, n), dim=n)
    except KeyError as exc:
        raise ValueError(f"instance document lacks key {exc}") from exc
