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

import numpy as np

from ._record import Record
from .graph import Graph, neighbors

SYMMETRY_TOL = 1e-12
# draws `generate_instance` makes before giving up on a positive-definite Hessian
_MAX_RESAMPLES = 50


class IndefiniteHessianError(ValueError):
    """The assembled global Hessian is not positive definite."""


class QuadraticLocalCost(Record):
    """One node's quadratic cost data.

    a_self maps the node's own variable, a_neigh[j] the copy of neighbor j's
    variable, b is the target vector and q the positive-definite weight.
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
        asym = np.max(np.abs(q - q.T)) if r else 0.0
        if asym > SYMMETRY_TOL:
            raise ValueError(f"q must be symmetric within {SYMMETRY_TOL}, asymmetry {asym}")
        if r and np.min(np.linalg.eigvalsh(q)) <= 0:
            raise ValueError("q must be positive definite")

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


class PartitionProblem(Record):
    """A graph plus one local cost per node, all with variable dimension `dim`."""

    def __init__(self, graph: Graph, costs: list[QuadraticLocalCost], dim: int):
        self.graph = graph
        self.costs = costs
        self.dim = dim
        if len(costs) != graph.node_count:
            raise ValueError("one cost per node required")
        for i, cost in enumerate(costs):
            if cost.dim != dim:
                raise ValueError(f"cost {i} has dim {cost.dim}, expected {dim}")
            if set(cost.a_neigh) != set(neighbors(graph, i)):
                raise ValueError(
                    f"cost {i} neighbor keys {sorted(cost.a_neigh)} do not match "
                    f"graph neighbors {neighbors(graph, i)}"
                )


class Solution(Record):
    """Per-node optimizer blocks; `global_cost(p, x_star)` is the optimal value.

    Two solutions are equal when their blocks are; the cache of
    `stacked_blocks` does not count.
    """

    def __init__(self, x_star: list[np.ndarray]):
        self.x_star = x_star
        self._blocks = {}

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return len(self.x_star) == len(other.x_star) and all(
            map(np.array_equal, self.x_star, other.x_star)
        )

    def stacked_blocks(
        self, orders: tuple[tuple[int, ...], ...]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every node's block [x_i*; x_j* for j in orders[i]] concatenated, the
        start offset of each block, and the block norms; cached per orders."""
        cached = self._blocks.get(orders)
        if cached is None:
            refs = [
                np.concatenate([self.x_star[i]] + [self.x_star[j] for j in order])
                for i, order in enumerate(orders)
            ]
            cached = (
                np.concatenate(refs),
                np.cumsum([0] + [len(ref) for ref in refs[:-1]]),
                np.array([float(np.linalg.norm(ref)) for ref in refs]),
            )
            self._blocks[orders] = cached
        return cached


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


def assemble_normal_equations(p: PartitionProblem) -> tuple[np.ndarray, np.ndarray]:
    """Hessian and linear term of the global quadratic on the stacked variables.

    The global cost is x' H x / 2 - g' x + const with H = sum_i 2 S_i' M_i' Q_i M_i S_i
    where M_i is the node's stacked map and S_i selects [x_i; x_neighbors].
    """
    n = p.dim
    N = p.graph.node_count
    H = np.zeros((N * n, N * n))
    g = np.zeros(N * n)
    col = np.arange(n)
    for i, cost in enumerate(p.costs):
        # the node's blocks are distinct, so each entry gets one addition per node
        idx = (n * np.array([i] + cost.neighbor_order())[:, None] + col).ravel()
        m = cost.stacked_map()
        mtq = m.T @ cost.q
        H[np.ix_(idx, idx)] += 2.0 * (mtq @ m)
        g[idx] += 2.0 * (mtq @ cost.b)
    return H, g


def solve_centralized(p: PartitionProblem) -> Solution:
    """Exact minimizer of the global cost: one dense solve of H u = g.

    A Cholesky factorization checks first that the Hessian is positive
    definite and raises IndefiniteHessianError when it is not (the optimizer
    would not be unique); there is no pseudo-inverse fallback. numpy has no
    triangular solve, so the factor itself is not reused: one LU solve of H
    costs half of two on the factors.
    """
    H, g = assemble_normal_equations(p)
    try:
        np.linalg.cholesky(H)
    except np.linalg.LinAlgError as exc:
        raise IndefiniteHessianError(
            "global Hessian is singular or indefinite; the optimizer is not unique"
        ) from exc
    u = np.linalg.solve(H, g)
    n = p.dim
    blocks = [u[i * n : (i + 1) * n].copy() for i in range(p.graph.node_count)]
    return Solution(x_star=blocks)


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
    """Random quadratic instance on graph g, resampled until the Hessian is PD.

    Per node: a_self has singular values in [1, conditioning], coupling blocks
    are scaled Gaussians, b is Gaussian, and q = M'M + I. Attempt t draws from
    the sub-seed (seed, t), so results are reproducible. Raises
    IndefiniteHessianError when no attempt within the resample budget is PD
    (a graph and dimension that admit no unique optimizer).
    """
    if n < 1 or r_rows < 1:
        raise ValueError("n and r_rows must be positive")
    if conditioning < 1:
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
        eigs = np.linalg.eigvalsh(H)
        if eigs[0] > 1e-9 * max(1.0, eigs[-1]):
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


def _uncosts(doc, g: Graph, n: int) -> list[QuadraticLocalCost]:
    """The document's costs. All their data is type-checked in one pass and
    converted in one `np.array` call; each matrix is a view of that array."""
    rows = [_integer(r, "costs.rows entry") for r in _list(doc["rows"], "costs.rows")]
    if len(rows) != g.node_count or min(rows) < 0:
        raise ValueError(f"instance costs.rows must hold {g.node_count} non-negative integers")
    data = _list(doc["data"], "costs.data")
    if not set(map(type, data)) <= {int, float}:  # bool is no number here
        raise ValueError("instance costs.data must hold numbers only")
    orders = [neighbors(g, i) for i in range(g.node_count)]
    size = sum(r * n * (len(order) + 1) + r + r * r for r, order in zip(rows, orders))
    if len(data) != size:
        raise ValueError(f"instance costs.data must hold {size} numbers, got {len(data)}")
    try:
        values = np.array(data, dtype=float)
    except OverflowError as exc:  # an integer beyond the range of a double
        raise ValueError(f"instance costs.data must hold doubles: {exc}") from exc
    costs, at = [], 0
    for r, order in zip(rows, orders):
        end = at + r * n * (len(order) + 1)
        maps = values[at:end].reshape(len(order) + 1, r, n)
        b, q = values[end : end + r], values[end + r : end + r + r * r].reshape(r, r)
        at = end + r + r * r
        costs.append(QuadraticLocalCost(
            a_self=maps[0], a_neigh=dict(zip(order, maps[1:])), b=b, q=q
        ))
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
        positions = None
        if gdoc.get("positions") is not None:
            positions = np.array(_list(gdoc["positions"], "graph.positions"), dtype=float)
        g = Graph(
            node_count=_integer(gdoc["nodes"], "graph.nodes"),
            edges=frozenset(
                (_integer(i, "edge end"), _integer(j, "edge end"))
                for i, j in (_list(e, "edge") for e in _list(gdoc["edges"], "graph.edges"))
            ),
            positions=positions,
        )
        n = _integer(doc["dim"], "dim")
        if n < 1:
            raise ValueError(f"instance dim must be positive, got {n}")
        costs = _uncosts(_object(doc["costs"], "costs"), g, n)
        return PartitionProblem(graph=g, costs=costs, dim=n)
    except KeyError as exc:
        raise ValueError(f"instance document lacks key {exc}") from exc
