"""Undirected communication graphs: random geometric generation and queries."""

from __future__ import annotations

from itertools import chain
from types import SimpleNamespace

import numpy as np

from ._record import Frozen


class DisconnectedGraphError(ValueError):
    """No connected geometric graph appeared within the resample budget."""


class Graph(Frozen):
    """Undirected graph on nodes 0..node_count-1 with optional planar positions.

    Edges are unordered pairs stored as (i, j) tuples with i < j. Positions,
    when present, are the points in the unit square that induced a geometric
    graph; they are kept only for serialization and inspection. Two graphs
    are equal only when they are the same object.
    """

    def __init__(
        self,
        node_count: int,
        edges: frozenset[tuple[int, int]],
        positions: np.ndarray | None = None,
    ):
        if node_count < 1:
            raise ValueError(f"node_count must be >= 1, got {node_count}")
        nbrs: list[list[int]] = [[] for _ in range(node_count)]
        for e in edges:
            i, j = e
            if i == j:
                raise ValueError(f"self-loop ({i}, {j}) not allowed")
            if not (0 <= i < j < node_count):
                raise ValueError(f"edge {e} must satisfy 0 <= i < j < {node_count}")
            nbrs[i].append(j)
            nbrs[j].append(i)
        if positions is not None and len(positions) != node_count:
            raise ValueError("positions must have one point per node")
        directed = sorted([(i, j) for i, j in edges] + [(j, i) for i, j in edges])
        self.__dict__.update(
            node_count=node_count,
            edges=edges,
            positions=positions,
            _adjacency=tuple(tuple(sorted(ns)) for ns in nbrs),
            _directed=tuple(directed),
        )

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, i: int) -> int:
        return len(self._adjacency[i])

    def directed_edges(self) -> tuple[tuple[int, int], ...]:
        """All directed instances of the edges, lexicographically sorted.

        This is the canonical edge enumeration used by loss schedules and by
        the stacked-vector reference, so its order must stay stable.
        """
        return self._directed


def stacked_slots(g: Graph) -> SimpleNamespace:
    """The index tables of g's stacked x/z layout (stated in `reference`), as
    intp arrays from its sorted directed edges; the engine, the centralized
    solve and `consensus_residual` read them. Per directed edge e (in
    `directed_edges` order, as its z slot pair): sender, receiver, rev (the
    reverse edge) and edge_slot (the x slot of the sender's copy of the
    receiver's variable). Per node: out_at (its first out-edge; its out-edges
    are contiguous, in its neighbor order) and self_slot (the x slot of its
    own variable, which heads its copies). Per x slot s, which is x[n s :
    n (s + 1)] for variables n wide: owner (the node whose variable it holds).
    """
    nodes, n_nodes = np.arange(g.node_count), g.node_count
    ends = np.fromiter(chain.from_iterable(g.directed_edges()), dtype=np.intp)
    sender, receiver = ends.reshape(-1, 2).T.copy()
    # edges sort by (sender, receiver), so their keys sort too
    rev = np.searchsorted(sender * n_nodes + receiver, receiver * n_nodes + sender)
    out_at = np.searchsorted(sender, nodes)
    self_slot, edge_slot = out_at + nodes, np.arange(len(sender)) + sender + 1
    owner = np.empty(len(sender) + n_nodes, dtype=np.intp)
    owner[self_slot], owner[edge_slot] = nodes, receiver
    return SimpleNamespace(sender=sender, receiver=receiver, rev=rev, out_at=out_at,
                           self_slot=self_slot, edge_slot=edge_slot, owner=owner)


def neighbors(g: Graph, i: int) -> list[int]:
    """Ascending list of the neighbors of node i."""
    if not 0 <= i < g.node_count:
        raise IndexError(f"node index {i} out of range [0, {g.node_count})")
    return list(g._adjacency[i])


def is_connected(g: Graph) -> bool:
    """True iff the graph has a single connected component (BFS)."""
    if g.node_count == 1:
        return True
    seen = [False] * g.node_count
    seen[0] = True
    stack = [0]
    count = 1
    while stack:
        u = stack.pop()
        for v in g._adjacency[u]:
            if not seen[v]:
                seen[v] = True
                count += 1
                stack.append(v)
    return count == g.node_count


def generate_rgg(n: int, radius: float, seed: int) -> Graph:
    """Random geometric graph: n points uniform on the unit square.

    Nodes i and j are joined iff their Euclidean distance is strictly less
    than `radius` (ties at exactly the radius are excluded). Identical
    (n, radius, seed) always produce the identical graph, and for a fixed
    seed the edge set grows monotonically with the radius since the point
    draw does not depend on it.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    edges = set()
    for i in range(n):
        d = np.linalg.norm(pts[i + 1 :] - pts[i], axis=1)
        for off in np.nonzero(d < radius)[0]:
            edges.add((i, i + 1 + int(off)))
    return Graph(node_count=n, edges=frozenset(edges), positions=pts)


def generate_connected_rgg(
    n: int, radius: float, seed: int, max_resamples: int = 10000
) -> Graph:
    """Resample geometric graphs with fresh sub-seeds until one is connected.

    Attempt t uses the sub-seed derived from (seed, t), so the result is a
    pure function of the arguments. Raises DisconnectedGraphError when no
    connected graph appears within `max_resamples` attempts (radius too
    small for n).
    """
    for attempt in range(max_resamples):
        sub = np.random.SeedSequence((seed, attempt)).generate_state(1, np.uint64)[0]
        g = generate_rgg(n, radius, int(sub))
        if is_connected(g):
            return g
    raise DisconnectedGraphError(
        f"no connected geometric graph with n={n}, radius={radius} "
        f"within {max_resamples} resamples"
    )

