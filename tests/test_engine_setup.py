"""The stacked engine's set-up against a node-by-node, edge-by-edge build.

`_StackedEngine` builds its index tables and its error reference from the
layout's slot tables (`graph.stacked_slots`) and factors each class, the
nodes of one degree and cost height, in one stacked call per rho.
`loop_tables` below builds the same tables one node and one edge at a time
from `QuadraticLocalSolver`s, the plain reference; every table and every
rho's inverses must match it byte for byte, and the error reference the
spec's per-node blocks.
"""

import numpy as np
import pytest

import radmm as rm
from radmm.engine import _StackedEngine
from conftest import make_instances

RHOS = (3.0,)


def loop_tables(p, rhos):
    """Every engine table, built per node and per edge: the reference."""
    g, n = p.graph, p.dim
    by_rho = [[rm.QuadraticLocalSolver(c, rho) for c in p.costs] for rho in rhos]
    solvers = by_rho[0]
    edges = g.directed_edges()
    edge_at = {e: t for t, e in enumerate(edges)}
    orders = [rm.neighbors(g, i) for i in range(g.node_count)]
    in_edges = [[edge_at[(j, i)] for j in order] for i, order in enumerate(orders)]
    sizes = [n * (len(order) + 1) for order in orders]
    starts = np.cumsum([0] + sizes[:-1])
    pad = len(edges) * 2 * n
    head = pad + n
    col = np.arange(n)

    # edge e's z row is the `reference` slot pair: z_in_neigh, then z_in_self
    def neigh_slot(e):
        return 2 * n * e + col

    def self_slot(e):
        return 2 * n * e + n + col

    width = max(len(order) for order in orders) + 1
    head_terms = np.array(
        [
            [pad + col] + [self_slot(e) for e in ins] + [pad + col] * (width - 1 - len(ins))
            for ins in in_edges
        ],
        dtype=np.intp,
    ).transpose(1, 0, 2).copy()
    def class_of(i):
        return len(orders[i]), p.costs[i].rows

    by_class = sorted(range(g.node_count), key=lambda i: (*class_of(i), i))
    linear = np.concatenate(
        [np.concatenate([head + n * i + col] + [neigh_slot(e) for e in in_edges[i]]) for i in by_class]
    ).astype(np.intp)
    base = np.concatenate([solvers[i]._base for i in by_class])
    class_at, off = {}, 0
    for i in by_class:
        class_at[i] = off
        off += sizes[i]
    from_class = np.concatenate(
        [class_at[i] + np.arange(sizes[i]) for i in range(g.node_count)]
    ).astype(np.intp)
    classes = []
    for cls in sorted(set(map(class_of, range(g.node_count)))):
        nodes = [i for i in by_class if class_of(i) == cls]
        m = n * (cls[0] + 1)
        at = class_at[nodes[0]]
        invs = [np.stack([rho_solvers[i]._inv for i in nodes]) for rho_solvers in by_rho]
        classes.append((invs, slice(at, at + len(nodes) * m), (len(nodes), m, 1)))
    x_at, z_at = [], []
    for j, i in edges:
        t = orders[j].index(i)
        x_at.append([starts[j] + col, starts[j] + n * (t + 1) + col])
        back = edge_at[(i, j)]
        z_at.append([self_slot(back), neigh_slot(back)])
    z_shape = (len(edges), 2, n)
    return {
        "head_terms": head_terms,
        "linear": linear,
        "base": base,
        "from_class": from_class,
        "message_x": np.array(x_at, dtype=np.intp).reshape(z_shape),
        "message_z": np.array(z_at, dtype=np.intp).reshape(z_shape),
        "classes": classes,
        "x_size": sum(sizes),
        "z_shape": z_shape,
        "pad_at": pad,
        "head_at": head,
    }


def assert_same_array(got, want, name):
    assert got.dtype == want.dtype, name
    assert got.shape == want.shape, name
    assert got.tobytes() == want.tobytes(), name


def assert_engine_matches_loop(p, rhos=RHOS):
    engine = _StackedEngine(p, rhos)
    want = loop_tables(p, rhos)
    for name in ("head_terms", "linear", "base", "from_class", "message_x", "message_z"):
        assert_same_array(getattr(engine, name), want[name], name)
    assert len(engine.classes) == len(want["classes"])
    for (invs, span, shape), (invs_ref, span_ref, shape_ref) in zip(engine.classes, want["classes"]):
        assert len(invs) == len(invs_ref) == len(rhos)
        for inv, inv_ref in zip(invs, invs_ref):
            assert_same_array(inv, inv_ref, "inverse stack")
        assert (span, shape) == (span_ref, shape_ref)
    for name in ("x_size", "z_shape", "pad_at", "head_at"):
        assert getattr(engine, name) == want[name], name
    # the error reference: the spec's per-node blocks [x_i*; x_j* for j
    # ascending], their starts and their norms
    x_star, g = engine.solution.x_star, p.graph
    blocks = [np.concatenate([x_star[i]] + [x_star[j] for j in rm.neighbors(g, i)])
              for i in range(g.node_count)]
    ref, starts, norms = engine.reference
    assert_same_array(ref, np.concatenate(blocks), "reference")
    assert_same_array(starts, np.cumsum([0] + [b.size for b in blocks[:-1]]), "reference starts")
    assert_same_array(norms, np.array([np.linalg.norm(b) for b in blocks]), "reference norms")


def quadratic_cost(rng, n, rows, nbrs, a_self=None):
    a = rng.standard_normal((rows, rows))
    return rm.QuadraticLocalCost(
        a_self=rng.standard_normal((rows, n)) if a_self is None else a_self,
        a_neigh={j: rng.standard_normal((rows, n)) for j in nbrs},
        b=rng.standard_normal(rows),
        q=a @ a.T + rows * np.eye(rows),
    )


def hand_problem(node_count, edges, n, rows_of, seed):
    g = rm.Graph(node_count=node_count, edges=frozenset(edges))
    rng = np.random.default_rng(seed)
    costs = [quadratic_cost(rng, n, rows_of(i), rm.neighbors(g, i)) for i in range(node_count)]
    return rm.PartitionProblem(graph=g, costs=costs, dim=n)


def test_setup_matches_loop_on_fig1(ten_node_problem):
    assert_engine_matches_loop(ten_node_problem)
    assert_engine_matches_loop(ten_node_problem, (0.5,))
    # fig2's rhos, each factored from the one rho-free Hessian
    assert_engine_matches_loop(ten_node_problem, (0.5, 1.0, 3.0, 5.0))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_setup_matches_loop_on_random_instances(dim):
    for p in make_instances(7, seed0=4300, dim=dim):
        assert_engine_matches_loop(p, (3.0, 0.7))


def test_setup_matches_loop_on_100_nodes():
    g = rm.generate_connected_rgg(100, 0.2, seed=7)
    assert_engine_matches_loop(rm.generate_instance(g, n=2, r_rows=3, seed=11))


@pytest.mark.parametrize("dim", [1, 3])
def test_setup_matches_loop_on_edgeless_graph(dim):
    assert_engine_matches_loop(hand_problem(3, [], dim, lambda i: dim + 1, seed=31))


def test_setup_matches_loop_with_an_isolated_node():
    # node 4 has no neighbors; its own full-rank cost keeps its system regular
    edges = [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)]
    assert_engine_matches_loop(hand_problem(5, edges, 2, lambda i: 3, seed=32))


def test_setup_matches_loop_with_mixed_cost_heights():
    # nodes of one degree whose costs have different row counts: one class
    # per (degree, height)
    edges = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (4, 5)]
    assert_engine_matches_loop(hand_problem(6, edges, 2, lambda i: 2 + i % 3, seed=33), (3.0, 0.5))


def test_setup_rejects_singular_isolated_node():
    p = hand_problem(3, [(0, 1)], 2, lambda i: 3, seed=34)
    rng = np.random.default_rng(35)
    singular = quadratic_cost(rng, 2, 3, [], a_self=np.zeros((3, 2)))
    p = rm.PartitionProblem(graph=p.graph, costs=[*p.costs[:2], singular], dim=2)
    # the global Hessian is singular too, so the engine's own solve stops
    # first, as `run` does; given a solution, it reaches its local check
    with pytest.raises(rm.IndefiniteHessianError):
        _StackedEngine(p, RHOS)
    with pytest.raises(rm.IndefiniteHessianError):
        rm.run(p, rm.AlgorithmParams(0.75, RHOS[0]), None, 5)
    solution = rm.Solution(x_star=[np.ones(2)] * 3)
    for rhos in (RHOS, (3.0, 0.5)):  # one check covers a class's systems at every rho
        with pytest.raises(rm.SingularLocalSystemError):
            _StackedEngine(p, rhos, solution)


def test_setup_rejects_non_quadratic_cost():
    class Opaque:
        dim = 2
        a_neigh = {1: None}

    # the problem refuses it, so the engine is never handed one
    p = hand_problem(2, [(0, 1)], 2, lambda i: 3, seed=36)
    with pytest.raises(TypeError, match="node 0 has Opaque"):
        rm.PartitionProblem(graph=p.graph, costs=[Opaque(), p.costs[1]], dim=2)
