import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import radmm as rm
from radmm.problem import assemble_normal_equations, check_weights, positive_definite
from conftest import central_fd_gradient, make_instances


def single_node_cost(b):
    n = len(b)
    return rm.QuadraticLocalCost(
        a_self=np.eye(n), a_neigh={}, b=np.asarray(b, dtype=float), q=np.eye(n)
    )


def single_node_problem(b):
    g = rm.Graph(node_count=1, edges=frozenset())
    return rm.PartitionProblem(graph=g, costs=[single_node_cost(b)], dim=len(b))


def test_evaluate_local_zero():
    cost = single_node_cost([0.0, 0.0])
    assert rm.evaluate_local(cost, np.zeros(2), {}) == 0.0


def test_evaluate_local_norm_of_b():
    cost = single_node_cost([1.0, 1.0])
    assert rm.evaluate_local(cost, np.zeros(2), {}) == pytest.approx(2.0)


def test_evaluate_local_matches_elementwise_recomputation():
    # independent oracle: form the residual and v'Qv with plain Python loops
    rng = np.random.default_rng(31)
    g = rm.Graph(node_count=2, edges=frozenset({(0, 1)}))
    p = rm.generate_instance(g, n=2, r_rows=3, seed=8)
    cost = p.costs[0]
    x0, x1 = rng.standard_normal(2), rng.standard_normal(2)
    v = [
        sum(cost.a_self[r, c] * x0[c] for c in range(2))
        + sum(cost.a_neigh[1][r, c] * x1[c] for c in range(2))
        - cost.b[r]
        for r in range(3)
    ]
    expected = sum(v[r] * cost.q[r, c] * v[c] for r in range(3) for c in range(3))
    got = rm.evaluate_local(cost, x0, {1: x1})
    assert got == pytest.approx(expected, rel=1e-12)


def test_evaluate_local_missing_neighbor():
    g = rm.Graph(node_count=2, edges=frozenset({(0, 1)}))
    p = rm.generate_instance(g, n=2, r_rows=3, seed=8)
    with pytest.raises(ValueError):
        rm.evaluate_local(p.costs[0], np.zeros(2), {})


def test_evaluate_local_dimension_mismatch():
    cost = single_node_cost([0.0, 0.0])
    with pytest.raises(ValueError):
        rm.evaluate_local(cost, np.zeros(3), {})


@settings(max_examples=30, deadline=None)
@given(t=st.floats(min_value=-8, max_value=8), seed=st.integers(0, 2**16))
def test_evaluate_local_purely_quadratic_when_b_zero(t, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 2))
    m = rng.standard_normal((3, 3))
    cost = rm.QuadraticLocalCost(
        a_self=a, a_neigh={}, b=np.zeros(3), q=0.5 * (m.T @ m + (m.T @ m).T) + np.eye(3)
    )
    x = rng.standard_normal(2)
    f1 = rm.evaluate_local(cost, x, {})
    ft = rm.evaluate_local(cost, t * x, {})
    assert ft == pytest.approx(t * t * f1, rel=1e-12, abs=1e-12)


def one_node_problem(cost):
    g = rm.Graph(node_count=1, edges=frozenset())
    return rm.PartitionProblem(graph=g, costs=[cost], dim=cost.dim)


def test_cost_rejects_asymmetric_q():
    # a cost checks its shapes; the problem that holds it checks its weight
    q = np.array([[1.0, 0.5], [0.0, 1.0]])
    cost = rm.QuadraticLocalCost(a_self=np.eye(2), a_neigh={}, b=np.zeros(2), q=q)
    with pytest.raises(ValueError, match="symmetric"):
        one_node_problem(cost)


def test_cost_rejects_indefinite_q():
    q = np.diag([1.0, -1.0])
    cost = rm.QuadraticLocalCost(a_self=np.eye(2), a_neigh={}, b=np.zeros(2), q=q)
    with pytest.raises(ValueError, match="positive definite"):
        one_node_problem(cost)


def test_problem_rejects_wrong_neighbor_keys():
    g = rm.Graph(node_count=2, edges=frozenset({(0, 1)}))
    costs = [single_node_cost([0.0, 0.0]), single_node_cost([0.0, 0.0])]
    with pytest.raises(ValueError):
        rm.PartitionProblem(graph=g, costs=costs, dim=2)


def test_generate_instance_deterministic():
    g = rm.generate_rgg(6, 0.5, seed=2)
    a = rm.generate_instance(g, n=2, r_rows=3, seed=77)
    b = rm.generate_instance(g, n=2, r_rows=3, seed=77)
    for ca, cb in zip(a.costs, b.costs):
        assert np.array_equal(ca.a_self, cb.a_self)
        assert np.array_equal(ca.b, cb.b)
        assert np.array_equal(ca.q, cb.q)
        for j in ca.a_neigh:
            assert np.array_equal(ca.a_neigh[j], cb.a_neigh[j])


def test_generate_instance_single_node():
    g = rm.Graph(node_count=1, edges=frozenset())
    p = rm.generate_instance(g, n=2, r_rows=3, seed=5)
    assert len(p.costs) == 1
    assert p.costs[0].a_neigh == {}


def test_generate_instance_hessian_positive_definite():
    # oracle: eigendecomposition of the assembled Hessian
    g = rm.generate_connected_rgg(8, 0.45, seed=4)
    p = rm.generate_instance(g, n=2, r_rows=3, seed=6)
    H, _ = rm.problem.assemble_normal_equations(p)
    assert np.min(np.linalg.eigvalsh(H)) > 0


def test_generate_instance_singular_value_range():
    g = rm.Graph(node_count=1, edges=frozenset())
    p = rm.generate_instance(g, n=2, r_rows=4, seed=3, conditioning=10.0)
    s = np.linalg.svd(p.costs[0].a_self, compute_uv=False)
    assert np.all(s >= 1.0 - 1e-12)
    assert np.all(s <= 10.0 + 1e-12)


def test_solve_centralized_identity_is_b():
    b = np.array([1.5, -2.0])
    p = single_node_problem(b)
    sol = rm.solve_centralized(p)
    assert np.allclose(sol.x_star[0], b, atol=1e-12)
    assert rm.global_cost(p, sol.x_star) == pytest.approx(0.0, abs=1e-20)


def test_solve_centralized_symmetric_two_node():
    # identical costs on both ends of one edge: the optimum must be symmetric
    g = rm.Graph(node_count=2, edges=frozenset({(0, 1)}))
    a = np.array([[2.0, 0.3], [0.1, 1.0], [0.5, 0.5]])
    c = np.array([[0.4, 0.2], [0.0, 0.3], [0.2, 0.1]])
    b = np.array([1.0, -0.5, 0.25])
    q = np.eye(3)
    costs = [
        rm.QuadraticLocalCost(a_self=a, a_neigh={1: c}, b=b, q=q),
        rm.QuadraticLocalCost(a_self=a, a_neigh={0: c}, b=b, q=q),
    ]
    sol = rm.solve_centralized(rm.PartitionProblem(graph=g, costs=costs, dim=2))
    assert np.allclose(sol.x_star[0], sol.x_star[1], atol=1e-9)


def test_solve_centralized_gradient_norm(ten_node_problem, ten_node_solution):
    # oracle: central finite differences of the global cost (exact on quadratics)
    p, sol = ten_node_problem, ten_node_solution
    flat = np.concatenate(sol.x_star)

    def cost_of(vec):
        xs = [vec[2 * i : 2 * i + 2] for i in range(p.graph.node_count)]
        return rm.global_cost(p, xs)

    grad = central_fd_gradient(cost_of, flat, h=1e-4)
    assert np.linalg.norm(grad) < 1e-9


def test_solve_centralized_relabeling_invariance():
    g = rm.generate_connected_rgg(6, 0.5, seed=14)
    p = rm.generate_instance(g, n=2, r_rows=3, seed=15)
    sol = rm.solve_centralized(p)

    perm = [2, 0, 5, 1, 4, 3]  # new_label[old_label]
    edges = frozenset(
        (min(perm[i], perm[j]), max(perm[i], perm[j])) for i, j in g.edges
    )
    g2 = rm.Graph(node_count=6, edges=edges)
    costs2: list = [None] * 6
    for i, c in enumerate(p.costs):
        costs2[perm[i]] = rm.QuadraticLocalCost(
            a_self=c.a_self,
            a_neigh={perm[j]: a for j, a in c.a_neigh.items()},
            b=c.b,
            q=c.q,
        )
    sol2 = rm.solve_centralized(rm.PartitionProblem(graph=g2, costs=costs2, dim=2))
    for i in range(6):
        assert np.allclose(sol.x_star[i], sol2.x_star[perm[i]], atol=1e-9)


def test_solve_centralized_rejects_singular_hessian():
    cost = rm.QuadraticLocalCost(
        a_self=np.zeros((2, 2)), a_neigh={}, b=np.zeros(2), q=np.eye(2)
    )
    g = rm.Graph(node_count=1, edges=frozenset())
    with pytest.raises(rm.IndefiniteHessianError):
        rm.solve_centralized(rm.PartitionProblem(graph=g, costs=[cost], dim=2))


def test_solve_centralized_rejects_an_indefinite_hessian(monkeypatch):
    # a problem's H is semidefinite by construction, so an indefinite one is handed in
    monkeypatch.setattr(rm.problem, "assemble_normal_equations",
                        lambda p, blocks=None: (np.diag([1.0, -1.0]), np.zeros(2)))
    with pytest.raises(rm.IndefiniteHessianError):
        rm.solve_centralized(single_node_problem([0.0, 0.0]))


def test_global_cost_matches_per_node_sum(path3_problem):
    # oracle: direct summation over evaluate_local
    p = path3_problem
    rng = np.random.default_rng(19)
    xs = [rng.standard_normal(2) for _ in range(3)]
    total = sum(
        rm.evaluate_local(c, xs[i], {j: xs[j] for j in c.a_neigh})
        for i, c in enumerate(p.costs)
    )
    assert rm.global_cost(p, xs) == pytest.approx(total, rel=1e-14)


def test_global_cost_at_optimum_equals_optimal_value(ten_node_problem, ten_node_solution):
    # the cost is u' H u / 2 - g' u + sum_i b_i' Q_i b_i, so its minimum is
    # sum_i b_i' Q_i b_i - g' u* / 2
    p, x_star = ten_node_problem, ten_node_solution.x_star
    _, g = assemble_normal_equations(p)
    optimal_value = sum(c.b @ c.q @ c.b for c in p.costs) - g @ np.concatenate(x_star) / 2
    val = rm.global_cost(p, x_star)
    assert val == pytest.approx(optimal_value, rel=1e-12)


def test_optimum_beats_random_points(ten_node_problem, ten_node_solution):
    p, sol = ten_node_problem, ten_node_solution
    optimal_value = rm.global_cost(p, sol.x_star)
    rng = np.random.default_rng(23)
    for _ in range(50):
        xs = [x + 0.5 * rng.standard_normal(2) for x in sol.x_star]
        assert rm.global_cost(p, xs) >= optimal_value - 1e-9


def mixed_height_problem():
    """A path 0-1-2-3 whose costs have 3, 0, 1 and 2 rows; node 1's cost is
    empty, which QuadraticLocalCost accepts."""
    rng = np.random.default_rng(17)
    g = rm.Graph(node_count=4, edges=frozenset({(0, 1), (1, 2), (2, 3)}))
    costs = []
    for i, r in enumerate([3, 0, 1, 2]):
        m = rng.standard_normal((r, r))
        costs.append(rm.QuadraticLocalCost(
            a_self=rng.standard_normal((r, 2)),
            a_neigh={j: rng.standard_normal((r, 2)) for j in rm.neighbors(g, i)},
            b=rng.standard_normal(r),
            q=m.T @ m + np.eye(r),
        ))
    return rm.PartitionProblem(graph=g, costs=costs, dim=2)


def assert_round_trip_bit_exact(p):
    """p decodes from its JSON bit for bit, and re-encodes to the same bytes."""
    text = rm.problem_to_json(p)
    back = rm.problem_from_json(text)
    assert rm.problem_to_json(back) == text
    assert back.dim == p.dim
    assert back.graph.edges == p.graph.edges
    assert np.array_equal(back.graph.positions, p.graph.positions)
    for ca, cb in zip(p.costs, back.costs, strict=True):
        assert list(ca.a_neigh) == list(cb.a_neigh)
        for a, b in zip([ca.a_self, ca.b, ca.q, *ca.a_neigh.values()],
                        [cb.a_self, cb.b, cb.q, *cb.a_neigh.values()]):
            assert (a.shape, a.tobytes()) == (b.shape, b.tobytes())


def test_json_round_trip_bit_exact(ten_node_problem):
    assert_round_trip_bit_exact(ten_node_problem)


def test_json_round_trip_bit_exact_on_100_nodes():
    g = rm.generate_connected_rgg(100, 0.2, seed=7)
    assert_round_trip_bit_exact(rm.generate_instance(g, n=2, r_rows=3, seed=11))


def test_json_round_trip_bit_exact_with_mixed_cost_heights():
    p = mixed_height_problem()
    assert [c.rows for c in p.costs] == [3, 0, 1, 2]
    assert_round_trip_bit_exact(p)


def test_json_layout_is_rows_then_flat_data(path3_problem):
    # per node a_self, a_neigh[j] for j ascending, b and q, each row-major
    p = path3_problem
    doc = json.loads(rm.problem_to_json(p))
    assert doc["schema"] == "radmm-instance/2"
    assert doc["costs"]["rows"] == [3, 3, 3]
    want = np.concatenate([
        a.ravel()
        for i, c in enumerate(p.costs)
        for a in [c.a_self, *(c.a_neigh[j] for j in rm.neighbors(p.graph, i)), c.b, c.q]
    ])
    assert np.array(doc["costs"]["data"]).tobytes() == want.tobytes()
    assert len(want) == sum(3 * 2 * (p.graph.degree(i) + 1) + 3 + 9 for i in range(3))


def test_json_rejects_unknown_schema():
    with pytest.raises(ValueError):
        rm.problem_from_json('{"schema": "other/9"}')


def test_json_first_schema_asks_for_regeneration():
    with pytest.raises(ValueError, match="radmm-instance/2.*radmm generate"):
        rm.problem_from_json('{"schema": "radmm-instance/1", "dim": 2, "costs": []}')


def test_json_missing_key_is_value_error():
    doc = {"schema": "radmm-instance/2", "dim": 2, "costs": {"rows": [], "data": []}}
    with pytest.raises(ValueError, match="graph"):
        rm.problem_from_json(json.dumps(doc))


def test_json_checks_rows_against_nodes_before_building_the_graph(monkeypatch):
    # a short document that claims many nodes must fail before the graph,
    # whose size follows the claim, is built
    def no_graph(*args, **kwargs):
        raise AssertionError("the graph was built")

    monkeypatch.setattr(rm.problem, "Graph", no_graph)
    doc = {"schema": "radmm-instance/2", "dim": 2,
           "graph": {"nodes": 2_000_000, "edges": []}, "costs": {"rows": [3, 3], "data": []}}
    with pytest.raises(ValueError, match="costs.rows must hold 2000000"):
        rm.problem_from_json(json.dumps(doc))


@pytest.mark.parametrize("conditioning", [math.nan, 0.5])
def test_generate_instance_rejects_conditioning_below_one_or_nan(conditioning):
    g = rm.Graph(node_count=1, edges=frozenset())
    with pytest.raises(ValueError, match="conditioning"):
        rm.generate_instance(g, n=2, r_rows=3, seed=5, conditioning=conditioning)


def test_solutions_are_equal_by_value(ten_node_solution):
    x_star = ten_node_solution.x_star
    assert ten_node_solution == rm.Solution(x_star=[x.copy() for x in x_star])
    moved = [x.copy() for x in x_star]
    moved[3][1] = np.nextafter(moved[3][1], np.inf)
    assert ten_node_solution != rm.Solution(x_star=moved)
    assert ten_node_solution != rm.Solution(x_star=x_star[:-1])
    assert ten_node_solution != x_star


def block_loop_normal_equations(p):
    """H and g assembled block by block, node by node: the reference order."""
    n, N = p.dim, p.graph.node_count
    H, g = np.zeros((N * n, N * n)), np.zeros(N * n)
    for i, cost in enumerate(p.costs):
        idx = [i] + cost.neighbor_order()
        m = cost.stacked_map()
        mtq = m.T @ cost.q
        h_loc, g_loc = 2.0 * (mtq @ m), 2.0 * (mtq @ cost.b)
        for a, ia in enumerate(idx):
            g[ia * n : (ia + 1) * n] += g_loc[a * n : (a + 1) * n]
            for c, ic in enumerate(idx):
                H[ia * n : (ia + 1) * n, ic * n : (ic + 1) * n] += h_loc[
                    a * n : (a + 1) * n, c * n : (c + 1) * n
                ]
    return H, g


def test_assemble_normal_equations_equals_block_loop_bitwise():
    large = rm.generate_instance(rm.generate_connected_rgg(100, 0.2, seed=7), n=2, r_rows=3, seed=11)
    for p in make_instances(7, dim=3) + [large]:
        H, g = assemble_normal_equations(p)
        H_ref, g_ref = block_loop_normal_equations(p)
        assert H.tobytes() == H_ref.tobytes()
        assert g.tobytes() == g_ref.tobytes()


def ix_normal_equations(p):
    """H and g assembled node by node with one np.ix_ scatter each, from each
    node's own stacked_map: the reference for the stacked assembly."""
    n, N = p.dim, p.graph.node_count
    H, g = np.zeros((N * n, N * n)), np.zeros(N * n)
    col = np.arange(n)
    for i, cost in enumerate(p.costs):
        idx = (n * np.array([i] + cost.neighbor_order())[:, None] + col).ravel()
        m = cost.stacked_map()
        mtq = m.T @ cost.q
        H[np.ix_(idx, idx)] += 2.0 * (mtq @ m)
        g[idx] += 2.0 * (mtq @ cost.b)
    return H, g


def random_height_problem(node_count, radius, dim, seed):
    """A random geometric graph (isolated nodes and all) whose costs have
    0 to 4 rows each."""
    g = rm.generate_rgg(node_count, radius, seed)
    rng = np.random.default_rng(seed)
    costs = []
    for i in range(node_count):
        r = int(rng.integers(0, 5))
        a = rng.standard_normal((r, r))
        costs.append(rm.QuadraticLocalCost(
            a_self=rng.standard_normal((r, dim)),
            a_neigh={j: rng.standard_normal((r, dim)) for j in rm.neighbors(g, i)},
            b=rng.standard_normal(r),
            q=a @ a.T + np.eye(r),
        ))
    return rm.PartitionProblem(graph=g, costs=costs, dim=dim)


def large_graph_problem():
    """The benchmark's 100-node instance (483 edges, dim 2, 3 rows a node)."""
    g = rm.generate_connected_rgg(100, 0.2, seed=7)
    return rm.generate_instance(g, n=2, r_rows=3, seed=11)


def test_normal_equations_equal_per_node_ix_assembly_bitwise():
    problems = [*make_instances(7, dim=1), *make_instances(7, dim=3), large_graph_problem(),
                mixed_height_problem()]
    problems += [random_height_problem(12, 0.35, dim, seed=60 + dim) for dim in (1, 2, 3)]
    isolated = [p.graph.degree(i) for p in problems[-3:] for i in range(p.graph.node_count)]
    assert 0 in isolated  # the random graphs hold isolated nodes
    for p in problems:
        H, g = assemble_normal_equations(p)
        H_ref, g_ref = ix_normal_equations(p)
        assert H.tobytes() == H_ref.tobytes()
        assert g.tobytes() == g_ref.tobytes()


def test_local_blocks_are_each_nodes_own_products():
    p = random_height_problem(12, 0.35, 2, seed=71)
    groups = p.local_blocks()
    keys = [(p.graph.degree(nodes[0]), p.costs[nodes[0]].rows) for nodes, *_ in groups]
    assert keys == sorted(set(keys))  # one group per (degree, height), ascending
    # some degree holds costs of several heights, one group each
    degrees = [d for d, _ in keys]
    assert len(set(degrees)) < len(degrees)
    seen = []
    for key, (nodes, hess, lin, base) in zip(keys, groups):
        assert nodes == sorted(nodes)
        assert {(p.graph.degree(i), p.costs[i].rows) for i in nodes} == {key}
        for s, i in enumerate(nodes):
            c = p.costs[i]
            m = c.stacked_map()
            assert hess[s].tobytes() == (2.0 * (m.T @ c.q @ m)).tobytes()
            assert lin[s].tobytes() == (2.0 * ((m.T @ c.q) @ c.b)).tobytes()
            assert base[s].tobytes() == (2.0 * (m.T @ (c.q @ c.b))).tobytes()
        seen += nodes
    assert sorted(seen) == list(range(p.graph.node_count))
    # a second computation gives the same bits
    again = p.local_blocks()
    for a, b in zip(groups, again, strict=True):
        assert a[0] == b[0] and all(x.tobytes() == y.tobytes() for x, y in zip(a[1:], b[1:]))


def test_local_blocks_reject_a_non_quadratic_cost():
    # the problem refuses the cost, so local_blocks never meets one
    p = mixed_height_problem()
    costs = list(p.costs)
    costs[2] = object()
    with pytest.raises(TypeError, match="node 2"):
        rm.PartitionProblem(graph=p.graph, costs=costs, dim=p.dim)


def test_problem_is_read_only():
    # the problem keeps the costs it was built with
    p = mixed_height_problem()
    other = random_height_problem(4, 0.5, 2, seed=72)
    blocks = p.local_blocks()
    costs = p.costs
    with pytest.raises(AttributeError):
        p.costs = other.costs
    with pytest.raises(TypeError):
        p.costs[:] = other.costs
    with pytest.raises(TypeError):
        p.costs[0] = other.costs[0]
    assert p.costs is costs
    for a, b in zip(blocks, p.local_blocks(), strict=True):
        assert a[0] == b[0] and all(x.tobytes() == y.tobytes() for x, y in zip(a[1:], b[1:]))


@pytest.mark.parametrize("source", ["generated", "decoded"])
def test_cost_arrays_are_read_only(ten_node_problem, source):
    # a cost's arrays cannot be written in place once the problem has
    # checked them (negating q would bypass the weight check), whether the
    # problem was generated or decoded, where each array is a view
    p = ten_node_problem
    if source == "decoded":
        p = rm.problem_from_json(rm.problem_to_json(p))
    c = p.costs[1]
    arrays = (c.a_self, *c.a_neigh.values(), c.b, c.q)
    before = [a.tobytes() for a in arrays]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        c.q[:] = -c.q
    with pytest.raises(ValueError, match="read-only"):
        c.b += 5.0
    assert [a.tobytes() for a in arrays] == before


def test_problem_checks_the_weights_of_every_cost_height():
    p = mixed_height_problem()  # heights 3, 0, 1 and 2
    for i in (0, 2, 3):
        costs = list(p.costs)
        c = costs[i]
        costs[i] = rm.QuadraticLocalCost(a_self=c.a_self, a_neigh=c.a_neigh, b=c.b, q=-c.q)
        with pytest.raises(ValueError, match="positive definite"):
            rm.PartitionProblem(graph=p.graph, costs=costs, dim=p.dim)


def per_node_error(q):
    """The ValueError a one-node problem raises for weight q."""
    r = len(q)
    cost = rm.QuadraticLocalCost(a_self=np.zeros((r, 2)), a_neigh={}, b=np.zeros(r), q=q)
    with pytest.raises(ValueError) as info:
        one_node_problem(cost)
    return str(info.value)


@pytest.mark.parametrize(
    "bad_q",
    [
        lambda q: q + np.triu(np.full_like(q, 1e-6), 1),  # asymmetric
        lambda q: q - 2 * np.linalg.eigvalsh(q).max() * np.eye(len(q)),  # indefinite
    ],
    ids=["asymmetric", "indefinite"],
)
def test_decoder_raises_what_the_per_node_check_raises(bad_q):
    p = mixed_height_problem()
    doc = json.loads(rm.problem_to_json(p))
    # node 3 has 2 rows; its q is the last 4 numbers of the data
    q = bad_q(np.array(doc["costs"]["data"][-4:]).reshape(2, 2))
    doc["costs"]["data"][-4:] = q.ravel().tolist()
    with pytest.raises(ValueError) as info:
        rm.problem_from_json(json.dumps(doc))
    assert str(info.value) == per_node_error(q)


def test_check_weights_names_the_first_failing_matrix():
    good = np.eye(2)
    asym = np.array([[1.0, 0.25], [0.0, 1.0]])
    stack = np.stack([good, asym, np.array([[1.0, 0.5], [0.0, 1.0]])])
    with pytest.raises(ValueError) as info:
        check_weights(stack)
    assert str(info.value) == per_node_error(asym)
    check_weights(np.stack([good, 2 * good]))
    check_weights(np.zeros((3, 0, 0)))


def test_positive_definite_is_one_cholesky_attempt():
    rng = np.random.default_rng(61)
    m = rng.standard_normal((4, 4))
    spd = m @ m.T + np.eye(4)
    assert positive_definite(spd)
    assert positive_definite(np.stack([spd, 2 * spd]))
    assert positive_definite(np.zeros((3, 0, 0)))
    assert not positive_definite(np.diag([1.0, 0.0]))  # singular
    assert not positive_definite(np.diag([1.0, -1.0]))  # indefinite
    assert not positive_definite(np.stack([spd, -spd]))  # one bad matrix of a stack
    # numpy's cholesky returns a NaN factor for these without raising
    for bad in (np.nan, np.inf):
        assert not positive_definite(np.diag([bad, 1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("array", ["a_self", "a_neigh", "b", "q"])
def test_problem_rejects_a_non_finite_entry_and_names_its_node(array, bad):
    g = rm.Graph(node_count=3, edges=frozenset({(0, 1), (1, 2)}))
    costs = list(rm.generate_instance(g, n=2, r_rows=3, seed=5).costs)
    c = costs[1]
    data = {"a_self": c.a_self.copy(), "a_neigh": {j: a.copy() for j, a in c.a_neigh.items()},
            "b": c.b.copy(), "q": c.q.copy()}
    target = data[array][2] if array == "a_neigh" else data[array]
    target[(0,) * target.ndim] = bad
    if array == "q":  # keep q symmetric: the finiteness check names the fault
        target[-1, -1] = bad
        data["q"] = np.diag(np.diag(target))
    costs[1] = rm.QuadraticLocalCost(**data)
    with pytest.raises(ValueError, match="^cost 1 holds a non-finite entry$"):
        rm.PartitionProblem(graph=g, costs=costs, dim=2)


def test_one_node_problem_with_a_nan_target_is_rejected_not_solved():
    # it used to solve to x* = [nan, nan] and report a run that diverged at round 1
    with pytest.raises(ValueError, match="cost 0 holds a non-finite entry"):
        single_node_problem([math.nan, 1.0])


def test_check_weights_rejects_a_non_finite_weight():
    # NaN passes the symmetry test, and eigvalsh(...).min() <= 0 was False on
    # it; an infinity made the symmetry test warn of inf - inf
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="positive definite"):
            check_weights(np.array([[[value, 0.0], [0.0, 1.0]]]))


@pytest.fixture
def picks(monkeypatch):
    """Patches `rm.generate_instance`: each call returns its instance, or None
    where it raised IndefiniteHessianError, and appends to the returned list
    (the attempt it accepted or None, the first attempt among the Hessians
    it tried that the former test accepts, or None). The former test is
    lambda_min(H) > 1e-9 max(1, lambda_max(H)) by `eigvalsh`."""
    tried, out = [], []
    assemble, generate = rm.problem.assemble_normal_equations, rm.generate_instance

    def spy(p, blocks=None):
        H, g = assemble(p, blocks)
        tried.append(H.copy())  # generate_instance shifts its H in place
        return H, g

    def checked(*args, **kw):
        tried.clear()
        try:
            problem, pick = generate(*args, **kw), len(tried) - 1
        except rm.IndefiniteHessianError:
            problem, pick = None, None
        eigs = [np.linalg.eigvalsh(H) for H in tried]
        old = next((t for t, e in enumerate(eigs) if e[0] > 1e-9 * max(1.0, e[-1])), None)
        out.append((pick, old))
        return problem

    monkeypatch.setattr(rm.problem, "assemble_normal_equations", spy)
    monkeypatch.setattr(rm, "generate_instance", checked)
    return out


def test_generate_instance_accepts_the_attempt_the_eigenvalue_test_accepts(picks):
    # the fig1 preset's instance, and the large_graph benchmark's
    for nodes, radius in ((10, 0.35), (100, 0.2)):
        rm.generate_instance(rm.generate_connected_rgg(nodes, radius, seed=7), 2, 3, 11)
    # every instance make_instances draws for the suite
    for count, seed0, dim in ((10, 1000, 2), (7, 1000, 1), (7, 1000, 3), (10, 4000, 2),
                              (7, 4300, 1), (7, 4300, 3)):
        make_instances(count, seed0=seed0, dim=dim)
    assert picks == [(0, 0)] * len(picks)


def test_generate_instance_resamples_as_the_eigenvalue_test_did(picks, monkeypatch):
    # Small graphs, isolated nodes and all. With fewer rows than dim, H's
    # rank is below its size, so every attempt is resampled and the call
    # raises; with rows >= dim the first attempt is accepted. A budget of 4
    # attempts leaves time for more configurations.
    monkeypatch.setattr(rm.problem, "_MAX_RESAMPLES", 4)
    for seed in range(120):
        rng = np.random.default_rng(seed)
        nodes, dim = int(rng.integers(1, 7)), int(rng.integers(1, 4))
        rows = int(rng.integers(1, dim + 2))
        rm.generate_instance(rm.generate_rgg(nodes, 0.4, seed), dim, rows, seed)
    assert all(pick == old for pick, old in picks)
    assert {pick for pick, _ in picks} == {None, 0}


def test_generate_instance_raises_when_every_attempt_is_singular():
    g = rm.Graph(node_count=2, edges=frozenset())
    with pytest.raises(rm.IndefiniteHessianError, match="no positive-definite instance"):
        rm.generate_instance(g, n=2, r_rows=1, seed=3)
