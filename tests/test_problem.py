import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import radmm as rm
from radmm.problem import assemble_normal_equations
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


def test_cost_rejects_asymmetric_q():
    q = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ValueError):
        rm.QuadraticLocalCost(a_self=np.eye(2), a_neigh={}, b=np.zeros(2), q=q)


def test_cost_rejects_indefinite_q():
    q = np.diag([1.0, -1.0])
    with pytest.raises(ValueError):
        rm.QuadraticLocalCost(a_self=np.eye(2), a_neigh={}, b=np.zeros(2), q=q)


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


def test_json_round_trip_bit_exact(ten_node_problem):
    p = ten_node_problem
    back = rm.problem_from_json(rm.problem_to_json(p))
    assert back.graph.edges == p.graph.edges
    assert np.array_equal(back.graph.positions, p.graph.positions)
    for ca, cb in zip(p.costs, back.costs):
        assert np.array_equal(ca.a_self, cb.a_self)
        assert np.array_equal(ca.b, cb.b)
        assert np.array_equal(ca.q, cb.q)
        assert set(ca.a_neigh) == set(cb.a_neigh)
        for j in ca.a_neigh:
            assert np.array_equal(ca.a_neigh[j], cb.a_neigh[j])


def test_json_rejects_unknown_schema():
    with pytest.raises(ValueError):
        rm.problem_from_json('{"schema": "other/9"}')


def test_json_missing_key_is_value_error():
    with pytest.raises(ValueError, match="graph"):
        rm.problem_from_json('{"schema": "radmm-instance/1", "dim": 2, "costs": []}')


def test_solution_with_filled_cache_equals_fresh_copy(ten_node_problem, ten_node_solution):
    sol = ten_node_solution
    fresh = rm.Solution(x_star=sol.x_star)
    g = ten_node_problem.graph
    orders = tuple(tuple(rm.neighbors(g, i)) for i in range(g.node_count))
    sol.stacked_blocks(orders)
    assert sol == fresh


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
