import math

import numpy as np
import pytest
from scipy.optimize import minimize

import radmm as rm
from radmm.graph import stacked_slots
from conftest import (
    central_fd_gradient,
    local_objective,
    make_instances,
    random_node_state,
    random_states,
)


def isolated_cost(b):
    n = len(b)
    return rm.QuadraticLocalCost(
        maps=np.eye(n)[None], neighbors=(), b=np.asarray(b, dtype=float), q=np.eye(n)
    )


def two_node_problem(seed=8):
    g = rm.Graph(node_count=2, edges=frozenset({(0, 1)}))
    return rm.generate_instance(g, n=2, r_rows=3, seed=seed)


def test_params_reject_nonpositive_rho():
    with pytest.raises(ValueError):
        rm.AlgorithmParams(alpha=0.5, rho=0.0)
    with pytest.raises(ValueError):
        rm.AlgorithmParams(alpha=0.5, rho=-1.0)


@pytest.mark.parametrize("alpha, rho", [(math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0),
                                        (0.5, math.inf), (0.5, math.nan)])
def test_params_reject_non_finite_alpha_or_rho(alpha, rho):
    # a NaN alpha used to run and "diverge" at round 2; rho = inf reached the engine
    with pytest.raises(ValueError, match="must be (positive and )?finite"):
        rm.AlgorithmParams(alpha=alpha, rho=rho)


def test_params_flag_guaranteed_region():
    assert rm.AlgorithmParams(alpha=0.5, rho=1.0).guaranteed_convergent
    assert not rm.AlgorithmParams(alpha=1.2, rho=1.0).guaranteed_convergent
    assert not rm.AlgorithmParams(alpha=0.0, rho=1.0).guaranteed_convergent


def test_frozen_records_are_read_only(ten_node_problem):
    p = ten_node_problem
    params = rm.AlgorithmParams(0.75, 3.0)
    model = rm.LossModel.uniform(p.graph, 0.2)
    records = [
        params,
        rm.Message(0, 1, np.zeros(2), np.zeros(2)),
        p.graph,
        model,
        rm.DeliveryMask.complete(p.graph),
        rm.LossSchedule(model=model, seed=3),
        rm.build_reference_round(p, rm.build_constraint_matrices(p.graph, p.dim), params),
    ]
    for rec in records:
        field = next(iter(vars(rec)))
        with pytest.raises(AttributeError):
            setattr(rec, field, None)
        with pytest.raises(AttributeError):
            delattr(rec, field)
        with pytest.raises(AttributeError):
            rec.extra = 1
    assert (params.alpha, params.rho) == (0.75, 3.0)


def test_records_of_arrays_compare_without_raising(ten_node_problem):
    # equal arrays in two records made a field-by-field == ambiguous; such
    # records are equal only to themselves
    cost = ten_node_problem.costs[0]
    twin = rm.QuadraticLocalCost(cost.maps, cost.neighbors, cost.b.copy(), cost.q)
    assert cost == cost and cost != twin
    assert rm.RunTrace(np.zeros(3), False) != rm.RunTrace(np.zeros(3), False)


def test_node_state_rejects_mismatched_keys():
    with pytest.raises(ValueError):
        rm.NodeState(
            x_self=np.zeros(2),
            x_neigh={1: np.zeros(2)},
            z_in_self={2: np.zeros(2)},
            z_in_neigh={1: np.zeros(2)},
        )


def test_initial_states_store_3deg_plus_1_vectors(ten_node_problem):
    p = ten_node_problem
    for i, st_ in enumerate(rm.initial_states(p)):
        deg = len(rm.neighbors(p.graph, i))
        stored = 1 + len(st_.x_neigh) + len(st_.z_in_self) + len(st_.z_in_neigh)
        assert stored == 3 * deg + 1


def test_x_update_isolated_node_returns_b():
    # no neighbors: penalty and coupling vanish, the step is the plain argmin
    b = np.array([0.7, -1.2])
    state = rm.NodeState(x_self=np.zeros(2), x_neigh={}, z_in_self={}, z_in_neigh={})
    x_self, x_neigh = rm.local_x_update(isolated_cost(b), state, rm.AlgorithmParams(0.75, 3.0))
    assert np.allclose(x_self, b, atol=1e-12)
    assert x_neigh == {}


def test_x_update_fd_gradient_vanishes():
    # oracle: central differences of the round objective at the returned point
    p = two_node_problem()
    params = rm.AlgorithmParams(alpha=0.5, rho=2.0)
    rng = np.random.default_rng(40)
    for _ in range(10):
        st_ = random_node_state(rng, 2, [1])
        x_self, x_neigh = rm.local_x_update(p.costs[0], st_, params)
        v = np.concatenate([x_self, x_neigh[1]])
        grad = central_fd_gradient(
            lambda u: local_objective(p.costs[0], st_.z_in_self, st_.z_in_neigh, params, u),
            v,
        )
        assert np.linalg.norm(grad) < 1e-6


def test_x_update_matches_generic_minimizer():
    # oracle: derivative-free BFGS on the same objective
    p = two_node_problem(seed=12)
    params = rm.AlgorithmParams(alpha=0.5, rho=1.5)
    rng = np.random.default_rng(41)
    st_ = random_node_state(rng, 2, [1])
    x_self, x_neigh = rm.local_x_update(p.costs[0], st_, params)
    v = np.concatenate([x_self, x_neigh[1]])
    res = minimize(
        lambda u: local_objective(p.costs[0], st_.z_in_self, st_.z_in_neigh, params, u),
        np.zeros(4),
        method="BFGS",
        options={"gtol": 1e-10, "maxiter": 500},
    )
    assert np.linalg.norm(res.x - v) < 1e-6


def test_x_update_singular_isolated_system():
    cost = rm.QuadraticLocalCost(
        maps=np.zeros((1, 2, 2)), neighbors=(), b=np.zeros(2), q=np.eye(2)
    )
    state = rm.NodeState(x_self=np.zeros(2), x_neigh={}, z_in_self={}, z_in_neigh={})
    with pytest.raises(rm.SingularLocalSystemError):
        rm.local_x_update(cost, state, rm.AlgorithmParams(0.5, 1.0))


def test_make_local_solver_rejects_non_quadratic_cost():
    class OtherCost:  # offers the hook make_local_solver no longer reads
        def make_solver(self, params):
            return object()

    with pytest.raises(TypeError):
        rm.make_local_solver(OtherCost(), rm.AlgorithmParams(0.5, 1.0))


def test_messages_all_zero_state():
    state = rm.NodeState(
        x_self=np.zeros(2),
        x_neigh={1: np.zeros(2)},
        z_in_self={1: np.zeros(2)},
        z_in_neigh={1: np.zeros(2)},
    )
    (m,) = rm.compute_messages(state, rm.AlgorithmParams(0.75, 3.0), 0)
    assert m.sender == 0 and m.receiver == 1
    assert np.array_equal(m.q_about_sender, np.zeros(2))
    assert np.array_equal(m.q_about_receiver, np.zeros(2))


def test_messages_scalar_case():
    # z = 1, rho = 0.5, x = 1  ->  q = -1 + 2*0.5*1 = 0
    state = rm.NodeState(
        x_self=np.array([1.0]),
        x_neigh={1: np.array([0.0])},
        z_in_self={1: np.array([1.0])},
        z_in_neigh={1: np.array([0.0])},
    )
    (m,) = rm.compute_messages(state, rm.AlgorithmParams(alpha=0.5, rho=0.5), 0)
    assert m.q_about_sender[0] == 0.0
    assert m.q_about_receiver[0] == 0.0


def test_messages_match_elementwise_recomputation():
    rng = np.random.default_rng(17)
    params = rm.AlgorithmParams(alpha=0.3, rho=2.5)
    state = random_node_state(rng, 2, [0, 2])
    msgs = {m.receiver: m for m in rm.compute_messages(state, params, 1)}
    for j in (0, 2):
        for c in range(2):
            assert msgs[j].q_about_sender[c] == pytest.approx(
                -state.z_in_self[j][c] + 2 * 2.5 * state.x_self[c], rel=1e-15
            )
            assert msgs[j].q_about_receiver[c] == pytest.approx(
                -state.z_in_neigh[j][c] + 2 * 2.5 * state.x_neigh[j][c], rel=1e-15
            )


def test_sync_round_edgeless_returns_local_argmins():
    g = rm.Graph(node_count=2, edges=frozenset())
    costs = [isolated_cost([1.0, 2.0]), isolated_cost([-3.0, 0.5])]
    p = rm.PartitionProblem(graph=g, costs=costs, dim=2)
    for params in (rm.AlgorithmParams(0.2, 0.7), rm.AlgorithmParams(0.9, 5.0)):
        out = rm.sync_round(rm.initial_states(p), p, params, rm.DeliveryMask.complete(g))
        assert np.allclose(out[0].x_self, [1.0, 2.0], atol=1e-12)
        assert np.allclose(out[1].x_self, [-3.0, 0.5], atol=1e-12)


def test_sync_round_complete_mask_equals_p0_schedule(ten_node_problem):
    p = ten_node_problem
    params = rm.AlgorithmParams(0.75, 3.0)
    rng = np.random.default_rng(44)
    states = random_states(rng, p)
    a = rm.sync_round(states, p, params, rm.DeliveryMask.complete(p.graph))
    mask = rm.sample_mask(rm.LossSchedule(model=rm.LossModel.uniform(p.graph, 0.0), seed=5), 0)
    b = rm.sync_round(states, p, params, mask)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.x_self, sb.x_self)
        for j in sa.z_in_self:
            assert np.array_equal(sa.z_in_self[j], sb.z_in_self[j])
            assert np.array_equal(sa.z_in_neigh[j], sb.z_in_neigh[j])


def test_sync_round_none_delivered_freezes_z_and_x(ten_node_problem):
    p = ten_node_problem
    params = rm.AlgorithmParams(0.75, 3.0)
    none_mask = rm.DeliveryMask(
        delivered={e: False for e in p.graph.directed_edges()}
    )
    rng = np.random.default_rng(45)
    states = random_states(rng, p)
    r1 = rm.sync_round(states, p, params, none_mask)
    for before, after in zip(states, r1):
        for j in before.z_in_self:
            assert np.array_equal(before.z_in_self[j], after.z_in_self[j])
            assert np.array_equal(before.z_in_neigh[j], after.z_in_neigh[j])
    r2 = rm.sync_round(r1, p, params, none_mask)
    for a, b in zip(r1, r2):
        assert np.array_equal(a.x_self, b.x_self)
        for j in a.x_neigh:
            assert np.array_equal(a.x_neigh[j], b.x_neigh[j])


def test_sync_round_rejects_incomplete_mask(ten_node_problem):
    p = ten_node_problem
    edges = p.graph.directed_edges()
    bad = rm.DeliveryMask(delivered={e: True for e in edges[:-1]})
    with pytest.raises(ValueError):
        rm.sync_round(rm.initial_states(p), p, rm.AlgorithmParams(0.5, 1.0), bad)


def test_sync_round_rejects_states_that_do_not_match_the_graph(path3_problem):
    p = path3_problem
    params, mask = rm.AlgorithmParams(0.5, 1.0), rm.DeliveryMask.complete(p.graph)
    states = rm.initial_states(p)
    zeros = {j: np.zeros(2) for j in (1, 2)}
    extra_key = rm.NodeState(np.zeros(2), dict(zeros), dict(zeros), dict(zeros))
    missing_key = rm.NodeState(np.zeros(2), {}, {}, {})
    for bad in (
        states[:-1],  # a node short
        states + [states[0]],  # a node too many
        [extra_key] + states[1:],  # node 0's only neighbor is 1
        [states[0], missing_key, states[2]],  # node 1's neighbors are 0 and 2
    ):
        with pytest.raises(ValueError):
            rm.sync_round(bad, p, params, mask)


def test_sync_round_relaxes_delivered_edges_only(path3_problem):
    # edge 0 -> 1 delivered, 1 -> 0 lost: z <- (1 - alpha) z + alpha q on 1's
    # pair for the edge from 0, node 0's pair for the edge from 1 kept
    p = path3_problem
    params = rm.AlgorithmParams(0.3, 2.0)
    states = random_states(np.random.default_rng(47), p)
    mask = rm.DeliveryMask(delivered={e: e != (1, 0) for e in p.graph.directed_edges()})
    out = rm.sync_round(states, p, params, mask)
    x_self, x_neigh = rm.local_x_update(p.costs[0], states[0], params)
    mid = rm.NodeState(x_self, x_neigh, states[0].z_in_self, states[0].z_in_neigh)
    (m,) = rm.compute_messages(mid, params, 0)
    keep = 1.0 - params.alpha
    want_self = keep * states[1].z_in_self[0] + params.alpha * m.q_about_receiver
    want_neigh = keep * states[1].z_in_neigh[0] + params.alpha * m.q_about_sender
    assert out[1].z_in_self[0].tobytes() == want_self.tobytes()
    assert out[1].z_in_neigh[0].tobytes() == want_neigh.tobytes()
    assert np.array_equal(out[0].z_in_self[1], states[0].z_in_self[1])
    assert np.array_equal(out[0].z_in_neigh[1], states[0].z_in_neigh[1])


def test_sync_round_message_locality():
    # perturbing node 3 cannot change nodes 0 and 1 within a single round
    g = rm.Graph(node_count=4, edges=frozenset({(0, 1), (1, 2), (2, 3)}))
    p = rm.generate_instance(g, n=2, r_rows=3, seed=20)
    params = rm.AlgorithmParams(0.6, 2.0)
    rng = np.random.default_rng(46)
    states = random_states(rng, p)
    perturbed = list(states)
    perturbed[3] = random_node_state(np.random.default_rng(999), 2, [2])
    mask = rm.DeliveryMask.complete(g)
    a = rm.sync_round(states, p, params, mask)
    b = rm.sync_round(perturbed, p, params, mask)
    for i in (0, 1):
        assert np.array_equal(a[i].x_self, b[i].x_self)
        for j in a[i].z_in_self:
            assert np.array_equal(a[i].z_in_self[j], b[i].z_in_self[j])
            assert np.array_equal(a[i].z_in_neigh[j], b[i].z_in_neigh[j])


def test_run_single_round_equals_sync_round(ten_node_problem):
    p = ten_node_problem
    params = rm.AlgorithmParams(0.75, 3.0)
    tr = rm.run(p, params, None, k_max=1, record_states=True)
    direct = rm.sync_round(
        rm.initial_states(p), p, params, rm.DeliveryMask.complete(p.graph)
    )
    assert tr.rounds_executed == 1
    for a, b in zip(rm.node_states(p.graph, p.dim, tr.xs[-1], tr.z), direct):
        assert np.array_equal(a.x_self, b.x_self)
        for j in a.z_in_self:
            assert np.array_equal(a.z_in_self[j], b.z_in_self[j])


def test_run_traces_are_bitwise_reproducible(ten_node_problem, ten_node_solution):
    p = ten_node_problem
    params = rm.AlgorithmParams(0.75, 3.0)
    sched = rm.LossSchedule(model=rm.LossModel.uniform(p.graph, 0.3), seed=91)
    a = rm.run(p, params, sched, 200, solution=ten_node_solution, record_states=True)
    b = rm.run(p, params, sched, 200, solution=ten_node_solution, record_states=True)
    assert np.array_equal(a.errors, b.errors)
    assert np.array_equal(a.xs, b.xs)
    assert np.array_equal(a.z, b.z)


def test_run_p1_schedule_freezes_after_first_round(ten_node_problem):
    p = ten_node_problem
    params = rm.AlgorithmParams(0.75, 3.0)
    sched = rm.LossSchedule(model=rm.LossModel.uniform(p.graph, 1.0), seed=13)
    tr = rm.run(p, params, sched, k_max=6, record_states=True)
    for k in range(1, 6):
        assert np.array_equal(tr.xs[k], tr.xs[0])


def test_run_near_fixed_point_barely_moves(ten_node_problem, ten_node_solution):
    # converged z is numerically a fixed point of the round map
    p = ten_node_problem
    params = rm.AlgorithmParams(0.75, 3.0)
    tr = rm.run(p, params, None, 5000, solution=ten_node_solution, stop_tol=1e-12,
                record_states=True)
    assert tr.errors[-1] < 1e-12
    before = rm.node_states(p.graph, p.dim, tr.xs[-1], tr.z)
    after = rm.sync_round(before, p, params, rm.DeliveryMask.complete(p.graph))
    delta = max(
        np.max(np.abs(a.z_in_self[j] - b.z_in_self[j]))
        for a, b in zip(before, after)
        for j in a.z_in_self
    )
    assert delta < 1e-10


def test_run_detects_divergence(ten_node_problem, ten_node_solution):
    p = ten_node_problem
    params = rm.AlgorithmParams(alpha=1.6, rho=3.0)
    tr = rm.run(p, params, None, 4000, solution=ten_node_solution)
    assert tr.diverged
    assert tr.rounds_executed < 4000
    assert len(tr.errors) == tr.rounds_executed


def test_trace_csv_layout(ten_node_problem, ten_node_solution):
    p = ten_node_problem
    tr = rm.run(p, rm.AlgorithmParams(0.75, 3.0), None, 3, solution=ten_node_solution)
    text = rm.trace_to_csv(tr)
    lines = text.strip().split("\n")
    assert lines[0] == "k,rel_error,diverged"
    assert len(lines) == 4
    assert lines[1].startswith("0,")
    assert lines[1].endswith(",0")


@pytest.mark.parametrize("which", ["fig1", "suite"])
def test_consensus_residual_of_flat_x_is_the_node_local_definition(ten_node_problem, which):
    p = ten_node_problem if which == "fig1" else make_instances(7)[6]
    g, n = p.graph, p.dim
    e = len(g.directed_edges())
    rng = np.random.default_rng(23)
    for _ in range(5):
        x = rng.standard_normal(n * (e + g.node_count))
        states = rm.node_states(g, n, x, np.zeros(2 * n * e))
        expected = max(
            float(np.linalg.norm(states[i].x_self - states[j].x_neigh[i]))
            for i, j in g.directed_edges()
        )
        assert rm.consensus_residual(g, n, x) == pytest.approx(expected, rel=1e-12, abs=0)
    # the optimum in the x layout, node by node: x_i* and each neighbor's x_j*
    x_star = rm.solve_centralized(p).x_star
    blocks = [[x_star[i]] + [x_star[j] for j in rm.neighbors(g, i)] for i in range(g.node_count)]
    consensus = np.concatenate([x for block in blocks for x in block])
    assert rm.consensus_residual(g, n, consensus) == 0.0
    with pytest.raises(ValueError):
        rm.consensus_residual(g, n, x[:-1])


def test_stacked_slots_are_the_node_local_layout():
    # random instances, an edgeless graph, and nodes 2 and 4 isolated
    graphs = [p.graph for p in make_instances(7)] + [
        rm.Graph(node_count=3, edges=frozenset()),
        rm.Graph(node_count=6, edges=frozenset({(0, 1), (1, 3), (0, 3), (3, 5)})),
    ]
    rng = np.random.default_rng(29)
    for g in graphs:
        n, edges = 2, g.directed_edges()
        slots = stacked_slots(g)
        for name in ("sender", "receiver", "rev", "out_at", "self_slot", "edge_slot", "owner"):
            assert getattr(slots, name).dtype == np.intp, name
        x = rng.standard_normal(n * (len(edges) + g.node_count))
        z = rng.standard_normal(2 * n * len(edges))
        states = rm.node_states(g, n, x, z)
        blocks, pairs = x.reshape(-1, n), z.reshape(-1, 2, n)
        for j in range(g.node_count):
            assert np.array_equal(states[j].x_self, blocks[slots.self_slot[j]])
            assert slots.out_at[j] == sum(g.degree(k) for k in range(j))
        for e, (j, i) in enumerate(edges):
            assert (slots.sender[e], slots.receiver[e]) == (j, i)
            assert e - slots.out_at[j] == rm.neighbors(g, j).index(i)
            assert np.array_equal(states[j].x_neigh[i], blocks[slots.edge_slot[e]])
            # j holds the pair of the reverse edge (i, j)
            assert edges[slots.rev[e]] == (i, j)
            assert np.array_equal(states[j].z_in_self[i], pairs[slots.rev[e], 1])
        assert np.array_equal(slots.rev[slots.rev], np.arange(len(edges)))
        assert np.array_equal(slots.sender[slots.rev], slots.receiver)
        assert np.array_equal(slots.receiver[slots.rev], slots.sender)
        # every slot holds its owner's variable
        owned = rm.node_states(g, n, np.repeat(slots.owner, n).astype(float), z)
        for j, st in enumerate(owned):
            assert (st.x_self == j).all()
            assert all((copy == i).all() for i, copy in st.x_neigh.items())
