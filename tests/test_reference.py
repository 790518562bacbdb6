import numpy as np
import pytest

import radmm as rm
import radmm.reference as reference
from radmm.core import stack_node_xs
from radmm.engine import _StackedEngine
from conftest import central_fd_gradient, make_instances


def test_single_edge_scalar_layout():
    # one edge, n = 1: four slots, one -1 per row, P swaps the two slot pairs
    g = rm.Graph(node_count=2, edges=frozenset({(0, 1)}))
    cm = rm.build_constraint_matrices(g, 1)
    assert cm.y_dim == 4
    assert cm.a.shape == (4, 4)
    assert np.array_equal(np.sort(np.count_nonzero(cm.a, axis=1)), np.ones(4))
    assert np.all(cm.a[cm.a != 0] == -1)
    expected_p = np.zeros((4, 4))
    # slot order: (0,1,own), (0,1,nbr), (1,0,own), (1,0,nbr)
    expected_p[0, 3] = expected_p[3, 0] = 1  # copies of node 0's variable
    expected_p[1, 2] = expected_p[2, 1] = 1  # copies of node 1's variable
    assert np.array_equal(cm.p, expected_p)


def test_edgeless_graph_empty_slot_space():
    g = rm.Graph(node_count=3, edges=frozenset())
    cm = rm.build_constraint_matrices(g, 2)
    assert cm.y_dim == 0
    assert cm.a.shape == (0, 6)


def test_constraint_matrix_structure_random_graph():
    g = rm.generate_connected_rgg(8, 0.45, seed=3)
    cm = rm.build_constraint_matrices(g, 1)
    assert np.allclose(cm.a.sum(axis=1), -1.0)
    assert np.array_equal(cm.p.T @ cm.p, np.eye(cm.y_dim))
    assert np.array_equal(cm.p @ cm.p, np.eye(cm.y_dim))
    assert np.all((cm.p == 0) | (cm.p == 1))
    assert np.array_equal(cm.p.sum(axis=0), np.ones(cm.y_dim))
    assert np.array_equal(cm.p.sum(axis=1), np.ones(cm.y_dim))


def test_permutation_involution_on_random_vectors():
    g = rm.generate_connected_rgg(7, 0.5, seed=6)
    cm = rm.build_constraint_matrices(g, 2)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(cm.y_dim)
    assert np.array_equal(cm.p @ (cm.p @ v), v)


def test_slot_count_matches_degree_sum(ten_node_problem):
    g = ten_node_problem.graph
    cm = rm.build_constraint_matrices(g, 2)
    assert cm.y_dim == 2 * 2 * sum(g.degree(i) for i in range(g.node_count))
    assert cm.x_dim == 2 * sum(g.degree(i) + 1 for i in range(g.node_count))


def test_reference_step_from_zero_z(ten_node_problem):
    p = ten_node_problem
    cm = rm.build_constraint_matrices(p.graph, p.dim)
    params = rm.AlgorithmParams(alpha=0.75, rho=3.0)
    rnd = rm.build_reference_round(p, cm, params)
    state = rm.reference_initial_state(cm, np.zeros(cm.y_dim))
    out = rm.reference_step(state, rnd)
    assert np.array_equal(out.y, np.zeros(cm.y_dim))
    assert np.array_equal(out.w, np.zeros(cm.y_dim))
    # x minimizes f + (rho/2)||Ax||^2: its gradient there must vanish
    def objective(x):
        xs = []
        for i in range(p.graph.node_count):
            base = cm.x_base[i]
            xs.append(x[base : base + p.dim])
        val = 0.0
        for i, cost in enumerate(p.costs):
            order = cost.neighbors
            base = cm.x_base[i]
            x_self = x[base : base + p.dim]
            x_nb = {
                j: x[base + p.dim * (t + 1) : base + p.dim * (t + 2)]
                for t, j in enumerate(order)
            }
            val += rm.evaluate_local(cost, x_self, x_nb)
        return val + 0.5 * params.rho * float((cm.a @ x) @ (cm.a @ x))

    grad = central_fd_gradient(objective, out.x, h=1e-5)
    assert np.linalg.norm(grad) < 1e-6
    assert np.allclose(out.z, -2 * params.alpha * params.rho * (cm.a @ out.x), atol=1e-14)


def test_reference_step_alpha_half_recovers_unrelaxed_update(ten_node_problem):
    p = ten_node_problem
    cm = rm.build_constraint_matrices(p.graph, p.dim)
    params = rm.AlgorithmParams(alpha=0.5, rho=2.0)
    rnd = rm.build_reference_round(p, cm, params)
    rng = np.random.default_rng(1)
    z = rng.standard_normal(cm.y_dim)
    out = rm.reference_step(rm.reference_initial_state(cm, z), rnd)
    expected = z / 2 - (cm.p @ z) / 2 - params.rho * (cm.a @ out.x)
    assert np.allclose(out.z, expected, atol=1e-12)


def test_reference_iterate_identities(ten_node_problem):
    # y lives in the consensus subspace and w + rho*y reconstructs z
    p = ten_node_problem
    cm = rm.build_constraint_matrices(p.graph, p.dim)
    params = rm.AlgorithmParams(alpha=0.75, rho=3.0)
    rnd = rm.build_reference_round(p, cm, params)
    rng = np.random.default_rng(2)
    state = rm.reference_initial_state(cm, rng.standard_normal(cm.y_dim))
    for _ in range(5):
        z_consumed = state.z
        state = rm.reference_step(state, rnd)
        assert np.max(np.abs(cm.p @ state.y - state.y)) < 1e-12
        assert np.max(np.abs((np.eye(cm.y_dim) - cm.p) @ state.y)) < 1e-12
        assert np.max(np.abs(state.w + params.rho * state.y - z_consumed)) < 1e-12


def test_check_equivalence_zero_rounds(ten_node_problem):
    dev = rm.check_equivalence(ten_node_problem, rm.AlgorithmParams(0.75, 3.0), 0, seed=5)
    assert dev == 0.0


def test_check_equivalence_edgeless():
    g = rm.Graph(node_count=3, edges=frozenset())
    p = rm.generate_instance(g, n=2, r_rows=3, seed=9)
    dev = rm.check_equivalence(p, rm.AlgorithmParams(0.6, 1.0), 10, seed=5)
    assert dev < 1e-12


def test_check_equivalence_connected_instance(ten_node_problem):
    dev = rm.check_equivalence(ten_node_problem, rm.AlgorithmParams(0.75, 3.0), 50, seed=99)
    assert dev < 1e-9


def test_check_equivalence_many_random_draws():
    # the rearrangement must match the stacked scheme for any admissible params
    rng = np.random.default_rng(321)
    problems = make_instances(10, seed0=4000)
    worst = 0.0
    for t, p in enumerate(problems):
        for _ in range(2):
            params = rm.AlgorithmParams(
                alpha=float(rng.uniform(0.05, 0.95)), rho=float(rng.uniform(0.05, 10.0))
            )
            dev = rm.check_equivalence(p, params, 30, seed=500 + t)
            worst = max(worst, dev)
    assert worst < 1e-9


def test_reference_converges_to_centralized_optimum(ten_node_problem, ten_node_solution):
    p, sol = ten_node_problem, ten_node_solution
    cm = rm.build_constraint_matrices(p.graph, p.dim)
    params = rm.AlgorithmParams(alpha=0.75, rho=3.0)
    rnd = rm.build_reference_round(p, cm, params)
    state = rm.reference_initial_state(cm, np.zeros(cm.y_dim))
    for _ in range(400):
        state = rm.reference_step(state, rnd)
    for i in range(p.graph.node_count):
        base = cm.x_base[i]
        assert np.allclose(state.x[base : base + p.dim], sol.x_star[i], atol=1e-7)



def test_check_equivalence_builds_the_round_once(ten_node_problem, monkeypatch):
    # the stacked system is assembled and factored once per call, whatever k_max
    calls = dict.fromkeys(["build_constraint_matrices", "build_reference_round", "reference_step"], 0)
    for name in calls:
        def counted(*args, _fn=getattr(reference, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(reference, name, counted)
    rm.check_equivalence(ten_node_problem, rm.AlgorithmParams(0.75, 3.0), k_max=50, seed=5, loss=0.3)
    assert calls == {"build_constraint_matrices": 1, "build_reference_round": 1, "reference_step": 50}


def test_singular_stacked_system_raises_when_the_round_is_built():
    # an isolated node whose one cost row cannot pin both of its coordinates
    g = rm.Graph(node_count=1, edges=frozenset())
    cost = rm.QuadraticLocalCost(maps=np.array([[[1.0, 0.0]]]), neighbors=(), b=np.ones(1),
                                 q=np.eye(1))
    p = rm.PartitionProblem(graph=g, costs=[cost], dim=2)
    cm = rm.build_constraint_matrices(g, p.dim)
    with pytest.raises(ValueError, match="singular"):
        rm.build_reference_round(p, cm, rm.AlgorithmParams(0.75, 3.0))

# --- lossy oracle --------------------------------------------------------------


def test_reference_step_complete_mask_equals_unmasked(ten_node_problem):
    p = ten_node_problem
    cm = rm.build_constraint_matrices(p.graph, p.dim)
    params = rm.AlgorithmParams(alpha=0.75, rho=3.0)
    rnd = rm.build_reference_round(p, cm, params)
    state = rm.reference_initial_state(cm, np.random.default_rng(3).standard_normal(cm.y_dim))
    a = rm.reference_step(state, rnd)
    b = rm.reference_step(state, rnd, rm.DeliveryMask.complete(p.graph))
    assert a.z.tobytes() == b.z.tobytes()
    assert a.x.tobytes() == b.x.tobytes()


def test_reference_step_lost_edge_keeps_its_slot_pair(ten_node_problem):
    p = ten_node_problem
    cm = rm.build_constraint_matrices(p.graph, p.dim)
    params = rm.AlgorithmParams(alpha=0.75, rho=3.0)
    rnd = rm.build_reference_round(p, cm, params)
    state = rm.reference_initial_state(cm, np.random.default_rng(4).standard_normal(cm.y_dim))
    lost = p.graph.directed_edges()[3]
    mask = rm.DeliveryMask(delivered={e: e != lost for e in p.graph.directed_edges()})
    full = rm.reference_step(state, rnd)
    gated = rm.reference_step(state, rnd, mask)
    base = cm.slot_base[lost]
    kept = np.zeros(cm.y_dim, dtype=bool)
    kept[base : base + 2 * p.dim] = True
    assert np.array_equal(gated.z[kept], state.z[kept])
    assert np.array_equal(gated.z[~kept], full.z[~kept])
    assert not np.array_equal(full.z[kept], state.z[kept])


@pytest.mark.parametrize("loss_p", [0.2, 0.6])
def test_check_equivalence_under_uniform_loss(loss_p):
    rng = np.random.default_rng(654)
    worst = 0.0
    for t, p in enumerate(make_instances(5, seed0=4300)):
        params = rm.AlgorithmParams(
            alpha=float(rng.uniform(0.05, 0.95)), rho=float(rng.uniform(0.05, 10.0))
        )
        worst = max(worst, rm.check_equivalence(p, params, 30, seed=700 + t, loss=loss_p))
    assert worst < 1e-9


def test_check_equivalence_under_per_edge_table(ten_node_problem):
    p = ten_node_problem
    rng = np.random.default_rng(655)
    model = rm.LossModel.from_table(
        p.graph, {e: float(rng.uniform(0.0, 0.9)) for e in p.graph.directed_edges()}
    )
    dev = rm.check_equivalence(p, rm.AlgorithmParams(0.75, 3.0), 50, seed=99, loss=model)
    assert dev < 1e-9


def test_lossy_lockstep_needs_the_gate(ten_node_problem):
    # without gating the stacked side drifts away: the lossy check has teeth
    p = ten_node_problem
    params = rm.AlgorithmParams(0.75, 3.0)
    cm = rm.build_constraint_matrices(p.graph, p.dim)
    rnd = rm.build_reference_round(p, cm, params)
    z0 = np.random.default_rng(99).standard_normal(cm.y_dim)
    ref = rm.reference_initial_state(cm, z0)
    states = rm.node_states(p.graph, p.dim, np.zeros(cm.x_dim), z0)
    sched = rm.LossSchedule(model=rm.LossModel.uniform(p.graph, 0.4), seed=99)
    dev = 0.0
    for k in range(10):
        ref = rm.reference_step(ref, rnd)
        states = rm.sync_round(states, p, params, rm.sample_mask(sched, k))
        dev = max(dev, float(np.max(np.abs(ref.x - np.concatenate([s.stacked_x() for s in states])))))
    assert dev > 1e-3


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_node_states_read_the_reference_slot_pairs(dim):
    rng = np.random.default_rng(656 + dim)
    edgeless = rm.Graph(node_count=3, edges=frozenset())
    for g in [edgeless] + [p.graph for p in make_instances(4, seed0=4500, dim=dim)]:
        cm = rm.build_constraint_matrices(g, dim)
        x, z = rng.standard_normal(cm.x_dim), rng.standard_normal(cm.y_dim)
        states = rm.node_states(g, dim, x, z)
        assert len(states) == g.node_count
        assert np.array_equal(stack_node_xs(states), x)
        for i, st in enumerate(states):
            assert np.array_equal(st.x_self, x[cm.x_base[i] : cm.x_base[i] + dim])
            assert sorted(st.z_in_self) == rm.neighbors(g, i)
            for j in rm.neighbors(g, i):
                base = cm.slot_base[(j, i)]
                assert np.array_equal(st.z_in_neigh[j], z[base : base + dim])
                assert np.array_equal(st.z_in_self[j], z[base + dim : base + 2 * dim])
        with pytest.raises(ValueError):
            rm.node_states(g, dim, np.append(x, 0.0), z)
        with pytest.raises(ValueError):
            rm.node_states(g, dim, x, np.append(z, 0.0))


@pytest.mark.parametrize("loss_p", [0.0, 0.3])
def test_engine_runs_the_oracle_round(ten_node_problem, loss_p):
    # run() and the dense stacked round from z = 0 under the same masks: the
    # iterates every round and the final z, read through the shared layout
    for p in [ten_node_problem] + make_instances(2, seed0=4600, dim=3):
        params = rm.AlgorithmParams(0.75, 3.0)
        sched = rm.LossSchedule(model=rm.LossModel.uniform(p.graph, loss_p), seed=57)
        tr = rm.run(p, params, sched, 50, record_states=True)
        assert tr.rounds_executed == 50 and not tr.diverged
        cm = rm.build_constraint_matrices(p.graph, p.dim)
        rnd = rm.build_reference_round(p, cm, params)
        ref = rm.reference_initial_state(cm, np.zeros(cm.y_dim))
        for k in range(50):
            ref = rm.reference_step(ref, rnd, rm.sample_mask(sched, k))
            assert np.max(np.abs(tr.xs[k] - ref.x)) < 1e-9
        assert np.max(np.abs(tr.z - ref.z)) < 1e-9


def first_moment(p, params, probs, rounds):
    """zeta after rounds steps of zeta <- zeta + Q (T zeta - zeta) from zero,
    with T one loss-free `reference_step` and Q each slot's delivery
    probability 1 - p_e, 2n slots per directed edge e."""
    cm = rm.build_constraint_matrices(p.graph, p.dim)
    rnd = rm.build_reference_round(p, cm, params)
    q = np.repeat([1.0 - probs[e] for e in p.graph.directed_edges()], 2 * p.dim)
    zeta = np.zeros(cm.y_dim)
    for _ in range(rounds):
        zeta = zeta + q * (rm.reference_step(rm.reference_initial_state(cm, zeta), rnd).z - zeta)
    return zeta


def test_mean_lossy_iterate_follows_the_first_moment_identity(ten_node_problem):
    # The round is affine in z, z' = z + D (T z - z), and the delivery
    # diagonal D of a round is drawn independently of z, so the mean iterate
    # follows zeta' = zeta + E[D] (T zeta - zeta) exactly. 1000 lossy runs of
    # the engine against it, within 5 standard errors per coordinate, on fig1's
    # instance under a per-edge table; no `sync_round` takes part.
    p, params = ten_node_problem, rm.AlgorithmParams(0.75, 3.0)
    edges = p.graph.directed_edges()
    probs = dict(zip(edges, np.random.default_rng(80).uniform(0.0, 0.6, len(edges))))
    model = rm.LossModel.from_table(p.graph, probs)
    rows = [(rm.LossSchedule(model=model, seed=r), 0.75, 3.0, None) for r in range(1000)]
    z = np.array([tr.z for tr in _StackedEngine(p, (3.0,)).run(rows, 20, record_states=True)])
    mean, sem = z.mean(axis=0), z.std(axis=0, ddof=1) / np.sqrt(len(z))
    assert sem.all()
    assert (np.abs(mean - first_moment(p, params, probs, 20)) < 5 * sem).all()
    # a mask applied to the reverse edge would fail it: the swapped table does
    swapped = {(i, j): probs[j, i] for i, j in edges}
    assert (np.abs(mean - first_moment(p, params, swapped, 20)) > 5 * sem).any()
