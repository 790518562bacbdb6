"""`run` (the stacked engine) against the node-local spec, bit for bit.

The spec is the loop `run` documents: from `initial_states`, per round
sample_mask, then sync_round, then relative_error, with the same divergence
and stop rules. Every comparison is on raw bytes, not within a tolerance.
"""

import numpy as np
import pytest

import radmm as rm
from radmm.core import stack_node_xs
from radmm.engine import _Z_CHECK_EVERY
from radmm.experiments import _sub_seed
from conftest import make_instances

ROUNDS = 120


def spec_run(p, params, schedule, k_max, sol, stop_tol=None):
    """The node-local loop with its stop rule: error trace, x per round (flat,
    in the `reference` layout), final states, diverged."""
    states = rm.initial_states(p)
    solvers = [rm.make_local_solver(c, params) for c in p.costs]
    complete = rm.DeliveryMask.complete(p.graph)
    errors, xs = [], []
    for k in range(k_max):
        mask = complete if schedule is None else rm.sample_mask(schedule, k)
        states = rm.sync_round(states, p, params, mask, solvers)
        err = rm.relative_error(states, sol)
        errors.append(err)
        xs.append(stack_node_xs(states))
        x_mag = np.max(np.abs(xs[-1]))
        if not (x_mag < rm.DIVERGENCE_NORM and err < np.inf):
            return np.array(errors), xs, states, True
        if (k + 1) % _Z_CHECK_EVERY == 0:
            z_mag = max(
                (np.max(np.abs(v))
                 for st in states
                 for d in (st.z_in_self, st.z_in_neigh)
                 for v in d.values()),
                default=0.0,  # a graph without edges has no z
            )
            if not z_mag < rm.DIVERGENCE_NORM:
                return np.array(errors), xs, states, True
        if stop_tol is not None and err < stop_tol:
            break
    return np.array(errors), xs, states, False


def assert_states_bitwise(a, b):
    assert len(a) == len(b)
    for sa, sb in zip(a, b):
        assert sa.x_self.tobytes() == sb.x_self.tobytes()
        for name in ("x_neigh", "z_in_self", "z_in_neigh"):
            da, db = getattr(sa, name), getattr(sb, name)
            assert list(da) == list(db)
            for j in da:
                assert da[j].tobytes() == db[j].tobytes(), (name, j)


def last_states(p, tr):
    """The node-local states of a trace recorded with record_states."""
    return rm.node_states(p.graph, p.dim, tr.xs[-1], tr.z)


def assert_trace_matches_spec(p, tr, spec):
    """tr (recorded with record_states) against spec_run's result, bit for
    bit: errors, rounds, diverged, x per round and final states."""
    errors, xs, states, diverged = spec
    assert tr.diverged == diverged
    assert tr.rounds_executed == len(errors)
    assert tr.errors.tobytes() == errors.tobytes()
    assert len(tr.xs) == len(xs)
    for k, want in enumerate(xs):
        assert tr.xs[k].tobytes() == want.tobytes(), k
    assert_states_bitwise(last_states(p, tr), states)


def assert_run_matches_spec(p, params, schedule, k_max):
    sol = rm.solve_centralized(p)
    tr = rm.run(p, params, schedule, k_max, solution=sol, record_states=True)
    assert_trace_matches_spec(p, tr, spec_run(p, params, schedule, k_max, sol))
    return tr


def table_model(g, seed):
    rng = np.random.default_rng(seed)
    return rm.LossModel.from_table(g, {e: float(rng.uniform(0.0, 0.7)) for e in g.directed_edges()})


@pytest.fixture(scope="module")
def random_instance():
    return make_instances(3, seed0=4200)[2]


@pytest.mark.parametrize("loss_p", [0.0, 0.2, 0.6])
def test_run_equals_spec_fig1_instance(ten_node_problem, loss_p):
    p = ten_node_problem
    sched = rm.LossSchedule(model=rm.LossModel.uniform(p.graph, loss_p), seed=17)
    assert_run_matches_spec(p, rm.AlgorithmParams(0.75, 3.0), sched, ROUNDS)


@pytest.mark.parametrize("loss_p", [0.0, 0.2, 0.6])
def test_run_equals_spec_random_instance(random_instance, loss_p):
    p = random_instance
    sched = rm.LossSchedule(model=rm.LossModel.uniform(p.graph, loss_p), seed=18)
    assert_run_matches_spec(p, rm.AlgorithmParams(0.5, 1.0), sched, ROUNDS)


@pytest.mark.parametrize("which", ["fig1", "random"])
def test_run_equals_spec_per_edge_table(ten_node_problem, random_instance, which):
    p = ten_node_problem if which == "fig1" else random_instance
    sched = rm.LossSchedule(model=table_model(p.graph, 19), seed=20)
    assert_run_matches_spec(p, rm.AlgorithmParams(0.75, 3.0), sched, ROUNDS)


def test_run_equals_spec_loss_free_schedule_none(ten_node_problem):
    assert_run_matches_spec(ten_node_problem, rm.AlgorithmParams(0.75, 3.0), None, ROUNDS)


@pytest.mark.parametrize("loss_p", [0.0, 0.2])
def test_run_diverges_on_the_spec_round(ten_node_problem, loss_p):
    p = ten_node_problem
    sched = rm.LossSchedule(model=rm.LossModel.uniform(p.graph, loss_p), seed=23)
    tr = assert_run_matches_spec(p, rm.AlgorithmParams(alpha=1.6, rho=3.0), sched, 4000)
    assert tr.diverged
    assert tr.rounds_executed < 4000


def test_run_stop_tol_ends_on_the_spec_round(ten_node_problem, ten_node_solution):
    p = ten_node_problem
    params = rm.AlgorithmParams(0.75, 3.0)
    sched = rm.LossSchedule(model=rm.LossModel.uniform(p.graph, 0.2), seed=24)
    errors, _, _, _ = spec_run(p, params, sched, 2000, ten_node_solution)
    first = int(np.argmax(errors < 1e-6))
    assert errors[first] < 1e-6
    tr = rm.run(p, params, sched, 2000, solution=ten_node_solution, stop_tol=1e-6)
    assert tr.rounds_executed == first + 1
    assert tr.errors.tobytes() == errors[: first + 1].tobytes()


def test_run_on_edgeless_graph_matches_spec():
    g = rm.Graph(node_count=3, edges=frozenset())
    costs = [
        rm.QuadraticLocalCost(maps=np.eye(2)[None], neighbors=(), b=np.array([1.0 + i, -2.0]),
                              q=np.eye(2))
        for i in range(3)
    ]
    p = rm.PartitionProblem(graph=g, costs=costs, dim=2)
    sched = rm.LossSchedule(model=rm.LossModel.uniform(g, 0.5), seed=25)
    assert_run_matches_spec(p, rm.AlgorithmParams(0.75, 3.0), sched, 5)


def test_run_schedule_missing_an_edge_is_rejected(ten_node_problem):
    p = ten_node_problem
    edges = p.graph.directed_edges()
    sched = rm.LossSchedule(model=rm.LossModel({e: 0.3 for e in edges[:-1]}), seed=26)
    with pytest.raises(ValueError):
        rm.run(p, rm.AlgorithmParams(0.75, 3.0), sched, 3)


def test_run_schedule_with_extra_edges_is_rejected(ten_node_problem):
    p = ten_node_problem
    probs = {e: 0.3 for e in p.graph.directed_edges()}
    probs[(0, 99)] = 0.5
    sched = rm.LossSchedule(model=rm.LossModel(probs), seed=27)
    with pytest.raises(ValueError):
        rm.run(p, rm.AlgorithmParams(0.75, 3.0), sched, 3)


def test_run_without_solution_scores_against_the_optimum(ten_node_problem):
    p = ten_node_problem
    params = rm.AlgorithmParams(0.75, 3.0)
    sched = rm.LossSchedule(model=rm.LossModel.uniform(p.graph, 0.2), seed=29)
    a = rm.run(p, params, sched, 150, stop_tol=1e-5, record_states=True)
    b = rm.run(p, params, sched, 150, solution=rm.solve_centralized(p), stop_tol=1e-5,
               record_states=True)
    assert (a.rounds_executed, a.diverged) == (b.rounds_executed, b.diverged)
    assert a.errors.tobytes() == b.errors.tobytes()
    assert_states_bitwise(last_states(p, a), last_states(p, b))


class _OpaqueCost:
    """A cost with a dim and neighbors, but no quadratic data."""

    def __init__(self, nbrs):
        self.dim = 2
        self.neighbors = tuple(nbrs)


def test_run_rejects_non_quadratic_cost():
    # the problem refuses such a cost, so no run is ever handed one
    g = rm.Graph(node_count=2, edges=frozenset({(0, 1)}))
    with pytest.raises(TypeError, match="node 0 has _OpaqueCost"):
        rm.PartitionProblem(graph=g, costs=[_OpaqueCost([1]), _OpaqueCost([0])], dim=2)


def test_relative_error_zero_norm_block_still_raises(ten_node_problem):
    p = ten_node_problem
    sol = rm.Solution(x_star=[np.zeros(p.dim)] * p.graph.node_count)
    with pytest.raises(ValueError, match="zero norm"):
        rm.relative_error(rm.initial_states(p), sol)
    with pytest.raises(ValueError, match="zero norm"):
        rm.run(p, rm.AlgorithmParams(0.75, 3.0), None, 3, solution=sol)


def test_monte_carlo_equals_mean_of_independent_runs(ten_node_problem, ten_node_solution):
    # the engine shared across runs carries nothing from one run to the next
    p = ten_node_problem
    params = rm.AlgorithmParams(0.75, 3.0)
    model = rm.LossModel.uniform(p.graph, 0.4)
    mc = rm.monte_carlo(p, params, model, 3, 60, seed=28, solution=ten_node_solution)
    traces = [
        rm.run(p, params, rm.LossSchedule(model=model, seed=_sub_seed(28, r)), 60,
               solution=ten_node_solution).errors
        for r in range(3)
    ]
    assert mc.mean.tobytes() == np.stack(traces).mean(axis=0).tobytes()
