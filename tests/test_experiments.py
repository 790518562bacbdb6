import math

import numpy as np
import pytest

import radmm as rm
import radmm.experiments as experiments
from radmm.lossy import splitmix64
from conftest import random_states


def test_relative_error_zero_at_optimum(ten_node_problem, ten_node_solution):
    p, sol = ten_node_problem, ten_node_solution
    states = []
    for i in range(p.graph.node_count):
        nbrs = rm.neighbors(p.graph, i)
        states.append(
            rm.NodeState(
                x_self=sol.x_star[i].copy(),
                x_neigh={j: sol.x_star[j].copy() for j in nbrs},
                z_in_self={j: np.zeros(2) for j in nbrs},
                z_in_neigh={j: np.zeros(2) for j in nbrs},
            )
        )
    assert rm.relative_error(states, sol) == 0.0


def test_relative_error_all_zero_states_is_node_count(ten_node_problem, ten_node_solution):
    states = rm.initial_states(ten_node_problem)
    err = rm.relative_error(states, ten_node_solution)
    assert err == pytest.approx(ten_node_problem.graph.node_count, rel=1e-12)


def test_relative_error_matches_hand_computation(ten_node_problem, ten_node_solution):
    # independent oracle: norm-ratio sum with plain Python arithmetic
    p, sol = ten_node_problem, ten_node_solution
    rng = np.random.default_rng(52)
    states = random_states(rng, p)
    expected = 0.0
    for i, st in enumerate(states):
        order = sorted(st.x_neigh)
        vec = list(st.x_self) + [v for j in order for v in st.x_neigh[j]]
        ref = list(sol.x_star[i]) + [v for j in order for v in sol.x_star[j]]
        num = math.sqrt(sum((a - b) ** 2 for a, b in zip(vec, ref)))
        den = math.sqrt(sum(b * b for b in ref))
        expected += num / den
    assert rm.relative_error(states, sol) == pytest.approx(expected, rel=1e-12)


def test_relative_error_rejects_zero_norm_block():
    g = rm.Graph(node_count=1, edges=frozenset())
    p = rm.generate_instance(g, n=2, r_rows=3, seed=1)
    sol = rm.Solution(x_star=[np.zeros(2)])
    with pytest.raises(ValueError):
        rm.relative_error(rm.initial_states(p), sol)


def test_detect_convergence_immediately_below():
    tr = rm.RunTrace(errors=np.array([1e-9, 1e-9]), diverged=False)
    assert rm.detect_convergence(tr, tol=1e-6) == 0


def test_detect_convergence_diverged_dominates():
    tr = rm.RunTrace(errors=np.array([1e-9]), diverged=True)
    assert rm.detect_convergence(tr, tol=1e-6) is None


def test_detect_convergence_undecided():
    tr = rm.RunTrace(errors=np.array([1.0, 0.5]), diverged=False)
    assert rm.detect_convergence(tr, tol=1e-6) is None


def test_detect_convergence_first_crossing():
    errors = np.array([1.0, 1e-7, 1.0, 1e-7, 1e-7, 1e-7])
    tr = rm.RunTrace(errors=errors, diverged=False)
    assert rm.detect_convergence(tr, tol=1e-6) == 1
    # NaN is never below tol; the round is a Python int
    tr = rm.RunTrace(errors=np.array([np.nan, 1.0, 1e-7, np.nan]), diverged=False)
    at = rm.detect_convergence(tr, tol=1e-6)
    assert at == 2 and type(at) is int


def test_detect_convergence_rejects_bad_args():
    tr = rm.RunTrace(errors=np.array([1.0]), diverged=False)
    with pytest.raises(ValueError):
        rm.detect_convergence(tr, tol=0.0)


def test_monte_carlo_single_run_equals_run(ten_node_problem, ten_node_solution):
    p, sol = ten_node_problem, ten_node_solution
    params = rm.AlgorithmParams(0.75, 3.0)
    mc = rm.monte_carlo(p, params, 0.3, runs=1, k_max=50, seed=9, solution=sol)
    sched = rm.LossSchedule(
        model=rm.LossModel.uniform(p.graph, 0.3),
        seed=splitmix64(splitmix64(0 + 9) + 0),  # h <- splitmix64(h + v) over (seed, r) = (9, 0)
    )
    tr = rm.run(p, params, sched, 50, solution=sol)
    assert np.array_equal(mc.mean, tr.errors)
    assert np.array_equal(mc.low, tr.errors)
    assert np.array_equal(mc.high, tr.errors)


def test_monte_carlo_lossless_runs_collapse(ten_node_problem, ten_node_solution):
    p, sol = ten_node_problem, ten_node_solution
    params = rm.AlgorithmParams(0.75, 3.0)
    mc = rm.monte_carlo(p, params, 0.0, runs=4, k_max=40, seed=9, solution=sol)
    assert np.array_equal(mc.mean, mc.low)
    assert np.array_equal(mc.mean, mc.high)
    tr = rm.run(p, params, None, 40, solution=sol)
    assert np.array_equal(mc.mean, tr.errors)


def test_monte_carlo_error_grows_with_loss(ten_node_problem, ten_node_solution):
    # more loss means slower decay of the mean error at a fixed round
    p, sol = ten_node_problem, ten_node_solution
    params = rm.AlgorithmParams(0.75, 3.0)
    k_probe = 40
    means = {}
    for loss_p in (0.2, 0.4, 0.6):
        mc = rm.monte_carlo(p, params, loss_p, runs=8, k_max=50, seed=33, solution=sol)
        means[loss_p] = mc.mean[k_probe]
    assert means[0.2] < means[0.4] < means[0.6]


def test_monte_carlo_bitwise_reproducible(ten_node_problem, ten_node_solution):
    p, sol = ten_node_problem, ten_node_solution
    params = rm.AlgorithmParams(0.75, 3.0)
    a = rm.monte_carlo(p, params, 0.4, runs=3, k_max=60, seed=5, solution=sol)
    b = rm.monte_carlo(p, params, 0.4, runs=3, k_max=60, seed=5, solution=sol)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.low, b.low)
    assert np.array_equal(a.high, b.high)


def test_monte_carlo_flags_divergence(ten_node_problem, ten_node_solution):
    p, sol = ten_node_problem, ten_node_solution
    mc = rm.monte_carlo(
        p, rm.AlgorithmParams(alpha=1.6, rho=3.0), 0.0, runs=2, k_max=2000, seed=3, solution=sol
    )
    assert mc.diverged


def test_sweep_small_grid(ten_node_problem):
    p = ten_node_problem
    result = rm.stability_sweep(
        p,
        rho_grid=[3.0],
        alpha_grid=[0.5, 0.75, 1.5],
        loss_grid=[0.0, 0.4],
        runs=2,
        k_max=3000,
        seed=60,
        tol=1e-4,
    )
    assert result.outcomes[(3.0, 0.5, 0.0)] == "converged"
    assert result.outcomes[(3.0, 0.75, 0.4)] == "converged"
    assert result.outcomes[(3.0, 1.5, 0.0)] == "diverged"
    assert result.outcomes[(3.0, 1.5, 0.4)] == "diverged"
    assert result.boundary[(3.0, 0.0)] == 0.75
    assert result.converged_at[(3.0, 0.5, 0.0)] is not None
    assert result.converged_at[(3.0, 1.5, 0.0)] is None


def test_sweep_boundary_stops_at_first_nonconverged(ten_node_problem):
    result = rm.stability_sweep(
        ten_node_problem,
        rho_grid=[3.0],
        alpha_grid=[1.5, 0.5],  # first cell diverges: convergent prefix is empty
        loss_grid=[0.0],
        runs=1,
        k_max=2000,
        seed=60,
        tol=1e-4,
    )
    assert result.boundary[(3.0, 0.0)] is None


def test_sweep_rejects_empty_or_invalid_grids(ten_node_problem):
    with pytest.raises(ValueError):
        rm.stability_sweep(ten_node_problem, [], [0.5], [0.0], 1, 10, 0)
    with pytest.raises(ValueError):
        rm.stability_sweep(ten_node_problem, [0.0], [0.5], [0.0], 1, 10, 0)
    with pytest.raises(ValueError, match="jobs"):
        rm.stability_sweep(ten_node_problem, [3.0], [0.5], [0.0], 1, 10, 0, jobs=0)
    # every (alpha, rho) is checked as AlgorithmParams checks it: a NaN alpha
    # used to run and report "diverged", and rho = inf reached the engine
    for rho, alpha in ((math.inf, 0.5), (math.nan, 0.5), (3.0, math.nan), (3.0, -math.inf)):
        with pytest.raises(ValueError, match="finite"):
            rm.stability_sweep(ten_node_problem, [rho], [alpha], [0.0], 1, 10, 0)
    # cells are keyed by value, so a repeat would report another cell's result
    for grids in (
        [[3.0, 3.0], [0.5], [0.0]],
        [[3.0], [0.5, 1.9, 0.5], [0.0]],
        [[3.0], [0.5], [0.0, 0.0]],
    ):
        with pytest.raises(ValueError, match="grid repeats a value"):
            rm.stability_sweep(ten_node_problem, *grids, 1, 10, 0)


def test_sweep_rejects_a_nonpositive_tol_before_any_run(ten_node_problem, monkeypatch):
    def engine(*args):
        raise AssertionError("the sweep started before its tol was checked")

    monkeypatch.setattr(experiments, "_StackedEngine", engine)
    for tol in (0.0, -1.0):
        with pytest.raises(ValueError, match="tol must be positive"):
            rm.stability_sweep(ten_node_problem, [3.0], [0.5], [0.0], 1, 10, 0, tol=tol)


def test_boundary_does_not_shrink_with_loss(ten_node_problem):
    # the empirical effect: loss slightly enlarges the stable step-size range
    result = rm.stability_sweep(
        ten_node_problem,
        rho_grid=[3.0],
        alpha_grid=[0.5, 0.75, 0.9, 1.0, 1.1],
        loss_grid=[0.0, 0.4],
        runs=2,
        k_max=4000,
        seed=62,
        tol=1e-4,
    )
    b0 = result.boundary[(3.0, 0.0)]
    b4 = result.boundary[(3.0, 0.4)]
    assert b0 is not None and b4 is not None
    assert b4 >= b0


def test_csv_writers(ten_node_problem, ten_node_solution):
    p, sol = ten_node_problem, ten_node_solution
    mc = rm.monte_carlo(p, rm.AlgorithmParams(0.75, 3.0), 0.2, runs=2, k_max=5, seed=4, solution=sol)
    text = rm.monte_carlo_to_csv(mc)
    lines = text.strip().split("\n")
    assert lines[0] == "k,mean_rel_error,min,max"
    assert len(lines) == 6

    sw = rm.stability_sweep(
        p, rho_grid=[3.0], alpha_grid=[0.75], loss_grid=[0.0], runs=1, k_max=2000, seed=1
    )
    stext = rm.sweep_to_csv(sw)
    slines = stext.strip().split("\n")
    assert slines[0] == "rho,alpha,p,outcome,converged_at_median"
    assert slines[1].startswith("3.0,0.75,0.0,converged,")
