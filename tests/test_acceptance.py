"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
The statistical criteria are deterministic: every random draw is seeded.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

import radmm as rm
from conftest import central_fd_gradient, local_objective, make_instances, random_node_state

ALPHAS = (0.25, 0.5, 0.75)
RHOS = (0.5, 3.0)


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} [{desc}]: FAIL")
        raise
    print(f"criterion {num:2d} [{desc}]: PASS")


def _seed64(*key):
    return int(np.random.SeedSequence(key).generate_state(1, np.uint64)[0])


@pytest.fixture(scope="module")
def suite_instances():
    problems = make_instances(20, seed0=1000)
    return [(p, rm.solve_centralized(p)) for p in problems]


@pytest.fixture(scope="module")
def ten_node(ten_node_problem, ten_node_solution):
    return ten_node_problem, ten_node_solution


@pytest.fixture(scope="module")
def lossy_convergence_rounds(ten_node):
    """Convergence round index per loss probability at alpha=0.75, rho=3."""
    p, sol = ten_node
    params = rm.AlgorithmParams(alpha=0.75, rho=3.0)
    tol = 1e-4
    rounds = {}
    lossless = rm.run(p, params, None, 20000, solution=sol, stop_tol=tol)
    at = rm.detect_convergence(lossless, tol)
    assert at is not None
    rounds[0.0] = [at] * 20  # loss-free dynamics carry no randomness
    for loss_p in (0.2, 0.4):
        model = rm.LossModel.uniform(p.graph, loss_p)
        per_seed = []
        for s in range(20):
            sched = rm.LossSchedule(model=model, seed=_seed64(9000, int(loss_p * 10), s))
            tr = rm.run(p, params, sched, 20000, solution=sol, stop_tol=tol)
            assert not tr.diverged
            per_seed.append(rm.detect_convergence(tr, tol))
        rounds[loss_p] = per_seed
    return rounds


def test_criterion_1_trajectory_equivalence(suite_instances):
    with criterion(1, "node-local rounds match the stacked reference"):
        t0 = time.perf_counter()
        worst = 0.0
        for t, (p, _) in enumerate(suite_instances):
            for alpha in ALPHAS:
                for rho in RHOS:
                    dev = rm.check_equivalence(
                        p, rm.AlgorithmParams(alpha, rho), k_max=50, seed=_seed64(100, t)
                    )
                    worst = max(worst, dev)
        elapsed = time.perf_counter() - t0
        assert worst < 1e-9, f"max deviation {worst}"
        assert elapsed < 10.0, f"equivalence suite took {elapsed:.1f}s"


def test_criterion_1_trajectory_equivalence_under_loss(suite_instances):
    with criterion(1, "node-local rounds match the stacked reference under loss"):
        worst = 0.0
        for t, (p, _) in enumerate(suite_instances):
            dev = rm.check_equivalence(
                p, rm.AlgorithmParams(0.75, 3.0), k_max=50, seed=_seed64(101, t), loss=0.3
            )
            worst = max(worst, dev)
        assert worst < 1e-9, f"max deviation {worst}"


def test_criterion_2_lossless_convergence(suite_instances):
    with criterion(2, "loss-free runs reach 1e-6 with consensus"):
        for p, sol in suite_instances:
            for alpha in ALPHAS:
                for rho in RHOS:
                    tr = rm.run(
                        p,
                        rm.AlgorithmParams(alpha, rho),
                        None,
                        5000,
                        solution=sol,
                        stop_tol=1e-6,
                        record_states=True,
                    )
                    assert not tr.diverged
                    assert tr.rounds_executed <= 5000
                    assert tr.errors[-1] < 1e-6, (alpha, rho, tr.errors[-1])
                    resid = rm.consensus_residual(p.graph, p.dim, tr.xs[-1])
                    assert resid < 1e-6, (alpha, rho, resid)


def test_criterion_3_lossy_convergence(lossy_convergence_rounds):
    with criterion(3, "all 40 lossy runs reach 1e-4 within 20000 rounds"):
        t0 = time.perf_counter()
        for loss_p in (0.2, 0.4):
            rounds = lossy_convergence_rounds[loss_p]
            assert len(rounds) == 20
            assert all(at is not None and at < 20000 for at in rounds)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0


def test_criterion_4_loss_slows_convergence(lossy_convergence_rounds):
    with criterion(4, "median convergence round grows with loss probability"):
        med = {p: np.median(lossy_convergence_rounds[p]) for p in (0.0, 0.2, 0.4)}
        assert med[0.0] < med[0.2] < med[0.4], med


def test_criterion_5_larger_step_usually_faster(suite_instances):
    with criterion(5, "alpha=0.75 at least as fast as alpha=0.5 on >=80%"):
        wins = 0
        for t, (p, sol) in enumerate(suite_instances):
            model = rm.LossModel.uniform(p.graph, 0.2)
            sched = rm.LossSchedule(model=model, seed=_seed64(7000, t))
            r75 = rm.run(
                p, rm.AlgorithmParams(0.75, 3.0), sched, 20000, solution=sol, stop_tol=1e-4
            ).rounds_executed
            r50 = rm.run(
                p, rm.AlgorithmParams(0.5, 3.0), sched, 20000, solution=sol, stop_tol=1e-4
            ).rounds_executed
            wins += r75 <= r50
        assert wins >= 16, f"{wins}/20"


def test_criterion_6_guaranteed_region_all_converge(ten_node):
    with criterion(6, "every (alpha in (0,1), rho>0, p) cell converges"):
        p, _ = ten_node
        result = rm.stability_sweep(
            p,
            rho_grid=[0.5, 1.0, 3.0, 5.0],
            alpha_grid=[round(0.1 * t, 1) for t in range(1, 10)],
            loss_grid=[0.0, 0.2, 0.4],
            runs=2,
            k_max=20000,
            seed=606,
            tol=1e-4,
        )
        bad = {cell: o for cell, o in result.outcomes.items() if o != "converged"}
        assert not bad, f"non-converged cells: {bad}"


def test_criterion_7_loss_statistics():
    with criterion(7, "loss frequency within 0.01 and cross-edge correlation < 0.05"):
        g = rm.Graph(node_count=4, edges=frozenset({(0, 1), (1, 2), (2, 3), (0, 3)}))
        sched = rm.LossSchedule(model=rm.LossModel.uniform(g, 0.2), seed=1234)
        edges = g.directed_edges()
        rounds = 10000 // len(edges)  # 1250 rounds x 8 directed edges = 10^4 draws
        losses = np.zeros((rounds, len(edges)))
        for k in range(rounds):
            mask = rm.sample_mask(sched, k)
            losses[k] = [0.0 if mask.delivered[e] else 1.0 for e in edges]
        assert losses.size == 10000
        assert abs(losses.mean() - 0.2) < 0.01, losses.mean()

        long = np.zeros((10000, len(edges)))
        sched2 = rm.LossSchedule(model=rm.LossModel.uniform(g, 0.3), seed=77)
        for k in range(10000):
            mask = rm.sample_mask(sched2, k)
            long[k] = [0.0 if mask.delivered[e] else 1.0 for e in edges]
        corr = np.corrcoef(long.T)
        off = corr[~np.eye(len(edges), dtype=bool)]
        assert np.max(np.abs(off)) < 0.05, np.max(np.abs(off))


def test_criterion_8_degenerate_gates(ten_node):
    with criterion(8, "p=1 freezes the run; p=0 is bitwise the loss-free run"):
        p, sol = ten_node
        params = rm.AlgorithmParams(alpha=0.75, rho=3.0)

        all_lost = rm.LossSchedule(model=rm.LossModel.uniform(p.graph, 1.0), seed=5)
        tr = rm.run(p, params, all_lost, 10, solution=sol, record_states=True)
        for k in range(1, tr.rounds_executed):
            assert np.array_equal(tr.xs[k], tr.xs[0])
        # z never moved off the all-zero start
        assert np.array_equal(tr.z, np.zeros_like(tr.z))

        none_lost = rm.LossSchedule(model=rm.LossModel.uniform(p.graph, 0.0), seed=5)
        a = rm.run(p, params, none_lost, 120, solution=sol, record_states=True)
        b = rm.run(p, params, None, 120, solution=sol, record_states=True)
        assert np.array_equal(a.errors, b.errors)
        assert np.array_equal(a.xs, b.xs)
        assert np.array_equal(a.z, b.z)


def test_criterion_9_x_update_stationarity(ten_node):
    with criterion(9, "x-update gradient < 1e-6 on 100 random states"):
        p, _ = ten_node
        rng = np.random.default_rng(909)
        count = 0
        while count < 100:
            i = count % p.graph.node_count
            cost = p.costs[i]
            params = rm.AlgorithmParams(alpha=0.75, rho=RHOS[count % 2])
            st = random_node_state(rng, p.dim, rm.neighbors(p.graph, i))
            x_self, x_neigh = rm.local_x_update(cost, st, params)
            v = np.concatenate([x_self] + [x_neigh[j] for j in sorted(x_neigh)])
            grad = central_fd_gradient(
                lambda u: local_objective(cost, st.z_in_self, st.z_in_neigh, params, u),
                v,
                h=1e-5,
            )
            assert np.linalg.norm(grad) < 1e-6, (i, np.linalg.norm(grad))
            count += 1


def test_criterion_10_centralized_oracle(ten_node):
    with criterion(10, "centralized optimum: tiny gradient, beats perturbations"):
        p, sol = ten_node
        flat = np.concatenate(sol.x_star)

        def cost_of(vec):
            xs = [vec[p.dim * i : p.dim * (i + 1)] for i in range(p.graph.node_count)]
            return rm.global_cost(p, xs)

        grad = central_fd_gradient(cost_of, flat, h=1e-4)
        assert np.linalg.norm(grad) < 1e-9, np.linalg.norm(grad)

        optimal_value = rm.global_cost(p, sol.x_star)
        rng = np.random.default_rng(1010)
        for _ in range(100):
            xs = [x + 0.3 * rng.standard_normal(p.dim) for x in sol.x_star]
            assert rm.global_cost(p, xs) >= optimal_value
