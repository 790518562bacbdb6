"""Batched runs: every run of a batch against the node-local spec, bit for bit,
and the batched Monte Carlo, CLI and sweep against per-run loops."""

import json
import tracemalloc

import numpy as np
import pytest

import radmm as rm
import radmm.cli as cli
import radmm.engine as engine_module
import radmm.experiments as experiments
from radmm.config import build_graph, build_problem, load_config
from radmm.engine import _StackedEngine
from radmm.experiments import _sub_seed
from conftest import make_instances
from test_engine import assert_trace_matches_spec, spec_run, table_model


def assert_rows_match_spec(p, rows, k_max):
    """Run the (schedule, alpha, rho, stop_tol) rows as one batch on one
    engine and compare each with the spec at its own alpha and rho."""
    sol = rm.solve_centralized(p)
    engine = _StackedEngine(p, [rho for _, _, rho, _ in rows], sol)
    traces = engine.run(rows, k_max, record_states=True)
    assert len(traces) == len(rows)
    for tr, (schedule, alpha, rho, tol) in zip(traces, rows):
        params = rm.AlgorithmParams(alpha, rho)
        assert_trace_matches_spec(p, tr, spec_run(p, params, schedule, k_max, sol, tol))
    return traces


def assert_batch_matches_spec(p, params, schedules, tols, k_max):
    rows = [(s, params.alpha, params.rho, tol) for s, tol in zip(schedules, tols)]
    return assert_rows_match_spec(p, rows, k_max)


def uniform(p, loss_p, seed):
    return rm.LossSchedule(model=rm.LossModel.uniform(p.graph, loss_p), seed=seed)


@pytest.mark.parametrize("which", ["fig1", "random"])
def test_mixed_batch_equals_spec(ten_node_problem, which):
    # p = 0 (twice: loss-free runs share a row), p in {0.2, 0.6}, a per-edge
    # table and None, with stop tolerances that end the runs on different
    # rounds, so rows are dropped while others go on
    p = ten_node_problem if which == "fig1" else make_instances(3, seed0=4300)[2]
    schedules = [
        uniform(p, 0.0, 1),
        uniform(p, 0.2, 2),
        rm.LossSchedule(model=table_model(p.graph, 3), seed=4),
        uniform(p, 0.6, 5),
        None,
        uniform(p, 0.0, 6),
        uniform(p, 0.2, 7),
        uniform(p, 0.6, 8),
    ]
    tols = [1e-6, 1e-4, 1e-5, 1e-3, 1e-3, 1e-6, None, 1e-6]
    traces = assert_batch_matches_spec(p, rm.AlgorithmParams(0.75, 3.0), schedules, tols, 250)
    rounds = [tr.rounds_executed for tr in traces]
    assert len(set(rounds)) >= 5
    assert max(rounds) == 250  # the run without a tolerance reaches k_max


def test_batch_diverging_on_different_rounds(ten_node_problem):
    p = ten_node_problem
    schedules = [uniform(p, loss_p, 10 + r) for r, loss_p in enumerate([0.0, 0.2, 0.4, 0.6, 0.2])]
    tols = [None, 1e-4, None, 1e-4, None]
    traces = assert_batch_matches_spec(p, rm.AlgorithmParams(1.6, 3.0), schedules, tols, 4000)
    assert all(tr.diverged for tr in traces)
    assert len({tr.rounds_executed for tr in traces}) == len(traces)


def record_draws(monkeypatch):
    """Replace the engine's draw_block by a wrapper that records each call's
    (first round, rounds, schedules) and checks that its two stacks are
    (schedules, edges) arrays of one shape."""
    draws, draw = [], engine_module.draw_block

    def recording(bases, thresholds, k0, rounds):
        assert bases.shape == thresholds.shape and bases.ndim == 2
        draws.append((k0, rounds, len(bases)))
        return draw(bases, thresholds, k0, rounds)

    monkeypatch.setattr(engine_module, "draw_block", recording)
    return draws


def record_engines(monkeypatch, *modules):
    """Replace `_StackedEngine` in modules by a subclass that records the
    arguments of each engine built and the (alpha, rho) of each row of each
    batch run."""
    built, batches = [], []

    class CountingEngine(_StackedEngine):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

        def run(self, rows, *args, **kwargs):
            batches.append([(alpha, rho) for _, alpha, rho, _ in rows])
            return super().run(rows, *args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, "_StackedEngine", CountingEngine)
    return built, batches


def record_error_rows(monkeypatch):
    """Replace the engine's _error_sum by a wrapper that records the rows of
    each round it scores."""
    counts, error_sum = [], engine_module._error_sum

    def counting(x, *args):
        counts.append(len(x) if x.ndim > 1 else 1)
        return error_sum(x, *args)

    monkeypatch.setattr(engine_module, "_error_sum", counting)
    return counts


def mid_chunk_rows(p):
    return [
        (uniform(p, 0.2, 31), 0.75, 3.0, 1e-3),
        (uniform(p, 0.0, 32), 0.75, 3.0, 1e-5),
        (uniform(p, 0.4, 33), 0.75, 3.0, 1e-4),
        (uniform(p, 0.6, 34), 0.75, 3.0, None),
        (uniform(p, 0.2, 35), 0.75, 3.0, 1e-5),
        (None, 0.75, 3.0, None),
        (uniform(p, 0.6, 36), 0.75, 3.0, 1e-3),
    ]


def assert_each_run_alone(traces, alone):
    # both sides recorded with record_states: x every round and the last z
    assert len(traces) == len(alone)
    for tr, want in zip(traces, alone):
        assert tr.errors.tobytes() == want.errors.tobytes()
        assert (tr.rounds_executed, tr.diverged) == (want.rounds_executed, want.diverged)
        assert tr.xs.tobytes() == want.xs.tobytes()
        assert tr.z.tobytes() == want.z.tobytes()


def runs_alone(p, rows, k_max, sol):
    return [rm.run(p, rm.AlgorithmParams(alpha, rho), schedule, k_max, solution=sol, stop_tol=tol,
                   record_states=True)
            for schedule, alpha, rho, tol in rows]


def mixed_settings_rows(p):
    # lossy and loss-free rows at two alphas, two rhos and tolerances None,
    # 1e-6 and 1e-4, listed across the rhos so that the engine's (rho, run)
    # order differs from this one; rows 0, 1, 2, 4 and 5 end inside the
    # second draw in an order that is not their row order, and rows 3 and 8
    # diverge by the |z| bound on the first _Z_CHECK_EVERY round
    return [
        (uniform(p, 0.2, 40), 0.75, 1.0, 1e-4),
        (None, 0.75, 3.0, 1e-6),
        (uniform(p, 0.4, 42), 0.75, 3.0, 1e-4),
        (uniform(p, 0.2, 0), 1.4, 1.0, None),
        (uniform(p, 0.2, 41), 0.75, 3.0, 1e-6),
        (uniform(p, 0.0, 43), 0.75, 1.0, 1e-4),
        (uniform(p, 0.6, 41), 0.75, 3.0, None),
        (uniform(p, 0.0, 44), 0.75, 3.0, 1e-4),
        (uniform(p, 0.2, 42), 1.4, 3.0, 1e-6),
    ]


def test_batch_stopping_mid_chunk_equals_each_run_alone(ten_node_problem, monkeypatch):
    # these runs stop inside the first and the second mask draw (their mask
    # rows are dropped from it), and k_max = 150 leaves a short last draw
    p = ten_node_problem
    sol = rm.solve_centralized(p)
    draws = record_draws(monkeypatch)
    for make_rows in (mid_chunk_rows, mixed_settings_rows):
        rows = make_rows(p)
        alone = runs_alone(p, rows, 150, sol)
        draws.clear()
        traces = _StackedEngine(p, [rho for _, _, rho, _ in rows], sol).run(
            rows, 150, record_states=True
        )
        assert_each_run_alone(traces, alone)
        # each draw covers the rounds that keep its hashes within the budget,
        # 1 to 64 and no further than k_max, and the draws tile the rounds
        edges = len(p.graph.directed_edges())
        for k0, rounds, lossy in draws:
            budget = engine_module._MASK_BYTES // (8 * lossy * edges)
            assert rounds == min(64, 150 - k0, max(1, budget))
        chunks = [(k0, k0 + rounds) for k0, rounds, _ in draws]
        assert [a for a, _ in chunks] == [0] + [b for _, b in chunks[:-1]]
        assert chunks[-1][1] == 150
        rounds = [tr.rounds_executed for tr in traces]
        (a0, b0), (a1, b1) = chunks[:2]
        assert any(a0 < r < b0 for r in rounds)  # a stop inside the first draw
        assert any(a1 < r < b1 for r in rounds)  # and inside the second
        assert max(rounds) == 150
    # in the engine's (rho, run) order, the mixed rows that end inside the
    # second draw do not end in row order
    rho_first = {rho: at for at, (_, _, rho, _) in reversed(list(enumerate(rows)))}
    order = sorted(range(len(rows)), key=lambda r: (rho_first[rows[r][2]], r))
    inside = [rounds[r] for r in order if a1 < rounds[r] < b1]
    assert len(inside) >= 3 and inside != sorted(inside)
    # and some run ends by the |z| bound alone: its x is still within it
    assert any(
        tr.diverged and tr.rounds_executed % engine_module._Z_CHECK_EVERY == 0
        and np.abs(tr.xs[-1]).max() < rm.DIVERGENCE_NORM <= np.abs(tr.z).max()
        for tr in traces
    )


@pytest.mark.parametrize("which", ["fig1", "random"])
def test_budgets_do_not_change_results(ten_node_problem, monkeypatch, which):
    # both byte budgets at 1: every draw covers one round of one row, and
    # every block holds one row; a mixed batch (lossy, loss-free, table and
    # None rows, stops on many rounds) is still bitwise each run alone
    p = ten_node_problem if which == "fig1" else make_instances(3, seed0=4300)[2]
    sol = rm.solve_centralized(p)
    rows = mid_chunk_rows(p) + [
        (rm.LossSchedule(model=table_model(p.graph, 3), seed=4), 0.75, 3.0, 1e-5),
        (uniform(p, 0.0, 6), 0.75, 3.0, None),
    ]
    alone = runs_alone(p, rows, 150, sol)
    monkeypatch.setattr(engine_module, "_MASK_BYTES", 1)
    monkeypatch.setattr(engine_module, "_BLOCK_BYTES", 1)
    draws = record_draws(monkeypatch)
    row_counts = record_error_rows(monkeypatch)
    traces = _StackedEngine(p, (3.0,), sol).run(rows, 150, record_states=True)
    assert_each_run_alone(traces, alone)
    assert {(rounds, lossy) for _, rounds, lossy in draws} == {(1, 1)}
    assert set(row_counts) == {1}
    assert len({tr.rounds_executed for tr in traces}) >= 4


def test_engine_working_set_is_bounded():
    # the peak allocation inside a run on a 100-node instance (966 directed
    # edges) does not grow with the rows or the mask draws of 64 rounds
    g = rm.generate_connected_rgg(100, 0.2, seed=7)
    p = rm.generate_instance(g, n=2, r_rows=3, seed=11)
    sol = rm.solve_centralized(p)
    engine = _StackedEngine(p, (3.0,), sol)
    model = rm.LossModel.uniform(g, 0.2)
    for runs, limit in ((1, 1 << 20), (64, 8 << 20)):
        rows = [(rm.LossSchedule(model=model, seed=r), 0.75, 3.0, None) for r in range(runs)]
        tracemalloc.start()
        try:
            traces = engine.run(rows, 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [tr.rounds_executed for tr in traces] == [64] * runs
        assert peak <= limit, (runs, peak)


def test_traces_hold_no_more_than_their_errors():
    # after a run at default arguments, what stays allocated is the traces'
    # error arrays: 16 lossy runs on a 100-node instance, 16 rounds
    g = rm.generate_connected_rgg(100, 0.2, seed=7)
    p = rm.generate_instance(g, n=2, r_rows=3, seed=7)
    sol = rm.solve_centralized(p)
    engine = _StackedEngine(p, (3.0,), sol)
    model = rm.LossModel.uniform(g, 0.2)
    rows = [(rm.LossSchedule(model=model, seed=r), 0.75, 3.0, None) for r in range(16)]
    tracemalloc.start()
    try:
        traces = engine.run(rows, 16)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 1 << 19, held
    assert [tr.rounds_executed for tr in traces] == [16] * 16
    assert all(tr.xs is None and tr.z is None for tr in traces)


def test_recorded_states_are_held_once():
    # with record_states, every recorded x is allocated once: 16 lossy runs
    # of 32 rounds on a 100-node instance peak within 1.5 times the xs their
    # traces hold (8.3 MiB)
    g = rm.generate_connected_rgg(100, 0.2, seed=7)
    p = rm.generate_instance(g, n=2, r_rows=3, seed=11)
    sol = rm.solve_centralized(p)
    engine = _StackedEngine(p, (3.0,), sol)
    model = rm.LossModel.uniform(g, 0.2)
    rows = [(rm.LossSchedule(model=model, seed=r), 0.75, 3.0, None) for r in range(16)]
    tracemalloc.start()
    try:
        traces = engine.run(rows, 32, record_states=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [tr.rounds_executed for tr in traces] == [32] * 16
    held = sum(tr.xs.nbytes for tr in traces)
    assert peak <= 1.5 * held, (peak, held)


def test_batch_mixing_divergence_convergence_and_k_max(ten_node_problem):
    # alpha = 1.3 at p = 0.6: some runs diverge within 240 rounds, others not
    p = ten_node_problem
    schedules = [uniform(p, loss_p, 20 + r) for r, loss_p in enumerate([0.6] * 4 + [0.0])]
    traces = assert_batch_matches_spec(
        p, rm.AlgorithmParams(1.3, 3.0), schedules, [1e-4] * 5, 240
    )
    assert any(tr.diverged for tr in traces)
    assert any(not tr.diverged and tr.rounds_executed == 240 for tr in traces)


def test_mixed_alpha_batch_equals_spec(ten_node_problem, monkeypatch):
    # one row per (alpha, p), its rho alternating between 3 and 1 in run
    # order: four loss-free rows at four alphas, which must not share a
    # row; one more loss-free run at (alpha, rho) = (0.75, 1) with the same
    # tol, which shares the row of (0.75, 1, p = 0); and one at
    # (0.75, 3), which does not
    p = ten_node_problem
    rows = [
        (uniform(p, loss_p, 50 + 3 * ia + ip), alpha, (3.0, 1.0)[(ia + ip) % 2],
         1e-4 if loss_p else 1e-6)
        for ia, alpha in enumerate([0.3, 0.75, 1.3, 1.6])
        for ip, loss_p in enumerate([0.0, 0.2, 0.6])
    ]
    rows += [(None, 0.75, 1.0, 1e-6), (None, 0.75, 3.0, 1e-6)]
    row_counts = record_error_rows(monkeypatch)
    traces = assert_rows_match_spec(p, rows, 200)
    assert row_counts[0] == len(rows) - 1
    assert traces[3].errors.tobytes() == traces[-2].errors.tobytes()
    assert traces[3].errors.tobytes() != traces[-1].errors.tobytes()
    # converged, diverged and still going at k_max all occur
    assert any(tr.diverged for tr in traces)
    assert any(not tr.diverged and tr.rounds_executed < 200 for tr in traces)
    assert any(not tr.diverged and tr.rounds_executed == 200 for tr in traces)


def test_shared_loss_free_runs_get_their_own_states(ten_node_problem, ten_node_solution):
    # two loss-free runs share one row, but not one array
    p = ten_node_problem
    a, b = _StackedEngine(p, (3.0,), ten_node_solution).run(
        [(None, 0.75, 3.0, None), (uniform(p, 0.0, 31), 0.75, 3.0, None)], 30,
        record_states=True,
    )
    fields = ("errors", "xs", "z")
    want = [getattr(b, name).tobytes() for name in fields]
    assert [getattr(a, name).tobytes() for name in fields] == want
    for name in fields:
        getattr(a, name)[:] = 7.0
    assert [getattr(b, name).tobytes() for name in fields] == want


def test_batch_argument_checks(ten_node_problem, monkeypatch):
    p = ten_node_problem
    sol = rm.solve_centralized(p)
    engine = _StackedEngine(p, (3.0,), sol)
    assert engine.run([], 10) == []
    with pytest.raises(ValueError):
        engine.run([(None, 0.75, 3.0, None)], 0)
    with pytest.raises(ValueError, match="rho"):  # a rho the engine was not built for
        engine.run([(None, 0.75, 3.0, None), (None, 0.75, 1.0, None)], 10)
    # loss-free rows draw nothing: without draw_block, they still run
    monkeypatch.setattr(engine_module, "draw_block", None)
    loss_free = [(None, 0.75, 3.0, None), (uniform(p, 0.0, 1), 0.3, 3.0, 1e-4)]
    assert [tr.rounds_executed for tr in engine.run(loss_free, 10)] == [10, 10]
    # a stop tolerance that is not positive is rejected before any round
    params = rm.AlgorithmParams(0.75, 3.0)
    for tol in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="stop_tol"):
            rm.run(p, params, uniform(p, 0.2, 1), 300, solution=sol, stop_tol=tol)
        with pytest.raises(ValueError, match="stop_tol"):
            rm.monte_carlo(p, params, 0.2, 3, 300, seed=1, solution=sol, stop_tol=tol)
    # every row is checked before any block runs: with one row a block, a
    # bad row in the last block raises before the first block's first round
    monkeypatch.setattr(engine_module, "_BLOCK_BYTES", 1)
    good = [(uniform(p, 0.2, seed), 0.75, 3.0, None) for seed in (1, 2)]
    with pytest.raises(TypeError):  # a round would call the missing draw_block
        engine.run(good, 10)
    other = make_instances(1, seed0=4300)[0]
    for bad, match in [
        ((uniform(p, 0.2, 3), 0.75, 1.0, None), "rho"),
        ((uniform(p, 0.2, 3), 0.75, 3.0, 0.0), "stop_tol"),
        ((uniform(p, 0.2, 3), 0.75, 3.0, float("nan")), "stop_tol"),
        ((uniform(other, 0.2, 3), 0.75, 3.0, None), "directed edges"),
    ]:
        with pytest.raises(ValueError, match=match):
            engine.run(good + [bad], 10)


@pytest.mark.parametrize("rho, alpha, message", [
    (float("inf"), 0.75, "rho must be positive and finite"),
    (float("nan"), 0.75, "rho must be positive and finite"),
    (-1.0, 0.75, "rho must be positive and finite"),
    (0.0, 0.75, "rho must be positive and finite"),
    (3.0, float("nan"), "alpha must be finite"),
    (3.0, float("inf"), "alpha must be finite"),
    (3.0, -float("inf"), "alpha must be finite"),
], ids=["rho-inf", "rho-nan", "rho-negative", "rho-zero", "alpha-nan", "alpha-inf",
        "alpha-minus-inf"])
def test_engine_checks_rho_and_alpha_as_algorithm_params_does(
    ten_node_problem, ten_node_solution, monkeypatch, rho, alpha, message
):
    # rho = inf used to warn of inf * 0, NaN and -1 to blame the cost with a
    # SingularLocalSystemError, and a NaN alpha ran and was reported diverged
    with pytest.raises(ValueError, match=message):
        rm.AlgorithmParams(alpha, rho)

    def no_work(*args):
        raise AssertionError("the engine computed before its arguments were checked")

    monkeypatch.setattr(_StackedEngine, "_run_block", no_work)
    if message.startswith("rho"):
        monkeypatch.setattr(rm.PartitionProblem, "local_blocks", no_work)
    with pytest.raises(ValueError, match=message):
        engine = _StackedEngine(ten_node_problem, (3.0, rho), ten_node_solution)
        engine.run([(None, 0.75, 3.0, None), (None, alpha, rho, None)], 5)


def test_monte_carlo_settings_equal_separate_calls(ten_node_problem, ten_node_solution, monkeypatch):
    # mixed (alpha, rho), one of them in two non-adjacent settings
    p, sol = ten_node_problem, ten_node_solution
    first, second, third = (rm.AlgorithmParams(a, r) for a, r in ((0.75, 3.0), (0.3, 1.0), (1.3, 3.0)))
    settings = [
        (first, 0.0, 1e-6),
        (second, 0.2, 1e-4),
        (first, rm.LossModel.from_table(p.graph, {e: 0.3 for e in p.graph.directed_edges()}), 1e-5),
        (third, 0.6, None),
        (first, 0.6, None),
    ]
    built, batches = record_engines(monkeypatch, experiments)
    batch = rm.monte_carlo_settings(p, settings, 5, 150, seed=40, solution=sol)
    # one engine, and one batch per (alpha, rho) in order of first appearance
    assert len(built) == 1
    assert batches == [[(0.75, 3.0)] * 15, [(0.3, 1.0)] * 5, [(1.3, 3.0)] * 5]
    for got, (params, loss, tol) in zip(batch, settings):
        want = rm.monte_carlo(p, params, loss, 5, 150, seed=40, solution=sol, stop_tol=tol)
        for name in ("mean", "low", "high"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert (got.diverged, got.runs) == (want.diverged, want.runs)


@pytest.mark.parametrize("runs", [2, 5])
def test_cli_run_batch_equals_per_loss_monte_carlo(tmp_path, runs):
    doc = {
        "schema": "radmm-config/1",
        "graph": {"nodes": 8, "radius": 0.5, "seed": 3, "require_connected": True},
        "instance": {"dim": 2, "rows": 3, "seed": 4},
        "params": {"alpha": [0.75, 1.0], "rho": 3.0},
        "loss": {"p": [0.0, 0.2, 0.4, 0.6], "seed": 5},
        "run": {"k_max": 300, "runs": runs},
        "output": {"prefix": "t"},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == cli.EXIT_OK
    cfg = load_config(str(path))
    p = build_problem(cfg, build_graph(cfg.graph))
    sol = rm.solve_centralized(p)
    for alpha in (0.75, 1.0):
        for loss_p in doc["loss"]["p"]:
            mc = rm.monte_carlo(
                p, rm.AlgorithmParams(alpha, 3.0), loss_p, runs, 300, 5,
                solution=sol, stop_tol=cfg.run.resolved_tol(loss_p),
            )
            text = (tmp_path / "o" / f"t_trace_a{alpha!r}_p{loss_p!r}.csv").read_text()
            assert text == rm.monte_carlo_to_csv(mc)


def reference_sweep(p, rho_grid, alpha_grid, loss_grid, runs, k_max, seed, tol):
    """Run by run, stopping a cell at its first run that does not converge."""
    sol = rm.solve_centralized(p)
    outcomes, medians = {}, {}
    for ir, rho in enumerate(rho_grid):
        for ia, alpha in enumerate(alpha_grid):
            for ip, loss_p in enumerate(loss_grid):
                cell, outcome, rounds = (rho, alpha, loss_p), "converged", []
                for r in range(runs):
                    sched = uniform(p, loss_p, _sub_seed(seed, ir, ia, ip, r))
                    tr = rm.run(p, rm.AlgorithmParams(alpha, rho), sched, k_max,
                                solution=sol, stop_tol=tol)
                    if tr.diverged:
                        outcome = "diverged"
                        break
                    at = rm.detect_convergence(tr, tol)
                    if at is None:
                        outcome = "undecided"
                        break
                    rounds.append(at)
                outcomes[cell] = outcome
                medians[cell] = float(np.median(rounds)) if outcome == "converged" else None
    return outcomes, medians


def test_sweep_equals_per_run_reference(ten_node_problem):
    # two rhos: the rho index enters the run seeds, and the grid is one batch
    grid = dict(rho_grid=[3.0, 1.0], alpha_grid=[0.1, 0.75, 1.3], loss_grid=[0.0, 0.6])
    args = dict(runs=4, k_max=240, seed=75, tol=1e-4)
    result = rm.stability_sweep(ten_node_problem, **grid, **args)
    outcomes, medians = reference_sweep(ten_node_problem, *grid.values(), *args.values())
    assert result.outcomes == outcomes
    assert result.converged_at == medians
    assert set(outcomes.values()) == {"converged", "diverged", "undecided"}
    # runs 0, 1 and 3 of this cell diverge while run 2 is still going at
    # k_max: the first run in run order that does not converge decides
    assert outcomes[(3.0, 1.3, 0.6)] == "diverged"


def test_sweep_cell_takes_its_first_nonconverged_run(ten_node_problem, ten_node_solution):
    # the runs of cell (3.0, 1.2, 0.4) are undecided, undecided, diverged,
    # diverged: its outcome is its first non-converged run's, not "diverged
    # because some run diverged"
    p = ten_node_problem
    result = rm.stability_sweep(
        p, [3.0], [1.0, 1.1, 1.2, 1.3], [0.2, 0.4, 0.6], runs=4, k_max=240, seed=2
    )
    runs = [
        rm.run(p, rm.AlgorithmParams(1.2, 3.0), uniform(p, 0.4, _sub_seed(2, 0, 2, 1, r)), 240,
               solution=ten_node_solution, stop_tol=1e-4)
        for r in range(4)
    ]
    assert [tr.diverged for tr in runs] == [False, False, True, True]
    assert [rm.detect_convergence(tr, 1e-4) for tr in runs[:2]] == [None, None]
    assert result.outcomes[(3.0, 1.2, 0.4)] == "undecided"


def test_sweep_builds_one_engine(ten_node_problem, monkeypatch):
    built, _ = record_engines(monkeypatch, experiments)
    result = rm.stability_sweep(
        ten_node_problem, rho_grid=[3.0, 1.0], alpha_grid=[0.3, 0.75, 1.3],
        loss_grid=[0.0, 0.2], runs=2, k_max=60, seed=9,
    )
    assert len(result.grid) == 12
    assert len(built) == 1


@pytest.mark.parametrize("preset", ["fig3", "fig4"])
def test_cli_run_preset_builds_one_engine(tmp_path, monkeypatch, preset):
    # four (alpha, rho) of 100 runs each: one engine, one batch of 100 per (alpha, rho)
    built, batches = record_engines(monkeypatch, engine_module, experiments)
    assert cli.main(["run", "--preset", preset, "--out", str(tmp_path)]) == cli.EXIT_OK
    assert len(built) == 1
    assert [len(rows) for rows in batches] == [100] * 4
    assert all(len(set(rows)) == 1 for rows in batches)
    assert len({rows[0] for rows in batches}) == 4


@pytest.mark.parametrize("runs", [1, 3])
def test_cli_run_on_an_instance_computes_the_blocks_once(tmp_path, monkeypatch, runs):
    doc = {
        "schema": "radmm-config/1",
        "graph": {"nodes": 8, "radius": 0.5, "seed": 3, "require_connected": True},
        "instance": {"dim": 2, "rows": 3, "seed": 4},
        "params": {"alpha": [0.5, 0.75], "rho": [3.0, 1.0]},
        "loss": {"p": [0.0, 0.2], "seed": 5},
        "run": {"k_max": 100, "runs": runs},
        "output": {"prefix": "t"},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["generate", "--config", str(path), "--out", str(tmp_path)]) == cli.EXIT_OK
    calls, local_blocks = [], rm.PartitionProblem.local_blocks

    def counting(problem):
        calls.append(problem)
        return local_blocks(problem)

    monkeypatch.setattr(rm.PartitionProblem, "local_blocks", counting)
    built, batches = record_engines(monkeypatch, engine_module, experiments)
    argv = ["run", "--config", str(path), "--instance", str(tmp_path / "t_instance.json"),
            "--out", str(tmp_path / "o")]
    assert cli.main(argv) == cli.EXIT_OK
    assert len(calls) == 1
    assert len(built) == 1
    # one batch per (alpha, rho), of its loss values times the runs
    assert [len(rows) for rows in batches] == [2 * runs] * 4
    assert len({rows[0] for rows in batches}) == 4
