import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import radmm as rm
from radmm.experiments import _sub_seed
from radmm.lossy import draw_block, splitmix64, stack_schedules


def small_graph():
    return rm.Graph(node_count=4, edges=frozenset({(0, 1), (1, 2), (2, 3), (0, 3)}))


def test_model_rejects_bad_probability():
    g = small_graph()
    with pytest.raises(ValueError):
        rm.LossModel.uniform(g, 1.5)
    with pytest.raises(ValueError):
        rm.LossModel.uniform(g, -0.1)


def test_table_must_cover_directed_edges_exactly():
    g = small_graph()
    table = {e: 0.1 for e in g.directed_edges()}
    rm.LossModel.from_table(g, table)  # exact cover is fine
    with pytest.raises(ValueError):
        rm.LossModel.from_table(g, {(0, 1): 0.1})
    extra = dict(table)
    extra[(1, 3)] = 0.2
    with pytest.raises(ValueError):
        rm.LossModel.from_table(g, extra)


def test_mask_covers_directed_edges():
    g = small_graph()
    sched = rm.LossSchedule(model=rm.LossModel.uniform(g, 0.5), seed=1)
    mask = rm.sample_mask(sched, 0)
    assert set(mask.delivered) == set(g.directed_edges())


def test_p0_delivers_everything():
    g = small_graph()
    sched = rm.LossSchedule(model=rm.LossModel.uniform(g, 0.0), seed=1)
    for k in (0, 1, 57, 1000):
        assert all(rm.sample_mask(sched, k).delivered.values())


def test_p1_delivers_nothing():
    g = small_graph()
    sched = rm.LossSchedule(model=rm.LossModel.uniform(g, 1.0), seed=1)
    for k in (0, 1, 57, 1000):
        assert not any(rm.sample_mask(sched, k).delivered.values())


def test_mask_reproducible_and_query_order_independent():
    g = small_graph()
    sched = rm.LossSchedule(model=rm.LossModel.uniform(g, 0.5), seed=77)
    late_first = rm.sample_mask(sched, 500)
    early = rm.sample_mask(sched, 3)
    again = rm.sample_mask(rm.LossSchedule(model=rm.LossModel.uniform(g, 0.5), seed=77), 500)
    assert late_first.delivered == again.delivered
    assert early.delivered == rm.sample_mask(sched, 3).delivered


@settings(max_examples=25, deadline=None)
@given(k=st.integers(min_value=0, max_value=10**9), seed=st.integers(0, 2**63 - 1))
def test_mask_pure_function_of_seed_and_round(k, seed):
    g = small_graph()
    a = rm.sample_mask(rm.LossSchedule(model=rm.LossModel.uniform(g, 0.3), seed=seed), k)
    b = rm.sample_mask(rm.LossSchedule(model=rm.LossModel.uniform(g, 0.3), seed=seed), k)
    assert a.delivered == b.delivered


def _loss_matrix(g, p, seed, rounds):
    sched = rm.LossSchedule(model=rm.LossModel.uniform(g, p), seed=seed)
    edges = g.directed_edges()
    out = np.zeros((rounds, len(edges)))
    for k in range(rounds):
        mask = rm.sample_mask(sched, k)
        out[k] = [0.0 if mask.delivered[e] else 1.0 for e in edges]
    return out


def test_empirical_loss_frequency():
    # 10^4 round-edge draws; +-0.01 is ~2.5 sigma, deterministic at this seed
    g = rm.Graph(node_count=2, edges=frozenset({(0, 1)}))
    losses = _loss_matrix(g, 0.2, seed=11, rounds=5000)
    freq = losses.mean()
    assert abs(freq - 0.2) < 0.01


def test_per_edge_probabilities_respected():
    g = rm.Graph(node_count=2, edges=frozenset({(0, 1)}))
    table = {(0, 1): 0.1, (1, 0): 0.6}
    sched = rm.LossSchedule(model=rm.LossModel.from_table(g, table), seed=5)
    lost = {e: 0 for e in table}
    rounds = 4000
    for k in range(rounds):
        mask = rm.sample_mask(sched, k)
        for e in table:
            lost[e] += 0 if mask.delivered[e] else 1
    assert abs(lost[(0, 1)] / rounds - 0.1) < 0.02
    assert abs(lost[(1, 0)] / rounds - 0.6) < 0.02


def test_cross_edge_independence_proxy():
    g = small_graph()
    losses = _loss_matrix(g, 0.3, seed=29, rounds=10000)
    corr = np.corrcoef(losses.T)
    off = corr[~np.eye(corr.shape[0], dtype=bool)]
    assert np.max(np.abs(off)) < 0.05


def test_round_to_round_independence_proxy():
    g = small_graph()
    losses = _loss_matrix(g, 0.3, seed=31, rounds=10000)
    for c in range(losses.shape[1]):
        x, y = losses[:-1, c], losses[1:, c]
        assert abs(np.corrcoef(x, y)[0, 1]) < 0.05


def test_directions_are_distinct_draws():
    g = rm.Graph(node_count=2, edges=frozenset({(0, 1)}))
    sched = rm.LossSchedule(model=rm.LossModel.uniform(g, 0.5), seed=3)
    saw_difference = False
    for k in range(200):
        mask = rm.sample_mask(sched, k)
        if mask.delivered[(0, 1)] != mask.delivered[(1, 0)]:
            saw_difference = True
            break
    assert saw_difference


def test_negative_round_rejected():
    g = small_graph()
    sched = rm.LossSchedule(model=rm.LossModel.uniform(g, 0.5), seed=1)
    with pytest.raises(ValueError):
        rm.sample_mask(sched, -1)


# --- delivery_array: the mask contract, on Python ints ----------------------


def fresh_draw(sched, k):
    """The (seed, round, edge) contract written out on Python ints: the top
    53 bits u of SplitMix64's (kE + e + 1)-th output from seed, and a packet
    delivered unless u < ceil(p 2**53)."""
    e_count, out = len(sched.edges), []
    for e, edge in enumerate(sched.edges):
        z = (sched.seed + (k * e_count + e + 1) * 0x9E3779B97F4A7C15) % 2**64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
        u = (z ^ (z >> 31)) >> 11
        out.append(u >= math.ceil(sched.model.probs[edge] * 2**53))
    return np.array(out, dtype=bool)


def test_splitmix64_reproduces_the_reference_stream():
    # SplitMix64's first three outputs from state 0 (Steele, Lea & Flood 2014)
    outputs = [splitmix64(i * 0x9E3779B97F4A7C15) for i in range(3)]
    assert outputs == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def mixed_graph():
    return rm.generate_connected_rgg(9, 0.5, seed=12)


@pytest.mark.parametrize("loss_p", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("seed", [0, 7, 2**63 + 11])
def test_delivery_array_equals_fresh_generator(loss_p, seed):
    g = mixed_graph()
    sched = rm.LossSchedule(model=rm.LossModel.uniform(g, loss_p), seed=seed)
    for k in range(1000):
        got = rm.delivery_array(sched, k)
        assert got.dtype == bool
        assert got.tobytes() == fresh_draw(sched, k).tobytes()


def test_delivery_array_per_edge_table_and_requery_order():
    g = mixed_graph()
    rng = np.random.default_rng(3)
    table = {e: float(rng.uniform(0.0, 1.0)) for e in g.directed_edges()}
    sched = rm.LossSchedule(model=rm.LossModel.from_table(g, table), seed=41)
    for k in range(1000):
        assert rm.delivery_array(sched, k).tobytes() == fresh_draw(sched, k).tobytes()
    last = 2**64 // len(sched.edges) - 1  # the largest valid round
    for k in (999, 0, 500, 3, 3, last, last // 2 + 5, 10**9, last - 1, 1):
        assert rm.delivery_array(sched, k).tobytes() == fresh_draw(sched, k).tobytes()


def test_delivery_array_edge_order_is_directed_edge_order():
    g = mixed_graph()
    sched = rm.LossSchedule(model=rm.LossModel.uniform(g, 0.5), seed=8)
    assert sched.edges == g.directed_edges()
    for k in (0, 9, 77):
        mask = rm.sample_mask(sched, k)
        assert list(mask.delivered) == list(g.directed_edges())
        assert list(mask.delivered.values()) == rm.delivery_array(sched, k).tolist()


def test_delivery_array_rejects_negative_round():
    sched = rm.LossSchedule(model=rm.LossModel.uniform(small_graph(), 0.5), seed=1)
    with pytest.raises(ValueError):
        rm.delivery_array(sched, -1)


# --- draw_block: chunks of rounds, the contract's bounds ----------------------


def test_single_rounds_in_random_order_equal_the_block():
    g = mixed_graph()
    rng = np.random.default_rng(5)
    table = {e: float(rng.uniform(0.0, 1.0)) for e in g.directed_edges()}
    schedules = [
        rm.LossSchedule(model=rm.LossModel.uniform(g, 0.3), seed=2),
        rm.LossSchedule(model=rm.LossModel.from_table(g, table), seed=2**64 - 1),
        rm.LossSchedule(model=rm.LossModel.uniform(g, 0.0), seed=9),
        rm.LossSchedule(model=rm.LossModel.uniform(g, 1.0), seed=9),
    ]
    for k0, rounds in ((0, 64), (3 * 64 + 5, 37), (10**12, 1)):
        block = draw_block(*stack_schedules(schedules), k0, rounds)
        assert block.shape == (len(schedules), rounds, len(g.directed_edges()))
        for s in rng.permutation(len(schedules)).tolist():
            for j in rng.permutation(rounds).tolist():
                got = rm.delivery_array(schedules[s], k0 + j)
                assert got.tobytes() == block[s, j].tobytes()
                assert got.tobytes() == fresh_draw(schedules[s], k0 + j).tobytes()


def test_none_rows_of_a_stack_are_zero_and_deliver_every_packet():
    g = mixed_graph()
    schedules = [rm.LossSchedule(model=rm.LossModel.uniform(g, 0.3), seed=2),
                 rm.LossSchedule(model=rm.LossModel.uniform(g, 0.6), seed=2**64 - 1)]
    bases, thresholds = stack_schedules([None, schedules[0], None, schedules[1]])
    assert bases.shape == thresholds.shape == (4, len(g.directed_edges()))
    assert not bases[[0, 2]].any() and not thresholds[[0, 2]].any()
    block = draw_block(bases, thresholds, 5, 40)
    assert block[[0, 2]].all()
    # the other rows draw what the same schedules stacked alone draw
    assert block[[1, 3]].tobytes() == draw_block(*stack_schedules(schedules), 5, 40).tobytes()
    for rows in (1, 3):
        bases, thresholds = stack_schedules([None] * rows)
        assert bases.shape == thresholds.shape == (rows, 0)
        assert bases.dtype == thresholds.dtype == np.uint64
    other = rm.LossSchedule(model=rm.LossModel.uniform(small_graph(), 0.3), seed=1)
    with pytest.raises(ValueError, match="same number of edges"):
        stack_schedules([schedules[0], None, other])


def test_masks_of_consecutive_derived_seeds_are_uncorrelated():
    # runs r and r + 1 of a Monte Carlo, seeded (seed, r) and (seed, r + 1)
    g = small_graph()
    model = rm.LossModel.uniform(g, 0.3)
    schedules = [rm.LossSchedule(model=model, seed=_sub_seed(23, r)) for r in range(5)]
    losses = ~draw_block(*stack_schedules(schedules), 0, 4000).reshape(len(schedules), -1)
    for r in range(len(schedules) - 1):
        corr = np.corrcoef(losses[r].astype(float), losses[r + 1].astype(float))[0, 1]
        assert abs(corr) < 0.05


def test_no_overflow_warning_at_the_largest_seed_and_round():
    g = mixed_graph()
    sched = rm.LossSchedule(model=rm.LossModel.uniform(g, 0.5), seed=2**64 - 1)
    last = 2**64 // len(sched.edges) - 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        block = draw_block(*stack_schedules([sched]), last - 63, 64)
        single = rm.delivery_array(sched, last)
    assert single.tobytes() == block[0, -1].tobytes() == fresh_draw(sched, last).tobytes()


def test_rounds_and_seeds_outside_the_contract_are_rejected():
    g = mixed_graph()
    sched = rm.LossSchedule(model=rm.LossModel.uniform(g, 0.5), seed=1)
    past = 2**64 // len(sched.edges)  # (past + 1) E > 2**64
    rm.delivery_array(sched, past - 1)
    with pytest.raises(ValueError):
        rm.delivery_array(sched, past)
    with pytest.raises(ValueError):
        draw_block(*stack_schedules([sched]), past - 10, 11)
    with pytest.raises(ValueError):
        draw_block(*stack_schedules([sched]), -1, 2)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError):
            rm.LossSchedule(model=rm.LossModel.uniform(g, 0.5), seed=seed)
    with pytest.raises(ValueError):
        _sub_seed(23, 2**64)
