import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import radmm as rm


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


# --- delivery_array: one reused generator, same draws ---------------------------


def fresh_draw(sched, k):
    """The construction the (seed, round, edge) contract is written in."""
    gen = np.random.Generator(np.random.Philox(key=sched.seed, counter=k << 128))
    return gen.random(len(sched.edges)) >= np.array([sched.model.probs[e] for e in sched.edges])


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
    for k in (999, 0, 500, 3, 3, 2**64 + 5, 10**9, 1):
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
