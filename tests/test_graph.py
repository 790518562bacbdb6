import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import radmm as rm


def path_graph(n):
    return rm.Graph(node_count=n, edges=frozenset((i, i + 1) for i in range(n - 1)))


def test_rgg_deterministic():
    a = rm.generate_rgg(10, 0.3, seed=42)
    b = rm.generate_rgg(10, 0.3, seed=42)
    assert a.edges == b.edges
    assert np.array_equal(a.positions, b.positions)


def test_rgg_other_seed_differs():
    a = rm.generate_rgg(30, 0.3, seed=1)
    b = rm.generate_rgg(30, 0.3, seed=2)
    assert not np.array_equal(a.positions, b.positions)


def test_rgg_zero_radius_edgeless():
    g = rm.generate_rgg(8, 0.0, seed=3)
    assert g.edge_count == 0


def test_rgg_large_radius_complete():
    g = rm.generate_rgg(8, 1.5, seed=3)
    assert g.edge_count == 8 * 7 // 2


def test_rgg_edges_match_strict_distance_rule():
    # independent recomputation of the edge rule, pair by pair
    g = rm.generate_rgg(20, 0.25, seed=9)
    expected = set()
    for i in range(20):
        for j in range(i + 1, 20):
            if np.linalg.norm(g.positions[i] - g.positions[j]) < 0.25:
                expected.add((i, j))
    assert set(g.edges) == expected


@settings(max_examples=30, deadline=None)
@given(
    r1=st.floats(min_value=0.0, max_value=1.5),
    r2=st.floats(min_value=0.0, max_value=1.5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_rgg_edge_monotone_in_radius(r1, r2, seed):
    lo, hi = sorted([r1, r2])
    assert rm.generate_rgg(12, lo, seed).edges <= rm.generate_rgg(12, hi, seed).edges


def test_neighbors_path():
    g = path_graph(3)
    assert rm.neighbors(g, 1) == [0, 2]
    assert rm.neighbors(g, 0) == [1]


def test_neighbors_edgeless():
    g = rm.Graph(node_count=4, edges=frozenset())
    assert rm.neighbors(g, 2) == []


def test_neighbors_complete_k3():
    g = rm.Graph(node_count=3, edges=frozenset({(0, 1), (0, 2), (1, 2)}))
    assert rm.neighbors(g, 0) == [1, 2]


def test_neighbors_symmetric_exhaustive():
    g = rm.generate_rgg(15, 0.4, seed=21)
    for i in range(15):
        for j in range(15):
            assert (j in rm.neighbors(g, i)) == (i in rm.neighbors(g, j))


def test_neighbors_index_out_of_range():
    g = path_graph(3)
    with pytest.raises(IndexError):
        rm.neighbors(g, 3)
    with pytest.raises(IndexError):
        rm.neighbors(g, -1)


def test_is_connected_single_node():
    assert rm.is_connected(rm.Graph(node_count=1, edges=frozenset()))


def test_is_connected_two_isolated():
    assert not rm.is_connected(rm.Graph(node_count=2, edges=frozenset()))


def test_is_connected_path5():
    assert rm.is_connected(path_graph(5))


def test_graph_rejects_self_loop():
    with pytest.raises(ValueError):
        rm.Graph(node_count=3, edges=frozenset({(1, 1)}))


def test_graph_rejects_bad_edge_order():
    with pytest.raises(ValueError):
        rm.Graph(node_count=3, edges=frozenset({(2, 1)}))


def test_directed_edges_sorted_and_complete():
    g = path_graph(3)
    assert g.directed_edges() == ((0, 1), (1, 0), (1, 2), (2, 1))


def test_connected_rgg_is_connected_and_deterministic():
    a = rm.generate_connected_rgg(10, 0.35, seed=7)
    b = rm.generate_connected_rgg(10, 0.35, seed=7)
    assert rm.is_connected(a)
    assert a.edges == b.edges


def test_connected_rgg_cap_exceeded():
    with pytest.raises(rm.DisconnectedGraphError):
        rm.generate_connected_rgg(10, 0.01, seed=0, max_resamples=5)

