import numpy as np
import pytest

import radmm as rm


@pytest.fixture(scope="session")
def ten_node_problem():
    """The canonical desk-scale instance shared by slower tests."""
    g = rm.generate_connected_rgg(10, 0.35, seed=7)
    p = rm.generate_instance(g, n=2, r_rows=3, seed=11)
    return p


@pytest.fixture(scope="session")
def ten_node_solution(ten_node_problem):
    return rm.solve_centralized(ten_node_problem)


@pytest.fixture
def path3_problem():
    """Path 0-1-2 with a hand-checkable quadratic on each node."""
    g = rm.Graph(node_count=3, edges=frozenset({(0, 1), (1, 2)}))
    return rm.generate_instance(g, n=2, r_rows=3, seed=5)


def make_instances(count, seed0=1000, dim=2):
    """Random connected instances with 4..10 nodes."""
    out = []
    for t in range(count):
        n_nodes = 4 + (t % 7)
        g = rm.generate_connected_rgg(n_nodes, 0.45, seed=seed0 + t)
        p = rm.generate_instance(g, n=dim, r_rows=3, seed=seed0 + 100 + t)
        out.append(p)
    return out


def random_node_state(rng, n, nbrs):
    return rm.NodeState(
        x_self=rng.standard_normal(n),
        x_neigh={j: rng.standard_normal(n) for j in nbrs},
        z_in_self={j: rng.standard_normal(n) for j in nbrs},
        z_in_neigh={j: rng.standard_normal(n) for j in nbrs},
    )


def random_states(rng, p):
    return [
        random_node_state(rng, p.dim, rm.neighbors(p.graph, i))
        for i in range(p.graph.node_count)
    ]


def local_objective(cost, z_in_self, z_in_neigh, params, v):
    """The round objective a node minimizes, built from first principles.

    Evaluates f plus the linear coupling and quadratic penalty directly from
    the definition, independent of the closed-form solver's assembly.
    """
    n = cost.dim
    order = cost.neighbors
    x_self = v[:n]
    x_neigh = {j: v[n * (t + 1) : n * (t + 2)] for t, j in enumerate(order)}
    val = rm.evaluate_local(cost, x_self, x_neigh)
    z_sum = sum(z_in_self[j] for j in order) if order else np.zeros(n)
    val -= float(z_sum @ x_self)
    for j in order:
        val -= float(z_in_neigh[j] @ x_neigh[j])
    deg = len(order)
    val += 0.5 * params.rho * deg * float(x_self @ x_self)
    for j in order:
        val += 0.5 * params.rho * float(x_neigh[j] @ x_neigh[j])
    return val


def central_fd_gradient(fun, x, h=1e-5):
    """Central finite differences; exact up to roundoff on quadratics."""
    grad = np.zeros_like(x)
    for c in range(len(x)):
        e = np.zeros_like(x)
        e[c] = h
        grad[c] = (fun(x + e) - fun(x - e)) / (2 * h)
    return grad
