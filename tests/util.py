"""Shared helpers and independent dense oracles for the test suite."""

import numpy as np

import homsample as hs


def random_edge_pairs(rng, n, p):
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.uniform(size=iu.size) < p
    return np.column_stack([iu[mask], ju[mask]])


def random_graph(rng, n, p):
    return hs.build_graph(random_edge_pairs(rng, n, p), n=n)


def adjacency_dense(g):
    """Dense adjacency matrix of a small graph."""
    a = np.zeros((g.n, g.n))
    u, v = g.edges()
    a[u, v] = 1.0
    a[v, u] = 1.0
    return a


def dense_laplacian(g):
    a = adjacency_dense(g)
    return np.diag(a.sum(axis=1)) - a


def normalize_reference(x):
    """Independent re-implementation of the feature standardization."""
    x = np.asarray(x, dtype=np.float64)
    n, d = x.shape
    out = np.zeros_like(x)
    for j in range(d):
        col = x[:, j]
        sigma = col.std()
        if sigma > 0:
            out[:, j] = (col - col.mean()) / (np.sqrt(d) * sigma)
    return out


def path_graph(n):
    return hs.build_graph([(i, i + 1) for i in range(n - 1)], n=n)


def complete_graph(n):
    return hs.build_graph([(i, j) for i in range(n) for j in range(i + 1, n)], n=n)
