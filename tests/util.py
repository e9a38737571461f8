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


def conv_span_dimension(s, x, k_max):
    """Dimension of span{x, Sx, ..., S^(k_max-1) x} via SVD rank.

    ``s`` is any square matrix with ``s @ v`` and ``.shape``, dense or sparse.
    Columns are normalized before the rank computation so large |S| and
    deep powers cannot overflow; normalization does not change the span.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if s.shape != (x.shape[0], x.shape[0]):
        raise ValueError(f"signal has {x.shape[0]} entries, operator is {s.shape}")
    if np.linalg.norm(x) == 0.0:
        raise ValueError("zero signal spans nothing")
    cols = np.zeros((x.shape[0], k_max))
    v = x
    for k in range(k_max):
        nv = np.linalg.norm(v)
        if nv > 0.0:
            cols[:, k] = v / nv
        v = s @ cols[:, k]
    return int(np.linalg.matrix_rank(cols))


def loglog_slope(sizes, times):
    """Least-squares slope of log(time) against log(size)."""
    return float(np.polyfit(np.log(np.asarray(sizes, float)), np.log(np.asarray(times, float)), 1)[0])


def bench_table(rows):
    """One line of (m, d, t_compute) per bench row, for timing tests' failure messages."""
    return "\n".join(f"  m={r.m} d={r.d} t_compute={r.t_compute:.6f}s" for r in rows)
