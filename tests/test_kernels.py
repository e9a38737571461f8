from collections import deque

import numpy as np
import pytest

import homsample as hs
from homsample import _kernels

from util import dense_laplacian, random_graph


def bfs_labels_reference(g):
    """Pure-Python BFS; components numbered in scan order of their first node."""
    labels = [-1] * g.n
    count = 0
    for root in range(g.n):
        if labels[root] >= 0:
            continue
        labels[root] = count
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for w in g.neighbors(v).tolist():
                if labels[w] < 0:
                    labels[w] = count
                    queue.append(w)
        count += 1
    return count, labels


def greedy_order_reference(g, n_remove):
    """Resimulate every step: recount live degrees, delete the (degree, index) minimum."""
    alive = set(range(g.n))
    nbrs = [set(g.neighbors(v).tolist()) for v in range(g.n)]
    order = []
    for _ in range(n_remove):
        v = min(alive, key=lambda u: (len(nbrs[u] & alive), u))
        order.append(v)
        alive.remove(v)
    return order


def test_edge_distance_sum_matches_dense_trace():
    rng = np.random.default_rng(1)
    big = random_graph(rng, 400, 0.5)  # ~40k undirected edges > chunk size
    assert big.m > _kernels._CHUNK
    for g in [big, hs.build_graph([], n=1), random_graph(rng, 30, 0.0), random_graph(rng, 60, 0.2)]:
        x = rng.standard_normal((g.n, 3))
        dense = float(np.trace(x.T @ dense_laplacian(g) @ x))  # tr(X^T L X)
        got = _kernels.edge_distance_sum(*g.edges(), x)
        assert got == pytest.approx(dense, rel=1e-9, abs=1e-12)


def test_edge_distance_sum_wide_features_span_several_chunks():
    rng = np.random.default_rng(5)
    g = random_graph(rng, 300, 0.5)  # ~22k undirected edges
    x = rng.standard_normal((g.n, 64))
    assert g.m > _kernels._chunk_rows(64)
    dense = float(np.trace(x.T @ dense_laplacian(g) @ x))
    got = _kernels.edge_distance_sum(*g.edges(), x)
    assert got == pytest.approx(dense, rel=1e-9)


def test_component_labels_match_bfs_on_random_graphs():
    rng = np.random.default_rng(2)
    for _ in range(30):
        n = int(rng.integers(1, 150))
        g = random_graph(rng, n, rng.uniform(0.0, 3.0 / n))  # from isolated to one piece
        count, labels = _kernels.component_labels(g.n, *g.edges())
        ref_count, ref_labels = bfs_labels_reference(g)
        assert count == ref_count
        assert labels.dtype == np.int64
        assert labels.tolist() == ref_labels


def test_component_labels_many_components_and_deep_chains():
    rng = np.random.default_rng(3)
    # many components: short paths and isolated nodes under shuffled ids
    n = 3000
    perm = rng.permutation(n)
    pairs = [(perm[i], perm[i + 1]) for i in range(n - 1) if i % 7 != 6]
    g = hs.build_graph(pairs, n=n)
    count, labels = _kernels.component_labels(g.n, *g.edges())
    ref_count, ref_labels = bfs_labels_reference(g)
    assert count == ref_count > 400
    assert labels.tolist() == ref_labels
    # one long path whose node ids are shuffled: parent pointers form deep chains
    n = 5000
    perm = rng.permutation(n)
    g = hs.build_graph(np.column_stack([perm[:-1], perm[1:]]), n=n)
    count, labels = _kernels.component_labels(g.n, *g.edges())
    assert count == 1
    assert not labels.any()


def test_greedy_order_matches_resimulation():
    rng = np.random.default_rng(4)
    graphs = [
        hs.build_graph([(i, (i + 1) % 200) for i in range(200)]),  # all degrees tie
        hs.build_graph([(i, j) for i in range(12) for j in range(12, 24)]),  # K_{12,12}
        hs.build_graph([], n=5),
    ]
    for _ in range(12):
        n = int(rng.integers(3, 200))
        graphs.append(random_graph(rng, n, rng.uniform(0.5, 6.0) / n))
    for g in graphs:
        k = g.n - 1
        got = _kernels.greedy_min_degree_order(g.indptr, g.indices, k)
        assert got.dtype == np.int64
        assert got.tolist() == greedy_order_reference(g, k)
    g = graphs[0]
    assert _kernels.greedy_min_degree_order(g.indptr, g.indices, 0).size == 0


def test_greedy_order_at_each_budget_is_a_prefix_of_the_largest():
    rng = np.random.default_rng(6)
    graphs = [
        hs.build_graph([], n=1),
        hs.build_graph([], n=7),  # m = 0: every degree ties
        hs.build_graph([(i, (i + 1) % 40) for i in range(40)]),  # cycle: all degrees tie
        hs.build_graph([(0, 1), (1, 2), (2, 0)], n=9),  # a triangle and six isolated nodes
    ]
    for _ in range(20):
        n = int(rng.integers(2, 120))
        graphs.append(random_graph(rng, n, rng.uniform(0.0, 6.0) / n))
    for g in graphs:
        full = _kernels.greedy_min_degree_order(g.indptr, g.indices, g.n)
        assert sorted(full.tolist()) == list(range(g.n))
        for k in range(g.n + 1):
            got = _kernels.greedy_min_degree_order(g.indptr, g.indices, k)
            assert got.tolist() == full[:k].tolist()
