from collections import deque

import numpy as np
import pytest

import homsample as hs
from homsample import _kernels

from util import dense_laplacian, random_edge_pairs, random_graph


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
            for w in g.indices[g.indptr[v] : g.indptr[v + 1]].tolist():
                if labels[w] < 0:
                    labels[w] = count
                    queue.append(w)
        count += 1
    return count, labels


def greedy_order_reference(g, n_remove):
    """Resimulate every step: recount live degrees, delete the (degree, index) minimum."""
    alive = set(range(g.n))
    nbrs = [set(g.indices[g.indptr[v] : g.indptr[v + 1]].tolist()) for v in range(g.n)]
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


def _edge_distance_sum_2d_gather(u, v, x):
    """The kernel's earlier form: blocks of rows gathered by 2-d fancy indexing."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    rows = _kernels._chunk_rows(x.shape[1])
    total = 0.0
    for lo in range(0, u.shape[0], rows):
        diff = x[u[lo : lo + rows]] - x[v[lo : lo + rows]]
        total += float(np.einsum("ij,ij->", diff, diff))
    return total


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
@pytest.mark.parametrize("d", [1, 16, 1433])
def test_edge_distance_sum_equals_the_2d_gather_bit_for_bit(d, layout):
    rng = np.random.default_rng(d)
    n = 300
    x = rng.standard_normal((n, 2 * d)) * 1e3 + 1e6
    x = {"C": np.ascontiguousarray(x[:, :d]), "F": np.asfortranarray(x[:, :d]), "strided": x[:, ::2]}[layout]
    assert x.shape == (n, d)
    m = 3 * _kernels._chunk_rows(d) + 17  # several blocks, the last one partial
    u, v = rng.integers(0, n, m), rng.integers(0, n, m)
    assert _kernels.edge_distance_sum(u, v, x) == _edge_distance_sum_2d_gather(u, v, x)
    none = np.zeros(0, dtype=np.int64)
    assert _kernels.edge_distance_sum(none, none, x) == 0.0


def _component_labels_by_unique(n, u, v):
    """The labels' earlier numbering: hook-and-jump roots, then np.unique's inverse."""
    root = np.arange(n, dtype=np.int64)
    while True:
        hooked = root.copy()
        ru, rv = root[u], root[v]
        np.minimum.at(hooked, ru, rv)
        np.minimum.at(hooked, rv, ru)
        hooked = _kernels._jump(hooked)
        if np.array_equal(hooked, root):
            break
        root = hooked
    roots, labels = np.unique(root, return_inverse=True)
    return int(roots.size), labels.astype(np.int64, copy=False)


@pytest.mark.parametrize("n,p", [(1, 0.0), (7, 0.0), (50, 0.02), (200, 0.01), (200, 0.05), (400, 0.003)])
def test_component_labels_equal_the_unique_numbering(n, p):
    rng = np.random.default_rng(n + int(1000 * p))
    u, v = hs.build_graph(random_edge_pairs(rng, n, p), n=n).edges()
    count, labels = _kernels.component_labels(n, u, v)
    want_count, want = _component_labels_by_unique(n, u, v)
    assert count == want_count
    assert labels.dtype == np.int64 and np.array_equal(labels, want)
