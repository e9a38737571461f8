import numpy as np
import pytest

import homsample as hs
from homsample.errors import DataError

from util import complete_graph, dense_laplacian, path_graph, random_edge_pairs, random_graph


def test_build_symmetrize_dedup_selfloops():
    g = hs.build_graph([(0, 1), (1, 0), (1, 1), (1, 2)])
    assert g.n == 3 and g.m == 2
    assert g.edge_array().tolist() == [[0, 1], [1, 2]]


def test_build_declared_n_keeps_isolated_nodes():
    g = hs.build_graph([(0, 1)], n=3)
    assert g.n == 3 and g.m == 1
    assert g.degrees().tolist() == [1, 1, 0]


def test_build_matches_dense_symmetrized_reference():
    rng = np.random.default_rng(0)
    n = 100
    raw = rng.integers(0, n, size=(400, 2))  # arbitrary directions, dups, self-loops
    ref = np.zeros((n, n))
    for u, v in raw:
        if u != v:
            ref[u, v] = ref[v, u] = 1.0
    g = hs.build_graph(raw, n=n)
    assert np.array_equal(g.adjacency_dense(), ref)


def _unique_rows_csr(raw, n):
    """Oracle CSR: symmetrize, drop self-loops, dedup rows with np.unique(axis=0)."""
    e = raw[raw[:, 0] != raw[:, 1]]
    both = np.unique(np.concatenate([e, e[:, ::-1]]), axis=0)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(both[:, 0], minlength=n))])
    return indptr, both[:, 1]


def test_build_csr_matches_unique_rows_oracle():
    rng = np.random.default_rng(11)
    for trial in range(40):
        n = int(rng.integers(1, 200))
        raw = rng.integers(0, n, size=(int(rng.integers(0, 4 * n)), 2))
        # repeated rows in both orientations; ids only up to n - 1, and a
        # declared n up to n + 2 adds isolated nodes
        raw = np.concatenate([raw, raw[: raw.shape[0] // 2, ::-1], raw[: raw.shape[0] // 3]])
        n_decl = n + trial % 3
        indptr, indices = _unique_rows_csr(raw, n_decl)
        g = hs.build_graph(raw, n=n_decl)
        assert g.n == n_decl and g.m == indices.size // 2
        assert np.array_equal(g.indptr, indptr) and g.indptr.dtype == np.int64
        assert np.array_equal(g.indices, indices) and g.indices.dtype == np.int64
    g = hs.build_graph(np.empty((0, 2), dtype=np.int64), n=4)
    assert g.m == 0 and g.indptr.tolist() == [0] * 5 and g.indices.size == 0


# (n, p) per case: a single node, an edgeless graph, sparse graphs with
# isolated nodes, and a dense one
EDGE_VIEW_CASES = [(1, 0.0), (12, 0.0), (40, 0.03), (80, 0.02), (60, 0.3)]


def test_edges_equal_the_generated_pairs():
    rng = np.random.default_rng(13)
    isolated = 0
    for n, p in EDGE_VIEW_CASES:
        pairs = random_edge_pairs(rng, n, p)  # u < v, lexicographic
        g = hs.build_graph(pairs, n=n)
        u, v = g.edges()
        assert np.array_equal(u, pairs[:, 0]) and u.dtype == np.int64
        assert np.array_equal(v, pairs[:, 1]) and v.dtype == np.int64
        e = g.edge_array()
        assert e.shape == (g.m, 2) and np.array_equal(e, pairs)
        isolated += int(np.sum(g.degrees() == 0))
    assert isolated > 13  # more than the single node and the edgeless graph


def test_induced_subgraph_matches_unique_rows_oracle():
    rng = np.random.default_rng(14)
    checked = 0
    for n, p in EDGE_VIEW_CASES:
        pairs = random_edge_pairs(rng, n, p)
        g = hs.build_graph(pairs, n=n)
        deg = g.degrees()
        keeps = [
            np.arange(n),
            np.arange(1, n),  # drops row 0
            np.arange(n - 1),  # drops the last row
            np.flatnonzero(deg == 0),  # isolated nodes only
            np.sort(rng.choice(n, size=(n + 1) // 2, replace=False)),
        ]
        for keep in keeps:
            if keep.size == 0:
                continue
            kept = np.zeros(n, dtype=bool)
            kept[keep] = True
            both = kept[pairs[:, 0]] & kept[pairs[:, 1]]
            relabelled = np.searchsorted(keep, pairs[both])
            indptr, indices = _unique_rows_csr(relabelled, keep.size)
            sub = hs.induced_subgraph(g, keep)
            assert sub.n == keep.size and sub.m == indices.size // 2
            assert np.array_equal(sub.indptr, indptr) and sub.indptr.dtype == np.int64
            assert np.array_equal(sub.indices, indices) and sub.indices.dtype == np.int64
            checked += 1
    assert checked >= 20


def test_induced_subgraph_takes_unsorted_repeated_ids():
    rng = np.random.default_rng(12)
    g = random_graph(rng, 50, 0.2)
    a = g.adjacency_dense()
    for size in (1, 2, 17, 1000):
        ids = rng.integers(0, 50, size=size)
        keep = np.unique(ids)
        sub = hs.induced_subgraph(g, ids)
        assert np.array_equal(sub.adjacency_dense(), a[np.ix_(keep, keep)])
        ref = hs.induced_subgraph(g, keep)
        assert np.array_equal(sub.indptr, ref.indptr) and np.array_equal(sub.indices, ref.indices)


def test_build_errors():
    with pytest.raises(DataError, match="empty graph"):
        hs.build_graph([])
    with pytest.raises(DataError, match="negative"):
        hs.build_graph([(-1, 2)])
    with pytest.raises(DataError, match="out of range"):
        hs.build_graph([(0, 5)], n=3)
    with pytest.raises(DataError):
        hs.build_graph([(0, 1, 2)])


def test_empty_edge_list_with_declared_n():
    g = hs.build_graph([], n=4)
    assert g.n == 4 and g.m == 0
    assert hs.connected_components(g)[0] == 4


def test_laplacian_trace_hand_examples():
    assert hs.laplacian_trace(complete_graph(3)) == 6.0
    assert hs.laplacian_trace(path_graph(3)) == 4.0


def test_laplacian_trace_matches_dense():
    rng = np.random.default_rng(1)
    g = random_graph(rng, 50, 0.15)
    assert hs.laplacian_trace(g) == pytest.approx(np.trace(dense_laplacian(g)), abs=1e-12)


def test_adjusted_trace():
    assert hs.adjusted_trace(complete_graph(3)) == pytest.approx(2.0)
    assert hs.adjusted_trace(path_graph(3)) == pytest.approx(4.0 / 3.0)
    rng = np.random.default_rng(2)
    g = random_graph(rng, 1000, 0.01)
    assert abs(hs.adjusted_trace(g) - 2.0 * g.m / g.n) <= 1e-12


def test_connected_components_hand_examples():
    assert hs.connected_components(path_graph(3))[0] == 1
    g = hs.build_graph([(0, 1), (2, 3)])
    count, labels = hs.connected_components(g)
    assert count == 2
    assert labels.tolist() == [0, 0, 1, 1]


def test_components_match_zero_eigenvalue_multiplicity():
    rng = np.random.default_rng(3)
    for _ in range(12):
        n = int(rng.integers(5, 201))
        g = random_graph(rng, n, 0.02)
        eig = np.linalg.eigvalsh(dense_laplacian(g))
        assert hs.connected_components(g)[0] == int(np.sum(eig < 1e-8))


def test_laplacian_rank():
    assert hs.laplacian_rank(path_graph(3)) == 2
    assert hs.laplacian_rank(hs.build_graph([(0, 1), (2, 3)])) == 2
    rng = np.random.default_rng(4)
    for _ in range(8):
        n = int(rng.integers(5, 60))
        g = random_graph(rng, n, 0.08)
        lap = dense_laplacian(g)
        s = np.linalg.svd(lap, compute_uv=False)
        tol = n * np.finfo(float).eps * (s[0] if s.size else 1.0)
        assert hs.laplacian_rank(g) == int(np.sum(s > tol))


def test_induced_subgraph_hand_examples():
    sub = hs.induced_subgraph(complete_graph(3), [0, 1])
    assert sub.n == 2 and sub.m == 1
    sub = hs.induced_subgraph(path_graph(3), [0, 2])
    assert sub.n == 2 and sub.m == 0


def test_induced_subgraph_matches_dense_submatrix():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(5, 80))
        g = random_graph(rng, n, 0.2)
        k = int(rng.integers(1, n + 1))
        keep = np.sort(rng.choice(n, size=k, replace=False))
        sub = hs.induced_subgraph(g, keep)
        ref = g.adjacency_dense()[np.ix_(keep, keep)]
        assert np.array_equal(sub.adjacency_dense(), ref)
        assert np.array_equal(sub.adjacency_dense(), sub.adjacency_dense().T)


def test_induced_subgraph_keep_all_is_identity():
    rng = np.random.default_rng(6)
    g = random_graph(rng, 30, 0.2)
    sub = hs.induced_subgraph(g, np.arange(30))
    assert np.array_equal(sub.indptr, g.indptr)
    assert np.array_equal(sub.indices, g.indices)


def test_induced_subgraph_rejects_bad_keep():
    g = path_graph(3)
    with pytest.raises(ValueError):
        hs.induced_subgraph(g, [])
    with pytest.raises(ValueError):
        hs.induced_subgraph(g, [0, 7])


def test_induced_subgraph_rejects_bad_ids():
    g = path_graph(3)
    with pytest.raises(ValueError, match="at least one"):
        hs.induced_subgraph(g, np.array([], dtype=np.int64))
    with pytest.raises(ValueError, match=r"\[0, 3\)"):
        hs.induced_subgraph(g, [2, -1])
    with pytest.raises(ValueError, match=r"\[0, 3\)"):
        hs.induced_subgraph(g, [0, 3])
    with pytest.raises(ValueError, match=r"\[0, 3\)"):
        hs.induced_subgraph(g, [0, 7])


def test_trace_and_rank_invariants_sweep():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 120))
        g = random_graph(rng, n, rng.uniform(0.0, 0.3))
        assert hs.laplacian_trace(g) == 2.0 * g.m
        count, _ = hs.connected_components(g)
        assert hs.laplacian_rank(g) + count == g.n


def test_graph_arrays_are_readonly():
    g = path_graph(3)
    with pytest.raises(ValueError):
        g.indices[0] = 5
