import tracemalloc

import numpy as np
import pytest

import homsample as hs
from homsample.errors import DataError
from homsample.graphon import (
    GraphonSpec,
    _skip_positions,
    _unrank_triangle,
    parse_graphon_spec,
    two_block_spec,
)
from homsample.sampling import SampleSpec


def test_constant_one_gives_complete_graph():
    for n in (2, 3, 4, 5, 20, 50):
        g, _ = hs.sample_graphon_graph(GraphonSpec(kind="constant", n=n, p=1.0, seed=0))
        assert g.m == n * (n - 1) // 2
        assert np.all(g.degrees() == n - 1)


def test_constant_zero_gives_edgeless_graph():
    g, _ = hs.sample_graphon_graph(GraphonSpec(kind="constant", n=20, p=0.0, seed=0))
    assert g.m == 0 and g.n == 20


def test_constant_edge_count_within_binomial_band():
    n, p = 500, 0.3
    g, _ = hs.sample_graphon_graph(GraphonSpec(kind="constant", n=n, p=p, seed=1))
    pairs = n * (n - 1) / 2
    sd = np.sqrt(pairs * p * (1 - p))
    assert abs(g.m - p * pairs) <= 4 * sd


def _block_pair_counts(g, block, k):
    """Edges per unordered block pair (a <= c), and the pairs of nodes available."""
    e = np.column_stack(g.edges())
    a, c = np.sort(block[e], axis=1).T
    counts = np.zeros((k, k))
    np.add.at(counts, (a, c), 1)
    sizes = np.bincount(block, minlength=k).astype(float)
    pairs = np.outer(sizes, sizes)
    pairs[np.diag_indices(k)] = sizes * (sizes - 1) / 2
    return counts, pairs


@pytest.mark.parametrize("kind", ["blocks", "grid"])
def test_block_pair_edge_counts_within_binomial_band(kind):
    probs = np.array([[0.05, 0.01, 0.002], [0.01, 0.08, 0.02], [0.002, 0.02, 0.03]])
    for seed in range(3):
        if kind == "blocks":
            spec = GraphonSpec(kind="blocks", n=1500, block_probs=probs,
                               block_fracs=np.array([0.2, 0.5, 0.3]), seed=seed)
        else:
            spec = GraphonSpec(kind="grid", n=1500, grid=probs, seed=seed)
        g, u = hs.sample_graphon_graph(spec)
        block, _ = spec.block_structure(u)
        counts, pairs = _block_pair_counts(g, block, 3)
        for a in range(3):
            for c in range(a, 3):
                p = probs[a, c]
                sd = np.sqrt(pairs[a, c] * p * (1 - p))
                assert abs(counts[a, c] - p * pairs[a, c]) <= 5 * sd, (kind, seed, a, c)


def test_skip_positions_keep_each_index_with_probability_p():
    rng = np.random.default_rng(3)
    reps = 4000
    for total, p in ((1, 0.3), (3, 0.5), (40, 0.9), (200, 0.01)):
        hits = np.zeros(total)
        for _ in range(reps):
            at = _skip_positions(rng, total, p)
            assert np.all(np.diff(at) > 0) and np.all((at >= 0) & (at < total))
            hits[at] += 1
        sd = np.sqrt(p * (1 - p) / reps)
        assert np.all(np.abs(hits / reps - p) <= 5 * sd), (total, p)
    assert _skip_positions(rng, 10**12, 0.0).size == 0
    assert _skip_positions(rng, 0, 0.5).size == 0
    # a step of about 1e18 clipped at total + 1 never wraps into range
    assert _skip_positions(rng, 10**15, 1e-18).size == 0


def test_unrank_triangle_matches_enumeration():
    for s in range(2, 60):
        i, j = _unrank_triangle(np.arange(s * (s - 1) // 2))
        expect = [(a, b) for b in range(s) for a in range(b)]
        assert list(zip(i.tolist(), j.tolist())) == expect
    # around triangular numbers T(j) = j(j-1)/2; from j of about 5e7 on, the
    # float square root alone can land on the wrong row
    for mid in (3_000_000, 100_000_000, 2_000_000_000):
        for j in range(mid - 50, mid + 50):
            tj = j * (j - 1) // 2
            t = np.array([tj - 1, tj, tj + 1, tj + j - 1], dtype=np.int64)
            i, jj = _unrank_triangle(t)
            assert jj.tolist() == [j - 1, j, j, j]
            assert i.tolist() == [j - 2, 0, 1, j - 1]


def test_generation_memory_is_linear():
    spec = parse_graphon_spec("blocks,n=20000,intra=0.0008,inter=0.0002,fracs=0.3:0.7,seed=1")
    tracemalloc.start()
    try:
        g, _ = hs.sample_graphon_graph(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # an O(n^2) pair draw costs about 1500 bytes per node + edge here
    assert peak < 400 * (spec.n + g.m)


def test_same_seed_reproduces_graph_and_features():
    spec = two_block_spec(n=200, intra=0.1, inter=0.01, seed=7)
    a = hs.generate_dataset(spec)
    b = hs.generate_dataset(spec)
    assert np.array_equal(a.graph.indptr, b.graph.indptr)
    assert np.array_equal(a.graph.indices, b.graph.indices)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    c = hs.generate_dataset(two_block_spec(n=200, intra=0.1, inter=0.01, seed=8))
    assert not np.array_equal(a.graph.indices, c.graph.indices)


def test_noiseless_two_block_features_have_two_distinct_rows():
    spec = GraphonSpec(
        kind="blocks",
        n=50,
        feature_dim=4,
        noise=0.0,
        seed=3,
        block_probs=np.array([[0.5, 0.1], [0.1, 0.5]]),
    )
    ds = hs.generate_dataset(spec)
    assert np.unique(ds.features, axis=0).shape[0] == 2
    assert np.array_equal(np.argmax(ds.features[:, :2], axis=1), ds.labels)


def test_labels_are_block_ids():
    spec = two_block_spec(n=300, intra=0.05, inter=0.01, seed=4)
    ds = hs.generate_dataset(spec)
    assert np.array_equal(ds.labels, spec.blocks_of(ds.latent))
    assert set(np.unique(ds.labels)) <= {0, 1}


def test_assortative_features_beat_permuted_null():
    wins = 0
    trials = 100
    for seed in range(trials):
        ds = hs.generate_dataset(
            two_block_spec(n=150, intra=0.1, inter=0.01, feature_dim=8, noise=0.1, seed=seed)
        )
        xh = hs.normalize_features(ds.features)
        h = hs.feature_homophily(ds.graph, xh)
        perm = np.random.Generator(np.random.Philox(seed)).permutation(ds.graph.n)
        h_null = hs.feature_homophily(ds.graph, hs.normalize_features(ds.features[perm]))
        if h > h_null:
            wins += 1
    assert wins >= 95


def test_score_sampler_keeps_fewer_components_than_random():
    alg_counts, rnd_counts = [], []
    for seed in range(50):
        ds = hs.generate_dataset(two_block_spec(n=300, intra=0.03, inter=0.003, seed=seed))
        res = hs.sample(ds.graph, SampleSpec(gamma=0.5), x=ds.features)
        alg_counts.append(hs.connected_components(res.subgraph)[0])
        rnd = hs.sample(ds.graph, SampleSpec(gamma=0.5, method="random", seed=seed))
        rnd_counts.append(hs.connected_components(rnd.subgraph)[0])
    assert np.mean(alg_counts) <= np.mean(rnd_counts)


def test_grid_graphon():
    grid = np.array([[0.8, 0.1], [0.1, 0.8]])
    spec = GraphonSpec(kind="grid", n=200, grid=grid, feature_dim=3, noise=0.0, seed=5)
    g, u = hs.sample_graphon_graph(spec)
    # same-half pairs should dominate
    half = (u >= 0.5).astype(int)
    same = sum(1 for a, b in np.column_stack(g.edges()) if half[a] == half[b])
    assert same > g.m / 2
    x, labels = hs.homophilic_features(u, spec)
    assert x.shape == (200, 3)
    assert np.all(labels == 0)


def test_spec_validation_errors():
    with pytest.raises(ValueError):
        GraphonSpec(kind="mystery", n=10)
    with pytest.raises(ValueError):
        GraphonSpec(kind="constant", n=1)
    with pytest.raises(ValueError):
        GraphonSpec(kind="constant", n=10, p=1.5)
    with pytest.raises(ValueError):
        GraphonSpec(kind="blocks", n=10, block_probs=np.array([[0.5, 0.2], [0.1, 0.5]]))
    with pytest.raises(ValueError):
        GraphonSpec(kind="blocks", n=10, block_fracs=np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        GraphonSpec(kind="grid", n=10, grid=np.array([[0.5, 2.0], [2.0, 0.5]]))
    with pytest.raises(ValueError):
        GraphonSpec(kind="constant", n=10, noise=-1.0)


def test_feature_dim_must_cover_blocks():
    spec = GraphonSpec(
        kind="blocks", n=10, feature_dim=1,
        block_probs=np.array([[0.5, 0.1], [0.1, 0.5]]), seed=0,
    )
    _, u = hs.sample_graphon_graph(spec)
    with pytest.raises(DataError, match="too small"):
        hs.homophilic_features(u, spec)


def test_parse_graphon_spec():
    spec = parse_graphon_spec("blocks,n=1000,intra=0.02,inter=0.002,fracs=0.3:0.7,d=16,tau=0.3,seed=9")
    assert spec.kind == "blocks" and spec.n == 1000 and spec.feature_dim == 16
    assert spec.noise == 0.3 and spec.seed == 9
    assert np.allclose(spec.block_probs, [[0.02, 0.002], [0.002, 0.02]])
    assert np.allclose(spec.block_fracs, [0.3, 0.7])
    spec = parse_graphon_spec("constant,n=50,p=0.2")
    assert spec.kind == "constant" and spec.p == 0.2
    spec = parse_graphon_spec("grid,n=20,grid=0.5:0.1:0.1:0.5")
    assert spec.grid.shape == (2, 2)
    probs = parse_graphon_spec("blocks,n=40,probs=0.3:0.02:0.02:0.3,seed=2")
    shorthand = parse_graphon_spec("blocks,n=40,intra=0.3,inter=0.02,seed=2")
    assert np.array_equal(probs.block_probs, shorthand.block_probs)
    assert np.array_equal(
        np.column_stack(hs.sample_graphon_graph(probs)[0].edges()),
        np.column_stack(hs.sample_graphon_graph(shorthand)[0].edges()),
    )
    for bad in (
        "",
        "blocks,n=abc",
        "blocks,nonsense=1",
        "blocks,intra=0.1",
        "blocks,probs=0.1:0.2:0.3",
        "blocks,n",
        "blocks,dim=4",
        "blocks,noise=0.1",
    ):
        with pytest.raises(DataError):
            parse_graphon_spec(bad)
