import itertools

import numpy as np
import pytest

import homsample as hs
from homsample import sampling
from homsample.features import node_scores, normalize_features
from homsample.sampling import SampleSpec, deletion_budget

from util import adjacency_dense, lowest_scores_kept, normalize_reference, path_graph, random_graph


def scores_to_features(scores):
    """Single raw column whose squared row norms equal the given scores."""
    return np.sqrt(np.asarray(scores, dtype=np.float64)).reshape(-1, 1)


def brute_force_kept(scores, gamma):
    """Independent full-sort re-implementation: keep lowest scores, ties by index."""
    n = len(scores)
    n_d = int(np.floor((1.0 - gamma) * n))
    order = sorted(range(n), key=lambda i: (scores[i], i))
    return sorted(order[: n - n_d])


def test_hand_example_removes_two_largest_scores():
    g = path_graph(4)
    x = scores_to_features([5.0, 1.0, 3.0, 2.0])
    res = hs.sample(g, SampleSpec(gamma=0.5, use_raw_scores=True), x=x)
    assert res.kept.tolist() == [1, 3]
    assert res.subgraph.n == 2


def test_gamma_one_keeps_everything():
    rng = np.random.default_rng(0)
    g = random_graph(rng, 25, 0.2)
    x = rng.standard_normal((25, 3))
    res = hs.sample(g, SampleSpec(gamma=1.0), x=x)
    assert len(res.kept) == 25
    assert np.array_equal(res.subgraph.indptr, g.indptr)
    assert np.array_equal(res.subgraph.indices, g.indices)
    assert np.array_equal(res.features, x)


def test_tie_break_matches_stable_sort_oracle():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(2, 40))
        scores = rng.integers(0, 4, size=n).astype(float)  # heavy ties
        gamma = float(rng.choice([0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0]))
        g = random_graph(rng, n, 0.2)
        res = hs.sample(
            g, SampleSpec(gamma=gamma, use_raw_scores=True), x=scores_to_features(scores)
        )
        assert res.kept.tolist() == brute_force_kept(scores, gamma)


@pytest.mark.parametrize("raw", [False, True])
def test_homophily_order_keeps_the_lowest_scores_with_ties(raw):
    rng = np.random.default_rng(10)
    n = 200
    g = random_graph(rng, n, 0.03)
    x = rng.integers(0, 3, size=(n, 2)).astype(float)  # 9 distinct rows: most scores tie
    scores = node_scores(x if raw else normalize_features(x))
    assert np.unique(scores).size <= 9
    order = sampling.deletion_order(g, "homophily", (0.5,), x, use_raw_scores=raw)
    assert np.array_equal(np.sort(order), np.arange(n))  # every node, whatever the rate
    for gamma in (0.01, 0.1, 0.25, 0.5, 0.7, 0.9, 0.995, 1.0):
        want = lowest_scores_kept(scores, gamma)
        assert np.array_equal(sampling.keep_after(order, n, gamma), want)
        got = hs.sample(g, SampleSpec(gamma=gamma, use_raw_scores=raw), x=x).kept
        assert got.dtype == np.int64 and np.array_equal(got, want)


def test_keep_count_exact_over_gamma_grid():
    rng = np.random.default_rng(2)
    for gamma in (0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0):
        for n in (1, 2, 3, 7, 10, 33, 100):
            g = random_graph(rng, n, 0.3)
            x = rng.standard_normal((n, 2))
            res = hs.sample(g, SampleSpec(gamma=gamma), x=x)
            assert len(res.kept) == n - deletion_budget(n, gamma)


def test_feature_column_permutation_does_not_change_sample():
    rng = np.random.default_rng(3)
    g = random_graph(rng, 30, 0.2)
    x = rng.standard_normal((30, 6))
    spec = SampleSpec(gamma=0.5)
    ref = hs.sample(g, spec, x=x).kept
    got = hs.sample(g, spec, x=x[:, rng.permutation(6)]).kept
    assert np.array_equal(ref, got)


def test_scores_computed_exactly_once(monkeypatch):
    calls = {"n": 0}
    original = sampling.node_scores

    def counting(xh):
        calls["n"] += 1
        return original(xh)

    monkeypatch.setattr(sampling, "node_scores", counting)
    rng = np.random.default_rng(4)
    g = random_graph(rng, 40, 0.2)
    hs.sample(g, SampleSpec(gamma=0.25), x=rng.standard_normal((40, 3)))
    assert calls["n"] == 1


def test_subgraph_equals_induced_subgraph_for_all_methods():
    rng = np.random.default_rng(5)
    g = random_graph(rng, 35, 0.15)
    x = rng.standard_normal((35, 4))
    for method in ("homophily", "random", "degree_greedy"):
        res = hs.sample(g, SampleSpec(gamma=0.4, method=method, seed=9), x=x)
        ref = hs.induced_subgraph(g, res.kept)
        assert np.array_equal(res.subgraph.indptr, ref.indptr)
        assert np.array_equal(res.subgraph.indices, ref.indices)


def test_raw_vs_normalized_scores_differ_when_columns_unbalanced():
    g = path_graph(6)
    x = np.column_stack([np.arange(6.0) * 100.0, np.array([0, 5, 0, 0, 0, 0.1])])
    spec_norm = SampleSpec(gamma=0.5)
    spec_raw = SampleSpec(gamma=0.5, use_raw_scores=True)
    kept_norm = hs.sample(g, spec_norm, x=x).kept.tolist()
    kept_raw = hs.sample(g, spec_raw, x=x).kept.tolist()
    assert kept_raw != kept_norm


def test_kept_rows_minimize_restricted_correlation_trace():
    rng = np.random.default_rng(6)
    for _ in range(10):
        n = int(rng.integers(4, 13))
        g = random_graph(rng, n, 0.3)
        x = rng.standard_normal((n, 3))
        res = hs.sample(g, SampleSpec(gamma=0.5), x=x)
        xh = normalize_reference(x)
        kept_mass = float((xh[res.kept] ** 2).sum())
        k = len(res.kept)
        for subset in itertools.combinations(range(n), k):
            assert kept_mass <= float((xh[list(subset)] ** 2).sum()) + 1e-12


def test_random_sampler_determinism_and_gamma_one():
    rng = np.random.default_rng(7)
    g = random_graph(rng, 20, 0.3)
    full = hs.sample(g, SampleSpec(gamma=1.0, method="random", seed=1))
    assert len(full.kept) == 20
    a = hs.sample(g, SampleSpec(gamma=0.5, method="random", seed=42))
    b = hs.sample(g, SampleSpec(gamma=0.5, method="random", seed=42))
    assert np.array_equal(a.kept, b.kept)
    c = hs.sample(g, SampleSpec(gamma=0.5, method="random", seed=43))
    assert not np.array_equal(a.kept, c.kept)


def test_random_sampler_uniform_keep_frequency():
    g = path_graph(10)
    counts = np.zeros(10)
    draws = 10_000
    for seed in range(draws):
        res = hs.sample(g, SampleSpec(gamma=0.5, method="random", seed=seed))
        counts[res.kept] += 1
    freq = counts / draws
    assert np.all(np.abs(freq - 0.5) <= 0.02)


def test_degree_greedy_star_and_path():
    star = hs.build_graph([(0, 1), (0, 2), (0, 3)])
    res = hs.sample(star, SampleSpec(gamma=0.5, method="degree_greedy"))
    assert res.kept.tolist() == [0, 3]  # leaves 1, 2 removed first on ties
    assert hs.laplacian_trace(res.subgraph) == 2.0
    p3 = path_graph(3)
    res = hs.sample(p3, SampleSpec(gamma=2 / 3, method="degree_greedy"))
    assert res.kept.tolist() == [1, 2]
    assert res.subgraph.m == 1


def test_degree_greedy_matches_brute_force_resimulation():
    rng = np.random.default_rng(8)
    for _ in range(15):
        n = int(rng.integers(4, 50))
        g = random_graph(rng, n, rng.uniform(0.05, 0.4))
        gamma = float(rng.uniform(0.2, 0.9))
        res = hs.sample(g, SampleSpec(gamma=gamma, method="degree_greedy"))
        # independent oracle: dense adjacency, recompute degrees each step
        a = adjacency_dense(g)
        alive = np.ones(n, dtype=bool)
        for _step in range(deletion_budget(n, gamma)):
            deg = a[np.ix_(alive, alive)].sum(axis=1)
            victim = int(np.flatnonzero(alive)[int(np.argmin(deg))])
            alive[victim] = False
        assert res.kept.tolist() == np.flatnonzero(alive).tolist()


def test_degree_greedy_shared_order_gives_the_same_sample():
    rng = np.random.default_rng(9)
    g = random_graph(rng, 60, 0.08)
    gammas = (0.9, 0.25, 0.6, 1.0, 0.1)
    order = sampling.deletion_order(g, "degree_greedy", gammas)
    assert order.size == deletion_budget(g.n, 0.1)
    for gamma in gammas:
        spec = SampleSpec(gamma=gamma, method="degree_greedy")
        own = hs.sample(g, spec)
        shared = hs.sample(g, spec, order=order)
        assert shared.kept.tolist() == own.kept.tolist()
        assert np.array_equal(shared.subgraph.indices, own.subgraph.indices)
    short = sampling.deletion_order(g, "degree_greedy", (0.9,))
    with pytest.raises(ValueError, match="deletion order holds"):
        hs.sample(g, SampleSpec(gamma=0.5, method="degree_greedy"), order=short)


def test_empty_sample_rejected():
    g = path_graph(4)
    with pytest.raises(ValueError, match="empty sample"):
        hs.sample(g, SampleSpec(gamma=0.0), x=np.ones((4, 1)))


def test_the_first_failing_check_names_the_error():
    g = path_graph(4)
    with pytest.raises(ValueError, match="requires node features"):
        hs.sample(g, SampleSpec(gamma=0.0))  # features are checked before the budget
    with pytest.raises(ValueError, match="3 rows, graph has 4 nodes"):
        hs.sample(g, SampleSpec(gamma=0.0), x=np.ones((3, 1)))  # then their row count
    short = np.empty(0, dtype=np.int64)
    with pytest.raises(ValueError, match="empty sample"):
        hs.sample(g, SampleSpec(gamma=0.0, method="degree_greedy"), order=short)
    with pytest.raises(ValueError, match="empty sample"):
        hs.sample(g, SampleSpec(gamma=0.0, method="random"))


def test_spec_validation():
    with pytest.raises(ValueError):
        SampleSpec(gamma=1.5)
    with pytest.raises(ValueError):
        SampleSpec(gamma=0.5, method="spectral")
    with pytest.raises(ValueError, match="features"):
        hs.sample(path_graph(3), SampleSpec(gamma=0.5))


def test_labels_restricted_alongside_features():
    rng = np.random.default_rng(9)
    g = random_graph(rng, 12, 0.3)
    x = rng.standard_normal((12, 2))
    y = rng.integers(0, 3, size=12)
    res = hs.sample(g, SampleSpec(gamma=0.5), x=x, labels=y)
    assert np.array_equal(res.labels, y[res.kept])
    assert np.array_equal(res.features, x[res.kept])
