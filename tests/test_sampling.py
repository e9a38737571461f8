import itertools

import numpy as np
import pytest

import homsample as hs
from homsample import sampling
from homsample.sampling import SampleSpec, deletion_budget

from util import normalize_reference, path_graph, random_graph


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
    res = hs.sample_homophily(g, x, SampleSpec(gamma=0.5, use_raw_scores=True))
    assert res.kept.indices.tolist() == [1, 3]
    assert res.subgraph.n == 2


def test_gamma_one_keeps_everything():
    rng = np.random.default_rng(0)
    g = random_graph(rng, 25, 0.2)
    x = rng.standard_normal((25, 3))
    res = hs.sample_homophily(g, x, SampleSpec(gamma=1.0))
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
        res = hs.sample_homophily(
            g, scores_to_features(scores), SampleSpec(gamma=gamma, use_raw_scores=True)
        )
        assert res.kept.indices.tolist() == brute_force_kept(scores, gamma)


def test_keep_count_exact_over_gamma_grid():
    rng = np.random.default_rng(2)
    for gamma in (0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0):
        for n in (1, 2, 3, 7, 10, 33, 100):
            g = random_graph(rng, n, 0.3)
            x = rng.standard_normal((n, 2))
            res = hs.sample_homophily(g, x, SampleSpec(gamma=gamma))
            assert len(res.kept) == n - deletion_budget(n, gamma)


def test_feature_column_permutation_does_not_change_sample():
    rng = np.random.default_rng(3)
    g = random_graph(rng, 30, 0.2)
    x = rng.standard_normal((30, 6))
    spec = SampleSpec(gamma=0.5)
    ref = hs.sample_homophily(g, x, spec).kept.indices
    got = hs.sample_homophily(g, x[:, rng.permutation(6)], spec).kept.indices
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
    hs.sample_homophily(g, rng.standard_normal((40, 3)), SampleSpec(gamma=0.25))
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
    kept_norm = hs.sample_homophily(g, x, spec_norm).kept.indices.tolist()
    kept_raw = hs.sample_homophily(g, x, spec_raw).kept.indices.tolist()
    assert kept_raw != kept_norm


def test_kept_rows_minimize_restricted_correlation_trace():
    rng = np.random.default_rng(6)
    for _ in range(10):
        n = int(rng.integers(4, 13))
        g = random_graph(rng, n, 0.3)
        x = rng.standard_normal((n, 3))
        res = hs.sample_homophily(g, x, SampleSpec(gamma=0.5))
        xh = normalize_reference(x)
        kept_mass = float((xh[res.kept.indices] ** 2).sum())
        k = len(res.kept)
        for subset in itertools.combinations(range(n), k):
            assert kept_mass <= float((xh[list(subset)] ** 2).sum()) + 1e-12


def test_random_sampler_determinism_and_gamma_one():
    rng = np.random.default_rng(7)
    g = random_graph(rng, 20, 0.3)
    full = hs.sample_random(g, SampleSpec(gamma=1.0, method="random", seed=1))
    assert len(full.kept) == 20
    a = hs.sample_random(g, SampleSpec(gamma=0.5, method="random", seed=42))
    b = hs.sample_random(g, SampleSpec(gamma=0.5, method="random", seed=42))
    assert np.array_equal(a.kept.indices, b.kept.indices)
    c = hs.sample_random(g, SampleSpec(gamma=0.5, method="random", seed=43))
    assert not np.array_equal(a.kept.indices, c.kept.indices)


def test_random_sampler_uniform_keep_frequency():
    g = path_graph(10)
    counts = np.zeros(10)
    draws = 10_000
    for seed in range(draws):
        res = hs.sample_random(g, SampleSpec(gamma=0.5, method="random", seed=seed))
        counts[res.kept.indices] += 1
    freq = counts / draws
    assert np.all(np.abs(freq - 0.5) <= 0.02)


def test_degree_greedy_star_and_path():
    star = hs.build_graph([(0, 1), (0, 2), (0, 3)])
    res = hs.sample_degree_greedy(star, SampleSpec(gamma=0.5, method="degree_greedy"))
    assert res.kept.indices.tolist() == [0, 3]  # leaves 1, 2 removed first on ties
    assert hs.laplacian_trace(res.subgraph) == 2.0
    p3 = path_graph(3)
    res = hs.sample_degree_greedy(p3, SampleSpec(gamma=2 / 3, method="degree_greedy"))
    assert res.kept.indices.tolist() == [1, 2]
    assert res.subgraph.m == 1


def test_degree_greedy_matches_brute_force_resimulation():
    rng = np.random.default_rng(8)
    for _ in range(15):
        n = int(rng.integers(4, 50))
        g = random_graph(rng, n, rng.uniform(0.05, 0.4))
        gamma = float(rng.uniform(0.2, 0.9))
        res = hs.sample_degree_greedy(g, SampleSpec(gamma=gamma, method="degree_greedy"))
        # independent oracle: dense adjacency, recompute degrees each step
        a = g.adjacency_dense()
        alive = np.ones(n, dtype=bool)
        for _step in range(deletion_budget(n, gamma)):
            deg = a[np.ix_(alive, alive)].sum(axis=1)
            victim = int(np.flatnonzero(alive)[int(np.argmin(deg))])
            alive[victim] = False
        assert res.kept.indices.tolist() == np.flatnonzero(alive).tolist()


def test_degree_greedy_shared_order_gives_the_same_sample():
    rng = np.random.default_rng(9)
    g = random_graph(rng, 60, 0.08)
    gammas = (0.9, 0.25, 0.6, 1.0, 0.1)
    order = sampling.greedy_order(g, gammas)
    assert order.size == deletion_budget(g.n, 0.1)
    for gamma in gammas:
        spec = SampleSpec(gamma=gamma, method="degree_greedy")
        own = hs.sample_degree_greedy(g, spec)
        shared = hs.sample(g, spec, greedy=order)
        assert shared.kept.indices.tolist() == own.kept.indices.tolist()
        assert np.array_equal(shared.subgraph.indices, own.subgraph.indices)
    short = sampling.greedy_order(g, (0.9,))
    with pytest.raises(ValueError, match="greedy order holds"):
        hs.sample_degree_greedy(g, SampleSpec(gamma=0.5, method="degree_greedy"), order=short)


def test_empty_sample_rejected():
    g = path_graph(4)
    with pytest.raises(ValueError, match="empty sample"):
        hs.sample_homophily(g, np.ones((4, 1)), SampleSpec(gamma=0.0))


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
    res = hs.sample_homophily(g, x, SampleSpec(gamma=0.5), labels=y)
    assert np.array_equal(res.labels, y[res.kept.indices])
    assert np.array_equal(res.features, x[res.kept.indices])
