import numpy as np
import pytest

import homsample as hs

from util import dense_laplacian, normalize_reference, path_graph, random_graph


def test_two_point_column_standardizes_to_unit():
    xh = hs.normalize_features(np.array([[3.2], [-1.0]]))
    assert np.allclose(xh.values, [[1.0], [-1.0]], atol=1e-12)
    xh = hs.normalize_features(np.array([[-1.0], [3.2]]))
    assert np.allclose(xh.values, [[-1.0], [1.0]], atol=1e-12)


def test_constant_column_is_zeroed_and_flagged():
    x = np.column_stack([np.full(5, 7.0), np.arange(5.0)])
    xh = hs.normalize_features(x)
    assert not xh.valid_mask[0] and xh.valid_mask[1]
    assert np.all(xh.values[:, 0] == 0.0)


def test_random_matrix_column_stats():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((50, 8))
    xh = hs.normalize_features(x)
    assert np.all(np.abs(xh.values.mean(axis=0)) <= 1e-9)
    assert np.allclose((xh.values**2).sum(axis=0), 50 / 8, atol=1e-9)
    assert xh.values == pytest.approx(normalize_reference(x), abs=1e-12)


def test_correlation_trace_counts_valid_columns():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((40, 6))
    x[:, 2] = 3.0  # degenerate
    xh = hs.normalize_features(x)
    assert hs.node_scores(xh).sum() == pytest.approx(40 * 5 / 6, abs=1e-9)


def test_normalize_rejects_bad_input():
    with pytest.raises(ValueError):
        hs.normalize_features(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        hs.normalize_features(np.array([[np.nan], [1.0]]))


def test_node_scores():
    assert hs.node_scores(np.array([[-1.0], [1.0]])).tolist() == [1.0, 1.0]
    assert np.all(hs.node_scores(np.zeros((4, 3))) == 0.0)
    rng = np.random.default_rng(2)
    xh = hs.normalize_features(rng.standard_normal((30, 5)))
    ref = np.diag(xh.values @ xh.values.T)
    assert hs.node_scores(xh) == pytest.approx(ref, abs=1e-12)


def test_homophily_zero_for_identical_rows():
    g = path_graph(4)
    xh = hs.normalize_features(np.ones((4, 3)))
    assert hs.feature_homophily(g, xh) == 0.0


def test_homophily_single_edge_hand_value():
    g = hs.build_graph([(0, 1)])
    xh = hs.normalize_features(np.array([[0.0], [1.0]]))
    assert np.allclose(xh.values, [[-1.0], [1.0]])
    h = hs.feature_homophily(g, xh)
    assert h == pytest.approx(-2.0, abs=1e-12)
    dense = np.trace(-dense_laplacian(g) @ xh.values @ xh.values.T) / 2
    assert h == pytest.approx(dense, abs=1e-12)


def test_homophily_matches_dense_trace_formula():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 200))
        g = random_graph(rng, n, rng.uniform(0.02, 0.3))
        xh = hs.normalize_features(rng.standard_normal((n, int(rng.integers(1, 10)))))
        h = hs.feature_homophily(g, xh)
        dense = np.trace(-dense_laplacian(g) @ xh.values @ xh.values.T) / n
        assert h == pytest.approx(dense, rel=1e-9, abs=1e-9)
        assert h <= 0.0


def test_homophily_dimension_mismatch():
    with pytest.raises(ValueError):
        hs.feature_homophily(path_graph(3), hs.normalize_features(np.ones((4, 2)) + np.eye(4, 2)))


def test_homophily_permutation_invariant():
    rng = np.random.default_rng(4)
    n = 40
    g = random_graph(rng, n, 0.2)
    x = rng.standard_normal((n, 3))
    perm = rng.permutation(n)
    gp = hs.build_graph(perm[np.column_stack(g.edges())], n=n)
    xp = np.empty_like(x)
    xp[perm] = x
    h = hs.feature_homophily(g, hs.normalize_features(x))
    hp = hs.feature_homophily(gp, hs.normalize_features(xp))
    assert hp == pytest.approx(h, rel=1e-9)


def test_edge_between_identical_feature_rows_changes_nothing():
    rng = np.random.default_rng(5)
    n = 20
    x = rng.standard_normal((n, 4))
    x[7] = x[3]
    edges = [(i, i + 1) for i in range(n - 1)]
    g1 = hs.build_graph(edges, n=n)
    g2 = hs.build_graph(edges + [(3, 7)], n=n)
    xh = hs.normalize_features(x)
    assert hs.feature_homophily(g2, xh) * n == pytest.approx(
        hs.feature_homophily(g1, xh) * n, abs=1e-9
    )


def test_trace_lower_bound():
    g = hs.build_graph([(0, 1)])
    xh = hs.normalize_features(np.array([[0.0], [1.0]]))
    assert hs.trace_lower_bound(0.0, xh) == 0.0
    h = hs.feature_homophily(g, xh)
    bound = hs.trace_lower_bound(h, xh)
    assert bound == pytest.approx(2.0, abs=1e-12)
    assert hs.laplacian_trace(g) == pytest.approx(bound, abs=1e-12)  # tight case


def test_trace_lower_bound_holds_on_random_instances():
    rng = np.random.default_rng(6)
    for _ in range(100):
        n = int(rng.integers(2, 120))
        g = random_graph(rng, n, rng.uniform(0.0, 0.3))
        xh = hs.normalize_features(rng.standard_normal((n, int(rng.integers(1, 8)))))
        h = hs.feature_homophily(g, xh)
        assert hs.laplacian_trace(g) >= hs.trace_lower_bound(h, xh) - 1e-9


def test_trace_lower_bound_undefined_for_degenerate_features():
    xh = hs.normalize_features(np.ones((5, 2)))
    with pytest.raises(ValueError, match="undefined"):
        hs.trace_lower_bound(-1.0, xh)


def test_normalizer_transform_reuses_affine_map():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((30, 4))
    xh = hs.normalize_features(x)
    assert np.allclose(xh.transform(x), xh.values, atol=1e-12)
    other = rng.standard_normal((12, 4))
    expected = (other - x.mean(axis=0)) / (np.sqrt(4) * x.std(axis=0))
    assert np.allclose(xh.transform(other), expected, atol=1e-12)


def _normalize_by_mean_std(x):
    """The standardization's earlier form: ``x.mean(0)`` and ``x.std(0)``, centring twice."""
    d = x.shape[1]
    mu = x.mean(axis=0)
    sigma = x.std(axis=0)
    valid = sigma > 0.0
    scale = np.zeros(d)
    scale[valid] = 1.0 / (np.sqrt(d) * sigma[valid])
    return (x - mu) * scale, valid, mu, scale


@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (2, 3), (97, 16), (500, 1433)])
@pytest.mark.parametrize("layout", ["C", "F"])
def test_normalize_equals_mean_std_form_bit_for_bit(shape, layout):
    rng = np.random.default_rng(shape[0] * shape[1])
    x = rng.standard_normal(shape) * rng.uniform(1e-3, 1e3, shape[1]) + rng.uniform(-1e6, 1e6, shape[1])
    x[:, 0] = 0.1  # constant, but its computed mean need not be exactly 0.1
    if shape[1] > 2:
        x[:, 2] = -3.0
    x = np.asfortranarray(x) if layout == "F" else x
    got = hs.normalize_features(x)
    values, valid, mu, scale = _normalize_by_mean_std(x)
    for a, b in ((got.values, values), (got.valid_mask, valid), (got.mean, mu), (got.scale, scale)):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()
