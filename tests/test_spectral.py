import numpy as np
import pytest

import homsample as hs
from homsample.gnn import shift_matrix

from util import conv_span_dimension, random_graph


def planted_rank_operator(rng, n, r):
    """Symmetric n x n matrix with exactly r well-separated nonzero eigenvalues."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.zeros(n)
    lam[:r] = rng.uniform(0.5, 2.0, size=r) * rng.choice([-1.0, 1.0], size=r)
    return q @ np.diag(lam) @ q.T


def test_span_dimension_identity_and_zero_operator():
    x = np.arange(1.0, 6.0)
    assert conv_span_dimension(np.eye(5), x, 6) == 1
    assert conv_span_dimension(np.zeros((5, 5)), x, 5) == 1


def test_span_dimension_planted_rank_four():
    rng = np.random.default_rng(0)
    s = planted_rank_operator(rng, 10, 4)
    assert np.linalg.matrix_rank(s) == 4
    x = rng.standard_normal(10)
    dim = conv_span_dimension(s, x, 10)
    assert dim <= 5
    assert dim == 5  # generic signal hits the bound (distinct eigenvalues)


def test_span_dimension_rejects_bad_input():
    s = np.eye(3)
    with pytest.raises(ValueError):
        conv_span_dimension(s, np.zeros(3), 4)
    with pytest.raises(ValueError):
        conv_span_dimension(s, np.ones(3), 0)
    with pytest.raises(ValueError):
        conv_span_dimension(s, np.ones(4), 2)
    with pytest.raises(ValueError):
        conv_span_dimension(np.ones((3, 4)), np.ones(3), 2)


def test_span_dimension_invariant_to_signal_scaling():
    rng = np.random.default_rng(1)
    s = planted_rank_operator(rng, 12, 5)
    x = rng.standard_normal(12)
    d1 = conv_span_dimension(s, x, 8)
    assert conv_span_dimension(s, 1e-7 * x, 8) == d1
    assert conv_span_dimension(s, 1e7 * x, 8) == d1


def test_span_dimension_large_spectral_radius_no_overflow():
    rng = np.random.default_rng(2)
    s = 10.0 * planted_rank_operator(rng, 8, 3)
    dim = conv_span_dimension(s, rng.standard_normal(8), 200)
    assert 1 <= dim <= 4


def test_numerical_rank_of_laplacians():
    g = random_graph(np.random.default_rng(3), 15, 0.4)
    assert hs.connected_components(g)[0] == 1
    assert np.linalg.matrix_rank(shift_matrix(g, "laplacian").toarray()) == 14
    g2 = hs.build_graph([(0, 1), (2, 3)])
    assert np.linalg.matrix_rank(shift_matrix(g2, "laplacian").toarray()) == 2


def test_numerical_rank_matches_laplacian_rank_on_random_graphs():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = int(rng.integers(3, 40))
        g = random_graph(rng, n, 0.1)
        assert np.linalg.matrix_rank(shift_matrix(g, "laplacian").toarray()) == hs.laplacian_rank(g)


def test_span_dimension_of_sparse_and_dense_shifts_agree():
    rng = np.random.default_rng(9)
    for n in (5, 30):
        g = random_graph(rng, n, 0.2)
        x = rng.standard_normal(n)
        for kind in ("adjacency", "laplacian", "gcn_norm"):
            s = shift_matrix(g, kind)
            for k in (1, 3, 8):
                assert conv_span_dimension(s, x, k) == conv_span_dimension(s.toarray(), x, k)


def test_span_bound_holds_on_randomized_trials():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(2, 50))
        r = int(rng.integers(1, n + 1))
        s = planted_rank_operator(rng, n, r)
        x = rng.standard_normal(n)
        k = int(rng.integers(1, 12))
        assert conv_span_dimension(s, x, k) <= r + 1


def test_leverage_identity():
    """Node scores are singular-value-weighted leverage scores: diag(U S^2 U^T)."""
    rng = np.random.default_rng(6)
    q, _ = np.linalg.qr(rng.standard_normal((20, 4)))
    x = 2.0 * q  # orthonormal columns scaled by sigma = 2
    leverage = np.einsum("ij,ij->i", q, q)
    assert np.allclose(hs.node_scores(x), 4.0 * leverage, atol=1e-12)
    for x in (x, np.zeros((5, 3)), rng.standard_normal((30, 5))):
        u, sv, _ = np.linalg.svd(x, full_matrices=False)
        via_svd = np.einsum("ik,k->i", u * u, sv * sv)
        assert np.max(np.abs(hs.node_scores(x) - via_svd)) < 1e-9
