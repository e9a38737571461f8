import numpy as np
import pytest
import scipy.sparse as sp

import homsample as hs
from homsample.errors import NumericalError
from homsample.features import normalize_features
from homsample.gnn import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    GnnConfig,
    GnnModel,
    _shift_stack,
    _softmax,
    _stack,
    _unstack,
    init_weights,
    loss_and_grads,
    shift_matrix,
)

from util import dense_laplacian, random_edge_pairs, random_graph


def make_model(rng_seed, d_in, n_classes, **cfg_kw):
    cfg = GnnConfig(seed=rng_seed, **cfg_kw)
    return GnnModel(weights=init_weights(cfg, d_in, n_classes), config=cfg, n_classes=n_classes)


def test_filterbank_single_tap_is_graph_independent():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((10, 4))
    h = [rng.standard_normal((4, 3))]
    g1 = random_graph(rng, 10, 0.3)
    g2 = random_graph(rng, 10, 0.6)
    y1 = hs.conv_filterbank(shift_matrix(g1, "adjacency"), x, h)
    y2 = hs.conv_filterbank(shift_matrix(g2, "adjacency"), x, h)
    assert np.allclose(y1, x @ h[0], atol=1e-12)
    assert np.array_equal(y1, y2)


def test_filterbank_zero_taps_zero_output():
    rng = np.random.default_rng(1)
    g = random_graph(rng, 8, 0.4)
    x = rng.standard_normal((8, 3))
    taps = [np.zeros((3, 2)) for _ in range(3)]
    assert np.all(hs.conv_filterbank(shift_matrix(g), x, taps) == 0.0)


def test_filterbank_matches_dense_matrix_powers():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((9, 9))
    s = (a + a.T) / 2
    x = rng.standard_normal((9, 4))
    taps = [rng.standard_normal((4, 5)) for _ in range(4)]
    expected = sum(np.linalg.matrix_power(s, k) @ x @ taps[k] for k in range(4))
    got = hs.conv_filterbank(s, x, taps)
    assert got == pytest.approx(expected, rel=1e-9)


def test_filterbank_shape_errors():
    rng = np.random.default_rng(3)
    g = random_graph(rng, 6, 0.5)
    s = shift_matrix(g)
    with pytest.raises(ValueError):
        hs.conv_filterbank(s, rng.standard_normal((5, 2)), [np.eye(2)])
    with pytest.raises(ValueError):
        hs.conv_filterbank(s, rng.standard_normal((6, 2)), [np.eye(3)])


def test_forward_one_layer_single_tap_is_linear():
    rng = np.random.default_rng(4)
    g = random_graph(rng, 12, 0.3)
    x = rng.standard_normal((12, 5))
    model = make_model(0, 5, 3, layers=1, taps=1)
    assert hs.forward(model, g, x) == pytest.approx(x @ model.weights[0][0], abs=1e-12)


def test_forward_permutation_equivariance():
    rng = np.random.default_rng(5)
    n = 18
    g = random_graph(rng, n, 0.25)
    x = rng.standard_normal((n, 4))
    model = make_model(1, 4, 3, layers=2, taps=3, hidden=6)
    base = hs.forward(model, g, x)
    for _ in range(5):
        perm = rng.permutation(n)
        gp = hs.build_graph(perm[g.edge_array()], n=n)
        xp = np.empty_like(x)
        xp[perm] = x
        assert hs.forward(model, gp, xp)[perm] == pytest.approx(base, abs=1e-9)


def test_forward_deterministic():
    rng = np.random.default_rng(6)
    g = random_graph(rng, 10, 0.3)
    x = rng.standard_normal((10, 3))
    model = make_model(2, 3, 2)
    a = hs.forward(model, g, x)
    b = hs.forward(model, g, x)
    assert np.array_equal(a, b)


def test_no_information_flow_across_components():
    rng = np.random.default_rng(7)
    # nodes 0..5 form one component, 6..11 another
    left = [(i, j) for i in range(6) for j in range(i + 1, 6) if rng.uniform() < 0.6]
    right = [(i + 6, j + 6) for i in range(6) for j in range(i + 1, 6) if rng.uniform() < 0.6]
    g = hs.build_graph(left + right, n=12)
    model = make_model(3, 4, 2, layers=2, taps=2, hidden=5)
    x1 = rng.standard_normal((12, 4))
    x2 = x1.copy()
    x2[6:] = rng.standard_normal((6, 4))  # perturb only the other component
    l1 = hs.forward(model, g, x1)
    l2 = hs.forward(model, g, x2)
    assert np.array_equal(l1[:6], l2[:6])
    assert not np.array_equal(l1[6:], l2[6:])


def stacked_problem(cfg, s, x, labels, mask, n_classes):
    """Stacked init weights, gradient arrays and the epoch invariants loss_and_grads takes."""
    w = [_stack(taps, l) for l, taps in enumerate(init_weights(cfg, x.shape[1], n_classes))]
    idx = np.flatnonzero(mask)
    return w, [np.empty_like(h) for h in w], _shift_stack(s, x, cfg.taps), idx, labels[idx]


@pytest.mark.parametrize("layers, taps", [(2, 2), (3, 3)])
def test_gradients_match_finite_differences(layers, taps):
    rng = np.random.default_rng(8)
    n = 20
    g = random_graph(rng, n, 0.25)
    x = rng.standard_normal((n, 5))
    labels = rng.integers(0, 3, size=n)
    mask = np.ones(n, dtype=bool)
    cfg = GnnConfig(layers=layers, taps=taps, hidden=8, seed=0)
    s = shift_matrix(g, cfg.shift)
    w, grads, xs, idx, y = stacked_problem(cfg, s, x, labels, mask, 3)
    loss_and_grads(w, grads, s, xs, idx, y, cfg)
    scratch = [np.empty_like(h) for h in w]
    h = 1e-5
    for l in range(len(w)):
        for i in np.ndindex(w[l].shape):
            orig = w[l][i]
            w[l][i] = orig + h
            lp = loss_and_grads(w, scratch, s, xs, idx, y, cfg)
            w[l][i] = orig - h
            lm = loss_and_grads(w, scratch, s, xs, idx, y, cfg)
            w[l][i] = orig
            fd = (lp - lm) / (2 * h)
            an = grads[l][i]
            assert abs(fd - an) <= 1e-4 * max(abs(fd), abs(an), 1e-8)


def test_sigmoid_gradients_match_finite_differences():
    rng = np.random.default_rng(17)
    n = 12
    g = random_graph(rng, n, 0.3)
    x = rng.standard_normal((n, 3))
    labels = rng.integers(0, 2, size=n)
    mask = np.ones(n, dtype=bool)
    cfg = GnnConfig(layers=2, taps=2, hidden=4, activation="sigmoid", seed=0)
    s = shift_matrix(g, cfg.shift)
    w, grads, xs, idx, y = stacked_problem(cfg, s, x, labels, mask, 2)
    loss_and_grads(w, grads, s, xs, idx, y, cfg)
    scratch = [np.empty_like(h) for h in w]
    h = 1e-5
    for l in range(2):
        for i in np.ndindex(w[l].shape):
            orig = w[l][i]
            w[l][i] = orig + h
            lp = loss_and_grads(w, scratch, s, xs, idx, y, cfg)
            w[l][i] = orig - h
            lm = loss_and_grads(w, scratch, s, xs, idx, y, cfg)
            w[l][i] = orig
            fd = (lp - lm) / (2 * h)
            assert abs(fd - grads[l][i]) <= 1e-4 * max(abs(fd), abs(grads[l][i]), 1e-8)


@pytest.mark.parametrize("k", range(1, 11))
def test_softmax_equals_row_reduction_form_bit_for_bit(k):
    rng = np.random.default_rng(k)
    for scale in (1e-3, 1.0, 30.0, 1e3):
        logits = rng.standard_normal((500, k)) * scale
        z = logits - logits.max(axis=1, keepdims=True)
        e = np.exp(z)
        assert np.array_equal(_softmax(logits), e / e.sum(axis=1, keepdims=True))


def test_config_dims_chain():
    assert GnnConfig(layers=3, hidden=16).dims(5, 2) == [5, 16, 16, 2]
    assert GnnConfig(layers=1).dims(7, 4) == [7, 4]
    for hidden in ((16, 8), 0):
        with pytest.raises(ValueError, match="hidden"):
            GnnConfig(hidden=hidden)
    with pytest.raises(ValueError):
        GnnConfig(layers=0)
    with pytest.raises(ValueError):
        GnnConfig(shift="fourier")
    with pytest.raises(ValueError):
        GnnConfig(activation="tanh")


@pytest.mark.parametrize("field, value", [
    ("epochs", 0), ("epochs", -1),
    ("lr", float("nan")), ("lr", float("inf")), ("lr", -0.5),
    ("weight_decay", float("nan")), ("weight_decay", float("inf")), ("weight_decay", -1e-4),
])
def test_config_rejects_bad_training_settings(field, value):
    with pytest.raises(ValueError, match=field):
        GnnConfig(**{field: value})


def dense_filterbank(s_dense, z, taps):
    """sum_k S^k Z H_k from explicit dense powers of S."""
    return sum(np.linalg.matrix_power(s_dense, k) @ z @ h for k, h in enumerate(taps))


@pytest.mark.parametrize("activation", ["relu", "sigmoid"])
@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("taps", [1, 2, 3])
def test_forward_and_filterbank_match_dense_powers(taps, layers, activation):
    rng = np.random.default_rng(100 + 10 * taps + layers)
    n = 25
    g = random_graph(rng, n, 0.2)
    x = rng.standard_normal((n, 6))
    model = make_model(taps, 6, 3, layers=layers, taps=taps, hidden=4, activation=activation)
    s = shift_matrix(g, model.config.shift)
    s_dense = s.toarray()
    z = x
    for l, layer_taps in enumerate(model.weights):
        a = dense_filterbank(s_dense, z, layer_taps)
        for op in (s, s_dense):
            assert np.allclose(hs.conv_filterbank(op, z, layer_taps), a, rtol=0, atol=1e-12)
        if l < layers - 1:
            z = np.maximum(a, 0.0) if activation == "relu" else 1.0 / (1.0 + np.exp(-a))
        else:
            z = a
    assert np.allclose(hs.forward(model, g, x), z, rtol=0, atol=1e-12)


def reference_adam_train(g, x, labels, cfg, n_classes):
    """train() spelled out with per-tap Adam steps, driven by loss_and_grads' gradients."""
    s = shift_matrix(g, cfg.shift)
    xs = _shift_stack(s, normalize_features(x).values, cfg.taps)
    idx = np.arange(g.n)
    weights = init_weights(cfg, x.shape[1], n_classes)
    m_t = [[np.zeros_like(h) for h in taps] for taps in weights]
    v_t = [[np.zeros_like(h) for h in taps] for taps in weights]
    history = []
    for epoch in range(cfg.epochs):
        stacked = [_stack(taps, l) for l, taps in enumerate(weights)]
        grads = [np.empty_like(w) for w in stacked]
        history.append(loss_and_grads(stacked, grads, s, xs, idx, labels[idx], cfg))
        grads = [_unstack(gw, l, cfg.taps) for l, gw in enumerate(grads)]
        t = epoch + 1
        bc1 = 1.0 - ADAM_BETA1**t
        bc2 = 1.0 - ADAM_BETA2**t
        for l in range(len(weights)):
            for k in range(len(weights[l])):
                grad = grads[l][k]
                m_t[l][k] = ADAM_BETA1 * m_t[l][k] + (1.0 - ADAM_BETA1) * grad
                v_t[l][k] = ADAM_BETA2 * v_t[l][k] + (1.0 - ADAM_BETA2) * grad * grad
                step = (m_t[l][k] / bc1) / (np.sqrt(v_t[l][k] / bc2) + ADAM_EPS)
                weights[l][k] = weights[l][k] - cfg.lr * (step + cfg.weight_decay * weights[l][k])
    return weights, np.array(history)


@pytest.mark.parametrize("layers, taps, activation", [(1, 1, "relu"), (2, 2, "sigmoid"), (3, 3, "relu")])
def test_flat_adam_equals_per_tap_adam_bit_for_bit(layers, taps, activation):
    rng = np.random.default_rng(18)
    n = 30
    g = random_graph(rng, n, 0.2)
    x = rng.standard_normal((n, 5))
    labels = rng.integers(0, 3, size=n)
    cfg = GnnConfig(
        layers=layers, taps=taps, hidden=6, activation=activation, epochs=20, lr=0.01,
        weight_decay=1e-3, seed=2,
    )
    model = hs.train(g, x, labels, np.ones(n, dtype=bool), cfg, n_classes=3)
    ref_weights, ref_history = reference_adam_train(g, x, labels, cfg, 3)
    assert np.array_equal(model.loss_history, ref_history)
    for got, ref in zip(model.weights, ref_weights):
        assert all(np.array_equal(a, b) for a, b in zip(got, ref, strict=True))


def test_trained_weights_are_independent_arrays_of_documented_shapes():
    rng = np.random.default_rng(19)
    g = random_graph(rng, 20, 0.2)
    x = rng.standard_normal((20, 5))
    labels = rng.integers(0, 3, size=20)
    cfg = GnnConfig(layers=3, taps=3, hidden=4, epochs=3, seed=1)
    model = hs.train(g, x, labels, np.ones(20, dtype=bool), cfg)
    dims = cfg.dims(5, 3)
    flat = [h for taps in model.weights for h in taps]
    assert [len(taps) for taps in model.weights] == [3, 3, 3]
    for l, taps in enumerate(model.weights):
        assert all(h.shape == (dims[l], dims[l + 1]) and h.flags.c_contiguous for h in taps)
    for i, a in enumerate(flat):
        assert all(not np.shares_memory(a, b) for b in flat[i + 1:])
    before = [h.copy() for h in flat]
    flat[0][...] = 0.0
    assert all(np.array_equal(a, b) for a, b in zip(flat[1:], before[1:]))


def test_shift_matrix_kinds():
    g = hs.build_graph([(0, 1), (1, 2)])
    a = shift_matrix(g, "adjacency").toarray()
    assert np.array_equal(a, g.adjacency_dense())
    lap = shift_matrix(g, "laplacian").toarray()
    assert np.array_equal(lap, np.diag([1.0, 2.0, 1.0]) - a)
    norm = shift_matrix(g, "gcn_norm").toarray()
    assert np.allclose(norm, norm.T)
    deg = np.array([2.0, 3.0, 2.0])  # self-loops included
    expected = (np.eye(3) + a) / np.sqrt(np.outer(deg, deg))
    assert np.allclose(norm, expected, atol=1e-12)
    # rows of an isolated node stay finite under gcn_norm
    g2 = hs.build_graph([(0, 1)], n=3)
    norm2 = shift_matrix(g2, "gcn_norm").toarray()
    assert np.all(np.isfinite(norm2))
    assert norm2[2, 2] == 1.0


def shift_matrix_coo_reference(g, kind):
    """The shift built from COO (row, column) pairs, row ids repeated from the CSR."""
    n = g.n
    src = np.repeat(np.arange(n, dtype=np.int64), g.degrees())
    a = sp.csr_array((np.ones(src.shape[0]), (src, g.indices)), shape=(n, n))
    if kind == "adjacency":
        return a
    deg = np.asarray(a.sum(axis=1)).reshape(-1)
    if kind == "laplacian":
        return (sp.diags_array(deg, format="csr") - a).tocsr()
    a = a + sp.eye_array(n, format="csr")
    dinv = 1.0 / np.sqrt(deg + 1.0)
    return a.multiply(dinv[:, None]).multiply(dinv[None, :]).tocsr()


def test_shift_matrix_equals_coo_construction():
    rng = np.random.default_rng(12)
    isolated = 0
    for n, p in [(1, 0.0), (12, 0.0), (40, 0.03), (60, 0.3)]:
        g = hs.build_graph(random_edge_pairs(rng, n, p), n=n)
        isolated += int(np.sum(g.degrees() == 0))
        for kind in ("adjacency", "laplacian", "gcn_norm"):
            got, ref = shift_matrix(g, kind), shift_matrix_coo_reference(g, kind)
            for name in ("data", "indices", "indptr"):
                a, b = getattr(got, name), getattr(ref, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), (n, kind, name)
    assert isolated > 13


def test_shift_matrix_matches_dense_oracles():
    rng = np.random.default_rng(8)
    for n, p in [(1, 0.0), (12, 0.0), (25, 0.2), (40, 0.6)]:
        g = random_graph(rng, n, p)
        assert np.array_equal(shift_matrix(g, "adjacency").toarray(), g.adjacency_dense())
        assert np.array_equal(shift_matrix(g, "laplacian").toarray(), dense_laplacian(g))


def test_train_separable_classes_on_edgeless_graph():
    rng = np.random.default_rng(9)
    n = 60
    g = hs.build_graph([], n=n)
    labels = np.repeat([0, 1], n // 2)
    centers = np.where(labels[:, None] == 0, -1.0, 1.0) * np.ones((n, 4))
    x = centers + 0.2 * rng.standard_normal((n, 4))
    cfg = GnnConfig(layers=1, taps=1, epochs=200, lr=0.05, weight_decay=0.0, seed=1)
    model = hs.train(g, x, labels, np.ones(n, dtype=bool), cfg)
    assert hs.evaluate(model, g, x, labels, np.ones(n, dtype=bool)) >= 0.95


def test_zero_learning_rate_leaves_weights_at_init():
    rng = np.random.default_rng(10)
    g = random_graph(rng, 15, 0.3)
    x = rng.standard_normal((15, 3))
    labels = rng.integers(0, 2, size=15)
    cfg = GnnConfig(layers=2, taps=2, hidden=4, epochs=10, lr=0.0, seed=3)
    model = hs.train(g, x, labels, np.ones(15, dtype=bool), cfg)
    ref = init_weights(cfg, 3, 2)
    for l in range(2):
        for k in range(2):
            assert np.array_equal(model.weights[l][k], ref[l][k])


def test_train_is_deterministic_for_fixed_seed():
    rng = np.random.default_rng(11)
    g = random_graph(rng, 20, 0.2)
    x = rng.standard_normal((20, 4))
    labels = rng.integers(0, 3, size=20)
    cfg = GnnConfig(epochs=30, hidden=8, seed=5)
    m1 = hs.train(g, x, labels, np.ones(20, dtype=bool), cfg)
    m2 = hs.train(g, x, labels, np.ones(20, dtype=bool), cfg)
    for l in range(cfg.layers):
        for k in range(cfg.taps):
            assert np.array_equal(m1.weights[l][k], m2.weights[l][k])
    assert np.array_equal(m1.loss_history, m2.loss_history)


def test_train_rejects_bad_input():
    rng = np.random.default_rng(12)
    g = random_graph(rng, 10, 0.3)
    x = rng.standard_normal((10, 2))
    labels = rng.integers(0, 2, size=10)
    with pytest.raises(ValueError, match="empty"):
        hs.train(g, x, labels, np.zeros(10, dtype=bool), GnnConfig())
    with pytest.raises(ValueError):
        hs.train(g, x, labels, np.ones(10, dtype=bool), GnnConfig(), n_classes=1)


def test_train_divergence_raises():
    rng = np.random.default_rng(13)
    g = random_graph(rng, 10, 0.5)
    x = 1e3 * rng.standard_normal((10, 3))
    labels = rng.integers(0, 2, size=10)
    cfg = GnnConfig(layers=2, taps=2, hidden=4, epochs=50, lr=1e200, weight_decay=0.0, seed=0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match="diverged"):
            hs.train(g, x, labels, np.ones(10, dtype=bool), cfg)


def test_training_loss_mostly_nonincreasing():
    rng = np.random.default_rng(14)
    monotone = 0
    runs = 20
    for seed in range(runs):
        n = 40
        g = random_graph(rng, n, 0.15)
        labels = rng.integers(0, 2, size=n)
        x = np.column_stack([labels + 0.3 * rng.standard_normal(n) for _ in range(4)])
        cfg = GnnConfig(layers=2, taps=2, hidden=8, epochs=100, lr=1e-3, seed=seed)
        model = hs.train(g, x, labels, np.ones(n, dtype=bool), cfg)
        if np.all(np.diff(model.loss_history) <= 1e-10):
            monotone += 1
    assert monotone >= 0.9 * runs


def test_evaluate_hand_cases():
    rng = np.random.default_rng(15)
    g = random_graph(rng, 8, 0.3)
    labels = np.zeros(8, dtype=np.int64)
    model = make_model(0, 2, 2, layers=1, taps=1)
    model.weights[0][0] = np.array([[0.0, 0.0], [0.0, 0.0]])  # constant logits, tie -> class 0
    x = rng.standard_normal((8, 2))
    model.normalizer = None
    assert hs.evaluate(model, g, x, labels, np.ones(8, dtype=bool)) == 1.0
    assert hs.evaluate(model, g, x, np.ones(8, dtype=np.int64), np.ones(8, dtype=bool)) == 0.0
    with pytest.raises(ValueError):
        hs.evaluate(model, g, x, labels, np.zeros(8, dtype=bool))


def test_evaluate_perfect_logits():
    labels = np.array([0, 1, 2, 1, 0, 2])
    one_hot = np.eye(3)[labels]  # logits one-hot at the true label
    model = make_model(0, 3, 3, layers=1, taps=1)
    model.weights[0][0] = np.eye(3)  # identity single-tap: features pass through
    model.normalizer = None
    g = hs.build_graph([], n=6)
    assert hs.evaluate(model, g, one_hot, labels, np.ones(6, bool)) == 1.0


def test_evaluate_random_logits_near_chance():
    rng = np.random.default_rng(16)
    n, c = 4000, 4
    logits = rng.standard_normal((n, c))
    labels = rng.integers(0, c, size=n)
    acc = float(np.mean(np.argmax(logits, axis=1) == labels))
    assert abs(acc - 1.0 / c) <= 0.05


def test_transfer_train_small_evaluate_large():
    ds = hs.generate_dataset(
        hs.GraphonSpec(
            kind="blocks",
            n=300,
            feature_dim=8,
            noise=0.3,
            seed=21,
            block_probs=np.array([[0.15, 0.01], [0.01, 0.15]]),
            block_fracs=np.array([0.3, 0.7]),
        )
    )
    res = hs.sample_homophily(ds.graph, ds.features, hs.SampleSpec(gamma=0.5), labels=ds.labels)
    cfg = GnnConfig(epochs=100, hidden=16, seed=4)
    model = hs.train(
        res.subgraph, res.features, res.labels, np.ones(res.subgraph.n, dtype=bool), cfg,
        n_classes=2,
    )
    mask = np.ones(ds.graph.n, dtype=bool)
    mask[res.kept] = False
    acc = hs.evaluate(model, ds.graph, ds.features, ds.labels, mask)
    assert 0.0 <= acc <= 1.0
    assert acc >= 0.7  # well-separated blocks transfer comfortably
