"""Shared helpers and independent dense oracles for the test suite."""

import numpy as np
import scipy.sparse as sp

import homsample as hs
from homsample.features import normalize_features
from homsample.gnn import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, init_weights


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


def lowest_scores_kept(scores, gamma):
    """Independent keep rule of Algorithm 1: the smallest scores, ties kept by smaller index."""
    keep = len(scores) - int(np.floor((1.0 - gamma) * len(scores)))
    return np.sort(np.argsort(scores, kind="stable")[:keep])


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


def compose_shift(a, kind):
    """A shift operator composed from scipy operations on the adjacency ``a``.

    ``gcn_norm`` is built as (A + I), scaled by D^-1/2 on each side.
    """
    if kind == "adjacency":
        return a
    deg = np.asarray(a.sum(axis=1)).reshape(-1)
    if kind == "laplacian":
        return (sp.diags_array(deg, format="csr") - a).tocsr()
    a = a + sp.eye_array(a.shape[0], format="csr")
    dinv = 1.0 / np.sqrt(deg + 1.0)
    return a.multiply(dinv[:, None]).multiply(dinv[None, :]).tocsr()


def composed_shift(g, kind):
    """``compose_shift`` on the graph's CSR adjacency."""
    a = sp.csr_array((np.ones(g.indices.shape[0]), g.indices, g.indptr), shape=(g.n, g.n))
    return compose_shift(a, kind)


def same_bits(a, b):
    """Equal shape, dtype and bytes: every float and the sign of every zero."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def allocating_shift_stack(s, z, taps):
    """[z | S z | ... | S^(taps-1) z], every shift a new array."""
    cols = [z]
    for _ in range(taps - 1):
        cols.append(s @ cols[-1])
    return np.hstack(cols)


def allocating_forward(weights, s, xs, taps):
    """[xs, z_1, ..., logits] of the stacked-tap GCN, every step a new array."""
    zs = [xs]
    for l, w in enumerate(weights):
        if l == 0:
            a = xs @ w
        else:
            y = zs[-1] @ w
            d = y.shape[1] // taps
            a = y[:, (taps - 1) * d :]
            for k in range(taps - 2, -1, -1):
                a = s @ a
                a += y[:, k * d : (k + 1) * d]
        zs.append(a if l == len(weights) - 1 else np.maximum(a, 0.0))
    return zs


def allocating_loss_and_grads(weights, s, xs, idx, y, taps, masked=None):
    """(loss, stacked gradients) of one epoch that allocates each array it computes.

    The softmax is the row-reduction form, which ``gnn._softmax`` equals bit
    for bit (``test_softmax_equals_row_reduction_form_bit_for_bit``). A dict
    ``masked`` receives, under each l >= 1, the gradient w.r.t. layer l's
    input after the relu mask, ``g * (z_l > 0)``.
    """
    zs = allocating_forward(weights, s, xs, taps)
    e = np.exp(zs[-1] - zs[-1].max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    loss = float(-np.mean(np.log(p[idx, y] + 1e-300)))
    g = np.zeros_like(p)
    g[idx] = p[idx]
    g[idx, y] -= 1.0
    g /= idx.size
    grads = [None] * len(weights)
    for l in range(len(weights) - 1, -1, -1):
        if l < len(weights) - 1:
            g = g * (zs[l + 1] > 0.0)
            if masked is not None:
                masked[l + 1] = g
        if l == 0:
            grads[0] = xs.T @ g
        else:
            shifted = allocating_shift_stack(s, g, taps)
            grads[l] = zs[l].T @ shifted
            g = shifted @ weights[l].T
    return loss, grads


def allocating_train(g, x, labels, mask, cfg, n_classes):
    """(stacked weights, loss history) of full-batch Adam over ``allocating_loss_and_grads``."""
    s = composed_shift(g, cfg.shift)
    xs = allocating_shift_stack(s, normalize_features(x).values, cfg.taps)
    idx = np.flatnonzero(mask)
    init = init_weights(cfg, x.shape[1], n_classes)
    ends = np.cumsum([w.size for w in init])[:-1]
    theta = np.concatenate([w.ravel() for w in init])
    m, v = np.zeros_like(theta), np.zeros_like(theta)
    history = []
    for epoch in range(cfg.epochs):
        weights = [part.reshape(w.shape) for part, w in zip(np.split(theta, ends), init)]
        loss, grads = allocating_loss_and_grads(weights, s, xs, idx, labels[idx], cfg.taps)
        history.append(loss)
        grad = np.concatenate([h.ravel() for h in grads])
        t = epoch + 1
        bc1 = 1.0 - ADAM_BETA1**t
        bc2 = 1.0 - ADAM_BETA2**t
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
        v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad * grad
        step = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        theta = theta - cfg.lr * (step + cfg.weight_decay * theta)
    weights = [part.reshape(w.shape) for part, w in zip(np.split(theta, ends), init)]
    return weights, np.array(history)
