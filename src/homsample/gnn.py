"""Desk-scale graph convolutional network with seeded full-batch training.

Each layer applies a polynomial filterbank in the graph shift operator,
sum_k S^k X H_k, followed by an entry-wise activation (last layer emits raw
logits). One tap sum over iterated shifts computes every filterbank:
``conv_filterbank`` (S a sparse or dense matrix), each forward layer, and
the backward sum_k S^k G H_k^T. Gradients are computed by hand; the
optimizer is Adam with decoupled weight decay. Everything is float64 numpy
and deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import NumericalError
from .features import NormalizedFeatures, as_feature_matrix, normalize_features
from .graph import Graph

SHIFT_CHOICES = ("gcn_norm", "adjacency", "laplacian")
ACTIVATIONS = ("relu", "sigmoid")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class GnnConfig:
    """Architecture and training hyperparameters.

    ``hidden`` gives the width of each of the ``layers - 1`` inner layers;
    the output width is the class count, fixed at training time.
    """

    layers: int = 2
    taps: int = 2
    hidden: int = 64
    shift: str = "gcn_norm"
    activation: str = "relu"
    epochs: int = 200
    lr: float = 1e-3
    weight_decay: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        if self.layers < 1 or self.taps < 1:
            raise ValueError("layers and taps must be at least 1")
        if not isinstance(self.hidden, int) or self.hidden < 1:
            raise ValueError(f"hidden must be an int >= 1, got {self.hidden!r}")
        if self.shift not in SHIFT_CHOICES:
            raise ValueError(f"shift must be one of {SHIFT_CHOICES}, got {self.shift!r}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")

    def dims(self, d_in: int, n_classes: int) -> list[int]:
        """Consistent width chain d_in -> hidden... -> n_classes."""
        return [d_in, *[self.hidden] * (self.layers - 1), n_classes]


@dataclass
class GnnModel:
    """Trained filterbank weights plus the feature normalizer fitted at training."""

    weights: list[list[np.ndarray]]  # weights[layer][tap]: (d_prev, d_next)
    config: GnnConfig
    n_classes: int
    normalizer: NormalizedFeatures | None = None
    loss_history: np.ndarray = field(default_factory=lambda: np.empty(0))


def shift_matrix(g: Graph, kind: str = "gcn_norm") -> sp.csr_array:
    """Sparse shift operator of a graph.

    ``gcn_norm`` is the symmetric degree-normalized adjacency with self
    loops, D^{-1/2} (A + I) D^{-1/2}; ``adjacency`` and ``laplacian`` are
    the plain alternatives.
    """
    n = g.n
    a = sp.csr_array((np.ones(g.indices.shape[0]), g.indices, g.indptr), shape=(n, n))
    if kind == "adjacency":
        return a
    deg = np.asarray(a.sum(axis=1)).reshape(-1)
    if kind == "laplacian":
        return (sp.diags_array(deg, format="csr") - a).tocsr()
    if kind == "gcn_norm":
        a = a + sp.eye_array(n, format="csr")
        dinv = 1.0 / np.sqrt(deg + 1.0)
        return a.multiply(dinv[:, None]).multiply(dinv[None, :]).tocsr()
    raise ValueError(f"unknown shift kind {kind!r}")


def conv_filterbank(s, x, taps) -> np.ndarray:
    """sum_k S^k X H_k for a sparse or dense matrix S, by iterated shifts (never S^k)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != s.shape[0]:
        raise ValueError(f"signal shape {x.shape} does not match operator {s.shape}")
    d = x.shape[1]
    for h in taps:
        if h.shape[0] != d:
            raise ValueError(f"tap shape {h.shape} does not match signal width {d}")
    return _tap_sum(_shift_powers(s, x, len(taps)), taps)


def _activate(a: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return np.maximum(a, 0.0)
    return 1.0 / (1.0 + np.exp(-a))


def _shift_powers(s, z, count: int) -> list[np.ndarray]:
    """[z, S z, ..., S^(count-1) z] by iterated shifts."""
    powers = [z]
    for _ in range(count - 1):
        powers.append(s @ powers[-1])
    return powers


def _tap_sum(powers, taps) -> np.ndarray:
    """sum_k powers[k] @ taps[k], accumulated in place in tap order."""
    y = powers[0] @ taps[0]
    for k in range(1, len(taps)):
        y += powers[k] @ taps[k]
    return y


def _forward_cached(weights, s, x_powers, activation):
    """Forward pass keeping the per-layer shifted inputs for backprop.

    ``x_powers`` are the first layer's shifted inputs (``_shift_powers`` of
    the features). Returns (logits, caches); caches[l] = (powers, pre_act)
    where powers[k] holds S^k applied to the layer input.
    """
    caches = []
    n_layers = len(weights)
    powers = x_powers
    for l, taps in enumerate(weights):
        if l > 0:
            powers = _shift_powers(s, z, len(taps))
        a = _tap_sum(powers, taps)
        caches.append((powers, a))
        z = _activate(a, activation) if l < n_layers - 1 else a
    return z, caches


def forward(model: GnnModel, g: Graph, x) -> np.ndarray:
    """Logits of the model on a graph; ``x`` is used as given (no normalization)."""
    s = shift_matrix(g, model.config.shift)
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != g.n:
        raise ValueError(f"features have {x.shape[0]} rows, graph has {g.n} nodes")
    if x.shape[1] != model.weights[0][0].shape[0]:
        raise ValueError(
            f"features have width {x.shape[1]}, model expects {model.weights[0][0].shape[0]}"
        )
    taps = len(model.weights[0])
    logits, _ = _forward_cached(model.weights, s, _shift_powers(s, x, taps), model.config.activation)
    return logits


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def loss_and_grads(weights, s, x_powers, labels, mask, activation):
    """Masked cross-entropy loss and its gradients w.r.t. every tap matrix.

    ``x_powers`` is ``[x, S x, ..., S^(K-1) x]`` (``_shift_powers``) for the
    first layer's K taps; training computes it once for all epochs.
    """
    logits, caches = _forward_cached(weights, s, x_powers, activation)
    idx = np.flatnonzero(mask)
    p = _softmax(logits)
    loss = float(-np.mean(np.log(p[idx, labels[idx]] + 1e-300)))

    grad_out = np.zeros_like(logits)
    grad_out[idx] = p[idx]
    grad_out[idx, labels[idx]] -= 1.0
    grad_out /= idx.size

    grads = [None] * len(weights)
    g_up = grad_out  # gradient w.r.t. the current layer's pre-activation
    for l in range(len(weights) - 1, -1, -1):
        powers, pre_act = caches[l]
        if l < len(weights) - 1:
            if activation == "relu":
                g_up = g_up * (pre_act > 0.0)
            else:
                sig = _activate(pre_act, "sigmoid")
                g_up = g_up * sig * (1.0 - sig)
        grads[l] = [z.T @ g_up for z in powers]
        if l > 0:
            # d loss / d layer-input = sum_k S^k g_up H_k^T (S symmetric)
            taps = weights[l]
            g_up = _tap_sum(_shift_powers(s, g_up, len(taps)), [h.T for h in taps])
    return loss, grads


def init_weights(cfg: GnnConfig, d_in: int, n_classes: int) -> list[list[np.ndarray]]:
    """Seeded uniform init scaled by fan-in (including the tap count)."""
    dims = cfg.dims(d_in, n_classes)
    rng = np.random.default_rng(cfg.seed)
    weights = []
    for l in range(cfg.layers):
        bound = np.sqrt(1.0 / (cfg.taps * dims[l]))
        weights.append(
            [rng.uniform(-bound, bound, size=(dims[l], dims[l + 1])) for _ in range(cfg.taps)]
        )
    return weights


def train(g: Graph, x, labels, train_mask, cfg: GnnConfig, n_classes: int | None = None) -> GnnModel:
    """Full-batch Adam training of the GCN on one graph.

    Features are standardized on this graph and the affine map is stored on
    the model so evaluation elsewhere reuses it. Raises NumericalError if
    the loss becomes non-finite.
    """
    x = as_feature_matrix(x)
    labels = np.asarray(labels, dtype=np.int64)
    mask = np.asarray(train_mask, dtype=bool)
    if x.shape[0] != g.n or labels.shape[0] != g.n or mask.shape[0] != g.n:
        raise ValueError("features, labels, and mask must all have one row per node")
    if not mask.any():
        raise ValueError("training mask is empty")
    if labels[mask].min() < 0:
        raise ValueError("labels must be nonnegative")
    if n_classes is None:
        n_classes = int(labels[mask].max()) + 1
    elif labels[mask].max() >= n_classes:
        raise ValueError(f"label {labels[mask].max()} out of range for {n_classes} classes")

    normalizer = normalize_features(x)
    s = shift_matrix(g, cfg.shift)
    weights = init_weights(cfg, x.shape[1], n_classes)
    xh_powers = _shift_powers(s, normalizer.values, cfg.taps)  # the features never change

    m_t = [[np.zeros_like(h) for h in taps] for taps in weights]
    v_t = [[np.zeros_like(h) for h in taps] for taps in weights]
    history = np.empty(cfg.epochs)
    for epoch in range(cfg.epochs):
        loss, grads = loss_and_grads(weights, s, xh_powers, labels, mask, cfg.activation)
        if not np.isfinite(loss):
            raise NumericalError(f"diverged: non-finite loss at epoch {epoch}")
        history[epoch] = loss
        t = epoch + 1
        bc1 = 1.0 - ADAM_BETA1**t
        bc2 = 1.0 - ADAM_BETA2**t
        for l in range(len(weights)):
            for k in range(len(weights[l])):
                grad = grads[l][k]
                m_t[l][k] = ADAM_BETA1 * m_t[l][k] + (1.0 - ADAM_BETA1) * grad
                v_t[l][k] = ADAM_BETA2 * v_t[l][k] + (1.0 - ADAM_BETA2) * grad * grad
                step = (m_t[l][k] / bc1) / (np.sqrt(v_t[l][k] / bc2) + ADAM_EPS)
                # decoupled weight decay, applied outside the adaptive step
                weights[l][k] = weights[l][k] - cfg.lr * (step + cfg.weight_decay * weights[l][k])
    return GnnModel(
        weights=weights,
        config=cfg,
        n_classes=n_classes,
        normalizer=normalizer,
        loss_history=history,
    )


def evaluate(model: GnnModel, g: Graph, x, labels, eval_mask) -> float:
    """Argmax accuracy over the masked nodes (ties pick the smaller class)."""
    labels = np.asarray(labels, dtype=np.int64)
    mask = np.asarray(eval_mask, dtype=bool)
    if not mask.any():
        raise ValueError("evaluation mask is empty")
    x = as_feature_matrix(x)
    if model.normalizer is not None:
        x = model.normalizer.transform(x)
    logits = forward(model, g, x)
    pred = np.argmax(logits, axis=1)  # first max = smaller class index
    return float(np.mean(pred[mask] == labels[mask]))
