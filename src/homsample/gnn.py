"""Desk-scale graph convolutional network with seeded full-batch training.

Each layer applies a polynomial filterbank in the graph shift operator,
sum_k S^k Z H_k, followed by an entry-wise activation (the last layer emits
raw logits). A layer's K tap matrices are stacked into one, so each
filterbank is one matrix product plus shifts of the narrower side:

- layer 0 stacks its taps by rows, (K d_in x d_out), and computes
  [X | SX | ... | S^(K-1) X] @ W_0; training shifts the features once per
  run;
- each later layer stacks its taps by columns, (d_in x K d_out): one
  product Y = Z @ W gives every Z H_k, and Horner's rule over its column
  blocks, a = S a + Y_k, shifts n x d_out instead of n x d_in.
  ``conv_filterbank`` is this path for a single filterbank.

Gradients are computed by hand. Past the output layer the gradient g is
shifted once, G = [g | Sg | ...]; with S symmetric, Z^T G is the stacked
tap gradient and G @ W^T the layer-input gradient. Training keeps the
stacked matrices as views into one flat parameter vector, so Adam with
decoupled weight decay is a few whole-vector operations; ``GnnModel``
holds the per-tap matrices. Everything is float64 numpy and deterministic
for a fixed seed.
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
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs!r}")
        for name in ("lr", "weight_decay"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")

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
    """sum_k S^k X H_k for a sparse or dense matrix S, by Horner's rule (never S^k)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != s.shape[0]:
        raise ValueError(f"signal shape {x.shape} does not match operator {s.shape}")
    d = x.shape[1]
    for h in taps:
        if h.shape != (d, taps[0].shape[1]):
            raise ValueError(f"tap shape {h.shape} does not match signal width {d} or the first tap")
    return _horner(s, x @ np.hstack(taps), len(taps))


def _activate(a: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return np.maximum(a, 0.0)
    return 1.0 / (1.0 + np.exp(-a))


def _shift_stack(s, z, count: int) -> np.ndarray:
    """[z | S z | ... | S^(count-1) z] as one (n, count * width) array, by iterated shifts."""
    if count == 1:
        return z
    n, d = z.shape
    out = np.empty((n, count * d))
    out[:, :d] = z
    for k in range(1, count):
        z = s @ z
        out[:, k * d : (k + 1) * d] = z
    return out


def _horner(s, y, taps: int) -> np.ndarray:
    """sum_k S^k Y_k over the ``taps`` column blocks Y_k of y: a = Y_(K-1), then a = S a + Y_k."""
    d = y.shape[1] // taps
    a = y[:, (taps - 1) * d :]
    for k in range(taps - 2, -1, -1):
        a = s @ a
        a += y[:, k * d : (k + 1) * d]
    return a


def _stack(taps, layer: int) -> np.ndarray:
    """A layer's tap matrices as one: stacked by rows at layer 0, by columns after it."""
    return np.vstack(taps) if layer == 0 else np.hstack(taps)


def _unstack(w, layer: int, taps: int) -> list[np.ndarray]:
    """The per-tap matrices of a stacked layer, as independent arrays."""
    return [h.copy() for h in np.split(w, taps, axis=0 if layer == 0 else 1)]


def _views(flat, shapes) -> list[np.ndarray]:
    """Consecutive 2-d views of one flat vector, one per shape."""
    views, start = [], 0
    for rows, cols in shapes:
        views.append(flat[start : start + rows * cols].reshape(rows, cols))
        start += rows * cols
    return views


def _forward(weights, s, xs, cfg) -> list[np.ndarray]:
    """Every layer's input, then the logits: [xs, z_1, ..., z_(L-1), logits].

    ``weights`` are the stacked tap matrices (``_stack``) and ``xs`` the
    first layer's shifted inputs (``_shift_stack`` of the features).
    """
    zs = [xs]
    for l, w in enumerate(weights):
        a = xs @ w if l == 0 else _horner(s, zs[-1] @ w, cfg.taps)
        zs.append(a if l == len(weights) - 1 else _activate(a, cfg.activation))
    return zs


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
    weights = [_stack(taps, l) for l, taps in enumerate(model.weights)]
    return _forward(weights, s, _shift_stack(s, x, model.config.taps), model.config)[-1]


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def loss_and_grads(weights, grads, s, xs, idx, y, cfg) -> float:
    """Cross-entropy loss over the nodes ``idx`` with labels ``y``.

    Writes the loss's gradient w.r.t. each stacked tap matrix of
    ``weights`` (``_stack``) into the same-shaped array of ``grads``.
    ``xs`` is the first layer's ``_shift_stack`` of the features; training
    computes it, ``idx`` and ``y`` once for all epochs.
    """
    zs = _forward(weights, s, xs, cfg)
    p = _softmax(zs[-1])
    loss = float(-np.mean(np.log(p[idx, y] + 1e-300)))

    g = np.zeros_like(p)  # gradient w.r.t. the current layer's pre-activation
    g[idx] = p[idx]
    g[idx, y] -= 1.0
    g /= idx.size
    last = len(weights) - 1
    for l in range(last, -1, -1):
        if l < last:  # through the activation, read off its output z
            z = zs[l + 1]
            g = g * (z > 0.0) if cfg.activation == "relu" else g * z * (1.0 - z)
        if l == 0:
            np.matmul(xs.T, g, out=grads[0])
        else:
            # G = [g | S g | ...]: Z^T G is every tap's gradient Z^T S^k g
            # (S symmetric), G W^T the layer-input gradient sum_k S^k g H_k^T
            shifted = _shift_stack(s, g, cfg.taps)
            np.matmul(zs[l].T, shifted, out=grads[l])
            g = shifted @ weights[l].T
    return loss


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
    init = [_stack(taps, l) for l, taps in enumerate(init_weights(cfg, x.shape[1], n_classes))]
    shapes = [w.shape for w in init]
    # every stacked tap matrix is a view into theta, every gradient one into grad
    theta = np.concatenate([w.ravel() for w in init])
    grad, m, v = np.zeros_like(theta), np.zeros_like(theta), np.zeros_like(theta)
    weights, grads = _views(theta, shapes), _views(grad, shapes)
    # the shifted features, the training nodes and their labels never change
    xs = _shift_stack(s, normalizer.values, cfg.taps)
    idx = np.flatnonzero(mask)
    y = labels[idx]

    history = np.empty(cfg.epochs)
    for epoch in range(cfg.epochs):
        loss = loss_and_grads(weights, grads, s, xs, idx, y, cfg)
        if not np.isfinite(loss):
            raise NumericalError(f"diverged: non-finite loss at epoch {epoch}")
        history[epoch] = loss
        t = epoch + 1
        bc1 = 1.0 - ADAM_BETA1**t
        bc2 = 1.0 - ADAM_BETA2**t
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * grad
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * grad * grad
        step = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        step += cfg.weight_decay * theta  # decoupled weight decay, outside the adaptive step
        theta -= cfg.lr * step
    return GnnModel(
        weights=[_unstack(w, l, cfg.taps) for l, w in enumerate(weights)],
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
