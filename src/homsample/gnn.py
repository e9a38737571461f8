"""Desk-scale graph convolutional network with seeded full-batch training.

Each layer applies a polynomial filterbank in the graph shift operator,
sum_k S^k Z H_k, followed by a relu (the last layer emits raw logits). A
layer's K tap matrices are stacked into one, so each filterbank is one
matrix product plus shifts of the narrower side:

- layer 0 stacks its taps by rows, (K d_in x d_out), and computes
  [X | SX | ... | S^(K-1) X] @ W_0; training shifts the features once per
  run;
- each later layer stacks its taps by columns, (d_in x K d_out): one
  product Y = Z @ W gives every Z H_k, and Horner's rule over its column
  blocks, a = S a + Y_k, shifts n x d_out instead of n x d_in.

Gradients are computed by hand. Past the output layer the gradient g is
shifted once, G = [g | Sg | ...]; with S symmetric, Z^T G is the stacked
tap gradient and G @ W^T the layer-input gradient. Training keeps the
stacked matrices as views into one flat parameter vector, so Adam with
decoupled weight decay is a few in-place whole-vector operations;
``GnnModel`` holds the stacked matrices too.

Apart from the sparse products S a, an epoch allocates no n-row array:
``train`` builds one ``_Workspace`` per run for each layer's output (relu
applied in place), product and input gradient, and a relu mask; the
softmax and the logit gradient overwrite the logits. ``np.multiply(g, mask, out=g)`` is the bool-to-float product of
``g * mask``, so every float and sign of zero is an allocating epoch's.
``forward`` builds a workspace without the backward arrays. Everything is
float64 numpy and deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import NumericalError
from .features import NormalizedFeatures, as_feature_matrix, normalize_features
from .graph import Graph

if TYPE_CHECKING:  # shift_matrix imports it when called, so only training loads scipy
    import scipy.sparse as sp

SHIFT_CHOICES = ("gcn_norm", "adjacency", "laplacian")

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

    # weights[l]: layer l's stacked taps, (K d_prev x d_next) at l = 0, (d_prev x K d_next) after
    weights: list[np.ndarray]
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
    import scipy.sparse as sp

    n = g.n
    if kind == "gcn_norm":
        # one pass: each sorted row takes its diagonal after its smaller columns, and
        # A + I holds only ones, so entry (i, j) is dinv[i] * dinv[j]
        deg = g.degrees()
        below = np.zeros(g.indices.shape[0] + 1, dtype=np.int64)  # running count of j < i entries
        np.cumsum(g.indices < np.repeat(np.arange(n), deg), out=below[1:])
        at = g.indptr[:-1] + below[g.indptr[1:]] - below[g.indptr[:-1]]
        del below
        indices = np.insert(g.indices, at, np.arange(n))
        dinv = 1.0 / np.sqrt(deg + 1.0)
        data = np.repeat(dinv, deg + 1) * dinv[indices]
        return sp.csr_array((data, indices, g.indptr + np.arange(n + 1)), shape=(n, n))
    a = sp.csr_array((np.ones(g.indices.shape[0]), g.indices, g.indptr), shape=(n, n))
    if kind == "adjacency":
        return a
    if kind == "laplacian":
        deg = np.asarray(a.sum(axis=1)).reshape(-1)
        return (sp.diags_array(deg, format="csr") - a).tocsr()
    raise ValueError(f"unknown shift kind {kind!r}")


def _shift_stack(s, z, count: int, out=None) -> np.ndarray:
    """[z | S z | ... | S^(count-1) z] as one (n, count * width) array, by iterated shifts."""
    if count == 1:
        return z
    n, d = z.shape
    if out is None:
        out = np.empty((n, count * d))
    out[:, :d] = z
    for k in range(1, count):
        z = s @ z
        out[:, k * d : (k + 1) * d] = z
    return out


def _horner(s, y, taps: int, out=None) -> np.ndarray:
    """sum_k S^k Y_k over the ``taps`` column blocks Y_k of y: a = Y_(K-1), then a = S a + Y_k.

    The last sum goes into ``out`` when given; ``taps`` must then be above 1.
    """
    d = y.shape[1] // taps
    a = y[:, (taps - 1) * d :]
    for k in range(taps - 2, -1, -1):
        a = s @ a
        a = np.add(a, y[:, k * d : (k + 1) * d], out=a if k or out is None else out)
    return a


def _views(flat, shapes) -> list[np.ndarray]:
    """Consecutive 2-d views of one flat vector, one per shape."""
    views, start = [], 0
    for rows, cols in shapes:
        views.append(flat[start : start + rows * cols].reshape(rows, cols))
        start += rows * cols
    return views


class _Workspace:
    """The n-row arrays of one run's epochs, allocated once and overwritten by each.

    ``out[l]`` is layer l's output and ``prod[l]`` its product Z @ W_l, which
    backward reuses for [g | S g | ...]. Given the training nodes ``idx`` and
    labels ``y``, it also holds each layer's input gradient ``grad_in[l]``,
    the relu mask ``pos``, the nodes outside ``idx`` and the flat positions
    of (idx, y) in the logits.
    """

    def __init__(self, weights, n: int, taps: int, idx=None, y=None):
        widths = [w.shape[1] // (taps if l else 1) for l, w in enumerate(weights)]
        self.out = [np.empty((n, d)) for d in widths]
        self.prod = [np.empty((n, w.shape[1])) if l and taps > 1 else None for l, w in enumerate(weights)]
        if idx is None:  # forward only
            return
        self.grad_in = [None] + [np.empty((n, w.shape[0])) for w in weights[1:]]
        self.pos = np.empty((n, widths[0]), dtype=bool) if len(weights) > 1 else None
        self.rest = np.setdiff1d(np.arange(n), idx)
        self.flat = idx * widths[-1] + y


def _forward(weights, s, xs, taps: int, ws: _Workspace) -> list[np.ndarray]:
    """Every layer's input, then the logits: [xs, z_1, ..., z_(L-1), logits], in ``ws``.

    ``weights`` are the stacked tap matrices and ``xs`` the
    first layer's shifted inputs (``_shift_stack`` of the features).
    """
    zs = [xs]
    for l, w in enumerate(weights):
        out = ws.out[l]
        if l == 0 or taps == 1:
            np.matmul(zs[-1], w, out=out)
        else:
            _horner(s, np.matmul(zs[-1], w, out=ws.prod[l]), taps, out)
        if l < len(weights) - 1:
            np.maximum(out, 0.0, out=out)
        zs.append(out)
    return zs


def forward(model: GnnModel, g: Graph, x) -> np.ndarray:
    """Logits of the model on a graph; ``x`` is used as given (no normalization)."""
    s = shift_matrix(g, model.config.shift)
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != g.n:
        raise ValueError(f"features have {x.shape[0]} rows, graph has {g.n} nodes")
    d_in = model.weights[0].shape[0] // model.config.taps
    if x.shape[1] != d_in:
        raise ValueError(f"features have width {x.shape[1]}, model expects {d_in}")
    taps = model.config.taps
    ws = _Workspace(model.weights, g.n, taps)
    return _forward(model.weights, s, _shift_stack(s, x, taps), taps, ws)[-1]


def _softmax(logits: np.ndarray, out=None) -> np.ndarray:
    """Row softmax, into ``out`` when given (``logits`` itself for an in-place softmax)."""
    if logits.shape[1] >= 8:
        e = np.subtract(logits, logits.max(axis=1, keepdims=True), out=out)
        np.exp(e, out=e)
        return np.divide(e, e.sum(axis=1, keepdims=True), out=e)
    # Short rows column by column: numpy's row reductions cost more than the
    # arithmetic here. Below 8 columns numpy's row sum adds left to right, so
    # this is the same sum; from 8 on it keeps eight partial sums.
    cols = logits.T
    top = cols[0].copy()
    for c in cols[1:]:
        np.maximum(top, c, out=top)
    e = np.subtract(logits, top[:, None], out=out)
    np.exp(e, out=e)
    total = e[:, 0].copy()
    for c in e.T[1:]:
        total += c
    return np.divide(e, total[:, None], out=e)


def loss_and_grads(weights, grads, s, xs, idx, y, cfg, ws: _Workspace | None = None) -> float:
    """Cross-entropy loss over the nodes ``idx`` with labels ``y``.

    Writes the loss's gradient w.r.t. each stacked tap matrix of
    ``weights`` into the same-shaped array of ``grads``.
    ``xs`` is the first layer's ``_shift_stack`` of the features; training
    computes it, ``idx``, ``y`` and the workspace ``ws`` once for all
    epochs. Without ``ws`` the call builds its own.
    """
    if ws is None:
        ws = _Workspace(weights, xs.shape[0], cfg.taps, idx, y)
    zs = _forward(weights, s, xs, cfg.taps, ws)
    g = _softmax(zs[-1], out=zs[-1])
    loss = float(-np.mean(np.log(g.take(ws.flat) + 1e-300)))

    # g becomes the gradient w.r.t. the current layer's pre-activation
    g[ws.rest] = 0.0
    g.ravel()[ws.flat] -= 1.0
    g /= idx.size
    last = len(weights) - 1
    for l in range(last, -1, -1):
        if l < last:  # through the relu, read off its output
            np.multiply(g, np.greater(zs[l + 1], 0.0, out=ws.pos), out=g)
        if l == 0:
            np.matmul(xs.T, g, out=grads[0])
        else:
            # G = [g | S g | ...]: Z^T G is every tap's gradient Z^T S^k g
            # (S symmetric), G W^T the layer-input gradient sum_k S^k g H_k^T
            shifted = _shift_stack(s, g, cfg.taps, ws.prod[l])
            np.matmul(zs[l].T, shifted, out=grads[l])
            g = np.matmul(shifted, weights[l].T, out=ws.grad_in[l])
    return loss


def init_weights(cfg: GnnConfig, d_in: int, n_classes: int) -> list[np.ndarray]:
    """Seeded uniform init scaled by fan-in (including the tap count), stacked as in ``GnnModel``.

    Each layer's taps are drawn in turn, tap 0 first, then stacked.
    """
    dims = cfg.dims(d_in, n_classes)
    rng = np.random.default_rng(cfg.seed)
    weights = []
    for l in range(cfg.layers):
        bound = np.sqrt(1.0 / (cfg.taps * dims[l]))
        taps = [rng.uniform(-bound, bound, size=(dims[l], dims[l + 1])) for _ in range(cfg.taps)]
        weights.append(np.vstack(taps) if l == 0 else np.hstack(taps))
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
    init = init_weights(cfg, x.shape[1], n_classes)
    shapes = [w.shape for w in init]
    # every stacked tap matrix is a view into theta, every gradient one into grad
    theta = np.concatenate([w.ravel() for w in init])
    grad, m, v = np.zeros_like(theta), np.zeros_like(theta), np.zeros_like(theta)
    weights, grads = _views(theta, shapes), _views(grad, shapes)
    # the shifted features, the training nodes and their labels never change
    xs = _shift_stack(s, normalizer.values, cfg.taps)
    idx = np.flatnonzero(mask)
    y = labels[idx]

    ws = _Workspace(weights, g.n, cfg.taps, idx, y)
    t1, step = np.empty_like(theta), np.empty_like(theta)

    history = np.empty(cfg.epochs)
    for epoch in range(cfg.epochs):
        loss = loss_and_grads(weights, grads, s, xs, idx, y, cfg, ws)
        if not np.isfinite(loss):
            raise NumericalError(f"diverged: non-finite loss at epoch {epoch}")
        history[epoch] = loss
        t = epoch + 1
        bc1 = 1.0 - ADAM_BETA1**t
        bc2 = 1.0 - ADAM_BETA2**t
        # in place: step = (m / bc1) / (sqrt(v / bc2) + eps) + weight_decay * theta,
        # the decay decoupled from the adaptive step; theta -= lr * step
        m *= ADAM_BETA1
        m += np.multiply(grad, 1.0 - ADAM_BETA1, out=t1)
        v *= ADAM_BETA2
        np.multiply(grad, 1.0 - ADAM_BETA2, out=t1)
        v += np.multiply(t1, grad, out=t1)
        np.sqrt(np.divide(v, bc2, out=t1), out=t1)
        t1 += ADAM_EPS
        np.divide(m, bc1, out=step)
        step /= t1
        step += np.multiply(theta, cfg.weight_decay, out=t1)
        step *= cfg.lr
        theta -= step
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
