"""Feature standardization, node scores, feature homophily, and the trace bound.

Normalization maps column j to (x - mu_j) / (sqrt(d) * sigma_j) with the
population standard deviation, so tr(XhXh^T) = n when no column is
degenerate. Zero-variance columns are zeroed and flagged rather than
erroring: constant columns routinely appear in subsamples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .graph import Graph


@dataclass(frozen=True)
class NormalizedFeatures:
    """Standardized feature matrix plus the affine map that produced it.

    ``values`` is (n, d) with each valid column at mean 0 and population
    variance 1/d; invalid (zero-variance) columns are identically zero and
    flagged False in ``valid_mask``. ``mean``/``scale`` store the fitted
    per-column affine map so it can be reused on other node sets.
    """

    values: np.ndarray
    valid_mask: np.ndarray
    mean: np.ndarray
    scale: np.ndarray

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]

    def transform(self, x) -> np.ndarray:
        """Apply the fitted affine map to a new (k, d) feature matrix."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.d:
            raise ValueError(f"expected (*, {self.d}) features, got {x.shape}")
        return (x - self.mean) * self.scale


def as_feature_matrix(x) -> np.ndarray:
    """Validate and coerce a feature matrix to a float64 (n, d) array."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] < 1:
        raise ValueError(f"feature matrix must be 2-d and nonempty, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("feature matrix contains non-finite entries")
    return x


def normalize_features(x) -> NormalizedFeatures:
    """Standardize features column-wise: (x - mu_j) / (sqrt(d) * sigma_j)."""
    x = as_feature_matrix(x)
    d = x.shape[1]
    mu = x.mean(axis=0)
    sigma = x.std(axis=0)  # population std
    valid = sigma > 0.0
    scale = np.zeros(d)
    scale[valid] = 1.0 / (np.sqrt(d) * sigma[valid])
    values = (x - mu) * scale
    return NormalizedFeatures(values=values, valid_mask=valid, mean=mu, scale=scale)


def node_scores(xh) -> np.ndarray:
    """Per-node squared row norms, i.e. the diagonal of XhXh^T. Cost O(dn)."""
    values = xh.values if isinstance(xh, NormalizedFeatures) else np.asarray(xh, dtype=np.float64)
    return np.einsum("ij,ij->i", values, values)


def correlation_trace(xh) -> float:
    """tr(XhXh^T), the total squared mass of the feature matrix."""
    return float(np.sum(node_scores(xh)))


def feature_homophily(g: Graph, xh, edges=None) -> float:
    """Feature homophily: -(1/n) * sum over edges of |Xh_i - Xh_j|^2.

    Edge-wise evaluation of tr(-L XhXh^T)/n, O(dm); always <= 0. ``edges``
    may pass ``g.edges()`` when the caller already holds it.
    """
    values = xh.values if isinstance(xh, NormalizedFeatures) else np.asarray(xh, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] != g.n:
        raise ValueError(f"features have {values.shape[0]} rows, graph has {g.n} nodes")
    total = _kernels.edge_distance_sum(*(g.edges() if edges is None else edges), values)
    h = -total / g.n if total > 0.0 else 0.0  # avoid -0.0
    assert h <= 0.0
    return h


def trace_lower_bound(h_g: float, xh) -> float:
    """Lower bound on tr(L): -n * h_G / tr(XhXh^T).

    Requires at least one valid feature column; callers assert
    laplacian_trace(g) >= the returned value.
    """
    values = xh.values if isinstance(xh, NormalizedFeatures) else np.asarray(xh, dtype=np.float64)
    t = correlation_trace(values)
    if t <= 0.0:
        raise ValueError("bound undefined: tr(XhXh^T) is zero (all features degenerate)")
    n = values.shape[0]
    return -n * h_g / t
