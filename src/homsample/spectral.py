"""Numerical verification surface: convolution span rank and leverage identity.

Everything here is dense and capped at n <= 2000; these routines back the
test suite and diagnostics, not the production sampling path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gnn import shift_matrix
from .graph import Graph

DENSE_CAP = 2000
SHIFT_KINDS = ("adjacency", "laplacian", "gcn_norm", "custom")


@dataclass(frozen=True)
class ShiftOperator:
    """Dense symmetric shift matrix sharing the graph sparsity pattern."""

    matrix: np.ndarray
    kind: str = "custom"

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"shift operator must be square, got {m.shape}")
        if m.shape[0] > DENSE_CAP:
            raise ValueError(f"dense shift operators are capped at n={DENSE_CAP}")
        if not np.allclose(m, m.T, atol=1e-12, rtol=0.0):
            raise ValueError("shift operator must be symmetric (1e-12)")
        if self.kind not in SHIFT_KINDS:
            raise ValueError(f"unknown shift kind {self.kind!r}")
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def shift_from_graph(g: Graph, kind: str = "adjacency") -> ShiftOperator:
    """Dense adjacency or Laplacian shift operator of a graph."""
    if g.n > DENSE_CAP:
        raise ValueError(f"graph too large for dense shift operator (n={g.n})")
    if kind not in ("adjacency", "laplacian"):
        raise ValueError(f"unsupported graph-derived shift kind {kind!r}")
    return ShiftOperator(shift_matrix(g, kind).toarray(), kind=kind)


def numerical_rank(a: np.ndarray) -> int:
    """SVD rank with tolerance max(shape) * eps * sigma_max."""
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    tol = max(a.shape) * np.finfo(np.float64).eps * s[0]
    return int(np.sum(s > tol))


def shift_rank(s: ShiftOperator) -> int:
    return numerical_rank(s.matrix)


def conv_span_dimension(s: ShiftOperator, x, k_max: int) -> int:
    """Dimension of span{x, Sx, ..., S^(k_max-1) x} via SVD rank.

    Columns are normalized before the rank computation so large |S| and
    deep powers cannot overflow; normalization does not change the span.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if x.shape[0] != s.n:
        raise ValueError(f"signal has {x.shape[0]} entries, operator is {s.n}x{s.n}")
    if np.linalg.norm(x) == 0.0:
        raise ValueError("zero signal spans nothing")
    cols = np.zeros((s.n, k_max))
    v = x
    for k in range(k_max):
        nv = np.linalg.norm(v)
        if nv > 0.0:
            cols[:, k] = v / nv
        v = s.matrix @ cols[:, k]
    return numerical_rank(cols)


def leverage_identity_check(x) -> float:
    """Max |diag(XX^T) - diag(U S^2 U^T)| over nodes, via SVD of X.

    Verifies that the sampler's node scores are singular-value-weighted
    leverage scores.
    """
    x = np.asarray(x, dtype=np.float64)
    direct = np.einsum("ij,ij->i", x, x)
    u, sv, _ = np.linalg.svd(x, full_matrices=False)
    via_svd = np.einsum("ik,k->i", u * u, sv * sv)
    return float(np.max(np.abs(direct - via_svd))) if x.size else 0.0
