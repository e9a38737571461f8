"""Numerical verification surface: convolution span rank and leverage identity.

Dense SVD checks over plain matrices; they back the test suite and
diagnostics, not the production sampling path. A shift operator is passed as
a matrix, e.g. ``shift_matrix(g, "laplacian")`` or its ``.toarray()``.
"""

from __future__ import annotations

import numpy as np


def numerical_rank(a: np.ndarray) -> int:
    """SVD rank with tolerance max(shape) * eps * sigma_max."""
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    tol = max(a.shape) * np.finfo(np.float64).eps * s[0]
    return int(np.sum(s > tol))


def conv_span_dimension(s, x, k_max: int) -> int:
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
