"""Immutable undirected graph in CSR form with Laplacian-derived metrics.

Graphs are unweighted, self-loop free, and store both directions of every
undirected edge. Node ids are dense 0-based; isolated nodes are legitimate
(declared via an explicit node count or implied by the max id seen).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DataError

# the most nodes whose largest edge key u*n + v, n*n - 1, fits in int64
MAX_NODES = math.isqrt(2**63 - 1)


@dataclass(frozen=True)
class Graph:
    """Undirected graph: ``n`` nodes, ``m`` undirected edges, CSR adjacency."""

    n: int
    m: int
    indptr: np.ndarray  # (n+1,) int64
    indices: np.ndarray  # (2m,) int64, sorted within each row

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Undirected edges as ``(u, v)`` arrays with u < v, lexicographically sorted."""
        src = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees())
        once = src < self.indices
        u = src[once]
        del src  # one edge-sized array fewer at the peak
        return u, self.indices[once]


def _sorted_distinct(a: np.ndarray) -> np.ndarray:
    """Sorted distinct values of an integer array, flattened (as ``np.unique``).

    A sort plus an adjacent-difference mask: numpy's plain ``np.unique``
    takes a slower hash path for integers.
    """
    a = np.sort(a, axis=None)
    keep = np.ones(a.size, dtype=bool)
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def _csr_from_directed(src: np.ndarray, dst: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR arrays from directed edges sorted by (src, dst)."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, np.ascontiguousarray(dst, dtype=np.int64)


def _freeze(g: Graph) -> Graph:
    g.indptr.flags.writeable = False
    g.indices.flags.writeable = False
    return g


def build_graph(edges, n: int | None = None) -> Graph:
    """Build a Graph from an iterable of (u, v) pairs.

    Edges are symmetrized and deduplicated; self-loops are dropped. ``n``
    declares the node count (required when the edge list is empty; otherwise
    defaults to max id + 1).
    """
    e = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges, dtype=np.int64)
    if e.size == 0:
        if n is None:
            raise DataError("empty graph: no edges and no declared node count")
        e = e.reshape(0, 2)
    if e.ndim != 2 or e.shape[1] != 2:
        raise DataError(f"edge list must have shape (k, 2), got {e.shape}")
    if e.size and e.min() < 0:
        raise DataError("negative node id in edge list")
    max_id = int(e.max()) if e.size else -1
    if n is None:
        n = max_id + 1
    else:
        n = int(n)
        if max_id >= n:
            raise DataError(f"edge endpoint {max_id} out of range for declared n={n}")
    if n < 1:
        raise DataError("empty graph: node count must be at least 1")
    if n > MAX_NODES:
        raise DataError(f"node count {n} is above the supported maximum {MAX_NODES}")
    e = e[e[:, 0] != e[:, 1]]  # self-loops are trace-neutral under L = D - A
    # one int64 key u*n + v per directed edge: sorting the keys sorts the
    # rows lexicographically
    key = _sorted_distinct(np.concatenate([e[:, 0] * n + e[:, 1], e[:, 1] * n + e[:, 0]]))
    indptr, indices = _csr_from_directed(*np.divmod(key, n), n)
    return _freeze(Graph(n=n, m=key.size // 2, indptr=indptr, indices=indices))


def laplacian_trace(g: Graph) -> float:
    """tr(L) = sum of degrees = 2m."""
    return float(g.indptr[-1])


def adjusted_trace(g: Graph) -> float:
    """tr(L) / n, the average degree; the connectivity proxy for subsamples."""
    if g.n < 1:
        raise ValueError("adjusted trace undefined for an empty graph")
    return laplacian_trace(g) / g.n


def connected_components(g: Graph) -> tuple[int, np.ndarray]:
    """Component count and a per-node component label array."""
    return _kernels.component_labels(g.n, *g.edges())


def laplacian_rank(g: Graph) -> int:
    """rank(L) = n - number of connected components; exact, no SVD needed."""
    count, _ = connected_components(g)
    return g.n - count


def induced_subgraph(g: Graph, keep) -> Graph:
    """Node-induced subgraph on the node ids ``keep``, relabeled to 0..k-1 in id order.

    An edge survives iff both endpoints are kept. Ids may come in any order
    and a repeated id counts once; an empty ``keep`` or an id outside
    [0, n) raises ValueError.
    """
    ids = _sorted_distinct(np.asarray(keep, dtype=np.int64))
    if ids.size == 0:
        raise ValueError("keep set must hold at least one node id")
    if ids[0] < 0 or ids[-1] >= g.n:
        raise ValueError(f"node ids must lie in [0, {g.n}), got range [{ids[0]}, {ids[-1]}]")
    kmask = np.zeros(g.n, dtype=bool)
    kmask[ids] = True
    new_id = np.cumsum(kmask, dtype=np.int64) - 1
    emask = np.repeat(kmask, g.degrees())  # row kept ...
    emask &= kmask[g.indices]  # ... and column kept
    # relabeling is monotone, so CSR row/column order is preserved; the
    # subgraph is symmetric, so a row's entry count is its column count
    dst = new_id[g.indices[emask]]
    indptr, indices = _csr_from_directed(dst, dst, ids.size)
    return _freeze(Graph(n=ids.size, m=indices.size // 2, indptr=indptr, indices=indices))


def induced_edges(n: int, edges, keep) -> tuple[np.ndarray, np.ndarray]:
    """Edge view of ``induced_subgraph(g, keep)`` from ``edges``, the view of ``g`` (n nodes).

    ``keep`` holds sorted distinct ids in [0, n). No CSR is built: the
    parent's edges with both ends kept are relabeled, and as the relabeling
    is monotone the result equals ``induced_subgraph(g, keep).edges()``.
    """
    u, v = edges
    kmask = np.zeros(n, dtype=bool)
    kmask[keep] = True
    new_id = np.cumsum(kmask, dtype=np.int64) - 1
    emask = kmask[u]
    emask &= kmask[v]
    return new_id[u[emask]], new_id[v[emask]]
