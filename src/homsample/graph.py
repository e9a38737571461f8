"""Immutable undirected graph in CSR form with Laplacian-derived metrics.

Graphs are unweighted, self-loop free, and store both directions of every
undirected edge. Node ids are dense 0-based; isolated nodes are legitimate
(declared via an explicit node count or implied by the max id seen).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import DataError


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
        return src[once], self.indices[once]

    def edge_array(self) -> np.ndarray:
        """The edges of ``edges()`` as one (m, 2) array."""
        return np.column_stack(self.edges())

    def neighbors(self, i: int) -> np.ndarray:
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def adjacency_dense(self) -> np.ndarray:
        """Dense adjacency matrix; intended for tests and small graphs."""
        a = np.zeros((self.n, self.n))
        u, v = self.edges()
        a[u, v] = 1.0
        a[v, u] = 1.0
        return a


@dataclass(frozen=True)
class NodeIndexSet:
    """Sorted distinct node indices of a parent graph, with relabeling maps."""

    indices: np.ndarray  # strictly increasing int64, values in [0, n_original)
    n_original: int

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        if idx.ndim != 1 or idx.size == 0:
            raise ValueError("node index set must be a nonempty 1-d sequence")
        if np.any(np.diff(idx) <= 0):
            raise ValueError("node indices must be strictly increasing")
        if idx[0] < 0 or idx[-1] >= self.n_original:
            raise ValueError(
                f"node indices must lie in [0, {self.n_original}), got "
                f"range [{idx[0]}, {idx[-1]}]"
            )
        object.__setattr__(self, "indices", idx)

    def __len__(self) -> int:
        return int(self.indices.size)

    def mask(self) -> np.ndarray:
        m = np.zeros(self.n_original, dtype=bool)
        m[self.indices] = True
        return m

    def to_new(self, old_ids) -> np.ndarray:
        """Map original node ids to subgraph ids (callers ensure membership)."""
        return np.searchsorted(self.indices, np.asarray(old_ids, dtype=np.int64))


def _sorted_distinct(a: np.ndarray) -> np.ndarray:
    """Sorted distinct values of an integer array, flattened (as ``np.unique``).

    A sort plus an adjacent-difference mask: numpy's plain ``np.unique``
    takes a slower hash path for integers.
    """
    a = np.sort(a, axis=None)
    keep = np.ones(a.size, dtype=bool)
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def node_index_set(ids, n: int) -> NodeIndexSet:
    """Build a NodeIndexSet from arbitrary (possibly unsorted) unique ids."""
    idx = _sorted_distinct(np.asarray(ids, dtype=np.int64))
    return NodeIndexSet(indices=idx, n_original=int(n))


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
    """Node-induced subgraph on ``keep``, relabeled to 0..len(keep)-1.

    An edge survives iff both endpoints are kept. ``keep`` may be a
    NodeIndexSet or any sequence of distinct node ids.
    """
    ks = keep if isinstance(keep, NodeIndexSet) else node_index_set(keep, g.n)
    if ks.n_original != g.n:
        raise ValueError(f"keep set is over {ks.n_original} nodes, graph has {g.n}")
    kmask = ks.mask()
    new_id = np.cumsum(kmask, dtype=np.int64) - 1
    emask = np.repeat(kmask, g.degrees())  # row kept ...
    emask &= kmask[g.indices]  # ... and column kept
    # relabeling is monotone, so CSR row/column order is preserved; the
    # subgraph is symmetric, so a row's entry count is its column count
    dst = new_id[g.indices[emask]]
    nk = len(ks)
    indptr, indices = _csr_from_directed(dst, dst, nk)
    return _freeze(Graph(n=nk, m=indices.size // 2, indptr=indptr, indices=indices))
