"""Hot kernels over undirected graphs, one numpy/stdlib implementation each.

``edge_distance_sum`` and ``component_labels`` take an edge view: each
undirected edge once, as ``(u, v)`` arrays, either ``Graph.edges()`` or a
sample's view derived from its parent's (``graph.induced_edges``), so no
subgraph CSR is needed. ``greedy_min_degree_order`` takes the symmetric CSR
arrays, because it walks neighbour lists. All three are deterministic: the
same arrays give the same result on every run and machine.

Importing this module also fixes glibc's allocator policy for the process
(see ``_set_allocator_policy``).
"""

from __future__ import annotations

import ctypes
import heapq

import numpy as np


_MMAP_THRESHOLD = 8 << 20


def _set_allocator_policy() -> None:
    """Serve allocations below 8 MB from the heap and keep up to 16 MB of free top.

    glibc's mmap threshold starts at 128 KB and only rises after large
    blocks are freed. Below it, every numpy temporary over 128 KB (an
    n x hidden activation, an m x d edge gather) is mmapped and page-faulted
    afresh on each call: measured on 2 vCPUs, that made the homophily sum
    at m = 10k about 3x and GNN training at n = 2000 about 2x slower.
    Larger thresholds keep more freed memory resident and raise peak RSS.
    Without glibc (no ``libc.so.6``) this does nothing.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        mallopt(-3, _MMAP_THRESHOLD)  # M_MMAP_THRESHOLD
        mallopt(-1, 2 * _MMAP_THRESHOLD)  # M_TRIM_THRESHOLD
    except (OSError, AttributeError, TypeError):
        pass


_set_allocator_policy()

# Edge rows processed per block in edge_distance_sum: at most 1 << 15, and
# few enough that a block of gathered float64 rows stays below the mmap
# threshold (the byte cap binds from d = 32 on). Fixed by d alone, so
# results do not depend on available memory.
_CHUNK = 1 << 15


def _chunk_rows(d: int) -> int:
    return max(1, min(_CHUNK, (_MMAP_THRESHOLD - 1) // (8 * max(1, d))))


def edge_distance_sum(u, v, x) -> float:
    """Sum of squared row distances of ``x`` over the undirected edges ``(u, v)``.

    Rows are gathered as fixed-width records (one ``memcpy`` each), which
    is faster than 2-d fancy indexing and yields the same floats.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    n, d = x.shape
    if d == 0:
        return 0.0
    rec = x.view(np.dtype((np.void, 8 * d))).reshape(n)
    rows = _chunk_rows(d)
    total = 0.0
    for lo in range(0, u.shape[0], rows):
        diff = rec[u[lo : lo + rows]].view(np.float64).reshape(-1, d)
        np.subtract(diff, rec[v[lo : lo + rows]].view(np.float64).reshape(-1, d), out=diff)
        total += float(np.einsum("ij,ij->", diff, diff))
    return total


def _jump(parent: np.ndarray) -> np.ndarray:
    """Pointer-jump until every node points at a fixed point of ``parent``."""
    while True:
        nxt = parent[parent]
        if np.array_equal(nxt, parent):
            return parent
        parent = nxt


def component_labels(n: int, u, v):
    """Connected components of ``n`` nodes and undirected edges ``(u, v)``: (count, labels).

    Hook-and-jump (Shiloach-Vishkin): each round hooks every root onto the
    smallest root across its edges, in both directions, then pointer-jumps
    to stars, until no root changes. Roots only decrease, so each ends as
    its component's smallest node; labels number components in that order,
    which is the first-seen-root order of a BFS scanning nodes 0..n-1.
    """
    root = np.arange(n, dtype=np.int64)
    while True:
        hooked = root.copy()
        ru, rv = root[u], root[v]
        np.minimum.at(hooked, ru, rv)
        np.minimum.at(hooked, rv, ru)
        hooked = _jump(hooked)
        if np.array_equal(hooked, root):
            break
        root = hooked
    is_root = root == np.arange(n)
    return int(np.count_nonzero(is_root)), (np.cumsum(is_root, dtype=np.int64) - 1)[root]


def greedy_min_degree_order(indptr, indices, n_remove: int) -> np.ndarray:
    """Deletion order of ``n_remove`` successive minimum-degree nodes.

    Degrees are recomputed over the surviving nodes after each deletion and
    ties delete the smaller index first. A lazy heap holds one integer key
    ``deg * n + v`` per (node, degree) seen; degrees only fall, so a node's
    stale keys are all larger than its live one and its first pop while
    alive is current.
    """
    n = indptr.shape[0] - 1
    n_remove = int(n_remove)
    bounds = indptr.tolist()
    deg = np.diff(indptr).tolist()
    heap = [d * n + v for v, d in enumerate(deg)]
    heapq.heapify(heap)
    alive = [True] * n
    out = np.empty(n_remove, dtype=np.int64)
    for t in range(n_remove):
        while True:
            v = heapq.heappop(heap) % n
            if alive[v]:
                break
        out[t] = v
        alive[v] = False
        for w in indices[bounds[v] : bounds[v + 1]].tolist():
            if alive[w]:
                deg[w] -= 1
                heapq.heappush(heap, deg[w] * n + w)
    return out
