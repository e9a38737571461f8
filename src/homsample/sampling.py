"""Node subsamplers: the homophily score heuristic plus two baselines.

All samplers keep exactly n - floor((1 - gamma) * n) nodes. ``sample_ids``
returns just the kept ids (a sorted int64 array of original node ids);
``sample`` also returns the induced subgraph and the kept rows of the raw
features/labels. Restricted features are deliberately NOT re-standardized
here; consumers (e.g. GNN training) normalize on the subsample themselves.

``homophily`` and ``degree_greedy`` keep the complement of a prefix of one
``deletion_order``, so one order serves every keep rate of a sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .features import as_feature_matrix, node_scores, normalize_features
from .graph import Graph, induced_subgraph

METHODS = ("homophily", "random", "degree_greedy")
ORDERED = ("homophily", "degree_greedy")  # the methods with a ``deletion_order``


def check_method(name: str) -> None:
    if name not in METHODS:
        raise ValueError(f"unknown sampling method {name!r}; expected one of {METHODS}")


@dataclass(frozen=True)
class SampleSpec:
    """Keep rate gamma in [0, 1], method, seed (random method), score ablation flag."""

    gamma: float
    method: str = "homophily"
    seed: int = 0
    use_raw_scores: bool = False

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")
        check_method(self.method)


@dataclass(frozen=True)
class SampleResult:
    """A sample: subgraph node i is parent node ``kept[i]``."""

    kept: np.ndarray  # sorted distinct int64 ids of the parent graph
    subgraph: Graph
    features: np.ndarray | None = None
    labels: np.ndarray | None = None


def deletion_budget(n: int, gamma: float) -> int:
    """n_d = floor((1 - gamma) * n)."""
    return int(np.floor((1.0 - gamma) * n))


def _keep_count(n: int, gamma: float) -> int:
    keep = n - deletion_budget(n, gamma)
    if keep < 1:
        raise ValueError(f"empty sample: gamma={gamma} keeps no nodes of {n}")
    return keep


def greedy_budget(n: int, gammas) -> int:
    """The largest deletion budget of the keep rates ``gammas`` on ``n`` nodes."""
    return max(deletion_budget(n, gamma) for gamma in gammas)


def deletion_order(g: Graph, method: str, gammas, x=None, use_raw_scores=False) -> np.ndarray:
    """The nodes in the order ``method`` (one of ``ORDERED``) deletes them.

    ``homophily`` orders every node, largest score first and, of tied
    scores, larger index first. ``degree_greedy`` stops at the largest
    deletion budget of the keep rates ``gammas``; each deletion depends
    only on the ones before it (``tests/test_kernels.py`` pins this). So
    for both, the order at a smaller budget is a prefix of this one. Change
    the ``greedy_order`` tag in ``io_formats._CACHE_FORMATS`` whenever the
    greedy order of a given graph changes.
    """
    if method == "degree_greedy":
        return _kernels.greedy_min_degree_order(g.indptr, g.indices, greedy_budget(g.n, gammas))
    if x is None:
        raise ValueError("homophily sampling requires node features")
    x = as_feature_matrix(x)
    if x.shape[0] != g.n:
        raise ValueError(f"features have {x.shape[0]} rows, graph has {g.n} nodes")
    scores = node_scores(x if use_raw_scores else normalize_features(x))
    return np.argsort(scores, kind="stable")[::-1]


def keep_after(order: np.ndarray, n: int, gamma: float) -> np.ndarray:
    """Sorted ids of the ``n`` nodes left after deleting ``order``'s first floor((1-gamma)n)."""
    keep = _keep_count(n, gamma)
    if order.shape[0] < n - keep:
        raise ValueError(f"deletion order holds {order.shape[0]} deletions, need {n - keep}")
    kept_mask = np.ones(n, dtype=bool)
    kept_mask[order[: n - keep]] = False
    return np.flatnonzero(kept_mask)


def sample_ids(g: Graph, spec: SampleSpec, x=None, order=None) -> np.ndarray:
    """Sorted kept ids of the sampler named by ``spec.method``.

    - ``homophily`` drops the nodes with the largest feature scores: squared
      row norms of the standardized ``x`` (of the raw ``x`` when
      ``spec.use_raw_scores``), computed exactly once; ties keep the smaller
      node index. One-shot by construction: no recomputation as nodes are
      removed.
    - ``random`` keeps a uniformly random subset. Its counter-based (Philox)
      generator makes distinct seeds give independent, reproducible draws
      under parallel execution.
    - ``degree_greedy`` iteratively deletes the minimum-degree node,
      recomputing degrees: the sequential baseline that maximizes the
      remaining Laplacian trace greedily; ties delete the smaller index
      first.

    The ordered methods keep the complement of a ``deletion_order`` prefix.
    ``order``, that order at a budget at least this one's, saves computing
    it; the sample is the same either way. ``random`` ignores it.
    """
    if spec.method == "random":
        rng = np.random.Generator(np.random.Philox(spec.seed))
        return np.sort(rng.choice(g.n, size=_keep_count(g.n, spec.gamma), replace=False))
    if order is None:
        order = deletion_order(g, spec.method, (spec.gamma,), x, spec.use_raw_scores)
    return keep_after(order, g.n, spec.gamma)


def sample(g: Graph, spec: SampleSpec, x=None, labels=None, order=None) -> SampleResult:
    """The sample of ``sample_ids``: its subgraph and the kept rows of ``x`` and ``labels``."""
    kept = sample_ids(g, spec, x=x, order=order)
    xr = None if x is None else np.take(x, kept, axis=0)
    yr = None if labels is None else np.asarray(labels)[kept]
    return SampleResult(kept=kept, subgraph=induced_subgraph(g, kept), features=xr, labels=yr)
