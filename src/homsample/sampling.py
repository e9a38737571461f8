"""Node subsamplers: the homophily score heuristic plus two baselines.

All samplers keep exactly n - floor((1 - gamma) * n) nodes and return the
induced subgraph together with the kept rows of the raw features/labels.
Restricted features are deliberately NOT re-standardized here; consumers
(e.g. GNN training) normalize on the subsample themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .features import as_feature_matrix, node_scores, normalize_features
from .graph import Graph, NodeIndexSet, induced_subgraph, node_index_set

METHODS = ("homophily", "random", "degree_greedy")


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
    kept: NodeIndexSet
    subgraph: Graph
    features: np.ndarray | None = None
    labels: np.ndarray | None = None


def deletion_budget(n: int, gamma: float) -> int:
    """n_d = floor((1 - gamma) * n)."""
    return int(np.floor((1.0 - gamma) * n))


def _restrict(g: Graph, kept_ids: np.ndarray, x, labels) -> SampleResult:
    kept = node_index_set(kept_ids, g.n)
    sub = induced_subgraph(g, kept)
    xr = None if x is None else np.asarray(x)[kept.indices]
    yr = None if labels is None else np.asarray(labels)[kept.indices]
    return SampleResult(kept=kept, subgraph=sub, features=xr, labels=yr)


def _keep_count(n: int, gamma: float) -> int:
    keep = n - deletion_budget(n, gamma)
    if keep < 1:
        raise ValueError(f"empty sample: gamma={gamma} keeps no nodes of {n}")
    return keep


def lowest_score_nodes(scores: np.ndarray, gamma: float) -> np.ndarray:
    """Sorted ids of the nodes left after deleting the floor((1-gamma)n) largest scores.

    Ties keep the smaller node index.
    """
    order = np.argsort(scores, kind="stable")  # ascending; ties by node index
    return np.sort(order[: _keep_count(scores.shape[0], gamma)])


def sample_homophily(g: Graph, x, spec: SampleSpec, labels=None) -> SampleResult:
    """Drop the floor((1-gamma)n) nodes with the largest feature scores.

    Scores are squared row norms of the standardized features (of the raw
    features when ``spec.use_raw_scores``), computed exactly once; ties keep
    the smaller node index. One-shot by construction: no recomputation as
    nodes are removed.
    """
    x = as_feature_matrix(x)
    if x.shape[0] != g.n:
        raise ValueError(f"features have {x.shape[0]} rows, graph has {g.n} nodes")
    scores = node_scores(x if spec.use_raw_scores else normalize_features(x))
    return _restrict(g, lowest_score_nodes(scores, spec.gamma), x, labels)


def sample_random(g: Graph, spec: SampleSpec, x=None, labels=None) -> SampleResult:
    """Keep a uniformly random node subset of the budgeted size.

    Uses a counter-based (Philox) generator so distinct seeds give
    independent, reproducible draws under parallel execution.
    """
    keep_n = _keep_count(g.n, spec.gamma)
    rng = np.random.Generator(np.random.Philox(spec.seed))
    kept_ids = np.sort(rng.choice(g.n, size=keep_n, replace=False))
    return _restrict(g, kept_ids, x, labels)


def greedy_order(g: Graph, gammas) -> np.ndarray:
    """Greedy deletion order at the largest deletion budget of the keep rates ``gammas``.

    The order at a smaller budget is a prefix of it: each deletion depends
    only on the ones before it.
    """
    budget = max(deletion_budget(g.n, gamma) for gamma in gammas)
    return _kernels.greedy_min_degree_order(g.indptr, g.indices, budget)


def sample_degree_greedy(
    g: Graph, spec: SampleSpec, x=None, labels=None, order: np.ndarray | None = None
) -> SampleResult:
    """Iteratively delete the minimum-degree node, recomputing degrees.

    The sequential baseline that maximizes the remaining Laplacian trace
    greedily; ties delete the smaller index first. ``order``, a deletion
    order from ``greedy_order`` at a budget at least this one's, saves
    recomputing it; the sample is the same either way.
    """
    keep_n = _keep_count(g.n, spec.gamma)
    n_remove = g.n - keep_n
    if order is None:
        order = greedy_order(g, (spec.gamma,))
    elif order.shape[0] < n_remove:
        raise ValueError(f"greedy order holds {order.shape[0]} deletions, need {n_remove}")
    removed = order[:n_remove]
    kept_mask = np.ones(g.n, dtype=bool)
    kept_mask[removed] = False
    kept_ids = np.flatnonzero(kept_mask)
    return _restrict(g, kept_ids, x, labels)


def sample(g: Graph, spec: SampleSpec, x=None, labels=None, greedy=None) -> SampleResult:
    """Dispatch to the sampler named by ``spec.method``.

    ``greedy`` is an optional shared deletion order for ``degree_greedy``
    (see ``sample_degree_greedy``); the other methods ignore it.
    """
    method = spec.method
    if method == "homophily":
        if x is None:
            raise ValueError("homophily sampling requires node features")
        return sample_homophily(g, x, spec, labels=labels)
    if method == "random":
        return sample_random(g, spec, x=x, labels=labels)
    return sample_degree_greedy(g, spec, x=x, labels=labels, order=greedy)
