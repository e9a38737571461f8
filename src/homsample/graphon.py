"""Graphon-sampled synthetic graphs with homophilic node features.

Nodes draw latent positions u_i uniformly on [0,1]; each unordered pair
(i,j) becomes an edge independently with probability W(u_i, u_j). Supported
graphon families: constant, piecewise-constant blocks (stochastic block
model form), and a symmetric grid of cell values. All three are
piecewise-constant, so one O(n + m) path samples them: nodes are grouped by
block, and within each block pair the edges are placed by geometric skips
over the pair index space (Batagelj & Brandes, Phys. Rev. E 71, 036113,
2005). Features derive from the latent positions only, keeping them
conditionally independent of the edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .graph import Graph, build_graph

KINDS = ("constant", "blocks", "grid")


def _rng(seed: int, *stream: int) -> np.random.Generator:
    """Independent counter-based stream per (seed, purpose)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, *stream])))


@dataclass(frozen=True)
class GraphonSpec:
    """Generator settings: graphon family, size, feature dim, noise, seed."""

    kind: str = "blocks"
    n: int = 100
    feature_dim: int = 8
    noise: float = 0.1
    seed: int = 0
    p: float = 0.5  # constant kind
    block_probs: np.ndarray | None = None  # (k, k) symmetric, blocks kind
    block_fracs: np.ndarray | None = None  # (k,) positive, sums to 1
    grid: np.ndarray | None = None  # (r, r) symmetric cell values, grid kind

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown graphon kind {self.kind!r}; expected one of {KINDS}")
        if self.n < 2:
            raise ValueError("graphon graphs need n >= 2")
        if self.noise < 0:
            raise ValueError("noise scale must be nonnegative")
        if self.kind == "constant":
            if not 0.0 <= self.p <= 1.0:
                raise ValueError("constant graphon value must lie in [0, 1]")
        elif self.kind == "blocks":
            b = np.asarray(
                self.block_probs if self.block_probs is not None else [[0.5, 0.1], [0.1, 0.5]],
                dtype=np.float64,
            )
            if b.ndim != 2 or b.shape[0] != b.shape[1]:
                raise ValueError("block probabilities must be a square matrix")
            if not np.allclose(b, b.T):
                raise ValueError("block probabilities must be symmetric")
            if b.min() < 0.0 or b.max() > 1.0:
                raise ValueError("block probabilities must lie in [0, 1]")
            k = b.shape[0]
            f = np.asarray(
                self.block_fracs if self.block_fracs is not None else np.full(k, 1.0 / k),
                dtype=np.float64,
            )
            if f.shape != (k,) or f.min() <= 0.0 or abs(f.sum() - 1.0) > 1e-9:
                raise ValueError("block fractions must be positive and sum to 1")
            object.__setattr__(self, "block_probs", b)
            object.__setattr__(self, "block_fracs", f)
        else:
            gr = np.asarray(self.grid, dtype=np.float64) if self.grid is not None else None
            if gr is None or gr.ndim != 2 or gr.shape[0] != gr.shape[1]:
                raise ValueError("grid graphons need a square value grid")
            if not np.allclose(gr, gr.T) or gr.min() < 0.0 or gr.max() > 1.0:
                raise ValueError("grid values must be symmetric and lie in [0, 1]")
            object.__setattr__(self, "grid", gr)

    @property
    def k_blocks(self) -> int:
        return self.block_probs.shape[0] if self.kind == "blocks" else 0

    def blocks_of(self, u: np.ndarray) -> np.ndarray:
        """Block id of each latent position (blocks kind only)."""
        bounds = np.cumsum(self.block_fracs)
        return np.minimum(
            np.searchsorted(bounds, u, side="right"), self.k_blocks - 1
        ).astype(np.int64)

    def block_structure(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(block id per node, (k, k) block probabilities) for latent positions ``u``.

        Constant is one block; grid is ``r`` equal-width cells with the grid
        values as probabilities.
        """
        if self.kind == "constant":
            return np.zeros(u.size, dtype=np.int64), np.array([[self.p]])
        if self.kind == "blocks":
            return self.blocks_of(u), self.block_probs
        r = self.grid.shape[0]
        return np.minimum((u * r).astype(np.int64), r - 1), self.grid


def _skip_positions(rng: np.random.Generator, total: int, p: float) -> np.ndarray:
    """Sorted indices in [0, total), each present independently with probability p.

    Gaps between present indices are geometric, so the cost is O(kept), not
    O(total). Steps are clipped at ``total + 1``, which still passes the end
    from any position, so that the running sum cannot overflow for tiny p.
    """
    parts = [np.empty(0, dtype=np.int64)]
    last = -1
    while p > 0.0 and last < total - 1:
        mean = (total - 1 - last) * p
        steps = np.minimum(rng.geometric(p, size=int(mean + 4.0 * math.sqrt(mean)) + 16), total + 1)
        at = last + np.cumsum(steps)
        parts.append(at[: np.searchsorted(at, total)])
        last = int(at[-1])
    return np.concatenate(parts)


def _unrank_triangle(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (i, j), i < j, at linear indices t = j(j-1)/2 + i.

    The float square root can land one off near a triangular number; the
    two integer comparisons move j back into place.
    """
    t = np.asarray(t, dtype=np.int64)
    j = ((1.0 + np.sqrt(8.0 * t + 1.0)) * 0.5).astype(np.int64)
    j -= j * (j - 1) // 2 > t
    j += (j + 1) * j // 2 <= t
    return t - j * (j - 1) // 2, j


def sample_graphon_graph(spec: GraphonSpec) -> tuple[Graph, np.ndarray]:
    """Sample (graph, latent positions) from the graphon in O(n + m)."""
    u = _rng(spec.seed, 0).uniform(size=spec.n)
    block, probs = spec.block_structure(u)
    order = np.argsort(block, kind="stable")
    bounds = np.concatenate([[0], np.cumsum(np.bincount(block, minlength=probs.shape[0]))])
    members = [order[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
    src: list[np.ndarray] = []
    dst: list[np.ndarray] = []
    for a, ma in enumerate(members):
        for c in range(a, len(members)):
            mc = members[c]
            # one stream per block pair: its edges do not depend on how many
            # draws other pairs consumed
            rng = _rng(spec.seed, 2, a, c)
            if a == c:
                at = _skip_positions(rng, ma.size * (ma.size - 1) // 2, float(probs[a, a]))
                i, j = _unrank_triangle(at)
            else:
                at = _skip_positions(rng, ma.size * mc.size, float(probs[a, c]))
                i, j = np.divmod(at, mc.size)
            src.append(ma[i])
            dst.append(mc[j])
    edges = np.column_stack([np.concatenate(src), np.concatenate(dst)])
    return build_graph(edges, n=spec.n), u


def homophilic_features(u: np.ndarray, spec: GraphonSpec) -> tuple[np.ndarray, np.ndarray]:
    """Features and labels from latent positions: (n, d) matrix, (n,) labels.

    Blocks kind: one-hot block membership in the leading k columns plus
    isotropic Gaussian noise of scale ``spec.noise``; labels are block ids.
    Constant/grid kinds: a smooth cosine embedding of u plus the same noise;
    labels are all zero (no natural classes).
    """
    u = np.asarray(u, dtype=np.float64)
    n, d = u.size, spec.feature_dim
    if spec.kind == "blocks":
        k = spec.k_blocks
        if d < k:
            raise DataError(f"feature dim {d} too small for {k} blocks")
        block = spec.blocks_of(u)
        x = np.zeros((n, d))
        x[np.arange(n), block] = 1.0
        labels = block
    else:
        freqs = np.arange(1, d + 1)
        x = np.cos(np.pi * np.outer(u, freqs))
        labels = np.zeros(n, dtype=np.int64)
    x = x + spec.noise * _rng(spec.seed, 1).standard_normal((n, d))
    return x, labels


@dataclass(frozen=True)
class GraphonDataset:
    graph: Graph
    latent: np.ndarray
    features: np.ndarray
    labels: np.ndarray
    spec: GraphonSpec = field(repr=False, default=None)


def generate_dataset(spec: GraphonSpec) -> GraphonDataset:
    """Sample a graph and its homophilic features/labels in one call."""
    g, u = sample_graphon_graph(spec)
    x, y = homophilic_features(u, spec)
    return GraphonDataset(graph=g, latent=u, features=x, labels=y, spec=spec)


def two_block_spec(
    n: int,
    intra: float,
    inter: float,
    feature_dim: int = 16,
    noise: float = 0.3,
    seed: int = 0,
    fracs: tuple[float, float] = (0.3, 0.7),
) -> GraphonSpec:
    """Assortative 2-block spec used throughout the experiment suite.

    Unequal block fractions are the interesting homophilic case: the
    minority community is both sparser-connected and feature-atypical, so
    score-based deletion has real structure to exploit.
    """
    return GraphonSpec(
        kind="blocks",
        n=n,
        feature_dim=feature_dim,
        noise=noise,
        seed=seed,
        block_probs=np.array([[intra, inter], [inter, intra]]),
        block_fracs=np.asarray(fracs, dtype=np.float64),
    )


def parse_graphon_spec(text: str) -> GraphonSpec:
    """Parse a compact spec string like
    ``blocks,n=1000,intra=0.02,inter=0.002,fracs=0.3:0.7,d=16,tau=0.3,seed=1``.

    The leading token is the kind; remaining comma-separated key=value pairs
    set fields. ``probs`` takes a row-major colon-separated k*k matrix;
    ``intra``/``inter`` are a 2-block shorthand. ``grid`` takes row-major
    colon-separated r*r values.
    """
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise DataError("empty graphon spec")
    kind = parts[0]
    kw: dict = {"kind": kind}
    intra = inter = None
    for item in parts[1:]:
        if "=" not in item:
            raise DataError(f"bad graphon spec item {item!r}: expected key=value")
        key, val = item.split("=", 1)
        key = key.strip()
        try:
            if key == "n":
                kw["n"] = int(val)
            elif key == "d":
                kw["feature_dim"] = int(val)
            elif key == "tau":
                kw["noise"] = float(val)
            elif key == "seed":
                kw["seed"] = int(val)
            elif key == "p":
                kw["p"] = float(val)
            elif key == "intra":
                intra = float(val)
            elif key == "inter":
                inter = float(val)
            elif key == "fracs":
                kw["block_fracs"] = np.array([float(v) for v in val.split(":")])
            elif key == "probs":
                vals = np.array([float(v) for v in val.split(":")])
                k = int(round(np.sqrt(vals.size)))
                if k * k != vals.size:
                    raise DataError(f"probs needs k*k values, got {vals.size}")
                kw["block_probs"] = vals.reshape(k, k)
            elif key == "grid":
                vals = np.array([float(v) for v in val.split(":")])
                r = int(round(np.sqrt(vals.size)))
                if r * r != vals.size:
                    raise DataError(f"grid needs r*r values, got {vals.size}")
                kw["grid"] = vals.reshape(r, r)
            else:
                raise DataError(f"unknown graphon spec key {key!r}")
        except ValueError as exc:
            raise DataError(f"bad value for graphon spec key {key!r}: {val!r}") from exc
    if intra is not None or inter is not None:
        if intra is None or inter is None:
            raise DataError("intra and inter must be given together")
        kw["block_probs"] = np.array([[intra, inter], [inter, intra]])
    try:
        return GraphonSpec(**kw)
    except ValueError as exc:
        raise DataError(str(exc)) from exc
