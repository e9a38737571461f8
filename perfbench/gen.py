"""Seeded O(n + m) two-block SBM writer for the benchmark's file inputs.

The benchmark's 80k-node inputs come from here rather than from
``homsample.graphon``: the package's generator is O(n^2) (minutes at 80k),
and its output per seed will change when the generator does. This module
depends on numpy only, so its inputs stay fixed while the package changes.
Files are written in the package's canonical formats: an ``n=`` header and
sorted ``u v`` lines with u < v, 17-significant-digit feature CSV rows and a
one-column integer label CSV.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class SbmSpec:
    """Two-block stochastic block model with block-indicator features."""

    n: int = 80_000
    fracs: tuple[float, float] = (0.3, 0.7)
    intra: float = 1.8e-4  # mean degree ~ 10, m ~ 394k at n = 80k
    inter: float = 4.5e-5
    d: int = 16
    tau: float = 0.3  # feature noise scale


@dataclass(frozen=True)
class SbmData:
    edges: np.ndarray  # (m, 2) int64, u < v, lexicographically sorted
    features: np.ndarray  # (n, d) float64
    labels: np.ndarray  # (n,) int64 block ids
    n: int


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


def _distinct_pairs(rng, k: int, rows: int, cols: int | None) -> np.ndarray:
    """k distinct uniform pairs: unordered within one block (cols None), else rows x cols."""
    span = rows if cols is None else cols
    found = np.empty((0, 2), dtype=np.int64)
    while found.shape[0] < k:
        want = int((k - found.shape[0]) * 1.02) + 16
        a = rng.integers(0, rows, size=want)
        b = rng.integers(0, span, size=want)
        if cols is None:
            keep = a != b
            a, b = np.minimum(a[keep], b[keep]), np.maximum(a[keep], b[keep])
        found = np.unique(np.concatenate([found, np.column_stack([a, b])]), axis=0)
    return found[rng.permutation(found.shape[0])[:k]]


def make_sbm(spec: SbmSpec, seed: int) -> SbmData:
    """Sample the SBM: block sizes are exact, node order is a seeded shuffle."""
    rng = _rng(seed, 0)
    sizes = [int(round(f * spec.n)) for f in spec.fracs[:-1]]
    sizes.append(spec.n - sum(sizes))
    perm = rng.permutation(spec.n)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    labels = np.empty(spec.n, dtype=np.int64)
    members = []
    for b, (lo, hi) in enumerate(zip(offsets[:-1], offsets[1:])):
        labels[perm[lo:hi]] = b
        members.append(perm[lo:hi])
    parts = []
    for a in range(len(sizes)):
        for b in range(a, len(sizes)):
            if a == b:
                pairs, p = sizes[a] * (sizes[a] - 1) // 2, spec.intra
                local = _distinct_pairs(rng, rng.binomial(pairs, p), sizes[a], None)
            else:
                pairs, p = sizes[a] * sizes[b], spec.inter
                local = _distinct_pairs(rng, rng.binomial(pairs, p), sizes[a], sizes[b])
            parts.append(np.column_stack([members[a][local[:, 0]], members[b][local[:, 1]]]))
    e = np.concatenate(parts)
    e = np.sort(e, axis=1)
    e = e[np.lexsort((e[:, 1], e[:, 0]))]
    x = np.zeros((spec.n, spec.d))
    x[np.arange(spec.n), labels] = 1.0
    x += spec.tau * _rng(seed, 1).standard_normal((spec.n, spec.d))
    return SbmData(edges=e, features=x, labels=labels, n=spec.n)


def write_sbm(data: SbmData, outdir) -> dict[str, Path]:
    """Write graph.txt, features.csv and labels.csv; return their paths."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {
        "graph": outdir / "graph.txt",
        "features": outdir / "features.csv",
        "labels": outdir / "labels.csv",
    }
    with open(paths["graph"], "w") as fh:
        fh.write(f"n={data.n}\n")
        np.savetxt(fh, data.edges, fmt="%d %d")
    np.savetxt(paths["features"], data.features, fmt="%.17g", delimiter=",")
    np.savetxt(paths["labels"], data.labels, fmt="%d")
    return paths
