"""Output checks: each returns a list of failure messages (empty when correct).

The checks recompute what they can with numpy and scipy alone, from the
benchmark's own copy of the inputs, and never through the package.
"""

from __future__ import annotations

import csv
import filecmp
import json
import math
import re
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

REL_TOL = 1e-9  # summation order may differ from the package's
BAND_SD = 6.0  # binomial band half-width in standard deviations


def keep_count(n: int, gamma: float) -> int:
    return n - int(math.floor((1.0 - gamma) * n))


def standardized(x: np.ndarray) -> np.ndarray:
    """Columns to mean 0 and population variance 1/d; constant columns to 0."""
    sd = x.std(axis=0)
    scale = np.zeros_like(sd)
    scale[sd > 0] = 1.0 / (np.sqrt(x.shape[1]) * sd[sd > 0])
    return (x - x.mean(axis=0)) * scale


def edge_distance_sum(edges: np.ndarray, xh: np.ndarray, chunk: int = 1 << 16) -> float:
    total = 0.0
    for lo in range(0, edges.shape[0], chunk):
        e = edges[lo : lo + chunk]
        diff = xh[e[:, 0]] - xh[e[:, 1]]
        total += float(np.sum(diff * diff))
    return total


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-300)


def read_edges(path: Path) -> tuple[int, np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("n="):
            raise ValueError(f"{path}: missing n= header")
        e = np.loadtxt(fh, dtype=np.int64, ndmin=2)
    return int(header[2:]), e.reshape(-1, 2)


def canonical_edges(n: int, e: np.ndarray) -> list[str]:
    """Failures unless edges are u < v < n, strictly increasing in (u, v) order."""
    bad = []
    if e.size and (e.min() < 0 or e.max() >= n):
        bad.append("edge endpoint out of range")
    if np.any(e[:, 0] >= e[:, 1]):
        bad.append("edge with u >= v")
    key = e[:, 0] * n + e[:, 1]
    if np.any(np.diff(key) <= 0):
        bad.append("edges not strictly sorted")
    return bad


def induced_edges(edges: np.ndarray, kept: np.ndarray, n: int) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    mask[kept] = True
    both = edges[mask[edges[:, 0]] & mask[edges[:, 1]]]
    return np.searchsorted(kept, both)


class Dataset:
    """The benchmark's own copy of one input graph, with derived oracles."""

    def __init__(self, edges: np.ndarray, x: np.ndarray, labels: np.ndarray, n: int, features_csv, labels_csv):
        self.edges, self.x, self.labels, self.n = edges, x, labels, n
        # canonical input rows: a sample's tables must be exactly the kept rows
        self.feature_rows = Path(features_csv).read_bytes().splitlines(keepends=True)
        self.label_rows = Path(labels_csv).read_bytes().splitlines(keepends=True)
        self.xh = standardized(x)
        self.scores = np.einsum("ij,ij->i", self.xh, self.xh)
        self.h = -edge_distance_sum(edges, self.xh) / n
        self.bound = -n * self.h / float(np.sum(self.scores))
        adj = sp.coo_array((np.ones(edges.shape[0]), (edges[:, 0], edges[:, 1])), shape=(n, n))
        self.components = int(connected_components(adj, directed=False)[0])

    def homophily_kept(self, gamma: float) -> np.ndarray:
        return np.sort(np.argsort(self.scores, kind="stable")[: keep_count(self.n, gamma)])

    def homophily_kept_matches(self, kept: np.ndarray, gamma: float) -> bool:
        """Equal to the oracle, up to nodes whose score ties the cutoff within rounding."""
        want = self.homophily_kept(gamma)
        if np.array_equal(kept, want):
            return True
        cutoff = np.sort(self.scores)[keep_count(self.n, gamma) - 1]
        differ = np.setxor1d(kept, want)
        return kept.size == want.size and bool(
            np.all(np.abs(self.scores[differ] - cutoff) <= 1e-12 * abs(cutoff))
        )


def homophily_stdout(text: str, ds: Dataset) -> list[str]:
    vals = dict(re.findall(r"^(h_G|tr\(L\)|bound) = (\S+)$", text, flags=re.M))
    if set(vals) != {"h_G", "tr(L)", "bound"}:
        return [f"homophily output unparsable: {text!r}"]
    h, tr, bound = (float(vals[k]) for k in ("h_G", "tr(L)", "bound"))
    bad = []
    if not h <= 0.0:
        bad.append(f"h_G = {h} > 0")
    if not close(h, ds.h):
        bad.append(f"h_G = {h!r}, independent value {ds.h!r}")
    if tr != 2.0 * ds.edges.shape[0]:
        bad.append(f"tr(L) = {tr}, expected 2m = {2 * ds.edges.shape[0]}")
    if not tr >= bound - 1e-9:
        bad.append(f"tr(L) = {tr} below bound {bound}")
    if not close(bound, ds.bound):
        bad.append(f"bound = {bound!r}, independent value {ds.bound!r}")
    return bad


def report_invariants(r: dict, n_sub: int) -> list[str]:
    bad = []
    if r.get("bound_satisfied") is not True:
        bad.append("bound_satisfied is not true")
    if not r["h_g"] <= 0.0:
        bad.append(f"h_g = {r['h_g']} > 0")
    if not r["laplacian_trace"] >= r["trace_bound"] - 1e-9:
        bad.append("laplacian_trace below trace_bound")
    if r["components"] < 1 or r["laplacian_rank"] + r["components"] != n_sub:
        bad.append(f"rank {r['laplacian_rank']} + components {r['components']} != n {n_sub}")
    if not close(r["adjusted_trace"] * n_sub, r["laplacian_trace"]):
        bad.append("adjusted_trace != laplacian_trace / n")
    return bad


def metrics_report(path: Path, ds: Dataset) -> list[str]:
    try:
        r = json.loads(path.read_text())
        bad = report_invariants(r, ds.n)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{path.name}: unreadable report: {exc}"]
    if r["laplacian_trace"] != 2.0 * ds.edges.shape[0]:
        bad.append("laplacian_trace != 2m")
    if r["components"] != ds.components:
        bad.append(f"components {r['components']}, independent count {ds.components}")
    if not close(r["h_g"], ds.h):
        bad.append(f"h_g {r['h_g']!r}, independent value {ds.h!r}")
    if r["method"] != "full" or r["gamma"] != 1.0 or r["accuracy"] is not None:
        bad.append("unexpected method, gamma or accuracy")
    return [f"{path.name}: {b}" for b in bad]


def sample_dir(out: Path, ds: Dataset, gamma: float, method: str) -> list[str]:
    try:
        kept = np.loadtxt(out / "kept.txt", dtype=np.int64, ndmin=1)
        n_sub, sub_edges = read_edges(out / "edges.txt")
        id_map = np.loadtxt(out / "id_map.txt", dtype=np.int64, ndmin=2)
        labels = (out / "labels.csv").read_bytes()
        x = (out / "features.csv").read_bytes()
    except (OSError, ValueError) as exc:
        return [f"{out.name}: unreadable sample: {exc}"]
    keep = keep_count(ds.n, gamma)
    if kept.size != keep or np.unique(kept).size != keep:
        return [f"{out.name}: kept {kept.size} ids ({np.unique(kept).size} distinct), expected {keep}"]
    if kept.min() < 0 or kept.max() >= ds.n or np.any(np.diff(kept) <= 0):
        return [f"{out.name}: kept ids out of range or not increasing"]
    bad = []
    if method == "homophily" and not ds.homophily_kept_matches(kept, gamma):
        bad.append("kept set differs from the stable argsort of standardized scores")
    want = induced_edges(ds.edges, kept, ds.n)
    if n_sub != keep or not np.array_equal(sub_edges, want):
        bad.append("edges.txt differs from the numpy-mask induced subgraph")
    if not np.array_equal(id_map, np.column_stack([np.arange(keep), kept])):
        bad.append("id_map.txt does not map new ids to kept ids")
    if labels != b"".join(ds.label_rows[i] for i in kept) or x != b"".join(ds.feature_rows[i] for i in kept):
        bad.append("labels.csv or features.csv differ from the kept input rows")
    return [f"{out.name}: {b}" for b in bad]


def synth_dir(out: Path, n: int, d: int, blocks: dict | None) -> list[str]:
    """Declared n and d; for blocks, intra/inter edge counts within a binomial band."""
    try:
        n_read, e = read_edges(out / "graph.txt")
        x = np.loadtxt(out / "features.csv", delimiter=",", ndmin=2)
        labels = np.loadtxt(out / "labels.csv", dtype=np.int64, ndmin=1)
    except (OSError, ValueError) as exc:
        return [f"{out.name}: unreadable synth output: {exc}"]
    bad = []
    if n_read != n or x.shape != (n, d) or labels.shape != (n,):
        return [f"{out.name}: n={n_read}, features {x.shape}, labels {labels.shape}; expected n={n}, d={d}"]
    bad += canonical_edges(n, e)
    if not np.all(np.isfinite(x)):
        bad.append("non-finite feature")
    if blocks is None:
        if np.any(labels != 0):
            bad.append("non-block graphon with nonzero labels")
    elif labels.min() < 0 or labels.max() > 1:
        bad.append("block label outside {0, 1}")
    else:
        sizes = np.bincount(labels, minlength=2)
        same = labels[e[:, 0]] == labels[e[:, 1]]
        for kind, pairs, p, got in (
            ("intra", int(sum(s * (s - 1) // 2 for s in sizes)), blocks["intra"], int(same.sum())),
            ("inter", int(sizes[0] * sizes[1]), blocks["inter"], int((~same).sum())),
        ):
            mean, sd = pairs * p, math.sqrt(pairs * p * (1.0 - p))
            if abs(got - mean) > BAND_SD * sd:
                bad.append(f"{kind} edges {got} outside {mean:.0f} +- {BAND_SD:g} sd ({sd:.0f})")
    return [f"{out.name}: {b}" for b in bad]


def experiment_dir(out: Path, rates, methods, reps: int, n: int, train: bool, ds: Dataset | None):
    """(failed cell tags, messages) for one experiment output directory."""
    cells = {}
    for ri, rate in enumerate(rates):
        for m in methods:
            for rep in range(reps if m == "random" else 1):
                cells[f"r{ri:02d}_{m}_rep{rep:03d}"] = (rate, m)
    failed, msgs = set(), []
    for tag, (rate, method) in cells.items():
        path = out / f"report__{tag}.json"
        try:
            r = json.loads(path.read_text())
            bad = report_invariants(r, keep_count(n, rate))
            if r["gamma"] != rate or r["method"] != method:
                bad.append("gamma or method differ from the cell")
            if train != (r["accuracy"] is not None) or (train and not 0.0 <= r["accuracy"] <= 1.0):
                bad.append(f"accuracy {r['accuracy']!r}")
            if ds is not None and method == "homophily":
                m_sub = induced_edges(ds.edges, ds.homophily_kept(rate), ds.n).shape[0]
                if r["laplacian_trace"] != 2.0 * m_sub:
                    bad.append(f"laplacian_trace {r['laplacian_trace']}, independent 2m = {2 * m_sub}")
        except (OSError, ValueError, KeyError, TypeError) as exc:
            bad = [f"missing or unreadable report: {exc}"]
        if bad:
            failed.add(tag)
            msgs += [f"{out.name}/{tag}: {b}" for b in bad]
    try:
        with open(out / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        return set(cells), msgs + [f"{out.name}: no summary: {exc}"]
    want = [(rate, m) for rate in rates for m in methods]
    if [(float(r["gamma"]), r["method"]) for r in rows] != want:
        return set(cells), msgs + [f"{out.name}: summary rows differ from the plan"]
    for row in rows:
        runs = reps if row["method"] == "random" else 1
        if row["errors"] or int(row["runs"]) != runs:
            msgs.append(f"{out.name}: summary row {row['gamma']},{row['method']}: runs {row['runs']}, errors {row['errors']!r}")
            failed |= {t for t, (rate, m) in cells.items() if rate == float(row["gamma"]) and m == row["method"]}
    return failed, msgs


def identical(a: Path, b: Path, subset: bool = False, skip=re.compile(r"^timings__")) -> list[str]:
    """Byte-identity of a repeated output ``b`` with the first one, ``a``.

    Timing sidecars are skipped. With ``subset``, ``b`` repeats part of an
    experiment: each of its reports must equal ``a``'s, and its summary rows
    must be the leading rows of ``a``'s summary.
    """
    if a.is_file() or b.is_file():
        same = a.is_file() and b.is_file() and filecmp.cmp(a, b, shallow=False)
        return [] if same else [f"{b.name} differs from {a.name}"]
    names_a = {p.name for p in a.iterdir() if not skip.match(p.name)}
    names_b = {p.name for p in b.iterdir() if not skip.match(p.name)}
    if not names_b <= names_a or (not subset and names_a != names_b):
        return [f"{b.name}: file set differs from {a.name}"]
    bad = []
    for name in sorted(names_b):
        if subset and name == "summary.csv":
            rows_a, rows_b = (p.joinpath(name).read_bytes().splitlines() for p in (a, b))
            if rows_b != rows_a[: len(rows_b)]:
                bad.append(f"{b.name}/{name} rows differ from the leading rows of {a.name}/{name}")
        elif not filecmp.cmp(a / name, b / name, shallow=False):
            bad.append(f"{b.name}/{name} differs from {a.name}/{name}")
    return bad
