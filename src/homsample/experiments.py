"""Experiment harness: rate/method sweeps, metrics reports, and benchmarks.

A plan expands into independent (rate, method, repetition) cells. Each cell
samples a subgraph, measures its connectivity metrics, optionally trains a
GNN on it and evaluates transfer accuracy on the full graph, and writes a
canonical report plus a timing sidecar. The summary aggregates mean and
standard error per (rate, method). Outputs are byte-reproducible for a
fixed plan; wall-clock sidecars are the only non-deterministic files.
"""

from __future__ import annotations

import ctypes
import math
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import _kernels
from .errors import DataError, NumericalError
from .features import feature_homophily, node_scores, normalize_features, trace_lower_bound
from .gnn import GnnConfig, evaluate, train
from .graph import (
    Graph,
    adjusted_trace,
    induced_subgraph,
    laplacian_trace,
)
from .graphon import GraphonSpec, generate_dataset
from .io_formats import MetricsReport, write_report, write_timings
from .sampling import SampleSpec, check_method, greedy_order, lowest_score_nodes, sample


@dataclass(frozen=True)
class ExperimentPlan:
    """Sweep grid: keep rates x methods, with repetitions for random sampling."""

    rates: tuple[float, ...]
    methods: tuple[str, ...] = ("homophily", "random")
    reps: int = 50
    seed: int = 0
    gnn: GnnConfig = field(default_factory=GnnConfig)
    metrics_only: bool = False
    dataset_id: str = "dataset"
    workers: int = 1

    def __post_init__(self):
        if not self.rates:
            raise ValueError("experiment plan needs at least one rate")
        for r in self.rates:
            if not 0.0 < r <= 1.0:
                raise ValueError(f"rates must lie in (0, 1], got {r}")
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        for m in self.methods:
            check_method(m)
        if len(set(self.methods)) < len(self.methods):
            raise ValueError(f"duplicate sampling method in {','.join(self.methods)!r}")


@dataclass(frozen=True)
class Cell:
    rate_idx: int
    method: str
    rep: int
    gamma: float
    seed: int

    @property
    def tag(self) -> str:
        return f"r{self.rate_idx:02d}_{self.method}_rep{self.rep:03d}"


def _cell_seed(master: int, rate_idx: int, method_idx: int, rep: int) -> int:
    seq = np.random.SeedSequence([master, rate_idx, method_idx, rep])
    return int(seq.generate_state(1)[0])


def expand_cells(plan: ExperimentPlan) -> list[Cell]:
    cells = []
    for ri, rate in enumerate(plan.rates):
        for mi, method in enumerate(plan.methods):
            reps = plan.reps if method == "random" else 1
            for rep in range(reps):
                cells.append(
                    Cell(
                        rate_idx=ri,
                        method=method,
                        rep=rep,
                        gamma=rate,
                        seed=_cell_seed(plan.seed, ri, mi, rep),
                    )
                )
    return cells


def subgraph_metrics(sub: Graph, x: np.ndarray | None) -> dict:
    """Connectivity and homophily metrics of a (sub)graph and its features.

    Features are re-standardized on the subsample before computing
    homophily and the trace bound. The edge view is built once, for the
    components and the homophily sum, and only after standardizing, so the
    view and the standardization's temporaries never coexist (peak RSS).
    """
    xh = None if x is None else normalize_features(x)
    edges = sub.edges()
    tr = laplacian_trace(sub)
    count, _ = _kernels.component_labels(sub.n, *edges)
    out = {
        "laplacian_trace": tr,
        "adjusted_trace": adjusted_trace(sub),
        "components": count,
        "laplacian_rank": sub.n - count,
    }
    if xh is not None:
        h = feature_homophily(sub, xh, edges)
        bound = trace_lower_bound(h, xh)
        out.update(
            h_g=h, trace_bound=bound, bound_satisfied=bool(tr >= bound - 1e-9)
        )
    else:
        out.update(h_g=0.0, trace_bound=0.0, bound_satisfied=True)
    return out


def run_cell(
    cell: Cell,
    g: Graph,
    x: np.ndarray | None,
    labels: np.ndarray | None,
    plan: ExperimentPlan,
    use_raw_scores: bool = False,
    greedy: np.ndarray | None = None,
) -> tuple[MetricsReport, dict]:
    """Execute one cell; returns (report, phase timings).

    Training (unless ``plan.metrics_only`` or labels/features are missing)
    fits the GNN on the whole subsample and reports accuracy on the nodes it
    did not keep, or on every node when it kept them all. ``greedy`` is the
    sweep's shared degree-greedy deletion order (see ``sampling.sample``).
    """
    timings: dict[str, float] = {}
    spec = SampleSpec(
        gamma=cell.gamma, method=cell.method, seed=cell.seed, use_raw_scores=use_raw_scores
    )
    t0 = time.perf_counter()
    result = sample(g, spec, x=x, labels=labels, greedy=greedy)
    timings["sample"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    metrics = subgraph_metrics(result.subgraph, result.features)
    timings["metrics"] = time.perf_counter() - t0

    accuracy = None
    if not plan.metrics_only and labels is not None and x is not None:
        t0 = time.perf_counter()
        cfg = replace(plan.gnn, seed=cell.seed)
        n_classes = int(np.max(labels)) + 1
        model = train(
            result.subgraph,
            result.features,
            result.labels,
            np.ones(result.subgraph.n, dtype=bool),
            cfg,
            n_classes=n_classes,
        )
        timings["train"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        eval_mask = np.ones(g.n, dtype=bool)
        eval_mask[result.kept.indices] = False
        if not eval_mask.any():  # gamma = 1 keeps everything
            eval_mask[:] = True
        accuracy = evaluate(model, g, x, labels, eval_mask)
        timings["eval"] = time.perf_counter() - t0

    report = MetricsReport(
        dataset=plan.dataset_id,
        method=cell.method,
        gamma=cell.gamma,
        seed=cell.seed,
        accuracy=accuracy,
        **metrics,
    )
    return report, timings


# (set, get) thread-count functions of the OpenBLAS that Linux numpy wheels
# bundle: numpy >= 2 ships scipy-openblas, numpy 1.24-1.26 an ILP64 OpenBLAS.
_OPENBLAS_THREAD_FUNCS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
)


def _openblas_thread_funcs():
    """numpy's OpenBLAS (set, get) thread-count functions, or None without one."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("lib*openblas*.so*")):
        try:
            lib = ctypes.CDLL(str(path))  # the copy numpy already loaded
        except OSError:
            continue
        for set_name, get_name in _OPENBLAS_THREAD_FUNCS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                return getattr(lib, set_name), getattr(lib, get_name)
    return None


@contextmanager
def _one_blas_thread():
    """Run numpy's OpenBLAS on one thread inside the block, then restore its count.

    Worker threads that each start BLAS threads oversubscribe the cores: on
    2 vCPUs, a 30-cell training sweep (n = 2000, d = 16) at two workers took
    14.4 s with BLAS threads and 7.1 s without. Serial runs keep them: a
    one-worker sweep on d = 1433 features took 27.5 s with them and 44.5 s
    without. Without an OpenBLAS in numpy's wheel libraries this does nothing.
    """
    funcs = _openblas_thread_funcs()
    if funcs is None:
        yield
        return
    set_threads, get_threads = funcs
    before = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)


def _mean_se(values: list[float]) -> tuple[float, float]:
    a = np.asarray(values, dtype=np.float64)
    mean = float(a.mean())
    se = float(a.std(ddof=1) / np.sqrt(a.size)) if a.size > 1 else 0.0
    return mean, se


SUMMARY_COLUMNS = (
    "dataset",
    "gamma",
    "method",
    "runs",
    "adjusted_trace_mean",
    "adjusted_trace_se",
    "h_g_mean",
    "components_mean",
    "accuracy_mean",
    "accuracy_se",
    "errors",
)


def summarize(plan: ExperimentPlan, outcomes: dict[Cell, MetricsReport | Exception]) -> list[dict]:
    """Per-(rate, method) aggregation in plan order; failed cells become notes."""
    rows = []
    for ri, rate in enumerate(plan.rates):
        for method in plan.methods:
            cells = [c for c in outcomes if c.rate_idx == ri and c.method == method]
            cells.sort(key=lambda c: c.rep)
            reports = [outcomes[c] for c in cells if isinstance(outcomes[c], MetricsReport)]
            errors = [
                f"rep{c.rep:03d}: {outcomes[c]}"
                for c in cells
                if not isinstance(outcomes[c], MetricsReport)
            ]
            row: dict = {
                "dataset": plan.dataset_id,
                "gamma": rate,
                "method": method,
                "runs": len(reports),
                "errors": "; ".join(errors),
            }
            if reports:
                at_mean, at_se = _mean_se([r.adjusted_trace for r in reports])
                row["adjusted_trace_mean"] = at_mean
                row["adjusted_trace_se"] = at_se
                row["h_g_mean"] = _mean_se([r.h_g for r in reports])[0]
                row["components_mean"] = _mean_se([float(r.components) for r in reports])[0]
                accs = [r.accuracy for r in reports if r.accuracy is not None]
                if accs:
                    acc_mean, acc_se = _mean_se(accs)
                    row["accuracy_mean"] = acc_mean
                    row["accuracy_se"] = acc_se
            rows.append(row)
    return rows


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_summary_csv(rows: list[dict], path) -> None:
    with open(Path(path), "w") as fh:
        fh.write(",".join(SUMMARY_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(_csv_cell(row.get(c)) for c in SUMMARY_COLUMNS) + "\n")


def run_experiment(
    plan: ExperimentPlan,
    g: Graph,
    x: np.ndarray | None = None,
    labels: np.ndarray | None = None,
    outdir=None,
) -> list[dict]:
    """Run every cell of the plan, write reports and the summary, return rows.

    Cells run independently (in a pool of ``plan.workers`` threads when
    that is above 1); the summary is assembled in plan order after the
    join, so outputs are reproducible regardless of worker count. With more
    than one worker, BLAS runs on one thread while the pool runs. The
    degree-greedy deletion order is computed once, at the plan's largest
    budget, and every degree_greedy cell keeps the complement of its prefix;
    each such cell's timing sidecar records that one-off time as
    ``greedy_order``, outside its ``sample`` phase.
    """
    cells = expand_cells(plan)
    outcomes: dict[Cell, MetricsReport | Exception] = {}
    timing_map: dict[Cell, dict] = {}
    greedy = None
    if "degree_greedy" in plan.methods:
        t0 = time.perf_counter()
        greedy = greedy_order(g, plan.rates)
        greedy_s = time.perf_counter() - t0

    def _run(cell: Cell):
        try:
            return run_cell(cell, g, x, labels, plan, greedy=greedy)
        except (ValueError, DataError, NumericalError) as exc:
            return exc

    if plan.workers > 1:
        with _one_blas_thread(), ThreadPoolExecutor(max_workers=plan.workers) as pool:
            results = list(pool.map(_run, cells))
    else:
        results = [_run(c) for c in cells]
    for cell, res in zip(cells, results):
        if isinstance(res, Exception):
            outcomes[cell] = res
        else:
            outcomes[cell], timing_map[cell] = res
            if cell.method == "degree_greedy":
                timing_map[cell]["greedy_order"] = greedy_s

    rows = summarize(plan, outcomes)
    if outdir is not None:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        for cell in cells:
            res = outcomes[cell]
            if isinstance(res, MetricsReport):
                write_report(res, outdir / f"report__{cell.tag}.json")
                write_timings(timing_map[cell], outdir / f"timings__{cell.tag}.json")
        write_summary_csv(rows, outdir / "summary.csv")
    return rows


# ---------------------------------------------------------------------------
# runtime benchmark: Algorithm 1 phases on graphs of growing size


@dataclass(frozen=True)
class BenchRow:
    m_target: int
    m: int
    n: int
    d: int
    t_scores: float
    t_homophily: float
    t_select: float

    @property
    def t_compute(self) -> float:
        """Feature-dependent work: scoring plus homophily (selection reads no features)."""
        return self.t_scores + self.t_homophily

    @property
    def t_total(self) -> float:
        return self.t_scores + self.t_homophily + self.t_select


BENCH_COLUMNS = ("m_target", "m", "n", "d", "t_scores", "t_homophily", "t_select", "t_total")
BENCH_AVG_DEGREE = 20.0
BENCH_SEED = 0


def run_bench(m_targets, d: int = 16, gamma: float = 0.5, repeats: int = 5) -> list[BenchRow]:
    """Time the score/homophily/selection phases at each target edge count.

    Graphs come from a constant graphon at expected average degree
    ``BENCH_AVG_DEGREE``, so every phase grows linearly with the edge count.
    Per phase the minimum over ``repeats`` runs is reported.
    """
    rows = []
    for m_t in m_targets:
        n = max(8, int(round(2.0 * m_t / BENCH_AVG_DEGREE)))
        p = min(1.0, BENCH_AVG_DEGREE / max(1, n - 1))
        ds = generate_dataset(
            GraphonSpec(kind="constant", n=n, p=p, feature_dim=d, noise=1.0, seed=BENCH_SEED)
        )
        g, x = ds.graph, ds.features
        best = {"scores": math.inf, "homophily": math.inf, "select": math.inf}
        for _ in range(max(1, repeats)):
            t0 = time.perf_counter()
            xh = normalize_features(x)
            scores = node_scores(xh)
            t1 = time.perf_counter()
            feature_homophily(g, xh)
            t2 = time.perf_counter()
            induced_subgraph(g, lowest_score_nodes(scores, gamma))
            t3 = time.perf_counter()
            best["scores"] = min(best["scores"], t1 - t0)
            best["homophily"] = min(best["homophily"], t2 - t1)
            best["select"] = min(best["select"], t3 - t2)
        rows.append(
            BenchRow(
                m_target=int(m_t),
                m=g.m,
                n=g.n,
                d=d,
                t_scores=best["scores"],
                t_homophily=best["homophily"],
                t_select=best["select"],
            )
        )
    return rows


def run_bench_dims(
    dims, m_target: int = 40_000, gamma: float = 0.5, repeats: int = 5
) -> list[BenchRow]:
    """Companion sweep: fixed edge count, growing feature dimension."""
    rows = []
    for d in dims:
        rows.extend(run_bench([m_target], d=d, gamma=gamma, repeats=repeats))
    return rows


def write_bench_csv(rows: list[BenchRow], path) -> None:
    with open(Path(path), "w") as fh:
        fh.write(",".join(BENCH_COLUMNS) + "\n")
        for r in rows:
            vals = [r.m_target, r.m, r.n, r.d, r.t_scores, r.t_homophily, r.t_select, r.t_total]
            fh.write(",".join(_csv_cell(v) for v in vals) + "\n")


def loglog_slope(sizes, times) -> float:
    """Least-squares slope of log(time) against log(size)."""
    return float(np.polyfit(np.log(np.asarray(sizes, float)), np.log(np.asarray(times, float)), 1)[0])
