"""Experiment harness: rate/method sweeps, metrics reports, and benchmarks.

A plan expands into independent (rate, method, repetition) cells. Each cell
samples nodes, measures the sample's connectivity metrics from the graph's
edge view (built once per sweep), optionally trains a GNN on the induced
subgraph and evaluates transfer accuracy on the full graph, and writes a
canonical report plus a timing sidecar. The summary aggregates mean and
standard error per (rate, method). Outputs are byte-reproducible for a
fixed plan; wall-clock sidecars are the only non-deterministic files.
"""

from __future__ import annotations

import csv
import ctypes
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import _kernels
from .errors import DataError, NumericalError
from .features import (
    edge_homophily,
    feature_homophily,
    node_scores,
    normalize_features,
    trace_lower_bound,
)
from .gnn import GnnConfig, evaluate, train
from .graph import Graph, induced_edges, induced_subgraph
from .graphon import GraphonSpec, generate_dataset
from .io_formats import MetricsReport, write_report, write_timings
from .sampling import ORDERED, SampleSpec, check_method, deletion_order, keep_after, sample_ids


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
    """One sweep cell: its rate's index, its repetition and what it samples."""

    rate_idx: int
    rep: int
    spec: SampleSpec

    @property
    def tag(self) -> str:
        return f"r{self.rate_idx:02d}_{self.spec.method}_rep{self.rep:03d}"


def _cell_seed(master: int, rate_idx: int, method_idx: int, rep: int) -> int:
    seq = np.random.SeedSequence([master, rate_idx, method_idx, rep])
    return int(seq.generate_state(1)[0])


def expand_cells(plan: ExperimentPlan) -> list[Cell]:
    cells = []
    for ri, rate in enumerate(plan.rates):
        for mi, method in enumerate(plan.methods):
            reps = plan.reps if method == "random" else 1
            for rep in range(reps):
                seed = _cell_seed(plan.seed, ri, mi, rep)
                cells.append(Cell(ri, rep, SampleSpec(gamma=rate, method=method, seed=seed)))
    return cells


def subgraph_metrics(n: int, edges, x: np.ndarray | None) -> dict:
    """Connectivity and homophily metrics of an ``n``-node graph and its features.

    ``edges`` is a zero-argument callable that returns the graph's edge
    view (``(u, v)``, each undirected edge once), e.g. ``g.edges`` or a
    sample's ``induced_edges``; tr(L) is twice its length. ``x`` (or None)
    is re-standardized on these nodes before computing homophily and the
    trace bound. Standardizing comes first and the view is built after it,
    so the view and the standardization's temporaries never coexist (peak
    RSS).
    """
    xh = None if x is None else normalize_features(x)
    del x  # the raw rows are freed here when the caller kept no reference (peak RSS)
    u, v = edges()
    tr = 2.0 * u.shape[0]
    count, _ = _kernels.component_labels(n, u, v)
    out = {
        "laplacian_trace": tr,
        "adjusted_trace": tr / n,
        "components": count,
        "laplacian_rank": n - count,
    }
    if xh is not None:
        h = edge_homophily(n, (u, v), xh)
        bound = trace_lower_bound(h, xh)
        out.update(
            h_g=h, trace_bound=bound, bound_satisfied=bool(tr >= bound - 1e-9)
        )
    else:
        out.update(h_g=0.0, trace_bound=0.0, bound_satisfied=True)
    return out


def run_cell(
    spec: SampleSpec,
    g: Graph,
    x: np.ndarray | None,
    labels: np.ndarray | None,
    gnn: GnnConfig | None,
    dataset_id: str,
    order: np.ndarray | None = None,
    edges: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[MetricsReport, dict]:
    """Sample by ``spec``, measure the sample, and train when given ``gnn``.

    Returns (report, phase timings). The sample is measured from ``edges``,
    the edge view of ``g`` (``g.edges()`` when None), without building its
    subgraph. With a ``gnn`` config (which then needs ``x`` and ``labels``)
    the GNN, seeded with ``spec.seed``, is fit on the induced subgraph and
    the report carries its accuracy on the nodes the sample did not keep,
    or on every node when it kept them all. ``order`` is the sweep's shared
    deletion order for ``spec.method`` (see ``sampling.sample_ids``).
    """
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    kept = sample_ids(g, spec, x=x, order=order)
    timings["sample"] = time.perf_counter() - t0

    t0 = time.perf_counter()

    def rows():
        return None if x is None else np.take(x, kept, axis=0)

    # Training needs the raw rows again. A metrics-only cell holds no
    # reference to them, so subgraph_metrics frees them once standardized.
    xk = None if gnn is None else rows()
    metrics = subgraph_metrics(
        kept.size,
        lambda: induced_edges(g.n, g.edges() if edges is None else edges, kept),
        rows() if xk is None else xk,
    )
    timings["metrics"] = time.perf_counter() - t0

    accuracy = None
    if gnn is not None:
        t0 = time.perf_counter()
        n_classes = int(np.max(labels)) + 1
        model = train(
            induced_subgraph(g, kept),
            xk,
            np.asarray(labels)[kept],
            np.ones(kept.size, dtype=bool),
            replace(gnn, seed=spec.seed),
            n_classes=n_classes,
        )
        timings["train"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        eval_mask = np.ones(g.n, dtype=bool)
        eval_mask[kept] = False
        if not eval_mask.any():  # gamma = 1 keeps everything
            eval_mask[:] = True
        accuracy = evaluate(model, g, x, labels, eval_mask)
        timings["eval"] = time.perf_counter() - t0

    report = MetricsReport(
        dataset=dataset_id,
        method=spec.method,
        gamma=spec.gamma,
        seed=spec.seed,
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

    Workers that each start BLAS threads oversubscribe the cores: on 2 vCPUs,
    a 30-cell training sweep (n = 2000, d = 16, 200 epochs, hidden 64) in two
    worker processes took 3.5 s with one BLAS thread and 24 s (11-56 s)
    without, over 8 alternating runs. Forked worker processes inherit the
    count set here before the fork.
    Serial runs keep BLAS threads: a one-worker sweep on d = 1433 features
    took 27.5 s with them and 44.5 s without. Without an OpenBLAS in numpy's
    wheel libraries this does nothing.
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
            cells = [c for c in outcomes if c.rate_idx == ri and c.spec.method == method]
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
    with open(Path(path), "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(SUMMARY_COLUMNS)
        out.writerows([_csv_cell(row.get(c)) for c in SUMMARY_COLUMNS] for row in rows)


# The running sweep's (cells, graph, features, labels, gnn, dataset id,
# deletion orders by method, edge view of the graph). Forked workers inherit
# it copy-on-write, so a task is a cell index.
_SWEEP: tuple | None = None


def _run_sweep_cell(i: int):
    """Cell ``i`` of the running sweep: (report, timings), or the handled error."""
    cells, g, x, labels, gnn, dataset_id, orders, edges = _SWEEP
    order = orders.get(cells[i].spec.method)
    try:
        return run_cell(cells[i].spec, g, x, labels, gnn, dataset_id, order=order, edges=edges)
    except (ValueError, DataError, NumericalError) as exc:
        return exc


def _run_forked(cells: list[Cell], workers: int):
    """Yield the sweep's cell results in cell order, run in ``workers`` forked processes.

    The pool starts at the first ``next``. A worker process that dies raises
    BrokenProcessPool naming a cell that did not finish, after the results of
    the cells before it were yielded. When a cell raises, or the generator is
    closed, cells not yet started are dropped and the pool is joined.
    """
    import multiprocessing
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    ctx = multiprocessing.get_context("fork")
    with _one_blas_thread(), ProcessPoolExecutor(workers, mp_context=ctx) as pool:
        futures = [pool.submit(_run_sweep_cell, i) for i in range(len(cells))]
        try:
            for i, fut in enumerate(futures):
                yield fut.result()
        except BrokenProcessPool as exc:  # a consumer's error never enters at the yield
            tag = cells[i].tag  # the cell whose result broke
            raise BrokenProcessPool(f"a worker process died; cell {tag} did not finish") from exc
        finally:
            for fut in futures:
                fut.cancel()


def run_experiment(
    plan: ExperimentPlan,
    g: Graph,
    x: np.ndarray | None = None,
    labels: np.ndarray | None = None,
    outdir=None,
    orders: dict | None = None,
) -> list[dict]:
    """Run every cell of the plan, write reports and the summary, return rows.

    Cells run independently (in ``plan.workers`` forked processes when that
    is above 1, which inherit the inputs and the graph's edge view, built
    once here, rather than receive copies). Each result is taken in cell
    order and its report and sidecar are written at once; the summary comes
    last, so outputs do not depend on the worker count. ``outdir`` is made
    before any cell runs. An exception that stops the sweep (an interrupt, a
    failed write, or the BrokenProcessPool of a worker process that died)
    leaves the earlier cells' files and no summary; no worker outlives the
    call. With more than one worker, BLAS runs on one thread while the pool
    runs. Each ordered method of the plan (``sampling.ORDERED``) gets its
    deletion order once, before any cell runs and before ``outdir`` is made:
    from the zero-argument callable ``orders[method]`` when given (the CLI's
    cached greedy order), else ``sampling.deletion_order`` at the plan's
    largest budget. Its cells keep complements of that order's prefixes,
    and their sidecars record the seconds it took as ``<method>_order``,
    outside the ``sample`` phase. A given order that is too short raises the
    ValueError ``sampling.sample_ids`` raises, before anything is written. A
    method whose order cannot be obtained (``homophily`` with no ``x``) gets
    none, and each of its cells records the error. A plan that trains (not
    ``metrics_only``) raises ValueError without ``x`` and ``labels``.
    """
    global _SWEEP
    if not plan.metrics_only and (x is None or labels is None):
        raise ValueError("training needs features and labels; a metrics_only plan needs neither")
    gnn = None if plan.metrics_only else plan.gnn
    cells = expand_cells(plan)
    outcomes: dict[Cell, MetricsReport | Exception] = {}
    ordered, order_s = {}, {}
    for method in (m for m in plan.methods if m in ORDERED):
        t0 = time.perf_counter()
        provide = (orders or {}).get(method)
        try:
            ordered[method] = provide() if provide else deletion_order(g, method, plan.rates, x)
        except (ValueError, DataError, NumericalError):
            continue  # each cell of the method raises the error again, cheaply
        keep_after(ordered[method], g.n, min(plan.rates))  # a given order too short raises
        order_s[method] = time.perf_counter() - t0
    if outdir is not None:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)

    _SWEEP = (cells, g, x, labels, gnn, plan.dataset_id, ordered, g.edges())
    serial = (_run_sweep_cell(i) for i in range(len(cells)))
    results = _run_forked(cells, plan.workers) if plan.workers > 1 else serial
    try:
        for cell, res in zip(cells, results):
            if isinstance(res, Exception):
                outcomes[cell] = res
                continue
            outcomes[cell], timings = res
            if cell.spec.method in order_s:
                timings[f"{cell.spec.method}_order"] = order_s[cell.spec.method]
            if outdir is not None:
                write_report(outcomes[cell], outdir / f"report__{cell.tag}.json")
                write_timings(timings, outdir / f"timings__{cell.tag}.json")
    finally:
        results.close()  # joins the workers when a write raised
        _SWEEP = None
    rows = summarize(plan, outcomes)
    if outdir is not None:
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
            induced_subgraph(g, keep_after(np.argsort(scores, kind="stable")[::-1], g.n, gamma))
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
