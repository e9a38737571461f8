"""Command-line entry point.

Subcommands: synth, homophily, sample, metrics, train-eval, experiment,
bench. Exit codes: 0 success, 1 usage error, 2 data error (also an OSError
on a given path, e.g. a directory as an input file), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import BrokenExecutor
from pathlib import Path

import numpy as np

from .errors import DataError, NumericalError, UsageError
from .experiments import (
    ExperimentPlan,
    run_bench,
    run_bench_dims,
    run_cell,
    run_experiment,
    subgraph_metrics,
    write_bench_csv,
    write_summary_csv,
)
from .features import feature_homophily, normalize_features, trace_lower_bound
from .gnn import SHIFT_CHOICES, GnnConfig
from .graph import laplacian_trace
from .graphon import generate_dataset, parse_graphon_spec
from .io_formats import (
    MetricsReport,
    check_sizes,
    greedy_order_cached,
    read_cached,
    report_to_text,
    write_edge_list,
    write_features_csv,
    write_labels_csv,
    write_report,
    write_sample,
)
from .sampling import METHODS, SampleSpec, sample


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        raise UsageError(message)


def _positive_int(text: str) -> int:
    v = int(text)
    if v < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {v}")
    return v


def _nonnegative_int(text: str) -> int:
    v = int(text)
    if v < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {v}")
    return v


def _finite_nonnegative(text: str) -> float:
    v = float(text)
    if not (np.isfinite(v) and v >= 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text}")
    return v


def _gamma(text: str) -> float:
    v = float(text)
    if not 0.0 < v <= 1.0:
        raise argparse.ArgumentTypeError(f"gamma must be in (0, 1], got {v}")
    return v


def _rate_list(text: str) -> tuple[float, ...]:
    try:
        rates = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad rate list {text!r}")
    if not rates or any(not 0.0 < r <= 1.0 for r in rates):
        raise argparse.ArgumentTypeError(f"rates must lie in (0, 1]: {text!r}")
    return rates


def _method_list(text: str) -> tuple[str, ...]:
    methods = tuple(text.split(","))
    for i, name in enumerate(methods):
        if name not in METHODS:
            raise argparse.ArgumentTypeError(
                f"unknown sampling method {name!r} in {text!r}; expected one of {METHODS}"
            )
        if name in methods[:i]:
            raise argparse.ArgumentTypeError(f"duplicate sampling method {name!r} in {text!r}")
    return methods


def _int_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}")
    if not values or min(values) < 1:
        raise argparse.ArgumentTypeError(f"need one or more integers >= 1, got {text!r}")
    return values


def _add_data_args(p, labels_required=False, features_required=True):
    p.add_argument("--graph", required=True, help="edge list file")
    p.add_argument("--features", required=features_required, help="feature CSV, row i = node i")
    p.add_argument("--labels", required=labels_required, help="single-column integer label CSV")


def _add_gnn_args(p):
    p.add_argument("--epochs", type=_positive_int, default=200)
    p.add_argument("--lr", type=_finite_nonnegative, default=1e-3)
    p.add_argument("--weight-decay", type=_finite_nonnegative, default=1e-4)
    p.add_argument("--layers", type=_positive_int, default=2)
    p.add_argument("--hidden", type=_positive_int, default=64)
    p.add_argument("--taps", type=_positive_int, default=2)
    p.add_argument("--shift", choices=SHIFT_CHOICES, default="gcn_norm")


def _gnn_config(args) -> GnnConfig:
    return GnnConfig(
        layers=args.layers,
        taps=args.taps,
        hidden=args.hidden,
        shift=args.shift,
        epochs=args.epochs,
        lr=args.lr,
        weight_decay=args.weight_decay,
        seed=args.seed,
    )


def _load_dataset(args, need_features=True, need_labels=False):
    """(graph, features, labels, digests) of the command's files.

    ``digests`` maps ``edge_list`` and, when read, ``features_csv`` to the
    cache digest ``read_cached`` gave the file (None when read uncached).
    """
    if need_features and not args.features:
        raise DataError("this command requires --features")
    if need_labels and not args.labels:
        raise DataError("this command requires --labels")
    stores = []
    digests = {}

    def read(path, kind):
        value, store, digests[kind] = read_cached(path, kind)
        stores.append(store)
        return value

    g = read(args.graph, "edge_list")
    x = read(args.features, "features_csv") if args.features else None
    y = read(args.labels, "labels_csv") if args.labels else None
    if x is not None:
        bad = ~np.isfinite(x).all(axis=1)
        if bad.any():
            raise DataError(f"{args.features}: non-finite value in row {int(np.argmax(bad)) + 1}")
    if y is not None:
        bad = y < 0
        if bad.any():
            raise DataError(f"{args.labels}: negative label in row {int(np.argmax(bad)) + 1}")
    check_sizes(g, x, y)
    for store in stores:  # only inputs that passed every check are cached
        store()
    return g, x, y, digests


def _order(args, g, digests):
    """The cached greedy deletion order for a ``degree_greedy`` ``--method``, else None."""
    if args.method != "degree_greedy":
        return None
    return greedy_order_cached(args.graph, digests["edge_list"], g, (args.gamma,))


def cmd_synth(args) -> int:
    spec = parse_graphon_spec(args.spec)
    ds = generate_dataset(spec)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    write_edge_list(ds.graph, outdir / "graph.txt")
    write_features_csv(ds.features, outdir / "features.csv")
    write_labels_csv(ds.labels, outdir / "labels.csv")
    print(f"wrote n={ds.graph.n} m={ds.graph.m} d={ds.features.shape[1]} to {outdir}")
    return 0


def cmd_homophily(args) -> int:
    g, x, _, _ = _load_dataset(args)
    xh = normalize_features(x)
    del x  # only the standardized copy is needed (peak RSS)
    h = feature_homophily(g, xh)
    tr = laplacian_trace(g)
    print(f"h_G = {h:.17g}")
    print(f"tr(L) = {tr:.17g}")
    try:
        print(f"bound = {trace_lower_bound(h, xh):.17g}")
    except ValueError:  # every feature column degenerate
        print("bound = undefined (all feature columns are constant)")
    return 0


def cmd_sample(args) -> int:
    g, x, y, digests = _load_dataset(args, need_features=args.method == "homophily")
    spec = SampleSpec(
        gamma=args.gamma, method=args.method, seed=args.seed, use_raw_scores=args.use_raw_scores
    )
    result = sample(g, spec, x=x, labels=y, order=_order(args, g, digests))
    features_from = None if x is None else (args.features, digests["features_csv"], g.n)
    write_sample(result, args.out, features_from)
    print(f"kept {len(result.kept)} of {g.n} nodes -> {args.out}")
    return 0


def cmd_metrics(args) -> int:
    g, x, _, _ = _load_dataset(args)
    rows = [x]
    del x  # subgraph_metrics takes the only reference and frees the raw rows once standardized
    try:
        metrics = subgraph_metrics(g.n, g.edges, rows.pop())
    except ValueError as exc:  # every feature column constant: no trace bound
        raise DataError(f"{args.features}: {exc}") from None
    report = MetricsReport(
        dataset=Path(args.graph).stem, method="full", gamma=1.0, seed=0, **metrics
    )
    text = report_to_text(report)
    if args.out:
        write_report(report, args.out)
    sys.stdout.write(text)
    return 0


def cmd_train_eval(args) -> int:
    g, x, y, digests = _load_dataset(args, need_labels=True)
    spec = SampleSpec(
        gamma=args.gamma, method=args.method, seed=args.seed, use_raw_scores=args.use_raw_scores
    )
    order = _order(args, g, digests)
    report, _ = run_cell(spec, g, x, y, _gnn_config(args), Path(args.graph).stem, order=order)
    if args.out:
        write_report(report, args.out)
    print(f"accuracy = {report.accuracy:.17g}")
    return 0


def cmd_experiment(args) -> int:
    methods = args.methods
    orders = {}
    if args.synth:
        if args.features or args.labels:
            raise UsageError("--synth generates its own features and labels")
        ds = generate_dataset(parse_graphon_spec(args.synth))
        g, x, y = ds.graph, ds.features, ds.labels
        dataset_id = "synth"
    else:
        train = not args.metrics_only
        g, x, y, digests = _load_dataset(
            args, need_features=train or "homophily" in methods, need_labels=train
        )
        dataset_id = Path(args.graph).stem
        orders["degree_greedy"] = lambda: greedy_order_cached(
            args.graph, digests["edge_list"], g, args.rates
        )
    plan = ExperimentPlan(
        rates=args.rates,
        methods=methods,
        reps=args.reps,
        seed=args.seed,
        gnn=_gnn_config(args),
        metrics_only=args.metrics_only,
        dataset_id=dataset_id,
        workers=args.workers,
    )
    rows = run_experiment(plan, g, x=x, labels=y, outdir=args.out, orders=orders)
    print(f"wrote {len(rows)} summary rows to {Path(args.out) / 'summary.csv'}")
    return 0


def cmd_bench(args) -> int:
    sizes = sorted(args.sizes)
    rows = run_bench(sizes, d=args.d, gamma=args.gamma, repeats=args.repeats)
    if args.dims:
        rows += run_bench_dims(
            sorted(args.dims), m_target=sizes[-1] // 2, gamma=args.gamma, repeats=args.repeats
        )
    if args.out:
        write_bench_csv(rows, args.out)
    for r in rows:
        print(
            f"m={r.m} n={r.n} d={r.d} "
            f"scores={r.t_scores:.6f}s homophily={r.t_homophily:.6f}s "
            f"select={r.t_select:.6f}s total={r.t_total:.6f}s"
        )
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="homsample", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a graphon dataset")
    p.add_argument("--spec", required=True, help="e.g. blocks,n=1000,intra=0.02,inter=0.002,fracs=0.3:0.7,d=16,tau=0.3,seed=1")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("homophily", help="print h_G, tr(L), and the trace bound")
    _add_data_args(p)
    p.set_defaults(func=cmd_homophily)

    p = sub.add_parser("sample", help="subsample a graph and write the result")
    _add_data_args(p, features_required=False)
    p.add_argument("--gamma", type=_gamma, required=True)
    p.add_argument("--method", choices=METHODS, default="homophily")
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--use-raw-scores", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("metrics", help="full-graph metrics report")
    _add_data_args(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("train-eval", help="train on a subsample, evaluate on the full graph")
    _add_data_args(p, labels_required=True)
    p.add_argument("--gamma", type=_gamma, required=True)
    p.add_argument("--method", choices=METHODS, default="homophily")
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--use-raw-scores", action="store_true")
    p.add_argument("--out")
    _add_gnn_args(p)
    p.set_defaults(func=cmd_train_eval)

    p = sub.add_parser("experiment", help="rate/method sweep with reports and summary")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--graph", help="edge list file")
    source.add_argument("--synth", help="graphon spec string instead of files")
    p.add_argument("--features")
    p.add_argument("--labels")
    p.add_argument("--rates", type=_rate_list, required=True)
    p.add_argument("--methods", type=_method_list, default="homophily,random")
    p.add_argument("--reps", type=_positive_int, default=50)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--metrics-only", action="store_true")
    p.add_argument("--workers", type=_positive_int, default=1)
    p.add_argument("--out", required=True)
    _add_gnn_args(p)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("bench", help="time Algorithm 1 phases on growing graphs")
    p.add_argument("--sizes", type=_int_list, default=(10_000, 20_000, 40_000, 80_000),
                   help="target edge counts")
    p.add_argument("--dims", type=_int_list, default=(),
                   help="optional feature-dim sweep at m = (largest --sizes) // 2")
    p.add_argument("--d", type=_positive_int, default=16)
    p.add_argument("--gamma", type=_gamma, default=0.5)
    p.add_argument("--repeats", type=_positive_int, default=5)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"homsample: usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"homsample: usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, ValueError, OSError) as exc:
        print(f"homsample: data error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, FloatingPointError) as exc:
        print(f"homsample: numerical failure: {exc}", file=sys.stderr)
        return 3
    except BrokenExecutor as exc:  # an experiment worker process died
        print(f"homsample: worker failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
