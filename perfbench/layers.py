"""Per-layer metrics of the traced run, and the end-to-end metric each should move.

Layers are the package's modules. ``spectral`` is left out: it is dense,
capped at small n, used only for verification and on no command's path.
Metric names say ``kernels`` for the ``_kernels`` module, because a metric
name has to start with a letter.

Every ``*_s`` metric of a function is its self time (span duration minus
the part its child spans cover) and every count is work done, both summed
per round: per command, the mean over the run's executions, summed over
the workload's commands. ``<layer>.self_s`` is the layer's whole self time
per round. A layer a workload never calls reads 0.
"""

from __future__ import annotations

import os
import statistics

PACKAGE = "homsample"
LAYERS = ("cli", "experiments", "graphon", "io_formats", "graph", "features", "sampling", "_kernels", "gnn")


def _path_arg(args, kwargs, pos: int, key: str) -> str:
    return kwargs[key] if key in kwargs else args[pos]


def _size(path) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def _sample_dir_bytes(args, kwargs, result) -> int:
    # nested write_* calls count the files they write themselves
    out = _path_arg(args, kwargs, 1, "outdir")
    return _size(os.path.join(out, "kept.txt")) + _size(os.path.join(out, "id_map.txt"))


_READ = lambda a, k, r: _size(_path_arg(a, k, 0, "path"))  # noqa: E731
_WRITE = lambda a, k, r: _size(_path_arg(a, k, 1, "path"))  # noqa: E731

# span name -> work count recorded on each successful call
COUNT_HOOKS = {
    "graphon.sample_graphon_graph": lambda a, k, r: r[0].m,
    "graph.build_graph": lambda a, k, r: r.m,
    "graph.connected_components": lambda a, k, r: r[0],
    "_kernels.greedy_min_degree_order": lambda a, k, r: len(r),
    "io_formats.read_edge_list": _READ,
    "io_formats.read_features_csv": _READ,
    "io_formats.read_labels_csv": _READ,
    "io_formats.read_kept": _READ,
    "io_formats.read_report": _READ,
    "io_formats.write_edge_list": _WRITE,
    "io_formats.write_features_csv": _WRITE,
    "io_formats.write_labels_csv": _WRITE,
    "io_formats.write_report": _WRITE,
    "io_formats.write_timings": _WRITE,
    "io_formats.write_sample": _sample_dir_bytes,
}

READS = ("read_edge_list", "read_features_csv", "read_labels_csv", "read_kept", "read_report")
WRITES = (
    "write_edge_list", "write_features_csv", "write_labels_csv", "write_sample",
    "write_report", "write_timings",
)

CLI_80K = "cli-80k"
SYNTH = "synth-20k"
SWEEP_M = "sweep-metrics-80k"
SWEEP_T = "sweep-train-2k"
SWEEPS = (SWEEP_M, SWEEP_T)


def _self(span):
    return lambda agg: agg.self_s.get(span, 0.0)


def _count(*spans):
    return lambda agg: sum(agg.counts.get(s, 0.0) for s in spans)


def _calls(span):
    return lambda agg: agg.calls.get(span, 0)


# (metric, unit, better, workloads where it is nonzero, end-to-end metrics it
# should move, additive value of one command execution's aggregate)
ADDITIVE = [
    ("graphon.sample_graphon_graph_s", "s", "lower", (SYNTH, SWEEP_T), "round_s, peak_rss_mb", _self("graphon.sample_graphon_graph")),
    ("graphon.homophilic_features_s", "s", "lower", (SYNTH, SWEEP_T), "round_s", _self("graphon.homophilic_features")),
    ("graphon.edges", "count", "lower", (SYNTH, SWEEP_T), "round_s, peak_rss_mb", _count("graphon.sample_graphon_graph")),
    ("io_formats.read_edge_list_s", "s", "lower", (CLI_80K, SWEEP_M), "round_s, peak_rss_mb", _self("io_formats.read_edge_list")),
    ("io_formats.read_features_csv_s", "s", "lower", (CLI_80K, SWEEP_M), "round_s, peak_rss_mb", _self("io_formats.read_features_csv")),
    ("io_formats.read_labels_csv_s", "s", "lower", (CLI_80K, SWEEP_M), "round_s", _self("io_formats.read_labels_csv")),
    ("io_formats.bytes_read", "bytes", "lower", (CLI_80K, SWEEP_M), "round_s", _count(*(f"io_formats.{f}" for f in READS))),
    ("io_formats.write_edge_list_s", "s", "lower", (SYNTH, CLI_80K), "round_s", _self("io_formats.write_edge_list")),
    ("io_formats.write_features_csv_s", "s", "lower", (SYNTH, CLI_80K), "round_s", _self("io_formats.write_features_csv")),
    ("io_formats.write_labels_csv_s", "s", "lower", (SYNTH, CLI_80K), "round_s", _self("io_formats.write_labels_csv")),
    ("io_formats.write_sample_s", "s", "lower", (CLI_80K,), "round_s", _self("io_formats.write_sample")),
    ("io_formats.write_report_s", "s", "lower", (CLI_80K,) + SWEEPS, "round_s", _self("io_formats.write_report")),
    ("io_formats.bytes_written", "bytes", "lower", (SYNTH, CLI_80K) + SWEEPS, "round_s", _count(*(f"io_formats.{f}" for f in WRITES))),
    ("graph.build_graph_s", "s", "lower", (CLI_80K, SYNTH) + SWEEPS, "round_s, peak_rss_mb", _self("graph.build_graph")),
    ("graph.edges_built", "count", "lower", (CLI_80K, SYNTH) + SWEEPS, "round_s", _count("graph.build_graph")),
    ("graph.induced_subgraph_s", "s", "lower", (CLI_80K,) + SWEEPS, "round_s", _self("graph.induced_subgraph")),
    ("graph.connected_components_s", "s", "lower", (CLI_80K,) + SWEEPS, "round_s", _self("graph.connected_components")),
    ("graph.components", "count", "lower", (CLI_80K,) + SWEEPS, "round_s", _count("graph.connected_components")),
    ("features.normalize_features_s", "s", "lower", (CLI_80K,) + SWEEPS, "round_s", _self("features.normalize_features")),
    ("features.node_scores_s", "s", "lower", (CLI_80K,) + SWEEPS, "round_s", _self("features.node_scores")),
    ("features.feature_homophily_s", "s", "lower", (CLI_80K,) + SWEEPS, "round_s", _self("features.feature_homophily")),
    ("sampling.sample_homophily_s", "s", "lower", (CLI_80K,) + SWEEPS, "round_s", _self("sampling.sample_homophily")),
    ("sampling.sample_random_s", "s", "lower", (CLI_80K,) + SWEEPS, "round_s", _self("sampling.sample_random")),
    ("sampling.sample_degree_greedy_s", "s", "lower", (CLI_80K, SWEEP_M), "round_s", _self("sampling.sample_degree_greedy")),
    ("kernels.edge_distance_sum_s", "s", "lower", (CLI_80K,) + SWEEPS, "round_s", _self("_kernels.edge_distance_sum")),
    ("kernels.component_labels_s", "s", "lower", (CLI_80K,) + SWEEPS, "round_s", _self("_kernels.component_labels")),
    ("kernels.greedy_min_degree_order_s", "s", "lower", (CLI_80K, SWEEP_M), "round_s", _self("_kernels.greedy_min_degree_order")),
    ("kernels.nodes_removed", "count", "lower", (CLI_80K, SWEEP_M), "round_s", _count("_kernels.greedy_min_degree_order")),
    ("gnn.train_s", "s", "lower", (SWEEP_T,), "round_s", _self("gnn.train")),
    ("gnn.loss_and_grads_s", "s", "lower", (SWEEP_T,), "round_s", _self("gnn.loss_and_grads")),
    ("gnn.epochs", "count", "lower", (SWEEP_T,), "round_s", _calls("gnn.loss_and_grads")),
    ("gnn.evaluate_s", "s", "lower", (SWEEP_T,), "round_s", _self("gnn.evaluate")),
    ("gnn.shift_matrix_s", "s", "lower", (SWEEP_T,), "round_s", _self("gnn.shift_matrix")),
    ("gnn.shift_matrix_calls", "count", "lower", (SWEEP_T,), "round_s", _calls("gnn.shift_matrix")),
    ("experiments.run_cell_s", "s", "lower", SWEEPS, "round_s", _self("experiments.run_cell")),
    ("experiments.subgraph_metrics_s", "s", "lower", (CLI_80K,) + SWEEPS, "round_s", _self("experiments.subgraph_metrics")),
    ("experiments.cells", "count", "higher", SWEEPS, "round_s", _calls("experiments.run_cell")),
    ("experiments.cells_failed", "count", "lower", SWEEPS, "round_s", lambda agg: agg.failed.get("experiments.run_cell", 0)),
    ("trace.spans", "count", "lower", (CLI_80K, SYNTH) + SWEEPS, "none (tracing cost)", lambda agg: sum(agg.calls.values())),
]
ADDITIVE += [
    (f"{layer.lstrip('_')}.self_s", "s", "lower", (CLI_80K, SYNTH) + SWEEPS, "round_s",
     lambda agg, layer=layer: agg.layer_self(layer))
    for layer in LAYERS
]

# per-layer metric of a command's median wall time -> (commands, workloads)
COMMAND_METRICS = {
    "cli.homophily_s": (("homophily",), (CLI_80K,)),
    "cli.metrics_s": (("metrics",), (CLI_80K,)),
    "cli.sample_homophily_s": (("sample_homophily",), (CLI_80K,)),
    "cli.sample_random_s": (("sample_random",), (CLI_80K,)),
    "cli.sample_greedy_s": (("sample_greedy",), (CLI_80K,)),
    "cli.synth_s": (("synth_blocks", "synth_grid"), (SYNTH,)),
    # the full sweep only; its first-rate repeat has no metric of its own
    "cli.experiment_s": (("experiment",), SWEEPS),
}

# pooled over the whole run rather than summed per round
POOLED = [
    ("gnn.epoch_s", "s", "lower", (SWEEP_T,), "round_s"),
    ("experiments.cells_per_s", "1/s", "higher", SWEEPS, "round_s"),
    ("experiments.worker_busy_ratio", "ratio", "higher", SWEEPS, "round_s"),
    ("trace.uncovered_share", "ratio", "lower", (CLI_80K, SYNTH) + SWEEPS, "none (coverage of the trace)"),
    ("trace.overhead_s", "s", "lower", (CLI_80K, SYNTH) + SWEEPS, "none (tracing cost)"),
]


def metric_table():
    """(name, unit, better, workloads, moves) of every per-layer metric, in report order."""
    rows = [(name, unit, better, wl, moves) for name, unit, better, wl, moves, _ in ADDITIVE]
    rows += [(name, "s", "lower", wl, "round_s") for name, (_cmds, wl) in COMMAND_METRICS.items()]
    rows += POOLED
    return rows


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def _median(values):
    return statistics.median(values) if values else 0.0


def per_layer_metrics(executions, span_cost_s: float) -> dict[str, float]:
    """Per-layer metrics from traced command executions.

    ``executions`` holds one (command name, wall seconds, Aggregate) per
    command run; ``span_cost_s`` is the measured cost of one traced call.
    """
    by_cmd: dict[str, list] = {}
    for name, wall, agg in executions:
        by_cmd.setdefault(name, []).append((wall, agg))
    out = {}
    for metric, _u, _b, _w, _m, fn in ADDITIVE:
        out[metric] = float(sum(_mean([fn(agg) for _, agg in runs]) for runs in by_cmd.values()))
    for metric, (cmds, _wl) in COMMAND_METRICS.items():
        out[metric] = float(_median([w for cmd in cmds for w, _ in by_cmd.get(cmd, ())]))

    aggs = [agg for _, _, agg in executions]
    epochs = sum(a.calls.get("gnn.loss_and_grads", 0) for a in aggs)
    train_incl = sum(a.incl_s.get("gnn.train", 0.0) for a in aggs)
    out["gnn.epoch_s"] = train_incl / epochs if epochs else 0.0
    full = [(w, a) for name, w, a in executions if name == "experiment"]
    exp_wall = sum(w for w, _ in full)
    cells = sum(a.calls.get("experiments.run_cell", 0) for _, a in full)
    out["experiments.cells_per_s"] = cells / exp_wall if exp_wall else 0.0
    busy = sum(a.incl_s.get("experiments.run_cell", 0.0) for a in aggs)
    capacity = sum(
        a.incl_s.get("experiments.run_experiment", 0.0) * len(a.busy_threads.get("experiments.run_cell", ()))
        for a in aggs
    )
    out["experiments.worker_busy_ratio"] = busy / capacity if capacity else 0.0
    wall = sum(w for _, w, _ in executions)
    out["trace.uncovered_share"] = 1.0 - sum(a.covered_s for a in aggs) / wall if wall else 0.0
    out["trace.overhead_s"] = out["trace.spans"] * span_cost_s
    return out
