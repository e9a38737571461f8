import csv
import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import replace

import numpy as np
import pytest

import homsample as hs
from homsample import experiments
from homsample.cli import main
from homsample.experiments import SUMMARY_COLUMNS, subgraph_metrics
from homsample.io_formats import (
    read_edge_list,
    read_features_csv,
    read_report,
    report_to_text,
    write_edge_list,
    write_features_csv,
    write_labels_csv,
)

from util import path_graph


@pytest.fixture
def p3_dir(tmp_path):
    write_edge_list(path_graph(3), tmp_path / "graph.txt")
    write_features_csv(np.array([[1.0], [1.0], [1.0]]), tmp_path / "const.csv")
    write_features_csv(np.array([[0.0], [1.0], [0.5]]), tmp_path / "vary.csv")
    return tmp_path


def test_homophily_identical_features_prints_zero(p3_dir, capsys):
    rc = main(["homophily", "--graph", str(p3_dir / "graph.txt"), "--features", str(p3_dir / "const.csv")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "h_G = 0" in out
    assert "undefined" in out  # all columns constant, bound has no denominator


def test_metrics_with_every_column_constant_exits_2_naming_the_features(p3_dir, capsys):
    features = str(p3_dir / "const.csv")
    out = p3_dir / "report.json"
    rc = main(["metrics", "--graph", str(p3_dir / "graph.txt"), "--features", features, "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith(f"homsample: data error: {features}: bound undefined")
    assert captured.out == ""
    assert not out.exists()


def test_homophily_single_edge_values(tmp_path, capsys):
    write_edge_list(hs.build_graph([(0, 1)]), tmp_path / "g.txt")
    write_features_csv(np.array([[0.0], [1.0]]), tmp_path / "x.csv")
    rc = main(["homophily", "--graph", str(tmp_path / "g.txt"), "--features", str(tmp_path / "x.csv")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "h_G = -2" in out
    assert "tr(L) = 2" in out
    assert "bound = 2" in out


def test_missing_file_exits_2_with_path(tmp_path, capsys):
    rc = main(["homophily", "--graph", str(tmp_path / "ghost.txt"), "--features", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "ghost.txt" in err


@pytest.mark.parametrize("command, bad", [
    (["homophily", "--graph", "{dir}", "--features", "{x}"], "dir"),
    (["homophily", "--graph", "{g}", "--features", "{dir}"], "dir"),
    (["metrics", "--graph", "{g}", "--features", "{x}", "--out", "{dir}"], "dir"),
    (["train-eval", "--graph", "{g}", "--features", "{x}", "--labels", "{y}", "--gamma", "0.5",
      "--epochs", "2", "--out", "{dir}"], "dir"),
    (["sample", "--graph", "{g}", "--features", "{x}", "--gamma", "0.5", "--out", "{file}"], "file"),
    (["synth", "--spec", "constant,n=20,p=0.2,d=2,seed=1", "--out", "{file}"], "file"),
    (["experiment", "--graph", "{g}", "--rates", "0.5", "--methods", "random", "--reps", "2",
      "--metrics-only", "--out", "{file}"], "file"),
])
def test_os_errors_on_a_given_path_exit_2_naming_it(tmp_path, capsys, command, bad):
    write_edge_list(path_graph(4), tmp_path / "g.txt")
    write_features_csv(np.arange(4.0).reshape(4, 1), tmp_path / "x.csv")
    write_labels_csv(np.array([0, 1, 0, 1]), tmp_path / "y.csv")
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("")
    paths = {k: str(tmp_path / f) for k, f in
             (("g", "g.txt"), ("x", "x.csv"), ("y", "y.csv"), ("dir", "dir"), ("file", "file"))}
    assert main([arg.format(**paths) for arg in command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("homsample: data error: ") and err.count("\n") == 1
    assert paths[bad] in err and "Traceback" not in err


@pytest.mark.parametrize("out", ["dir", "missing/report.json"])
def test_train_eval_out_that_cannot_be_written_exits_2_printing_nothing(tmp_path, capsys, out):
    write_edge_list(path_graph(4), tmp_path / "g.txt")
    write_features_csv(np.arange(4.0).reshape(4, 1), tmp_path / "x.csv")
    write_labels_csv(np.array([0, 1, 0, 1]), tmp_path / "y.csv")
    (tmp_path / "dir").mkdir()
    rc = main(["train-eval", "--graph", str(tmp_path / "g.txt"), "--features", str(tmp_path / "x.csv"),
               "--labels", str(tmp_path / "y.csv"), "--gamma", "0.5", "--epochs", "2",
               "--hidden", "2", "--out", str(tmp_path / out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""  # no accuracy line for a report that was not written
    assert "Traceback" not in captured.err and str(tmp_path / out) in captured.err


def test_usage_errors_exit_1(capsys):
    assert main(["sample", "--graph", "g", "--gamma", "1.5", "--out", "o"]) == 1
    assert main(["sample", "--graph", "g", "--gamma", "0", "--out", "o"]) == 1
    assert main(["sample", "--graph", "g", "--gamma", "abc", "--out", "o"]) == 1
    assert main(["sample", "--graph", "g", "--gamma", "0.5", "--method", "bogus", "--out", "o"]) == 1
    assert main(["nonsense"]) == 1
    assert main(["experiment", "--rates", "0.5", "--out", "o"]) == 1  # no dataset source


def test_sample_hand_example(tmp_path, capsys):
    g = path_graph(4)
    write_edge_list(g, tmp_path / "g.txt")
    write_features_csv(np.sqrt([[5.0], [1.0], [3.0], [2.0]]), tmp_path / "x.csv")
    out = tmp_path / "samp"
    rc = main([
        "sample", "--graph", str(tmp_path / "g.txt"), "--features", str(tmp_path / "x.csv"),
        "--gamma", "0.5", "--method", "homophily", "--use-raw-scores", "--out", str(out),
    ])
    assert rc == 0
    assert np.loadtxt(out / "kept.txt", dtype=np.int64).tolist() == [1, 3]


def test_sample_gamma_one_keeps_all(p3_dir):
    out = p3_dir / "full"
    rc = main([
        "sample", "--graph", str(p3_dir / "graph.txt"), "--features", str(p3_dir / "vary.csv"),
        "--gamma", "1.0", "--out", str(out),
    ])
    assert rc == 0
    assert np.loadtxt(out / "kept.txt", dtype=np.int64).tolist() == [0, 1, 2]


def test_sample_random_seeded_reproducible(tmp_path):
    g = hs.build_graph([(i, i + 1) for i in range(19)], n=20)
    write_edge_list(g, tmp_path / "g.txt")
    args = ["sample", "--graph", str(tmp_path / "g.txt"), "--gamma", "0.5",
            "--method", "random", "--seed", "11"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "kept.txt").read_bytes() == (tmp_path / "b" / "kept.txt").read_bytes()


def test_sample_degree_greedy_needs_no_features(tmp_path, capsys):
    g = hs.build_graph([(0, 1), (1, 2), (2, 3), (1, 3), (3, 4)], n=6)
    write_edge_list(g, tmp_path / "g.txt")
    write_features_csv(np.arange(12.0).reshape(6, 2), tmp_path / "x.csv")
    args = ["sample", "--graph", str(tmp_path / "g.txt"), "--gamma", "0.5"]
    greedy = args + ["--method", "degree_greedy"]
    assert main(greedy + ["--out", str(tmp_path / "plain")]) == 0
    assert main(greedy + ["--features", str(tmp_path / "x.csv"), "--out", str(tmp_path / "with_x")]) == 0
    kept = (tmp_path / "plain" / "kept.txt").read_bytes()
    assert kept == (tmp_path / "with_x" / "kept.txt").read_bytes()
    assert np.loadtxt(tmp_path / "plain" / "kept.txt", dtype=np.int64).tolist() == [1, 2, 3]
    assert not (tmp_path / "plain" / "features.csv").exists()
    capsys.readouterr()
    # the score sampler is the one that reads features
    assert main(args + ["--method", "homophily", "--out", str(tmp_path / "h")]) == 2
    assert "requires --features" in capsys.readouterr().err


def test_sample_into_a_used_directory_leaves_no_older_table(tmp_path):
    g = hs.build_graph([(i, i + 1) for i in range(9)], n=10)
    write_edge_list(g, tmp_path / "g.txt")
    write_features_csv(np.arange(20.0).reshape(10, 2), tmp_path / "x.csv")
    write_labels_csv(np.arange(10) % 2, tmp_path / "y.csv")
    out = tmp_path / "s"
    args = ["sample", "--graph", str(tmp_path / "g.txt"), "--out", str(out)]
    data = ["--features", str(tmp_path / "x.csv"), "--labels", str(tmp_path / "y.csv")]
    assert main(args + data + ["--method", "homophily", "--gamma", "0.5"]) == 0
    assert len(read_features_csv(out / "features.csv")) == 5
    (out / "notes.txt").write_text("kept by the user\n")
    assert main(args + ["--method", "random", "--gamma", "0.3"]) == 0
    assert len(np.loadtxt(out / "kept.txt", dtype=np.int64)) == 3
    assert sorted(p.name for p in out.iterdir()) == ["edges.txt", "id_map.txt", "kept.txt", "notes.txt"]
    assert main(args + ["--labels", str(tmp_path / "y.csv"), "--method", "random", "--gamma", "0.3"]) == 0
    assert (out / "labels.csv").exists() and not (out / "features.csv").exists()


def test_importing_the_cli_loads_no_process_pool():
    # the fork-based writers and the experiment pool import nothing at start-up
    code = (
        "import sys, homsample.cli; "
        "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
    )
    src = os.path.dirname(os.path.dirname(hs.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_metrics_command_writes_report(p3_dir, capsys):
    out = p3_dir / "report.json"
    rc = main(["metrics", "--graph", str(p3_dir / "graph.txt"), "--features", str(p3_dir / "vary.csv"),
               "--out", str(out)])
    assert rc == 0
    rep = read_report(out)
    assert rep.components == 1
    assert rep.laplacian_rank == 2
    assert rep.bound_satisfied
    assert '"method": "full"' in capsys.readouterr().out


def test_synth_command_round_trips(tmp_path):
    out = tmp_path / "ds"
    rc = main(["synth", "--spec", "blocks,n=80,intra=0.2,inter=0.02,fracs=0.3:0.7,d=4,tau=0.1,seed=2",
               "--out", str(out)])
    assert rc == 0
    g = read_edge_list(out / "graph.txt")
    assert g.n == 80
    assert (out / "features.csv").exists() and (out / "labels.csv").exists()


def test_train_eval_smoke(tmp_path, capsys):
    ds = hs.generate_dataset(hs.GraphonSpec(
        kind="blocks", n=100, feature_dim=4, noise=0.2, seed=6,
        block_probs=np.array([[0.3, 0.02], [0.02, 0.3]]),
        block_fracs=np.array([0.4, 0.6]),
    ))
    write_edge_list(ds.graph, tmp_path / "g.txt")
    write_features_csv(ds.features, tmp_path / "x.csv")
    write_labels_csv(ds.labels, tmp_path / "y.csv")
    rc = main([
        "train-eval", "--graph", str(tmp_path / "g.txt"), "--features", str(tmp_path / "x.csv"),
        "--labels", str(tmp_path / "y.csv"), "--gamma", "0.5", "--seed", "1",
        "--epochs", "50", "--hidden", "8",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    acc = float(out.split("=")[1])
    assert 0.0 <= acc <= 1.0


def test_train_eval_raw_scores_report(tmp_path, capsys):
    ds = hs.generate_dataset(hs.GraphonSpec(
        kind="blocks", n=80, feature_dim=3, noise=0.3, seed=8,
        block_probs=np.array([[0.25, 0.03], [0.03, 0.25]]),
    ))
    x = ds.features * np.array([50.0, 1.0, 0.02]) + np.array([3.0, 0.0, -1.0])
    write_edge_list(ds.graph, tmp_path / "g.txt")
    write_features_csv(x, tmp_path / "x.csv")
    write_labels_csv(ds.labels, tmp_path / "y.csv")
    out = tmp_path / "r.json"
    rc = main([
        "train-eval", "--graph", str(tmp_path / "g.txt"), "--features", str(tmp_path / "x.csv"),
        "--labels", str(tmp_path / "y.csv"), "--gamma", "0.4", "--seed", "7",
        "--use-raw-scores", "--epochs", "30", "--hidden", "8", "--out", str(out),
    ])
    assert rc == 0
    printed = float(capsys.readouterr().out.split("=")[1])
    rep = read_report(out)
    assert rep.accuracy == printed
    assert (rep.dataset, rep.method, rep.gamma, rep.seed) == ("g", "homophily", 0.4, 7)
    g = read_edge_list(tmp_path / "g.txt")
    x = read_features_csv(tmp_path / "x.csv")

    def metrics(raw):
        spec = hs.SampleSpec(gamma=0.4, seed=7, use_raw_scores=raw)
        res = hs.sample(g, spec, x=x, labels=ds.labels)
        return subgraph_metrics(res.subgraph.n, res.subgraph.edges, res.features)

    raw, standardized = metrics(True), metrics(False)
    assert raw != standardized  # the two score choices keep different nodes here
    for key, value in raw.items():
        assert getattr(rep, key) == value


def test_train_eval_divergence_exits_3(tmp_path, capsys):
    ds = hs.generate_dataset(hs.GraphonSpec(
        kind="blocks", n=40, feature_dim=4, noise=0.2, seed=6,
        block_probs=np.array([[0.4, 0.05], [0.05, 0.4]]),
    ))
    write_edge_list(ds.graph, tmp_path / "g.txt")
    write_features_csv(ds.features * 1e3, tmp_path / "x.csv")
    write_labels_csv(ds.labels, tmp_path / "y.csv")
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main([
            "train-eval", "--graph", str(tmp_path / "g.txt"), "--features", str(tmp_path / "x.csv"),
            "--labels", str(tmp_path / "y.csv"), "--gamma", "0.5", "--lr", "1e200",
            "--weight-decay", "0", "--epochs", "10", "--hidden", "4",
        ])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


def test_experiment_diverging_cells_are_recorded_not_fatal(tmp_path):
    out = tmp_path / "exp"
    args = [
        "experiment", "--synth", "blocks,n=60,intra=0.2,inter=0.02,fracs=0.3:0.7,d=4,tau=0.2,seed=3",
        "--rates", "0.25,0.5", "--methods", "homophily,random", "--reps", "2",
        "--lr", "1e200", "--weight-decay", "0", "--epochs", "10", "--hidden", "4",
    ]
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(args + ["--out", str(out)])
    assert rc == 0
    rows = list(csv.DictReader((out / "summary.csv").read_text().splitlines()))
    assert len(rows) == 4
    for row in rows:
        assert row["runs"] == "0"
        assert "diverged" in row["errors"]
    assert not list(out.glob("report__*.json"))  # a failed cell leaves no report
    # the same sweep without training has nothing to diverge: every report is written
    assert main(args + ["--metrics-only", "--out", str(tmp_path / "metrics")]) == 0
    assert len(list((tmp_path / "metrics").glob("report__*.json"))) == 2 * (1 + 2)


@pytest.mark.parametrize("command", ["experiment", "train-eval"])
@pytest.mark.parametrize("flag, value", [
    ("--lr", "nan"), ("--lr", "inf"), ("--lr", "-0.5"), ("--weight-decay", "nan"), ("--weight-decay", "-1e-4"),
])
def test_bad_training_settings_are_usage_errors(tmp_path, capsys, command, flag, value):
    out = tmp_path / "out"
    if command == "experiment":
        args = ["--synth", "blocks,n=30,intra=0.2,inter=0.05,d=2,tau=0.2,seed=5", "--rates", "0.5"]
    else:
        args = ["--graph", "g.txt", "--features", "x.csv", "--labels", "y.csv", "--gamma", "0.5"]
    assert main([command, *args, f"{flag}={value}", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and flag in err
    assert not out.exists()


def test_experiment_grid_file_count(tmp_path, capsys):
    out = tmp_path / "exp"
    rc = main([
        "experiment", "--synth", "blocks,n=60,intra=0.2,inter=0.02,fracs=0.3:0.7,d=4,tau=0.2,seed=3",
        "--rates", "0.25,0.5,0.75", "--methods", "homophily,random", "--reps", "50",
        "--metrics-only", "--out", str(out),
    ])
    assert rc == 0
    reports = sorted(out.glob("report__*.json"))
    assert len(reports) == 3 * (1 + 50)  # 153 per the grid arithmetic
    assert (out / "summary.csv").exists()
    # metrics-only cells must never carry train/eval phases; homophily cells carry
    # the sweep's one-off order time
    for tf in out.glob("timings__*.json"):
        phases = set(json.loads(tf.read_text()))
        assert phases == {"sample", "metrics"} | ({"homophily_order"} if "_homophily_" in tf.name else set())


def test_experiment_training_accuracy_column(tmp_path):
    out = tmp_path / "exp"
    rc = main([
        "experiment", "--synth", "blocks,n=80,intra=0.25,inter=0.02,fracs=0.4:0.6,d=4,tau=0.2,seed=4",
        "--rates", "0.5", "--methods", "homophily,random", "--reps", "2",
        "--epochs", "30", "--hidden", "8", "--out", str(out),
    ])
    assert rc == 0
    lines = (out / "summary.csv").read_text().splitlines()
    header = lines[0].split(",")
    acc_idx = header.index("accuracy_mean")
    for line in lines[1:]:
        acc = float(line.split(",")[acc_idx])
        assert 0.0 <= acc <= 1.0


def test_experiment_from_files_with_training(tmp_path):
    ds = hs.generate_dataset(hs.GraphonSpec(
        kind="blocks", n=70, feature_dim=4, noise=0.2, seed=8,
        block_probs=np.array([[0.3, 0.03], [0.03, 0.3]]),
        block_fracs=np.array([0.4, 0.6]),
    ))
    write_edge_list(ds.graph, tmp_path / "g.txt")
    write_features_csv(ds.features, tmp_path / "x.csv")
    write_labels_csv(ds.labels, tmp_path / "y.csv")
    out = tmp_path / "exp"
    rc = main([
        "experiment", "--graph", str(tmp_path / "g.txt"), "--features", str(tmp_path / "x.csv"),
        "--labels", str(tmp_path / "y.csv"), "--rates", "0.5", "--methods", "homophily",
        "--reps", "1", "--epochs", "20", "--hidden", "4", "--out", str(out),
    ])
    assert rc == 0
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[1].split(",")[0] == "g"  # dataset id from the graph file stem
    rep = read_report(next(iter(out.glob("report__*.json"))))
    assert rep.accuracy is not None


def test_experiment_summary_reads_back_with_csv_reader(tmp_path):
    write_edge_list(path_graph(6), tmp_path / "my,graph.txt")
    out = tmp_path / "exp"
    rc = main([
        "experiment", "--graph", str(tmp_path / "my,graph.txt"), "--rates", "0.5,1.0",
        "--methods", "random", "--reps", "2", "--metrics-only", "--out", str(out),
    ])
    assert rc == 0
    with open(out / "summary.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(SUMMARY_COLUMNS)
    assert [len(r) for r in rows] == [len(SUMMARY_COLUMNS)] * 3
    assert [dict(zip(rows[0], r))["dataset"] for r in rows[1:]] == ["my,graph"] * 2


@pytest.mark.parametrize("methods, named", [
    ("homophily,bogus", "'bogus'"),
    ("homophily, random", "' random'"),
    ("", "''"),
    ("random,degree_greedy,random", "duplicate sampling method 'random'"),
])
def test_bad_methods_are_usage_errors_before_any_read(tmp_path, capsys, methods, named):
    write_edge_list(path_graph(4), tmp_path / "g.txt")
    write_features_csv(np.arange(4.0).reshape(4, 1), tmp_path / "x.csv")
    out = tmp_path / "out"
    rc = main([
        "experiment", "--graph", str(tmp_path / "g.txt"), "--features", str(tmp_path / "x.csv"),
        "--rates", "0.5", "--methods", methods, "--metrics-only", "--out", str(out),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "--methods" in err and named in err
    assert not out.exists()
    assert not (tmp_path / "__homsample_cache__").exists()  # no input was read


def test_bench_dims_sweep(tmp_path):
    out = tmp_path / "bench.csv"
    rc = main(["bench", "--sizes", "400", "--dims", "4,8", "--d", "4",
               "--repeats", "1", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 1 + 2  # header, one size row, two dim rows
    col = lines[0].split(",").index("d")
    dims = [int(l.split(",")[col]) for l in lines[2:]]
    assert dims == [4, 8]


@pytest.mark.parametrize("args", [
    ["--sizes", "", "--dims", "4"],
    ["--sizes", ",", "--dims", "4"],
    ["--sizes", "0,-5"],
    ["--sizes", "400", "--dims", "0"],
])
def test_bench_bad_integer_lists_are_usage_errors(args, capsys):
    rc = main(["bench", "--d", "4", "--repeats", "1", *args])
    assert rc == 1
    assert "usage error" in capsys.readouterr().err


def test_experiment_rerun_identical_bytes(tmp_path):
    args = [
        "experiment", "--synth", "blocks,n=50,intra=0.2,inter=0.05,d=4,tau=0.2,seed=5",
        "--rates", "0.5,0.75", "--methods", "homophily,random", "--reps", "3",
        "--metrics-only",
    ]
    assert main(args + ["--out", str(tmp_path / "one")]) == 0
    assert main(args + ["--out", str(tmp_path / "two")]) == 0
    one = sorted((tmp_path / "one").glob("report__*.json")) + [tmp_path / "one" / "summary.csv"]
    two = sorted((tmp_path / "two").glob("report__*.json")) + [tmp_path / "two" / "summary.csv"]
    assert [p.name for p in one] == [p.name for p in two]
    for a, b in zip(one, two):
        assert a.read_bytes() == b.read_bytes()


def canonical_outputs(outdir):
    """Report and summary bytes of an experiment directory, by file name."""
    paths = sorted(outdir.glob("report__*.json")) + [outdir / "summary.csv"]
    return {p.name: p.read_bytes() for p in paths}


def test_experiment_workers_match_serial(tmp_path):
    args = [
        "experiment", "--synth", "blocks,n=50,intra=0.2,inter=0.05,d=4,tau=0.2,seed=5",
        "--rates", "0.5", "--methods", "random", "--reps", "6", "--metrics-only",
    ]
    assert main(args + ["--out", str(tmp_path / "serial")]) == 0
    assert main(args + ["--workers", "4", "--out", str(tmp_path / "par")]) == 0
    serial = canonical_outputs(tmp_path / "serial")
    assert len(serial) == 6 + 1
    assert canonical_outputs(tmp_path / "par") == serial
    # training cells of every method, serial against two workers
    train = [
        "experiment", "--synth", "blocks,n=120,intra=0.2,inter=0.03,d=4,tau=0.2,seed=6",
        "--rates", "0.5,0.8", "--methods", "homophily,random,degree_greedy", "--reps", "2",
        "--epochs", "15", "--hidden", "8",
    ]
    assert main(train + ["--workers", "1", "--out", str(tmp_path / "train1")]) == 0
    assert main(train + ["--workers", "2", "--out", str(tmp_path / "train2")]) == 0
    serial = canonical_outputs(tmp_path / "train1")
    assert len(serial) == 2 * (1 + 2 + 1) + 1
    assert b'"accuracy": null' not in b"".join(serial.values())
    assert canonical_outputs(tmp_path / "train2") == serial


def test_experiment_dead_worker_exits_3_naming_a_cell(tmp_path, monkeypatch, capsys):
    def die(*args, **kwargs):
        os._exit(9)

    def hung(signum, frame):
        raise TimeoutError("experiment did not return after a worker died")

    monkeypatch.setattr(experiments, "run_cell", die)  # forked workers inherit the patch
    out = tmp_path / "out"
    args = [
        "experiment", "--synth", "blocks,n=50,intra=0.2,inter=0.05,d=4,tau=0.2,seed=5",
        "--rates", "0.5", "--methods", "random", "--reps", "4", "--metrics-only",
        "--workers", "2", "--out", str(out),
    ]
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        t0 = time.monotonic()
        assert main(args) == 3
        assert time.monotonic() - t0 < 10
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert re.search(r"worker .* cell r00_random_rep00[0-3] ", err)
    assert not (out / "summary.csv").exists()
    assert multiprocessing.active_children() == []
    monkeypatch.undo()
    full = tmp_path / "full"
    assert main(args[:-1] + [str(full)]) == 0
    # every report the dead sweep left holds an uninterrupted run's bytes
    assert all(p.read_bytes() == (full / p.name).read_bytes() for p in out.glob("report__*.json"))


SWEEP_ARGS = [
    "experiment", "--synth", "blocks,n=50,intra=0.2,inter=0.05,d=4,tau=0.2,seed=5",
    "--rates", "0.5,0.75", "--methods", "homophily,random", "--reps", "3", "--metrics-only",
]
# the first cells of SWEEP_ARGS, in cell order
SWEEP_FIRST_TAGS = ["r00_homophily_rep000", "r00_random_rep000", "r00_random_rep001",
                    "r00_random_rep002"]


def assert_first_three_cells_kept(out, full):
    """``out`` holds exactly the first three cells' files, their reports as in ``full``."""
    tags = SWEEP_FIRST_TAGS[:3]
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [f"report__{t}.json" for t in tags] + [f"timings__{t}.json" for t in tags]
    )
    for t in tags:
        assert (out / f"report__{t}.json").read_bytes() == (full / f"report__{t}.json").read_bytes()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_experiment_out_existing_file_exits_2_before_any_cell_runs(tmp_path, monkeypatch, workers):
    markers = tmp_path / "markers"
    markers.mkdir()
    real_run_cell = experiments.run_cell

    def marked(*args, **kwargs):
        # one file per call, so calls in forked workers count too
        os.close(tempfile.mkstemp(dir=markers)[0])
        return real_run_cell(*args, **kwargs)

    monkeypatch.setattr(experiments, "run_cell", marked)
    (tmp_path / "file").write_text("")
    assert main(SWEEP_ARGS + ["--workers", workers, "--out", str(tmp_path / "file")]) == 2
    assert list(markers.iterdir()) == []


def test_interrupted_serial_sweep_keeps_the_cells_before_it(tmp_path, monkeypatch):
    full = tmp_path / "full"
    assert main(SWEEP_ARGS + ["--out", str(full)]) == 0
    real_run_cell = experiments.run_cell
    calls = []

    def interrupted(*args, **kwargs):
        calls.append(None)
        if len(calls) == 4:
            raise KeyboardInterrupt
        return real_run_cell(*args, **kwargs)

    monkeypatch.setattr(experiments, "run_cell", interrupted)
    out = tmp_path / "out"
    with pytest.raises(KeyboardInterrupt):
        main(SWEEP_ARGS + ["--out", str(out)])
    assert_first_three_cells_kept(out, full)


def test_dead_worker_keeps_the_cells_before_it(tmp_path, monkeypatch, capsys):
    full = tmp_path / "full"
    assert main(SWEEP_ARGS + ["--out", str(full)]) == 0
    last = read_report(full / f"report__{SWEEP_FIRST_TAGS[3]}.json").seed
    real_run_cell = experiments.run_cell

    def die_at_the_fourth_cell(spec, *args, **kwargs):
        if spec.seed == last:
            time.sleep(1.0)  # the cells before it finish first
            os._exit(9)
        return real_run_cell(spec, *args, **kwargs)

    monkeypatch.setattr(experiments, "run_cell", die_at_the_fourth_cell)
    out = tmp_path / "out"
    assert main(SWEEP_ARGS + ["--workers", "2", "--out", str(out)]) == 3
    assert f"cell {SWEEP_FIRST_TAGS[3]} did not finish" in capsys.readouterr().err
    assert_first_three_cells_kept(out, full)
    assert multiprocessing.active_children() == []


def test_failed_write_mid_sweep_exits_2_leaving_no_worker(tmp_path, monkeypatch, capsys):
    real_write_report = experiments.write_report
    writes = []

    def fail_second(report, path):
        writes.append(path)
        if len(writes) == 2:
            raise OSError(f"cannot write {path}")
        real_write_report(report, path)

    monkeypatch.setattr(experiments, "write_report", fail_second)
    out = tmp_path / "out"
    assert main(SWEEP_ARGS + ["--workers", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("homsample: data error: cannot write ") and "Traceback" not in err
    assert multiprocessing.active_children() == []
    assert not (out / "summary.csv").exists()
    # the pool is joined while the error's traceback still holds the sweep's frame
    writes.clear()
    plan = experiments.ExperimentPlan(rates=(0.5,), methods=("random",), reps=4,
                                      metrics_only=True, workers=2)
    with pytest.raises(OSError, match="cannot write") as info:
        experiments.run_experiment(plan, path_graph(30), outdir=tmp_path / "lib")
    assert info.tb is not None and multiprocessing.active_children() == []


def _multi_rate_sweep_matches_single_rate_sweeps(tmp_path, method):
    """Sidecars of a multi-rate ``method`` sweep whose reports match one-rate sweeps'."""
    synth = "blocks,n=150,intra=0.1,inter=0.02,d=4,tau=0.2,seed=7"
    rates = ["0.6", "0.1", "1", "0.35", "0.9"]  # the largest budget is not first
    base = ["experiment", "--synth", synth, "--methods", method, "--metrics-only"]
    assert main(base + ["--rates", ",".join(rates), "--out", str(tmp_path / "all")]) == 0
    for i, rate in enumerate(rates):
        one = tmp_path / f"one{i}"
        assert main(base + ["--rates", rate, "--out", str(one)]) == 0
        single = read_report(one / f"report__r00_{method}_rep000.json")
        multi = read_report(tmp_path / "all" / f"report__r{i:02d}_{method}_rep000.json")
        # the seed is derived from the cell's place in the plan; neither method reads it
        assert report_to_text(replace(single, seed=multi.seed)) == report_to_text(multi)
    sidecars = [json.loads(p.read_text()) for p in sorted((tmp_path / "all").glob("timings__*.json"))]
    assert len(sidecars) == len(rates)
    return sidecars


def test_multi_rate_greedy_sweep_matches_single_rate_sweeps(tmp_path):
    sidecars = _multi_rate_sweep_matches_single_rate_sweeps(tmp_path, "degree_greedy")
    # each cell's sidecar carries the shared order's one-off time, outside its sample phase
    assert all(set(t) == {"sample", "metrics", "degree_greedy_order"} for t in sidecars)
    assert len({t["degree_greedy_order"] for t in sidecars}) == 1


def test_multi_rate_homophily_sweep_matches_single_rate_sweeps(tmp_path):
    sidecars = _multi_rate_sweep_matches_single_rate_sweeps(tmp_path, "homophily")
    assert all(set(t) == {"sample", "metrics", "homophily_order"} for t in sidecars)
    assert len({t["homophily_order"] for t in sidecars}) == 1


@pytest.mark.parametrize("command", [
    ["sample", "--gamma", "0.5", "--method", "random", "--seed", "-1"],
    ["sample", "--gamma", "0.5", "--method", "homophily", "--seed", "-1"],
    ["sample", "--gamma", "0.5", "--method", "degree_greedy", "--seed", "-1"],
    ["train-eval", "--gamma", "0.5", "--method", "random", "--epochs", "2", "--seed", "-3"],
    ["experiment", "--rates", "0.5", "--methods", "random", "--reps", "2", "--metrics-only", "--seed", "-1"],
])
def test_negative_seed_is_a_usage_error_before_any_read(tmp_path, capsys, command):
    write_edge_list(path_graph(4), tmp_path / "g.txt")
    write_features_csv(np.arange(4.0).reshape(4, 1), tmp_path / "x.csv")
    write_labels_csv(np.array([0, 1, 0, 1]), tmp_path / "y.csv")
    out = tmp_path / "out"
    rc = main([
        *command, "--graph", str(tmp_path / "g.txt"), "--features", str(tmp_path / "x.csv"),
        "--labels", str(tmp_path / "y.csv"), "--out", str(out),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("homsample: usage error: argument --seed: must be >= 0, got -")
    assert not out.exists()
    assert not (tmp_path / "__homsample_cache__").exists()  # no input was read


def test_bench_trivial_run(capsys):
    rc = main(["bench", "--sizes", "100,200", "--d", "4", "--repeats", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 2
    for line in lines:
        assert "total=" in line
        assert float(line.rsplit("total=", 1)[1].rstrip("s")) > 0.0


@pytest.mark.parametrize("args", [
    ["--rates", "abc"],
    ["--rates", "0"],
    ["--rates", "1.5"],
    ["--rates", ","],
    ["--rates", "0.5", "--workers", "0"],
    ["--rates", "0.5", "--reps", "0"],
    ["--rates", "0.5", "--graph", "g.txt"],  # --synth discards no file
    ["--rates", "0.5", "--features", "x.csv"],
    ["--rates", "0.5", "--labels", "y.csv"],
])
def test_experiment_usage_errors_exit_1(tmp_path, capsys, args):
    out = tmp_path / "exp"
    rc = main([
        "experiment", "--synth", "blocks,n=30,intra=0.2,inter=0.05,d=2,tau=0.2,seed=5",
        "--methods", "random", "--metrics-only", *args, "--out", str(out),
    ])
    assert rc == 1
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["sample", "--method", "random", "--gamma", "1.0"],
    ["experiment", "--rates", "0.5", "--methods", "random", "--reps", "2", "--metrics-only"],
])
def test_non_finite_features_exit_2_before_any_output(tmp_path, capsys, command):
    write_edge_list(path_graph(4), tmp_path / "g.txt")
    (tmp_path / "x.csv").write_text("1.0\nnan\n3.0\ninf\n")
    out = tmp_path / "out"
    rc = main([
        *command, "--graph", str(tmp_path / "g.txt"), "--features", str(tmp_path / "x.csv"),
        "--out", str(out),
    ])
    assert rc == 2
    assert f"{tmp_path / 'x.csv'}: non-finite value in row 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["experiment", "--rates", "0.5", "--methods", "random", "--reps", "2", "--epochs", "5"],
    ["train-eval", "--method", "random", "--gamma", "0.5", "--epochs", "5"],
])
def test_negative_label_exits_2_before_any_output(tmp_path, capsys, command):
    write_edge_list(path_graph(4), tmp_path / "g.txt")
    write_features_csv(np.arange(4.0).reshape(4, 1), tmp_path / "x.csv")
    (tmp_path / "y.csv").write_text("0\n-1\n1\n0\n")
    out = tmp_path / "out"
    rc = main([
        *command, "--graph", str(tmp_path / "g.txt"), "--features", str(tmp_path / "x.csv"),
        "--labels", str(tmp_path / "y.csv"), "--out", str(out),
    ])
    assert rc == 2
    assert f"{tmp_path / 'y.csv'}: negative label in row 2" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "__homsample_cache__").exists()  # nor any cache entry


@pytest.mark.parametrize("name, text, message", [
    ("g.txt", "0 1\n99999999999999999999 1\n",
     "g.txt:2: node id out of int64 range in '99999999999999999999 1'"),
    ("g.txt", "n=99999999999999999999\n0 1\n",
     "g.txt: node count 99999999999999999999 is above the supported maximum 3037000499"),
    ("y.csv", "0\n1\n99999999999999999999\n0\n",
     "y.csv:3: label '99999999999999999999' out of int64 range"),
])
def test_integers_beyond_int64_exit_2_naming_the_input(tmp_path, capsys, name, text, message):
    write_edge_list(path_graph(4), tmp_path / "g.txt")
    write_features_csv(np.arange(4.0).reshape(4, 1), tmp_path / "x.csv")
    write_labels_csv(np.array([0, 1, 0, 1]), tmp_path / "y.csv")
    (tmp_path / name).write_text(text)
    rc = main([
        "train-eval", "--graph", str(tmp_path / "g.txt"), "--features", str(tmp_path / "x.csv"),
        "--labels", str(tmp_path / "y.csv"), "--method", "random", "--gamma", "0.5",
        "--epochs", "2",
    ])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"homsample: data error: {tmp_path / message}")


@pytest.mark.parametrize("args, flag", [
    (["--features", "x.csv", "--methods", "random"], "--labels"),  # training needs labels
    (["--labels", "y.csv", "--methods", "random"], "--features"),  # ... and features
    (["--metrics-only", "--methods", "homophily"], "--features"),  # the score sampler reads them
])
def test_experiment_missing_input_exits_2_before_any_output(tmp_path, capsys, args, flag):
    write_edge_list(path_graph(4), tmp_path / "g.txt")
    write_features_csv(np.arange(4.0).reshape(4, 1), tmp_path / "x.csv")
    write_labels_csv(np.array([0, 1, 0, 1]), tmp_path / "y.csv")
    out = tmp_path / "out"
    rc = main([
        "experiment", "--graph", str(tmp_path / "g.txt"), "--rates", "0.5", "--reps", "2",
        "--epochs", "2", *[str(tmp_path / a) if a.endswith(".csv") else a for a in args],
        "--out", str(out),
    ])
    assert rc == 2
    assert f"requires {flag}" in capsys.readouterr().err
    assert not out.exists()
