import csv
import json
from dataclasses import replace

import numpy as np
import pytest

import homsample as hs
from homsample.cli import main
from homsample.experiments import subgraph_metrics
from homsample.io_formats import (
    read_edge_list,
    read_features_csv,
    read_kept,
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
    assert read_kept(out / "kept.txt").tolist() == [1, 3]


def test_sample_gamma_one_keeps_all(p3_dir):
    out = p3_dir / "full"
    rc = main([
        "sample", "--graph", str(p3_dir / "graph.txt"), "--features", str(p3_dir / "vary.csv"),
        "--gamma", "1.0", "--out", str(out),
    ])
    assert rc == 0
    assert read_kept(out / "kept.txt").tolist() == [0, 1, 2]


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
    assert read_kept(tmp_path / "plain" / "kept.txt").tolist() == [1, 2, 3]
    assert not (tmp_path / "plain" / "features.csv").exists()
    capsys.readouterr()
    # the score sampler is the one that reads features
    assert main(args + ["--method", "homophily", "--out", str(tmp_path / "h")]) == 2
    assert "requires --features" in capsys.readouterr().err


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
        return subgraph_metrics(res.subgraph, res.features)

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
    # metrics-only cells must never carry train/eval phases
    for tf in out.glob("timings__*.json"):
        phases = set(json.loads(tf.read_text()))
        assert phases == {"sample", "metrics"}


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


def test_multi_rate_greedy_sweep_matches_single_rate_sweeps(tmp_path):
    synth = "blocks,n=150,intra=0.1,inter=0.02,d=4,tau=0.2,seed=7"
    rates = ["0.6", "0.1", "1", "0.35", "0.9"]  # the largest budget is not first
    base = ["experiment", "--synth", synth, "--methods", "degree_greedy", "--metrics-only"]
    assert main(base + ["--rates", ",".join(rates), "--out", str(tmp_path / "all")]) == 0
    for i, rate in enumerate(rates):
        one = tmp_path / f"one{i}"
        assert main(base + ["--rates", rate, "--out", str(one)]) == 0
        single = read_report(one / "report__r00_degree_greedy_rep000.json")
        multi = read_report(tmp_path / "all" / f"report__r{i:02d}_degree_greedy_rep000.json")
        # the seed is derived from the cell's place in the plan; greedy reads none
        assert report_to_text(replace(single, seed=multi.seed)) == report_to_text(multi)
    # each cell's sidecar carries the shared order's one-off time, outside its sample phase
    sidecars = [json.loads(p.read_text()) for p in sorted((tmp_path / "all").glob("timings__*.json"))]
    assert len(sidecars) == len(rates)
    assert all(set(t) == {"sample", "metrics", "greedy_order"} for t in sidecars)
    assert len({t["greedy_order"] for t in sidecars}) == 1


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
