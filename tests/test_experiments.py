import csv
import json
import multiprocessing
import os
import tempfile
import time
from dataclasses import replace

import numpy as np
import pytest

import homsample as hs
from homsample import _kernels, experiments, sampling
from homsample.experiments import (
    SUMMARY_COLUMNS,
    ExperimentPlan,
    expand_cells,
    run_bench,
    run_bench_dims,
    run_experiment,
    subgraph_metrics,
    summarize,
    write_summary_csv,
)
from homsample.gnn import GnnConfig
from homsample.graphon import two_block_spec
from homsample.sampling import SampleSpec, deletion_order, sample_ids

from util import bench_table, loglog_slope, random_graph


def test_expand_cells_grid_arithmetic():
    plan = ExperimentPlan(rates=(0.25, 0.5, 0.75), methods=("homophily", "random"), reps=50)
    cells = expand_cells(plan)
    assert len(cells) == 3 * (1 + 50)
    assert len({c.spec.seed for c in cells}) == len(cells)  # distinct derived seeds
    again = expand_cells(plan)
    assert [c.spec.seed for c in again] == [c.spec.seed for c in cells]


def test_plan_validation():
    with pytest.raises(ValueError):
        ExperimentPlan(rates=())
    with pytest.raises(ValueError):
        ExperimentPlan(rates=(0.0,))
    with pytest.raises(ValueError):
        ExperimentPlan(rates=(0.5,), reps=0)
    with pytest.raises(ValueError):
        ExperimentPlan(rates=(0.5,), methods=("mystery",))
    with pytest.raises(ValueError):
        ExperimentPlan(rates=(0.5,), methods=("homophily", "homophily"))
    with pytest.raises(ValueError, match="workers"):
        ExperimentPlan(rates=(0.5,), workers=0)


def test_subgraph_metrics_fields():
    rng = np.random.default_rng(0)
    g = random_graph(rng, 30, 0.2)
    x = rng.standard_normal((30, 4))
    res = hs.sample(g, SampleSpec(gamma=0.5), x=x)
    m = subgraph_metrics(res.subgraph.n, res.subgraph.edges, res.features)
    assert m["laplacian_trace"] == 2.0 * res.subgraph.m
    assert m["adjusted_trace"] == pytest.approx(2.0 * res.subgraph.m / res.subgraph.n)
    assert m["laplacian_rank"] + m["components"] == res.subgraph.n
    assert m["bound_satisfied"]


def test_failed_cells_recorded_and_run_continues():
    rng = np.random.default_rng(1)
    g = random_graph(rng, 20, 0.3)
    plan = ExperimentPlan(
        rates=(0.5,), methods=("homophily", "random"), reps=2, metrics_only=True
    )
    rows = run_experiment(plan, g, x=None, labels=None)  # homophily needs features
    hom = next(r for r in rows if r["method"] == "homophily")
    rnd = next(r for r in rows if r["method"] == "random")
    assert hom["runs"] == 0
    assert "features" in hom["errors"]
    assert rnd["runs"] == 2 and rnd["errors"] == ""


def test_summarize_orders_rows_by_plan():
    plan = ExperimentPlan(rates=(0.25, 0.75), methods=("random",), reps=2, metrics_only=True)
    rng = np.random.default_rng(2)
    g = random_graph(rng, 25, 0.3)
    rows = run_experiment(plan, g, x=rng.standard_normal((25, 3)))
    assert [(r["gamma"], r["method"]) for r in rows] == [(0.25, "random"), (0.75, "random")]
    assert all(r["runs"] == 2 for r in rows)


def test_summary_csv_quotes_only_cells_that_need_it(tmp_path):
    plain = {"dataset": "g", "gamma": 0.5, "method": "random", "runs": 2, "adjusted_trace_mean": 1.25,
             "adjusted_trace_se": 0.0, "h_g_mean": -0.125, "components_mean": 3.0, "errors": ""}
    odd = dict(plain, dataset="my,graph", runs=1, errors='rep001: bad cell "x", line 2')
    write_summary_csv([plain, odd], tmp_path / "summary.csv")
    text = (tmp_path / "summary.csv").read_text()
    # plain values need no quotes: the bytes are the bare comma-joined cells
    assert text.splitlines()[:2] == [",".join(SUMMARY_COLUMNS), "g,0.5,random,2,1.25,0,-0.125,3,,,"]
    rows = list(csv.reader(text.splitlines()))
    assert [len(r) for r in rows] == [len(SUMMARY_COLUMNS)] * 3
    back = dict(zip(rows[0], rows[2]))
    assert back["dataset"] == "my,graph" and back["errors"] == odd["errors"]


def test_train_eval_cells_populate_accuracy():
    ds = hs.generate_dataset(two_block_spec(n=80, intra=0.25, inter=0.02, feature_dim=4,
                                            noise=0.2, seed=9))
    plan = ExperimentPlan(
        rates=(0.5,), methods=("homophily",), reps=1,
        gnn=GnnConfig(epochs=20, hidden=8), metrics_only=False,
    )
    rows = run_experiment(plan, ds.graph, x=ds.features, labels=ds.labels)
    assert 0.0 <= rows[0]["accuracy_mean"] <= 1.0


def test_training_plan_needs_features_and_labels():
    ds = hs.generate_dataset(two_block_spec(n=40, intra=0.25, inter=0.02, feature_dim=4,
                                            noise=0.2, seed=9))
    plan = ExperimentPlan(rates=(0.5,), methods=("random",), reps=1,
                          gnn=GnnConfig(epochs=2, hidden=4))
    for x, labels in ((ds.features, None), (None, ds.labels), (None, None)):
        with pytest.raises(ValueError, match="features and labels"):
            run_experiment(plan, ds.graph, x=x, labels=labels)


def test_bench_doubling_ratios_within_band():
    rows = run_bench([10_000, 20_000, 40_000, 80_000], d=16, repeats=5)
    d_rows = run_bench_dims([16, 32, 64, 128], m_target=40_000, repeats=5)
    ratios = [b.t_compute / a.t_compute for rs in (rows, d_rows) for a, b in zip(rs, rs[1:])]
    detail = f"doubling ratios {[round(q, 3) for q in ratios]} over\n{bench_table(rows + d_rows)}"
    assert all(1.2 <= q <= 3.5 for q in ratios), detail


def test_bench_rows_report_real_sizes():
    rows = run_bench([500], d=4, repeats=1)
    r = rows[0]
    assert r.m > 0 and r.n > 0
    assert r.t_scores > 0 and r.t_homophily > 0 and r.t_select > 0
    assert r.t_total == pytest.approx(r.t_scores + r.t_homophily + r.t_select)


def test_loglog_slope_recovers_power_law():
    xs = np.array([1e3, 2e3, 4e3, 8e3])
    assert loglog_slope(xs, 5e-6 * xs**1.17) == pytest.approx(1.17, abs=1e-9)


def test_metrics_only_plan_never_trains():
    ds = hs.generate_dataset(two_block_spec(n=60, intra=0.2, inter=0.02, feature_dim=4,
                                            noise=0.2, seed=3))
    plan = ExperimentPlan(rates=(0.5,), methods=("homophily",), reps=1, metrics_only=True)
    rows = run_experiment(plan, ds.graph, x=ds.features, labels=ds.labels)
    assert rows[0].get("accuracy_mean") is None


def test_gamma_one_cell_evaluates_on_all_nodes():
    ds = hs.generate_dataset(two_block_spec(n=60, intra=0.25, inter=0.02, feature_dim=4,
                                            noise=0.2, seed=4))
    plan = ExperimentPlan(rates=(1.0,), methods=("random",), reps=1,
                          gnn=GnnConfig(epochs=10, hidden=4))
    rows = run_experiment(plan, ds.graph, x=ds.features, labels=ds.labels)
    assert rows[0]["runs"] == 1
    assert 0.0 <= rows[0]["accuracy_mean"] <= 1.0


def test_blas_runs_on_one_thread_only_while_workers_run(monkeypatch, tmp_path):
    funcs = experiments._openblas_thread_funcs()
    if funcs is None:
        pytest.skip("numpy has no OpenBLAS in its wheel libraries")
    set_threads, get_threads = funcs
    rng = np.random.default_rng(2)
    g = random_graph(rng, 40, 0.15)
    real_run_cell = experiments.run_cell

    def spy(spec, *args, **kwargs):
        # cells run in forked workers: record the count where the cell runs
        (tmp_path / f"threads_{spec.seed}").write_text(str(get_threads()))
        return real_run_cell(spec, *args, **kwargs)

    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    before = get_threads()
    set_threads(2)
    try:
        monkeypatch.setattr(experiments, "run_cell", spy)
        for workers, inside in ((1, 2), (2, 1), (3, 1)):
            for f in tmp_path.glob("threads_*"):
                f.unlink()
            plan = ExperimentPlan(rates=(0.5, 0.8), methods=("random", "degree_greedy"), reps=2,
                                  metrics_only=True, workers=workers)
            run_experiment(plan, g)
            seen = [int(f.read_text()) for f in tmp_path.glob("threads_*")]
            assert seen == [inside] * 6
            assert get_threads() == 2
            assert multiprocessing.active_children() == []
        # the count comes back also when a cell raises out of the pool
        monkeypatch.setattr(experiments, "run_cell", boom)
        with pytest.raises(RuntimeError, match="boom"):
            run_experiment(ExperimentPlan(rates=(0.5,), methods=("random",), reps=2,
                                          metrics_only=True, workers=2), g)
        assert get_threads() == 2
        assert multiprocessing.active_children() == []
    finally:
        set_threads(before)


def test_cell_raising_out_of_the_pool_drops_cells_not_started(monkeypatch, tmp_path):
    g = random_graph(np.random.default_rng(3), 30, 0.2)
    plan = ExperimentPlan(rates=(0.5,), methods=("random",), reps=16, metrics_only=True, workers=2)
    first = expand_cells(plan)[0].spec.seed

    def slow_or_boom(spec, *args, **kwargs):
        (tmp_path / f"started_{spec.seed}").touch()
        if spec.seed == first:
            raise RuntimeError("boom")
        time.sleep(0.2)

    monkeypatch.setattr(experiments, "run_cell", slow_or_boom)
    with pytest.raises(RuntimeError, match="boom"):
        run_experiment(plan, g)
    assert len(list(tmp_path.glob("started_*"))) < 16
    assert multiprocessing.active_children() == []


def _canonical(outdir):
    paths = sorted(outdir.glob("report__*.json")) + [outdir / "summary.csv"]
    return {p.name: p.read_bytes() for p in paths}


def test_given_greedy_order_gives_the_same_outputs(tmp_path):
    ds = hs.generate_dataset(two_block_spec(n=150, intra=0.1, inter=0.02, feature_dim=4,
                                            noise=0.2, seed=5))
    g, x = ds.graph, ds.features
    plan = ExperimentPlan(rates=(0.6, 0.1, 0.9), methods=("homophily", "random", "degree_greedy"),
                          reps=2, metrics_only=True)
    rows = run_experiment(plan, g, x=x, outdir=tmp_path / "none")
    ref = _canonical(tmp_path / "none")
    assert len(ref) == 3 * 4 + 1
    for name, order in (("exact", deletion_order(g, "degree_greedy", plan.rates)),
                        ("longer", deletion_order(g, "degree_greedy", (0.0,)))):
        assert run_experiment(plan, g, x=x, outdir=tmp_path / name,
                              orders={"degree_greedy": lambda: order}) == rows
        assert _canonical(tmp_path / name) == ref


def test_short_greedy_order_raises_what_sample_ids_raises(tmp_path):
    g = random_graph(np.random.default_rng(5), 40, 0.1)
    plan = ExperimentPlan(rates=(0.5, 0.25), methods=("degree_greedy",), metrics_only=True)
    short = deletion_order(g, "degree_greedy", (0.5,))
    with pytest.raises(ValueError) as own:
        sample_ids(g, SampleSpec(gamma=0.25, method="degree_greedy"), order=short)
    with pytest.raises(ValueError) as sweep:
        run_experiment(plan, g, outdir=tmp_path / "out", orders={"degree_greedy": lambda: short})
    assert str(sweep.value) == str(own.value) == "deletion order holds 20 deletions, need 30"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("workers", [1, 2])
def test_a_sweep_gets_each_deletion_order_once(monkeypatch, tmp_path, workers):
    ds = hs.generate_dataset(two_block_spec(n=150, intra=0.1, inter=0.02, feature_dim=4,
                                            noise=0.2, seed=5))
    plan = ExperimentPlan(rates=(0.6, 0.1, 0.9), methods=("homophily", "random", "degree_greedy"),
                          reps=2, metrics_only=True)
    calls = tmp_path / "calls"
    calls.mkdir()

    def counted(name, f):
        def wrapper(*args, **kwargs):
            # one file per call, so calls in forked workers count too
            os.close(tempfile.mkstemp(prefix=name, dir=calls)[0])
            return f(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(sampling, "normalize_features", counted("scores", sampling.normalize_features))
    kernel = _kernels.greedy_min_degree_order
    monkeypatch.setattr(_kernels, "greedy_min_degree_order", counted("greedy", kernel))
    run_experiment(replace(plan, workers=workers), ds.graph, x=ds.features, outdir=tmp_path / "out")
    assert sorted(f.name[:6] for f in calls.iterdir()) == ["greedy", "scores"]
    sidecars = {f.name: json.loads(f.read_text()) for f in (tmp_path / "out").glob("timings__*")}
    assert len(sidecars) == 3 * (1 + 2 + 1)
    for method in ("homophily", "degree_greedy"):
        times = {t[f"{method}_order"] for name, t in sidecars.items() if f"_{method}_" in name}
        assert len(times) == 1
    assert not any("_order" in key for name, t in sidecars.items() if "_random_" in name for key in t)
