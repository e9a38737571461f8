import multiprocessing
import time

import numpy as np
import pytest

import homsample as hs
from homsample import experiments
from homsample.experiments import (
    ExperimentPlan,
    expand_cells,
    loglog_slope,
    run_bench,
    run_bench_dims,
    run_experiment,
    subgraph_metrics,
    summarize,
)
from homsample.gnn import GnnConfig
from homsample.graphon import two_block_spec
from homsample.sampling import SampleSpec

from util import random_graph


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
    res = hs.sample_homophily(g, x, SampleSpec(gamma=0.5))
    m = subgraph_metrics(res.subgraph, res.features)
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
    times = [r.t_compute for r in rows]
    for a, b in zip(times, times[1:]):
        assert 1.2 <= b / a <= 3.5
    d_rows = run_bench_dims([16, 32, 64, 128], m_target=40_000, repeats=5)
    d_times = [r.t_compute for r in d_rows]
    for a, b in zip(d_times, d_times[1:]):
        assert 1.2 <= b / a <= 3.5


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
