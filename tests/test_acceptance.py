"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and the
measured margins.
"""

import time

import numpy as np

import homsample as hs
from homsample.cli import main
from homsample.experiments import loglog_slope, run_bench, run_bench_dims
from homsample.gnn import (
    GnnConfig,
    GnnModel,
    _shift_stack,
    _stack,
    init_weights,
    loss_and_grads,
    shift_matrix,
)
from homsample.graphon import GraphonSpec, two_block_spec
from homsample.sampling import SampleSpec, deletion_budget

from util import dense_laplacian, normalize_reference, random_graph

GAMMA_GRID = (0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0)


def _passline(name, detail):
    print(f"ACCEPTANCE {name}: PASS ({detail})")


def _suite_instance(i):
    """Graphon graph with n in [10, 2000] and random or homophilic features."""
    rng = np.random.default_rng(10_000 + i)
    n = int(round(10 * (200.0 ** rng.uniform())))
    if i % 3 == 0:
        g, _ = hs.sample_graphon_graph(
            GraphonSpec(kind="constant", n=n, p=min(1.0, 6.0 / n), seed=i)
        )
        x = rng.standard_normal((n, int(rng.integers(1, 9))))
    elif i % 3 == 1:
        ds = hs.generate_dataset(
            two_block_spec(
                n=n, intra=min(1.0, 8.0 / n), inter=min(1.0, 1.0 / n),
                feature_dim=8, noise=0.3, seed=i,
            )
        )
        g, x = ds.graph, ds.features
    else:
        grid = np.array([[0.7, 0.05], [0.05, 0.4]]) * min(1.0, 12.0 / n)
        ds = hs.generate_dataset(
            GraphonSpec(kind="grid", n=n, grid=grid, feature_dim=4, noise=0.2, seed=i)
        )
        g, x = ds.graph, ds.features
    return g, x


def test_homophily_sign_property():
    worst = -np.inf
    count = 0
    for i in range(500):
        g, x = _suite_instance(i)
        xh = hs.normalize_features(x)
        h = hs.feature_homophily(g, xh)
        assert h <= 1e-12
        # the trace bound must hold on every instance of the suite
        assert hs.laplacian_trace(g) >= hs.trace_lower_bound(h, xh) - 1e-9
        worst = max(worst, h)
        count += 1
    assert count >= 500
    _passline("homophily-sign", f"{count} instances, max h_G = {worst:.3e}")


def test_dense_oracle_equivalence():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 201))
        g = random_graph(rng, n, rng.uniform(0.02, 0.4))
        xh = hs.normalize_features(rng.standard_normal((n, int(rng.integers(1, 10)))))
        h = hs.feature_homophily(g, xh)
        dense = float(np.trace(-dense_laplacian(g) @ xh.values @ xh.values.T) / n)
        rel = abs(h - dense) / max(abs(dense), 1e-12)
        assert rel <= 1e-9
        worst = max(worst, rel)
    _passline("dense-oracle-equivalence", f"100 instances, max rel err = {worst:.3e}")


def test_trace_bound_and_tight_case():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(2, 150))
        g = random_graph(rng, n, rng.uniform(0.0, 0.3))
        xh = hs.normalize_features(rng.standard_normal((n, int(rng.integers(1, 8)))))
        h = hs.feature_homophily(g, xh)
        assert hs.laplacian_trace(g) >= hs.trace_lower_bound(h, xh) - 1e-9
    g2 = hs.build_graph([(0, 1)])
    xh2 = hs.normalize_features(np.array([[0.0], [1.0]]))
    bound = hs.trace_lower_bound(hs.feature_homophily(g2, xh2), xh2)
    gap = abs(hs.laplacian_trace(g2) - bound)
    assert gap <= 1e-12
    _passline("trace-lower-bound", f"100 instances hold; 2-node equality gap = {gap:.1e}")


def test_normalization_identity():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 400))
        d = int(rng.integers(1, 40))
        xh = hs.normalize_features(rng.standard_normal((n, d)))
        assert xh.valid_mask.all()
        err = abs(float(np.sum(xh.values**2)) - n)
        assert err <= 1e-9
        worst = max(worst, err)
    _passline("normalization-identity", f"100 matrices, max |tr - n| = {worst:.3e}")


def test_algorithm1_conformance():
    rng = np.random.default_rng(4)
    checked = 0
    for trial in range(200):
        n = int(rng.integers(2, 200))
        g = random_graph(rng, n, 0.1)
        mode = trial % 3
        if mode == 0:
            x = rng.standard_normal((n, int(rng.integers(1, 6))))
            use_raw = False
        elif mode == 1:
            pool = rng.standard_normal((max(1, n // 3), 4))
            x = pool[rng.integers(0, pool.shape[0], size=n)]  # duplicate rows: ties
            use_raw = False
        else:
            x = np.sqrt(rng.integers(0, 5, size=(n, 1)).astype(float))  # tied scores
            use_raw = True
        gamma = float(rng.choice(GAMMA_GRID))
        res = hs.sample_homophily(g, x, SampleSpec(gamma=gamma, use_raw_scores=use_raw))
        scores = (
            np.einsum("ij,ij->i", x, x)
            if use_raw
            else np.einsum("ij,ij->i", normalize_reference(x), normalize_reference(x))
        )
        n_d = int(np.floor((1.0 - gamma) * n))
        expected = sorted(sorted(range(n), key=lambda i: (scores[i], i))[: n - n_d])
        assert res.kept.tolist() == expected
        assert len(res.kept) == n - deletion_budget(n, gamma)
        checked += 1
    for gamma in GAMMA_GRID:
        for n in (1, 2, 5, 17, 64, 321):
            g = random_graph(rng, n, 0.2)
            res = hs.sample_homophily(g, rng.standard_normal((n, 3)), SampleSpec(gamma=gamma))
            assert len(res.kept) == n - int(np.floor((1.0 - gamma) * n))
    _passline("algorithm1-conformance", f"{checked} instances incl. ties match brute force")


def test_expressivity_bound():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(2, 51))
        r = int(rng.integers(1, n + 1))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        lam = np.zeros(n)
        lam[:r] = rng.uniform(0.5, 2.0, size=r) * rng.choice([-1.0, 1.0], size=r)
        s = q @ np.diag(lam) @ q.T
        assert hs.numerical_rank(s) == r
        k = int(rng.integers(1, 13))
        dim = hs.conv_span_dimension(s, rng.standard_normal(n), k)
        assert dim <= r + 1
    _passline("expressivity-bound", "200 trials, dim(span) <= rank + 1 throughout")


def test_gradient_correctness():
    rng = np.random.default_rng(6)
    n = 20
    g = random_graph(rng, n, 0.25)
    x = rng.standard_normal((n, 5))
    labels = rng.integers(0, 3, size=n)
    mask = np.ones(n, dtype=bool)
    cfg = GnnConfig(layers=2, taps=2, hidden=8, seed=0)
    w = [_stack(taps, l) for l, taps in enumerate(init_weights(cfg, 5, 3))]
    s = shift_matrix(g, cfg.shift)
    xs = _shift_stack(s, x, cfg.taps)
    idx = np.flatnonzero(mask)
    grads = [np.empty_like(h) for h in w]
    scratch = [np.empty_like(h) for h in w]
    loss_and_grads(w, grads, s, xs, idx, labels[idx], cfg)
    step = 1e-5
    worst = 0.0
    entries = 0
    for l in range(len(w)):
        for i in np.ndindex(w[l].shape):
            orig = w[l][i]
            w[l][i] = orig + step
            lp = loss_and_grads(w, scratch, s, xs, idx, labels[idx], cfg)
            w[l][i] = orig - step
            lm = loss_and_grads(w, scratch, s, xs, idx, labels[idx], cfg)
            w[l][i] = orig
            fd = (lp - lm) / (2 * step)
            an = grads[l][i]
            rel = abs(fd - an) / max(abs(fd), abs(an), 1e-8)
            assert rel <= 1e-4
            worst = max(worst, rel)
            entries += 1
    _passline("gradient-correctness", f"{entries} weight entries, max rel err = {worst:.3e}")


def test_permutation_equivariance():
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(5, 40))
        g = random_graph(rng, n, 0.3)
        d = int(rng.integers(2, 6))
        c = int(rng.integers(2, 5))
        cfg = GnnConfig(layers=2, taps=2, hidden=6, seed=trial)
        model = GnnModel(weights=init_weights(cfg, d, c), config=cfg, n_classes=c)
        x = rng.standard_normal((n, d))
        base = hs.forward(model, g, x)
        perm = rng.permutation(n)
        gp = hs.build_graph(perm[g.edge_array()], n=n) if g.m else hs.build_graph([], n=n)
        xp = np.empty_like(x)
        xp[perm] = x
        diff = float(np.max(np.abs(hs.forward(model, gp, xp)[perm] - base)))
        assert diff <= 1e-9
        worst = max(worst, diff)
    _passline("permutation-equivariance", f"20 trials, max |diff| = {worst:.3e}")


def test_trace_preservation_trend():
    t0 = time.perf_counter()
    rates = (0.25, 0.5, 0.75)
    seed_wins = []
    for ms in range(20):
        ds = hs.generate_dataset(
            two_block_spec(n=1000, intra=0.02, inter=0.002, feature_dim=16, noise=0.3,
                           seed=31_000 + ms)
        )
        wins = 0
        for gamma in rates:
            res = hs.sample_homophily(ds.graph, ds.features, SampleSpec(gamma=gamma))
            t_alg = hs.adjusted_trace(res.subgraph)
            rnd = [
                hs.adjusted_trace(
                    hs.sample_random(
                        ds.graph, SampleSpec(gamma=gamma, method="random", seed=ms * 100 + r)
                    ).subgraph
                )
                for r in range(50)
            ]
            if t_alg >= float(np.mean(rnd)):
                wins += 1
        seed_wins.append(wins)
    frac = float(np.mean([w >= 2 for w in seed_wins]))
    elapsed = time.perf_counter() - t0
    assert frac >= 0.8
    assert elapsed < 300.0
    _passline(
        "trace-preservation-trend",
        f"{frac:.0%} of 20 seeds won >= 2 of 3 rates (wins: {seed_wins}), {elapsed:.1f}s",
    )


def test_transferability_trend():
    t0 = time.perf_counter()
    acc = {"homophily": [], "random": []}
    for ms in range(10):
        ds = hs.generate_dataset(
            two_block_spec(n=1000, intra=0.02, inter=0.002, feature_dim=16, noise=0.3,
                           seed=77_000 + ms)
        )
        for method in ("homophily", "random"):
            res = hs.sample(
                ds.graph, SampleSpec(gamma=0.5, method=method, seed=ms),
                x=ds.features, labels=ds.labels,
            )
            model = hs.train(
                res.subgraph, res.features, res.labels,
                np.ones(res.subgraph.n, dtype=bool), GnnConfig(seed=ms), n_classes=2,
            )
            mask = np.ones(ds.graph.n, dtype=bool)
            mask[res.kept] = False
            acc[method].append(hs.evaluate(model, ds.graph, ds.features, ds.labels, mask))
    mean_alg = float(np.mean(acc["homophily"]))
    mean_rnd = float(np.mean(acc["random"]))
    elapsed = time.perf_counter() - t0
    chance_plus = 1.0 / 2 + 0.2
    assert mean_alg >= mean_rnd - 0.02
    assert mean_alg >= chance_plus and mean_rnd >= chance_plus
    assert elapsed < 900.0
    _passline(
        "transferability-trend",
        f"score-sampler acc {mean_alg:.3f} vs random {mean_rnd:.3f}, {elapsed:.1f}s",
    )


def test_complexity_scaling():
    t0 = time.perf_counter()
    m_rows = run_bench([10_000, 20_000, 40_000, 80_000], d=16, repeats=7)
    slope_m = loglog_slope([r.m for r in m_rows], [r.t_compute for r in m_rows])
    d_rows = run_bench_dims([16, 32, 64, 128], m_target=40_000, repeats=7)
    slope_d = loglog_slope([r.d for r in d_rows], [r.t_compute for r in d_rows])
    elapsed = time.perf_counter() - t0
    assert 0.8 <= slope_m <= 1.3
    assert 0.8 <= slope_d <= 1.3
    assert elapsed < 120.0
    _passline(
        "complexity-scaling",
        f"slope(m) = {slope_m:.2f}, slope(d) = {slope_d:.2f}, {elapsed:.1f}s",
    )


def test_determinism(tmp_path):
    args = [
        "experiment",
        "--synth", "blocks,n=200,intra=0.05,inter=0.005,fracs=0.3:0.7,d=8,tau=0.3,seed=13",
        "--rates", "0.25,0.5,0.75",
        "--methods", "homophily,random,degree_greedy",
        "--reps", "5", "--metrics-only",
    ]
    assert main(args + ["--out", str(tmp_path / "one")]) == 0
    assert main(args + ["--out", str(tmp_path / "two")]) == 0
    names_one = sorted(p.name for p in (tmp_path / "one").glob("report__*.json"))
    names_two = sorted(p.name for p in (tmp_path / "two").glob("report__*.json"))
    assert names_one and names_one == names_two
    compared = 0
    for name in names_one + ["summary.csv"]:
        a = (tmp_path / "one" / name).read_bytes()
        b = (tmp_path / "two" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
        compared += 1
    _passline("determinism", f"{compared} files byte-identical across reruns")
