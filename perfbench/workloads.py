"""The benchmark's four workloads: inputs, command cycle and output checks.

Every workload is a closed loop: one process runs one CLI command at a time.
Each workload's ``prepare`` makes its inputs from the seed and returns the
command cycle with the number of commands a run must execute at least;
``check`` turns one execution's outputs into (operations failed, messages).
An operation is one command, or one cell of an ``experiment`` command.
"""

from __future__ import annotations

from pathlib import Path

import checks
import gen
import layers

GAMMA = 0.5  # cli-80k samples delete 40k of 80k nodes
SYNTH_N, SYNTH_D = 20_000, 16
SYNTH_BLOCKS = {"intra": 0.0008, "inter": 0.0002}
SYNTH_GRID = "0.0008:0.0002:0.0001:0.0002:0.0008:0.0002:0.0001:0.0002:0.0008"
SWEEP_M = {"rates": (0.1, 0.3, 0.5, 0.7, 0.9), "methods": ("homophily", "random", "degree_greedy"), "reps": 10}
SWEEP_T = {"rates": (0.25, 0.5, 0.75), "methods": ("homophily", "random"), "reps": 9}
SWEEP_T_N = 2000


def _cmd(name: str, *argv: str) -> dict:
    return {"name": name, "argv": list(argv)}


def _sbm(seed: int, work: Path):
    data = gen.make_sbm(gen.SbmSpec(), seed)
    paths = gen.write_sbm(data, work / "inputs")
    ds = checks.Dataset(data.edges, data.features, data.labels, data.n, paths["features"], paths["labels"])
    files = ["--graph", str(paths["graph"]), "--features", str(paths["features"]), "--labels", str(paths["labels"])]
    return ds, files


class _Workload:
    # command -> command it partly repeats; by default a command is compared
    # with its own first execution
    REPEATS: dict[str, str] = {}

    def ops(self, name: str) -> int:
        return 1


class Cli80k(_Workload):
    """homophily, metrics and three samplers on an 80k-node, ~400k-edge SBM."""

    name = layers.CLI_80K
    # metrics leads the cycle, so the one forced repeat re-runs it and the
    # report's byte-identity across repeats is always checked
    METHODS = {"sample_homophily": "homophily", "sample_random": "random", "sample_greedy": "degree_greedy"}

    def prepare(self, seed: int, work: Path):
        self.ds, files = _sbm(seed, work)
        self.out = work / "out"
        self.out.mkdir()  # metrics --out writes a file, so its directory must exist
        cycle = [
            _cmd("metrics", "metrics", *files, "--out", str(self.out / "metrics-{rep}.json")),
            _cmd("homophily", "homophily", *files),
        ]
        cycle += [
            _cmd(name, "sample", *files, "--gamma", str(GAMMA), "--method", method, "--seed", str(seed),
                 "--out", str(self.out / f"{name}-{{rep}}"))
            for name, method in self.METHODS.items()
        ]
        return cycle, len(cycle) + 1

    def output(self, ex: dict) -> Path | None:
        if ex["name"] == "metrics":
            return self.out / f"metrics-{ex['rep']}.json"
        if ex["name"] in self.METHODS:
            return self.out / f"{ex['name']}-{ex['rep']}"
        return None

    def check(self, ex: dict):
        name = ex["name"]
        if name == "homophily":
            bad = checks.homophily_stdout(ex["stdout"], self.ds)
        elif name == "metrics":
            bad = checks.metrics_report(self.output(ex), self.ds)
        else:
            bad = checks.sample_dir(self.output(ex), self.ds, GAMMA, self.METHODS[name])
        return int(bool(bad)), bad


class Synth20k(_Workload):
    """synth of a 2-block and a 3x3-grid graphon at n = 20k, d = 16."""

    name = layers.SYNTH

    def prepare(self, seed: int, work: Path):
        self.out = work / "out"
        common = f"n={SYNTH_N},d={SYNTH_D},seed={seed}"
        blocks = f"blocks,{common},intra={SYNTH_BLOCKS['intra']},inter={SYNTH_BLOCKS['inter']},fracs=0.3:0.7,tau=0.3"
        cycle = [
            _cmd("synth_blocks", "synth", "--spec", blocks, "--out", str(self.out / "synth_blocks-{rep}")),
            _cmd("synth_grid", "synth", "--spec", f"grid,{common},grid={SYNTH_GRID}", "--out", str(self.out / "synth_grid-{rep}")),
        ]
        return cycle, len(cycle)

    def output(self, ex: dict) -> Path:
        return self.out / f"{ex['name']}-{ex['rep']}"

    def check(self, ex: dict):
        blocks = SYNTH_BLOCKS if ex["name"] == "synth_blocks" else None
        bad = checks.synth_dir(self.output(ex), SYNTH_N, SYNTH_D, blocks)
        return int(bool(bad)), bad


class _Sweep(_Workload):
    """An experiment over every rate, then the same experiment over the first rate only.

    The second command repeats the first rate's cells in a new invocation:
    their reports and summary rows must be byte-identical to the first
    command's. It costs a fraction of a full repeat.
    """

    train = False
    REPEATS = {"experiment_first_rate": "experiment"}

    def _cycle(self, seed: int, work: Path, data_args: list[str], run_args: list[str]):
        self.out = work / "out"
        sp = self.spec
        common = ["--methods", ",".join(sp["methods"]), "--reps", str(sp["reps"]), "--seed", str(seed)]
        return [
            _cmd(name, "experiment", *data_args, "--rates", ",".join(str(r) for r in rates), *common,
                 *run_args, "--out", str(self.out / f"{name}-{{rep}}"))
            for name, rates in (("experiment", sp["rates"]), ("experiment_first_rate", sp["rates"][:1]))
        ], 2

    def rates(self, name: str):
        return self.spec["rates"] if name == "experiment" else self.spec["rates"][:1]

    def ops(self, name: str) -> int:
        sp = self.spec
        return sum(len(self.rates(name)) * (sp["reps"] if m == "random" else 1) for m in sp["methods"])

    def output(self, ex: dict) -> Path:
        return self.out / f"{ex['name']}-{ex['rep']}"

    def check(self, ex: dict):
        sp = self.spec
        failed, bad = checks.experiment_dir(
            self.output(ex), self.rates(ex["name"]), sp["methods"], sp["reps"], self.n, self.train, self.ds
        )
        return len(failed), bad


class SweepMetrics80k(_Sweep):
    """experiment --metrics-only --workers 1 on the cli-80k files: 60 cells."""

    name = layers.SWEEP_M
    spec = SWEEP_M

    def prepare(self, seed: int, work: Path):
        self.ds, files = _sbm(seed, work)
        self.n = self.ds.n
        return self._cycle(seed, work, files, ["--metrics-only", "--workers", "1"])


class SweepTrain2k(_Sweep):
    """experiment on a synth 2-block graph at n = 2000 with GNN training: 30 cells."""

    name = layers.SWEEP_T
    spec = SWEEP_T
    train = True

    def prepare(self, seed: int, work: Path):
        self.ds, self.n = None, SWEEP_T_N
        synth = f"blocks,n={SWEEP_T_N},intra=0.01,inter=0.002,fracs=0.3:0.7,d=16,tau=0.3,seed={seed}"
        run_args = ["--epochs", "200", "--hidden", "64", "--workers", "2"]
        return self._cycle(seed, work, ["--synth", synth], run_args)


WORKLOADS = {w.name: w for w in (Cli80k, Synth20k, SweepMetrics80k, SweepTrain2k)}


def evaluate(workload, executions: list[dict]):
    """(attempted, failed, messages) over all executions, with repeat byte-identity."""
    attempted = failed = 0
    msgs: list[str] = []
    first: dict[str, dict] = {}
    for ex in executions:
        ops = workload.ops(ex["name"])
        attempted += ops
        if ex["rc"] != 0:  # every operation the command held failed
            failed += ops
            msgs.append(f"{ex['name']} rep {ex['rep']}: exit code {ex['rc']}: {ex['stderr'][-500:]}")
            continue
        bad_ops, bad = workload.check(ex)
        out = workload.output(ex)
        partial = ex["name"] in workload.REPEATS
        ref = first.get(workload.REPEATS[ex["name"]]) if partial else first.setdefault(ex["name"], ex)
        if out is not None and ref is not None and ref is not ex:
            diff = checks.identical(workload.output(ref), out, subset=partial)
            if diff:
                bad_ops, bad = ops, bad + diff
        failed += bad_ops
        msgs += bad
    return attempted, failed, msgs
