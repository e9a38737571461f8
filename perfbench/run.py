"""Benchmark of the homsample command line: four closed-loop workloads.

One workload run:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload in turn, untraced and traced, with the end-to-end table and
the per-layer table:

    python3 perfbench/run.py --all [--seed N] [--seconds S]

Run it from a checkout that holds ``src/homsample``; it uses that source
tree, never an installed copy, and exits 1 without a result when the tree is
missing. Inputs come from the seed. Each run works in ``.perfbench/<name>``
inside the checkout, measures ``setup_s`` in fresh interpreters, runs the
commands in one fresh worker process (``worker.py``), checks every output
and prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` untraced, its per-layer metrics traced.
OPENBLAS_NUM_THREADS, HOMSAMPLE_THREADS and HOMSAMPLE_BACKEND are left as
the caller set them and recorded in the environment stamp.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 5
WORKER_TIMEOUT_S = 150
IMPORT_TIMING = (
    "import time; t = time.perf_counter(); import homsample.cli; print(repr(time.perf_counter() - t))"
)


def package_env() -> dict:
    src = ROOT / "src"
    if not (src / layers.PACKAGE / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {src / layers.PACKAGE}")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    return env


def load_benchmark() -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in bench["per_layer"]}
    computed = {row[0] for row in layers.metric_table()}
    if declared != computed:
        raise SystemExit(f"perfbench: BENCHMARK.json per_layer differs from layers.py: {sorted(declared ^ computed)}")
    return bench


def setup_s(env: dict) -> float:
    """Median time, in fresh interpreters, until ``import homsample.cli`` returns."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_TIMING], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def round_s(executions: list[dict]) -> float:
    """One pass over the command cycle: the sum of each command's median wall time."""
    walls: dict[str, list[float]] = {}
    for ex in executions:
        walls.setdefault(ex["name"], []).append(ex["wall_s"])
    return sum(statistics.median(w) for w in walls.values())


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    env = package_env()
    bench = load_benchmark()
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = workloads.WORKLOADS[name]()
    cycle, min_commands = workload.prepare(seed, work)
    setup = None if trace else setup_s(env)
    plan = {
        "src": str(ROOT / "src"), "commands": cycle, "min_commands": min_commands,
        "seconds": seconds, "trace": trace,
        "result": str(work / "result.json"), "spans": str(work / "spans.json"),
    }
    (work / "plan.json").write_text(json.dumps(plan))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(work / "plan.json")],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: worker failed with exit code {proc.returncode}:\n{proc.stderr[-2000:]}")
    res = json.loads((work / "result.json").read_text())
    attempted, failed, messages = workloads.evaluate(workload, res["executions"])
    if trace:
        values = res["per_layer"]
        wanted = bench["per_layer"]
    else:
        values = {"setup_s": setup, "round_s": round_s(res["executions"]), "peak_rss_mb": res["peak_rss_mb"]}
        wanted = bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for sub in ("out", "inputs"):
        shutil.rmtree(work / sub, ignore_errors=True)
    return {
        "workload": name, "seed": seed, "trace": trace, "env": res["env"],
        "commands": [[ex["name"], ex["wall_s"], ex["cpu_s"]] for ex in res["executions"]],
        "round_s": round_s(res["executions"]),
        "messages": messages,
        "line": {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics},
    }


def _fmt(v: float) -> str:
    return f"{v:.4g}" if isinstance(v, float) else str(v)


def run_all(seed: int, seconds: int) -> None:
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    runs = {}
    for name in names:
        plain = run_workload(name, seed, seconds, trace=False)
        traced = run_workload(name, seed, seconds, trace=True)
        runs[name] = {"untraced": plain, "traced": traced}
        line = plain["line"]
        print(f"== {name} (seed {seed}): correct={line['correct']} attempted={line['attempted']} "
              f"failed={line['failed']} + traced run: attempted={traced['line']['attempted']} "
              f"failed={traced['line']['failed']}")
        for msg in plain["messages"] + traced["messages"]:
            print(f"   FAILED {msg}")
        for m in bench["end_to_end"]:
            print(f"   {m['name']:<14} {_fmt(line['metrics'][m['name']]['value']):>10} {m['unit']}")
        print(f"   commands run: {len(plain['commands'])} untraced, {len(traced['commands'])} traced; "
              f"round_s traced - untraced = {traced['round_s'] - plain['round_s']:+.3f} s")
    print(f"\nenv {json.dumps(runs[names[0]]['untraced']['env'])}")
    print("\nper-layer metrics, traced run, per round (a round is one pass over the command cycle)")
    width = max(len(r[0]) for r in layers.metric_table())
    print(f"{'metric':<{width}} {'unit':<6}" + "".join(f"{n:>18}" for n in names) + "   moves / on")
    for name, unit, _better, on, moves in layers.metric_table():
        vals = "".join(f"{_fmt(runs[n]['traced']['line']['metrics'][name]['value']):>18}" for n in names)
        print(f"{name:<{width}} {unit:<6}{vals}   {moves} / {', '.join(on)}")
    WORK.mkdir(exist_ok=True)
    (WORK / "summary.json").write_text(json.dumps(runs, indent=1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    p.add_argument("--all", action="store_true", help="every workload, untraced and traced, with tables")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    package_env()  # fail before any work when the package source is missing
    seconds = args.seconds if args.seconds is not None else load_benchmark()["run_seconds"]
    if args.all:
        run_all(args.seed, seconds)
        return 0
    if args.workload is None:
        p.error("give --workload NAME or --all")
    run = run_workload(args.workload, args.seed, seconds, bool(args.trace))
    for msg in run["messages"]:
        print(f"FAILED {msg}", file=sys.stderr)
    print(f"env {json.dumps(run['env'])}")
    print(f"commands {json.dumps(run['commands'])}")
    print(json.dumps(run["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
