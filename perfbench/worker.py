"""Run one workload's CLI commands in this fresh interpreter and record them.

Usage: ``python3 perfbench/worker.py PLAN.json`` (``run.py`` writes the plan).
The plan names the package's source directory, the command cycle, how many
commands must run at least, the measuring budget in seconds, and whether to
trace. Commands run one at a time through ``homsample.cli.main`` (closed
loop); ``{rep}`` in an argument becomes the command's repetition index, so
every execution writes its own outputs. After the minimum, the next command
starts only if half its expected time still fits in the budget. The result
(per-command exit code, wall time and output, peak RSS, an environment
stamp and, when traced, the per-layer metrics) goes to the plan's result
file; spans go to the plan's span file.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import platform
import statistics
import sys
import time
import traceback

import layers
import spans

# stop starting commands after this long even below the minimum, so that a
# much slower program still finishes inside the caller's time limit
HARD_LIMIT_S = 120.0


def env_stamp() -> dict:
    import numpy
    import scipy

    kernels = sys.modules.get("homsample._kernels")
    try:
        importlib.import_module("numba")
        numba = True
    except ImportError:
        numba = False
    resolve = getattr(kernels, "resolve_backend", None)
    try:
        backend = resolve(None) if resolve else "numpy"
    except (ValueError, RuntimeError) as exc:
        backend = f"unresolved: {exc}"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": numba,
        "kernel_backend": backend,
        **{var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "HOMSAMPLE_THREADS", "HOMSAMPLE_BACKEND")},
    }


def peak_rss_mb() -> float:
    """This process's peak resident set size.

    ``ru_maxrss`` would be wrong here: Linux carries it across exec, so a
    worker started from a large parent reports the parent's size.
    ``VmHWM`` belongs to the worker's own address space.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _expected_s(times: dict, name: str) -> float:
    own = times.get(name)
    if own:
        return statistics.median(own)
    return statistics.median([t for ts in times.values() for t in ts])


def run(plan: dict) -> dict:
    sys.path.insert(0, plan["src"])
    cli = importlib.import_module(f"{layers.PACKAGE}.cli")
    tracer = None
    if plan["trace"]:
        for layer in layers.LAYERS:
            importlib.import_module(f"{layers.PACKAGE}.{layer}")
        tracer = spans.Tracer(layers.PACKAGE, layers.LAYERS, layers.COUNT_HOOKS)
        tracer.install()

    cycle = plan["commands"]
    executions, times, reps = [], {}, {}
    start = time.perf_counter()
    i = 0
    while True:
        cmd = cycle[i % len(cycle)]
        elapsed = time.perf_counter() - start
        if i >= plan["min_commands"] and elapsed + _expected_s(times, cmd["name"]) / 2 >= plan["seconds"]:
            break
        if i >= len(cycle) and elapsed >= HARD_LIMIT_S:
            break
        rep = reps.get(cmd["name"], 0)
        reps[cmd["name"]] = rep + 1
        argv = [a.replace("{rep}", str(rep)) for a in cmd["argv"]]
        mark = len(tracer.spans) if tracer else 0
        out, err = io.StringIO(), io.StringIO()
        t0, c0 = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except Exception:  # recorded as a failed operation; the run goes on
                traceback.print_exc()
                rc = -1
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        times.setdefault(cmd["name"], []).append(wall)
        executions.append({
            "name": cmd["name"], "rep": rep, "rc": rc, "wall_s": wall, "cpu_s": cpu,
            "stdout": out.getvalue(), "stderr": err.getvalue(),
            "span_range": [mark, len(tracer.spans) if tracer else 0],
        })
        i += 1

    result = {
        "executions": executions,
        "peak_rss_mb": peak_rss_mb(),
        "env": env_stamp(),
    }
    if tracer:
        tracer.uninstall()
        per_exec = [
            (e["name"], e["wall_s"], spans.Aggregate.from_spans(tracer.spans[slice(*e["span_range"])]))
            for e in executions
        ]
        result["per_layer"] = layers.per_layer_metrics(per_exec, spans.span_overhead_s())
        tracer.dump(plan["spans"])
    return result


def main() -> int:
    with open(sys.argv[1]) as fh:
        plan = json.load(fh)
    result = run(plan)
    with open(plan["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
