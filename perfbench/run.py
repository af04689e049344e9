"""aaphase benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Set-up generates the workload's
configs from the seed and times fresh interpreters importing
``aaphase.cli``.  Then passes over the generated configs repeat for about
``--seconds`` seconds, each in a fresh worker process (``worker.py``),
at least two so that every call runs twice and must print the same bytes
both times.  With ``--trace 1`` untraced and traced passes alternate in
pairs within half the budget, and the rest goes to single-threaded
eigensolver runs (``eigh1t.py``).  Every output is checked; failed calls
are printed with their input.  The last stdout line is the result
object; the line before it records the environment.  Run files go to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import COUNT_UNITS
from workloads import WORKLOADS, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
EIGH_1T_REPEATS = 2
CHILD_TIMEOUT = 170.0
ONE_THREAD = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS")


def child_env(**extra) -> dict:
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + path if path else "")
    env.update(extra)
    return env


def run_child(argv, deadline: float, **env) -> str:
    """stdout of a child process; raises if it fails or outlives deadline."""
    done = subprocess.run(argv, env=child_env(**env), cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if done.returncode != 0:
        raise RuntimeError(f"{argv[1]} exited {done.returncode}: "
                           f"{done.stderr.strip()[-2000:]}")
    return done.stdout


def percentile(values, share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]


def setup(workload: str, seed: int, inputs: Path, deadline: float):
    """(setup seconds, calls): median import time plus median generation."""
    imports, generations = [], []
    calls = None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        run_child([sys.executable, "-c", "import aaphase.cli"], deadline)
        imports.append(time.perf_counter() - start)
        shutil.rmtree(inputs, ignore_errors=True)
        start = time.perf_counter()
        calls = generate(workload, seed, inputs, ROOT / "configs")
        generations.append(time.perf_counter() - start)
    (inputs / "manifest.json").write_text(json.dumps(calls, indent=1))
    return statistics.median(imports) + statistics.median(generations), calls


def measure(inputs: Path, seconds: float, trace: bool, deadline: float):
    """Worker results, one per pass, each pass in a fresh interpreter."""
    passes, costs = [], []
    group = 2 if trace else 1
    budget = seconds / 2 if trace else seconds
    start = time.monotonic()
    while True:
        traced = trace and len(passes) % 2 == 1
        began = time.monotonic()
        report = json.loads(run_child(
            [sys.executable, str(HERE / "worker.py"), "--inputs", str(inputs),
             "--trace", str(int(traced))], deadline).splitlines()[-1])
        costs.append(time.monotonic() - began)
        report["traced"] = traced
        passes.append(report)
        if len(passes) < 2 or len(passes) % group:
            continue
        if time.monotonic() - start + group * statistics.median(costs) > budget:
            return passes


def failures(passes, calls, inputs: Path):
    """Failed (pass, call) attempts: reference checks plus byte identity."""
    found = []
    for index, report in enumerate(passes):
        failed = {f["call"]: f for f in report["failures"]}
        for call, digest, first in zip(calls, report["digests"],
                                       passes[0]["digests"]):
            if call["id"] not in failed and digest != first:
                failed[call["id"]] = {
                    "call": call["id"], "argv": call["argv"],
                    "config": str(inputs / call["config"]),
                    "reason": "stdout differs from the first pass"}
        found += [dict(f, pass_index=index, traced=report["traced"])
                  for f in failed.values()]
    return found


def end_to_end(passes, attempted: int, failed: int, setup_s: float) -> dict:
    passes = [p for p in passes if not p["traced"]]
    return {
        "wall_s": (statistics.median(p["wall"] for p in passes), "s"),
        "call_p50_s": (statistics.median(
            statistics.median(p["latencies"]) for p in passes), "s"),
        "call_p90_s": (statistics.median(
            percentile(p["latencies"], 0.9) for p in passes), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes),
                        "MB"),
        "success_rate": ((attempted - failed) / attempted, "ratio"),
    }


def per_layer(passes, eigh_1t) -> dict:
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    metrics = {}
    for name in traced[0]["layers"]:
        metrics[name] = (statistics.median(p["layers"][name] for p in traced),
                         COUNT_UNITS.get(name, "s"))
    wall = statistics.median(p["wall"] for p in traced)
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.overhead_s"] = (
        wall - statistics.median(p["wall"] for p in untraced), "s")
    metrics["trace.unattributed_s"] = (statistics.median(
        p["wall"] - p["layers"]["cli.main_s"] for p in traced), "s")
    metrics["oracle.eigh_1t_s"] = (
        statistics.median(eigh_1t) if eigh_1t else 0.0, "s")
    metrics["oracle.eigh_1t_min_s"] = (min(eigh_1t, default=0.0), "s")
    metrics["oracle.eigh_1t_max_s"] = (max(eigh_1t, default=0.0), "s")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "aaphase" / "cli.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'aaphase'}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + CHILD_TIMEOUT
    out = ROOT / ".perfbench_out" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    setup_s, calls = setup(args.workload, args.seed, out / "inputs", deadline)
    passes = measure(out / "inputs", args.seconds, bool(args.trace), deadline)

    eigh_1t = []
    matrix = next((p["eigh_matrix"] for p in passes if "eigh_matrix" in p),
                  None)
    if matrix is not None:
        single = {name: "1" for name in ONE_THREAD}
        for _ in range(EIGH_1T_REPEATS):
            eigh_1t.append(float(run_child(
                [sys.executable, str(HERE / "eigh1t.py"), matrix],
                deadline, **single)))
        os.remove(matrix)

    failed = failures(passes, calls, out / "inputs")
    attempted = len(calls) * len(passes)
    for failure in failed:
        print("FAILED " + json.dumps(failure))
    metrics = (per_layer(passes, eigh_1t) if args.trace
               else end_to_end(passes, attempted, len(failed), setup_s))
    env = dict(passes[0]["env"], workload=args.workload, seed=args.seed,
               calls_per_pass=len(calls),
               pass_walls=[p["wall"] for p in passes])
    print("environment " + json.dumps(env))
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    (out / "result.json").write_text(json.dumps(
        dict(result, environment=env, failures=failed), indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
