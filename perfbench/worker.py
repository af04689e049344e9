"""Runs one pass of a workload through ``aaphase.cli.main`` in-process.

Started by ``run.py`` in a fresh interpreter per pass, with the
checkout's ``src`` on ``PYTHONPATH``, so every pass pays the same
first-call costs a command-line user pays.  A pass makes every call of
the workload once, in order, with stdout and stderr captured; each call
is timed on its own and the pass as a whole.  Outputs are checked after
the pass, outside the timed region, against the reference
(``checks.py``); their digests let ``run.py`` compare passes byte for
byte.  With ``--trace 1`` the layers are traced (``spans.py``).  The
last line of stdout is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import aaphase.cli
import numpy

from checks import check_call
from spans import Tracer


def run_call(call: dict):
    """(seconds, exit code, stdout, error) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = aaphase.cli.main(call["argv"])
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a traceback is a failed call, never a lost one
        code = None
        error = traceback.format_exc().strip().splitlines()[-1]
    elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue(), error


def run_pass(calls, directory: Path, tracer=None) -> dict:
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        results = [run_call(call) for call in calls]
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    failures = []
    for call, (_, code, stdout, error) in zip(calls, results):
        reason = error or check_call(call, code, stdout, directory)
        if reason is not None:
            failures.append({"call": call["id"], "argv": call["argv"],
                             "config": str(directory / call["config"]),
                             "reason": reason})
    return {"wall": wall,
            "latencies": [r[0] for r in results],
            "digests": [hashlib.sha256(r[2].encode()).hexdigest()
                        for r in results],
            "failures": failures}


def environment() -> dict:
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    threads = {k: v for k, v in os.environ.items()
               if k.endswith("_NUM_THREADS") or k == "OMP_PROC_BIND"}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": {k: blas.get(k) for k in ("name", "version",
                                         "openblas configuration")
                 if k in blas},
        "thread_env": threads,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine_settings": "none changed: no CPU pinning, no cache drops",
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    directory = args.inputs.resolve()
    calls = json.loads((directory / "manifest.json").read_text())
    os.chdir(directory)
    tracer = Tracer() if args.trace else None
    result = run_pass(calls, directory, tracer)
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment()
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.dump(directory.parent / "spans.jsonl")
        if tracer.largest_matrix is not None:
            path = directory.parent / "eigh_matrix.npy"
            numpy.save(path, tracer.largest_matrix)
            result["eigh_matrix"] = str(path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
