"""Spans and counters recorded from outside the program.

``Tracer.install()`` rebinds the module attributes that ``aaphase.cli``,
``aaphase.config`` and ``aaphase.oracle`` look up at call time, so every
call into a layer runs inside a span; ``uninstall()`` restores the
originals.  Spans (name, start, end, parent, call id) and counts stay in
memory until ``dump``.  A layer's self time is its span minus the part
its child spans cover.  Work done only to count things runs inside a
``trace.count`` span, so it is charged to tracing, not to a layer.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

# span name -> per-layer metric for the span's self time (leaf spans:
# self time equals the span)
SELF_METRICS = {
    "cli.main": "cli.self_s",
    "config.load": "config.load_s",
    "models.dense_build": "models.dense_build_s",
    "models.exact_build": "models.exact_build_s",
    "engine.cyclicality": "engine.cyclicality_s",
    "engine.phase": "engine.phase_s",
    "oracle.generic_gamma": "oracle.self_s",
    "oracle.eigh": "oracle.eigh_s",
    "oracle.scan": "oracle.scan_s",
    "oracle.refine": "oracle.refine_s",
    "constraints.enumerate": "constraints.enumerate_s",
    "constraints.gamma": "constraints.gamma_s",
    "constraints.admissible": "constraints.admissible_s",
    "report.format": "report.format_s",
    "trace.count": "trace.count_s",
}

# work counts and their units
COUNT_UNITS = {
    "engine.occupied": "count",
    "engine.distinct_values": "count",
    "models.dense_bytes": "bytes",
    "models.levels": "count",
    "oracle.dimension": "count",
    "oracle.grid_steps": "count",
    "oracle.occupied_levels": "count",
    "oracle.scan_exps": "count",
    "oracle.fidelity_deficit": "ratio",
    "constraints.candidates": "count",
    "constraints.gamma_values": "count",
    "report.bytes": "bytes",
}

# counts that keep the largest value seen in a pass instead of a sum
MAX_COUNTS = ("oracle.dimension", "oracle.fidelity_deficit")


class Tracer:
    def __init__(self):
        self.spans: List[list] = []       # [name, start, end, parent, call]
        self.counts: Dict[str, float] = defaultdict(float)
        self.call_id = 0
        self.largest_matrix = None
        self._stack: List[int] = []
        self._saved: List[tuple] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self.call_id]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = time.perf_counter()

    def count(self, name: str, value: float) -> None:
        if name in MAX_COUNTS:
            self.counts[name] = max(self.counts[name], value)
        else:
            self.counts[name] += value

    def _wrap(self, module, attr: str, name: str,
              counter: Optional[Callable] = None) -> None:
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if counter is not None:
                with self.span("trace.count"):
                    counter(self, result, *args)
            return result

        self._saved.append((module, attr, original))
        setattr(module, attr, traced)

    def install(self) -> None:
        """Rebind the program's call-time lookups to traced wrappers."""
        import aaphase.cli as cli
        import aaphase.config as config
        import aaphase.oracle as oracle

        if self._saved:
            raise RuntimeError("tracer already installed")
        original_main = cli.main

        def main(argv=None):
            self.call_id += 1
            with self.span("cli.main"):
                return original_main(argv)

        self._saved.append((cli, "main", original_main))
        cli.main = functools.wraps(original_main)(main)

        self._wrap(cli, "load_config", "config.load")
        self._wrap(cli, "check_cyclicality", "engine.cyclicality",
                   _count_occupied)
        self._wrap(cli, "geometric_phase", "engine.phase")
        self._wrap(cli, "generic_gamma", "oracle.generic_gamma")
        self._wrap(cli, "enumerate_candidates", "constraints.enumerate",
                   lambda t, r, *a: t.count("constraints.candidates", len(r)))
        self._wrap(cli, "gamma_candidates", "constraints.gamma",
                   lambda t, r, *a: t.count("constraints.gamma_values", len(r)))
        for attr in ("gauge_to_zero_phi", "constrain_unknown"):
            self._wrap(cli, attr, "constraints.admissible")
        for attr in ("format_phase_report", "format_verify_table",
                     "format_candidate_table"):
            self._wrap(cli, attr, "report.format",
                       lambda t, r, *a: t.count("report.bytes",
                                                len(r.encode("utf-8"))))
        self._wrap(cli, "format_real", "report.format")

        for attr in ("three_mirror_dense", "two_mirror_dense",
                     "spin_half_dense", "free_field_dense"):
            self._wrap(config, attr, "models.dense_build", _count_dense)
        self._wrap(config, "three_mirror_initial_state", "models.dense_build")
        for attr in ("three_mirror_exact", "two_mirror_spectrum", "spin_half",
                     "free_field", "free_field_coherent"):
            self._wrap(config, attr, "models.exact_build",
                       lambda t, r, *a: t.count("models.levels",
                                                len(r[0].levels)))

        tracer = self
        base = oracle.SpectralPropagator

        class TimedPropagator(base):
            def __init__(self, hamiltonian, psi0):
                with tracer.span("oracle.eigh"):
                    super().__init__(hamiltonian, psi0)
                with tracer.span("trace.count"):
                    tracer._note_matrix(hamiltonian.matrix)

        self._saved.append((oracle, "SpectralPropagator", base))
        oracle.SpectralPropagator = TimedPropagator
        self._wrap(oracle, "evolve", "oracle.scan", _count_scan)
        self._wrap(oracle, "detect_period", "oracle.refine", _count_refine)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _note_matrix(self, matrix) -> None:
        self.count("oracle.dimension", matrix.shape[0])
        if (self.largest_matrix is None
                or matrix.shape[0] > self.largest_matrix.shape[0]):
            self.largest_matrix = matrix

    # -- analysis -------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """Self time per layer, inclusive cli.main time and counts."""
        child_time: Dict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        metrics = dict.fromkeys([*SELF_METRICS.values(), *COUNT_UNITS], 0.0)
        metrics["cli.main_s"] = 0.0
        for index, (name, start, end, _, _) in enumerate(self.spans):
            metrics[SELF_METRICS[name]] += end - start - child_time[index]
            if name == "cli.main":
                metrics["cli.main_s"] += end - start
        metrics.update(self.counts)
        return metrics

    def dump(self, path) -> None:
        """Write the spans as JSON lines, then one line with the counts."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, call in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "call": call}) + "\n")
            fh.write(json.dumps({"counts": self.counts}) + "\n")


def _count_occupied(tracer: Tracer, result, spectrum, state, *rest) -> None:
    table = dict(spectrum.levels)
    values = [table[label] for label, _ in state.entries]
    tracer.count("engine.occupied", len(values))
    tracer.count("engine.distinct_values", len(set(values)))


def _count_dense(tracer: Tracer, result, *args) -> None:
    hamiltonian = result[0] if isinstance(result, tuple) else result
    matrix = hamiltonian.matrix
    tracer.count("models.dense_bytes", matrix.shape[0] ** 2 * matrix.itemsize)


def _count_scan(tracer: Tracer, result, *args) -> None:
    import aaphase.oracle as oracle

    steps = result.times.size
    occupied = int((result.propagator.weights > oracle.WEIGHT_FLOOR).sum())
    tracer.count("oracle.grid_steps", steps)
    tracer.count("oracle.occupied_levels", occupied)
    tracer.count("oracle.scan_exps", steps * occupied)


def _count_refine(tracer: Tracer, result, evolution, *args) -> None:
    tau = result[0]
    deficit = 1.0 - float(evolution.propagator.fidelity(tau)[0])
    tracer.count("oracle.fidelity_deficit", deficit)
