"""Command-line front end: analyze, verify, and constrain commands.

Exit codes: 0 success (verify: all comparisons pass), 1 verify found a
disagreement, 2 physical impossibility (non-cyclic state, irrational
constraint input), 3 oracle found no return within t_max or its default
grid would need more than 2^21 steps for the occupied frequency spread,
64 usage or configuration errors.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import List, Optional, Sequence, Tuple

from .config import FLAGS, ConfigError, LoadedRun, load_config
from .constraints import constrain_unknown, enumerate_candidates, \
    gamma_candidates, gauge_to_zero_phi
from .engine import NonCyclicError, check_cyclicality, geometric_phase
from .oracle import NoReturnError, generic_gamma
from .rational import IncommensurableError
from .report import (
    format_candidate_table,
    format_phase_report,
    format_real,
    format_verify_table,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_NON_CYCLIC = 2
EXIT_NO_RETURN = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    """argparse front end whose usage failures exit with code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="aaphase",
                     description="Periods and geometric phases of cyclic "
                                 "quantum evolutions")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)
    for name, text in (("analyze", "exact-route phase report"),
                       ("verify", "exact route vs brute-force oracle"),
                       ("constrain", "partial-spectrum candidates")):
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", required=True, metavar="<path>")
        cmd.add_argument("--out", metavar="<path>")
        for name, cast in FLAGS.items():
            cmd.add_argument("--" + name.replace("_", "-"), type=cast,
                             dest=name)
    return parser


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_analyze(run: LoadedRun, args) -> int:
    opts = run.options
    if run.spectrum is None or run.state is None:
        if opts.t_max is None:
            raise ConfigError("t_max required for the brute-force route")
        if run.build_dense is None:
            raise ConfigError(f"analyze needs a spectrum or a matrix; a "
                              f"{run.model} run has neither")
        report = generic_gamma(run.dense, run.psi0, opts.t_max,
                               fidelity_tol=opts.fidelity_tol,
                               steps=opts.steps, approximate=opts.approximate)
        _emit(format_phase_report(report), args.out)
        return EXIT_OK
    verdict = check_cyclicality(run.spectrum, run.state)
    if verdict.kind == "non-cyclic":
        _emit(f"[phase-report]\ncyclicality: {verdict.kind}\n"
              f"reason: {verdict.reason}\n", args.out)
        print(f"non-cyclic: {verdict.reason}", file=sys.stderr)
        return EXIT_NON_CYCLIC
    report = geometric_phase(run.spectrum, run.state, cyclicality=verdict)
    _emit(format_phase_report(report, verdict), args.out)
    return EXIT_OK


def _mod_distance(a: float, b: float) -> float:
    """Distance between two angles mod 2*pi."""
    d = math.fmod(a - b, 2.0 * math.pi)
    if d < -math.pi:
        d += 2.0 * math.pi
    elif d > math.pi:
        d -= 2.0 * math.pi
    return abs(d)


def cmd_verify(run: LoadedRun, args) -> int:
    if run.spectrum is None or run.state is None or run.build_dense is None:
        raise ConfigError(
            "verify needs a model with both an exact spectrum and a "
            "dense matrix form")
    verdict = check_cyclicality(run.spectrum, run.state)
    if verdict.kind != "cyclic":
        raise ConfigError(f"nothing to verify for a {verdict.kind} state")
    exact = geometric_phase(run.spectrum, run.state, cyclicality=verdict)
    opts = run.options
    t_max = 2.2 * exact.tau if opts.t_max is None else opts.t_max
    if not t_max < math.inf:
        raise ConfigError("t_max required: 2.2 periods is not finite")
    oracle = generic_gamma(run.dense, run.psi0, t_max,
                           fidelity_tol=opts.fidelity_tol, steps=opts.steps)
    tol = opts.tolerance
    rows: List[Tuple[str, str, str, float, bool]] = []
    d_tau = abs(oracle.tau - exact.tau) / exact.tau
    rows.append(("tau-relative", format_real(exact.tau),
                 format_real(oracle.tau), d_tau, d_tau <= tol))
    d_phi = _mod_distance(oracle.phi, exact.phi)
    rows.append(("phi-mod-2pi", format_real(exact.phi),
                 format_real(oracle.phi), d_phi, d_phi <= tol))
    d_gamma = _mod_distance(oracle.gamma, exact.gamma)
    rows.append(("gamma-mod-2pi", format_real(exact.gamma),
                 format_real(oracle.gamma), d_gamma, d_gamma <= tol))
    _emit(format_verify_table(rows), args.out)
    return EXIT_OK if all(ok for *_, ok in rows) else EXIT_VERIFY_FAIL


def cmd_constrain(run: LoadedRun, args) -> int:
    if run.partial is None:
        raise ConfigError("constrain needs a [partial_spectrum] model")
    if len(run.partial.known) < 2:
        raise ConfigError("constrain needs at least two known eigenvalues")
    candidates = enumerate_candidates(run.partial, run.options.n_range)
    gammas = []
    for cand in candidates:
        if run.mean_energy_input is None:
            gammas.append([])
        else:
            gammas.append(gamma_candidates(cand, run.mean_energy_input,
                                           ps=run.partial))
    admissibility = []
    if candidates and run.trials:
        gauged = gauge_to_zero_phi(candidates[0], run.partial)
        admissibility = [(trial, constrain_unknown(gauged, trial))
                         for trial in run.trials]
    _emit(format_candidate_table(candidates, gammas, admissibility),
          args.out)
    return EXIT_OK


_COMMANDS = {"analyze": cmd_analyze, "verify": cmd_verify,
             "constrain": cmd_constrain}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        run = load_config(args.config, vars(args))
        return _COMMANDS[args.command](run, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (IncommensurableError, NonCyclicError) as exc:
        print(f"non-cyclic: {exc}", file=sys.stderr)
        return EXIT_NON_CYCLIC
    except NoReturnError as exc:
        print(f"oracle: {exc}", file=sys.stderr)
        return EXIT_NO_RETURN


if __name__ == "__main__":
    sys.exit(main())
