"""Command-line front end: analyze, verify, and constrain commands.

Exit codes: 0 success (verify: all comparisons pass; -h or --help: the
usage line), 1 verify found a disagreement, 2 physical impossibility
(non-cyclic state, stationary state at eigenvalue 0, irrational
constraint input), 3 oracle found no return within t_max or its grid
would need more than 2^21 steps for the occupied frequency spread, 64
usage errors (one stderr line "usage error: ..." naming the word) or
configuration errors (among them a constrain call with n_range above
MAX_N_RANGE = 1000, or whose candidates would list more than
MAX_GAMMA_VALUES = 10^6 gamma values, an --out path or a stdout that
cannot be written, and an --out path that names the config file).
"""

from __future__ import annotations

import math
import os
import re
import sys
from typing import Optional, Sequence, Tuple

from .config import FLAGS, ConfigError, LoadedRun, load_config
from .constraints import constrain_unknown, enumerate_candidates, \
    gamma_candidates, gamma_count, gauge_to_zero_phi
from .engine import NonCyclicError, check_cyclicality, geometric_phase
from .oracle import NoReturnError, generic_gamma
from .rational import IncommensurableError
from .report import format_candidate_table, format_phase_report, \
    format_real, format_verify_table

__all__ = ["main"]

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_NON_CYCLIC = 2
EXIT_NO_RETURN = 3
EXIT_USAGE = 64
# largest disagreement in tau (relative), phi and gamma (rad) verify passes
VERIFY_TOL = 1e-6
# most gamma values one constrain call may list, over all its candidates
MAX_GAMMA_VALUES = 10 ** 6
MAX_N_RANGE = 1000   # largest n_range constrain takes (2*n_range rows)


def _emit(text: str, out_path: Optional[str]) -> None:
    try:
        if out_path:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:       # flushed here, so a full device fails inside the guard
            print(text, end="", flush=True)
    except OSError as exc:
        if not out_path:    # what stays buffered goes nowhere at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise ConfigError(f"cannot write {out_path or '<stdout>'}: "
                          f"{exc.strerror or exc}") from exc


def cmd_analyze(run: LoadedRun, out: Optional[str]) -> int:
    if run.spectrum is None or run.state is None:
        if run.build is None:
            raise ConfigError(f"analyze needs a spectrum or a matrix; a "
                              f"{run.model} run has neither")
        if run.t_max is None:
            raise ConfigError("t_max required for the brute-force route")
        # off its exact family a three-mirror run has no exact return
        report = generic_gamma(*run.dense(), run.t_max,
                               approximate=run.model == "three_mirror")
        _emit(format_phase_report(report), out)
        return EXIT_OK
    verdict = check_cyclicality(run.spectrum, run.state)
    if verdict.kind == "non-cyclic":
        _emit(format_phase_report(None, verdict), out)
        print(f"non-cyclic: {verdict.reason}", file=sys.stderr)
        return EXIT_NON_CYCLIC
    _emit(format_phase_report(_finite(_exact(run)), verdict), out)
    return EXIT_OK


def _exact(run: LoadedRun):
    """The exact route's report; a number past the float range in it is
    a config error, as an infinite tau is."""
    try:
        return geometric_phase(run.spectrum, run.state)
    except OverflowError as exc:   # huge levels or branch integers
        raise ConfigError(f"the exact route leaves the float range: {exc}")


def _finite(report):
    if report.tau_cycles == math.inf:
        raise NonCyclicError(
            "no finite period: the single occupied eigenvalue is zero")
    if not report.tau < math.inf:
        raise ConfigError(f"tau is not finite at unit = {report.unit!r}")
    if not abs(report.mean_energy) < math.inf:
        raise ConfigError(
            f"mean energy is not finite at unit = {report.unit!r}")
    return report


def _mod_distance(a: float, b: float) -> float:
    """Distance between two angles mod 2*pi."""
    d = abs(math.fmod(a - b, 2.0 * math.pi))
    return 2.0 * math.pi - d if d > math.pi else d


def cmd_verify(run: LoadedRun, out: Optional[str]) -> int:
    if run.spectrum is None or run.state is None or run.build is None:
        raise ConfigError("verify needs a model with both an exact "
                          "spectrum and a dense matrix form")
    verdict = check_cyclicality(run.spectrum, run.state)
    if verdict.kind != "cyclic":
        raise ConfigError(f"nothing to verify for a {verdict.kind} state")
    exact = _exact(run)
    t_max = run.t_max or 2.2 * exact.tau    # t_max > 0 when set
    if not t_max < math.inf:
        raise ConfigError("t_max required: 2.2 periods is not finite")
    _finite(exact)
    oracle = generic_gamma(*run.dense(), t_max)
    rows = []
    for name, want, got in (("tau-relative", exact.tau, oracle.tau),
                            ("phi-mod-2pi", exact.phi, oracle.phi),
                            ("gamma-mod-2pi", exact.gamma, oracle.gamma)):
        delta = (abs(got - want) / want if name == "tau-relative"
                 else _mod_distance(got, want))
        rows.append((name, format_real(want), format_real(got), delta,
                     delta <= VERIFY_TOL))
    _emit(format_verify_table(rows), out)
    return EXIT_OK if all(ok for *_, ok in rows) else EXIT_VERIFY_FAIL


def cmd_constrain(run: LoadedRun, out: Optional[str]) -> int:
    if run.partial is None:
        raise ConfigError("constrain needs a [partial_spectrum] model")
    if len(run.partial.levels) < 2:
        raise ConfigError("constrain needs at least two known eigenvalues")
    if run.n_range > MAX_N_RANGE:
        raise ConfigError(f"n_range must be <= {MAX_N_RANGE} for constrain")
    candidates = enumerate_candidates(run.partial, run.n_range)
    if run.mean_energy_input is not None and sum(
            gamma_count(cand, run.mean_energy_input, run.partial)
            for cand in candidates) > MAX_GAMMA_VALUES:
        raise ConfigError(
            f"constrain would list more than {MAX_GAMMA_VALUES} gamma "
            f"values over its {len(candidates)} candidates")
    gammas = [[] if run.mean_energy_input is None else gamma_candidates(
        cand, run.mean_energy_input, ps=run.partial) for cand in candidates]
    admissibility = []
    if candidates and run.trials:
        gauged = gauge_to_zero_phi(candidates[0], run.partial)
        admissibility = [(trial, constrain_unknown(gauged, trial))
                         for trial in run.trials]
    _emit(format_candidate_table(candidates, gammas, admissibility), out)
    return EXIT_OK


_COMMANDS = {"analyze": cmd_analyze, "verify": cmd_verify,
             "constrain": cmd_constrain}

USAGE = ("usage: aaphase {analyze,verify,constrain} --config <path> "
         "[--out <path>] [--t-max <float>] [--n-range <int>]\n")
_CASTS = {"config": str, "out": str, **FLAGS}    # every command's options
# flag spellings: -h, and each prefix that one flag's name alone has
_SPELLINGS = {"-h": "help", **{
    "--" + key[:i].replace("_", "-"): key for key in ("help", *_CASTS)
    for i in range(1, len(key) + 1)
    if sum(other.startswith(key[:i]) for other in ("help", *_CASTS)) == 1}}


class UsageError(ConfigError):
    """A malformed command line: exit 64 with one "usage error:" line."""


def _flag(token: str) -> Optional[Tuple[str, Optional[str]]]:
    """(option, text after "=" or None) for a flag token, ("", None) for
    an unknown one, None for a value: argparse's rules for these flags."""
    head, eq, value = token.partition("=")
    if head in _SPELLINGS:
        return _SPELLINGS[head], value if eq else None
    if token[:1] != "-" or token == "-" or not token.startswith("-h") and (
            " " in token or re.match(r"-\d+$|-\d*\.\d+$", token)):
        return None
    return "", None


def _parse(argv: Sequence[str]):
    """(command, {option: value}) read from ``argv`` in one pass, the last
    of a repeated flag winning; (None, None) for -h or --help."""
    tokens = iter(argv)
    command = next(tokens, "")
    if _flag(command) == ("help", None):
        return None, None
    if command not in _COMMANDS:
        raise UsageError(f"{command!r} is not analyze, verify or constrain")
    options = dict.fromkeys(_CASTS)
    for token in tokens:
        key, value = _flag(token) or ("", None)
        if (key, value) == ("help", None):
            return None, None
        if not _CASTS.get(key):
            raise UsageError(f"unrecognized argument {token!r}")
        # the next token is the value unless it is a flag; "--" never is
        if value is None and _flag(value := next(tokens, "--")):
            raise UsageError(f"{token} expects a value")
        try:
            options[key] = _CASTS[key](value)
        except ValueError:
            raise UsageError(f"invalid value {value!r} for {token}") from None
    if options["config"] is None:
        raise UsageError("--config <path> is required")
    return command, options


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        command, options = _parse(sys.argv[1:] if argv is None else argv)
        if command is None:
            _emit(USAGE, None)
            return EXIT_OK
        config, out = options["config"], options["out"]
        run = load_config(config, options)
        if out and os.path.exists(out) and os.path.samefile(out, config):
            raise ConfigError(f"--out {out!r} is the config file")
        return _COMMANDS[command](run, out)
    except ConfigError as exc:
        kind = "usage" if isinstance(exc, UsageError) else "config"
        print(f"{kind} error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (IncommensurableError, NonCyclicError) as exc:
        print(f"non-cyclic: {exc}", file=sys.stderr)
        return EXIT_NON_CYCLIC
    except NoReturnError as exc:
        print(f"oracle: {exc}", file=sys.stderr)
        return EXIT_NO_RETURN


if __name__ == "__main__":
    sys.exit(main())
