"""Reference checks for every benchmark call.

Each check reads the call's exit code and stdout and compares them with
values computed here from the generated inputs alone: exact periods from
rational spacings, closed-form geometric phases, and an independent
enumeration of the constraint candidates.  Nothing here calls the
program, so a wrong answer on the timed path cannot also pass its check.
Recorded stdout bytes are never compared: a change that fixes a wrong
answer may change them.

``check_call(call, exit_code, stdout, directory)`` returns ``None`` when
the call is correct and a one-line reason otherwise.
"""

from __future__ import annotations

import configparser
import math
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional

TWO_PI = 2.0 * math.pi
EXACT_GAMMA_TOL = 1e-8
APPROX_GAMMA_TOL = 5e-3
APPROX_DEFICIT_TOL = 1e-4
ORACLE_TOL = 1e-6


class CheckFailure(Exception):
    """An output disagrees with its reference."""


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailure(message)


def circ(a: float, b: float) -> float:
    """Distance between two angles mod 2*pi."""
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


def parse_sections(text: str) -> Dict[str, Dict[str, str]]:
    """{section: {key: value}} for "key: value" and "a | b | ..." lines."""
    sections: Dict[str, Dict[str, str]] = {}
    current: Dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("[") and line.endswith("]"):
            current = sections.setdefault(line[1:-1], {})
        elif " | " in line:
            head, _, rest = line.partition(" | ")
            current[head] = rest
        elif ": " in line:
            key, _, value = line.partition(": ")
            current[key] = value
    return sections


def _report(stdout: str) -> Dict[str, str]:
    sections = parse_sections(stdout)
    _expect("phase-report" in sections, "no [phase-report] section")
    return sections["phase-report"]


def _real(report: Dict[str, str], key: str) -> float:
    _expect(key in report, f"report lacks {key!r}")
    value = float(report[key])
    _expect(math.isfinite(value), f"{key} is not finite: {report[key]}")
    return value


def _rational(report: Dict[str, str], key: str) -> Fraction:
    _expect(key in report, f"report lacks {key!r}")
    try:
        return Fraction(report[key])
    except ValueError:
        raise CheckFailure(f"{key} is not rational: {report[key]!r}")


def _gamma_close(report: Dict[str, str], expected: float, tol: float) -> None:
    gamma = _real(report, "gamma")
    _expect(0.0 <= gamma < TWO_PI, f"gamma {gamma!r} outside [0, 2pi)")
    dev = circ(gamma, expected)
    _expect(dev <= tol, f"gamma {gamma!r} vs reference {expected!r} "
                        f"(dev {dev:.3e} > {tol:g})")


def _verify_passes(stdout: str) -> Dict[str, List[str]]:
    table = parse_sections(stdout).get("verify", {})
    _expect(table.get("verdict") == "pass",
            f"verify verdict {table.get('verdict')!r}")
    rows = {k: v.split(" | ") for k, v in table.items() if k != "verdict"}
    for name in ("tau-relative", "phi-mod-2pi", "gamma-mod-2pi"):
        _expect(name in rows, f"verify table lacks {name}")
        _expect(rows[name][-1] == "pass", f"verify row {name} failed")
        _expect(float(rows[name][2]) <= ORACLE_TOL,
                f"verify {name} delta {rows[name][2]} > {ORACLE_TOL:g}")
    return rows


# --- references -----------------------------------------------------------

def rational_gcd(values) -> Fraction:
    """Largest g > 0 with every value an integer multiple of g."""
    num, den = 0, 1
    for v in values:
        v = Fraction(v)
        num = math.gcd(num, v.numerator)
        den = den * v.denominator // math.gcd(den, v.denominator)
    return Fraction(num, den)


def exact_period_cycles(levels) -> Fraction:
    """Smallest T > 0 with T*(l_i - l_j) an integer for all pairs."""
    return 1 / rational_gcd([v - levels[0] for v in levels[1:]])


def exact_gamma(levels, weights, period: Fraction) -> float:
    """gamma/2pi = T*(<l> - l_0) mod 1, summed over integer windings."""
    total = math.fsum(weights)
    turns = math.fsum((w / total) * int((v - levels[0]) * period)
                      for v, w in zip(levels, weights))
    return TWO_PI * (turns - math.floor(turns))


def three_mirror_gamma(params: dict, p) -> float:
    """2 pi [1 + p <H>/(hbar omega_m)] mod 2 pi for a coherent product.

    <H> = |a|^2 (rho_D + 2 k_D Re mu) + |b|^2 (rho_S + k_S (1/2 + 2 Re(mu)^2))
          + |mu|^2, the closed form of the three-mirror model.
    """
    alpha = complex(*params["alpha"])
    beta = complex(*params["beta"])
    mu = complex(*params["mu"])
    rho_d, rho_s = float(Fraction(params["rho_D"])), float(Fraction(params["rho_S"]))
    k_d, k_s = float(Fraction(params["kappa_D"])), float(Fraction(params["kappa_S"]))
    bracket = (abs(alpha) ** 2 * (rho_d + 2.0 * k_d * mu.real)
               + abs(beta) ** 2 * (rho_s + k_s * (0.5 + 2.0 * mu.real ** 2))
               + abs(mu) ** 2)
    turns = math.fmod(1.0 + float(p) * bracket, 1.0)
    return TWO_PI * turns % TWO_PI


# --- per-kind checks ------------------------------------------------------

def _check_three_mirror_exact(check, stdout):
    report = _report(stdout)
    kappa = Fraction(check["kappa_D"])
    period = (kappa * kappa).denominator
    _expect(report.get("cyclicality") == "cyclic", "not reported cyclic")
    _expect(_rational(report, "tau-cycles") == period,
            f"tau-cycles {report.get('tau-cycles')} != {period}")
    _expect(_rational(report, "phi-over-pi") == 0,
            f"phi-over-pi {report.get('phi-over-pi')} != 0")
    _gamma_close(report, three_mirror_gamma(check, period), EXACT_GAMMA_TOL)


def _check_three_mirror_approx(check, stdout):
    report = _report(stdout)
    deficit = 1.0 - _real(report, "fidelity")
    _expect(0.0 <= deficit <= APPROX_DEFICIT_TOL,
            f"fidelity deficit {deficit:.3e} > {APPROX_DEFICIT_TOL:g}")
    _gamma_close(report, three_mirror_gamma(check, 1), APPROX_GAMMA_TOL)


def _check_verify_pass(check, stdout):
    rows = _verify_passes(stdout)
    kappa = Fraction(check["kappa_D"])
    period = (kappa * kappa).denominator
    tau = float(rows["tau-relative"][0])
    _expect(abs(tau - TWO_PI * period) <= 1e-12 * TWO_PI * period,
            f"exact tau {tau!r} != 2pi*{period}")
    gamma = float(rows["gamma-mod-2pi"][0])
    dev = circ(gamma, three_mirror_gamma(check, period))
    _expect(dev <= EXACT_GAMMA_TOL, f"exact gamma dev {dev:.3e}")


def _raw_reference(check):
    levels = [Fraction(v) for v in check["levels"]]
    weights = [abs(complex(*a)) ** 2 for a in check["amplitudes"]]
    period = exact_period_cycles(levels)
    return levels, weights, period


def _check_raw_analyze(check, stdout):
    levels, weights, period = _raw_reference(check)
    report = _report(stdout)
    _expect(report.get("cyclicality") == "cyclic", "not reported cyclic")
    _expect(_rational(report, "tau-cycles") == period,
            f"tau-cycles {report.get('tau-cycles')} != {period}")
    phi = _rational(report, "phi-over-pi")
    _expect((phi + 2 * period * levels[0]) % 2 == 0,
            f"phi-over-pi {phi} is not -2*T*l0 mod 2")
    _gamma_close(report, exact_gamma(levels, weights, period),
                 EXACT_GAMMA_TOL)


def _check_raw_verify(check, stdout):
    levels, weights, period = _raw_reference(check)
    rows = _verify_passes(stdout)
    tau = float(rows["tau-relative"][0])
    _expect(abs(tau - TWO_PI * float(period)) <= 1e-12 * tau,
            f"exact tau {tau!r} != 2pi*{period}")
    dev = circ(float(rows["gamma-mod-2pi"][0]),
               exact_gamma(levels, weights, period))
    _expect(dev <= EXACT_GAMMA_TOL, f"exact gamma dev {dev:.3e}")


def _table_rows(stdout: str) -> Dict[str, List[List[str]]]:
    """Data rows of each delimited table, keyed by section name."""
    tables: Dict[str, List[List[str]]] = {}
    rows: List[List[str]] = []
    for line in stdout.splitlines():
        if line.startswith("[") and line.endswith("]"):
            rows = tables.setdefault(line[1:-1], [])
        elif " | " in line:
            rows.append(line.split(" | "))
    # drop each table's column-header row
    return {name: body[1:] for name, body in tables.items()}


def _check_constrain(check, stdout):
    l1, l2 = (Fraction(v) for v in check["known"])
    n_range = check["n_range"]
    mean = Fraction(check["mean_energy"])
    tables = _table_rows(stdout)
    _expect("candidates" in tables, "no [candidates] table")
    denom = l1 - l2
    classes = set()
    for n in range(-n_range, n_range + 1):
        for m in range(-n_range, n_range + 1):
            tau = Fraction(n - m) / denom
            if n != m and tau > 0:
                classes.add(((l1 * m - l2 * n) / denom % 1, tau))
    rows = tables["candidates"]
    _expect(len(rows) == len(classes),
            f"{len(rows)} candidate rows, reference has {len(classes)}")
    seen = set()
    previous = None
    for n_s, m_s, phi_s, tau_s, gam_s in rows:
        n, m = int(n_s), int(m_s)
        phi, tau = Fraction(phi_s), Fraction(tau_s)
        where = f"row n={n} m={m}"
        _expect(tau == Fraction(n - m) / denom, f"{where}: tau relation")
        _expect(phi / 2 == (l1 * m - l2 * n) / denom,
                f"{where}: phase relation")
        _expect(-1 < phi <= 1, f"{where}: phi not in (-1, 1]")
        key = (phi / 2 % 1, tau)
        _expect(key in classes and key not in seen,
                f"{where}: unknown or repeated class")
        seen.add(key)
        order = (tau, abs(n) + abs(m), phi)
        _expect(previous is None or previous <= order, f"{where}: out of order")
        previous = order
        shift = (l1 * m - l2 * n) / (n - m)
        base = l1 + shift if n != 0 else l2 + shift
        ratio = (mean + shift) / base
        gammas = [float(g) for g in gam_s.split()]
        _expect(len(gammas) == ratio.denominator,
                f"{where}: {len(gammas)} gamma values, reference "
                f"{ratio.denominator}")
        own = TWO_PI * float((mean + shift) * tau % 1)
        _expect(circ(gammas[0], own) <= 1e-12,
                f"{where}: own-branch gamma {gammas[0]!r} != {own!r}")
        _expect(all(0.0 <= g < TWO_PI for g in gammas),
                f"{where}: gamma outside [0, 2pi)")
    # admissibility is judged in the gauge of the minimal candidate
    n, m = int(rows[0][0]), int(rows[0][1])
    tau = Fraction(rows[0][3])
    shift = (l1 * m - l2 * n) / (n - m)
    reported = {Fraction(t): ok for t, ok in tables.get("admissibility", [])}
    for trial_s in check["trials"]:
        trial = Fraction(trial_s)
        expected = "yes" if ((trial + shift) * tau).denominator == 1 else "no"
        _expect(reported.get(trial) == expected,
                f"trial {trial_s}: {reported.get(trial)!r} != {expected!r}")


def _complex(text: str) -> complex:
    """Config complex syntax "re+im i" (or a bare real) as a complex."""
    text = text.replace(" ", "")
    return complex(text[:-1] + "j" if text.endswith("i") else text)


def _shipped_reference(name: str, section: configparser.SectionProxy):
    """(tau_cycles or None, gamma, tolerance) for a shipped config."""
    if name == "spin_half":
        theta = float(section["theta"])
        return None, math.pi * (1.0 - math.cos(theta)), EXACT_GAMMA_TOL
    if name == "free_field_coherent":
        alpha = _complex(section["alpha"])
        return Fraction(1), TWO_PI * (abs(alpha) ** 2 % 1), EXACT_GAMMA_TOL
    if name == "free_field_fock":
        ns = [int(t) for t in section["occupied_n"].split()]
        amps = [_complex(a) for a in section["amplitudes"].split(";")]
        levels = [Fraction(n) for n in ns]
        weights = [abs(a) ** 2 for a in amps]
        period = exact_period_cycles(levels)
        return period, exact_gamma(levels, weights, period), EXACT_GAMMA_TOL
    if name == "raw_spectrum":
        levels = [Fraction(v) for v in section["levels"].split()]
        weights = [abs(float(a)) ** 2 for a in section["amplitudes"].split(";")]
        period = exact_period_cycles(levels)
        return period, exact_gamma(levels, weights, period), EXACT_GAMMA_TOL
    if name == "two_mirror":
        r, k2 = Fraction(section["r"]), Fraction(section["k_squared"])
        amps = [float(a) for a in section["field_amplitudes"].split(";")]
        beta = _complex(section["beta"])
        nbar = math.fsum(n * a * a for n, a in enumerate(amps))
        p = k2.denominator
        turns = 1.0 + p * ((float(r) - 2.0 * math.sqrt(k2) * beta.real) * nbar
                           + abs(beta) ** 2)
        return Fraction(p), TWO_PI * math.fmod(turns, 1.0), EXACT_GAMMA_TOL
    if name in ("three_mirror_exact", "three_mirror_approximate"):
        unit = Fraction(section.get("omega_m", "1"))
        params = {key: str(Fraction(section[src]) / unit) for key, src in
                  (("rho_D", "omega_D"), ("rho_S", "omega_S"),
                   ("kappa_D", "C_D"), ("kappa_S", "C_S"))}
        for key in ("alpha", "beta", "mu"):
            z = _complex(section[key])
            params[key] = [z.real, z.imag]
        if name == "three_mirror_exact":
            return Fraction(1), three_mirror_gamma(params, 1), EXACT_GAMMA_TOL
        return None, three_mirror_gamma(params, 1), APPROX_GAMMA_TOL
    if name == "dense_matrix":
        return None, math.pi, ORACLE_TOL
    raise CheckFailure(f"no reference for shipped config {name!r}")


def _check_shipped(check, stdout, directory: Path):
    name = check["name"]
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                   interpolation=None)
    cp.read(directory / f"{name}.ini")
    model = cp["run"]["model"].strip()
    if check["command"] == "verify":
        _verify_passes(stdout)
        return
    if check["command"] == "constrain":
        section = cp[model]
        _check_constrain({"known": section["known"].split(),
                          "trials": section["trials"].split(),
                          "mean_energy": section["mean_energy"],
                          "n_range": 8}, stdout)
        return
    period, gamma, tol = _shipped_reference(name, cp[model])
    report = _report(stdout)
    if period is not None:
        _expect(_rational(report, "tau-cycles") == period,
                f"tau-cycles {report.get('tau-cycles')} != {period}")
    if name == "three_mirror_approximate":
        deficit = 1.0 - _real(report, "fidelity")
        _expect(0.0 <= deficit <= APPROX_DEFICIT_TOL,
                f"fidelity deficit {deficit:.3e}")
    if name == "dense_matrix":
        _expect(abs(_real(report, "tau") - math.pi) <= ORACLE_TOL,
                f"tau {report.get('tau')} != pi")
    _gamma_close(report, gamma, tol)


def _check_non_cyclic(check, stdout):
    report = _report(stdout)
    _expect(report.get("cyclicality") == "non-cyclic",
            "three incommensurable levels not reported non-cyclic")


def _check_no_output(check, stdout):
    _expect(stdout == "", "error path wrote a report to stdout")


_CHECKS = {
    "three-mirror-exact": _check_three_mirror_exact,
    "three-mirror-approx": _check_three_mirror_approx,
    "verify-pass": _check_verify_pass,
    "raw-analyze": _check_raw_analyze,
    "raw-verify": _check_raw_verify,
    "constrain": _check_constrain,
    "non-cyclic": _check_non_cyclic,
    "no-output": _check_no_output,
}


def check_call(call: dict, exit_code, stdout: str,
               directory: Path) -> Optional[str]:
    """None when the call's outcome matches its reference, else why not."""
    if exit_code != call["exit"]:
        return f"exit code {exit_code!r}, expected {call['exit']}"
    check = call["check"]
    try:
        if check["kind"] == "shipped":
            _check_shipped(check, stdout, directory)
        else:
            _CHECKS[check["kind"]](check, stdout)
    except CheckFailure as exc:
        return str(exc)
    except (ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
        return f"unparseable output ({type(exc).__name__}: {exc})"
    return None
