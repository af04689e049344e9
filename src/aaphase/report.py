"""Structured text reports: key-value sections and delimited tables.

One fixed, timestamp-free format so identical inputs produce
byte-identical files; rationals appear as "p/q", reals at 17 significant
digits, which round-trips IEEE doubles exactly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence, Tuple, Union

from .constraints import CyclicityCandidate
from .engine import Cyclicality, PhaseReport
from .rational import format_rational

__all__ = [
    "format_candidate_table",
    "format_phase_report",
    "format_real",
    "format_verify_table",
]

DELIM = " | "


def format_real(x: float) -> str:
    return f"{x:.17g}"


def _rational_or_real(value: Union[Fraction, float, None]) -> str:
    if value is None:
        return "none"
    if isinstance(value, Fraction):
        return format_rational(value)
    return format_real(value)


def format_phase_report(report: PhaseReport,
                        cyclicality: Optional[Cyclicality] = None) -> str:
    """Serialize a PhaseReport (with optional cyclicality verdict)."""
    lines = ["[phase-report]"]
    if cyclicality is not None:
        lines.append(f"cyclicality: {cyclicality.kind}")
        if cyclicality.reason:
            lines.append(f"reason: {cyclicality.reason}")
    lines.append(f"method: {report.method}")
    lines.append(f"unit: {format_real(report.unit)}")
    lines.append(f"stationary: {'yes' if report.stationary else 'no'}")
    lines.append(f"tau-cycles: {_rational_or_real(report.tau_cycles)}")
    lines.append(f"tau: {format_real(report.tau)}")
    phi_pi = report.phi_over_pi
    lines.append(f"phi-over-pi: {_rational_or_real(phi_pi)}")
    lines.append(f"phi: {format_real(report.phi)}")
    lines.append(f"gamma: {format_real(report.gamma)}")
    lines.append(f"mean-energy: {format_real(report.mean_energy)}")
    if report.fidelity is not None:
        lines.append(f"fidelity: {format_real(report.fidelity)}")
    if report.branch_integers:
        lines.append("[branch-integers]")
        for label, n in report.branch_integers.items():
            lines.append(f"{label}: {n}")
    return "\n".join(lines) + "\n"


def format_verify_table(rows: Sequence[Tuple[str, str, str, float, bool]]) -> str:
    """Rows of (quantity, exact, oracle, |delta|, pass)."""
    lines = ["[verify]", DELIM.join(("quantity", "exact", "oracle",
                                     "abs-delta", "pass"))]
    for name, exact, oracle, delta, ok in rows:
        lines.append(DELIM.join((name, exact, oracle, format_real(delta),
                                 "pass" if ok else "FAIL")))
    verdict = all(ok for *_, ok in rows)
    lines.append(f"verdict: {'pass' if verdict else 'FAIL'}")
    return "\n".join(lines) + "\n"


def format_candidate_table(
        candidates: Sequence[CyclicityCandidate],
        gammas: Sequence[Sequence[float]],
        admissibility: Sequence[Tuple[Fraction, bool]] = ()) -> str:
    """Candidate rows plus trial-eigenvalue admissibility flags.

    gamma values are per-candidate lists (space-separated in the cell);
    admissibility refers to the minimal-tau candidate's gauge.
    """
    lines = ["[candidates]",
             DELIM.join(("n", "m", "phi (pi units)",
                         "tau (2*pi*hbar/unit units)", "gamma candidates"))]
    for cand, gs in zip(candidates, gammas):
        # one format operation per cell, the bytes of format_real per value
        cell = ("%.17g " * len(gs))[:-1] % tuple(gs) if gs else "none"
        lines.append(DELIM.join((str(cand.n), str(cand.m),
                                 format_rational(cand.phi_over_pi),
                                 format_rational(cand.tau_cycles), cell)))
    if admissibility:
        lines.append("[admissibility]")
        lines.append(DELIM.join(("trial", "admissible")))
        for trial, ok in admissibility:
            lines.append(DELIM.join((format_rational(trial),
                                     "yes" if ok else "no")))
    return "\n".join(lines) + "\n"
