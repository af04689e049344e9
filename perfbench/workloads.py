"""Seeded input generator for the four benchmark workloads.

``generate(workload, seed, directory)`` writes INI configs into
``directory`` and returns the call list: one entry per ``aaphase`` CLI
call, with its argv, its expected exit code and the parameters its
reference check needs.  A seed changes values (amplitude phases,
couplings, rationals) but never the call mix, the truncations or any
other input size, so every seed asks the program for the same amount of
work.

Only the standard library is used here: input generation is part of the
measured set-up time and must not import the program.
"""

from __future__ import annotations

import cmath
import math
import random
import shutil
from fractions import Fraction
from pathlib import Path
from typing import Dict, List

WORKLOADS = ("exact-analyze", "oracle-approx", "verify-long-period",
             "config-sweep")

# Shipped configs and the commands their headers document.
SHIPPED_CALLS = (
    ("dense_matrix.ini", "analyze", ()),
    ("free_field_coherent.ini", "analyze", ()),
    ("free_field_coherent.ini", "verify", ()),
    ("free_field_fock.ini", "analyze", ()),
    ("partial_spectrum.ini", "constrain", ("--n-range", "8")),
    ("raw_spectrum.ini", "analyze", ()),
    ("raw_spectrum.ini", "verify", ()),
    ("spin_half.ini", "analyze", ()),
    ("spin_half.ini", "verify", ()),
    ("three_mirror_approximate.ini", "analyze", ()),
    ("three_mirror_exact.ini", "analyze", ()),
    ("three_mirror_exact.ini", "verify", ()),
    ("two_mirror.ini", "analyze", ()),
    ("two_mirror.ini", "verify", ()),
)

RAW_ANALYZE_CALLS = 40
RAW_VERIFY_CALLS = 40
CONSTRAIN_CALLS = 20
CONSTRAIN_N_RANGE = 6


def fmt_complex(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g} i"


def _polar(rng: random.Random, magnitude: float) -> complex:
    return cmath.rect(magnitude, rng.uniform(-math.pi, math.pi))


def _conjugate_or_not(rng: random.Random, z: complex) -> complex:
    return z.conjugate() if rng.random() < 0.5 else z


def _unit_amplitudes(rng: random.Random, n: int) -> List[complex]:
    amps = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)]
    norm = math.sqrt(math.fsum(abs(a) ** 2 for a in amps))
    return [a / norm for a in amps]


def _bounded_amplitudes(rng: random.Random, n: int) -> List[complex]:
    """Unit state whose magnitudes before normalisation lie in [0.5, 1].

    Every weight is then at least 1/(1 + 4(n-1)): 0.2 for two levels,
    about 0.06 for five.  The oracle's golden-section refinement cannot
    place a nearly flat fidelity peak to verify's 1e-6 tolerance when a
    weight is about 1 % (see the known defect in README.md), so verify
    calls draw their states from this domain.
    """
    amps = [_polar(rng, rng.uniform(0.5, 1.0)) for _ in range(n)]
    norm = math.sqrt(math.fsum(abs(a) ** 2 for a in amps))
    return [a / norm for a in amps]


def _ini(model: str, section: Dict[str, str],
         options: Dict[str, str] = None) -> str:
    lines = ["[run]", f"model = {model}", "", f"[{model}]"]
    lines += [f"{k} = {v}" for k, v in section.items()]
    if options:
        lines += ["", "[options]"] + [f"{k} = {v}" for k, v in options.items()]
    return "\n".join(lines) + "\n"


class _Writer:
    """Writes configs into one directory and collects the call list."""

    def __init__(self, directory: Path):
        self.directory = directory
        self.calls: List[dict] = []

    def config(self, name: str, text: str) -> str:
        (self.directory / name).write_text(text, encoding="utf-8")
        return name

    def call(self, cid: str, command: str, config: str, check: dict,
             extra=(), exit_code: int = 0) -> None:
        self.calls.append({
            "id": cid,
            "argv": [command, "--config", config, *extra],
            "config": config,
            "exit": exit_code,
            "check": check,
        })


def _three_mirror(w: _Writer, name: str, *, c_d, c_s: str,
                  alpha: complex, beta: complex, mu: complex,
                  truncations, options=None) -> str:
    section = {
        "omega_D": "2", "omega_S": "3", "omega_m": "1",
        "C_D": str(c_d),
        "C_S": c_s,
        "alpha": fmt_complex(alpha), "beta": fmt_complex(beta),
        "mu": fmt_complex(mu),
        "truncations": " ".join(str(t) for t in truncations),
    }
    return w.config(name, _ini("three_mirror", section, options))


def _tm_check(kind: str, c_d, c_s, alpha, beta, mu) -> dict:
    return {"kind": kind, "rho_D": "2", "rho_S": "3",
            "kappa_D": str(c_d), "kappa_S": str(c_s),
            "alpha": [alpha.real, alpha.imag], "beta": [beta.real, beta.imag],
            "mu": [mu.real, mu.imag]}


def _exact_analyze(w: _Writer, rng: random.Random) -> None:
    # C_S = 0, C_D = 1/10: tau = 100 cycles, 602 distinct values among the
    # 2880 levels of (12, 12, 20), all occupied.  The engine's work does
    # not depend on the amplitudes, so their phases are seeded freely.
    c_d = Fraction(1, 10)
    alpha, beta, mu = (_polar(rng, 0.7), _polar(rng, 0.5), _polar(rng, 0.5))
    cfg = _three_mirror(w, "exact.ini", c_d=c_d, c_s="0", alpha=alpha,
                        beta=beta, mu=mu, truncations=(12, 12, 20))
    w.call("exact-analyze", "analyze", cfg,
           _tm_check("three-mirror-exact", c_d, 0, alpha, beta, mu))


# The oracle's work grows with the number of occupied eigenstates.  The
# Hamiltonian is real and diagonal in the two cavity photon numbers, so
# those weights do not change with the phases of alpha and beta or with
# the sign of Im(mu); the oracle workloads seed only these (and the
# couplings), which keeps their work fixed across seeds.

def _oracle_approx(w: _Writer, rng: random.Random) -> None:
    # C_S != 0 keeps the model outside the exact family; couplings around
    # 1e-3 and amplitudes as in three_mirror_approximate.ini.
    kappa = round(rng.uniform(0.8e-3, 1.2e-3), 6)
    alpha, beta, mu = (_polar(rng, 0.7), _polar(rng, 0.5),
                       _conjugate_or_not(rng, 0.6 + 0.2j))
    cfg = _three_mirror(w, "approx.ini", c_d=repr(kappa), c_s=repr(kappa),
                        alpha=alpha, beta=beta, mu=mu,
                        truncations=(12, 12, 20), options={"t_max": "13.9"})
    w.call("oracle-approx", "analyze", cfg,
           _tm_check("three-mirror-approx", kappa, kappa, alpha, beta, mu))


def _verify_long_period(w: _Writer, rng: random.Random) -> None:
    # C_D = 1/5: tau = 25 cycles, so the oracle scans 55 cycles.  With the
    # amplitudes of configs/three_mirror_exact.ini, truncations (12, 10, 14)
    # make verify exit 3 (the mirror truncation distorts the dense
    # spectrum); a mirror truncation of 20 is adequate here.
    c_d = Fraction(1, 5)
    alpha, beta, mu = (_polar(rng, 0.2), _polar(rng, 0.2),
                       _conjugate_or_not(rng, 0.06 + 0.08j))
    cfg = _three_mirror(w, "long.ini", c_d=c_d, c_s="0", alpha=alpha,
                        beta=beta, mu=mu, truncations=(10, 8, 20))
    w.call("verify-long-period", "verify", cfg,
           _tm_check("verify-pass", c_d, 0, alpha, beta, mu))


def _raw_levels(rng: random.Random, count: int, q: int) -> List[Fraction]:
    """Distinct levels p/q, |p| <= 9, whose spacings have gcd 1/q.

    The period is then exactly q cycles for every seed, which fixes the
    oracle's grid length per call.
    """
    while True:
        nums = rng.sample(range(-9, 10), count)
        g = 0
        for p in nums[1:]:
            g = math.gcd(g, p - nums[0])
        if g == 1:
            return [Fraction(p, q) for p in nums]


def _raw_config(w: _Writer, name: str, levels, amps) -> str:
    section = {"levels": " ".join(str(v) for v in levels),
               "amplitudes": "; ".join(fmt_complex(a) for a in amps),
               "unit": "1"}
    return w.config(name, _ini("raw_spectrum", section))


def _raw_check(kind: str, levels, amps) -> dict:
    return {"kind": kind, "levels": [str(v) for v in levels],
            "amplitudes": [[a.real, a.imag] for a in amps]}


def _random_rational(rng: random.Random, allow_zero: bool = True) -> Fraction:
    while True:
        p = rng.randint(-9, 9)
        if p or allow_zero:
            return Fraction(p, rng.randint(1, 9))


def _config_sweep(w: _Writer, rng: random.Random, configs: Path) -> None:
    for index, (name, command, extra) in enumerate(SHIPPED_CALLS):
        source = configs / name
        if not source.is_file():
            raise FileNotFoundError(f"shipped config {source} is missing")
        shutil.copyfile(source, w.directory / name)
        w.call(f"shipped-{index:02d}-{name[:-4]}-{command}", command, name,
               {"kind": "shipped", "name": name[:-4], "command": command},
               extra)

    # documented error paths
    w.call("error-analyze-partial", "analyze", "partial_spectrum.ini",
           {"kind": "no-output"}, exit_code=64)
    decimals = []
    while len(decimals) < 3:
        x = round(rng.uniform(0.1, 3.0), 10)
        if abs(Fraction(x).limit_denominator(1000) - Fraction(x)) > 1e-6:
            decimals.append(x)
    cfg = w.config("incommensurable.ini", _ini("raw_spectrum", {
        "levels": " ".join(repr(x) for x in decimals),
        "amplitudes": "; ".join(fmt_complex(a)
                                for a in _unit_amplitudes(rng, 3))}))
    w.call("error-incommensurable", "analyze", cfg,
           {"kind": "non-cyclic"}, exit_code=2)
    a, d, b = (rng.uniform(0.5, 2.0) for _ in range(3))
    gap = math.sqrt((a - d) ** 2 + 4 * b * b)
    cfg = w.config("short_horizon.ini", _ini(
        "dense_matrix",
        {"dimension": "2", "entries": f"{a!r}, {b!r}, {b!r}, {d!r}",
         "psi0": "1, 0"},
        {"t_max": repr(0.3 * 2 * math.pi / gap)}))
    w.call("error-short-horizon", "analyze", cfg, {"kind": "no-output"},
           exit_code=3)

    # small raw spectra: 2-5 levels p/q with |p|, q <= 9
    for kind, count in (("analyze", RAW_ANALYZE_CALLS),
                        ("verify", RAW_VERIFY_CALLS)):
        for slot in range(count):
            levels = _raw_levels(rng, 2 + slot % 4, 1 + slot % 9)
            amps = (_unit_amplitudes(rng, len(levels)) if kind == "analyze"
                    else _bounded_amplitudes(rng, len(levels)))
            cfg = _raw_config(w, f"raw_{kind}_{slot:02d}.ini", levels, amps)
            w.call(f"raw-{kind}-{slot:02d}", kind, cfg,
                   _raw_check(f"raw-{kind}", levels, amps))

    # partial spectra for the constraint solver.  Its work follows the
    # denominators of the gauged ratios <H'>/lam1', and drawing the known
    # pair and the mean energy from the seed made the work of the 20
    # calls vary by 3.5x between seeds.  They come from a fixed stream;
    # the seed draws the trial eigenvalues, which only the cheap
    # admissibility test reads.  This stream asks for 17109 gamma values,
    # 4902 in its largest call: near the medians (18670 and 4680) of the
    # per-seed draws over seeds 0-39.
    fixed = random.Random("config-sweep:constrain:1")
    for slot in range(CONSTRAIN_CALLS):
        l1 = _random_rational(fixed)
        l2 = l1
        while l2 == l1:
            l2 = _random_rational(fixed)
        mean = _random_rational(fixed)
        trials = [_random_rational(rng) for _ in range(3)]
        cfg = w.config(f"partial_{slot:02d}.ini", _ini("partial_spectrum", {
            "known": f"{l1} {l2}",
            "trials": " ".join(str(t) for t in trials),
            "mean_energy": str(mean)}))
        w.call(f"constrain-{slot:02d}", "constrain", cfg,
               {"kind": "constrain", "known": [str(l1), str(l2)],
                "trials": [str(t) for t in trials],
                "mean_energy": str(mean),
                "n_range": CONSTRAIN_N_RANGE},
               ("--n-range", str(CONSTRAIN_N_RANGE)))


def generate(workload: str, seed: int, directory: Path,
             configs: Path) -> List[dict]:
    """Write the workload's configs for ``seed`` and return its calls.

    ``configs`` is the repository's ``configs/`` directory; only the
    config sweep reads it.  Config paths in the returned argv are
    relative to ``directory``.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    w = _Writer(directory)
    if workload == "exact-analyze":
        _exact_analyze(w, rng)
    elif workload == "oracle-approx":
        _oracle_approx(w, rng)
    elif workload == "verify-long-period":
        _verify_long_period(w, rng)
    else:
        _config_sweep(w, rng, configs)
    return w.calls
