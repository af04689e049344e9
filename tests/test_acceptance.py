"""Acceptance checks, one test per criterion.

Each test measures first and records a single visible verdict line
(echoed immediately and again in the terminal summary), then asserts;
a failed criterion therefore still prints its measured numbers.
"""

import math
import time
from fractions import Fraction

import numpy as np

from conftest import (
    ACCEPTANCE_LINES,
    circ,
    exact_spectrum,
    level,
    random_exact_fixture,
    random_fraction,
)
from aaphase.constraints import (
    constrain_unknown,
    enumerate_candidates,
    gauge_to_zero_phi,
)
from aaphase.engine import Spectrum, StateDecomposition, geometric_phase
from aaphase.fock import coherent_amplitudes
from aaphase.models import (
    SpinHalfParams,
    ThreeMirrorParams,
    TwoMirrorParams,
    free_field_coherent,
    free_field_dense,
    spin_half,
    spin_half_dense,
    three_mirror_dense,
    three_mirror_exact,
    three_mirror_gamma_closed_form,
    three_mirror_initial_state,
    two_mirror_dense,
    two_mirror_spectrum,
)
from aaphase.oracle import Hamiltonian, generic_gamma
from paper import (
    gamma_from_single_eigenvalue_phi,
    gamma_from_single_eigenvalue_tau,
    gauge_shift,
    lcm_rationals,
    two_mirror_gamma_closed_form,
)

TWO_PI = 2.0 * math.pi


def _record(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:2d}: {'pass' if ok else 'FAIL'} ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def _bounded_fixture(rng, min_levels, max_levels, max_num, max_den, cap):
    """Random exact cyclic fixture with the period capped.

    The cap keeps branch integers small enough that single-eigenvalue
    float reductions stay far below the comparison tolerances.
    """
    while True:
        count = int(rng.integers(min_levels, max_levels + 1))
        values = []
        while len(values) < count:
            v = random_fraction(rng, max_num=max_num, max_den=max_den)
            if v not in values:
                values.append(v)
        labels = [f"L{i}" for i in range(count)]
        spectrum = exact_spectrum(list(zip(labels, values)))
        amps = rng.normal(size=count) + 1j * rng.normal(size=count)
        amps /= np.linalg.norm(amps)
        state = StateDecomposition(spectrum, amps)
        if geometric_phase(spectrum, state).tau_cycles <= cap:
            return spectrum, state


def test_criterion_01_spin_half_solid_angle():
    t0 = time.monotonic()
    worst_exact = 0.0
    worst_oracle = 0.0
    branch_ok = True
    for k in range(1, 20):
        theta = k * math.pi / 20.0
        params = SpinHalfParams(mu_B0=1.0, theta=theta)
        rep = geometric_phase(*spin_half(params))
        target = (math.pi * (1.0 - math.cos(theta))) % TWO_PI
        worst_exact = max(worst_exact, circ(rep.gamma, target))
        branch_ok &= rep.tau == math.pi and rep.phi_over_pi == 1
        dense, psi0 = spin_half_dense(params)
        oracle = generic_gamma(dense, psi0, t_max=2.2 * math.pi)
        worst_oracle = max(worst_oracle, circ(oracle.gamma, rep.gamma))
    scaled = geometric_phase(*spin_half(SpinHalfParams(mu_B0=2.0, theta=0.4)))
    branch_ok &= scaled.tau == math.pi / 2.0
    elapsed = time.monotonic() - t0
    ok = (worst_exact <= 5e-14 and worst_oracle <= 1e-6 and branch_ok
          and elapsed < 1.0)
    _record(1, ok, f"19 angles, exact dev {worst_exact:.1e}, "
                   f"oracle dev {worst_oracle:.1e}, {elapsed:.2f} s")


def test_criterion_02_free_field_period():
    t0 = time.monotonic()
    omega = 2.0
    rep = geometric_phase(*free_field_coherent(omega, 0.9, 30))
    amps = coherent_amplitudes(0.9, 30)
    oracle = generic_gamma(free_field_dense(omega, 30), amps,
                           t_max=2.2 * rep.tau)
    rel = abs(oracle.tau - rep.tau) / rep.tau
    elapsed = time.monotonic() - t0
    ok = (rep.tau_cycles == 1 and rep.tau == TWO_PI / omega
          and rel <= 1e-6 and elapsed < 5.0)
    _record(2, ok, f"coherent state n<=30, tau rel dev {rel:.1e}, "
                   f"{elapsed:.2f} s")


def test_criterion_03_lcm_divisibility_and_minimality():
    rng = np.random.default_rng(3)
    failures = 0
    enumerated = 0
    for _ in range(500):
        count = int(rng.integers(2, 6))
        values = []
        while len(values) < count:
            v = Fraction(int(rng.integers(1, 13)), int(rng.integers(1, 13)))
            if v not in values:
                values.append(v)
        L = lcm_rationals(values)
        ratios = [L / v for v in values]
        if any(r.denominator != 1 for r in ratios):
            failures += 1
            continue
        # gcd 1 over the integer multipliers is a complete minimality
        # proof: common multiples form L_min * Z, so any smaller one
        # would leave a shared prime in every L/v
        if math.gcd(*(int(r) for r in ratios)) != 1:
            failures += 1
            continue
        d = math.lcm(*(v.denominator for v in values))
        scaled = [int(v * d) for v in values]
        k_min = L * d
        if k_min.denominator != 1:
            failures += 1
            continue
        k_min = int(k_min)
        if k_min <= 20000:
            # direct brute force where the grid is small: every common
            # multiple lies on the 1/d grid, so scan all of it below L
            enumerated += 1
            if any(all(k % s == 0 for s in scaled)
                   for k in range(1, k_min)):
                failures += 1
    _record(3, failures == 0,
            f"500 sets, {enumerated} brute-force scans, {failures} failures")


def test_criterion_04_gauge_invariance():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(200):
        spectrum, state = random_exact_fixture(rng)
        c = random_fraction(rng)
        before = geometric_phase(spectrum, state).gamma
        after = geometric_phase(*gauge_shift(spectrum, state, c)).gamma
        worst = max(worst, circ(before, after))
    _record(4, worst <= 1e-10, f"200 shifted triples, "
                               f"worst gamma drift {worst:.1e}")


def test_criterion_05_route_consistency():
    rng = np.random.default_rng(5)
    worst = 0.0
    routes = 0
    for _ in range(100):
        spectrum, state = _bounded_fixture(rng, 2, 4, 6, 4, 500)
        rep = geometric_phase(spectrum, state)
        for label, n in rep.branch_integers.items():
            lam = level(spectrum, label)
            if lam == 0:
                continue
            routes += 1
            # the single-eigenvalue route holds on the level's own branch
            g_phi = gamma_from_single_eigenvalue_phi(
                lam, rep.mean_energy, phi_over_pi=rep.phi_over_pi - 2 * n)
            g_tau = gamma_from_single_eigenvalue_tau(
                lam, rep.mean_energy, tau_cycles=rep.tau_cycles)
            worst = max(worst, circ(g_phi, rep.gamma),
                        circ(g_tau, rep.gamma), circ(g_phi, g_tau))
    _record(5, worst <= 1e-10,
            f"100 fixtures, {routes} single-eigenvalue routes, "
            f"worst spread {worst:.1e}")


def test_criterion_06_phase_rationality():
    rng = np.random.default_rng(6)
    failures = 0
    for _ in range(200):
        spectrum, state = random_exact_fixture(rng, min_levels=3,
                                               max_levels=5)
        rep = geometric_phase(spectrum, state)
        L, phi_over_pi, branch = (rep.tau_cycles, rep.phi_over_pi,
                                  rep.branch_integers)
        if not isinstance(phi_over_pi, Fraction):
            failures += 1
            continue
        # defining relation, checked per level in rational arithmetic
        for label, n in branch.items():
            if phi_over_pi != 2 * (n - level(spectrum, label) * L):
                failures += 1
    _record(6, failures == 0,
            f"200 fixtures with >2 levels, {failures} failures")


TWO_MIRROR_FIELDS = {
    "vacuum": (1.0,),
    "one": (0.0, 1.0),
    "sup": (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)),
}
TWO_MIRROR_BETAS = (0j, 0.3 + 0j, 0.5 + 0.2j)


def test_criterion_07_two_mirror_grid():
    t0 = time.monotonic()
    worst_oracle = 0.0
    worst_closed = 0.0
    checks = []
    for beta in TWO_MIRROR_BETAS:
        for name, amps in TWO_MIRROR_FIELDS.items():
            params = TwoMirrorParams(r=2, k_squared=Fraction(1, 2),
                                     field_amplitudes=amps, beta=beta)
            dense, psi0 = two_mirror_dense(params)
            if name == "vacuum" and beta == 0:
                # ground-state corner: everything agrees on gamma = 0
                oracle = generic_gamma(dense, psi0, t_max=14.0)
                checks.append(oracle.stationary and oracle.gamma == 0.0)
                checks.append(two_mirror_gamma_closed_form(params, 2) == 0.0)
                continue
            rep = geometric_phase(*two_mirror_spectrum(params))
            oracle = generic_gamma(dense, psi0, t_max=2.2 * rep.tau)
            worst_oracle = max(worst_oracle, circ(rep.gamma, oracle.gamma))
            closed = two_mirror_gamma_closed_form(params, 2)
            gap = circ(closed, rep.gamma)
            if name == "sup":
                # premises hold: 0 occupied and tau = 2 pi p / omega_m
                worst_closed = max(worst_closed, gap)
                checks.append(rep.phi_over_pi == 0)
                checks.append(rep.tau_cycles == 2)
                checks.append(abs(rep.tau - 2.0 * TWO_PI) <= 1e-12)
            elif name == "one" and beta == 0:
                # 0 unoccupied: phi = pi, so the closed form misses by
                # exactly pi (documented negative control)
                checks.append(abs(gap - math.pi) <= 1e-12)
            elif name == "vacuum":
                # tau = 2 pi, not 2 pi p: the closed form overshoots by
                # one extra loop worth, 2 pi |beta|^2 mod 2 pi
                checks.append(
                    abs(gap - circ(TWO_PI * abs(beta) ** 2, 0.0)) <= 1e-10)
    # prefactor is p, not p/omega_m: at omega_m = 2 the dimensionful
    # variant lands ~0.77 rad off while the correct form still matches
    params2 = TwoMirrorParams(r=2, k_squared=Fraction(1, 2),
                              field_amplitudes=TWO_MIRROR_FIELDS["sup"],
                              beta=0.3, omega_m=2.0)
    rep2 = geometric_phase(*two_mirror_spectrum(params2))
    good = two_mirror_gamma_closed_form(params2, 2)
    turns_bad = 1.0 + (2.0 / params2.omega_m) * (
        (2.0 - 2.0 * params2.k * 0.3) * 0.5 + 0.09)
    bad = (TWO_PI * math.fmod(turns_bad, 1.0)) % TWO_PI
    checks.append(circ(good, rep2.gamma) <= 1e-12)
    checks.append(circ(bad, rep2.gamma) > 0.7)
    elapsed = time.monotonic() - t0
    ok = (worst_oracle <= 1e-5 and worst_closed <= 1e-12 and all(checks)
          and elapsed < 60.0)
    _record(7, ok, f"9-cell grid, oracle dev {worst_oracle:.1e}, "
                   f"closed-form dev {worst_closed:.1e}, {elapsed:.1f} s")


def test_criterion_08_three_mirror_exact_family():
    worst = 0.0
    checks = []
    for alpha, beta, mu in ((0.7, 0.5, 0.6 + 0.2j), (0.3 + 0.4j, 0.8, 0.9)):
        params = ThreeMirrorParams(rho_D=2, rho_S=3, alpha=alpha, beta=beta,
                                   mu=mu, truncations=(15, 15, 25))
        rep = geometric_phase(*three_mirror_exact(params))
        checks.append(rep.tau_cycles == 1 and rep.phi_over_pi == 0)
        worst = max(worst, circ(three_mirror_gamma_closed_form(params, 1),
                                rep.gamma))
    _record(8, worst <= 1e-10 and all(checks),
            f"decoupled family, 2 coherent inputs, "
            f"worst closed-form dev {worst:.1e}")


def test_criterion_09_three_mirror_approximate_regime():
    t0 = time.monotonic()
    deviations = []
    worst_deficit = 0.0
    for kappa in (1e-3, 5e-4, 2.5e-4):
        params = ThreeMirrorParams(rho_D=2, rho_S=3, kappa_D=kappa,
                                   kappa_S=kappa, alpha=0.7, beta=0.5,
                                   mu=0.6 + 0.2j, truncations=(15, 15, 25))
        oracle = generic_gamma(three_mirror_dense(params),
                               three_mirror_initial_state(params),
                               t_max=2.2 * TWO_PI, approximate=True)
        worst_deficit = max(worst_deficit, 1.0 - oracle.fidelity)
        deviations.append(circ(oracle.gamma,
                               three_mirror_gamma_closed_form(params, 1)))
    elapsed = time.monotonic() - t0
    monotone = deviations[0] > deviations[1] > deviations[2]
    ok = (max(deviations) <= 5e-3 and monotone and worst_deficit <= 1e-4
          and elapsed < 120.0)
    _record(9, ok, "couplings 1e-3/5e-4/2.5e-4, devs "
            + "/".join(f"{d:.1e}" for d in deviations)
            + f", fidelity deficit {worst_deficit:.1e}, {elapsed:.1f} s")


def test_criterion_10_constraint_solver_control():
    # one record feeds the solver and the engine
    spectrum = Spectrum(levels=[("l1", 2), ("l2", 3)], unit=1.0)
    best = enumerate_candidates(spectrum, 16)[0]
    state = StateDecomposition(spectrum, [0.6, 0.8])
    rep = geometric_phase(spectrum, state)
    checks = [best.tau_cycles == rep.tau_cycles,
              best.phi_over_pi == rep.phi_over_pi]
    gauged = gauge_to_zero_phi(best, spectrum)
    quantum = gauged.lam1 / gauged.n
    checks.append(all(constrain_unknown(gauged, k * quantum)
                      for k in range(-25, 26)))
    rng = np.random.default_rng(10)
    rejected = 0
    while rejected < 50:
        trial = Fraction(int(rng.integers(-48, 49)), int(rng.integers(2, 13)))
        if (trial / quantum).denominator == 1:
            continue
        checks.append(not constrain_unknown(gauged, trial))
        rejected += 1
    _record(10, all(checks),
            "minimal candidate matches the engine exactly, 51 multiples "
            "accepted, 50 non-multiples rejected")


def test_criterion_11_start_point_invariance():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        spectrum, state = _bounded_fixture(rng, 2, 4, 4, 3, 40)
        rep = geometric_phase(spectrum, state)
        values = np.array([float(level(spectrum, lab))
                           for lab, _ in state.entries])
        psi0 = np.array([amp for _, amp in state.entries], dtype=complex)
        h = Hamiltonian.diagonal(values, unit=1.0)
        for t_start in rng.uniform(0.0, rep.tau, size=5):
            # on the diagonal H the state at t is psi0 exp(-i lambda t)
            restarted = generic_gamma(h, psi0 * np.exp(-1j * values * t_start),
                                      t_max=2.2 * rep.tau)
            worst = max(worst, circ(restarted.gamma, rep.gamma))
    _record(11, worst <= 1e-6,
            f"20 fixtures x 5 loop points, worst gamma dev {worst:.1e}")
