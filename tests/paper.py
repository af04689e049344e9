"""The paper's closed forms that only the tests evaluate.

The program computes every report from the occupied spectrum; these
formulas are the independent references that the acceptance criteria
and the model tests hold it to.  The three-mirror closed form
(`aaphase.models.three_mirror_gamma_closed_form`) stays in the program,
because the benchmark's reference checks import it from there.
"""

import math
from fractions import Fraction
from typing import Iterable, Tuple, Union

from aaphase.engine import Spectrum, StateDecomposition, TWO_PI, \
    _canonical_gamma
from aaphase.rational import over_one_denominator

RationalLike = Union[Fraction, int, str]


def gauge_shift(spectrum: Spectrum, state: StateDecomposition,
                c: Union[Fraction, int, float]
                ) -> Tuple[Spectrum, StateDecomposition]:
    """Shift every eigenvalue by c (same unit); labels preserved, and the
    state rebuilt over the shifted spectrum with the same amplitudes.

    Adding a multiple of the identity, H -> H + c, moves the spectrum's
    origin and the total phase but not the geometric phase.
    """
    shift = c if isinstance(c, float) else Fraction(c)
    d = spectrum.denominator
    # a Fraction plus a float is the float sum of the two as floats
    *values, denominator = over_one_denominator(*(
        (Fraction(v, d) if isinstance(v, int) else v) + shift
        for _, v in spectrum.levels))
    shifted = Spectrum([(lab, v) for (lab, _), v in
                        zip(spectrum.levels, values)],
                       unit=spectrum.unit, denominator=denominator)
    amps = dict(state.entries)
    return shifted, StateDecomposition(
        shifted, [amps.get(lab, 0) for lab, _ in spectrum.levels])


def gamma_from_single_eigenvalue_phi(lam: Union[Fraction, float],
                                     mean_H: Union[Fraction, float],
                                     phi_over_pi: Fraction) -> float:
    """gamma from one nonzero eigenvalue and an externally known total phase.

    gamma = phi * (1 - <H>/lambda) mod 2*pi, valid on the branch where
    lambda*tau = -phi exactly; feed the branch-matched phase
    phi_over_pi - 2*n_lambda (n_lambda the level's branch integer), not
    an arbitrary representative.  lambda and <H> share one energy unit;
    the phase is exact, in pi units.  With exact lam and mean_H the
    mod-2*pi reduction happens in rational arithmetic.
    """
    if lam == 0:
        raise ValueError("zero eigenvalue carries no period information: "
                         "phi is already 0 mod 2*pi; use a nonzero eigenvalue")
    a = Fraction(phi_over_pi)
    if isinstance(lam, Fraction) and isinstance(mean_H, Fraction):
        return _canonical_gamma(math.pi * float((a * (1 - mean_H / lam)) % 2))
    # a mod 2 first: keeps the float product small when the branch
    # integer inside a is large.
    k, b = divmod(a, 2)
    u = 1.0 - float(mean_H) / float(lam)
    total = 2.0 * math.fmod(int(k) * u, 1.0) + float(b) * u
    return _canonical_gamma(math.pi * math.fmod(total, 2.0))


def gamma_from_single_eigenvalue_tau(lam: Union[Fraction, float],
                                     mean_H: Union[Fraction, float],
                                     tau_cycles: Fraction) -> float:
    """gamma from one eigenvalue and an externally known period.

    gamma = tau(<H> - lambda) mod 2*pi.  lambda and <H> share one
    energy unit; the period is exact, in 2*pi/unit units.  With exact
    lam and mean_H the reduction happens in rational arithmetic.
    """
    tc = Fraction(tau_cycles)
    if tc <= 0:
        raise ValueError("tau must be positive")
    if isinstance(lam, Fraction) and isinstance(mean_H, Fraction):
        return _canonical_gamma(TWO_PI * float(((mean_H - lam) * tc) % 1))
    return _canonical_gamma(TWO_PI * math.fmod(
        (float(mean_H) - float(lam)) * float(tc), 1.0))


def lcm_rationals(values: Iterable[RationalLike]) -> Fraction:
    """Least common multiple of nonzero rationals.

    Returns the smallest L > 0 such that L/|x| is a positive integer for
    every x: with the spacings x = lambda_k - lambda_0, the period is
    tau = 2*pi*L.  Signs are ignored: spacings come in +/- pairs and the
    recurrence condition is sign-insensitive; repeats change nothing.
    For reduced |x| = p/q the result is lcm(all p) / gcd(all q).

    Raises ValueError("empty spacing set") on empty input, which signals
    a stationary state.  A zero value (a zero spacing) has no multiple
    and raises ValueError too.  The engine computes the period on
    integer numerators instead; this rational form is the reference its
    tests check it against.
    """
    exact = [Fraction(v) for v in values]
    if not exact:
        raise ValueError("empty spacing set")
    if not all(exact):
        raise ValueError("lcm_rationals needs nonzero values")
    return Fraction(math.lcm(*(abs(f.numerator) for f in exact)),
                    math.gcd(*(f.denominator for f in exact)))


def three_mirror_chi(params, n_b: int) -> float:
    """Block mirror frequency chi = sqrt(omega_m*(omega_m + 2*C_S*n_b))."""
    return params.omega_m * math.sqrt(1.0 + 2.0 * float(params.kappa_S) * n_b)


def two_mirror_omega_f(params) -> float:
    """Field frequency omega_f = r*omega_m."""
    return float(params.r) * params.omega_m


def two_mirror_g(params) -> float:
    """Coupling g = k*omega_m."""
    return params.k * params.omega_m


def two_mirror_p(params) -> int:
    """Denominator p of k^2 = q/p in lowest terms."""
    return params.k_squared.denominator


def two_mirror_q(params) -> int:
    """Numerator q of k^2 = q/p in lowest terms."""
    return params.k_squared.numerator


def two_mirror_mean_photon(params) -> float:
    """<n>_f = sum_n n |C_n|^2."""
    return math.fsum(n * abs(c) ** 2
                     for n, c in enumerate(params.field_amplitudes))


def two_mirror_mean_energy(params) -> float:
    """<H> = hbar*omega_m[(r - 2k Re beta)<n>_f + |beta|^2], hbar = 1."""
    nbar = two_mirror_mean_photon(params)
    return params.omega_m * (
        (float(params.r) - 2.0 * params.k * params.beta.real) * nbar
        + abs(params.beta) ** 2)


def two_mirror_gamma_closed_form(params, p: int) -> float:
    """gamma = 2 pi [1 + p(r - 2k Re beta)<n>_f + p|beta|^2] mod 2 pi.

    The stated premises are 0 in the occupied spectrum (so phi = 2 pi)
    and tau = 2 pi p/omega_m; outside them the value deviates from the
    full-spectrum gamma in controlled ways that the tests pin down.  The
    prefactor is p, not p/omega_m: gamma is dimensionless and the tau
    substitution fixes the printed factor.
    """
    if p < 1:
        raise ValueError("p must be a positive integer")
    nbar = two_mirror_mean_photon(params)
    turns = 1.0 + p * ((float(params.r) - 2.0 * params.k * params.beta.real)
                       * nbar + abs(params.beta) ** 2)
    return _canonical_gamma(TWO_PI * math.fmod(turns, 1.0))
