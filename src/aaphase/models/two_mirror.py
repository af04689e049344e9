"""Optomechanical cavity with one movable mirror.

H = hbar*omega_f a^dag a + hbar*omega_m b^dag b - hbar*g a^dag a (b + b^dag).

At fixed photon number n the mirror sees a displaced oscillator, so each
block diagonalizes exactly: eigenvalues hbar*omega_m*(r n + m - k^2 n^2)
with r = omega_f/omega_m and k = g/omega_m, eigenvectors D(k n)|m>.  With
r and k^2 rational the spectrum is exact and the closed-form period
tau = 2 pi p / omega_m (k^2 = q/p in lowest terms) applies to states
occupying consecutive mirror levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

import numpy as np

from ..engine import Spectrum, StateDecomposition, _canonical_gamma, TWO_PI
from ..fock import coherent_amplitudes, create, destroy, displaced_frame_amplitudes, number
from ..oracle import DenseHamiltonian

__all__ = [
    "TwoMirrorParams",
    "two_mirror_dense",
    "two_mirror_gamma_closed_form",
    "two_mirror_mean_energy",
    "two_mirror_spectrum",
]

TAIL_TOL = 1e-10


@dataclass(frozen=True)
class TwoMirrorParams:
    """Exact couplings plus the initial product state.

    r = omega_f/omega_m and k_squared = (g/omega_m)^2 = q/p are the
    rational primitives; omega_m fixes the energy scale and k_sign the
    sign of g.  The field state is sum_n C_n |n>_f with the C_n taken
    literally (no truncation tail of its own); the mirror starts in the
    coherent state |beta>.
    """

    r: Fraction
    k_squared: Fraction
    field_amplitudes: Tuple[complex, ...]
    beta: complex = 0j
    mirror_truncation: int = 40
    omega_m: float = 1.0
    k_sign: int = 1

    def __init__(self, r, k_squared, field_amplitudes, beta=0j,
                 mirror_truncation: int = 40, omega_m: float = 1.0,
                 k_sign: int = 1):
        r = Fraction(r)
        k_squared = Fraction(k_squared)
        if k_squared < 0:
            raise ValueError("k_squared must be non-negative")
        if k_sign not in (1, -1):
            raise ValueError("k_sign must be +1 or -1")
        if not omega_m > 0:
            raise ValueError("omega_m must be positive")
        if mirror_truncation < 1:
            raise ValueError("mirror_truncation must be >= 1")
        amps = tuple(complex(c) for c in field_amplitudes)
        if not amps:
            raise ValueError("field_amplitudes must be non-empty")
        norm = math.fsum(abs(c) ** 2 for c in amps)
        if not abs(norm - 1.0) <= 1e-12:  # NaN fails too
            raise ValueError(f"field amplitudes not normalized: {norm!r}")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "k_squared", k_squared)
        object.__setattr__(self, "field_amplitudes", amps)
        object.__setattr__(self, "beta", complex(beta))
        object.__setattr__(self, "mirror_truncation", int(mirror_truncation))
        object.__setattr__(self, "omega_m", float(omega_m))
        object.__setattr__(self, "k_sign", int(k_sign))

    @property
    def k(self) -> float:
        return self.k_sign * math.sqrt(float(self.k_squared))

    @property
    def omega_f(self) -> float:
        return float(self.r) * self.omega_m

    @property
    def g(self) -> float:
        return self.k * self.omega_m

    @property
    def p(self) -> int:
        """Denominator of k^2 = q/p in lowest terms."""
        return self.k_squared.denominator

    @property
    def q(self) -> int:
        return self.k_squared.numerator

    @property
    def mean_photon(self) -> float:
        return math.fsum(n * abs(c) ** 2
                         for n, c in enumerate(self.field_amplitudes))


def _block_value(params: TwoMirrorParams, n: int, m: int) -> Fraction:
    return params.r * n + m - params.k_squared * n * n


def two_mirror_spectrum(params: TwoMirrorParams
                        ) -> Tuple[Spectrum, StateDecomposition]:
    """Exact block spectrum and the state expanded in the block bases.

    Levels are labeled "n,m" (photon number, displaced mirror quantum)
    with exact rational values in units hbar*omega_m.  Amplitudes are
    C_n <m|D(-k n)|beta>; the mass lost to the mirror truncation must
    stay below 1e-10 and the kept amplitudes are renormalized.
    """
    trunc = params.mirror_truncation
    levels = []
    entries = []
    mass = 0.0
    for n, c_n in enumerate(params.field_amplitudes):
        block = displaced_frame_amplitudes(params.beta, params.k * n, trunc)
        for m in range(trunc):
            levels.append((f"{n},{m}", _block_value(params, n, m)))
            amp = c_n * block[m]
            if amp != 0:
                mass += abs(amp) ** 2
                entries.append((f"{n},{m}", amp))
    tail = 1.0 - mass
    if not tail < TAIL_TOL:
        raise ValueError(
            f"truncation too small: tail mass {tail:.3e} at "
            f"mirror_truncation {trunc}")
    scale = 1.0 / math.sqrt(mass)
    state = StateDecomposition(
        entries=[(label, amp * scale) for label, amp in entries])
    return Spectrum(levels=levels, unit=params.omega_m), state


def two_mirror_mean_energy(params: TwoMirrorParams) -> float:
    """<H> = hbar*omega_m[(r - 2k Re beta)<n>_f + |beta|^2], hbar = 1."""
    nbar = params.mean_photon
    return params.omega_m * (
        (float(params.r) - 2.0 * params.k * params.beta.real) * nbar
        + abs(params.beta) ** 2)


def two_mirror_gamma_closed_form(params: TwoMirrorParams, p: int) -> float:
    """gamma = 2 pi [1 + p(r - 2k Re beta)<n>_f + p|beta|^2] mod 2 pi.

    The stated premises are 0 in the occupied spectrum (so phi = 2 pi)
    and tau = 2 pi p/omega_m; outside them the value deviates from the
    full-spectrum gamma in controlled ways that the tests pin down.  The
    prefactor is p, not p/omega_m: gamma is dimensionless and the tau
    substitution fixes the printed factor.
    """
    if p < 1:
        raise ValueError("p must be a positive integer")
    nbar = params.mean_photon
    turns = 1.0 + p * ((float(params.r) - 2.0 * params.k * params.beta.real)
                       * nbar + abs(params.beta) ** 2)
    return _canonical_gamma(TWO_PI * math.fmod(turns, 1.0))


def two_mirror_dense(params: TwoMirrorParams
                     ) -> Tuple[DenseHamiltonian, np.ndarray]:
    """Truncated dense H (units hbar*omega_m) and the initial vector."""
    nf = len(params.field_amplitudes)
    nm = params.mirror_truncation
    n_f = number(nf)
    eye_f = np.eye(nf)
    eye_m = np.eye(nm)
    x_m = destroy(nm) + create(nm)
    h = (float(params.r) * np.kron(n_f, eye_m)
         + np.kron(eye_f, number(nm))
         - params.k * np.kron(n_f, x_m))
    mirror, _ = coherent_amplitudes(params.beta, nm)
    psi0 = np.kron(np.asarray(params.field_amplitudes, dtype=complex), mirror)
    psi0 = psi0 / np.linalg.norm(psi0)
    return DenseHamiltonian(h, unit=params.omega_m), psi0
