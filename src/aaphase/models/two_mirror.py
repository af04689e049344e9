"""Optomechanical cavity with one movable mirror.

H = hbar*omega_f a^dag a + hbar*omega_m b^dag b - hbar*g a^dag a (b + b^dag).

At fixed photon number n the mirror sees a displaced oscillator, so each
block diagonalizes exactly: eigenvalues hbar*omega_m*(r n + m - k^2 n^2)
with r = omega_f/omega_m and k = g/omega_m, eigenvectors D(k n)|m>.  With
r and k^2 rational the spectrum is exact and the closed-form period
tau = 2 pi p / omega_m (k^2 = q/p in lowest terms) applies to states
occupying consecutive mirror levels.

Both routes reuse the three-mirror displaced-mirror construction with one
field mode: ``cavity_exact`` for the levels and state, ``cavity_dense``
with rho_S = kappa_S = 0 and kappa_D = -k for the matrix entries.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence, Tuple

from ..engine import Spectrum, StateDecomposition, squared_moduli
from ..fock import coherent_amplitudes, displaced_frame_amplitudes
from ..oracle import Hamiltonian
from .three_mirror import cavity_dense, cavity_exact, over_one_denominator

__all__ = [
    "TwoMirrorParams",
    "two_mirror_dense",
    "two_mirror_spectrum",
]


class TwoMirrorParams:
    """Exact couplings plus the initial product state.

    r = omega_f/omega_m and k_squared = (g/omega_m)^2 = q/p are the
    rational primitives; omega_m fixes the energy scale and k_sign the
    sign of g.  The field state is sum_n C_n |n>_f with the C_n taken
    literally (no truncation tail of its own); the mirror starts in the
    coherent state |beta>.
    """

    __slots__ = ("r", "k_squared", "field_amplitudes", "beta",
                 "mirror_truncation", "omega_m", "k_sign")

    def __init__(self, r: Fraction, k_squared: Fraction,
                 field_amplitudes: Sequence[complex], beta: complex = 0j,
                 mirror_truncation: int = 40, omega_m: float = 1.0,
                 k_sign: int = 1):
        self.r, self.k_squared = Fraction(r), Fraction(k_squared)
        if self.k_squared < 0:
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
        norm = math.fsum(squared_moduli(amps))
        if not abs(norm - 1.0) <= 1e-12:  # NaN fails too
            raise ValueError(f"field amplitudes not normalized: {norm!r}")
        self.field_amplitudes, self.beta = amps, complex(beta)
        self.mirror_truncation = int(mirror_truncation)
        self.omega_m, self.k_sign = float(omega_m), int(k_sign)

    @property
    def k(self) -> float:
        return self.k_sign * math.sqrt(float(self.k_squared))


def two_mirror_spectrum(params: TwoMirrorParams
                        ) -> Tuple[Spectrum, StateDecomposition]:
    """Exact block spectrum and the state expanded in the block bases.

    Levels are labeled "n,m" (photon number, displaced mirror quantum)
    with exact rational values r n + m - k^2 n^2 in units hbar*omega_m.
    Amplitudes are C_n <m|D(-k n)|beta>, tail-checked and renormalized
    by ``cavity_exact``.
    """
    trunc = params.mirror_truncation
    r, k2, d = over_one_denominator(params.r, params.k_squared)
    blocks = ((f"{n},", r * n - k2 * n * n, c_n,
               displaced_frame_amplitudes(params.beta, params.k * n, trunc))
              for n, c_n in enumerate(params.field_amplitudes))
    return cavity_exact(blocks, d, params.omega_m,
                        f"mirror_truncation {trunc}")


def two_mirror_dense(params: TwoMirrorParams
                     ) -> Tuple[Hamiltonian, np.ndarray]:
    """Truncated H (units hbar*omega_m) and the initial vector."""
    import numpy as np
    nm = params.mirror_truncation
    h = cavity_dense(float(params.r), 0.0, -params.k, 0.0,
                     (len(params.field_amplitudes), 1, nm), params.omega_m)
    mirror = coherent_amplitudes(params.beta, nm)
    psi0 = np.kron(np.asarray(params.field_amplitudes, dtype=complex), mirror)
    return h, psi0 / np.linalg.norm(psi0)
