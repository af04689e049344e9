"""Single free field mode, H = omega*a^dag*a (hbar = 1)."""

from __future__ import annotations

from typing import Sequence, Tuple

from ..engine import Spectrum, StateDecomposition
from ..fock import coherent_amplitudes
from ..oracle import Hamiltonian

__all__ = ["free_field", "free_field_coherent", "free_field_dense"]


def free_field(omega: float, occupied_n: Sequence[int],
               amplitudes: Sequence[complex]
               ) -> Tuple[Spectrum, StateDecomposition]:
    """Levels n*omega for occupied Fock states, one nonzero amplitude each."""
    ns = list(occupied_n)
    if any(n < 0 for n in ns):
        raise ValueError("Fock indices must be non-negative")
    spectrum = Spectrum(levels=[(str(n), int(n)) for n in ns], unit=omega)
    if any(a == 0 for a in amplitudes):    # the state would drop them
        raise ValueError("zero-amplitude entries must be absent")
    return spectrum, StateDecomposition(spectrum, amplitudes)


def free_field_coherent(omega: float, alpha: complex, truncation: int
                        ) -> Tuple[Spectrum, StateDecomposition]:
    amps = coherent_amplitudes(alpha, truncation)
    occupied = [n for n in range(truncation) if amps[n] != 0]
    return free_field(omega, occupied, [amps[n] for n in occupied])


def free_field_dense(omega: float, dim: int) -> Hamiltonian:
    import numpy as np
    return Hamiltonian.diagonal(np.arange(dim, dtype=float), unit=omega)
