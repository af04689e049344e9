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
    """Levels n*omega for an arbitrary set of occupied Fock states."""
    ns = list(occupied_n)
    if len(ns) < 1:
        raise ValueError("at least one occupied level required")
    if any(n < 0 for n in ns):
        raise ValueError("Fock indices must be non-negative")
    if len(ns) != len(amplitudes):
        raise ValueError("one amplitude per occupied level required")
    spectrum = Spectrum(levels=[(str(n), int(n)) for n in ns], unit=omega)
    state = StateDecomposition(
        entries=[(str(n), a) for n, a in zip(ns, amplitudes)])
    return spectrum, state


def free_field_coherent(omega: float, alpha: complex, truncation: int
                        ) -> Tuple[Spectrum, StateDecomposition]:
    amps = coherent_amplitudes(alpha, truncation)
    occupied = [n for n in range(truncation) if amps[n] != 0]
    return free_field(omega, occupied, [amps[n] for n in occupied])


def free_field_dense(omega: float, dim: int) -> Hamiltonian:
    import numpy as np
    return Hamiltonian.diagonal(np.arange(dim, dtype=float), unit=omega)
