"""Spin-1/2 precessing in a constant magnetic field.

H = -mu*B0*sigma_z, initial state cos(theta/2)|up> + sin(theta/2)|down>.
Energies are reported in units of mu*B0, so the spectrum is {-1, +1}
exactly and gamma = pi*(1 - cos(theta)) follows from the general rule.
"""

from __future__ import annotations

import math
from typing import Tuple

from ..engine import Spectrum, StateDecomposition
from ..oracle import Hamiltonian

__all__ = ["SpinHalfParams", "spin_half", "spin_half_dense"]


class SpinHalfParams:
    __slots__ = ("mu_B0", "theta")

    def __init__(self, mu_B0: float = 1.0, theta: float = 0.0):
        if not mu_B0 > 0:
            raise ValueError("mu_B0 must be positive")
        if not 0.0 <= theta <= math.pi:
            raise ValueError("theta must lie in [0, pi]")
        self.mu_B0, self.theta = mu_B0, theta


def _amplitudes(theta: float) -> Tuple[complex, complex]:
    return complex(math.cos(theta / 2)), complex(math.sin(theta / 2))


def spin_half(params: SpinHalfParams) -> Tuple[Spectrum, StateDecomposition]:
    spectrum = Spectrum(
        levels=[("up", -1), ("down", 1)],
        unit=params.mu_B0)
    return spectrum, StateDecomposition(spectrum, _amplitudes(params.theta))


def spin_half_dense(params: SpinHalfParams) -> Tuple[Hamiltonian, np.ndarray]:
    import numpy as np
    h = Hamiltonian.diagonal([-1.0, 1.0], unit=params.mu_B0)
    up, down = _amplitudes(params.theta)
    return h, np.array([up, down], dtype=complex)
