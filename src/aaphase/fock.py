"""Truncated Fock-space operators and coherent-state expansions.

Shared plumbing for the optomechanical models: ladder operators as dense
arrays, coherent amplitudes with explicit truncation-tail accounting,
and amplitudes of displaced coherent states in a displaced Fock basis.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

__all__ = [
    "coherent_amplitudes",
    "create",
    "destroy",
    "displaced_frame_amplitudes",
    "fock_state",
    "number",
]

TAIL_TOL = 1e-10


def destroy(dim: int) -> np.ndarray:
    if dim < 1:
        raise ValueError("dim must be >= 1")
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1)


def create(dim: int) -> np.ndarray:
    return destroy(dim).T.copy()


def number(dim: int) -> np.ndarray:
    return np.diag(np.arange(dim, dtype=float))


def fock_state(n: int, dim: int) -> np.ndarray:
    if not 0 <= n < dim:
        raise ValueError("Fock index outside truncation")
    v = np.zeros(dim)
    v[n] = 1.0
    return v


def _raw_coherent(alpha: complex, dim: int) -> np.ndarray:
    """exp(-|a|^2/2) a^n / sqrt(n!) by stable recurrence."""
    amps = np.empty(dim, dtype=complex)
    r = abs(alpha)
    amps[0] = math.exp(-0.5 * r * r)      # r ** 2 raises OverflowError
    for n in range(1, dim):
        amps[n] = amps[n - 1] * alpha / math.sqrt(n)
    return amps


def coherent_amplitudes(alpha: complex, truncation: int, *,
                        renormalize: bool = True) -> Tuple[np.ndarray, float]:
    """Truncated coherent expansion of |alpha>: (amplitudes, tail mass).

    The tail mass 1 - sum|A_n|^2 must stay below 1e-10; larger tails are
    an error, not something to paper over by renormalizing harder.
    """
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    amps = _raw_coherent(alpha, truncation)
    mass = float(np.sum(np.abs(amps) ** 2))
    tail = 1.0 - mass
    if not tail < TAIL_TOL:
        raise ValueError(
            f"coherent tail mass {tail:.3e} at truncation {truncation}; "
            "increase the truncation")
    if renormalize:
        amps = amps / math.sqrt(mass)
    return amps, tail


def displaced_frame_amplitudes(alpha: complex, d: complex,
                               truncation: int) -> np.ndarray:
    """Amplitudes <m|D(-d)|alpha> of a coherent state in a displaced basis.

    D(-d)|alpha> = exp(i Im(d* alpha)) |alpha - d>, so the result is the
    coherent expansion of alpha - d times a global phase.  No tail check
    here; callers account for the displaced tail themselves.
    """
    phase = np.exp(1j * (np.conj(d) * alpha).imag)
    return phase * _raw_coherent(complex(alpha) - complex(d), truncation)
