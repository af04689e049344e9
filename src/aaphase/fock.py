"""Coherent-state expansions in a truncated Fock space.

Shared plumbing for the optomechanical models: coherent amplitudes with
explicit truncation-tail accounting, and amplitudes of displaced
coherent states in a displaced Fock basis.
"""

from __future__ import annotations

import math

__all__ = [
    "coherent_amplitudes",
    "displaced_frame_amplitudes",
]

TAIL_TOL = 1e-10


def _raw_coherent(alpha: complex, dim: int) -> np.ndarray:
    """exp(-|a|^2/2) a^n / sqrt(n!) by stable recurrence."""
    import numpy as np
    amps = np.empty(dim, dtype=complex)
    try:
        r = abs(alpha)
    except OverflowError:                 # |alpha| past the float range
        r = math.inf
    amps[0] = math.exp(-0.5 * r * r)      # r ** 2 raises OverflowError
    for n in range(1, dim):
        amps[n] = amps[n - 1] * alpha / math.sqrt(n)
    return amps


def coherent_amplitudes(alpha: complex, truncation: int) -> np.ndarray:
    """Truncated coherent expansion of |alpha>, renormalized to unit norm.

    The tail mass 1 - sum|A_n|^2 must stay below 1e-10; larger tails are
    an error, not something to paper over by renormalizing harder.
    """
    import numpy as np
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    amps = _raw_coherent(alpha, truncation)
    mass = float(np.sum(np.abs(amps) ** 2))
    tail = 1.0 - mass
    if not tail < TAIL_TOL:
        raise ValueError(
            f"coherent tail mass {tail:.3e} at truncation {truncation}; "
            "increase the truncation")
    return amps / math.sqrt(mass)


def displaced_frame_amplitudes(alpha: complex, d: complex,
                               truncation: int) -> np.ndarray:
    """Amplitudes <m|D(-d)|alpha> of a coherent state in a displaced basis.

    D(-d)|alpha> = exp(i Im(d* alpha)) |alpha - d>, so the result is the
    coherent expansion of alpha - d times a global phase.  No tail check
    here; callers account for the displaced tail themselves, and their
    tail checks reject a result that overflowed.
    """
    import numpy as np
    with np.errstate(over="ignore", invalid="ignore"):
        phase = np.exp(1j * (np.conj(d) * alpha).imag)
        return phase * _raw_coherent(complex(alpha) - complex(d), truncation)
