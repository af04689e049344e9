"""Periods, total phases, and geometric phases of cyclic quantum evolutions.

For a time-independent Hamiltonian whose occupied eigenvalues are known
exactly, the period and both phases follow in closed form from rational
arithmetic on the spectrum; a brute-force dense-evolution route provides
an independent check, and a constraint solver bounds the possibilities
when only part of the spectrum is known.
"""

from .rational import (
    IncommensurableError,
    RationalSet,
    format_rational,
    lcm_rationals,
    parse_rational,
    rationalize,
)
from .engine import (
    Cyclicality,
    NonCyclicError,
    PhaseReport,
    Spectrum,
    StateDecomposition,
    branch_matched_phi_over_pi,
    check_cyclicality,
    gamma_from_single_eigenvalue_phi,
    gamma_from_single_eigenvalue_tau,
    gauge_shift,
    geometric_phase,
    mean_energy,
    mean_energy_rational,
    period,
    total_phase,
)
from .oracle import (
    DenseHamiltonian,
    EvolutionResult,
    NoReturnError,
    SpectralPropagator,
    detect_period,
    evolve,
    expectation,
    generic_gamma,
)
from .constraints import (
    CyclicityCandidate,
    GaugedCandidate,
    PartialSpectrum,
    constrain_unknown,
    enumerate_candidates,
    gamma_candidates,
    gauge_to_zero_phi,
)

__version__ = "0.1.0"

__all__ = [
    "Cyclicality",
    "CyclicityCandidate",
    "DenseHamiltonian",
    "EvolutionResult",
    "GaugedCandidate",
    "IncommensurableError",
    "NoReturnError",
    "NonCyclicError",
    "PartialSpectrum",
    "PhaseReport",
    "RationalSet",
    "SpectralPropagator",
    "Spectrum",
    "StateDecomposition",
    "branch_matched_phi_over_pi",
    "check_cyclicality",
    "constrain_unknown",
    "detect_period",
    "enumerate_candidates",
    "evolve",
    "expectation",
    "format_rational",
    "gamma_candidates",
    "gamma_from_single_eigenvalue_phi",
    "gamma_from_single_eigenvalue_tau",
    "gauge_shift",
    "gauge_to_zero_phi",
    "generic_gamma",
    "geometric_phase",
    "lcm_rationals",
    "mean_energy",
    "mean_energy_rational",
    "parse_rational",
    "period",
    "rationalize",
    "total_phase",
]
