"""Periods, total phases, and geometric phases of cyclic quantum evolutions.

For a time-independent Hamiltonian whose occupied eigenvalues are known
exactly, the period and both phases follow in closed form from rational
arithmetic on the spectrum; a brute-force dense-evolution route provides
an independent check, and a constraint solver bounds the possibilities
when only part of the spectrum is known.

The package root re-exports nothing: import from the submodules, so that
the exact route (`aaphase.engine`) does not load the oracle.
"""

__version__ = "0.1.0"
