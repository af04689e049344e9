"""Example systems: spin-1/2, free field, and two optomechanical cavities."""

from .spin import SpinHalfParams, spin_half, spin_half_dense
from .free_field import free_field, free_field_coherent, free_field_dense
from .two_mirror import (
    TwoMirrorParams,
    two_mirror_dense,
    two_mirror_spectrum,
)
from .three_mirror import (
    ThreeMirrorParams,
    three_mirror_dense,
    three_mirror_exact,
    three_mirror_gamma_closed_form,
    three_mirror_initial_state,
    three_mirror_scaled_mean_energy,
)

__all__ = [
    "SpinHalfParams",
    "ThreeMirrorParams",
    "TwoMirrorParams",
    "free_field",
    "free_field_coherent",
    "free_field_dense",
    "spin_half",
    "spin_half_dense",
    "three_mirror_dense",
    "three_mirror_exact",
    "three_mirror_gamma_closed_form",
    "three_mirror_initial_state",
    "three_mirror_scaled_mean_energy",
    "two_mirror_dense",
    "two_mirror_spectrum",
]
