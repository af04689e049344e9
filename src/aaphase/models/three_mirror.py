"""Optomechanical cavity with two driven modes and a shared mirror.

H = hbar*omega_D a^dag a + hbar*omega_S b^dag b + hbar*C_D a^dag a (c + c^dag)
    + (hbar*omega_m + hbar*C_S b^dag b) c^dag c
    + (hbar*C_S/2) b^dag b (1 + c^2 + c^dag^2)

In each (n_a, n_b) block the mirror is a driven, squeezed oscillator of
frequency chi = sqrt(omega_m*(omega_m + 2*C_S*n_b)), generically
incommensurable across blocks, so the model is handled by the dense
route except in the C_S = 0 family, where each block reduces to a
displaced oscillator and the spectrum is exact:
lambda/(hbar*omega_m) = rho_D n_a + rho_S n_b + m - kappa_D^2 n_a^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from ..engine import Spectrum, StateDecomposition, TWO_PI, _canonical_gamma
from ..fock import coherent_amplitudes, create, destroy, displaced_frame_amplitudes, number
from ..oracle import DenseHamiltonian

__all__ = [
    "ThreeMirrorParams",
    "three_mirror_chi",
    "three_mirror_dense",
    "three_mirror_exact",
    "three_mirror_gamma_closed_form",
    "three_mirror_initial_state",
    "three_mirror_scaled_mean_energy",
]

TAIL_TOL = 1e-10
ModeInput = Union[complex, Sequence[complex]]
Ratio = Union[Fraction, float]


def _is_scalar(mode: ModeInput) -> bool:
    return isinstance(mode, (int, float, complex))


@dataclass(frozen=True)
class ThreeMirrorParams:
    """Frequency ratios, couplings in omega_m units, and the product state.

    rho_D = omega_D/omega_m, rho_S = omega_S/omega_m, kappa_D = C_D/omega_m,
    kappa_S = C_S/omega_m; pass Fractions to enable the exact C_S = 0
    route.  Each mode is either a complex coherent amplitude or an
    explicit normalized amplitude list.
    """

    rho_D: Ratio
    rho_S: Ratio
    kappa_D: Ratio = 0
    kappa_S: Ratio = 0
    alpha: ModeInput = 0j
    beta: ModeInput = 0j
    mu: ModeInput = 0j
    truncations: Tuple[int, int, int] = (15, 15, 25)
    omega_m: float = 1.0

    def __post_init__(self):
        for name in ("rho_D", "rho_S", "kappa_D", "kappa_S"):
            value = getattr(self, name)
            if isinstance(value, int):
                object.__setattr__(self, name, Fraction(value))
        if not float(self.rho_D) > 0 or not float(self.rho_S) > 0:
            raise ValueError("frequency ratios must be positive")
        if not self.omega_m > 0:
            raise ValueError("omega_m must be positive")
        trunc = tuple(int(t) for t in self.truncations)
        if len(trunc) != 3 or any(t < 1 for t in trunc):
            raise ValueError("three positive truncations required")
        object.__setattr__(self, "truncations", trunc)
        for name in ("alpha", "beta", "mu"):
            mode = getattr(self, name)
            if _is_scalar(mode):
                object.__setattr__(self, name, complex(mode))
            else:
                object.__setattr__(
                    self, name, tuple(complex(c) for c in mode))

    @property
    def coherent_product(self) -> bool:
        return all(_is_scalar(m) for m in (self.alpha, self.beta, self.mu))

    @property
    def exact_family(self) -> bool:
        """Whether the analytic displaced-block spectrum is exact here."""
        return (self.kappa_S == 0
                and isinstance(self.kappa_S, Fraction)
                and isinstance(self.rho_D, Fraction)
                and isinstance(self.rho_S, Fraction)
                and isinstance(self.kappa_D, Fraction))


def _mode_vector(mode: ModeInput, truncation: int,
                 name: str) -> Tuple[np.ndarray, Optional[complex]]:
    if _is_scalar(mode):
        vec, _ = coherent_amplitudes(complex(mode), truncation)
        return vec, complex(mode)
    vec = np.asarray(mode, dtype=complex)
    if vec.ndim != 1 or vec.size < 1 or vec.size > truncation:
        raise ValueError(f"{name} amplitude list does not fit truncation")
    norm = float(np.sum(np.abs(vec) ** 2))
    if not abs(norm - 1.0) <= 1e-12:  # NaN fails too
        raise ValueError(f"{name} amplitudes not normalized: {norm!r}")
    if vec.size < truncation:
        vec = np.pad(vec, (0, truncation - vec.size))
    return vec, None


def three_mirror_chi(params: ThreeMirrorParams, n_b: int) -> float:
    """Block mirror frequency sqrt(omega_m*(omega_m + 2*C_S*n_b))."""
    return params.omega_m * math.sqrt(1.0 + 2.0 * float(params.kappa_S) * n_b)


def three_mirror_dense(params: ThreeMirrorParams) -> DenseHamiltonian:
    """Truncated dense H in units hbar*omega_m (real symmetric).

    H conserves n_a and n_b, so only the (n_a, n_b) diagonal blocks of
    size n_c are filled.  Each entry sums the same products in the same
    order as the Kronecker-product form of H, so the matrix is identical
    to it without forming any full-size term.
    """
    na, nb, nc = params.truncations
    eye_c, num_c = np.eye(nc), number(nc)
    x_c = destroy(nc) + create(nc)
    sq_c = destroy(nc) @ destroy(nc) + create(nc) @ create(nc)
    ks = float(params.kappa_S)
    n_a = np.arange(na, dtype=float)[:, None, None, None]
    n_b = np.arange(nb, dtype=float)[None, :, None, None]
    blocks = (float(params.rho_D) * (n_a * eye_c)
              + float(params.rho_S) * (n_b * eye_c)
              + float(params.kappa_D) * (n_a * x_c)
              + num_c
              + ks * (n_b * num_c)
              + 0.5 * ks * (n_b * (eye_c + sq_c)))
    h = np.zeros((na * nb * nc,) * 2)
    diag = np.arange(na * nb)
    h.reshape(na * nb, nc, na * nb, nc)[diag, :, diag, :] = (
        blocks.reshape(na * nb, nc, nc))
    return DenseHamiltonian(h, unit=params.omega_m)


def three_mirror_initial_state(params: ThreeMirrorParams) -> np.ndarray:
    na, nb, nc = params.truncations
    a_vec, _ = _mode_vector(params.alpha, na, "alpha")
    b_vec, _ = _mode_vector(params.beta, nb, "beta")
    c_vec, _ = _mode_vector(params.mu, nc, "mu")
    psi0 = np.kron(a_vec, np.kron(b_vec, c_vec))
    return psi0 / np.linalg.norm(psi0)


def three_mirror_exact(params: ThreeMirrorParams
                       ) -> Tuple[Spectrum, StateDecomposition]:
    """Exact spectrum and state expansion for the C_S = 0 family.

    Block eigenvectors are |n_a>|n_b> D(-kappa_D n_a)|m>; with nonzero
    kappa_D the mirror input must be coherent so its displaced-frame
    amplitudes stay closed-form.  Truncation tail mass must stay below
    1e-10 and kept amplitudes are renormalized.
    """
    if not params.exact_family:
        raise ValueError("exact route requires rational ratios and C_S = 0")
    na, nb, nc = params.truncations
    a_vec, _ = _mode_vector(params.alpha, na, "alpha")
    b_vec, _ = _mode_vector(params.beta, nb, "beta")
    c_vec, mu = _mode_vector(params.mu, nc, "mu")
    if params.kappa_D != 0 and mu is None:
        raise ValueError(
            "exact route needs a coherent mirror state when C_D != 0")
    kd2 = params.kappa_D * params.kappa_D
    levels = []
    entries = []
    mass = 0.0
    for i in range(na):
        if params.kappa_D == 0:
            block = c_vec
        else:
            kappa_block = float(params.kappa_D) * i
            block = displaced_frame_amplitudes(mu, -kappa_block, nc)
        for j in range(nb):
            weight_ab = a_vec[i] * b_vec[j]
            for m in range(nc):
                label = f"{i},{j},{m}"
                levels.append(
                    (label,
                     params.rho_D * i + params.rho_S * j + m - kd2 * i * i))
                amp = weight_ab * block[m]
                if amp != 0:
                    mass += abs(amp) ** 2
                    entries.append((label, amp))
    tail = 1.0 - mass
    if not tail < TAIL_TOL:
        raise ValueError(
            f"truncation too small: tail mass {tail:.3e} at {params.truncations}")
    scale = 1.0 / math.sqrt(mass)
    state = StateDecomposition(
        entries=[(label, amp * scale) for label, amp in entries])
    return Spectrum(levels=levels, unit=params.omega_m), state


def _mirror_moments(params: ThreeMirrorParams) -> Tuple[float, float, float]:
    """(<n_c>, <c + c^dag>, <c^2 + c^dag^2>) over the mirror amplitudes.

    Cross terms conjugate the lower index: Re(M_n^* M_{n+1}) and
    Re(M_n^* M_{n+2}); hermiticity of the displacement and squeeze
    operators forces the conjugation even though it is easy to lose
    when transcribing the sums.
    """
    nc = params.truncations[2]
    m_vec, _ = _mode_vector(params.mu, nc, "mu")
    ns = np.arange(nc)
    occ = float(np.sum(ns * np.abs(m_vec) ** 2))
    x1 = 2.0 * float(np.sum(np.sqrt(ns[:-1] + 1.0)
                            * np.real(np.conj(m_vec[:-1]) * m_vec[1:])))
    x2 = 2.0 * float(np.sum(np.sqrt((ns[:-2] + 1.0) * (ns[:-2] + 2.0))
                            * np.real(np.conj(m_vec[:-2]) * m_vec[2:])))
    return occ, x1, x2


def three_mirror_scaled_mean_energy(params: ThreeMirrorParams) -> float:
    """<H>/(hbar*omega_m) for the product initial state."""
    na, nb, _ = params.truncations
    a_vec, _ = _mode_vector(params.alpha, na, "alpha")
    b_vec, _ = _mode_vector(params.beta, nb, "beta")
    mean_a = float(np.sum(np.arange(na) * np.abs(a_vec) ** 2))
    mean_b = float(np.sum(np.arange(nb) * np.abs(b_vec) ** 2))
    occ_c, x_c, sq_c = _mirror_moments(params)
    ks = float(params.kappa_S)
    return (float(params.rho_D) * mean_a
            + float(params.rho_S) * mean_b
            + float(params.kappa_D) * mean_a * x_c
            + (1.0 + ks * mean_b) * occ_c
            + 0.5 * ks * mean_b * (1.0 + sq_c))


def three_mirror_gamma_closed_form(params: ThreeMirrorParams, p: int) -> float:
    """gamma = 2 pi [1 + p <H>/(hbar*omega_m)] mod 2 pi.

    For a coherent product state the bracket reduces to
    |alpha|^2 (rho_D + 2 kappa_D Re mu)
    + |beta|^2 (rho_S + kappa_S (1/2 + 2 Re(mu)^2)) + |mu|^2,
    which is evaluated literally in that case; amplitude-list inputs go
    through the explicit cross-sum route, and the two agree identically
    for coherent inputs via |mu|^2 + Re(mu^2) = 2 Re(mu)^2.
    """
    if p < 1:
        raise ValueError("p must be a positive integer")
    if params.coherent_product:
        alpha, beta, mu = params.alpha, params.beta, params.mu
        bracket = (abs(alpha) ** 2 * (float(params.rho_D)
                                      + 2.0 * float(params.kappa_D) * mu.real)
                   + abs(beta) ** 2 * (float(params.rho_S)
                                       + float(params.kappa_S)
                                       * (0.5 + 2.0 * mu.real ** 2))
                   + abs(mu) ** 2)
    else:
        bracket = three_mirror_scaled_mean_energy(params)
    return _canonical_gamma(TWO_PI * math.fmod(1.0 + p * bracket, 1.0))
