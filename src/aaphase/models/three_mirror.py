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

The one-mirror cavity shares this construction: ``cavity_exact`` builds
the displaced-block levels and state, ``cavity_dense`` the block entries.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Tuple, Union

from ..engine import Spectrum, StateDecomposition, TWO_PI, _canonical_gamma
from ..fock import TAIL_TOL, coherent_amplitudes, displaced_frame_amplitudes
from ..oracle import Hamiltonian

__all__ = [
    "ThreeMirrorParams",
    "three_mirror_dense",
    "three_mirror_exact",
    "three_mirror_gamma_closed_form",
    "three_mirror_initial_state",
    "three_mirror_scaled_mean_energy",
]

ModeInput = Union[complex, Sequence[complex]]
Ratio = Union[Fraction, float]


def _is_scalar(mode: ModeInput) -> bool:
    return isinstance(mode, (int, float, complex))


class ThreeMirrorParams:
    """Frequency ratios, couplings in omega_m units, and the product state.

    rho_D = omega_D/omega_m, rho_S = omega_S/omega_m, kappa_D = C_D/omega_m,
    kappa_S = C_S/omega_m; pass Fractions (or ints) to enable the exact
    C_S = 0 route.  Each mode is either a complex coherent amplitude or an
    explicit normalized amplitude list.
    """

    __slots__ = ("rho_D", "rho_S", "kappa_D", "kappa_S", "alpha", "beta",
                 "mu", "truncations", "omega_m")

    def __init__(self, rho_D: Ratio, rho_S: Ratio, kappa_D: Ratio = 0,
                 kappa_S: Ratio = 0, alpha: ModeInput = 0j,
                 beta: ModeInput = 0j, mu: ModeInput = 0j,
                 truncations: Tuple[int, int, int] = (15, 15, 25),
                 omega_m: float = 1.0):
        self.rho_D, self.rho_S, self.kappa_D, self.kappa_S = (
            Fraction(r) if isinstance(r, int) else r
            for r in (rho_D, rho_S, kappa_D, kappa_S))
        if not float(rho_D) > 0 or not float(rho_S) > 0:
            raise ValueError("frequency ratios must be positive")
        if not omega_m > 0:
            raise ValueError("omega_m must be positive")
        trunc = tuple(int(t) for t in truncations)
        if len(trunc) != 3 or any(t < 1 for t in trunc):
            raise ValueError("three positive truncations required")
        self.alpha, self.beta, self.mu = (
            complex(m) if _is_scalar(m) else tuple(complex(c) for c in m)
            for m in (alpha, beta, mu))
        self.truncations, self.omega_m = trunc, omega_m

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
    import numpy as np
    if _is_scalar(mode):
        return coherent_amplitudes(complex(mode), truncation), complex(mode)
    vec = np.asarray(mode, dtype=complex)
    if vec.ndim != 1 or vec.size < 1 or vec.size > truncation:
        raise ValueError(f"{name} amplitude list does not fit truncation")
    with np.errstate(over="ignore"):   # an overflow to inf fails below
        norm = float(np.sum(np.abs(vec) ** 2))
    if not abs(norm - 1.0) <= 1e-12:  # NaN fails too
        raise ValueError(f"{name} amplitudes not normalized: {norm!r}")
    if vec.size < truncation:
        vec = np.pad(vec, (0, truncation - vec.size))
    return vec, None


def cavity_dense(rho_D: float, rho_S: float, kappa_D: float, kappa_S: float,
                 truncations: Tuple[int, int, int],
                 omega_m: float) -> Hamiltonian:
    """Truncated three-mirror H in units hbar*omega_m (real symmetric).

    H conserves n_a and n_b, so it is block diagonal with one n_c x n_c
    block per (n_a, n_b), and each block is a band: its diagonal, the
    x_c = c + c^dag band at distance 1 and the c^2 + c^dag^2 band at
    distance 2.  The diagonal sums all six terms in the order of the
    Kronecker-product form of H, so a non-finite ratio shows there; off
    the diagonal that form adds exact zeros to one nonzero product, so
    each band is that product.  The entries are identical to the
    Kronecker form without forming any block.  The one-mirror cavity is
    the case rho_S = kappa_S = 0 with a single n_b.
    """
    import numpy as np
    na, nb, nc = truncations
    n_a = np.repeat(np.arange(na, dtype=float), nb)[:, None]
    n_b = np.tile(np.arange(nb, dtype=float), na)[:, None]
    m = np.arange(nc, dtype=float)
    root = np.sqrt(m[1:])
    bands = (rho_D * n_a + rho_S * n_b + kappa_D * (n_a * 0.0) + m
             + kappa_S * (n_b * m) + 0.5 * kappa_S * n_b,
             kappa_D * (n_a * root),
             0.5 * kappa_S * (n_b * (root[:-1] * root[1:])))
    start = np.arange(na * nb)[:, None] * nc
    entries = []
    for k, band in enumerate(bands):
        row = (start + np.arange(nc - k)).ravel()
        entries.append((row, row + k, band.ravel()))
        if k:
            entries.append((row + k, row, band.ravel()))
    rows, cols, values = (np.concatenate(part) for part in zip(*entries))
    return Hamiltonian(na * nb * nc, rows, cols, values, unit=omega_m)


def three_mirror_dense(params: ThreeMirrorParams) -> Hamiltonian:
    return cavity_dense(float(params.rho_D), float(params.rho_S),
                        float(params.kappa_D), float(params.kappa_S),
                        params.truncations, params.omega_m)


def three_mirror_initial_state(params: ThreeMirrorParams) -> np.ndarray:
    import numpy as np
    na, nb, nc = params.truncations
    a_vec, _ = _mode_vector(params.alpha, na, "alpha")
    b_vec, _ = _mode_vector(params.beta, nb, "beta")
    c_vec, _ = _mode_vector(params.mu, nc, "mu")
    psi0 = np.kron(a_vec, np.kron(b_vec, c_vec))
    return psi0 / np.linalg.norm(psi0)


def cavity_exact(blocks: Iterable[Tuple[str, int, complex, np.ndarray]],
                 denominator: int, unit: float, truncation: str
                 ) -> Tuple[Spectrum, StateDecomposition]:
    """Exact levels and state of a mirror displaced by the field.

    Each block is (label prefix, offset numerator over ``denominator``,
    field amplitude, mirror amplitudes in the block's displaced basis)
    and holds level offset + m, labeled prefix + m, with amplitude field
    times mirror amplitude, for every mirror quantum m.  The mass lost to
    the truncation (described by ``truncation`` in the error) must stay
    below 1e-10, and the amplitudes are renormalized.
    """
    levels = []
    amps = []
    mass = 0.0
    suffixes = []
    for prefix, base, weight, mirror in blocks:
        weight = complex(weight)  # numpy scalar arithmetic per level is slower
        block = [weight * mirror_amp for mirror_amp in mirror.tolist()]
        if len(suffixes) < len(block):
            suffixes = [str(m) for m in range(len(block))]
        levels += zip([prefix + m for m in suffixes[:len(block)]],
                      range(base, base + denominator * len(block),
                            denominator))
        for amp in block:
            mass += abs(amp) ** 2   # a zero adds nothing to the sum's bits
        amps += block
    tail = 1.0 - mass
    if not tail < TAIL_TOL:
        raise ValueError(
            f"truncation too small: tail mass {tail:.3e} at {truncation}")
    scale = 1.0 / math.sqrt(mass)
    spectrum = Spectrum(levels=levels, unit=unit, denominator=denominator)
    return spectrum, StateDecomposition(spectrum, [a * scale for a in amps])


def over_one_denominator(*ratios: Fraction) -> Tuple[int, ...]:
    """The numerators of the ratios over their lcm denominator D, then D."""
    d = math.lcm(*(r.denominator for r in ratios))
    return (*(r.numerator * (d // r.denominator) for r in ratios), d)


def three_mirror_exact(params: ThreeMirrorParams
                       ) -> Tuple[Spectrum, StateDecomposition]:
    """Exact spectrum and state expansion for the C_S = 0 family.

    Block eigenvectors are |n_a>|n_b> D(-kappa_D n_a)|m>, labeled
    "n_a,n_b,m"; with nonzero kappa_D the mirror input must be coherent
    so its displaced-frame amplitudes stay closed-form.
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
    rho_d, rho_s, kd2, d = over_one_denominator(
        params.rho_D, params.rho_S, params.kappa_D * params.kappa_D)

    def blocks():
        for i in range(na):
            mirror = (c_vec if params.kappa_D == 0 else
                      displaced_frame_amplitudes(
                          mu, -float(params.kappa_D) * i, nc))
            for j in range(nb):
                yield (f"{i},{j},", rho_d * i + rho_s * j - kd2 * i * i,
                       a_vec[i] * b_vec[j], mirror)

    return cavity_exact(blocks(), d, params.omega_m, str(params.truncations))


def _mirror_moments(params: ThreeMirrorParams) -> Tuple[float, float, float]:
    """(<n_c>, <c + c^dag>, <c^2 + c^dag^2>) over the mirror amplitudes.

    Cross terms conjugate the lower index: Re(M_n^* M_{n+1}) and
    Re(M_n^* M_{n+2}); hermiticity of the displacement and squeeze
    operators forces the conjugation even though it is easy to lose
    when transcribing the sums.
    """
    import numpy as np
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
    import numpy as np
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
