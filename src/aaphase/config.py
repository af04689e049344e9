"""INI-style run configuration for the command-line tools.

A [run] section names the model; a section of the same name holds its
parameters, with field names matching the parameter types.  Rationals
are written "p/q", complex numbers "re+im i", lists of complex numbers
';'-separated.  Decimal spectrum entries are rationalized at the
boundary (denominators up to 1000, tolerance 1e-9); entries that fail
stay floats for raw spectra, so the cyclicality test can reject them
with a physical reason, but are a hard error where exactness is
mandatory (constraint inputs).
"""

from __future__ import annotations

import cmath
import configparser
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Mapping, Optional, Tuple, Union

import numpy as np

from .constraints import PartialSpectrum
from .engine import Spectrum, StateDecomposition
from .models import (
    SpinHalfParams,
    ThreeMirrorParams,
    TwoMirrorParams,
    free_field,
    free_field_coherent,
    free_field_dense,
    spin_half,
    spin_half_dense,
    three_mirror_dense,
    three_mirror_exact,
    three_mirror_initial_state,
    two_mirror_dense,
    two_mirror_spectrum,
)
from .oracle import DenseHamiltonian
from .rational import IncommensurableError, parse_rational, rationalize

__all__ = [
    "ConfigError",
    "LoadedRun",
    "RunOptions",
    "load_config",
    "parse_complex",
    "format_complex",
]

RATIONALIZE_DENOMINATOR = 1000
RATIONALIZE_TOL = 1e-9


class ConfigError(ValueError):
    """Malformed run configuration (usage error, exit code 64)."""


def parse_complex(text: str) -> complex:
    """Parse "re+im i" (also bare reals and "im i"); both parts finite."""
    s = text.strip()
    if not s:
        raise ConfigError("empty complex entry")
    re_text, im_text = s, "0"
    if s.endswith("i"):
        body = s[:-1].strip()
        cut = next((idx for idx in range(len(body) - 1, 0, -1)
                    if body[idx] in "+-" and body[idx - 1] not in "eE"), 0)
        re_text, im_text = body[:cut] or "0", body[cut:]
    try:
        z = complex(float(re_text), float(im_text))
    except ValueError as exc:
        raise ConfigError(f"bad complex entry {text!r}") from exc
    if not cmath.isfinite(z):
        raise ConfigError(f"non-finite complex entry {text!r}")
    return z


def format_complex(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g} i"


def _complex_list(text: str, sep: str = ";") -> Tuple[complex, ...]:
    items = [piece for piece in text.split(sep) if piece.strip()]
    if not items:
        raise ConfigError("empty list")
    return tuple(parse_complex(piece) for piece in items)


def _exact_value(text: str) -> Fraction:
    """Rational parse with decimal rationalization; floats are an error."""
    s = text.strip()
    try:
        return parse_rational(s)
    except ValueError:
        pass
    try:
        x = float(s)
    except ValueError as exc:
        raise ConfigError(f"bad rational entry {s!r}") from exc
    if not math.isfinite(x):
        raise ConfigError(f"non-finite entry {s!r}")
    return rationalize(x, max_denominator=RATIONALIZE_DENOMINATOR,
                       tolerance=RATIONALIZE_TOL)


def _number(text: str) -> Union[Fraction, float]:
    """Like _exact_value but incommensurable entries survive as floats."""
    try:
        return _exact_value(text)
    except IncommensurableError:
        return float(text.strip())


@dataclass(frozen=True)
class RunOptions:
    """[options] with command-line flags on top; None: derived per run."""

    t_max: Optional[float] = None
    fidelity_tol: float = 1e-8
    steps: Optional[int] = None
    tolerance: float = 1e-6
    n_range: int = 16
    approximate: bool = False


# option -> (type, range test, range in words); NaN fails every test
_OPTION_RULES = {
    "t_max": (float, lambda v: 0 < v < math.inf, "positive and finite"),
    "fidelity_tol": (float, lambda v: 0 < v <= 1e-3, "in (0, 1e-3]"),
    "steps": (int, lambda v: v >= 2, ">= 2"),
    "tolerance": (float, lambda v: 0 < v < 1, "in (0, 1)"),
    "n_range": (int, lambda v: v >= 1, ">= 1"),
    "approximate": (bool, lambda v: True, ""),
}
# options a command-line flag can also set, with its type; flags win
FLAGS = {key: _OPTION_RULES[key][0]
         for key in ("n_range", "fidelity_tol", "t_max")}


def _run_options(cp: configparser.ConfigParser, model: str,
                 flags: Mapping) -> RunOptions:
    # off its exact family a three-mirror run has no exact return to find
    values = {"approximate": model == "three_mirror"}
    sec = cp["options"] if cp.has_section("options") else {}
    for key in sec:
        if key not in _OPTION_RULES:
            raise ConfigError(f"unknown option {key!r} in [options]")
        kind = _OPTION_RULES[key][0]
        try:
            values[key] = (sec.getboolean(key) if kind is bool
                           else kind(sec[key]))
        except ValueError as exc:
            raise ConfigError(f"bad option {key} = {sec[key]!r}") from exc
    values.update((key, flags[key]) for key in FLAGS
                  if flags.get(key) is not None)
    for key, value in values.items():
        _, in_range, stated = _OPTION_RULES[key]
        if not in_range(value):
            raise ConfigError(f"{key} must be {stated}")
    return RunOptions(**values)


@dataclass
class LoadedRun:
    """Everything a command needs, constructed except the dense matrix.

    ``dense`` is built by ``build_dense`` on first read: the exact route
    never needs it, and on the cavity models it is the largest object a
    run holds.
    """

    model: str
    spectrum: Optional[Spectrum] = None
    state: Optional[StateDecomposition] = None
    build_dense: Optional[Callable[[], DenseHamiltonian]] = field(
        default=None, repr=False)
    psi0: Optional[np.ndarray] = None
    partial: Optional[PartialSpectrum] = None
    trials: Tuple[Fraction, ...] = ()
    mean_energy_input: Union[Fraction, float, None] = None
    options: RunOptions = RunOptions()

    @cached_property
    def dense(self) -> Optional[DenseHamiltonian]:
        if self.build_dense is None:
            return None
        try:
            return self.build_dense()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


def _normalized(psi0: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(psi0))
    if not 0 < norm < math.inf:
        raise ConfigError(f"psi0 cannot be normalized: |psi0| = {norm!r}")
    return psi0 / norm


def _section(cp: configparser.ConfigParser, name: str):
    if not cp.has_section(name):
        raise ConfigError(f"missing [{name}] section")
    return cp[name]


def _get(sec, key: str, parse=str, default: Optional[str] = None):
    """parse(the text under ``key``); its ConfigError names the key."""
    text = sec.get(key, default)
    if text is None:
        raise ConfigError(f"missing key {key!r} in [{sec.name}]")
    try:
        return parse(text)
    except ConfigError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _load_spin_half(sec) -> LoadedRun:
    params = SpinHalfParams(mu_B0=float(sec.get("mu_B0", "1")),
                            theta=float(_get(sec, "theta")))
    spectrum, state = spin_half(params)
    dense, psi0 = spin_half_dense(params)
    return LoadedRun(model="spin_half", spectrum=spectrum, state=state,
                     build_dense=lambda: dense, psi0=psi0)


def _load_free_field(sec) -> LoadedRun:
    omega = float(sec.get("omega", "1"))
    has_list = "occupied_n" in sec
    if has_list == ("alpha" in sec):
        raise ConfigError(
            "free_field needs either occupied_n+amplitudes or "
            "alpha+truncation")
    if has_list:
        ns = [int(tok) for tok in _get(sec, "occupied_n").split()]
        amps = _get(sec, "amplitudes", _complex_list)
        if len(ns) != len(amps):
            raise ConfigError("occupied_n and amplitudes differ in length")
        spectrum, state = free_field(omega, ns, amps)
        dim = max(ns) + 1
        psi0 = np.zeros(dim, dtype=complex)
        for n, a in zip(ns, amps):
            psi0[n] = a
        psi0 = _normalized(psi0)
    else:
        alpha = _get(sec, "alpha", parse_complex)
        truncation = int(sec.get("truncation", "31"))
        spectrum, state = free_field_coherent(omega, alpha, truncation)
        psi0 = np.zeros(truncation, dtype=complex)
        for label, amp in state.entries:
            psi0[int(label)] = amp
        dim = truncation
    dense = free_field_dense(omega, dim)
    return LoadedRun(model="free_field", spectrum=spectrum, state=state,
                     build_dense=lambda: dense, psi0=psi0)


def _load_two_mirror(sec) -> LoadedRun:
    params = TwoMirrorParams(
        r=_exact_value(_get(sec, "r")),
        k_squared=_exact_value(_get(sec, "k_squared")),
        field_amplitudes=_get(sec, "field_amplitudes", _complex_list),
        beta=_get(sec, "beta", parse_complex, "0+0 i"),
        mirror_truncation=int(sec.get("mirror_truncation", "40")),
        omega_m=float(sec.get("omega_m", "1")),
        k_sign=int(sec.get("k_sign", "1")))
    spectrum, state = two_mirror_spectrum(params)
    dense, psi0 = two_mirror_dense(params)
    return LoadedRun(model="two_mirror", spectrum=spectrum, state=state,
                     build_dense=lambda: dense, psi0=psi0)


def _mode_input(raw: str):
    return _complex_list(raw) if ";" in raw else parse_complex(raw)


def _load_three_mirror(sec) -> LoadedRun:
    raw_unit = sec.get("omega_m", "1")
    unit = _number(raw_unit)
    if not unit > 0:
        raise ConfigError(f"omega_m must be positive, got {raw_unit.strip()!r}")

    def scaled(key: str) -> Union[Fraction, float]:
        # exact over exact stays a Fraction; any float makes it a float
        return (_number(sec[key]) if key in sec else Fraction(0)) / unit

    def mode(key: str):
        return _get(sec, key, _mode_input, "0+0 i")

    truncs = tuple(int(tok) for tok in sec.get("truncations", "15 15 25").split())
    params = ThreeMirrorParams(
        rho_D=scaled("omega_D"), rho_S=scaled("omega_S"),
        kappa_D=scaled("C_D"), kappa_S=scaled("C_S"),
        alpha=mode("alpha"), beta=mode("beta"), mu=mode("mu"),
        truncations=truncs, omega_m=float(raw_unit))
    run = LoadedRun(model="three_mirror",
                    build_dense=lambda: three_mirror_dense(params),
                    psi0=three_mirror_initial_state(params))
    if params.exact_family:
        run.spectrum, run.state = three_mirror_exact(params)
    return run


def _load_raw_spectrum(sec) -> LoadedRun:
    values = [_number(tok) for tok in _get(sec, "levels").split()]
    amps = _get(sec, "amplitudes", _complex_list)
    if len(amps) != len(values):
        raise ConfigError("levels and amplitudes differ in length")
    unit = float(sec.get("unit", "1"))
    labels = sec.get("labels", "").split() or [str(i) for i in
                                               range(len(values))]
    if len(labels) != len(values):
        raise ConfigError("labels and levels differ in length")
    spectrum = Spectrum(levels=list(zip(labels, values)), unit=unit)
    state = StateDecomposition(
        entries=[(lab, a) for lab, a in zip(labels, amps) if a != 0])
    matrix = np.diag([float(v) for v in values])
    psi0 = _normalized(np.asarray(amps, dtype=complex))
    dense = DenseHamiltonian(matrix, unit=unit)
    return LoadedRun(model="raw_spectrum", spectrum=spectrum, state=state,
                     build_dense=lambda: dense, psi0=psi0)


def _load_dense_matrix(sec) -> LoadedRun:
    dim = int(_get(sec, "dimension"))
    entries = _get(sec, "entries", lambda text: _complex_list(text, ","))
    if len(entries) != dim * dim:
        raise ConfigError(f"expected {dim * dim} matrix entries, "
                          f"got {len(entries)}")
    matrix = np.array(entries, dtype=complex).reshape(dim, dim)
    psi0 = np.array(_get(sec, "psi0", lambda text: _complex_list(text, ",")),
                    dtype=complex)
    if psi0.size != dim:
        raise ConfigError("psi0 length does not match dimension")
    psi0 = _normalized(psi0)
    dense = DenseHamiltonian(matrix, unit=float(sec.get("unit", "1")))
    return LoadedRun(model="dense_matrix", build_dense=lambda: dense,
                     psi0=psi0)


def _load_partial(sec) -> LoadedRun:
    known = [_exact_value(tok) for tok in _get(sec, "known").split()]
    partial = PartialSpectrum(
        known=[(f"L{i + 1}", v) for i, v in enumerate(known)],
        unit=float(sec.get("unit", "1")))
    trials = tuple(_exact_value(tok)
                   for tok in sec.get("trials", "").split())
    mean_raw = sec.get("mean_energy", "").strip()
    return LoadedRun(model="partial_spectrum", partial=partial, trials=trials,
                     mean_energy_input=_number(mean_raw) if mean_raw else None)


_LOADERS = {
    "spin_half": _load_spin_half,
    "free_field": _load_free_field,
    "two_mirror": _load_two_mirror,
    "three_mirror": _load_three_mirror,
    "raw_spectrum": _load_raw_spectrum,
    "dense_matrix": _load_dense_matrix,
    "partial_spectrum": _load_partial,
}


def load_config(path: str, flags: Optional[Mapping] = None) -> LoadedRun:
    """Read the run at ``path``; ``flags`` maps option names to flag
    values (None: not given).  Options are checked before any build."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                   interpolation=None)
    try:
        read = cp.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(str(exc).splitlines()[0]) from exc
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    run_sec = _section(cp, "run")
    model = _get(run_sec, "model").strip()
    if model not in _LOADERS:
        raise ConfigError(f"unknown model {model!r}; "
                          f"expected one of {', '.join(_LOADERS)}")
    options = _run_options(cp, model, flags or {})
    try:
        run = _LOADERS[model](_section(cp, model))
    except (IncommensurableError, ConfigError):
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc
    run.options = options
    return run
