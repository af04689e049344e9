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
from fractions import Fraction
from typing import Callable, Mapping, Optional, Tuple, Union

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
from .oracle import Hamiltonian
from .rational import IncommensurableError, parse_rational, rationalize

__all__ = [
    "ConfigError",
    "LoadedRun",
    "RunOptions",
    "load_config",
    "parse_complex",
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


def _complex_list(text: str, sep: str = ";") -> Tuple[complex, ...]:
    items = [piece for piece in text.split(sep) if piece.strip()]
    if not items:
        raise ConfigError("empty list")
    return tuple(parse_complex(piece) for piece in items)


def _exact_value(text: str) -> Fraction:
    """Rational parse with decimal rationalization; floats are an error.

    A rational past the float range is as non-finite as "1e400": the
    models and the reports compute with its float value.
    """
    s = text.strip()
    try:
        value = parse_rational(s)
    except ValueError:
        try:
            value = float(s)
        except ValueError as exc:
            raise ConfigError(f"bad rational entry {s!r}") from exc
    try:
        finite = math.isfinite(value)
    except OverflowError:
        finite = False
    if not finite:
        raise ConfigError(f"non-finite entry {s!r}")
    if isinstance(value, Fraction):
        return value
    return rationalize(value, max_denominator=RATIONALIZE_DENOMINATOR,
                       tolerance=RATIONALIZE_TOL)


def _number(text: str) -> Union[Fraction, float]:
    """Like _exact_value but incommensurable entries survive as floats."""
    try:
        return _exact_value(text)
    except IncommensurableError:
        return float(text.strip())


class RunOptions:
    """[options] with command-line flags on top; None: derived per run."""

    __slots__ = ("t_max", "n_range")

    def __init__(self, t_max: Optional[float] = None, n_range: int = 16):
        self.t_max, self.n_range = t_max, n_range


# option -> (type, range test, range in words); NaN fails every test
_OPTION_RULES = {
    "t_max": (float, lambda v: 0 < v < math.inf, "positive and finite"),
    "n_range": (int, lambda v: v >= 1, ">= 1"),
}
# every option is also a command-line flag, with its type; flags win
FLAGS = {key: kind for key, (kind, _, _) in _OPTION_RULES.items()}


def _run_options(cp: configparser.ConfigParser, flags: Mapping) -> RunOptions:
    values = {}
    sec = cp["options"] if cp.has_section("options") else {}
    for key in sec:
        if key not in _OPTION_RULES:
            raise ConfigError(f"unknown option {key!r} in [options]")
        try:
            values[key] = _OPTION_RULES[key][0](sec[key])
        except ValueError as exc:
            raise ConfigError(f"bad option {key} = {sec[key]!r}") from exc
    values.update((key, flags[key]) for key in FLAGS
                  if flags.get(key) is not None)
    for key, value in values.items():
        _, in_range, stated = _OPTION_RULES[key]
        if not in_range(value):
            raise ConfigError(f"{key} must be {stated}")
    return RunOptions(**values)


class LoadedRun:
    """Everything a command needs, constructed except the oracle's input.

    ``hamiltonian`` and ``psi0`` come from one call of ``build`` on first
    read: the exact route never needs them, and the matrix entries are
    the largest object a run holds.
    """

    __slots__ = ("model", "spectrum", "state", "build", "partial", "trials",
                 "mean_energy_input", "options", "_built")

    def __init__(self, model: str, spectrum: Optional[Spectrum] = None,
                 state: Optional[StateDecomposition] = None,
                 build: Optional[Callable[[], Tuple[Hamiltonian,
                                                    np.ndarray]]] = None,
                 partial: Optional[PartialSpectrum] = None,
                 trials: Tuple[Fraction, ...] = (),
                 mean_energy_input: Union[Fraction, float, None] = None):
        self.model, self.spectrum, self.state = model, spectrum, state
        self.build, self.partial, self.trials = build, partial, trials
        self.mean_energy_input = mean_energy_input
        self.options = RunOptions()
        self._built = None

    def _dense(self) -> Tuple[Optional[Hamiltonian], Optional[np.ndarray]]:
        if self._built is not None or self.build is None:
            return self._built or (None, None)
        import numpy as np
        try:
            # no numpy overflow warnings: the finiteness checks report a
            # non-finite entry as a config error
            with np.errstate(over="ignore", invalid="ignore"):
                self._built = self.build()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        except MemoryError as exc:
            raise ConfigError(
                f"the {self.model} matrix does not fit in memory") from exc
        return self._built

    @property
    def hamiltonian(self) -> Optional[Hamiltonian]:
        return self._dense()[0]

    @property
    def psi0(self) -> Optional[np.ndarray]:
        return self._dense()[1]


def _normalized(psi0) -> np.ndarray:
    """psi0 / |psi0|, with psi0 first scaled by the power of two at its
    largest component: exact, so the norm neither underflows nor
    overflows, and wherever it did neither the bits are unchanged."""
    import numpy as np
    psi0 = np.ascontiguousarray(psi0, dtype=complex)
    parts = psi0.view(float)
    top = float(np.max(np.abs(parts), initial=0.0))
    if 0 < top < math.inf:              # nan, inf and zero fail below
        psi0 = np.ldexp(parts, -math.frexp(top)[1]).view(complex)
    with np.errstate(over="ignore"):   # an overflow to inf fails below
        norm = float(np.linalg.norm(psi0))
    if not 0 < norm < math.inf:
        raise ConfigError(f"psi0 cannot be normalized: |psi0| = {norm!r}")
    return psi0 / norm


def _section(cp: configparser.ConfigParser, name: str):
    if not cp.has_section(name):
        raise ConfigError(f"missing [{name}] section")
    return cp[name]


def _get(sec, key: str, parse=str, default: Optional[str] = None):
    """parse(the text under ``key``); its errors name the key."""
    text = sec.get(key, default)
    if text is None:
        raise ConfigError(f"missing key {key!r} in [{sec.name}]")
    try:
        return parse(text)
    except IncommensurableError:
        raise                       # a physical verdict, not a usage error
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _each(parse):
    """Parser of a whitespace-separated list, one ``parse`` per token."""
    return lambda text: tuple(parse(tok) for tok in text.split())


def _load_spin_half(sec) -> LoadedRun:
    params = SpinHalfParams(mu_B0=_get(sec, "mu_B0", float, "1"),
                            theta=_get(sec, "theta", float))
    spectrum, state = spin_half(params)
    return LoadedRun(model="spin_half", spectrum=spectrum, state=state,
                     build=lambda: spin_half_dense(params))


def _load_free_field(sec) -> LoadedRun:
    omega = _get(sec, "omega", float, "1")
    has_list = "occupied_n" in sec
    if has_list == ("alpha" in sec):
        raise ConfigError(
            "free_field needs either occupied_n+amplitudes or "
            "alpha+truncation")
    if has_list:
        ns = _get(sec, "occupied_n", _each(int))
        amps = _get(sec, "amplitudes", _complex_list)
        if len(ns) != len(amps):
            raise ConfigError("occupied_n and amplitudes differ in length")
        spectrum, state = free_field(omega, ns, amps)
        dim = max(ns) + 1
    else:
        alpha = _get(sec, "alpha", parse_complex)
        dim = _get(sec, "truncation", int, "31")
        spectrum, state = free_field_coherent(omega, alpha, dim)

    def build():
        import numpy as np
        psi0 = np.zeros(dim, dtype=complex)
        for label, amp in state.entries:
            psi0[int(label)] = amp
        # the coherent amplitudes are normalized over the truncation
        return (free_field_dense(omega, dim),
                _normalized(psi0) if has_list else psi0)

    return LoadedRun(model="free_field", spectrum=spectrum, state=state,
                     build=build)


def _load_two_mirror(sec) -> LoadedRun:
    params = TwoMirrorParams(
        r=_get(sec, "r", _exact_value),
        k_squared=_get(sec, "k_squared", _exact_value),
        field_amplitudes=_get(sec, "field_amplitudes", _complex_list),
        beta=_get(sec, "beta", parse_complex, "0+0 i"),
        mirror_truncation=_get(sec, "mirror_truncation", int, "40"),
        omega_m=_get(sec, "omega_m", _number, "1"),
        k_sign=_get(sec, "k_sign", int, "1"))
    spectrum, state = two_mirror_spectrum(params)
    return LoadedRun(model="two_mirror", spectrum=spectrum, state=state,
                     build=lambda: two_mirror_dense(params))


def _mode_input(raw: str):
    return _complex_list(raw) if ";" in raw else parse_complex(raw)


def _load_three_mirror(sec) -> LoadedRun:
    raw_unit = sec.get("omega_m", "1")
    unit = _get(sec, "omega_m", _number, "1")
    if not unit > 0:
        raise ConfigError(f"omega_m must be positive, got {raw_unit.strip()!r}")

    def scaled(key: str) -> Union[Fraction, float]:
        # exact over exact stays a Fraction; any float makes it a float
        return _get(sec, key, _number, "0") / unit

    def mode(key: str):
        return _get(sec, key, _mode_input, "0+0 i")

    params = ThreeMirrorParams(
        rho_D=scaled("omega_D"), rho_S=scaled("omega_S"),
        kappa_D=scaled("C_D"), kappa_S=scaled("C_S"),
        alpha=mode("alpha"), beta=mode("beta"), mu=mode("mu"),
        truncations=_get(sec, "truncations", _each(int), "15 15 25"),
        omega_m=float(unit))

    def build():
        psi0 = three_mirror_initial_state(params)
        return three_mirror_dense(params), psi0

    run = LoadedRun(model="three_mirror", build=build)
    if params.exact_family:
        run.spectrum, run.state = three_mirror_exact(params)
    return run


def _load_raw_spectrum(sec) -> LoadedRun:
    values = _get(sec, "levels", _each(_number))
    amps = _get(sec, "amplitudes", _complex_list)
    if len(amps) != len(values):
        raise ConfigError("levels and amplitudes differ in length")
    unit = _get(sec, "unit", float, "1")
    labels = sec.get("labels", "").split() or [str(i) for i in
                                               range(len(values))]
    if len(labels) != len(values):
        raise ConfigError("labels and levels differ in length")
    spectrum = Spectrum(levels=list(zip(labels, values)), unit=unit)
    state = StateDecomposition(
        entries=[(lab, a) for lab, a in zip(labels, amps) if a != 0])
    return LoadedRun(
        model="raw_spectrum", spectrum=spectrum, state=state,
        build=lambda: (Hamiltonian.diagonal([float(v) for v in values],
                                            unit=unit),
                       _normalized(amps)))


def _load_dense_matrix(sec) -> LoadedRun:
    import numpy as np
    dim = _get(sec, "dimension", int)
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
    # checked here, not on first use: the matrix is the input itself
    h = Hamiltonian.from_dense(matrix, unit=_get(sec, "unit", float, "1"))
    return LoadedRun(model="dense_matrix", build=lambda: (h, psi0))


def _load_partial(sec) -> LoadedRun:
    known = _get(sec, "known", _each(_exact_value))
    partial = PartialSpectrum(
        known=[(f"L{i + 1}", v) for i, v in enumerate(known)],
        unit=_get(sec, "unit", float, "1"))
    trials = _get(sec, "trials", _each(_exact_value), "")
    mean = _get(sec, "mean_energy",
                lambda text: _number(text) if text.strip() else None, "")
    return LoadedRun(model="partial_spectrum", partial=partial, trials=trials,
                     mean_energy_input=mean)


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
    options = _run_options(cp, flags or {})
    try:
        run = _LOADERS[model](_section(cp, model))
    except (IncommensurableError, ConfigError):
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc
    run.options = options
    return run
