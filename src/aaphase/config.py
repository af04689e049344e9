"""INI-style run configuration for the command-line tools.

A [run] section names the model; a section of the same name holds its
parameters, and an optional [options] section the run options.  The key
tables below (``_RUN``, ``_OPTIONS`` and each model's entry in
``_MODELS``) are the one list of keys: every section is read through
``_read`` over its table, and a key outside the table, a section other
than these three or a non-empty [DEFAULT] is a configuration error.
Rationals are written "p/q", complex numbers "re+im i", lists of complex
numbers ';'-separated.  Decimal spectrum entries are rationalized at the
boundary (denominators up to 1000, tolerance 1e-9, never a nonzero one to
0); entries that fail stay floats for raw spectra, so the cyclicality
test can reject them with a physical reason, but are a hard error where
exactness is mandatory (constraint inputs).
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
    models and the reports compute with its float value.  A nonzero
    decimal whose best rational is 0 (|value| <= RATIONALIZE_TOL) fails
    rationalization: it never becomes exactly 0.
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
    best = rationalize(value, max_denominator=RATIONALIZE_DENOMINATOR,
                       tolerance=RATIONALIZE_TOL)
    if value and not best:
        raise IncommensurableError("incommensurable input")
    return best


def _number(text: str) -> Union[Fraction, float]:
    """Like _exact_value but incommensurable entries survive as floats."""
    try:
        return _exact_value(text)
    except IncommensurableError:
        return float(text.strip())


class LoadedRun:
    """Everything a command needs, constructed except the oracle's input.

    ``t_max`` and ``n_range`` are the run options that ``load_config``
    sets (``t_max`` None: derived per run).  ``hamiltonian`` and ``psi0``
    come from one call of ``build`` on first read: the exact route never
    needs them, and the matrix entries are the largest object a run holds.
    """

    __slots__ = ("model", "spectrum", "state", "build", "partial", "trials",
                 "mean_energy_input", "t_max", "n_range", "_built")

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
        self.t_max = self.n_range = self._built = None

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


def _each(parse):
    """Parser of a whitespace-separated list, one ``parse`` per token."""
    return lambda text: tuple(parse(tok) for tok in text.split())


def _commas(text: str) -> Tuple[complex, ...]:
    return _complex_list(text, ",")


def _mode_input(raw: str):
    return _complex_list(raw) if ";" in raw else parse_complex(raw)


def _positive_number(text: str) -> Union[Fraction, float]:
    value = _number(text)
    if not value > 0:   # the three-mirror frequencies are divided by it
        raise ValueError(f"must be positive, got {text.strip()!r}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if not value >= 1:
        raise ValueError(f"must be >= 1, got {text.strip()!r}")
    return value


def _load_spin_half(mu_B0, theta) -> LoadedRun:
    params = SpinHalfParams(mu_B0=mu_B0, theta=theta)
    spectrum, state = spin_half(params)
    return LoadedRun(model="spin_half", spectrum=spectrum, state=state,
                     build=lambda: spin_half_dense(params))


def _load_free_field(omega, occupied_n, amplitudes, alpha,
                     truncation) -> LoadedRun:
    # either occupied_n + amplitudes or alpha with an optional truncation
    has_list = occupied_n is not None
    if (has_list == (alpha is not None) or (amplitudes is None) == has_list
            or has_list and truncation is not None):
        raise ConfigError(
            "free_field needs either occupied_n+amplitudes or "
            "alpha+truncation")
    if has_list:
        if len(occupied_n) != len(amplitudes):
            raise ConfigError("occupied_n and amplitudes differ in length")
        spectrum, state = free_field(omega, occupied_n, amplitudes)
        dim = max(occupied_n) + 1
    else:
        dim = 31 if truncation is None else truncation
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


def _load_two_mirror(**entries) -> LoadedRun:
    params = TwoMirrorParams(**entries)
    spectrum, state = two_mirror_spectrum(params)
    return LoadedRun(model="two_mirror", spectrum=spectrum, state=state,
                     build=lambda: two_mirror_dense(params))


def _load_three_mirror(omega_m, omega_D, omega_S, C_D, C_S, alpha, beta, mu,
                       truncations) -> LoadedRun:
    # exact over exact stays a Fraction; any float makes it a float
    params = ThreeMirrorParams(
        rho_D=omega_D / omega_m, rho_S=omega_S / omega_m,
        kappa_D=C_D / omega_m, kappa_S=C_S / omega_m,
        alpha=alpha, beta=beta, mu=mu, truncations=truncations,
        omega_m=float(omega_m))

    def build():
        psi0 = three_mirror_initial_state(params)
        return three_mirror_dense(params), psi0

    run = LoadedRun(model="three_mirror", build=build)
    if params.exact_family:
        run.spectrum, run.state = three_mirror_exact(params)
    return run


def _load_raw_spectrum(levels, amplitudes, unit, labels) -> LoadedRun:
    if len(amplitudes) != len(levels):
        raise ConfigError("levels and amplitudes differ in length")
    labels = labels or [str(i) for i in range(len(levels))]
    if len(labels) != len(levels):
        raise ConfigError("labels and levels differ in length")
    spectrum = Spectrum(levels=list(zip(labels, levels)), unit=unit)
    state = StateDecomposition(spectrum, amplitudes)
    return LoadedRun(
        model="raw_spectrum", spectrum=spectrum, state=state,
        build=lambda: (Hamiltonian.diagonal([float(v) for v in levels],
                                            unit=unit),
                       _normalized(amplitudes)))


def _load_dense_matrix(dimension, entries, psi0, unit) -> LoadedRun:
    import numpy as np
    if len(entries) != dimension * dimension:
        raise ConfigError(f"expected {dimension * dimension} matrix entries, "
                          f"got {len(entries)}")
    matrix = np.array(entries, dtype=complex).reshape(dimension, dimension)
    if len(psi0) != dimension:
        raise ConfigError("psi0 length does not match dimension")
    psi0 = _normalized(psi0)
    # checked here, not on first use: the matrix is the input itself
    h = Hamiltonian.from_dense(matrix, unit=unit)
    return LoadedRun(model="dense_matrix", build=lambda: (h, psi0))


def _load_partial(known, unit, trials, mean_energy) -> LoadedRun:
    partial = PartialSpectrum(
        known=[(f"L{i + 1}", v) for i, v in enumerate(known)], unit=unit)
    return LoadedRun(model="partial_spectrum", partial=partial, trials=trials,
                     mean_energy_input=mean_energy)


# A key table maps each key of a section, in the order its entries are
# parsed, to (parser, default text); an absent key with default None reads
# as None, and one with default _REQUIRED is a configuration error.
_REQUIRED = object()
_RUN = {"model": (str.strip, _REQUIRED)}
_OPTIONS = {"t_max": (float, None), "n_range": (int, "16")}
# every option is also a command-line flag, cast by its parser; flags win
FLAGS = {key: parse for key, (parse, _) in _OPTIONS.items()}
# model -> (loader, key table of its section); the loader takes the parsed
# entries as keyword arguments and looks its builders up when it runs
_MODELS = {
    "spin_half": (_load_spin_half, {
        "mu_B0": (float, "1"), "theta": (float, _REQUIRED)}),
    "free_field": (_load_free_field, {
        "omega": (float, "1"), "occupied_n": (_each(int), None),
        "amplitudes": (_complex_list, None), "alpha": (parse_complex, None),
        "truncation": (int, None)}),
    "two_mirror": (_load_two_mirror, {
        "r": (_exact_value, _REQUIRED), "k_squared": (_exact_value, _REQUIRED),
        "field_amplitudes": (_complex_list, _REQUIRED),
        "beta": (parse_complex, "0+0 i"), "mirror_truncation": (int, "40"),
        "omega_m": (_number, "1"), "k_sign": (int, "1")}),
    "three_mirror": (_load_three_mirror, {
        "omega_m": (_positive_number, "1"),
        **dict.fromkeys(("omega_D", "omega_S", "C_D", "C_S"), (_number, "0")),
        **dict.fromkeys(("alpha", "beta", "mu"), (_mode_input, "0+0 i")),
        "truncations": (_each(int), "15 15 25")}),
    "raw_spectrum": (_load_raw_spectrum, {
        "levels": (_each(_number), _REQUIRED),
        "amplitudes": (_complex_list, _REQUIRED), "unit": (float, "1"),
        "labels": (str.split, "")}),
    "dense_matrix": (_load_dense_matrix, {
        "dimension": (_positive_int, _REQUIRED),
        "entries": (_commas, _REQUIRED),
        "psi0": (_commas, _REQUIRED), "unit": (float, "1")}),
    "partial_spectrum": (_load_partial, {
        "known": (_each(_exact_value), _REQUIRED), "unit": (float, "1"),
        "trials": (_each(_exact_value), ""),
        "mean_energy": (lambda text: _number(text) if text.strip() else None,
                        "")}),
}


def _read(cp: configparser.ConfigParser, name: str, table: Mapping) -> dict:
    """{key: parsed entry} of section ``name`` over its key ``table``; an
    unknown key (the first in file order) is refused before any entry is
    parsed, and a parse error names its key."""
    given = dict(cp.items(name, raw=True)) if cp.has_section(name) else {}
    known = {key.lower() for key in table}    # configparser lowercases keys
    for key in given:
        if key not in known:
            raise ConfigError(f"unknown key {key!r} in [{name}]")
    entries = {}
    for key, (parse, default) in table.items():
        text = given.get(key.lower(), default)
        if text is _REQUIRED:
            raise ConfigError(f"missing key {key!r} in [{name}]")
        try:
            entries[key] = None if text is None else parse(text)
        except IncommensurableError:
            raise                       # a physical verdict, not a usage error
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from exc
    return entries


def load_config(path: str, flags: Optional[Mapping] = None) -> LoadedRun:
    """Read the run at ``path``; ``flags`` maps option names to flag
    values (None: not given).  Every key and section is checked before
    the model section is parsed, and the options before any build."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                   interpolation=None)
    try:
        read = cp.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(str(exc).splitlines()[0]) from exc
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    if cp.defaults():   # its keys would reach every section
        raise ConfigError("unknown section [DEFAULT]")
    if not cp.has_section("run"):
        raise ConfigError("missing [run] section")
    model = _read(cp, "run", _RUN)["model"]
    if model not in _MODELS:
        raise ConfigError(f"unknown model {model!r}; "
                          f"expected one of {', '.join(_MODELS)}")
    for name in cp.sections():
        if name not in ("run", "options", model):
            raise ConfigError(f"unknown section [{name}]")
    if not cp.has_section(model):
        raise ConfigError(f"missing [{model}] section")
    loader, table = _MODELS[model]
    options = _read(cp, "options", _OPTIONS)
    options.update((key, flags[key]) for key in FLAGS
                   if (flags or {}).get(key) is not None)
    t_max, n_range = options["t_max"], options["n_range"]
    if t_max is not None and not 0 < t_max < math.inf:  # NaN fails too
        raise ConfigError("t_max must be positive and finite")
    if not n_range >= 1:
        raise ConfigError("n_range must be >= 1")
    try:
        run = loader(**_read(cp, model, table))
    except (IncommensurableError, ConfigError):
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc
    except MemoryError as exc:  # the exact build, as with huge truncations
        raise ConfigError(
            f"the {model} spectrum does not fit in memory") from exc
    run.t_max, run.n_range = t_max, n_range
    return run
