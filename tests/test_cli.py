"""End-to-end CLI behavior: exit codes, report text, determinism."""

import configparser
import contextlib
import io
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from aaphase import cli
from aaphase import config as config_module
from aaphase.report import parse_report

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

SPIN = """\
[run]
model = spin_half

[spin_half]
theta = 1.1
mu_B0 = 2
"""

RAW_INTEGER = """\
[run]
model = raw_spectrum

[raw_spectrum]
levels = 0 1 2
amplitudes = 0.6; 0.48; 0.64
"""

RAW_TWO_LEVEL = """\
[run]
model = raw_spectrum

[raw_spectrum]
levels = 2 3
amplitudes = 0.6; 0.8
"""

RAW_IRRATIONAL_TRIPLE = """\
[run]
model = raw_spectrum

[raw_spectrum]
levels = 0 1 1.4142135623730951
amplitudes = 0.6; 0.48; 0.64
"""

RAW_IRRATIONAL_PAIR = """\
[run]
model = raw_spectrum

[raw_spectrum]
levels = 0 1.4142135623730951
amplitudes = 0.6; 0.8
"""

DENSE_IRRATIONAL = """\
[run]
model = dense_matrix

[dense_matrix]
dimension = 2
entries = 1, 0, 0, 1.4142135623730951
psi0 = 1, 1
"""

PARTIAL = """\
[run]
model = partial_spectrum

[partial_spectrum]
known = 2 3
trials = 3 1/2 2 0
mean_energy = 5/2
"""


def write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_spin_report(self, tmp_path, capsys):
        code, out, err = run_cli(
            ["analyze", "--config", write(tmp_path, SPIN)], capsys)
        assert code == 0 and err == ""
        body = parse_report(out)["phase-report"]
        assert body["cyclicality"] == "cyclic"
        assert body["method"] == "full-spectrum"
        assert body["tau-cycles"] == "1/2"
        assert body["unit"] == "2"
        expected_gamma = math.pi * (1.0 - math.cos(1.1))
        assert float(body["gamma"]) == pytest.approx(expected_gamma,
                                                     abs=1e-12)

    def test_integer_levels(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["analyze", "--config", write(tmp_path, RAW_INTEGER)], capsys)
        assert code == 0
        parsed = parse_report(out)
        body = parsed["phase-report"]
        assert body["tau-cycles"] == "1"
        assert body["phi-over-pi"] == "0"
        assert parsed["branch-integers"] == {"0": "0", "1": "1", "2": "2"}

    def test_irrational_triple_is_non_cyclic(self, tmp_path, capsys):
        code, out, err = run_cli(
            ["analyze", "--config",
             write(tmp_path, RAW_IRRATIONAL_TRIPLE)], capsys)
        assert code == 2
        assert parse_report(out)["phase-report"]["cyclicality"] == "non-cyclic"
        assert "non-cyclic" in err

    def test_irrational_pair_still_cycles(self, tmp_path, capsys):
        # a single spacing always recurs, rational or not
        code, out, _ = run_cli(
            ["analyze", "--config",
             write(tmp_path, RAW_IRRATIONAL_PAIR)], capsys)
        assert code == 0
        body = parse_report(out)["phase-report"]
        assert float(body["tau"]) == pytest.approx(
            2.0 * math.pi / math.sqrt(2.0), abs=1e-12)

    def test_dense_needs_t_max(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["analyze", "--config",
             write(tmp_path, DENSE_IRRATIONAL)], capsys)
        assert code == 64
        assert "t_max required" in err

    def test_dense_no_return_within_horizon(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["analyze", "--config", write(tmp_path, DENSE_IRRATIONAL),
             "--t-max", "10"], capsys)
        assert code == 3
        assert err.startswith("oracle:")

    def test_dense_flag_extends_horizon(self, tmp_path, capsys):
        # tau = 2*pi/(sqrt(2)-1) ~ 15.17 sits inside t_max = 20
        code, out, _ = run_cli(
            ["analyze", "--config", write(tmp_path, DENSE_IRRATIONAL),
             "--t-max", "20"], capsys)
        assert code == 0
        body = parse_report(out)["phase-report"]
        assert body["method"] == "oracle"
        assert float(body["tau"]) == pytest.approx(
            2.0 * math.pi / (math.sqrt(2.0) - 1.0), abs=1e-5)


class TestVerify:
    def test_agreement_passes(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["verify", "--config", write(tmp_path, RAW_TWO_LEVEL)], capsys)
        assert code == 0
        parsed = parse_report(out)["verify"]
        assert parsed["verdict"] == "pass"
        for key in ("tau-relative", "phi-mod-2pi", "gamma-mod-2pi"):
            assert parsed[key].endswith("pass")

    def test_impossible_tolerance_fails(self, tmp_path, capsys):
        text = RAW_TWO_LEVEL + "\n[options]\ntolerance = 1e-18\n"
        code, out, _ = run_cli(
            ["verify", "--config", write(tmp_path, text)], capsys)
        assert code == 1
        parsed = parse_report(out)["verify"]
        assert parsed["verdict"] == "FAIL"
        assert any(parsed[k].endswith("FAIL")
                   for k in ("tau-relative", "phi-mod-2pi", "gamma-mod-2pi"))

    def test_needs_exact_and_dense(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["verify", "--config", write(tmp_path, PARTIAL)], capsys)
        assert code == 64
        assert "verify needs" in err


class TestWideSpread:
    """Levels {0, N, N + small}: the fast phase needs a grid derived from
    the occupied frequency spread, not from the natural cycle."""

    TEXT = ("[run]\nmodel = raw_spectrum\n\n[raw_spectrum]\n"
            "levels = {}\namplitudes = 0.6; 0.6; 0.52915026221291817\n")

    @pytest.mark.parametrize("levels", ["0 3000 6001/2", "0 2000 4001/2"])
    def test_return_found_on_the_spread_grid(self, tmp_path, capsys, levels):
        code, out, err = run_cli(
            ["verify", "--config", write(tmp_path, self.TEXT.format(levels))],
            capsys)
        assert code == 0 and err == ""
        assert parse_report(out)["verify"]["verdict"] == "pass"

    def test_grid_above_the_cap_exits_3(self, tmp_path, capsys):
        text = self.TEXT.format("0 5000 5000001/1000")
        code, out, err = run_cli(
            ["verify", "--config", write(tmp_path, text)], capsys)
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("oracle:")
        needed = int(err.split(" needs ")[1].split()[0])
        assert needed > 1 << 21


class TestConstrain:
    def test_candidate_table(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["constrain", "--config", write(tmp_path, PARTIAL),
             "--n-range", "5"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "[candidates]"
        first = lines[2].split(" | ")
        assert first[:4] == ["2", "3", "0", "1"]
        gammas = [float(tok) for tok in first[4].split()]
        assert gammas == pytest.approx(
            [math.pi, math.pi / 2, 3 * math.pi / 2, 0.0], abs=1e-12)
        parsed = parse_report(out)["admissibility"]
        assert parsed == {"trial": "admissible", "3": "yes", "1/2": "no",
                          "2": "yes", "0": "yes"}

    def test_single_known_level_rejected(self, tmp_path, capsys):
        text = "[run]\nmodel = partial_spectrum\n\n" \
               "[partial_spectrum]\nknown = 2\n"
        code, _, err = run_cli(
            ["constrain", "--config", write(tmp_path, text)], capsys)
        assert code == 64
        assert "at least two" in err

    def test_wrong_model(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["constrain", "--config", write(tmp_path, SPIN)], capsys)
        assert code == 64
        assert "partial_spectrum" in err

    @pytest.mark.parametrize("flags, options", [
        (["--n-range", "0"], ""),
        ([], "\n[options]\nn_range = 0\n"),
    ], ids=["flag", "options"])
    def test_n_range_below_one_exits_64(self, tmp_path, capsys, flags,
                                        options):
        code, out, err = run_cli(
            ["constrain", "--config", write(tmp_path, PARTIAL + options)]
            + flags, capsys)
        assert code == 64 and out == ""
        assert err == "config error: n_range must be >= 1\n"


class TestUsageErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["analyze", "--config", str(tmp_path / "absent.ini")], capsys)
        assert code == 64
        assert err.startswith("config error:")

    def test_unknown_model(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["analyze", "--config",
             write(tmp_path, "[run]\nmodel = bogus\n")], capsys)
        assert code == 64
        assert "unknown model" in err

    @pytest.mark.parametrize("argv", [
        [],
        ["analyze"],
        ["frobnicate", "--config", "x.ini"],
        ["analyze", "--config", "x.ini", "--bogus-flag"],
    ])
    def test_argparse_failures_exit_64(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 64


class TestOutputFile:
    def test_out_flag_matches_stdout(self, tmp_path, capsys):
        config = write(tmp_path, SPIN)
        _, stdout_text, _ = run_cli(["analyze", "--config", config], capsys)
        out_file = tmp_path / "report.txt"
        code, out, _ = run_cli(
            ["analyze", "--config", config, "--out", str(out_file)], capsys)
        assert code == 0 and out == ""
        assert out_file.read_text(encoding="utf-8") == stdout_text

    def test_byte_determinism(self, tmp_path, capsys):
        config = write(tmp_path, RAW_TWO_LEVEL)
        paths = [tmp_path / "a.txt", tmp_path / "b.txt"]
        for path in paths:
            code, _, _ = run_cli(
                ["verify", "--config", config, "--out", str(path)], capsys)
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestDenseOnDemand:
    CONFIG = str(CONFIGS / "three_mirror_exact.ini")

    def test_analyze_exact_route_never_builds_dense(self, monkeypatch,
                                                     capsys):
        _, expected, _ = run_cli(["analyze", "--config", self.CONFIG], capsys)

        def refuse(params):
            raise AssertionError("analyze built the dense matrix")

        monkeypatch.setattr(config_module, "three_mirror_dense", refuse)
        code, out, err = run_cli(["analyze", "--config", self.CONFIG], capsys)
        assert code == 0 and err == ""
        assert out == expected

    def test_verify_builds_dense(self, monkeypatch, capsys):
        built = []
        original = config_module.three_mirror_dense

        def counting(params):
            built.append(params.truncations)
            return original(params)

        monkeypatch.setattr(config_module, "three_mirror_dense", counting)
        code, out, _ = run_cli(["verify", "--config", self.CONFIG], capsys)
        assert code == 0
        assert parse_report(out)["verify"]["verdict"] == "pass"
        assert built == [(12, 10, 14)]


def _loaded_after_import(module: str, names) -> str:
    probe = (f"import sys, {module}; "
             f"print(*[name in sys.modules for name in {list(names)!r}])")
    src = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", probe], check=True,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}).stdout.strip()


def test_cli_import_leaves_scipy_sparse_unloaded():
    # the oracle imports scipy.sparse only when it diagonalizes
    assert _loaded_after_import("aaphase.cli", ["scipy.sparse"]) == "False"


@pytest.mark.parametrize("module", ["aaphase.engine", "aaphase.constraints"])
def test_exact_route_import_leaves_oracle_unloaded(module):
    # the exact route and the oracle stay independent; the package root
    # re-exports nothing that would load one with the other
    assert _loaded_after_import(module, ["aaphase.oracle", "scipy"]) \
        == "False False"


class TestInputGuards:
    @pytest.mark.parametrize("psi0", ["0, 0", "nan, 1", "inf, 1"])
    def test_unnormalizable_psi0_rejected(self, tmp_path, capsys, psi0):
        text = DENSE_IRRATIONAL.replace("psi0 = 1, 1", f"psi0 = {psi0}")
        code, out, err = run_cli(
            ["analyze", "--config", write(tmp_path, text), "--t-max", "20"],
            capsys)
        assert code == 64 and out == ""
        assert err.startswith("config error:") and "psi0" in err

    @pytest.mark.parametrize("text, key", [
        (RAW_TWO_LEVEL.replace("0.6; 0.8", "nan; 0.8"), "amplitudes"),
        ("[run]\nmodel = two_mirror\n\n[two_mirror]\nr = 2\n"
         "k_squared = 1/2\nfield_amplitudes = nan; 0.7\n", "field_amplitudes"),
        ("[run]\nmodel = three_mirror\n\n[three_mirror]\nomega_D = 2\n"
         "omega_S = 3\nalpha = nan; 0\ntruncations = 4 4 4\n", "alpha"),
    ], ids=["raw_spectrum", "two_mirror", "three_mirror"])
    def test_nan_amplitudes_rejected(self, tmp_path, capsys, text, key):
        # rejected where the entry is parsed, naming its key
        code, out, err = run_cli(
            ["analyze", "--config", write(tmp_path, text)], capsys)
        assert code == 64 and out == ""
        assert err == f"config error: {key}: non-finite complex entry 'nan'\n"

    def test_huge_coupling_exits_64(self, tmp_path, capsys):
        text = ("[run]\nmodel = three_mirror\n\n[three_mirror]\nomega_D = 2\n"
                "omega_S = 3\nC_D = 1e200\nalpha = 0.1\nmu = 0.1\n"
                "truncations = 6 6 6\n")
        code, out, err = run_cli(
            ["analyze", "--config", write(tmp_path, text)], capsys)
        assert code == 64 and out == ""
        assert err.startswith("config error:") and "tail mass" in err

    @pytest.mark.parametrize("command, text, key", [
        ("analyze", DENSE_IRRATIONAL + "\n[options]\nt_max = -3\n", "t_max"),
        ("verify", RAW_TWO_LEVEL + "\n[options]\nt_max = -3\n", "t_max"),
        ("verify", RAW_TWO_LEVEL + "\n[options]\nt_max = inf\n", "t_max"),
        ("analyze", DENSE_IRRATIONAL
         + "\n[options]\nt_max = 20\nfidelity_tol = 0.5\n", "fidelity_tol"),
        ("verify", RAW_TWO_LEVEL + "\n[options]\nfidelity_tol = 0.5\n",
         "fidelity_tol"),
        ("verify", RAW_TWO_LEVEL + "\n[options]\nsteps = 1\n", "steps"),
        ("analyze", RAW_TWO_LEVEL + "unit = inf\n", "unit"),
        ("analyze", SPIN.replace("mu_B0 = 2", "mu_B0 = inf"), "unit"),
        ("analyze", "[run]\nmodel = free_field\n\n[free_field]\n"
         "omega = inf\nalpha = 0.5\n", "unit"),
        ("analyze", DENSE_IRRATIONAL + "unit = inf\n[options]\nt_max = 20\n",
         "unit"),
        ("analyze", "[run]\nmodel = three_mirror\n\n[three_mirror]\n"
         "omega_D = 2\nomega_S = 3\nomega_m = 0\n", "omega_m"),
        ("verify", RAW_TWO_LEVEL + "\n[options]\ntolerance = inf\n",
         "tolerance"),
        ("verify", RAW_TWO_LEVEL + "\n[options]\ntolerance = nan\n",
         "tolerance"),
        ("verify", RAW_TWO_LEVEL + "\n[options]\ntolerance = 0\n",
         "tolerance"),
        ("verify", RAW_TWO_LEVEL + "\n[options]\ntolerance = -1\n",
         "tolerance"),
        ("verify", RAW_TWO_LEVEL + "unit = 1e-308\n", "t_max"),
    ], ids=["analyze-t_max", "verify-t_max", "verify-t_max-inf",
            "analyze-fidelity_tol", "verify-fidelity_tol", "verify-steps",
            "raw_spectrum-unit-inf", "spin_half-mu_B0-inf",
            "free_field-omega-inf", "dense_matrix-unit-inf",
            "three_mirror-omega_m-0", "verify-tolerance-inf",
            "verify-tolerance-nan", "verify-tolerance-0",
            "verify-tolerance-negative", "verify-default-t_max-overflow"])
    def test_out_of_range_options_exit_64(self, tmp_path, capsys, command,
                                          text, key):
        code, out, err = run_cli(
            [command, "--config", write(tmp_path, text)], capsys)
        assert code == 64 and out == ""
        assert err.startswith("config error:") and key in err
        assert len(err.splitlines()) == 1


class TestOptionsBeforeModel:
    """Options and entries are checked at load, before any model build."""

    @pytest.mark.parametrize("command", ["analyze", "verify", "constrain"])
    @pytest.mark.parametrize("section, key, token", [
        ("options", "t_max", "-1"), ("three_mirror", "alpha", "inf")])
    def test_rejected_before_any_model_build(self, tmp_path, capsys,
                                             monkeypatch, command, section,
                                             key, token):
        cp = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                       interpolation=None)
        cp.read(CONFIGS / "three_mirror_approximate.ini")
        cp[section][key] = token
        path = tmp_path / "run.ini"
        with open(path, "w", encoding="utf-8") as fh:
            cp.write(fh)

        def refuse(*args):
            raise AssertionError("a model was built before validation")

        for name in ("three_mirror_dense", "three_mirror_initial_state",
                     "three_mirror_exact"):
            monkeypatch.setattr(config_module, name, refuse)
        code, out, err = run_cli([command, "--config", str(path)], capsys)
        assert code == 64 and out == ""
        assert err.startswith("config error:") and key in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("flags, options", [
        (["--t-max", "5"], ""),
        ([], "\n[options]\nt_max = 5\n"),
    ], ids=["flag", "options"])
    def test_analyze_partial_spectrum_with_t_max(self, tmp_path, capsys,
                                                 flags, options):
        code, out, err = run_cli(
            ["analyze", "--config", write(tmp_path, PARTIAL + options)]
            + flags, capsys)
        assert code == 64 and out == ""
        assert err.startswith("config error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("text", [
        SPIN + "theta = 1.2\n", "model = spin_half\n", SPIN + "[run]\n"],
        ids=["duplicate-key", "no-section", "duplicate-section"])
    def test_unparsable_file_exits_64(self, tmp_path, capsys, text):
        code, out, err = run_cli(
            ["analyze", "--config", write(tmp_path, text)], capsys)
        assert code == 64 and out == ""
        assert err.startswith("config error:") and len(err.splitlines()) == 1


SWEEP_TOKENS = ("inf", "-inf", "nan", "1e400", "0", "-1", "abc", "")
NON_FINITE = SWEEP_TOKENS[:4]


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.ini")))
def test_malformed_config_sweep(tmp_path, capsys, name):
    """Every key of the model section and of [options], set to each token,
    under every command: an exit code, never an exception; non-finite
    numbers are configuration errors."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                   interpolation=None)
    cp.read(CONFIGS / name)
    sections = [s for s in (cp["run"]["model"], "options") if s in cp]
    path = tmp_path / name
    escaped, wrong = [], []
    for section in sections:
        for key in list(cp[section]):
            original = cp[section][key]
            for token in SWEEP_TOKENS:
                cp[section][key] = token
                with open(path, "w", encoding="utf-8") as fh:
                    cp.write(fh)
                for command in ("analyze", "verify", "constrain"):
                    case = (key, token, command)
                    try:
                        code = cli.main([command, "--config", str(path)])
                    except Exception as exc:  # any escape is the failure
                        escaped.append(case + (repr(exc),))
                        continue
                    allowed = {0, 2, 3, 64} | ({1} if command == "verify"
                                               else set())
                    if code not in allowed or (token in NON_FINITE
                                               and code != 64):
                        wrong.append(case + (code,))
            cp[section][key] = original
    capsys.readouterr()
    assert escaped == []
    assert wrong == []


# Keys each model section reads, the [options] keys and a few strangers.
MODEL_KEYS = {
    "spin_half": ("theta", "mu_B0"),
    "free_field": ("omega", "occupied_n", "amplitudes", "alpha",
                   "truncation"),
    "two_mirror": ("r", "k_squared", "field_amplitudes", "beta",
                   "mirror_truncation", "omega_m", "k_sign"),
    "three_mirror": ("omega_D", "omega_S", "omega_m", "C_D", "C_S", "alpha",
                     "beta", "mu", "truncations"),
    "raw_spectrum": ("levels", "amplitudes", "unit", "labels"),
    "dense_matrix": ("dimension", "entries", "psi0", "unit"),
    "partial_spectrum": ("known", "trials", "mean_energy", "unit"),
}
OPTION_KEYS = ("t_max", "fidelity_tol", "steps", "tolerance", "n_range",
               "approximate")
STRANGE_KEYS = ("model", "fidelty_tol", "x")
SECTIONS = ("run", "options", "extra", *MODEL_KEYS)
SHIPPED = sorted(p.name for p in CONFIGS.glob("*.ini"))
# integer keys that size a matrix stay small so every example is fast
SIZE_KEYS = ("truncation", "mirror_truncation", "truncations", "dimension",
             "occupied_n", "k_sign")
TOKENS = ("0", "1", "-1", "2", "3", "1/2", "7/3", "0.5", "1e-3", "20",
          "1e400", "inf", "-inf", "nan", "abc", "", "on", "0.6+0.8 i",
          "-0.3 i", "1.4142135623730951", "1e200")


def _value(key):
    if key == "model":
        return st.sampled_from((*MODEL_KEYS, "bogus"))
    atoms = (st.integers(-1, 4).map(str) if key in SIZE_KEYS
             else st.sampled_from(TOKENS))
    return st.one_of(atoms, st.builds(
        str.join, st.sampled_from((" ", "; ", ", ")),
        st.lists(atoms, max_size=4)))


@st.composite
def malformed_configs(draw):
    """A shipped config with random keys of random sections set to random
    tokens and lists, or deleted."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                   interpolation=None)
    cp.read(CONFIGS / draw(st.sampled_from(SHIPPED)))
    if cp.has_section("three_mirror"):
        cp["three_mirror"]["truncations"] = "3 3 3"  # shipped sizes take 0.3 s
    names = [cp["run"]["model"]] + draw(
        st.lists(st.sampled_from(SECTIONS), max_size=2, unique=True))
    for name in dict.fromkeys(names):
        if not cp.has_section(name):
            cp.add_section(name)
        pool = MODEL_KEYS.get(name, ()) + OPTION_KEYS + STRANGE_KEYS
        for key in draw(st.lists(st.sampled_from(pool), max_size=4,
                                 unique=True)):
            if key in cp[name] and draw(st.booleans()):
                del cp[name][key]
            else:
                cp[name][key] = draw(_value(key))
    text = io.StringIO()
    cp.write(text)
    return text.getvalue()


@settings(deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=malformed_configs(),
       command=st.sampled_from(("analyze", "verify", "constrain")))
def test_random_malformed_configs(text, command):
    """Random sections, keys, tokens and list lengths: a documented exit
    code (1 only from verify) and at most one stderr line, never an
    exception."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.ini")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", path])
    assert code in {0, 2, 3, 64} | ({1} if command == "verify" else set())
    assert len(err.getvalue().splitlines()) <= 1
