"""End-to-end CLI behavior: exit codes, report text, determinism."""

import configparser
import contextlib
import io
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from aaphase import cli
from aaphase import config as config_module
from aaphase.cli import UsageError
from conftest import parse_report, reference_mod_distance, reference_parse

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden"

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

    @pytest.mark.parametrize("flags", [[], ["--t-max", "5"]])
    def test_partial_spectrum_has_no_route(self, capsys, flags):
        # no spectrum and no matrix: asking for t_max would mislead
        code, out, err = run_cli(
            ["analyze", "--config", str(CONFIGS / "partial_spectrum.ini"),
             *flags], capsys)
        assert (code, out) == (64, "")
        assert err == ("config error: analyze needs a spectrum or a matrix; "
                       "a partial_spectrum run has neither\n")

    def test_dense_no_return_within_horizon(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["analyze", "--config", write(tmp_path, DENSE_IRRATIONAL),
             "--t-max", "10"], capsys)
        assert code == 3
        assert err.startswith("oracle:")

    @pytest.mark.parametrize("text", [
        "[run]\nmodel = free_field\n\n[free_field]\nomega = 1\nalpha = 0\n",
        RAW_TWO_LEVEL.replace("2 3", "0 1").replace("0.6; 0.8", "1; 0"),
    ], ids=["coherent-vacuum", "raw-ground-state"])
    def test_zero_eigenvalue_state_has_no_period(self, tmp_path, capsys,
                                                 text):
        # a valid input: no unit makes this period finite
        code, out, err = run_cli(
            ["analyze", "--config", write(tmp_path, text)], capsys)
        assert (code, out) == (2, "")
        assert err == ("non-cyclic: no finite period: the single occupied "
                       "eigenvalue is zero\n")

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


def shipped_with(name, **values):
    """Text of the shipped config ``name`` with some ``key = value`` lines
    replaced."""
    text = (CONFIGS / name).read_text(encoding="utf-8")
    for key, value in values.items():
        text, count = re.subn(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
        assert count == 1, key
    return text


class TestCavityConfigs:
    def test_rational_omega_m(self, tmp_path, capsys):
        # the shipped ratios 2 and 3, written over omega_m = 3/2
        scaled = write(tmp_path, shipped_with(
            "three_mirror_exact.ini", omega_D="3", omega_S="9/2",
            omega_m="3/2"))
        code, out, err = run_cli(["analyze", "--config", scaled], capsys)
        assert (code, err) == (0, "")
        _, shipped, _ = run_cli(
            ["analyze", "--config", str(CONFIGS / "three_mirror_exact.ini")],
            capsys)
        got, want = parse_report(out), parse_report(shipped)
        assert got["phase-report"]["unit"] == "1.5"
        for key in ("tau-cycles", "phi-over-pi", "gamma"):
            assert got["phase-report"][key] == want["phase-report"][key]
        assert got["branch-integers"] == want["branch-integers"]

    def test_rational_omega_m_on_two_mirror(self, tmp_path, capsys):
        # r and k_squared are ratios to omega_m, so only the unit moves
        text = (CONFIGS / "two_mirror.ini").read_text(encoding="utf-8")
        assert text.endswith("mirror_truncation = 40\n")
        scaled = write(tmp_path, text + "omega_m = 3/2\n")
        code, out, err = run_cli(["analyze", "--config", scaled], capsys)
        assert (code, err) == (0, "")
        _, shipped, _ = run_cli(
            ["analyze", "--config", str(CONFIGS / "two_mirror.ini")], capsys)
        got, want = parse_report(out), parse_report(shipped)
        assert got["phase-report"]["unit"] == "1.5"
        for key in ("tau-cycles", "phi-over-pi"):
            assert got["phase-report"][key] == want["phase-report"][key]
        assert got["branch-integers"] == want["branch-integers"]

    @pytest.mark.parametrize("r", ["0", "-1"])
    def test_verify_with_non_positive_r(self, tmp_path, capsys, r):
        # any rational r is a valid one-mirror cavity, dense route included
        path = write(tmp_path, shipped_with("two_mirror.ini", r=r))
        code, out, err = run_cli(["verify", "--config", path], capsys)
        assert (code, err) == (0, "")
        assert parse_report(out)["verify"]["verdict"] == "pass"


class TestVerify:
    def test_agreement_passes(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["verify", "--config", write(tmp_path, RAW_TWO_LEVEL)], capsys)
        assert code == 0
        parsed = parse_report(out)["verify"]
        assert parsed["verdict"] == "pass"
        for key in ("tau-relative", "phi-mod-2pi", "gamma-mod-2pi"):
            assert parsed[key].endswith("pass")

    def test_impossible_tolerance_fails(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "VERIFY_TOL", 1e-18)
        code, out, _ = run_cli(
            ["verify", "--config", write(tmp_path, RAW_TWO_LEVEL)], capsys)
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


class TestReturnDetection:
    """Newton refinement of the return and the exact-mode certificate."""

    FLAT = ("[run]\nmodel = raw_spectrum\n\n[raw_spectrum]\nlevels = 9 8\n"
            "amplitudes = 0.12411746691643698+0.99061835129625253 i; "
            "-0.057181927050160786+0.00060307559378080166 i\nunit = 1\n")

    def test_flat_peak_verifies_to_rounding(self, tmp_path, capsys):
        # minority weight 0.33 %: golden section placed tau only to 1.8e-8
        code, out, err = run_cli(
            ["verify", "--config", write(tmp_path, self.FLAT)], capsys)
        assert code == 0 and err == ""
        exact, oracle, _, _ = parse_report(out)["verify"][
            "tau-relative"].split(" | ")
        assert abs(float(oracle) - float(exact)) <= 1e-14 * float(exact)

    def test_near_recurrence_exits_3(self, tmp_path, capsys):
        # levels 0 and 50 meet at 2*pi/50 with the third 1.3e-4 rad off:
        # 1 - F = 2e-9 passes the fidelity test, the certificate does not
        text = TestWideSpread.TEXT.format("0 50 50001/1000") \
            + "\n[options]\nt_max = 1\n"
        code, out, err = run_cli(
            ["verify", "--config", write(tmp_path, text)], capsys)
        assert (code, out) == (3, "")
        assert err == "oracle: no period detected <= t_max\n"

    def test_shipped_config_near_recurrence_exits_3(self, tmp_path, capsys):
        # C_S = 0 puts three_mirror_approximate.ini in the exact family
        # with tau = 2*pi*10^6, far beyond its t_max = 13.9
        text = (CONFIGS / "three_mirror_approximate.ini").read_text()
        cp = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                       interpolation=None)
        cp.read_string(text)
        cp["three_mirror"]["C_S"] = "0"
        path = tmp_path / "cs0.ini"
        with open(path, "w", encoding="utf-8") as fh:
            cp.write(fh)
        code, out, err = run_cli(["verify", "--config", str(path)], capsys)
        assert (code, out) == (3, "")
        assert err == "oracle: no period detected <= t_max\n"


@st.composite
def raw_spectra(draw):
    """2-5 distinct levels p/q, |p|, q <= 9, with normally distributed
    complex amplitudes as in tests/conftest.py."""
    q = draw(st.integers(1, 9))
    nums = draw(st.lists(st.integers(-9, 9), min_size=2, max_size=5,
                         unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    amps = rng.normal(size=len(nums)) + 1j * rng.normal(size=len(nums))
    amps /= np.linalg.norm(amps)
    return ("[run]\nmodel = raw_spectrum\n\n[raw_spectrum]\nlevels = "
            + " ".join(f"{p}/{q}" for p in nums) + "\namplitudes = "
            + "; ".join(f"{a.real:.17g}{a.imag:+.17g} i" for a in amps) + "\n")


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=raw_spectra())
# about one draw in 3000 is a peak flat enough to fail golden section
@example(text="[run]\nmodel = raw_spectrum\n\n[raw_spectrum]\n"
              "levels = -7/1 -6/1\namplitudes = -0.98922491269193791"
              "+0.0040343783025033626 i; 0.14206474080321246"
              "+0.035148333130549811 i\n")
def test_random_raw_spectra_verify(text):
    """Flat peaks from small weights verify like any other state."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.ini")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["verify", "--config", path])
    assert (code, err.getvalue()) == (0, ""), out.getvalue()


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

    @pytest.mark.parametrize("old, new", [
        ("known = 2 3", "known = 1.5e308 3"),
        ("known = 2 3", "known = 1e154 3"),
        ("mean_energy = 5/2", "mean_energy = 5/2000003"),
    ], ids=["huge-level", "large-level", "large-denominator"])
    def test_gamma_count_past_the_cap_exits_64(self, tmp_path, capsys,
                                               monkeypatch, old, new):
        # each of these ran for more than 20 s listing gamma values; the
        # count is read off the candidates before any list is built
        monkeypatch.setattr(cli, "gamma_candidates", None)
        text = PARTIAL.replace(old, new)
        code, out, err = run_cli(
            ["constrain", "--config", write(tmp_path, text)], capsys)
        assert (code, out) == (64, "")
        assert err == (f"config error: constrain would list more than "
                       f"{cli.MAX_GAMMA_VALUES} gamma values over its 32 "
                       f"candidates\n")

    def test_gamma_count_at_the_cap_passes(self, tmp_path, capsys,
                                           monkeypatch):
        text = PARTIAL.replace("mean_energy = 5/2", "mean_energy = 5/202")
        code, out, _ = run_cli(["constrain", "--config",
                                write(tmp_path, text), "--n-range", "2"],
                               capsys)
        assert code == 0
        listed = sum(len(line.split(" | ")[4].split())
                     for line in out.splitlines()[2:6])
        monkeypatch.setattr(cli, "MAX_GAMMA_VALUES", listed)
        assert run_cli(["constrain", "--config", write(tmp_path, text),
                        "--n-range", "2"], capsys)[:2] == (0, out)
        monkeypatch.setattr(cli, "MAX_GAMMA_VALUES", listed - 1)
        assert run_cli(["constrain", "--config", write(tmp_path, text),
                        "--n-range", "2"], capsys)[0] == 64

    def test_n_range_at_the_cap_passes(self, tmp_path, capsys):
        code, out, err = run_cli(
            ["constrain", "--config", write(tmp_path, PARTIAL),
             "--n-range", str(cli.MAX_N_RANGE)], capsys)
        assert (code, err) == (0, "")
        rows = out.split("[admissibility]")[0].splitlines()[2:]
        assert len(rows) == 2 * cli.MAX_N_RANGE

    @pytest.mark.parametrize("flags, options", [
        (["--n-range", str(cli.MAX_N_RANGE + 1)], ""),
        ([], f"\n[options]\nn_range = {cli.MAX_N_RANGE + 1}\n"),
    ], ids=["flag", "options"])
    def test_n_range_past_the_cap_exits_64(self, tmp_path, capsys,
                                           monkeypatch, flags, options):
        # refused before the candidates are enumerated: 10^5 took 8 s
        monkeypatch.setattr(cli, "enumerate_candidates", None)
        code, out, err = run_cli(
            ["constrain", "--config", write(tmp_path, PARTIAL + options)]
            + flags, capsys)
        assert (code, out) == (64, "")
        assert err == (f"config error: n_range must be <= "
                       f"{cli.MAX_N_RANGE} for constrain\n")

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
        # the lines argparse refused are refused with one stderr line
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (64, "")
        assert err.startswith("usage error: ") and len(err.splitlines()) == 1

    def test_usage_error_leaves_the_parser_as_it_was(self, capsys):
        # a call after a refused one parses as it would in a fresh process
        calls = [["analyze", "--config", "x.ini", "--bogus-flag"],
                 ["analyze", "--config", str(CONFIGS / "spin_half.ini")],
                 ["verify"]]
        src = str(Path(cli.__file__).resolve().parents[1])
        for argv in calls:
            code, out, err = run_cli(argv, capsys)
            fresh = subprocess.run(
                [sys.executable, "-m", "aaphase.cli", *argv],
                capture_output=True, text=True,
                env={**os.environ, "PYTHONPATH": src})
            assert (code, out, err) == (fresh.returncode, fresh.stdout,
                                        fresh.stderr)

    @pytest.mark.parametrize("argv", [
        ["-h"], ["--help"], ["--he"], ["analyze", "-h"],
        ["verify", "--help"], ["constrain", "--config", "absent.ini", "--h"],
    ])
    def test_help_prints_the_usage_line(self, argv, capsys):
        assert run_cli(argv, capsys) == (0, cli.USAGE, "")
        assert reference_parse(argv) == (None, None)

    @pytest.mark.parametrize("argv, message", [
        ([], "'' is not analyze, verify or constrain"),
        (["--config", "x.ini"], "'--config' is not analyze, verify or "
                                "constrain"),
        (["analyze", "--config", "x.ini", "extra"],
         "unrecognized argument 'extra'"),
        (["analyze", "--config", "x.ini", "--"],
         "unrecognized argument '--'"),
        (["analyze", "--=x.ini"], "unrecognized argument '--=x.ini'"),
        (["analyze", "--help=x"], "unrecognized argument '--help=x'"),
        (["analyze", "--config", "-x"], "--config expects a value"),
        (["analyze", "--config"], "--config expects a value"),
        (["analyze", "--config", "x.ini", "--n", "1.5"],
         "invalid value '1.5' for --n"),
        (["analyze", "--out", "r.txt"], "--config <path> is required"),
    ])
    def test_usage_error_names_the_token(self, capsys, argv, message):
        assert run_cli(argv, capsys) == (64, "", f"usage error: {message}\n")
        with pytest.raises(UsageError):
            reference_parse(argv)


# the parse property's tokens: commands, each flag spelled out, as a
# unique prefix, as an unknown one and as "--=" (the empty prefix, which
# every flag shares), values (with a space, "- x" is a value though it
# starts with "-"), shipped and missing configs, a stray word
PARSE_COMMANDS = ("analyze", "verify", "constrain", "frobnicate")
PARSE_CONFIGS = ("spin_half.ini", "partial_spectrum.ini")
FLAG_SPELLINGS = ("--config", "--out", "--t-max", "--n-range",
                  "--conf", "--o", "--t", "--n-r",
                  "--configs", "--x", "--t_max", "--=")
ARG_VALUES = ("8", "-1", "-1e3", "nan", "abc", "-x", "", "- x",
              *PARSE_CONFIGS, "absent.ini", "extra")


@st.composite
def command_lines(draw):
    """Token lists: mostly a command, then flags with values as separate
    tokens or after "=", lone flags, lone values and "--"."""
    words = list(draw(st.sampled_from(
        [(command,) for command in PARSE_COMMANDS[:3]] * 3
        + [(PARSE_COMMANDS[3],), ()])))
    for _ in range(draw(st.integers(0, 3))):
        flag = draw(st.sampled_from(FLAG_SPELLINGS))
        value = draw(st.sampled_from(ARG_VALUES))
        words += draw(st.sampled_from((
            *[[flag, value]] * 4, *[[f"{flag}={value}"]] * 2, [flag],
            [value], ["--"])))
    if draw(st.sampled_from((True, True, True, False))):
        at = draw(st.integers(min(1, len(words)), len(words)))
        words[at:at] = ["--config", draw(st.sampled_from(PARSE_CONFIGS))]
    return words


def _parsed(parse, argv):
    try:
        command, options = parse(argv)
    except UsageError:
        return "refused"
    return repr((command, sorted((options or {}).items())))


def _run_in_fresh_copy(parse, argv):
    """Exit code, stdout and stderr of main with ``parse`` as its parse,
    in a directory of its own holding copies of the configs, since an
    --out value may name one of them."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            pytest.MonkeyPatch.context() as patch:
        for name in PARSE_CONFIGS:
            shutil.copy(CONFIGS / name, tmp)
        patch.chdir(tmp)
        patch.setattr(cli, "_parse", parse)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(deadline=None, max_examples=500,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=command_lines())
@example(argv=[])
@example(argv=["analyze", "--config", "spin_half.ini", "--t-max", "-1"])
@example(argv=["analyze", "--config", "spin_half.ini", "--t-max", "-1e3"])
@example(argv=["analyze", "--config=spin_half.ini", "--t=-1e3"])
@example(argv=["constrain", "--conf=partial_spectrum.ini", "--n-r", "8",
               "--n-range=3"])
@example(argv=["verify", "--config", "spin_half.ini", "--"])
@example(argv=["verify", "--", "--config", "spin_half.ini"])
@example(argv=["analyze", "--=8", "--config", "spin_half.ini"])
@example(argv=["analyze", "--config", "spin_half.ini", "--out", ""])
@example(argv=["analyze", "--config", "spin_half.ini", "--out", "- x"])
@example(argv=["analyze", "--config", "spin_half.ini", "--config="])
def test_parse_matches_argparse(argv):
    """Every line parses to the values argparse gave it, or is refused
    where argparse refused it; the exit code and stdout then match the
    argparse parse followed by the same command, and a refusal is one
    stderr line."""
    assert _parsed(cli._parse, argv) == _parsed(reference_parse, argv)
    code, out, err = _run_in_fresh_copy(cli._parse, argv)
    assert (code, out) == _run_in_fresh_copy(reference_parse, argv)[:2]
    if err.startswith("usage error:"):
        assert code == 64 and len(err.splitlines()) == 1


@given(a=st.floats(-1e3, 1e3), b=st.floats(-1e3, 1e3))
@example(a=math.pi, b=0.0)
@example(a=-math.pi, b=0.0)
@example(a=3 * math.pi, b=0.0)
@example(a=math.nextafter(math.pi, 4.0), b=0.0)
@example(a=0.0, b=math.nextafter(math.pi, 4.0))
def test_mod_distance_matches_the_branch_form(a, b):
    # the verify table prints these bits, so the folded form keeps them
    assert cli._mod_distance(a, b).hex() == reference_mod_distance(a, b).hex()


class TestOutputFile:
    def test_out_flag_matches_stdout(self, tmp_path, capsys):
        config = write(tmp_path, SPIN)
        _, stdout_text, _ = run_cli(["analyze", "--config", config], capsys)
        out_file = tmp_path / "report.txt"
        code, out, _ = run_cli(
            ["analyze", "--config", config, "--out", str(out_file)], capsys)
        assert code == 0 and out == ""
        assert out_file.read_text(encoding="utf-8") == stdout_text

    @pytest.mark.parametrize("command, config", [
        ("analyze", "spin_half.ini"), ("verify", "raw_spectrum.ini"),
        ("constrain", "partial_spectrum.ini")])
    @pytest.mark.parametrize("where, reason", [
        ("missing/report.txt", "No such file or directory"),
        (".", "Is a directory")], ids=["missing-directory", "directory"])
    def test_unwritable_out_exits_64(self, tmp_path, capsys, command, config,
                                     where, reason):
        # exit 1 means only that verify found a disagreement
        path = tmp_path / where
        code, out, err = run_cli(
            [command, "--config", str(CONFIGS / config), "--out", str(path)],
            capsys)
        assert (code, out) == (64, "")
        assert err == f"config error: cannot write {path}: {reason}\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs /dev/full, a device that is always full")
    @pytest.mark.parametrize("argv", [
        ["analyze", "--config", str(CONFIGS / "spin_half.ini")],
        ["verify", "--config", str(CONFIGS / "raw_spectrum.ini")],
        ["constrain", "--config", str(CONFIGS / "partial_spectrum.ini")],
        ["--help"]], ids=["analyze", "verify", "constrain", "help"])
    @pytest.mark.parametrize("unbuffered", ["", "1"],
                             ids=["buffered", "unbuffered"])
    def test_unwritable_stdout_exits_64(self, argv, unbuffered):
        # a report stdout cannot take is a config error, not a traceback;
        # buffered, the write fails only when the buffer is flushed
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {key: value for key, value in os.environ.items()
               if key != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered
        with open("/dev/full", "w") as full:
            done = subprocess.run(
                [sys.executable, "-m", "aaphase.cli", *argv], stdout=full,
                stderr=subprocess.PIPE, text=True,
                env={**env, "PYTHONPATH": src})
        assert (done.returncode, done.stderr) == (
            64, "config error: cannot write <stdout>: No space left on "
                "device\n")

    def test_byte_determinism(self, tmp_path, capsys):
        config = write(tmp_path, RAW_TWO_LEVEL)
        paths = [tmp_path / "a.txt", tmp_path / "b.txt"]
        for path in paths:
            code, _, _ = run_cli(
                ["verify", "--config", config, "--out", str(path)], capsys)
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("command", ["analyze", "verify", "constrain"])
    @pytest.mark.parametrize("out", ["run.ini", "./run.ini", "link.ini"],
                             ids=["same-path", "other-spelling", "symlink"])
    def test_out_naming_the_config_exits_64(self, tmp_path, capsys,
                                            monkeypatch, command, out):
        # the report must not overwrite the config it came from
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "run.ini"
        config.write_bytes((CONFIGS / "spin_half.ini").read_bytes())
        if out == "link.ini":
            try:
                os.symlink("run.ini", out)
            except OSError:
                pytest.skip("symbolic links are not available here")
        code, stdout, err = run_cli(
            [command, "--config", "run.ini", "--out", out], capsys)
        assert (code, stdout) == (64, "")
        assert err == f"config error: --out {out!r} is the config file\n"
        assert config.read_bytes() == (CONFIGS / "spin_half.ini").read_bytes()


class TestDenseOnDemand:
    CONFIG = str(CONFIGS / "three_mirror_exact.ini")
    # every shipped config that analyze takes down the exact route
    EXACT = ("free_field_coherent.ini", "free_field_fock.ini",
             "raw_spectrum.ini", "spin_half.ini", "three_mirror_exact.ini",
             "two_mirror.ini")

    def test_analyze_exact_route_never_builds_dense(self, monkeypatch,
                                                     capsys):
        configs = [str(CONFIGS / name) for name in self.EXACT]
        expected = [run_cli(["analyze", "--config", config], capsys)[1]
                    for config in configs]

        def refuse(*args, **kwargs):
            raise AssertionError("analyze built the dense matrix or psi0")

        for name in ("three_mirror_dense", "two_mirror_dense",
                     "spin_half_dense", "free_field_dense",
                     "three_mirror_initial_state", "Hamiltonian"):
            monkeypatch.setattr(config_module, name, refuse)
        for config, want in zip(configs, expected):
            code, out, err = run_cli(["analyze", "--config", config], capsys)
            assert code == 0 and err == ""
            assert out == want

    def test_out_of_memory_is_a_config_error(self, monkeypatch, capsys):
        def exhausted(params):
            raise MemoryError

        monkeypatch.setattr(config_module, "three_mirror_dense", exhausted)
        code, out, err = run_cli(
            ["analyze", "--config",
             str(CONFIGS / "three_mirror_approximate.ini")], capsys)
        assert code == 64 and out == ""
        assert err.startswith("config error:") and "memory" in err
        assert len(err.splitlines()) == 1

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


def test_oracle_runs_leave_scipy_and_numpy_ma_unloaded():
    # scipy is a test dependency only: an analyze that splits a 2880-dim
    # matrix into its blocks and a verify that runs both routes load no
    # scipy module, and no numpy.ma, whose first import costs over 10 ms
    runs = [["analyze", "--config",
             str(CONFIGS / "three_mirror_approximate.ini")],
            ["verify", "--config", str(CONFIGS / "three_mirror_exact.ini")]]
    probe = ("import sys, aaphase.cli\n"
             f"codes = [aaphase.cli.main(argv) for argv in {runs!r}]\n"
             "print(codes, [name for name in sys.modules\n"
             "              if name.partition('.')[0] == 'scipy'\n"
             "              or name == 'numpy.ma'])")
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.splitlines()[-1] == "[0, 0] []"


@pytest.mark.parametrize("module", ["aaphase.engine", "aaphase.constraints"])
def test_exact_route_import_leaves_oracle_unloaded(module):
    # the exact route and the oracle stay independent; the package root
    # re-exports nothing that would load one with the other
    assert _loaded_after_import(module, ["aaphase.oracle", "scipy"]) \
        == "False False"


def test_cli_import_loads_every_module_but_numpy():
    # numpy is imported where an array is built; every module of the
    # package is still imported eagerly
    src = Path(cli.__file__).resolve().parents[1]
    modules = sorted(".".join(path.relative_to(src).with_suffix("").parts)
                     .removesuffix(".__init__")
                     for path in (src / "aaphase").rglob("*.py"))
    assert "aaphase.oracle" in modules
    assert _loaded_after_import("aaphase.cli", ["numpy", *modules]) \
        == " ".join(["False"] + ["True"] * len(modules))


def test_exact_runs_leave_numpy_unloaded():
    runs = [["analyze", "--config", str(CONFIGS / name)]
            for name in ("spin_half.ini", "raw_spectrum.ini",
                         "free_field_fock.ini")]
    runs.append(["constrain", "--config",
                 str(CONFIGS / "partial_spectrum.ini")])
    probe = ("import sys, aaphase.cli\n"
             f"codes = [aaphase.cli.main(argv) for argv in {runs!r}]\n"
             "print(codes, 'numpy' in sys.modules)")
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.splitlines()[-1] == "[0, 0, 0, 0] False"


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

    @pytest.mark.parametrize("command", ["analyze", "verify"])
    @pytest.mark.parametrize("text, message", [
        (RAW_TWO_LEVEL.replace("0.6; 0.8", "1e200; 0.5"),
         "state not normalized: sum |a|^2 = inf"),
        ("[run]\nmodel = free_field\n\n[free_field]\noccupied_n = 0 1\n"
         "amplitudes = 1e200; 0.5\n", "state not normalized: sum |a|^2 = inf"),
        ("[run]\nmodel = two_mirror\n\n[two_mirror]\nr = 2\n"
         "k_squared = 1/2\nfield_amplitudes = 1e200\n",
         "field amplitudes not normalized: inf"),
    ], ids=["raw_spectrum", "free_field", "two_mirror"])
    def test_overflowing_norm_exits_64(self, tmp_path, capsys, command, text,
                                       message):
        # |a|^2 past the float range is an unnormalized state, not a
        # traceback (whose exit 1 would read as a verify disagreement)
        code, out, err = run_cli(
            [command, "--config", write(tmp_path, text)], capsys)
        assert (code, out) == (64, "")
        assert err == f"config error: {message}\n"

    @pytest.mark.parametrize("command, text, spread", [
        ("analyze", "[run]\nmodel = dense_matrix\n\n[dense_matrix]\n"
         "dimension = 2\nentries = 1.5e308, 0, 0, -1.5e308\n"
         "psi0 = 0.6, 0.8\n\n[options]\nt_max = 10\n", "inf"),
        ("analyze", shipped_with("dense_matrix.ini", t_max="1.5e308"), "2"),
        ("verify", shipped_with("free_field_coherent.ini", omega="1.5e308"),
         "inf"),
        ("verify", shipped_with("raw_spectrum.ini", unit="1.5e308"), "inf"),
        ("verify", shipped_with("raw_spectrum.ini", levels="0 1 1.5e308"),
         "1.5e+308"),
        ("verify", shipped_with("spin_half.ini", mu_B0="1.5e308"), "inf"),
        # one level times unit overflows: not a stationary state
        ("analyze", "[run]\nmodel = dense_matrix\n\n[dense_matrix]\n"
         "dimension = 2\nentries = 1e308, 0, 0, 1\npsi0 = 1, 0\n"
         "unit = 10\n\n[options]\nt_max = 8\n", "inf"),
    ], ids=["dense-spread", "dense-t_max", "free_field-omega", "raw-unit",
            "raw-levels", "spin-mu_B0", "dense-unit"])
    def test_step_rule_past_the_float_range_exits_3(self, tmp_path, capsys,
                                                    command, text, spread):
        # spread * t_max overflows to inf: the grid would need infinitely
        # many steps, which math.ceil cannot count (a traceback, exit 1);
        # the suite also turns numpy's overflow warnings into errors
        code, out, err = run_cli(
            [command, "--config", write(tmp_path, text)], capsys)
        assert (code, out) == (3, "")
        assert err.startswith(f"oracle: the occupied frequency spread "
                              f"{spread} needs inf grid steps up to t_max")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["analyze", "verify"])
    @pytest.mark.parametrize("dimension, entries", [
        ("-1", "1"), ("-2", "1, 0, 0, 1"), ("0", "1")])
    def test_dimension_below_one_exits_64(self, tmp_path, capsys, command,
                                          dimension, entries):
        # (-1)^2 = 1 and (-2)^2 = 4 entries passed the count check, and
        # numpy's reshape error became the message; 0 asked for 0 entries
        text = shipped_with("dense_matrix.ini", dimension=dimension,
                            entries=entries)
        code, out, err = run_cli(
            [command, "--config", write(tmp_path, text)], capsys)
        assert (code, out) == (64, "")
        assert err == (f"config error: dimension: must be >= 1, "
                       f"got '{dimension}'\n")

    @pytest.mark.parametrize("command", ["analyze", "verify"])
    def test_zero_amplitude_only_where_levels_are_occupied(
            self, tmp_path, capsys, command):
        # free_field lists its occupied levels, so a zero among their
        # amplitudes is refused; a raw spectrum lists every level, so a
        # zero there is an unoccupied level, which the exact report
        # ignores (the oracle's bits move with the matrix)
        fock = shipped_with("free_field_fock.ini",
                            amplitudes="0.6; 0; 0.8")
        code, out, err = run_cli(
            [command, "--config", write(tmp_path, fock)], capsys)
        assert (code, out, err) == (
            64, "", "config error: zero-amplitude entries must be absent\n")
        raw = shipped_with("raw_spectrum.ini", levels="0 1 3/2 7",
                           amplitudes="0.6; 0.48; 0.64; 0")
        got = run_cli([command, "--config", write(tmp_path, raw)], capsys)
        want = run_cli([command, "--config",
                        str(CONFIGS / "raw_spectrum.ini")], capsys)
        assert (got[0], got[2]) == (0, "")
        assert got == want or command == "verify"

    def test_underflowing_psi0_is_normalized(self, tmp_path, capsys):
        # |psi0|^2 = 1e-320 is subnormal, so psi0 / |psi0| missed the unit
        # norm by 5.6e-6 and the oracle refused it with a traceback
        runs = [run_cli(["analyze", "--config", write(
                    tmp_path, shipped_with("dense_matrix.ini", psi0=psi0))],
                    capsys) for psi0 in ("1e-160, 0", "1, 0")]
        assert runs[0] == runs[1] and runs[0][0] == 0 and runs[0][2] == ""

    def test_huge_coupling_exits_64(self, tmp_path, capsys):
        text = ("[run]\nmodel = three_mirror\n\n[three_mirror]\nomega_D = 2\n"
                "omega_S = 3\nC_D = 1e200\nalpha = 0.1\nmu = 0.1\n"
                "truncations = 6 6 6\n")
        code, out, err = run_cli(
            ["analyze", "--config", write(tmp_path, text)], capsys)
        assert code == 64 and out == ""
        assert err.startswith("config error:") and "tail mass" in err

    def test_overflowing_model_is_one_stderr_line(self, tmp_path):
        # numpy's overflow warnings would come first outside the suite,
        # which turns them into errors; hence a separate interpreter
        text = ("[run]\nmodel = three_mirror\n\n[three_mirror]\n"
                "omega_D = 1.5e308\nomega_S = 3\nC_D = 1/10\nC_S = 1/8\n"
                "alpha = 0.01\nbeta = 0.01\nmu = 0.01\ntruncations = 3 3 3\n"
                "\n[options]\nt_max = 5\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "aaphase.cli", "analyze", "--config",
             write(tmp_path, text)], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src})
        assert (done.returncode, done.stdout) == (64, "")
        assert done.stderr == "config error: matrix entries must be finite\n"

    @pytest.mark.parametrize("psi0", ["1, 0", "0.6, 0.8"])
    def test_non_hermitian_past_the_float_range_exits_64(self, tmp_path,
                                                        capsys, psi0):
        # |entry| overflows, so |H - H^dag| and its scale would both be
        # inf and pass the Hermiticity guard: a "stationary" report
        # (1, 0) or a traceback (0.6, 0.8)
        text = ("[run]\nmodel = dense_matrix\n\n[dense_matrix]\n"
                "dimension = 2\nentries = 1.5e308+1.5e308i, 0, 0, 1\n"
                f"psi0 = {psi0}\n\n[options]\nt_max = 10\n")
        code, out, err = run_cli(
            ["analyze", "--config", write(tmp_path, text)], capsys)
        assert (code, out) == (64, "")
        assert err == ("config error: matrix entries must have a finite "
                       "modulus\n")

    @pytest.mark.parametrize("command", ["analyze", "verify"])
    @pytest.mark.parametrize("name, key, model", [
        ("two_mirror.ini", "mirror_truncation", "two_mirror"),
        ("free_field_coherent.ini", "truncation", "free_field")])
    def test_spectrum_past_memory_exits_64(self, tmp_path, capsys, command,
                                           name, key, model):
        # the exact build asks numpy for a 146 TiB array of amplitudes
        text = shipped_with(name, **{key: "10000000000000"})
        code, out, err = run_cli(
            [command, "--config", write(tmp_path, text)], capsys)
        assert (code, out) == (64, "")
        assert err == (f"config error: the {model} spectrum does not fit "
                       f"in memory\n")

    @pytest.mark.parametrize("command", ["analyze", "verify"])
    def test_mean_energy_past_the_float_range_exits_64(self, tmp_path,
                                                       capsys, command):
        # levels 0, 2 and 5 at unit 1e308: tau is finite, <H> is not
        text = shipped_with("free_field_fock.ini", omega="1e308")
        code, out, err = run_cli(
            [command, "--config", write(tmp_path, text)], capsys)
        assert (code, out) == (64, "")
        assert err == ("config error: mean energy is not finite at "
                       "unit = 1e+308\n")

    @pytest.mark.parametrize("command", ["analyze", "verify"])
    def test_branch_integers_past_the_float_range_exit_64(
            self, tmp_path, capsys, command):
        # the gamma sum converts branch integers near 1e308 to floats
        text = shipped_with("two_mirror.ini", r="1e308")
        code, out, err = run_cli(
            [command, "--config", write(tmp_path, text)], capsys)
        assert (code, out) == (64, "")
        assert err == ("config error: the exact route leaves the float "
                       "range: int too large to convert to float\n")

    def test_huge_frequencies_verify_without_warnings(self, tmp_path,
                                                      capsys):
        # omega^2 overflows; the prune bound squares dt*omega instead,
        # and the suite turns any numpy warning into an error
        text = shipped_with("free_field_coherent.ini", omega="1e200")
        code, out, err = run_cli(
            ["verify", "--config", write(tmp_path, text)], capsys)
        assert (code, err) == (0, "")
        rows = parse_report(out)["verify"]
        assert rows["tau-relative"].startswith(
            "6.2831853071795862e-200 | 6.2831853071795862e-200 | 0 |")
        assert rows["verdict"] == "pass"

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
        ("analyze", RAW_TWO_LEVEL + "unit = 1e-308\n", "unit"),
        ("verify", RAW_TWO_LEVEL + "unit = 1e-308\n[options]\nt_max = 5\n",
         "unit"),
    ], ids=["analyze-t_max", "verify-t_max", "verify-t_max-inf",
            "analyze-fidelity_tol", "verify-fidelity_tol", "verify-steps",
            "raw_spectrum-unit-inf", "spin_half-mu_B0-inf",
            "free_field-omega-inf", "dense_matrix-unit-inf",
            "three_mirror-omega_m-0", "verify-tolerance-inf",
            "verify-tolerance-nan", "verify-tolerance-0",
            "verify-tolerance-negative", "verify-default-t_max-overflow",
            "analyze-tau-overflow", "verify-tau-overflow"])
    def test_out_of_range_options_exit_64(self, tmp_path, capsys, command,
                                          text, key):
        code, out, err = run_cli(
            [command, "--config", write(tmp_path, text)], capsys)
        assert code == 64 and out == ""
        assert err.startswith("config error:") and key in err
        assert len(err.splitlines()) == 1


    @pytest.mark.parametrize("command, text, flags, key", [
        # with 11 grid steps verify took the second return for the period
        ("verify", RAW_INTEGER.replace("0 1 2", "0 1 3")
         + "\n[options]\nsteps = 11\n", [], "steps"),
        ("verify", RAW_TWO_LEVEL + "\n[options]\nfidelity_tol = 1e-3\n", [],
         "fidelity_tol"),
        ("verify", RAW_TWO_LEVEL + "\n[options]\ntolerance = 1e-3\n", [],
         "tolerance"),
        # the values once refused as out of range are now refused as unknown
        *[("verify", RAW_TWO_LEVEL + f"\n[options]\ntolerance = {value}\n",
           [], "tolerance") for value in ("1", "inf", "nan")],
        ("analyze", DENSE_IRRATIONAL
         + "\n[options]\nt_max = 20\napproximate = yes\n", [],
         "approximate"),
        ("analyze", DENSE_IRRATIONAL, ["--t-max", "20", "--fidelity-tol",
                                       "1e-3"], "--fidelity-tol"),
    ], ids=["steps", "fidelity_tol", "tolerance", "tolerance-1",
            "tolerance-inf", "tolerance-nan", "approximate", "--fidelity-tol"])
    def test_removed_option_is_unknown(self, tmp_path, capsys, command,
                                       text, flags, key):
        code, out, err = run_cli(
            [command, "--config", write(tmp_path, text), *flags], capsys)
        assert code == 64 and out == ""
        assert key in err and len(err.splitlines()) == 1


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


# finite values at the edges of the float range: squares that overflow
# or underflow, and the smallest subnormal
EXTREME_TOKENS = ("1.5e308", "-1.5e308", "1e154", "-1e154", "1e-160",
                  "1e-300", "5e-324")
SWEEP_TOKENS = ("inf", "-inf", "nan", "1e400", "1" + "0" * 400, "0", "-1",
                "abc", "", "10000000000000", *EXTREME_TOKENS)
NON_FINITE = SWEEP_TOKENS[:5]
COMMANDS = ("analyze", "verify", "constrain")


def _read(name):
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                   interpolation=None)
    cp.read(CONFIGS / name)
    return cp


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.ini")))
def test_malformed_config_sweep(tmp_path, capsys, name):
    """Every key of the model section and of [options], set to each token,
    under every command: an exit code, never an exception; non-finite
    numbers are configuration errors, and an unparsable model entry is
    one that names its key."""
    cp = _read(name)
    sections = [s for s in (cp["run"]["model"], "options") if s in cp]
    path = tmp_path / name
    escaped, wrong, unnamed = [], [], []
    for section in sections:
        for key in list(cp[section]):
            original = cp[section][key]
            for token in SWEEP_TOKENS:
                cp[section][key] = token
                with open(path, "w", encoding="utf-8") as fh:
                    cp.write(fh)
                for command in COMMANDS:
                    case = (key, token, command)
                    capsys.readouterr()
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
                    # configparser lowercases the keys it writes
                    err = capsys.readouterr().err.lower()
                    if (token == "abc" and section != "options" and not
                            err.startswith(f"config error: {key}:")):
                        unnamed.append(case + (err,))
            cp[section][key] = original
    assert escaped == []
    assert wrong == []
    assert unnamed == []


def _lists(cp):
    """(key, separator, elements) of each model value with more than one
    element: ',' or ';' separated where the text has one, whitespace
    otherwise."""
    section = cp[cp["run"]["model"]]
    for key, text in section.items():
        sep = "," if "," in text else ";" if ";" in text else None
        items = [piece.strip() for piece in text.split(sep)]
        if len(items) > 1:
            yield key, sep, items


@pytest.mark.parametrize("name", sorted(
    p.name for p in CONFIGS.glob("*.ini") if any(_lists(_read(p.name)))))
def test_extreme_list_element_sweep(tmp_path, capsys, name):
    """Every element of every list value, set alone to each non-finite or
    extreme token, under every command: a documented exit code and at
    most one stderr line, never an exception; a non-finite element is a
    configuration error."""
    cp = _read(name)
    section = cp[cp["run"]["model"]]
    path = tmp_path / name
    failures = []
    for key, sep, items in list(_lists(cp)):
        original = section[key]
        for index in range(len(items)):
            for token in (*NON_FINITE, *EXTREME_TOKENS):
                element = items[:index] + [token] + items[index + 1:]
                section[key] = (f"{sep} " if sep else " ").join(element)
                with open(path, "w", encoding="utf-8") as fh:
                    cp.write(fh)
                for command in COMMANDS:
                    case = (key, index, token, command)
                    capsys.readouterr()
                    try:
                        code = cli.main([command, "--config", str(path)])
                    except Exception as exc:  # any escape is the failure
                        failures.append(case + (repr(exc),))
                        continue
                    err = capsys.readouterr().err
                    allowed = {0, 2, 3, 64} | ({1} if command == "verify"
                                               else set())
                    if (code not in allowed or len(err.splitlines()) > 1
                            or (token in NON_FINITE and code != 64)):
                        failures.append(case + (code, err))
        section[key] = original
    assert failures == []


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
OPTION_KEYS = ("t_max", "n_range")


def _table_keys():
    """{section: set of keys} of the program's key tables."""
    tables = {model: table for model, (_, table)
              in config_module._MODELS.items()}
    return {name: set(table) for name, table in (
        ("run", config_module._RUN), ("options", config_module._OPTIONS),
        *tables.items())}


def test_model_keys_match_the_table():
    # MODEL_KEYS is kept by hand, apart from the program's tables
    assert _table_keys() == {"run": {"model"}, "options": set(OPTION_KEYS),
                             **{model: set(keys)
                                for model, keys in MODEL_KEYS.items()}}
    assert set(config_module.FLAGS) == set(OPTION_KEYS)


def test_readme_key_table_matches_model_keys():
    # the README's Configs table names every key each model section reads
    text = (CONFIGS.parent / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Configs\n")[1].split("\n## ")[0]
    rows = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            model, keys = line.split("|")[1:3]
            rows[model.strip().strip("`")] = set(re.findall(r"`([^`]+)`",
                                                            keys))
    tables = _table_keys()
    assert rows == {model: tables[model] for model in config_module._MODELS}


# (shipped config, its text -> the misspelled text, the one stderr line)
MISSPELLED = {
    "run": ("spin_half.ini", ("model =", "modle ="),
            "unknown key 'modle' in [run]"),
    "options": ("dense_matrix.ini", ("t_max =", "t_mx ="),
                "unknown key 't_mx' in [options]"),
    "spin_half": ("spin_half.ini", ("theta =", "theat ="),
                  "unknown key 'theat' in [spin_half]"),
    "free_field": ("free_field_fock.ini", ("omega =", "omgea ="),
                   "unknown key 'omgea' in [free_field]"),
    "two_mirror": ("two_mirror.ini", ("beta =", "btea ="),
                   "unknown key 'btea' in [two_mirror]"),
    "three_mirror": ("three_mirror_exact.ini", ("omega_S =", "omega_s2 ="),
                     "unknown key 'omega_s2' in [three_mirror]"),
    "raw_spectrum": ("raw_spectrum.ini", ("unit =", "unti ="),
                     "unknown key 'unti' in [raw_spectrum]"),
    "dense_matrix": ("dense_matrix.ini", ("psi0 =", "psi_0 ="),
                     "unknown key 'psi_0' in [dense_matrix]"),
    "partial_spectrum": ("partial_spectrum.ini", ("known =", "konwn ="),
                         "unknown key 'konwn' in [partial_spectrum]"),
    "[option]": ("dense_matrix.ini", ("[options]", "[option]"),
                 "unknown section [option]"),
    "[extra]": ("spin_half.ini", ("[run]", "[extra]\nx = 1\n\n[run]"),
                "unknown section [extra]"),
    "[DEFAULT]": ("spin_half.ini",
                  ("[run]", "[DEFAULT]\ntheta = 0.3\n\n[run]"),
                  "unknown section [DEFAULT]"),
    # checked before any entry is parsed: an irrational r alone exits 2
    "before-incommensurable": (
        "two_mirror.ini", ("r = 2", "r = 1.4142135623730951\nrr = 2"),
        "unknown key 'rr' in [two_mirror]"),
    # the two free-field forms do not mix
    **{f"free_field+{key}": (name, ("[free_field]", f"[free_field]\n{line}"),
                              "free_field needs either occupied_n+amplitudes "
                              "or alpha+truncation")
       for name, key, line in (
           ("free_field_fock.ini", "alpha", "alpha = 0.5"),
           ("free_field_fock.ini", "truncation", "truncation = 9"),
           ("free_field_coherent.ini", "amplitudes", "amplitudes = 1"),
           ("free_field_coherent.ini", "occupied_n", "occupied_n = 0"))},
}


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("case", MISSPELLED)
def test_unknown_key_or_section_exits_64(tmp_path, capsys, case, command):
    """A key outside its section's table or a stray section is refused
    with one line, whatever the command: before, it was ignored and the
    run went on with the default."""
    name, (old, new), message = MISSPELLED[case]
    text = (CONFIGS / name).read_text(encoding="utf-8")
    assert old in text
    code, out, err = run_cli(
        [command, "--config", write(tmp_path, text.replace(old, new, 1))],
        capsys)
    assert (code, out, err) == (64, "", f"config error: {message}\n")


def test_incommensurable_entry_still_exits_2(tmp_path, capsys):
    # the counterpart of MISSPELLED["before-incommensurable"]
    text = (CONFIGS / "two_mirror.ini").read_text(encoding="utf-8")
    code, _, err = run_cli(["analyze", "--config", write(
        tmp_path, text.replace("r = 2", "r = 1.4142135623730951"))], capsys)
    assert code == 2 and err.startswith("non-cyclic:")
def test_tiny_level_stays_a_float(tmp_path, capsys):
    # 1e-10 rationalizes to 0 within 1e-9; read as 0 it left the cyclic
    # pair {0, 1}
    text = shipped_with("raw_spectrum.ini", levels="0 1e-10 1")
    code, out, err = run_cli(["analyze", "--config", write(tmp_path, text)],
                             capsys)
    assert (code, err) == (2, "non-cyclic: incommensurable\n")
    assert parse_report(out)["phase-report"]["cyclicality"] == "non-cyclic"


@pytest.mark.parametrize("key, value", [("C_D", "5e-10"), ("C_D", "2e-9"),
                                        ("omega_m", "1e-10")])
def test_tiny_three_mirror_value_stays_a_float(tmp_path, key, value):
    # off the exact family, as any float frequency or coupling is; 1e-10
    # read as 0 took the exact C_D = 0 route or failed as non-positive
    run = config_module.load_config(write(
        tmp_path, shipped_with("three_mirror_exact.ini", **{key: value})))
    assert run.spectrum is None and run.hamiltonian is not None


@pytest.mark.parametrize("key", ["r", "k_squared"])
def test_tiny_exact_entry_exits_2(tmp_path, capsys, key):
    text = shipped_with("two_mirror.ini", **{key: "1e-10"})
    code, out, err = run_cli(["analyze", "--config", write(tmp_path, text)],
                             capsys)
    assert (code, out, err) == (2, "", "non-cyclic: incommensurable input\n")


# removed options among them: unknown keys like any other
STRANGE_KEYS = ("model", "fidelty_tol", "x", "fidelity_tol", "steps",
                "tolerance", "approximate")
SECTIONS = ("run", "options", "extra", *MODEL_KEYS)
SHIPPED = sorted(p.name for p in CONFIGS.glob("*.ini"))
# integer keys that size a matrix stay small so every example is fast
SIZE_KEYS = ("truncation", "mirror_truncation", "truncations", "dimension",
             "occupied_n", "k_sign")
TOKENS = ("0", "1", "-1", "2", "3", "1/2", "7/3", "0.5", "1e-3", "20",
          "1e400", "inf", "-inf", "nan", "abc", "", "on", "0.6+0.8 i",
          "-0.3 i", "1.4142135623730951", "1e200", *EXTREME_TOKENS)


def _value(key):
    if key == "model":
        return st.sampled_from((*MODEL_KEYS, "bogus"))
    atoms = (st.integers(-1, 4).map(str) if key in SIZE_KEYS
             else st.sampled_from(TOKENS))
    return st.one_of(atoms, st.builds(
        str.join, st.sampled_from((" ", "; ", ", ")),
        st.lists(atoms, max_size=4)))


@st.composite
def malformed_configs(draw, stray=True):
    """A shipped config with random keys of random sections set to random
    tokens and lists, or deleted; without ``stray``, only [run], [options]
    and the model's section, each with its own keys."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                   interpolation=None)
    cp.read(CONFIGS / draw(st.sampled_from(SHIPPED)))
    if cp.has_section("three_mirror"):
        cp["three_mirror"]["truncations"] = "3 3 3"  # shipped sizes take 0.3 s
    model = cp["run"]["model"]
    names = [model] + draw(st.lists(st.sampled_from(
        SECTIONS if stray else ("run", "options")), max_size=2, unique=True))
    for name in dict.fromkeys(names):
        if not cp.has_section(name):
            cp.add_section(name)
        pool = (MODEL_KEYS.get(name, ()) + OPTION_KEYS + STRANGE_KEYS
                if stray else {"run": ("model",), "options": OPTION_KEYS,
                               model: MODEL_KEYS[model]}[name])
        for key in draw(st.lists(st.sampled_from(pool), max_size=4,
                                 unique=True)):
            if key in cp[name] and draw(st.booleans()):
                del cp[name][key]
            else:
                cp[name][key] = draw(_value(key))
    text = io.StringIO()
    cp.write(text)
    return text.getvalue()


@settings(deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=st.one_of(malformed_configs(), malformed_configs(stray=False)),
       command=st.sampled_from(("analyze", "verify", "constrain")))
def test_random_malformed_configs(text, command):
    """Random sections, keys, tokens and list lengths: a documented exit
    code (1 only from verify) and at most one stderr line, never an
    exception; 64 wherever a section or a key is outside the lists."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.ini")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", path])
    assert code in {0, 2, 3, 64} | ({1} if command == "verify" else set())
    assert len(err.getvalue().splitlines()) <= 1
    if _has_stray_key_or_section(text):
        assert code == 64, err.getvalue()


def _has_stray_key_or_section(text):
    """Whether ``text`` has a section other than [run], [options] and its
    model's, or a key outside that section's list in MODEL_KEYS."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                   interpolation=None)
    cp.read_string(text)
    keys = {"run": ("model",), "options": OPTION_KEYS, **MODEL_KEYS}
    model = cp["run"].get("model", "") if cp.has_section("run") else ""
    return any(
        name not in ("run", "options", model)
        or set(cp[name]) - {key.lower() for key in keys[name]}
        for name in cp.sections())


@pytest.mark.parametrize("name, argv", [
    *((f"{config}.analyze", ["analyze"]) for config in TestDenseOnDemand.EXACT),
    ("partial_spectrum.ini.constrain", ["constrain", "--n-range", "8"]),
    *((f"{config}.analyze", ["analyze"])
      for config in ("dense_matrix.ini", "three_mirror_approximate.ini")),
    *((f"{config}.verify", ["verify"])
      for config in ("free_field_coherent.ini", "raw_spectrum.ini",
                     "spin_half.ini", "three_mirror_exact.ini",
                     "two_mirror.ini")),
])
def test_stdout_matches_golden(capsys, name, argv):
    """Reports stay byte-identical unless a change means to alter them.
    Regenerate a golden file with ``aaphase <argv> --config configs/<ini>
    > tests/golden/<name>.txt`` and say why in CHANGES.md."""
    config = str(CONFIGS / name.rsplit(".", 1)[0])
    code, out, err = run_cli([argv[0], "--config", config, *argv[1:]],
                             capsys)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
