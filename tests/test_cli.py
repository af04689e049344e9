"""End-to-end CLI behavior: exit codes, report text, determinism."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_cli_import_leaves_scipy_sparse_unloaded():
    # the oracle imports scipy.sparse only when it diagonalizes
    probe = "import sys, aaphase.cli; print('scipy.sparse' in sys.modules)"
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "False"


class TestInputGuards:
    @pytest.mark.parametrize("psi0", ["0, 0", "nan, 1", "inf, 1"])
    def test_unnormalizable_psi0_rejected(self, tmp_path, capsys, psi0):
        text = DENSE_IRRATIONAL.replace("psi0 = 1, 1", f"psi0 = {psi0}")
        code, out, err = run_cli(
            ["analyze", "--config", write(tmp_path, text), "--t-max", "20"],
            capsys)
        assert code == 64 and out == ""
        assert err.startswith("config error:") and "psi0" in err

    @pytest.mark.parametrize("text", [
        RAW_TWO_LEVEL.replace("0.6; 0.8", "nan; 0.8"),
        "[run]\nmodel = two_mirror\n\n[two_mirror]\nr = 2\n"
        "k_squared = 1/2\nfield_amplitudes = nan; 0.7\n",
        "[run]\nmodel = three_mirror\n\n[three_mirror]\nomega_D = 2\n"
        "omega_S = 3\nalpha = nan; 0\ntruncations = 4 4 4\n",
    ], ids=["raw_spectrum", "two_mirror", "three_mirror"])
    def test_nan_amplitudes_rejected(self, tmp_path, capsys, text):
        code, out, err = run_cli(
            ["analyze", "--config", write(tmp_path, text)], capsys)
        assert code == 64 and out == ""
        assert err.startswith("config error:") and "normalized" in err

    @pytest.mark.parametrize("command, text, key", [
        ("analyze", DENSE_IRRATIONAL + "\n[options]\nt_max = -3\n", "t_max"),
        ("verify", RAW_TWO_LEVEL + "\n[options]\nt_max = -3\n", "t_max"),
        ("verify", RAW_TWO_LEVEL + "\n[options]\nt_max = inf\n", "t_max"),
        ("analyze", DENSE_IRRATIONAL
         + "\n[options]\nt_max = 20\nfidelity_tol = 0.5\n", "fidelity_tol"),
        ("verify", RAW_TWO_LEVEL + "\n[options]\nfidelity_tol = 0.5\n",
         "fidelity_tol"),
        ("verify", RAW_TWO_LEVEL + "\n[options]\nsteps = 1\n", "steps"),
    ], ids=["analyze-t_max", "verify-t_max", "verify-t_max-inf",
            "analyze-fidelity_tol", "verify-fidelity_tol", "verify-steps"])
    def test_out_of_range_options_exit_64(self, tmp_path, capsys, command,
                                          text, key):
        code, out, err = run_cli(
            [command, "--config", write(tmp_path, text)], capsys)
        assert code == 64 and out == ""
        assert err.startswith("config error:") and key in err
        assert len(err.splitlines()) == 1
