"""Report serialization round-trips and INI config loading."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from aaphase import cli
from aaphase.config import (
    ConfigError,
    load_config,
    parse_complex,
)
from aaphase.constraints import CyclicityCandidate
from aaphase.engine import Cyclicality, PhaseReport
from aaphase.oracle import NoReturnError
from aaphase.rational import IncommensurableError
from aaphase.report import (
    format_candidate_table,
    format_phase_report,
    format_real,
    format_verify_table,
)
from conftest import level, parse_report


class TestRealFormatting:
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_seventeen_digits_round_trip(self, x):
        assert float(format_real(x)) == x

    def test_inf_serializes(self):
        assert format_real(math.inf) == "inf"


class TestPhaseReportFormat:
    def make_report(self, **kw):
        base = dict(method="full-spectrum", unit=1.0,
                    tau_cycles=Fraction(1, 2), tau=math.pi,
                    phi_over_pi=Fraction(1), phi=math.pi,
                    gamma=2.0, mean_energy=0.25,
                    branch_integers={"up": 1, "down": 0})
        base.update(kw)
        return PhaseReport(**base)

    def test_structure_and_round_trip(self):
        text = format_phase_report(self.make_report(),
                                   Cyclicality("cyclic"))
        parsed = parse_report(text)
        body = parsed["phase-report"]
        assert body["cyclicality"] == "cyclic"
        assert body["method"] == "full-spectrum"
        assert body["stationary"] == "no"
        assert body["tau-cycles"] == "1/2"
        assert body["phi-over-pi"] == "1"
        assert float(body["tau"]) == math.pi
        assert float(body["gamma"]) == 2.0
        assert parsed["branch-integers"] == {"up": "1", "down": "0"}
        assert "fidelity" not in body

    def test_reason_and_fidelity_lines(self):
        rep = self.make_report(fidelity=0.9999, stationary=True)
        text = format_phase_report(
            rep, Cyclicality("non-cyclic", "incommensurable"))
        body = parse_report(text)["phase-report"]
        assert body["reason"] == "incommensurable"
        assert body["stationary"] == "yes"
        assert float(body["fidelity"]) == 0.9999

    def test_oracle_report_has_none_fields(self):
        rep = self.make_report(method="oracle", tau_cycles=None,
                               phi_over_pi=None, branch_integers={})
        text = format_phase_report(rep)
        body = parse_report(text)["phase-report"]
        assert body["tau-cycles"] == "none"
        assert body["phi-over-pi"] == "none"
        assert "cyclicality" not in body
        assert "branch-integers" not in parse_report(text)

    def test_deterministic(self):
        rep = self.make_report()
        assert format_phase_report(rep) == format_phase_report(rep)


class TestVerifyTableFormat:
    ROWS = [("tau-relative", "6.2831853071795865", "6.2831853071795862",
             3e-16, True),
            ("gamma-mod-2pi", "3.1415926535897931", "3.1415926535897929",
             2e-16, True)]

    def test_pass_verdict(self):
        text = format_verify_table(self.ROWS)
        parsed = parse_report(text)["verify"]
        assert parsed["verdict"] == "pass"
        assert parsed["tau-relative"].endswith("pass")

    def test_fail_verdict(self):
        rows = self.ROWS + [("phi-mod-2pi", "0", "0.5", 0.5, False)]
        text = format_verify_table(rows)
        lines = text.splitlines()
        assert lines[0] == "[verify]"
        assert lines[1] == "quantity | exact | oracle | abs-delta | pass"
        assert lines[-1] == "verdict: FAIL"
        assert "FAIL" in parse_report(text)["verify"]["phi-mod-2pi"]


class TestCandidateTableFormat:
    def test_rows_and_admissibility(self):
        cands = [CyclicityCandidate(tau_cycles=Fraction(1), n=2, m=3,
                                    phi_over_pi=Fraction(0)),
                 CyclicityCandidate(tau_cycles=Fraction(2), n=4, m=6,
                                    phi_over_pi=Fraction(1, 2))]
        text = format_candidate_table(
            cands, [[math.pi], []],
            admissibility=[(Fraction(3), True), (Fraction(1, 2), False)])
        lines = text.splitlines()
        assert lines[0] == "[candidates]"
        assert lines[1] == ("n | m | phi (pi units) | "
                            "tau (2*pi*hbar/unit units) | gamma candidates")
        assert lines[2] == "2 | 3 | 0 | 1 | 3.1415926535897931"
        assert lines[3] == "4 | 6 | 1/2 | 2 | none"
        parsed = parse_report(text)
        assert parsed["admissibility"]["3"] == "yes"
        assert parsed["admissibility"]["1/2"] == "no"


    @given(st.lists(st.floats(), min_size=1, max_size=8))
    def test_gamma_cell_has_the_bytes_of_format_real(self, gs):
        cand = CyclicityCandidate(tau_cycles=Fraction(1), n=1, m=0,
                                  phi_over_pi=Fraction(0))
        row = format_candidate_table([cand], [gs]).splitlines()[2]
        assert row == "1 | 0 | 0 | 1 | " + " ".join(map(format_real, gs))


class TestComplexParsing:
    @pytest.mark.parametrize("text,expect", [
        ("0.75", 0.75 + 0j),
        ("-2", -2 + 0j),
        ("0.5+0.25 i", 0.5 + 0.25j),
        ("1-2 i", 1 - 2j),
        ("0.5 i", 0.5j),
        ("-0.5 i", -0.5j),
        ("1e-3 i", 1e-3j),
        ("1e+20+3 i", 1e20 + 3j),
    ])
    def test_forms(self, text, expect):
        assert parse_complex(text) == expect

    @pytest.mark.parametrize("bad", ["", "abc", "1+2j i", "1 + i"])
    def test_rejects(self, bad):
        with pytest.raises(ConfigError):
            parse_complex(bad)

    @given(st.complex_numbers(allow_nan=False, allow_infinity=False))
    def test_format_round_trip(self, z):
        assert parse_complex(f"{z.real:.17g}{z.imag:+.17g} i") == z


def write_config(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return str(path)


class TestLoadConfigErrors:
    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "missing.ini"))

    def test_missing_run_section(self, tmp_path):
        with pytest.raises(ConfigError, match=r"missing \[run\]"):
            load_config(write_config(tmp_path, "[spin_half]\ntheta = 1\n"))

    def test_unknown_model(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown model"):
            load_config(write_config(tmp_path, "[run]\nmodel = bogus\n"))

    def test_missing_model_section(self, tmp_path):
        with pytest.raises(ConfigError, match=r"missing \[spin_half\]"):
            load_config(write_config(tmp_path, "[run]\nmodel = spin_half\n"))

    def test_missing_key(self, tmp_path):
        text = "[run]\nmodel = spin_half\n\n[spin_half]\nmu_B0 = 1\n"
        with pytest.raises(ConfigError, match="missing key 'theta'"):
            load_config(write_config(tmp_path, text))

    def test_model_validation_becomes_config_error(self, tmp_path):
        text = "[run]\nmodel = spin_half\n\n[spin_half]\ntheta = 9\n"
        with pytest.raises(ConfigError, match="theta"):
            load_config(write_config(tmp_path, text))


class TestSpinConfig:
    def test_loads_everything(self, tmp_path):
        text = ("[run]\nmodel = spin_half\n\n"
                "[spin_half]\ntheta = 1.1\nmu_B0 = 2\n")
        run = load_config(write_config(tmp_path, text))
        assert run.model == "spin_half"
        assert run.spectrum is not None and run.state is not None
        assert run.hamiltonian is not None and run.psi0 is not None
        assert run.spectrum.unit == 2.0
        assert (run.t_max, run.n_range) == (None, 16)


class TestFreeFieldConfig:
    def test_occupied_list(self, tmp_path):
        a = 1.0 / math.sqrt(3.0)
        text = ("[run]\nmodel = free_field\n\n"
                "[free_field]\nomega = 3\nocc".replace("occ", "occupied_n")
                + f" = 0 2 5\namplitudes = {a}; {a}; {a}\n")
        run = load_config(write_config(tmp_path, text))
        assert level(run.spectrum, "5") == 5
        assert run.hamiltonian.dimension == 6
        assert run.psi0[2] == pytest.approx(a)

    def test_coherent_form(self, tmp_path):
        text = ("[run]\nmodel = free_field\n\n"
                "[free_field]\nomega = 1\nalpha = 0.9\ntruncation = 18\n")
        run = load_config(write_config(tmp_path, text))
        assert run.hamiltonian.dimension == 18
        assert abs(np.linalg.norm(run.psi0) - 1.0) < 1e-12

    def test_exactly_one_input_form(self, tmp_path):
        both = ("[run]\nmodel = free_field\n\n"
                "[free_field]\nalpha = 0.9\noccupied_n = 0 1\n"
                "amplitudes = 0.6; 0.8\n")
        with pytest.raises(ConfigError, match="either"):
            load_config(write_config(tmp_path, both))
        neither = "[run]\nmodel = free_field\n\n[free_field]\nomega = 1\n"
        with pytest.raises(ConfigError, match="either"):
            load_config(write_config(tmp_path, neither))

    def test_length_mismatch(self, tmp_path):
        text = ("[run]\nmodel = free_field\n\n"
                "[free_field]\noccupied_n = 0 1\namplitudes = 1.0\n")
        with pytest.raises(ConfigError, match="differ in length"):
            load_config(write_config(tmp_path, text))


class TestRawSpectrumConfig:
    def test_decimals_rationalize(self, tmp_path):
        text = ("[run]\nmodel = raw_spectrum\n\n"
                "[raw_spectrum]\nlevels = 0.5 3/2\n"
                "amplitudes = 0.6; 0.8\n")
        run = load_config(write_config(tmp_path, text))
        assert level(run.spectrum, "0") == Fraction(1, 2)
        assert level(run.spectrum, "1") == Fraction(3, 2)

    def test_repeating_decimal_recovers_thirds(self, tmp_path):
        text = ("[run]\nmodel = raw_spectrum\n\n"
                "[raw_spectrum]\nlevels = 0 0.3333333333\n"
                "amplitudes = 0.6; 0.8\n")
        run = load_config(write_config(tmp_path, text))
        assert level(run.spectrum, "1") == Fraction(1, 3)

    def test_irrational_survives_as_float(self, tmp_path):
        text = ("[run]\nmodel = raw_spectrum\n\n"
                "[raw_spectrum]\nlevels = 0 1.4142135623730951\n"
                "amplitudes = 0.6; 0.8\n")
        run = load_config(write_config(tmp_path, text))
        v = level(run.spectrum, "1")
        assert isinstance(v, float) and v == math.sqrt(2.0)

    def test_custom_labels_and_unit(self, tmp_path):
        text = ("[run]\nmodel = raw_spectrum\n\n"
                "[raw_spectrum]\nlevels = 2 3\namplitudes = 0.6; 0.8\n"
                "labels = lo hi\nunit = 2.5\n")
        run = load_config(write_config(tmp_path, text))
        assert level(run.spectrum, "hi") == 3
        assert run.spectrum.unit == 2.5

    def test_zero_amplitudes_drop_from_state(self, tmp_path):
        text = ("[run]\nmodel = raw_spectrum\n\n"
                "[raw_spectrum]\nlevels = 2 3 4\n"
                "amplitudes = 0.6; 0; 0.8\n")
        run = load_config(write_config(tmp_path, text))
        assert [lab for lab, _ in run.state.entries] == ["0", "2"]

    def test_label_count_mismatch(self, tmp_path):
        text = ("[run]\nmodel = raw_spectrum\n\n"
                "[raw_spectrum]\nlevels = 2 3\namplitudes = 0.6; 0.8\n"
                "labels = only_one\n")
        with pytest.raises(ConfigError, match="labels"):
            load_config(write_config(tmp_path, text))


class TestDenseMatrixConfig:
    def test_loads_matrix(self, tmp_path):
        text = ("[run]\nmodel = dense_matrix\n\n"
                "[dense_matrix]\ndimension = 2\n"
                "entries = 2, 0, 0, 3\npsi0 = 1, 1\n")
        run = load_config(write_config(tmp_path, text))
        assert run.hamiltonian.dimension == 2
        assert run.psi0[0] == pytest.approx(1 / math.sqrt(2))
        assert run.spectrum is None

    def test_entry_count(self, tmp_path):
        text = ("[run]\nmodel = dense_matrix\n\n"
                "[dense_matrix]\ndimension = 2\nentries = 2, 0, 0\n"
                "psi0 = 1, 1\n")
        with pytest.raises(ConfigError, match="matrix entries"):
            load_config(write_config(tmp_path, text))

    def test_non_hermitian(self, tmp_path):
        text = ("[run]\nmodel = dense_matrix\n\n"
                "[dense_matrix]\ndimension = 2\nentries = 0, 1, 0, 0\n"
                "psi0 = 1, 1\n")
        with pytest.raises(ConfigError, match="Hermitian"):
            load_config(write_config(tmp_path, text))

    def test_psi0_length(self, tmp_path):
        text = ("[run]\nmodel = dense_matrix\n\n"
                "[dense_matrix]\ndimension = 2\nentries = 2, 0, 0, 3\n"
                "psi0 = 1, 1, 1\n")
        with pytest.raises(ConfigError, match="psi0 length"):
            load_config(write_config(tmp_path, text))


class TestPartialSpectrumConfig:
    def test_loads_known_trials_mean(self, tmp_path):
        text = ("[run]\nmodel = partial_spectrum\n\n"
                "[partial_spectrum]\nknown = 2 3\ntrials = 3 1/2 2 0\n"
                "mean_energy = 5/2\n")
        run = load_config(write_config(tmp_path, text))
        assert run.partial.eigenvalues == (2, 3)
        assert run.trials == (3, Fraction(1, 2), 2, 0)
        assert run.mean_energy_input == Fraction(5, 2)

    def test_decimal_mean_rationalizes(self, tmp_path):
        text = ("[run]\nmodel = partial_spectrum\n\n"
                "[partial_spectrum]\nknown = 2 3\nmean_energy = 2.5\n")
        run = load_config(write_config(tmp_path, text))
        assert run.mean_energy_input == Fraction(5, 2)

    def test_irrational_mean_stays_float(self, tmp_path):
        text = ("[run]\nmodel = partial_spectrum\n\n"
                "[partial_spectrum]\nknown = 2 3\n"
                "mean_energy = 1.4142135623730951\n")
        run = load_config(write_config(tmp_path, text))
        assert isinstance(run.mean_energy_input, float)

    def test_irrational_known_is_hard_error(self, tmp_path):
        # constraint inputs must be exact; no float fallback here
        text = ("[run]\nmodel = partial_spectrum\n\n"
                "[partial_spectrum]\nknown = 0 1.4142135623730951\n")
        with pytest.raises(IncommensurableError):
            load_config(write_config(tmp_path, text))


class TestThreeMirrorConfig:
    def test_frequencies_scale_to_ratios(self, tmp_path):
        text = ("[run]\nmodel = three_mirror\n\n"
                "[three_mirror]\nomega_D = 5\nomega_S = 3\nomega_m = 2\n"
                "C_D = 1/2\nalpha = 0.4\nbeta = 0.4\nmu = 0.3\n"
                "truncations = 10 10 26\n")
        run = load_config(write_config(tmp_path, text))
        # rho_D = 5/2, kappa_D = 1/4: exact family, spectrum available
        assert run.spectrum is not None
        assert run.hamiltonian.dimension == 10 * 10 * 26
        assert level(run.spectrum, "1,0,0") == Fraction(5, 2) - Fraction(1, 16)

    def test_squeezed_coupling_disables_exact_route(self, tmp_path):
        text = ("[run]\nmodel = three_mirror\n\n"
                "[three_mirror]\nomega_D = 2\nomega_S = 3\nC_S = 1/8\n"
                "truncations = 6 6 10\n")
        run = load_config(write_config(tmp_path, text))
        assert run.spectrum is None
        assert run.hamiltonian is not None


SPIN_RUN = "[run]\nmodel = spin_half\n\n[spin_half]\ntheta = 1.1\n"


class TestOptions:
    def test_options_section_and_casting(self, tmp_path):
        text = SPIN_RUN + "\n[options]\nt_max = 12.5\nn_range = 4\n"
        run = load_config(write_config(tmp_path, text))
        assert (run.t_max, run.n_range) == (12.5, 4)
        assert isinstance(run.n_range, int)
        run = load_config(write_config(tmp_path, SPIN_RUN))
        assert (run.t_max, run.n_range) == (None, 16)

    def test_bad_option_value(self, tmp_path):
        text = SPIN_RUN + "\n[options]\nn_range = many\n"
        with pytest.raises(ConfigError, match="^n_range: invalid literal"):
            load_config(write_config(tmp_path, text))

    def test_flags_beat_options(self, tmp_path):
        text = SPIN_RUN + "\n[options]\nt_max = 12.5\nn_range = 4\n"
        path = write_config(tmp_path, text)
        flags = {"t_max": 3.0, "n_range": None,
                 "config": path, "command": "analyze"}
        run = load_config(path, flags)
        assert (run.t_max, run.n_range) == (3.0, 4)

    def test_flag_values_are_range_checked(self, tmp_path):
        path = write_config(tmp_path, SPIN_RUN)
        with pytest.raises(ConfigError, match="^n_range must be"):
            load_config(path, {"n_range": 0})
        with pytest.raises(ConfigError, match="^t_max must be"):
            load_config(path, {"t_max": -1.0})

    def test_approximate_defaults_by_model(self, tmp_path, monkeypatch):
        # off its exact family a three-mirror run takes the near-recurrence
        # regime; any other matrix must return exactly
        seen = []

        def record(hamiltonian, psi0, t_max, *, approximate=False):
            seen.append(approximate)
            raise NoReturnError("recorded")

        monkeypatch.setattr(cli, "generic_gamma", record)
        three = ("[run]\nmodel = three_mirror\n\n[three_mirror]\n"
                 "omega_D = 2\nomega_S = 3\nC_S = 1/8\ntruncations = 4 4 4\n"
                 "\n[options]\nt_max = 5\n")
        dense = ("[run]\nmodel = dense_matrix\n\n[dense_matrix]\n"
                 "dimension = 2\nentries = 1, 0, 0, 2\npsi0 = 1, 1\n"
                 "\n[options]\nt_max = 5\n")
        for text in (three, dense):
            assert cli.main(["analyze", "--config",
                             write_config(tmp_path, text)]) == 3
        assert seen == [True, False]

    @pytest.mark.parametrize("text, match", [
        ("fidelty_tol = 1e-6", "unknown key 'fidelty_tol'"),
        ("n_range = 0", "^n_range must be >= 1"),
        ("t_max = nan", "^t_max must be positive"),
    ])
    def test_rejected(self, tmp_path, text, match):
        path = write_config(tmp_path, SPIN_RUN + f"\n[options]\n{text}\n")
        with pytest.raises(ConfigError, match=match):
            load_config(path)
