"""Self-tests for the benchmark: generator, reference checks, tracing.

    python3 -m pytest perfbench/tests -q

Only the cheap calls of the config sweep run here; the heavy
three-mirror calls are left to the benchmark itself.
"""

import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from checks import check_call, three_mirror_gamma
from spans import SELF_METRICS, Tracer
from workloads import WORKLOADS, generate
from worker import run_call

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
HEAVY = ("three_mirror",)


def _files(directory: Path):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.fixture
def sweep(tmp_path):
    calls = generate("config-sweep", 7, tmp_path, ROOT / "configs")
    cheap = [c for c in calls if not c["config"].startswith(HEAVY)]
    cwd = os.getcwd()
    os.chdir(tmp_path)
    yield tmp_path, cheap
    os.chdir(cwd)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    first = generate(workload, 3, tmp_path / "a", ROOT / "configs")
    again = generate(workload, 3, tmp_path / "b", ROOT / "configs")
    other = generate(workload, 4, tmp_path / "c", ROOT / "configs")
    assert first == again
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    # another seed changes values, never the call mix or input sizes
    assert [c["argv"] for c in first] == [c["argv"] for c in other]
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    sizes = ("truncations", "dimension", "t_max")
    for name, text in _files(tmp_path / "a").items():
        other_text = (tmp_path / "c" / name).read_text()
        for line in text.decode().splitlines():
            if line.startswith(sizes) and "short_horizon" not in name:
                assert line in other_text.splitlines()


def test_config_sweep_has_enough_calls_for_p90(tmp_path):
    calls = generate("config-sweep", 0, tmp_path, ROOT / "configs")
    assert len(calls) >= 100
    assert {c["exit"] for c in calls} == {0, 2, 3, 64}


def test_verify_states_keep_every_weight_above_the_floor(tmp_path):
    # the oracle cannot meet verify's tolerance on ~1 % weights
    for seed in range(20):
        for call in generate("config-sweep", seed, tmp_path, ROOT / "configs"):
            if call["check"]["kind"] == "raw-verify":
                amps = call["check"]["amplitudes"]
                floor = 1 / (1 + 4 * (len(amps) - 1))
                assert min(re * re + im * im for re, im in amps) >= floor - 1e-12


def test_cheap_calls_pass_their_checks(sweep):
    directory, calls = sweep
    for call in calls:
        _, code, stdout, error = run_call(call)
        assert error is None, call["id"]
        assert check_call(call, code, stdout, directory) is None, call["id"]


def test_corrupted_report_counts_as_failure(sweep):
    directory, calls = sweep
    by_id = {c["id"]: c for c in calls}
    raw = by_id["raw-analyze-05"]
    _, code, stdout, _ = run_call(raw)
    assert check_call(raw, code, stdout, directory) is None
    wrong_gamma = stdout.replace("gamma: ", "gamma: 1", 1)
    assert check_call(raw, code, wrong_gamma, directory) is not None
    wrong_tau = stdout.replace("tau-cycles: ", "tau-cycles: 2", 1)
    assert check_call(raw, code, wrong_tau, directory) is not None
    assert check_call(raw, 1, stdout, directory) is not None
    assert check_call(raw, code, "", directory) is not None

    verify = by_id["raw-verify-05"]
    _, code, stdout, _ = run_call(verify)
    failed = stdout.replace("verdict: pass", "verdict: FAIL")
    assert check_call(verify, code, failed, directory) is not None

    constrain = by_id["constrain-03"]
    _, code, stdout, _ = run_call(constrain)
    assert check_call(constrain, code, stdout, directory) is None
    dropped_row = "\n".join(stdout.splitlines()[:2] + stdout.splitlines()[3:])
    assert check_call(constrain, code, dropped_row + "\n", directory) is not None

    error_path = by_id["error-short-horizon"]
    _, code, stdout, _ = run_call(error_path)
    assert code == 3 and check_call(error_path, code, stdout, directory) is None
    assert check_call(error_path, 0, stdout, directory) is not None


def test_traced_and_untraced_runs_print_the_same_bytes(sweep):
    directory, calls = sweep
    untraced = [run_call(call)[1:3] for call in calls]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [run_call(call)[1:3] for call in calls]
    finally:
        tracer.uninstall()
    assert traced == untraced
    metrics = tracer.metrics()
    # layer self times partition the time spent inside cli.main
    self_total = sum(metrics[name] for name in SELF_METRICS.values())
    assert math.isclose(self_total, metrics["cli.main_s"], rel_tol=1e-9)
    assert metrics["constraints.candidates"] > 0
    assert metrics["oracle.grid_steps"] > 0
    assert metrics["engine.occupied"] >= metrics["engine.distinct_values"] > 0
    import aaphase.cli
    import aaphase.oracle
    assert aaphase.cli.main.__module__ == "aaphase.cli"
    assert aaphase.oracle.SpectralPropagator.__module__ == "aaphase.oracle"


def test_three_mirror_reference_matches_closed_form():
    from fractions import Fraction

    from aaphase.models import ThreeMirrorParams, three_mirror_gamma_closed_form

    alpha, beta, mu = 0.3 + 0.6j, -0.5j, 0.2 - 0.55j
    for kappa_d, kappa_s, p in ((Fraction(1, 10), 0, 100),
                                (Fraction(1, 5), 0, 25), (1e-3, 1e-3, 1)):
        params = ThreeMirrorParams(rho_D=2, rho_S=3, kappa_D=kappa_d,
                                   kappa_S=kappa_s, alpha=alpha, beta=beta,
                                   mu=mu)
        check = {"rho_D": "2", "rho_S": "3", "kappa_D": str(kappa_d),
                 "kappa_S": str(kappa_s), "alpha": [alpha.real, alpha.imag],
                 "beta": [beta.real, beta.imag], "mu": [mu.real, mu.imag]}
        expected = three_mirror_gamma_closed_form(params, p)
        assert abs(three_mirror_gamma(check, p) - expected) < 1e-9


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "config-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
