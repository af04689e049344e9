"""The benchmark's tracer still finds every program name it rebinds.

``perfbench/spans.py`` wraps the builders and engine calls that
``aaphase.cli`` and ``aaphase.config`` look up at call time, and reads
``.matrix`` and ``r[0].levels`` from what they return.  A renamed builder
or a changed return shape passes every other test here and breaks only
``perfbench/run.py --trace 1``; this test runs the tracer on three
shipped configs to catch that, and checks that every builder it wraps in
``aaphase.config`` is still looked up there when a shipped config runs
(a loader that held a builder of its own would leave the wrapper
unused, and its span at zero).  The benchmark's self-tests also import
the three-mirror closed form from ``aaphase.models``, which the last
test calls as they do.
"""

import importlib.util
import math
from fractions import Fraction
from pathlib import Path

from aaphase import cli, config, oracle

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
# the config attributes perfbench/spans.py wraps as model builds
BUILDERS = ("three_mirror_dense", "two_mirror_dense", "spin_half_dense",
            "free_field_dense", "three_mirror_initial_state",
            "three_mirror_exact", "two_mirror_spectrum", "spin_half",
            "free_field", "free_field_coherent")

CALLS = (
    ["verify", "--config", str(CONFIGS / "two_mirror.ini")],
    ["analyze", "--config", str(CONFIGS / "three_mirror_exact.ini")],
    ["constrain", "--config", str(CONFIGS / "partial_spectrum.ini"),
     "--n-range", "8"],
)


def _load_spans():
    # loaded from its file: the benchmark directory is not a package and
    # its modules stay off sys.path
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _stdout(argv, capsys):
    assert cli.main(argv) == 0
    return capsys.readouterr().out


def test_traced_runs_match_untraced(capsys, monkeypatch):
    untraced = [_stdout(argv, capsys) for argv in CALLS]
    original_main = cli.main
    # the grid the verify call scans, seen under the tracer's wrapper
    grids = []
    evolve = oracle.evolve
    monkeypatch.setattr(oracle, "evolve", lambda *a, **k: grids.append(
        k["steps"]) or evolve(*a, **k))
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        traced = [_stdout(argv, capsys) for argv in CALLS]
    finally:
        tracer.uninstall()
    assert cli.main is original_main
    assert traced == untraced
    metrics = tracer.metrics()
    assert metrics["models.dense_bytes"] > 0
    assert metrics["models.levels"] > 0
    # the exact calls classify, then report: both engine spans and the
    # occupied count read nonzero only while the CLI calls both
    assert metrics["engine.occupied"] > 0
    assert metrics["engine.cyclicality_s"] > 0
    assert metrics["engine.phase_s"] > 0
    # the scan runs inside oracle.evolve, and grid_steps counts the whole
    # grid, not the points the scan evaluates
    assert len(grids) == 1
    assert metrics["oracle.scan_s"] > 0
    assert metrics["oracle.grid_steps"] == grids[0]


def test_every_wrapped_builder_is_looked_up_at_call_time(capsys,
                                                        monkeypatch):
    called = set()

    def recording(name, builder):
        def wrapper(*args, **kwargs):
            called.add(name)
            return builder(*args, **kwargs)
        return wrapper

    for name in BUILDERS:
        monkeypatch.setattr(config, name,
                            recording(name, getattr(config, name)))
    for path in sorted(CONFIGS.glob("*.ini")):
        for command in ("analyze", "verify"):
            cli.main([command, "--config", str(path)])
    capsys.readouterr()
    assert called == set(BUILDERS)


def test_three_mirror_closed_form_as_the_benchmark_calls_it():
    from aaphase.models import ThreeMirrorParams, \
        three_mirror_gamma_closed_form

    alpha, beta, mu = 0.3 + 0.6j, -0.5j, 0.2 - 0.55j
    params = ThreeMirrorParams(rho_D=2, rho_S=3, kappa_D=Fraction(1, 10),
                               kappa_S=0, alpha=alpha, beta=beta, mu=mu)
    # an int kappa_S = 0 counts as exact, so the run takes the exact route
    assert params.exact_family
    # gamma = 2 pi [1 + p <H>/omega_m], the coherent-product bracket
    bracket = (abs(alpha) ** 2 * (2 + 2 * 0.1 * mu.real)
               + abs(beta) ** 2 * 3 + abs(mu) ** 2)
    want = 2 * math.pi * math.fmod(1 + 100 * bracket, 1.0)
    got = three_mirror_gamma_closed_form(params, 100)
    assert abs(got - want) < 1e-9
