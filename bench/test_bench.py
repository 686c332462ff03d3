"""The benchmark's own checks.

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py

They check that tracing and the speed meter leave the program and the
process as they found them, that every workload passes its output checks at
a tiny size, which exact counts of a traced run do not depend on the seed,
and that the metrics printed match the names in BENCHMARK.json.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEEDS = (0, 1)


def traced(load, seed, tmp_path, first=False):
    """Run one traced repetition; its Tally and per-layer metrics."""
    refs = workloads.load_references()
    tracer = tracing.Tracer()
    session = workloads.Session(tmp_path, tracer)
    tracer.run = "traced"
    try:
        with tracer.installed():
            tally = load.iterate(session, seed, refs, first=first)
    finally:
        session.close()
    return tally, tracing.layer_metrics(tracer.run_spans("traced"), session.ct_misses)


@pytest.mark.parametrize("name", sorted(workloads.TINY_WORKLOADS))
def test_tiny_workload_passes_checks_and_tracing_restores_attributes(name, tmp_path):
    originals = tracing.patched_attributes()
    tally, metrics = traced(workloads.TINY_WORKLOADS[name], 3, tmp_path, first=True)
    assert tally.failed == 0, tally.problems
    assert tally.attempted > 0
    for (owner, attr, raw), (_, _, now) in zip(originals, tracing.patched_attributes()):
        assert now is raw, f"{owner.__name__}.{attr} was not restored"
    assert not list(tmp_path.iterdir()), "the session left files behind"
    if name == "sweep-n3":
        assert metrics["turbo.entries.new"] + metrics["turbo.entries.cached"] == 14
        assert metrics["prover.check_recursion.calls"] > 0
    else:
        assert metrics["laurent.ct.calls"] > 0
        assert metrics["prover.prove.calls"] == 0


def test_meter_restores_the_alarm_and_rescales_by_the_mean_loop():
    before = signal.getsignal(signal.SIGALRM)
    meter = speed.Meter()
    with meter.timing() as reading:
        deadline = speed.time.perf_counter() + 3.5 * speed.INTERVAL_S
        while speed.time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(meter.loops) >= 3
    assert 0 < reading.wall_s < 3.5 * speed.INTERVAL_S
    assert reading.ref_s == pytest.approx(speed.rescale(reading.wall_s, meter.loops))


def test_wrong_output_counts_as_failure(tmp_path):
    refs = workloads.load_references()
    load = workloads.TINY_WORKLOADS["guess-n5"]
    (b,) = load.inputs(0)
    refs["guess"][workloads.guess_key(load.n, b)] = "something else"
    session = workloads.Session(tmp_path)
    try:
        tally = load.iterate(session, 0, refs, first=True)
    finally:
        session.close()
    assert tally.failed == 1 and tally.attempted == 2


def test_self_time_subtracts_children():
    spans = [
        tracing.Span(0, "r", "outer", None, 0.0, 10.0),
        tracing.Span(1, "r", "inner", 0, 1.0, 3.0),
        tracing.Span(2, "r", "inner", 0, 5.0, 6.0),
        tracing.Span(3, "r", "leaf", 1, 1.5, 2.0),
    ]
    assert tracing.self_seconds(spans) == {0: 7.0, 1: 1.5, 2: 1.0, 3: 0.5}


@pytest.fixture(scope="module")
def seed_metrics(tmp_path_factory):
    """Per-layer metrics of one traced repetition for each seed in SEEDS."""
    out = {}
    for name in ("fit-n3", "guess-n5"):
        load = workloads.WORKLOADS[name]
        assert load.inputs(SEEDS[0]) != load.inputs(SEEDS[1])
        for seed in SEEDS:
            tally, metrics = traced(load, seed, tmp_path_factory.mktemp(name))
            assert tally.failed == 0, tally.problems
            out[name, seed] = metrics
    return out


@pytest.mark.parametrize("name", ["fit-n3", "guess-n5"])
@pytest.mark.parametrize("count", ["laurent.ct.calls", "conjecture.guess_dyson.samples"])
def test_oracle_counts_do_not_depend_on_seed(seed_metrics, name, count):
    assert seed_metrics[name, SEEDS[0]][count] == seed_metrics[name, SEEDS[1]][count]


# Measured: the fitter's sample grid does not follow a permutation of b.  For
# seed 1 (b = -1,-1,0,1,1) guess_rat meets an AmbiguousFit at t = 1 that seed 0
# (b = -1,1,1,0,-1) does not, so it makes 7 guess_rat and 12 solve_nullspace
# calls against 6 and 11.  The closed form and the 245 constant terms agree.
SEED_DEPENDENT = pytest.mark.xfail(
    strict=True, reason="fit attempts on guess-n5 depend on the coordinate order"
)


@pytest.mark.parametrize("name", ["fit-n3", pytest.param("guess-n5", marks=SEED_DEPENDENT)])
@pytest.mark.parametrize("count", ["conjecture.guess_rat.calls", "linalg.solve_nullspace.calls"])
def test_fit_counts_do_not_depend_on_seed(seed_metrics, name, count):
    assert seed_metrics[name, SEEDS[0]][count] == seed_metrics[name, SEEDS[1]][count]


def test_printed_metrics_match_benchmark_json(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "sweep-n3",
             "--seed", "1", "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
        )
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in spec[key]}
