"""dysonct benchmark: one workload, timed cold in a single-threaded process.

Run from the root of a checkout of the repository:

    python3 bench/run.py --workload fit-n3 --seed 1 --seconds 35 --trace 0

It repeats the workload (see ``workloads.py``) for about ``--seconds``,
checks every output against ``references.json``, and prints as its last
line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The line before it records the run: seed, commit, versions,
CPU count, load average and every sample.

Run times are rescaled to a reference speed of the host (see ``speed.py``);
the record keeps them as measured too.  ``--trace 0`` reports the end-to-end
metrics: ``wall_ref_s`` (median over the repetitions), ``setup_s`` (median
import time of ``dysonct`` in at least seven fresh interpreters) and
``peak_rss_mib``.  ``--trace 1`` first repeats the workload untraced for half
the time, then traced, and reports the per-layer metrics of
``tracing.layer_metrics`` (medians over the traced repetitions), the measured
``wall_s``, the host's speed, the tracing overhead and the failure rate; the
spans go to ``.bench_out/trace-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"

SETUP_REPEATS = 7
SETUP_CODE = (
    "import time; t = time.perf_counter(); import dysonct; "
    "print(time.perf_counter() - t)"
)

# units of the per-layer metrics by the last part of their name; the rest are counts
UNITS = {
    "s": "s",
    "self_s": "s",
    "wall_s": "s",
    "wall_ref_s": "s",
    "overhead_s": "s",
    "loop_ms": "ms",
    "share": "ratio",
    "nonempty": "ratio",
    "fail_rate": "ratio",
    "bytes": "bytes",
}

# per-layer time shares of the traced wall time: the layer each workload stresses
SHARES = {
    "laurent.ct.share": "laurent.ct.s",
    "linalg.solve_nullspace.share": "linalg.solve_nullspace.s",
    "linalg.solve_nullspace.wide.share": "linalg.solve_nullspace.wide.s",
    "prover.check_recursion.share": "prover.check_recursion.s",
}


def commit() -> str:
    """HEAD of the checkout's own .git, if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy

    return {
        "commit": commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def setup_sample() -> float:
    """Seconds to import dysonct in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(proc.stdout)


def quartiles(values) -> list:
    return statistics.quantiles(values, n=4) if len(values) > 1 else list(values) * 3


def repeat(workload, session, seed, refs, budget, tallies, on_start=None):
    """Run the workload at least once, and again while the next repetition,
    if it takes as long as the last, would end no more than half of it past
    ``budget`` seconds; appends one Tally per repetition."""
    started = time.perf_counter()
    while True:
        if on_start:
            on_start(len(tallies))
        t0 = time.perf_counter()
        tallies.append(workload.iterate(session, seed, refs, first=not tallies))
        now = time.perf_counter()
        if now - started + (now - t0) / 2 > budget:
            return


def timed_run(workload, args, refs, record, tallies) -> dict:
    """The end-to-end metrics of an untraced run."""
    # set-up samples are spread over the run, one before each repetition and
    # the rest after, so that one slow spell of the machine does not decide them
    setup: list = []
    session = workloads.Session(WORK)
    try:
        repeat(workload, session, args.seed, refs, args.seconds, tallies,
               lambda i: setup.append(setup_sample()))
    finally:
        session.close()
    while len(setup) < SETUP_REPEATS:
        setup.append(setup_sample())
    refs_s = [t.ref_s for t in tallies]
    record["wall_s"] = [t.wall_s for t in tallies]
    record["wall_ref_s"] = refs_s
    record["wall_ref_s_quartiles"] = quartiles(refs_s)
    record["setup_s"] = setup
    record["loop_ms_quartiles"] = [1e3 * x for x in quartiles(session.meter.loops)]
    return {
        "wall_ref_s": {"value": statistics.median(refs_s), "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mib": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MiB",
        },
    }


def traced_run(workload, args, refs, record, tallies) -> dict:
    """The per-layer metrics: half the time untraced, then half traced."""
    tracer = tracing.Tracer()
    session = workloads.Session(WORK, tracer)
    runs, misses = [], []

    def start_run(i):
        tracer.run = f"{args.workload}/seed{args.seed}/{i}"
        runs.append(tracer.run)
        misses.append(session.ct_misses)

    try:
        repeat(workload, session, args.seed, refs, args.seconds / 2, tallies)
        untraced = tallies[:]
        with tracer.installed():
            repeat(workload, session, args.seed, refs, args.seconds / 2, tallies, start_run)
        misses.append(session.ct_misses)
    finally:
        session.close()
    per_run = []
    for i, (run, tally) in enumerate(zip(runs, tallies[len(untraced):])):
        m = tracing.layer_metrics(tracer.run_spans(run), misses[i + 1] - misses[i])
        for share, part in SHARES.items():
            m[share] = m[part] / tally.wall_s
        m["trace.wall_ref_s"] = tally.ref_s
        per_run.append(m)
    values = {name: statistics.median(m[name] for m in per_run) for name in per_run[0]}
    values["trace.overhead_s"] = values["trace.wall_ref_s"] - statistics.median(
        t.ref_s for t in untraced
    )
    values["wall_s"] = statistics.median(t.wall_s for t in untraced)
    values["host.loop_ms"] = 1e3 * statistics.median(session.meter.loops)
    attempted = sum(t.attempted for t in tallies)
    values["fail_rate"] = sum(t.failed for t in tallies) / attempted

    record["untraced_wall_s"] = [t.wall_s for t in untraced]
    record["untraced_wall_ref_s"] = [t.ref_s for t in untraced]
    record["traced_wall_ref_s"] = [m["trace.wall_ref_s"] for m in per_run]
    WORK.mkdir(exist_ok=True)
    spans_path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
    spans_path.write_text(json.dumps({"run": record, "spans": [s.to_json() for s in tracer.spans]}))
    record["spans"] = str(spans_path.relative_to(ROOT))
    return {
        name: {"value": value, "unit": UNITS.get(name.rsplit(".", 1)[-1], "count")}
        for name, value in values.items()
    }


def main(argv=None) -> int:
    global tracing, workloads
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dysonct" / "cli.py").is_file():
        print(f"bench: no dysonct sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dysonct

    if Path(dysonct.__file__).resolve().parent != SRC / "dysonct":
        print(f"bench: imported dysonct from {dysonct.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    refs = workloads.load_references()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    record.update(environment())
    if isinstance(workload, workloads.Guess):
        record["inputs"] = [list(b) for b in workload.inputs(args.seed)]

    tallies: list = []
    run = traced_run if args.trace else timed_run
    metrics = run(workload, args, refs, record, tallies)
    record["samples"] = len(tallies)
    record["problems"] = [p for t in tallies for p in t.problems][:20]
    failed = sum(t.failed for t in tallies)
    print(json.dumps({"run": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(t.attempted for t in tallies),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
