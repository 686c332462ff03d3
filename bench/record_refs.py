"""Record the reference outputs that the benchmark's output checks compare with.

Run from the repository root, at the commit whose outputs are the reference:

    python3 bench/record_refs.py

It runs every arrangement of every b that a seed can pick (through the same
in-process CLI path as the benchmark), and each sweep, and rewrites
``bench/references.json``.  Each command's time goes to stderr.  A fresh
recording must leave the file unchanged unless the program's outputs changed.
"""

from __future__ import annotations

import itertools
import json
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from workloads import Guess, Session, Sweep, store_summary, sweep_lines, guess_key  # noqa: E402


def main() -> int:
    session = Session(ROOT / ".bench_out")
    refs: dict = {"guess": {}, "sweep": {}}
    try:
        for table in (workloads.WORKLOADS, workloads.TINY_WORKLOADS):
            for name, load in table.items():
                if isinstance(load, Guess):
                    for b in sorted({p for b in load.bs for p in itertools.permutations(b)}):
                        code, out, reading = session.cli(load.argv(b, load.no_ansatz))
                        if code != 0:
                            raise SystemExit(f"{name} {b}: exit {code}\n{out}")
                        refs["guess"][guess_key(load.n, b)] = out.strip()
                        print(f"{name} {b}: {reading.wall_s:.2f}s", file=sys.stderr)
                elif isinstance(load, Sweep):
                    store = session.fresh_store()
                    code, out, reading = session.cli(load.argv(store))
                    if code != 0:
                        raise SystemExit(f"{name}: exit {code}\n{out}")
                    lines = sweep_lines(out)
                    sha, verdicts = store_summary(store)
                    refs["sweep"][load.key] = {
                        "entries": len(lines),
                        "provenance": dict(Counter(status for _, status in lines)),
                        "store_sha256": sha,
                        "verdicts": verdicts,
                    }
                    print(f"{name} ({load.key}): {reading.wall_s:.2f}s", file=sys.stderr)
    finally:
        session.close()
    refs["guess"] = dict(sorted(refs["guess"].items()))
    workloads.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
