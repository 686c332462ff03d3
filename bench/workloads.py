"""The benchmark's workloads: the CLI commands they run and the checks on their outputs.

Every command runs in-process through ``dysonct.cli.main`` on a cold start,
as a fresh CLI invocation would: the constant-term cache is cleared, the CLI
builds a fresh ``Resolver``, and each sweep writes to a fresh store path.
Outputs are compared with ``references.json``, recorded by ``record_refs.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
import tempfile
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import dysonct.cli as cli

from speed import Meter, Reading
from tracing import Tracer, clear_ct_cache, ct_misses

REFERENCES = Path(__file__).with_name("references.json")

Vector = Tuple[int, ...]


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


def permutation(seed: int, n: int) -> Tuple[int, ...]:
    """The coordinate permutation that ``seed`` picks for an n-vector."""
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return tuple(perm)


def permute(b: Sequence[int], perm: Sequence[int]) -> Vector:
    return tuple(b[i] for i in perm)


def vec_arg(b: Sequence[int]) -> str:
    return ",".join(str(x) for x in b)


def guess_key(n: int, b: Sequence[int]) -> str:
    return f"{n}:{vec_arg(b)}"


@dataclass
class Tally:
    """Operations attempted and failed; an operation is one fitted form, one
    sweep entry or one output check.  ``wall_s`` and ``ref_s`` add up the
    commands' wall times, as measured and rescaled to the reference speed."""

    wall_s: float = 0.0
    ref_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def add(self, reading: Reading) -> None:
        self.wall_s += reading.wall_s
        self.ref_s += reading.ref_s


class Session:
    """Runs CLI commands cold, in-process, with stdout captured.

    Store files go to a private directory under ``work_dir``, removed by
    ``close``.  With a tracer, each command is one span under the current run.
    ``ct_misses`` adds up the constant-term cache misses of every command, and
    ``meter`` times every command against the host's speed (see ``speed.py``).
    """

    def __init__(self, work_dir: Path, tracer: Optional[Tracer] = None):
        work_dir.mkdir(parents=True, exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="run-", dir=work_dir))
        self.tracer = tracer
        self._stores = 0
        self.ct_misses = 0
        self.meter = Meter()

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def fresh_store(self) -> Path:
        self._stores += 1
        return self.tmp / f"store-{self._stores}.json"

    def cli(self, argv: List[str]) -> Tuple[int, str, Reading]:
        """(exit code, stdout, times) of one CLI invocation; an uncaught
        exception reads as exit code -1 with its traceback as output."""
        clear_ct_cache()
        out = io.StringIO()
        span = self.tracer.span("cli.main") if self.tracer else contextlib.nullcontext()
        with self.meter.timing() as reading:
            try:
                with span, contextlib.redirect_stdout(out):
                    code = cli.main(argv)
            except Exception:
                code = -1
                out.write(traceback.format_exc())
        self.ct_misses += ct_misses()
        return code, out.getvalue(), reading


@dataclass
class Guess:
    """``guess -n N -b B [--no-ansatz]`` for each b, coordinates permuted by the seed.

    With ``no_ansatz``, the run also replays each b with the ansatz once and
    requires the same closed form, as acceptance criterion 6 in
    ``tests/test_acceptance.py`` does for b = (4, -2, -2).
    """

    n: int
    bs: Tuple[Vector, ...]
    no_ansatz: bool

    def inputs(self, seed: int) -> List[Vector]:
        perm = permutation(seed, self.n)
        return [permute(b, perm) for b in self.bs]

    def argv(self, b: Vector, no_ansatz: bool) -> List[str]:
        argv = ["guess", "-n", str(self.n), "-b", vec_arg(b)]
        return argv + ["--no-ansatz"] if no_ansatz else argv

    def iterate(self, session: Session, seed: int, refs: dict, first: bool) -> Tally:
        tally = Tally()
        for b in self.inputs(seed):
            argv = self.argv(b, self.no_ansatz)
            code, out, reading = session.cli(argv)
            tally.add(reading)
            cmd = " ".join(argv)
            if not tally.op(code == 0, f"{cmd}: exit {code}: {out.strip()[-300:]}"):
                continue
            expected = refs["guess"].get(guess_key(self.n, b))
            tally.op(out.strip() == expected, f"{cmd}: printed {out.strip()!r}, expected {expected!r}")
            if self.no_ansatz and first:
                code, replay, _ = session.cli(self.argv(b, False))
                tally.op(
                    code == 0 and replay == out,
                    f"{cmd}: the ansatz fit printed {replay.strip()!r}",
                )
        return tally


def store_summary(path: Path) -> Tuple[str, Dict[str, dict]]:
    """sha256 of the store file and each entry's certificate verdicts."""
    raw = path.read_bytes()
    verdicts = {}
    for entry in json.loads(raw)["entries"]:
        cert = entry["certificate"]
        verdicts[vec_arg(entry["b"])] = {
            key: cert[key]
            for key in (
                "recursion_ok",
                "boundary_ok",
                "initial_ok",
                "denominator_safe",
                "denominator_guarantee",
                "base_case",
            )
        }
    return hashlib.sha256(raw).hexdigest(), verdicts


def sweep_lines(out: str) -> List[Tuple[str, str]]:
    """(b, status word) for each entry line that ``turbo`` printed."""
    lines = []
    for line in out.splitlines():
        parts = line.split()
        if len(parts) >= 2 and parts[0].startswith("<"):
            lines.append((parts[0], parts[1]))
    return lines


@dataclass
class Sweep:
    """``turbo -n N -C C --store <fresh>``, then the same command on the saved
    store, which must add nothing and leave the file byte-identical.  The sweep
    covers the whole family, so the seed plays no part."""

    n: int
    complexity: int

    @property
    def key(self) -> str:
        return f"{self.n}:{self.complexity}"

    def argv(self, store: Path) -> List[str]:
        return ["turbo", "-n", str(self.n), "-C", str(self.complexity), "--store", str(store)]

    def iterate(self, session: Session, seed: int, refs: dict, first: bool) -> Tally:
        ref = refs["sweep"][self.key]
        tally = Tally()
        store = session.fresh_store()
        cmd = f"turbo -n {self.n} -C {self.complexity}"
        code, out, reading = session.cli(self.argv(store))
        tally.add(reading)
        lines = sweep_lines(out)
        for b, status in lines:
            tally.op(status in ("guessed", "permuted", "reduced", "base"), f"{cmd}: {b} {status}")
        tally.op(len(lines) == ref["entries"], f"{cmd}: {len(lines)} entries, expected {ref['entries']}")
        if not tally.op(code == 0 and store.exists(), f"{cmd}: exit {code}: {out.strip()[-300:]}"):
            return tally
        provenance = dict(Counter(status for _, status in lines))
        tally.op(provenance == ref["provenance"], f"{cmd}: provenance {provenance}")
        sha, verdicts = store_summary(store)
        tally.op(sha == ref["store_sha256"], f"{cmd}: store sha256 {sha}")
        tally.op(verdicts == ref["verdicts"], f"{cmd}: certificate verdicts differ")

        code, again, reading = session.cli(self.argv(store))
        tally.add(reading)
        lines = sweep_lines(again)
        for b, status in lines:
            tally.op(status == "cached", f"{cmd} (cached pass): {b} {status}")
        tally.op(
            code == 0 and len(lines) == ref["entries"] and "\n0 new entries" in "\n" + again,
            f"{cmd} (cached pass): exit {code}: {again.strip()[-300:]}",
        )
        tally.op(store_summary(store)[0] == sha, f"{cmd} (cached pass): store changed")
        return tally


FIT_N3 = ((2, -1, -1), (2, -2, 0))
GUESS_N5 = ((1, 1, -1, -1, 0),)
TINY = ((1, -1, 0),)

WORKLOADS = {
    "fit-n3": Guess(3, FIT_N3, no_ansatz=True),
    "guess-n5": Guess(5, GUESS_N5, no_ansatz=False),
    "sweep-n3": Sweep(3, 3),
}

# the same code paths at a size that runs in a fraction of a second
TINY_WORKLOADS = {
    "fit-n3": Guess(3, TINY, no_ansatz=True),
    "guess-n5": Guess(3, TINY, no_ansatz=False),
    "sweep-n3": Sweep(3, 1),
}
