"""Outside-in tracing of dysonct's layers.

The benchmark never edits the program.  Instead it replaces the public
functions of each module, at the names their callers look up, with wrappers
that record one span per call: name, start, end, parent span and run id,
plus a few attributes read off the arguments and the result (or the name of
the exception the call raised).  Spans stay in memory until the run ends.
``Tracer.installed()`` restores every patched attribute on exit, so untraced
runs measure the bare program.
"""

from __future__ import annotations

import contextlib
import os
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import dysonct.cli as cli
import dysonct.conjecture as conjecture
import dysonct.laurent as laurent
import dysonct.prover as prover
import dysonct.turbo as turbo
from dysonct.store import ResultStore

# solve_nullspace sends systems with more columns than this through the
# mod-p / CRT / reconstruction path, and the rest through Fraction elimination
WIDE_COLUMNS = 48

Attrs = Callable[[tuple, dict, Any], Dict[str, Any]]


@dataclass
class Span:
    id: int
    run: str
    name: str
    parent: Optional[int]
    start: float
    end: float = 0.0
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "run": self.run,
            "name": self.name,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
        }


def _nullspace_attrs(args, kwargs, result):
    rows = args[0]
    cols = len(rows[0]) if rows else 0
    return {"cols": cols, "wide": cols > WIDE_COLUMNS, "nonempty": bool(result)}


def _guess_attrs(args, kwargs, result):
    _, details = result
    return {"t": details.t, "samples": details.samples_used}


def _turbo_attrs(args, kwargs, result):
    attrs: Dict[str, Any] = {"guess_calls": kwargs["resolver"].guess_calls}
    for line in result.lines:
        key = f"status.{line.status}"
        attrs[key] = attrs.get(key, 0) + 1
        if line.status == "new":
            key = f"provenance.{line.provenance}"
            attrs[key] = attrs.get(key, 0) + 1
    return attrs


# (owner, attribute, span name, attribute reader); each owner is the module or
# class whose attribute the caller looks up at call time
PATCHES: Tuple[Tuple[Any, str, str, Optional[Attrs]], ...] = (
    (conjecture, "ct", "laurent.ct", None),
    (prover, "pk_expansion", "laurent.pk_expansion", None),
    (conjecture, "solve_nullspace", "linalg.solve_nullspace", _nullspace_attrs),
    (conjecture, "guess_rat", "conjecture.guess_rat",
     lambda a, k, r: {"rows": len(a[0].points), "hit": r is not None}),
    (conjecture, "guess_dyson_with_details", "conjecture.guess_dyson", _guess_attrs),
    (cli, "prove", "prover.prove", None),
    (turbo, "prove", "prover.prove", None),
    (prover, "prove", "prover.prove", None),
    (prover, "check_recursion", "prover.check_recursion", None),
    (prover, "check_boundary", "prover.check_boundary", None),
    (prover, "check_denominator_safety", "prover.check_denominator_safety",
     lambda a, k, r: {"grid": r.guarantee != "syntactic"}),
    (prover, "check_initial", "prover.check_initial", None),
    (cli, "turbo_dyson", "turbo.turbo_dyson", _turbo_attrs),
    (turbo, "derive_by_reduction", "turbo.derive_by_reduction",
     lambda a, k, r: {"hit": r is not None}),
    (ResultStore, "save", "store.save", lambda a, k, r: {"bytes": os.path.getsize(a[1])}),
    (ResultStore, "load", "store.load", None),
)


def patched_attributes() -> List[Tuple[Any, str, Any]]:
    """(owner, attribute, raw value) for every patch point, as found now."""
    return [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in PATCHES]


class Tracer:
    """Collects spans from wrapped calls, grouped into runs."""

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self.run = ""

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), self.run, name, parent, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn: Callable, name: str, attrs: Optional[Attrs]) -> Callable:
        def wrapper(*args, **kwargs):
            try:
                with self.span(name) as span:
                    result = fn(*args, **kwargs)
            except Exception as exc:
                span.attrs["raised"] = type(exc).__name__
                raise
            if attrs is not None:
                span.attrs.update(attrs(args, kwargs, result))
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch every layer boundary for the duration of the block."""
        originals = patched_attributes()
        try:
            for (owner, attr, name, attrs), (_, _, raw) in zip(PATCHES, originals):
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self._wrap(raw.__func__, name, attrs)))
                else:
                    setattr(owner, attr, self._wrap(raw, name, attrs))
            yield self
        finally:
            for owner, attr, raw in originals:
                setattr(owner, attr, raw)

    def run_spans(self, run: str) -> List[Span]:
        return [s for s in self.spans if s.run == run]


def self_seconds(spans: List[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: Dict[int, List[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children[s.id], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.seconds - covered
    return out


def layer_metrics(spans: List[Span], ct_misses: int) -> Dict[str, float]:
    """Per-layer counts and times of one traced run, named module.function.metric."""
    by_name: Dict[str, List[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    own = self_seconds(spans)

    def calls(name):
        return len(by_name[name])

    def secs(name, pick=lambda s: True):
        return sum(s.seconds for s in by_name[name] if pick(s))

    def self_s(name):
        return sum(own[s.id] for s in by_name[name])

    def total(name, attr):
        return sum(s.attrs.get(attr, 0) for s in by_name[name])

    null = "linalg.solve_nullspace"
    wide = [s for s in by_name[null] if s.attrs["wide"]]
    guess_rat = "conjecture.guess_rat"
    dyson = "conjecture.guess_dyson"
    recursion = "prover.check_recursion"
    boundary = "prover.check_boundary"
    safety = "prover.check_denominator_safety"
    initial = "prover.check_initial"
    sweep = "turbo.turbo_dyson"
    reduction = "turbo.derive_by_reduction"
    m: Dict[str, float] = {
        "laurent.ct.calls": calls("laurent.ct"),
        "laurent.ct.misses": ct_misses,
        "laurent.ct.s": secs("laurent.ct"),
        "laurent.pk_expansion.calls": calls("laurent.pk_expansion"),
        "laurent.pk_expansion.s": secs("laurent.pk_expansion"),
        f"{null}.calls": calls(null),
        f"{null}.s": secs(null),
        f"{null}.wide.calls": len(wide),
        f"{null}.wide.s": sum(s.seconds for s in wide),
        f"{null}.narrow.s": secs(null, lambda s: not s.attrs["wide"]),
        f"{null}.cols_max": max((s.attrs["cols"] for s in by_name[null]), default=0),
        f"{null}.nonempty": total(null, "nonempty") / max(calls(null), 1),
        f"{dyson}.calls": calls(dyson),
        f"{dyson}.s": secs(dyson),
        f"{dyson}.self_s": self_s(dyson),
        f"{dyson}.samples": total(dyson, "samples"),
        f"{dyson}.t_max": max((s.attrs["t"] for s in by_name[dyson]), default=0),
        f"{guess_rat}.calls": calls(guess_rat),
        f"{guess_rat}.hits": total(guess_rat, "hit"),
        f"{guess_rat}.rows": total(guess_rat, "rows"),
        f"{guess_rat}.ambiguous": sum(
            s.attrs.get("raised") == "AmbiguousFit" for s in by_name[guess_rat]
        ),
        "prover.prove.calls": calls("prover.prove"),
        "prover.prove.self_s": self_s("prover.prove"),
        f"{recursion}.calls": calls(recursion),
        f"{recursion}.s": secs(recursion),
        f"{boundary}.calls": calls(boundary),
        f"{boundary}.s": secs(boundary),
        f"{safety}.calls": calls(safety),
        f"{safety}.s": secs(safety),
        "prover.denominator.grid": total(safety, "grid"),
        f"{initial}.calls": calls(initial),
        f"{initial}.s": secs(initial),
        "prover.resolver.guess_calls": total(sweep, "guess_calls"),
        f"{sweep}.s": secs(sweep),
        f"{sweep}.self_s": self_s(sweep),
        "turbo.entries.new": total(sweep, "status.new"),
        "turbo.entries.cached": total(sweep, "status.cached"),
        "turbo.entries.failed": total(sweep, "status.failed"),
        "turbo.provenance.guessed": total(sweep, "provenance.guessed"),
        "turbo.provenance.permuted": total(sweep, "provenance.permuted"),
        "turbo.provenance.reduced": total(sweep, "provenance.reduced"),
        f"{reduction}.calls": calls(reduction),
        f"{reduction}.hits": total(reduction, "hit"),
        "store.save.calls": calls("store.save"),
        "store.save.s": secs("store.save"),
        "store.load.calls": calls("store.load"),
        "store.load.s": secs("store.load"),
        "store.bytes": total("store.save", "bytes"),
    }
    return {k: float(v) for k, v in m.items()}


def clear_ct_cache() -> None:
    laurent._ct_cached.cache_clear()


def ct_misses() -> int:
    return laurent._ct_cached.cache_info().misses
