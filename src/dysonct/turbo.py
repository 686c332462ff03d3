"""Complexity-ordered sweep deriving closed forms for whole families of b.

Zero-sum b-vectors are processed in increasing complexity (half the 1-norm).
Each permutation class is handled through its sorted-descending
representative: the representative is conjectured and proved, every other
arrangement is then obtained by relabeling the a-variables, and where the
index-raising identity

    c_n(a + e_n; b) = sum_{S subset of {1..n-1}} (-1)^{|S|}
                          c_n(a; b - sum_{i in S} e_i + |S| e_n)

can be solved for an unknown vector using only stored forms, that is
preferred to a fresh fit.  Every entry, however obtained, is certified by
``prove`` before it is stored.  Within one sweep the first member of each
permutation class to be proved runs the checks; a later arrangement whose
form and boundary dependency forms are the relabelings of that member's is
certified by relabeling its certificate (see ``prove``), and any other runs
the checks too.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .conjecture import ClosedForm, GuessError
from .poly import Poly
from .prover import (
    ProofError,
    Resolver,
    c2_closed_form,
    matching_permutation,
    permute_form,
    prove,
)
from .ratfunc import RatFunc
from .store import ResultStore, StoreEntry


def complexity(b: Sequence[int]) -> Fraction:
    """Half the 1-norm of b; an integer whenever the components sum to zero
    (then it equals the sum of the positive components)."""
    return Fraction(sum(abs(x) for x in b), 2)


def zero_sum_vectors(n: int, max_complexity: int) -> List[Tuple[int, ...]]:
    """All zero-sum b with complexity <= max_complexity, in sweep order:
    by complexity, then by descending permutation-class representative,
    with the representative first inside each class."""
    by_class: Dict[Tuple[int, ...], List[Tuple[int, ...]]] = {}

    def fill(prefix: List[int], remaining_abs: int, remaining_sum: int, slots: int):
        if slots == 0:
            if remaining_sum == 0 and remaining_abs % 2 == 0:
                vec = tuple(prefix)
                rep = tuple(sorted(vec, reverse=True))
                by_class.setdefault(rep, []).append(vec)
            return
        # |value| cannot exceed the 1-norm budget, and the sum still owed
        # must stay reachable within what remains of it
        for value in range(-remaining_abs, remaining_abs + 1):
            if abs(remaining_sum - value) > remaining_abs - abs(value):
                continue
            fill(prefix + [value], remaining_abs - abs(value), remaining_sum - value, slots - 1)

    fill([], 2 * max_complexity, 0, n)
    ordered: List[Tuple[int, ...]] = []
    reps = sorted(by_class, key=lambda rep: (complexity(rep), tuple(-x for x in rep)))
    for rep in reps:
        members = sorted(set(by_class[rep]), reverse=True)
        members.remove(rep)
        ordered.append(rep)
        ordered.extend(members)
    return ordered


@dataclass(frozen=True)
class ReductionTerm:
    sign: int
    b_shift: Tuple[int, ...]


@dataclass(frozen=True)
class ReductionRelation:
    """The index-raising identity instantiated at a base vector b.

    Left side: c_n(a + e_n; b).  Right side: the signed terms below,
    enumerated over subsets S of {1..n-1} in binary order; the last term
    (S full) has the unique highest-complexity shift and is what the sweep
    solves for.
    """

    n: int
    b: Tuple[int, ...]
    terms: Tuple[ReductionTerm, ...]

    def resolved_targets(self) -> List[Tuple[int, Tuple[int, ...]]]:
        """(sign, absolute b-vector) per right-side term."""
        return [
            (t.sign, tuple(x + y for x, y in zip(self.b, t.b_shift)))
            for t in self.terms
        ]


def reduction_relation(n: int, b: Sequence[int]) -> ReductionRelation:
    if n < 2:
        raise ValueError("reduction relation needs n >= 2")
    b = tuple(b)
    terms = []
    for mask in range(2 ** (n - 1)):
        members = [i for i in range(n - 1) if mask >> i & 1]
        shift = [0] * n
        for i in members:
            shift[i] -= 1
        shift[n - 1] += len(members)
        sign = -1 if len(members) % 2 else 1
        terms.append(ReductionTerm(sign=sign, b_shift=tuple(shift)))
    return ReductionRelation(n=n, b=b, terms=tuple(terms))


Lookup = Callable[[Tuple[int, ...]], Optional[ClosedForm]]


def _reduction_base(n: int, target_b: Tuple[int, ...]) -> Tuple[int, ...]:
    """The base vector derive_by_reduction solves from for target_b."""
    return tuple(x + 1 for x in target_b[: n - 1]) + (target_b[n - 1] - (n - 1),)


def derive_by_reduction(n: int, target_b: Sequence[int], lookup: Lookup) -> Optional[ClosedForm]:
    """Solve the index-raising identity for ``target_b``.

    The base vector is b = target + (1, ..., 1, -(n-1)); the derivation
    succeeds only when the base form and every proper-subset form are
    available from ``lookup`` (no speculative recursion).  The a-shift on
    the left side is absorbed by shifting the base form's last variable, so
    the result is expressed at the common argument a.
    """
    target_b = tuple(target_b)
    base = _reduction_base(n, target_b)
    *proper_terms, (full_sign, full_b) = reduction_relation(n, base).resolved_targets()
    assert full_b == target_b
    base_form = lookup(base)
    if base_form is None:
        return None
    proper: List[Tuple[int, RatFunc]] = []
    for sign, vec in proper_terms:
        f = lookup(vec)
        if f is None:
            return None
        proper.append((sign, f.R))

    nv = n
    one = Poly.const(nv, 1)
    s = Poly.zero(nv)
    for i in range(nv):
        s = s + Poly.variable(nv, i)
    ratio = RatFunc.make(one + s, one + Poly.variable(nv, nv - 1))
    acc = base_form.R.shift_var(nv - 1, 1) * ratio
    for sign, rf in proper:
        acc = acc - (rf * sign)
    if full_sign < 0:
        acc = -acc
    return ClosedForm(n=n, b=target_b, R=acc)


@dataclass
class SweepLine:
    b: Tuple[int, ...]
    status: str  # "new", "cached", "failed"
    provenance: str
    source_b: Optional[Tuple[int, ...]]
    elapsed: float
    error: str = ""


@dataclass
class SweepResult:
    store: ResultStore
    lines: List[SweepLine] = field(default_factory=list)

    @property
    def added(self) -> int:
        return sum(1 for l in self.lines if l.status == "new")

    @property
    def failures(self) -> List[SweepLine]:
        return [l for l in self.lines if l.status == "failed"]


def turbo_dyson(
    n: int,
    max_complexity: int,
    store: Optional[ResultStore] = None,
    resolver: Optional[Resolver] = None,
) -> SweepResult:
    """Fill the store with certified closed forms for every zero-sum b of
    complexity <= max_complexity, preferring permutation, then reduction,
    then a fresh conjecture; per-entry failures are reported, not fatal."""
    if n < 2:
        raise ValueError("turbo sweep needs n >= 2")
    if max_complexity < 0:
        raise ValueError("complexity bound must be nonnegative")
    store = store if store is not None else ResultStore()
    resolver = resolver or Resolver()
    for entry in store:
        resolver.add_form(entry.form)

    def lookup(bv: Tuple[int, ...]) -> Optional[ClosedForm]:
        entry = store.get(n, bv)
        return entry.form if entry else None

    result = SweepResult(store=store)
    for b in zero_sum_vectors(n, max_complexity):
        if (n, b) in store:
            result.lines.append(
                SweepLine(b=b, status="cached", provenance="cached", source_b=None, elapsed=0.0)
            )
            continue
        started = time.perf_counter()
        try:
            form, kind, source = _obtain_form(n, b, store, lookup, resolver)
            resolver.add_form(form)
            cert = prove(n, b, resolver)
            provenance = {"kind": kind}
            if source is not None:
                provenance["source_b"] = list(source)
            store.add(
                StoreEntry(
                    n=n,
                    b=b,
                    form=form,
                    provenance=provenance,
                    certificate=cert.to_json(),
                )
            )
            result.lines.append(
                SweepLine(
                    b=b,
                    status="new",
                    provenance=kind,
                    source_b=source,
                    elapsed=time.perf_counter() - started,
                )
            )
        except (ProofError, GuessError) as exc:
            result.lines.append(
                SweepLine(
                    b=b,
                    status="failed",
                    provenance="",
                    source_b=None,
                    elapsed=time.perf_counter() - started,
                    error=str(exc),
                )
            )
    return result


def _obtain_form(
    n: int,
    b: Tuple[int, ...],
    store: ResultStore,
    lookup: Lookup,
    resolver: Resolver,
) -> Tuple[ClosedForm, str, Optional[Tuple[int, ...]]]:
    if n == 2:
        return c2_closed_form(b), "base", None
    rep = tuple(sorted(b, reverse=True))
    same_class = [
        key[1]
        for key in store.entries
        if key[0] == n and tuple(sorted(key[1], reverse=True)) == rep
    ]
    if same_class:
        source = rep if rep in same_class else max(same_class)
        perm = matching_permutation(source, b)
        return permute_form(store.get(n, source).form, perm), "permuted", source
    derived = derive_by_reduction(n, b, lookup)
    if derived is not None:
        return derived, "reduced", _reduction_base(n, b)
    return resolver.form(n, b), "guessed", None
