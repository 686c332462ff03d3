"""Complexity-ordered sweep deriving closed forms for whole families of b.

Zero-sum b-vectors are processed in increasing complexity (half the 1-norm),
one permutation class at a time, its sorted-descending representative
first.  The sweep starts from every form in the store.  An arrangement whose
class has a stored member is obtained by relabeling the a-variables of the
lexicographically largest such member; otherwise the index-raising identity
(``derive_by_reduction``) is tried on the stored forms, and failing that the
form is conjectured.  Every entry, however obtained, is certified by
``prove`` and enters the store through ``ResultStore.record``.  Within one
sweep the first member of each permutation class to be proved runs the
checks; a later arrangement whose form is the relabeling of that member's is
certified by relabeling its certificate (see ``prove``), and any other runs
the checks too.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement, permutations
from typing import Callable, List, Optional, Sequence, Tuple

from .conjecture import ClosedForm, GuessError
from .poly import Poly, linear_factors
from .prover import (
    ProofError,
    Resolver,
    c2_closed_form,
    matching_permutation,
    permute_form,
    prove,
)
from .ratfunc import RatFunc
from .store import ResultStore


def complexity(b: Sequence[int]) -> Fraction:
    """Half the 1-norm of b; an integer whenever the components sum to zero
    (then it equals the sum of the positive components)."""
    return Fraction(sum(abs(x) for x in b), 2)


def zero_sum_vectors(n: int, max_complexity: int) -> List[Tuple[int, ...]]:
    """All zero-sum b with complexity <= max_complexity, in sweep order:
    by complexity, then by descending permutation-class representative,
    each class in descending order.  The representative, b sorted
    descending, is its class's lexicographic maximum, so it comes first."""
    reps = [
        rep[::-1]
        for rep in combinations_with_replacement(range(-max_complexity, max_complexity + 1), n)
        if sum(rep) == 0 and sum(map(abs, rep)) <= 2 * max_complexity
    ]
    reps.sort(key=lambda rep: (complexity(rep), tuple(-x for x in rep)))
    return [vec for rep in reps for vec in sorted(set(permutations(rep)), reverse=True)]


Lookup = Callable[[Tuple[int, ...]], Optional[ClosedForm]]


def derive_by_reduction(n: int, target_b: Sequence[int], lookup: Lookup) -> Optional[ClosedForm]:
    """Solve the index-raising identity at the base b for its S = {1..n-1}
    term, ``target_b``:

        c_n(a + e_n; b) = sum_{S subset of {1..n-1}} (-1)^{|S|}
                              c_n(a; b - sum_{i in S} e_i + |S| e_n),

    with b = target + (1, ..., 1, -(n-1)).  ``lookup`` is asked once for
    each proper subset's vector with S in binary order, the base (S = {})
    first, and the derivation stops at the first miss (no speculative
    recursion).  A form whose denominator does not split into linear
    factors ends it too.  The base form and its split serve both the left
    side and the S = {} term; the a-shift on the left side is absorbed by
    shifting the base form's last variable, so the result is expressed at
    the common argument a.  It is the sum of the terms over the lcm of
    their linear factors, reduced by ``RatFunc.sum_over``.
    """
    target_b = tuple(target_b)
    base = tuple(x + 1 for x in target_b[:-1]) + (target_b[-1] - (n - 1),)
    one = Poly.const(n, 1)
    a = [Poly.variable(n, i) for i in range(n)]
    looked_up = []
    for mask in range(2 ** (n - 1) - 1):
        members = [i for i in range(n - 1) if mask >> i & 1]
        vec = list(base)
        for i in members:
            vec[i] -= 1
        vec[-1] += len(members)
        form = lookup(tuple(vec))
        if form is None:
            return None
        looked_up.append((form.R, len(members)))
    # every term is moved to the left side, each S's with the sign
    # -(-1)^{|S|}, and the target's term carries the sign (-1)^(n-1)
    terms = []
    for R, size in looked_up:
        split = linear_factors(R.den)
        if split is None:
            return None
        forms, c = split
        factors = [f.to_poly() for f in forms]
        c = c if n % 2 else -c
        if size == 0:
            # the left side, with multinomial(a + e_n) / multinomial(a)
            # = (1 + |a|) / (1 + a_n)
            left = [f.shift_var(n - 1, 1) for f in factors] + [one + a[-1]]
            terms.append((R.num.shift_var(n - 1, 1) * sum(a, one), left, c))
        terms.append((R.num if size % 2 else -R.num, factors, c))
    return ClosedForm(n=n, b=target_b, R=RatFunc.sum_over(terms))


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
    store.seed(resolver)

    result = SweepResult(store=store)
    for b in zero_sum_vectors(n, max_complexity):
        if (n, b) in store:
            result.lines.append(
                SweepLine(b=b, status="cached", provenance="cached", source_b=None, elapsed=0.0)
            )
            continue
        started = time.perf_counter()
        try:
            form, kind, source = _obtain_form(n, b, store, resolver)
            resolver.add_form(form)
            provenance = {"kind": kind}
            if source is not None:
                provenance["source_b"] = list(source)
            store.record(prove(n, b, resolver), provenance)
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
        source = max(same_class)
        perm = matching_permutation(source, b)
        return permute_form(store.get(n, source).form, perm), "permuted", source
    asked: List[Tuple[int, ...]] = []

    def lookup(vec: Tuple[int, ...]) -> Optional[ClosedForm]:
        asked.append(vec)
        entry = store.get(n, vec)
        return entry.form if entry else None

    derived = derive_by_reduction(n, b, lookup)
    if derived is not None:
        return derived, "reduced", asked[0]  # the base, which is asked for first
    return resolver.form(n, b), "guessed", None
