"""Exact expansion of Dyson-style Laurent products and coefficient extraction.

The product F_n(x; a; b) = prod_h x_h^{-b_h} prod_{i != j} (1 - x_i/x_j)^{a_j}
is expanded one variable at a time.  The two factors of each unordered pair
{i, j} are grouped into one binomial power,

    (1 - x_i/x_j)^{a_j} (1 - x_j/x_i)^{a_i}
        = (-1)^{a_j} (x_i - x_j)^{a_i + a_j} x_i^{-a_i} x_j^{-a_j}.

Only the pair factors of x_1 are expanded, and only their terms that land
on the target x_1-exponent are kept.  Each such term leaves an (n-1)-variable
instance over x_2..x_n with shifted targets, whose coefficient is computed
the same way; every sub-instance is memoized in the one cache, so the
arrangements sampled by a fit share their (n-1)- and (n-2)-variable
constant terms.  Coefficients are arbitrary-precision integers throughout,
so nothing can overflow.

The constant term is unchanged when the pairs (a_i, b_i) are relabeled
together, so every instance is first reduced to one canonical arrangement:
the pairs sorted ascending.  That arrangement is the key of the top-level
cache entry and also the elimination order, so the variables with the
smallest exponents are peeled off first.  Also here: the symbolic Taylor
coefficients P_k used by the boundary conditions of the proof engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial
from typing import Dict, Iterator, List, Tuple

from .poly import Poly, binomial_poly

Exponents = Tuple[int, ...]


def multinomial(a: Tuple[int, ...] | List[int]) -> int:
    """(a_1 + ... + a_n)! / (a_1! ... a_n!) as an exact integer."""
    total = factorial(sum(a))
    for ai in a:
        total //= factorial(ai)
    return total


class LaurentPoly:
    """Sparse Laurent polynomial with integer coefficients.

    Only multiplication and coefficient lookup are provided: enough to
    expand a product literally, as an independent reference for the
    constant-term engine.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Dict[Exponents, int]):
        self.nvars = nvars
        self.terms = {tuple(mono): int(c) for mono, c in terms.items() if c}

    @classmethod
    def one(cls, nvars: int) -> "LaurentPoly":
        return cls(nvars, {(0,) * nvars: 1})

    def coefficient(self, expo: Exponents) -> int:
        return self.terms.get(tuple(expo), 0)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.nvars != other.nvars:
            raise ValueError("mismatched variable counts")
        out: Dict[Exponents, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(x + y for x, y in zip(m1, m2))
                out[mono] = out.get(mono, 0) + c1 * c2
        return LaurentPoly(self.nvars, out)


# ----------------------------------------------------------------------
# constant-term extraction


def _signed_row(ah: int, aj: int) -> List[int]:
    """(-1)^m C(a_h + a_j, a_h + m) for m = -a_h .. a_j, indexed by a_h + m."""
    s = ah + aj
    return [-comb(s, k) if (k - ah) & 1 else comb(s, k) for k in range(s + 1)]


@lru_cache(maxsize=200000)
def _ct_cached(n: int, a: Tuple[int, ...], b: Tuple[int, ...]) -> int:
    # Callers pass the canonical arrangement (see ct); the recursion itself
    # is correct for any arrangement.  Only the pair factors (0, j) are
    # expanded: summand m_j in [-a_0, a_j] contributes rows[j][a_0 + m_j]
    # and x_0^{m_j} x_j^{-m_j}.  The slice x_0^{b_0} has sum m_j = b_0 and
    # leaves the sub-instance (n - 1, a[1:], b[1:] + m), looked up in this
    # same cache; a[1:] is sorted whenever a is.
    if sum(b):
        return 0
    if n == 1:
        return 1
    a0, highs, tail = a[0], a[1:], b[1:]
    if n == 2:
        # the single pair factor: one entry of _signed_row(a0, highs[0])
        if not -a0 <= b[0] <= highs[0]:
            return 0
        return (-1 if b[0] & 1 else 1) * comb(a0 + highs[0], a0 + b[0])
    rows = [_signed_row(a0, aj) for aj in highs]
    last = n - 2
    # upper bounds on the m-sum over partners idx..last, for pruning
    suffix_hi = [sum(highs[i:]) for i in range(last + 2)]

    def walk(idx: int, need: int, shifted: Tuple[int, ...]) -> int:
        # prune m-ranges that cannot reach the target slice
        lo = max(-a0, need - suffix_hi[idx + 1])
        hi = min(highs[idx], need + a0 * (last - idx))
        row, e = rows[idx], tail[idx]
        total = 0
        if idx == last - 1:
            # the last partner takes the whole remaining need
            row_l, e_l = rows[last], tail[last] + need
            for m in range(lo, hi + 1):
                sub = _ct_cached(n - 1, highs, shifted + (e + m, e_l - m))
                total += row[a0 + m] * row_l[a0 + need - m] * sub
            return total
        for m in range(lo, hi + 1):
            total += row[a0 + m] * walk(idx + 1, need - m, shifted + (e + m,))
        return total

    return walk(0, b[0], ())


def ct(n: int, a, b) -> int:
    """Coefficient of x_1^{b_1}...x_n^{b_n} in F_n(x; a; 0), n >= 1, with a
    and b of length n and every a_i nonnegative (ValueError otherwise).

    Equivalently the constant term of F_n(x; a; b); computed by exact
    expansion, one variable at a time, as a memoized recursion on
    sub-instances with one variable fewer.  Relabeling the pairs (a_i, b_i)
    together leaves the constant term unchanged, so the pairs are first
    sorted ascending (by a_i, then b_i).  That canonical arrangement is both
    the cache key, shared by every relabeling, and the elimination order:
    the variable with the smallest exponent is peeled off first, which keeps
    its pair rows short, and its sub-instances stay sorted.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if len(a) != n or len(b) != n:
        raise ValueError("a and b must both have length n")
    if any(ai < 0 for ai in a):
        raise ValueError("all a_i must be nonnegative")
    a, b = zip(*sorted(zip(a, b)))
    return _ct_cached(n, a, b)


# ----------------------------------------------------------------------
# symbolic Taylor coefficients P_k for the boundary conditions


def _compositions(total: int, parts: int) -> Iterator[Tuple[int, ...]]:
    """Weak compositions of ``total`` into ``parts`` parts, lex ascending."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@dataclass(frozen=True)
class PkTerm:
    """One composition term of P_k.

    ``m`` is indexed by the surviving variables (original order, k removed),
    ``coeff`` lives in the full n-variable ring but does not involve a_k,
    ``shifted_b`` is the (n-1)-vector b_i + m_i over the same indices.
    """

    m: Tuple[int, ...]
    coeff: Poly
    shifted_b: Tuple[int, ...]


@dataclass(frozen=True)
class PkExpansion:
    """Coefficient of x_k^{b_k} in the Taylor expansion of the segregated
    factors prod_{i != k} (x_i - x_k)^{a_i} / x_i^{a_i + b_i} about x_k = 0,
    organized term by term; empty when b_k < 0."""

    n: int
    k: int  # zero-based pivot index
    b: Tuple[int, ...]
    terms: Tuple[PkTerm, ...]


def pk_expansion(n: int, k: int, b) -> PkExpansion:
    """Enumerate P_k's terms for pivot ``k`` (zero-based index, n >= 3)."""
    b = tuple(b)
    if n < 3:
        raise ValueError("pk_expansion needs n >= 3")
    if not 0 <= k < n:
        raise ValueError(f"pivot index {k} out of range")
    if len(b) != n:
        raise ValueError("b must have length n")
    others = [i for i in range(n) if i != k]
    terms: List[PkTerm] = []
    if b[k] >= 0:
        for m in _compositions(b[k], n - 1):
            coeff = Poly.const(n, 1)
            for i, mi in zip(others, m):
                coeff = coeff * binomial_poly(n, i, mi)
                if mi & 1:
                    coeff = -coeff
            shifted = tuple(b[i] + mi for i, mi in zip(others, m))
            terms.append(PkTerm(m=m, coeff=coeff, shifted_b=shifted))
    return PkExpansion(n=n, k=k, b=b, terms=tuple(terms))
