"""Exact expansion of Dyson-style Laurent products and coefficient extraction.

The product F_n(x; a; b) = prod_h x_h^{-b_h} prod_{i != j} (1 - x_i/x_j)^{a_j}
is expanded one variable at a time.  The two factors of each unordered pair
{i, j} are grouped into one binomial power,

    (1 - x_i/x_j)^{a_j} (1 - x_j/x_i)^{a_i}
        = (-1)^{a_j} (x_i - x_j)^{a_i + a_j} x_i^{-a_i} x_j^{-a_j}.

Only the pair factors of x_1 are expanded, and only their terms that land
on the target x_1-exponent are kept.  Each such term leaves an (n-1)-variable
instance over x_2..x_n with shifted targets, whose coefficient is computed
the same way.  Coefficients are arbitrary-precision integers throughout, so
nothing can overflow.

The constant term is unchanged when the pairs (a_i, b_i) are relabeled
together, so every instance is first reduced to one canonical arrangement:
the pairs sorted ascending.  That arrangement is the elimination order, so
the variables with the smallest exponents are peeled off first, and its
exponent vector a is the key of the one cache.  An entry holds a's pair
rows, built once, and every target computed for a so far, by a top-level
call or as a sub-instance, stored by line: b[:-2], then b[-2] (b[-1] is
fixed by the zero sum).  So the arrangements sampled by a fit share their
(n-1)- and (n-2)-variable constant terms.  At n >= 4 the entry also holds
two tables built from its rows, so that no target repeats the work of
another: per x_1-exponent, the prefix table of the summands of every
partner of x_1 but the last two, with their products; per need those two
partners must meet, their pair products.  The expansion is one flat loop
over a prefix table, and its inner loop reads one row of pair products and
one line, one multiply per term.  Also here: the symbolic Taylor
coefficients P_k used by the boundary conditions of the proof engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial
from operator import add
from typing import Dict, Iterator, List, Tuple

from .poly import Poly, binomial_poly

Exponents = Tuple[int, ...]
# a prefix table entry: (prefix, coeff, lo, products), see _prefix_table
PrefixEntry = Tuple[Tuple[int, ...], int, int, List[int]]


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


class _Family:
    """The cache entry of one sorted exponent vector a, n >= 3.

    ``rows`` are a's pair rows, built once: _signed_row(a_0, a_j) for each
    partner j of the first variable, and at n = 3 also the row of the pair
    (1, 2), whose two-variable sub-instances are read from it.  At n >= 4
    two tables are built from the rows on demand, each entry once:
    ``prefixes[b_0]`` is the prefix table of the x_0-slice b_0 (see
    _prefix_table), and ``pairs[need]`` the pair products of the last two
    partners at that need (see _pair_products).  ``lines`` holds every target
    computed so far, stored by line: ``lines[b[:-2]][b[-2]]`` is the
    constant term at b, whose last entry is fixed by sum(b) = 0.
    """

    __slots__ = ("a", "rows", "prefixes", "pairs", "lines")

    def __init__(self, a: Tuple[int, ...]):
        a0 = a[0]
        self.a = a
        self.rows = [_signed_row(a0, aj) for aj in a[1:]]
        if len(a) == 3:
            self.rows.append(_signed_row(a[1], a[2]))
        self.prefixes: Dict[int, List[PrefixEntry]] = {}
        self.pairs: Dict[int, Tuple[int, List[int]]] = {}
        self.lines: Dict[Tuple[int, ...], Dict[int, int]] = {}


# maxsize bounds exponent vectors, not targets: one entry holds every target
# computed for its vector, so clearing the cache drops every value and table
@lru_cache(maxsize=200000)
def _ct_cached(n: int, a: Tuple[int, ...]) -> _Family:
    return _Family(a)


def _pair_products(family: _Family, need: int) -> Tuple[int, List[int]]:
    """(lo, products), n >= 4: products[i] is the product of the last two
    partners' row entries at summands m = lo + i and need - m, for every m
    that both rows reach."""
    a, rows = family.a, family.rows
    a0 = a[0]
    row, row_l = rows[-2], rows[-1]
    lo, hi = max(-a0, need - a[-1]), min(a[-2], need + a0)
    return lo, [row[a0 + m] * row_l[a0 + need - m] for m in range(lo, hi + 1)]


def _prefix_table(family: _Family, b0: int) -> List[PrefixEntry]:
    """The prefix table of the x_0-slice b_0, n >= 4: one entry
    (prefix, coeff, lo, products) for each prefix (m_1, ..., m_{n-3}) of
    summands of all partners but the last two, whose need b_0 - sum(prefix)
    those two can still reach.  ``coeff`` is the product of the prefix's row
    entries, and (lo, products) are the pair products of its need, built
    once per need in ``family.pairs`` and shared by every prefix that
    leaves it."""
    a, rows, pairs = family.a, family.rows, family.pairs
    a0, highs = a[0], a[1:]
    table = [((), 1, b0)]
    for idx in range(len(a) - 3):
        # the partners after idx can add up to any sum in [-reach_lo, reach_hi]
        reach_hi, reach_lo = sum(highs[idx + 1 :]), a0 * (len(a) - 2 - idx)
        row = rows[idx]
        table = [
            (prefix + (m,), coeff * row[a0 + m], need - m)
            for prefix, coeff, need in table
            for m in range(max(-a0, need - reach_hi), min(highs[idx], need + reach_lo) + 1)
        ]
    for _, _, need in table:
        if need not in pairs:
            pairs[need] = _pair_products(family, need)
    return [(prefix, coeff) + pairs[need] for prefix, coeff, need in table]


def _expand(family: _Family, b: Tuple[int, ...]) -> int:
    """Constant term at (n, a, b) for the family of a, n = len(a) >= 3, and
    sum(b) = 0, uncached.

    Callers pass the canonical arrangement (see ct); the expansion itself is
    correct for any arrangement.  Only the pair factors (0, j) are expanded:
    summand m_j in [-a_0, a_j] contributes rows[j][a_0 + m_j] and
    x_0^{m_j} x_j^{-m_j}.  The slice x_0^{b_0} has sum m_j = b_0 and leaves
    the zero-sum sub-instance (n - 1, a[1:], b[1:] + m), read from the
    family of a[1:] (sorted whenever a is) and computed there on a miss.
    At n >= 4 the sum is one flat loop over the prefix table of b_0: a
    prefix fixes every entry of the sub-instance but the last two, so all
    its terms lie on one line of the sub-family, and its pair products hold
    the last two partners' row entries multiplied, so each term is one
    multiply and one line lookup.
    """
    a, b0 = family.a, b[0]
    n = len(a)
    if n == 3:
        # the sub-instances have two variables: entry h0 + k of the row of
        # the pair (1, 2) is the constant term at (k, -k), zero off the row
        row0, row1, row12 = family.rows
        a0, h0, h1 = a
        b1 = b[1]
        lo = max(-a0, b0 - h1, -h0 - b1)
        hi = min(h0, b0 + a0, h1 - b1)
        total = 0
        for m in range(lo, hi + 1):
            total += row0[a0 + m] * row1[a0 + b0 - m] * row12[h0 + b1 + m]
        return total
    prefixes = family.prefixes.get(b0)
    if prefixes is None:
        prefixes = family.prefixes[b0] = _prefix_table(family, b0)
    sub = _ct_cached(n - 1, a[1:])
    sub_lines = sub.lines
    head, e = b[1:-2], b[-2]
    total = 0
    for prefix, coeff, lo, products in prefixes:
        shifted = tuple(map(add, head, prefix))
        line = sub_lines.setdefault(shifted, {})
        rest = -sum(shifted)
        part = 0
        for k, product in enumerate(products, e + lo):
            try:
                value = line[k]
            except KeyError:
                value = line[k] = _expand(sub, shifted + (k, rest - k))
            part += product * value
        total += coeff * part
    return total


def ct(n: int, a, b) -> int:
    """Coefficient of x_1^{b_1}...x_n^{b_n} in F_n(x; a; 0), n >= 1, with a
    and b of length n and every a_i nonnegative (ValueError otherwise).

    Equivalently the constant term of F_n(x; a; b); computed by exact
    expansion, one variable at a time, as a recursion on sub-instances with
    one variable fewer.  Relabeling the pairs (a_i, b_i) together leaves the
    constant term unchanged, so the pairs are first sorted ascending (by
    a_i, then b_i).  That canonical arrangement is the elimination order:
    the variable with the smallest exponent is peeled off first, which keeps
    its pair rows short, and its sub-instances stay sorted.  The cache
    ``_ct_cached`` holds one entry per sorted exponent vector (n >= 3): its
    pair rows, at n >= 4 its prefix tables and the pair products of its
    last two partners (see _Family), and every target computed for it, by
    this call or as a sub-instance, stored by line.  So every relabeling and
    every fit sample with the same a shares one entry, and the samples
    share their (n-1)- and (n-2)-variable constant terms and their tables;
    clearing the cache drops all of them.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if len(a) != n or len(b) != n:
        raise ValueError("a and b must both have length n")
    if any(ai < 0 for ai in a):
        raise ValueError("all a_i must be nonnegative")
    a, b = zip(*sorted(zip(a, b)))
    # before any lookup: a target off the zero-sum plane shares its line key
    # with targets on it
    if sum(b):
        return 0
    if n == 1:
        return 1
    if n == 2:
        # the single pair factor: one entry of _signed_row(a[0], a[1])
        if not -a[0] <= b[0] <= a[1]:
            return 0
        return (-1 if b[0] & 1 else 1) * comb(a[0] + a[1], a[0] + b[0])
    family = _ct_cached(n, a)
    line = family.lines.setdefault(b[:-2], {})
    value = line.get(b[-2])
    if value is None:
        value = line[b[-2]] = _expand(family, b)
    return value


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


def pk_compositions(n: int, k: int, b) -> List[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """(m, shifted_b) for each term of P_k at pivot ``k`` (zero-based index,
    n >= 3), in pk_expansion's term order, without building the
    coefficients: m runs over the weak compositions of b_k into the n - 1
    surviving variables, lex ascending, and there are none when b_k < 0."""
    b = tuple(b)
    if n < 3:
        raise ValueError("pk_expansion needs n >= 3")
    if not 0 <= k < n:
        raise ValueError(f"pivot index {k} out of range")
    if len(b) != n:
        raise ValueError("b must have length n")
    if b[k] < 0:
        return []
    others = [i for i in range(n) if i != k]
    return [
        (m, tuple(b[i] + mi for i, mi in zip(others, m)))
        for m in _compositions(b[k], n - 1)
    ]


def pk_expansion(n: int, k: int, b) -> Tuple[PkTerm, ...]:
    """The terms of P_k for pivot ``k`` (zero-based index, n >= 3): the
    coefficient of x_k^{b_k} in the Taylor expansion of the segregated
    factors prod_{i != k} (x_i - x_k)^{a_i} / x_i^{a_i + b_i} about x_k = 0,
    organized term by term; empty when b_k < 0."""
    others = [i for i in range(n) if i != k]
    terms: List[PkTerm] = []
    for m, shifted in pk_compositions(n, k, b):
        coeff = Poly.const(n, 1)
        for i, mi in zip(others, m):
            coeff = coeff * binomial_poly(n, i, mi)
            if mi & 1:
                coeff = -coeff
        terms.append(PkTerm(m=m, coeff=coeff, shifted_b=shifted))
    return tuple(terms)
