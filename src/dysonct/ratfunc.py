"""Reduced rational functions in the symbolic a-variables.

Every RatFunc is kept canonical from the moment it is built: numerator and
denominator share no polynomial factor, the denominator's graded-lex leading
coefficient is 1, and the zero function is 0/1.  That form is unique, so
equality of rational functions is a plain structural comparison, which is
what turns the proof engine's identity checks into complete symbolic proofs.

There is no general reduction and no arithmetic operator.  A form is built
canonical in one of two ways: ``coprime`` for a numerator and denominator
known to share no factor (a fit from a one-vector kernel or a relabeling of
a canonical form, ``permute_vars``), and ``over`` for a numerator over
linear factors, which are divided out one at a time; ``sum_over`` brings a
sum of such quotients over the lcm of their factors first, and a sum that
cancels is the zero function at once.  ``zero`` and ``const`` build the
constants, and ``from_json`` reads a stored form, canonical as saved.  The
prover decides each of its sum identities by whether that sum is zero, and
the sweep solves the index-raising identity with it; every denominator they
combine splits into linear factors.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import prod
from typing import Dict, Iterable, Mapping, Sequence, Tuple

from .poly import Poly, cancel_factors


class RatFunc:
    """Canonical num/den pair over Q[a_1..a_n]."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        # Trusts the caller; use coprime() or over() unless both parts are
        # known canonical.
        self.num = num
        self.den = den

    @classmethod
    def coprime(cls, num: Poly, den: Poly) -> "RatFunc":
        """num / den for a nonzero den known to share no factor with num:
        only the denominator's leading coefficient is scaled to 1."""
        if num.is_zero():
            return cls.zero(num.nvars)
        lc = den.leading_coeff()
        if lc != 1:
            num = num.scale(1 / lc)
            den = den.scale(1 / lc)
        return cls(num, den)

    @classmethod
    def over(cls, num: Poly, factors: Iterable[Poly], constant: Fraction | int) -> "RatFunc":
        """num / (constant * prod factors) in canonical form, for linear
        factors and a nonzero constant, reduced one factor at a time: a
        linear factor is irreducible, so it either divides num or shares no
        factor with it (poly.cancel_factors)."""
        return cls.coprime(*cancel_factors(num, Poly.const(num.nvars, constant), factors))

    @classmethod
    def sum_over(cls, terms: Iterable[Tuple[Poly, Iterable[Poly], Fraction | int]]) -> "RatFunc":
        """The sum of num / (constant * prod factors) over the terms
        (num, factors, constant), each as ``over`` takes it, in canonical
        form: every numerator is brought over the lcm of the factor
        multisets, and a nonzero sum is reduced by ``over``."""
        # the multisets count the distinct factors by index, so each
        # factor is hashed once
        index: Dict[Poly, int] = {}
        terms = [
            (num, Counter(index.setdefault(f, len(index)) for f in factors), c)
            for num, factors, c in terms
        ]
        distinct = list(index)
        lcm: Counter = Counter()
        for _, factors, _ in terms:
            lcm |= factors
        total = Poly.zero(terms[0][0].nvars)
        for num, factors, c in terms:
            if c != 1:
                num = num.scale(Fraction(1, c))
            extra = [distinct[i] for i in (lcm - factors).elements()]
            if extra:
                num = num * prod(extra[1:], start=extra[0])
            total = total + num
        if total.is_zero():
            return cls.zero(total.nvars)
        return cls.over(total, (distinct[i] for i in lcm.elements()), 1)

    @classmethod
    def zero(cls, nvars: int) -> "RatFunc":
        return cls(Poly.zero(nvars), Poly.const(nvars, 1))

    @classmethod
    def const(cls, nvars: int, c: Fraction | int) -> "RatFunc":
        return cls(Poly.const(nvars, c), Poly.const(nvars, 1))

    # ------------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatFunc)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    # ------------------------------------------------------------------
    # evaluation / substitution

    def evaluate(self, values: Sequence[Fraction | int]) -> Fraction:
        d = self.den.evaluate(values)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at {tuple(values)}")
        return self.num.evaluate(values) / d

    def permute_vars(self, perm: Sequence[int]) -> "RatFunc":
        return RatFunc.coprime(self.num.permute_vars(perm), self.den.permute_vars(perm))

    # ------------------------------------------------------------------
    # serialization

    def to_json(self) -> dict:
        return {
            "num_terms": self.num.to_json_terms(),
            "den_terms": self.den.to_json_terms(),
        }

    @classmethod
    def from_json(cls, nvars: int, data: Mapping) -> "RatFunc":
        den = Poly.from_json_terms(nvars, data["den_terms"])
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        return cls(Poly.from_json_terms(nvars, data["num_terms"]), den)

    def __repr__(self) -> str:
        return f"RatFunc({self.num!r} / {self.den!r})"

