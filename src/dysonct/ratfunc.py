"""Reduced rational functions in the symbolic a-variables.

Every RatFunc is kept canonical from the moment it is built: numerator and
denominator share no polynomial factor, the denominator's graded-lex leading
coefficient is 1, and the zero function is 0/1.  Equality of rational
functions is therefore a plain structural comparison, which is what turns
the proof engine's identity checks into complete symbolic proofs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .poly import Poly, exact_div, poly_gcd


class RatFunc:
    """Canonical num/den pair over Q[a_1..a_n]."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        # Trusts the caller; use make() unless both parts are known canonical.
        self.num = num
        self.den = den

    @classmethod
    def make(cls, num: Poly, den: Poly) -> "RatFunc":
        if num.nvars != den.nvars:
            raise ValueError("numerator and denominator disagree on nvars")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            return cls(Poly.zero(num.nvars), Poly.const(num.nvars, 1))
        g = poly_gcd(num, den)
        if not (g.is_constant() and g.constant_value() == 1):
            num = exact_div(num, g)
            den = exact_div(den, g)
        return cls.coprime(num, den)

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
    def zero(cls, nvars: int) -> "RatFunc":
        return cls(Poly.zero(nvars), Poly.const(nvars, 1))

    @classmethod
    def one(cls, nvars: int) -> "RatFunc":
        return cls(Poly.const(nvars, 1), Poly.const(nvars, 1))

    @classmethod
    def const(cls, nvars: int, c: Fraction | int) -> "RatFunc":
        return cls(Poly.const(nvars, c), Poly.const(nvars, 1))

    @classmethod
    def from_poly(cls, p: Poly) -> "RatFunc":
        return cls(p, Poly.const(p.nvars, 1))

    # ------------------------------------------------------------------

    @property
    def nvars(self) -> int:
        return self.num.nvars

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def total_degree(self) -> int:
        """Sum of numerator and denominator total degrees (the fit's 't')."""
        return self.num.total_degree() + self.den.total_degree()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatFunc)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    # ------------------------------------------------------------------
    # arithmetic (always re-canonicalized)

    def __add__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc.make(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc.make(
            self.num * other.den - other.num * self.den, self.den * other.den
        )

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RatFunc.make(self.num.scale(other), self.den)
        return RatFunc.make(self.num * other.num, self.den * other.den)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc.make(self.num * other.den, self.den * other.num)

    # ------------------------------------------------------------------
    # evaluation / substitution

    def evaluate(self, values: Sequence[Fraction | int]) -> Fraction:
        d = self.den.evaluate(values)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at {tuple(values)}")
        return self.num.evaluate(values) / d

    def shift_var(self, var: int, delta: int) -> "RatFunc":
        # A shift is an automorphism, so reducedness is preserved; only the
        # denominator's leading coefficient needs renormalizing.
        return RatFunc.coprime(self.num.shift_var(var, delta), self.den.shift_var(var, delta))

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

