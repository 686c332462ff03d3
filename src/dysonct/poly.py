"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial in the symbolic variables a_1..a_n is stored as integer
coefficients over one positive integer denominator: a map from exponent
tuples (one nonnegative int per variable) to nonzero ints, plus ``den``, kept
in lowest terms (the gcd of ``den`` and every coefficient is 1; the zero
polynomial has ``den == 1``).  That form is unique, so structural equality is
polynomial equality, and every operation runs on Python ints: ``Fraction``
appears only where rationals come in (constructors, ``scale``, evaluation
points) or go out (the coefficient accessors and ``evaluate``'s result).
This is the integer-coefficient representation of Monagan and Pearce
("Sparse polynomial division using a heap", JSC 2011) with the content of
the denominator kept beside the map.  Monomials are ordered
graded-lexicographically with a_1 > a_2 > ... > a_n; that order fixes every
canonical form in the package.

``linear_factors`` splits a polynomial into linear forms with nonnegative
coefficients and positive constants, by trial division; the prover's
denominator-safety check and the renderer both use it.  There is no
polynomial gcd: a rational function is reduced over the linear factors of
its denominator (``cancel_factors``), one exact division at a time, and a
fitted one needs no reduction at all (see ``conjecture.guess_rat``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, gcd, isqrt, lcm
from operator import add, mul
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

Monomial = Tuple[int, ...]


def glex_key(mono: Monomial) -> tuple:
    """Sort key realizing graded-lex order with the first variable largest."""
    return (sum(mono), mono)


def _rational(x) -> Fraction | int:
    """``x`` as an object with integer ``numerator`` and ``denominator``."""
    return x if isinstance(x, (int, Fraction)) else Fraction(x)


def _lowest(coeffs: Dict[Monomial, int], den: int) -> Tuple[Dict[Monomial, int], int]:
    """coeffs / den with the common factor of den and every coefficient removed."""
    if not coeffs:
        return coeffs, 1
    if den != 1:
        g = gcd(den, *coeffs.values())
        if g != 1:
            coeffs = {m: c // g for m, c in coeffs.items()}
            den //= g
    return coeffs, den


def _powers(p: int, q: int, d: int) -> List[int]:
    """[p^e q^(d-e) for e = 0..d]: the powers of p/q up to d over q^d."""
    return [p**e * q ** (d - e) for e in range(d + 1)]


class Poly:
    """Sparse exact polynomial over Q in a fixed number of variables:
    ``sum(coeffs[m] * a^m for m in coeffs) / den`` in lowest terms."""

    __slots__ = ("nvars", "coeffs", "den")

    def __init__(self, nvars: int, terms: Mapping[Monomial, Fraction | int] | None = None):
        clean: Dict[Monomial, Fraction | int] = {}
        if terms:
            for mono, coeff in terms.items():
                mono = tuple(mono)
                if len(mono) != nvars or any(e < 0 for e in mono):
                    raise ValueError(f"bad exponent vector {mono} for nvars={nvars}")
                c = _rational(coeff)
                if c:
                    clean[mono] = c
        den = lcm(*(c.denominator for c in clean.values()))
        self.nvars = nvars
        self.coeffs, self.den = _lowest(
            {m: c.numerator * (den // c.denominator) for m, c in clean.items()}, den
        )

    @classmethod
    def _raw(cls, nvars: int, coeffs: Dict[Monomial, int], den: int = 1) -> "Poly":
        # Internal constructor: caller guarantees clean keys, no zero
        # coefficients and lowest terms.
        p = object.__new__(cls)
        p.nvars = nvars
        p.coeffs = coeffs
        p.den = den
        return p

    @classmethod
    def _reduced(cls, nvars: int, coeffs: Dict[Monomial, int], den: int) -> "Poly":
        # Internal constructor: clean keys and no zero coefficients, den > 0.
        return cls._raw(nvars, *_lowest(coeffs, den))

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls._raw(nvars, {})

    @classmethod
    def const(cls, nvars: int, value: Fraction | int) -> "Poly":
        c = _rational(value)
        if c == 0:
            return cls.zero(nvars)
        return cls._raw(nvars, {(0,) * nvars: c.numerator}, c.denominator)

    @classmethod
    def variable(cls, nvars: int, idx: int) -> "Poly":
        if not 0 <= idx < nvars:
            raise ValueError(f"variable index {idx} out of range for nvars={nvars}")
        mono = tuple(1 if i == idx else 0 for i in range(nvars))
        return cls._raw(nvars, {mono: 1})

    # ------------------------------------------------------------------
    # predicates and views

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m in self.coeffs)

    def constant_value(self) -> Fraction:
        return Fraction(self.coeffs.get((0,) * self.nvars, 0), self.den)

    def total_degree(self) -> int:
        if not self.coeffs:
            return 0
        return max(sum(m) for m in self.coeffs)

    def leading_monomial(self) -> Monomial | None:
        if not self.coeffs:
            return None
        return max(self.coeffs, key=glex_key)

    def leading_coeff(self) -> Fraction:
        lm = self.leading_monomial()
        return Fraction(0) if lm is None else Fraction(self.coeffs[lm], self.den)

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in glex-descending order (the canonical serialization order)."""
        return [(m, Fraction(c, self.den)) for m, c in self._sorted_coeffs()]

    def _sorted_coeffs(self) -> list[tuple[Monomial, int]]:
        return sorted(self.coeffs.items(), key=lambda kv: glex_key(kv[0]), reverse=True)

    def coefficient(self, mono: Monomial) -> Fraction:
        return Fraction(self.coeffs.get(tuple(mono), 0), self.den)

    # ------------------------------------------------------------------
    # arithmetic

    def _check_compatible(self, other: "Poly") -> None:
        if self.nvars != other.nvars:
            raise ValueError(f"mismatched variable counts {self.nvars} != {other.nvars}")

    def _combine(self, other: "Poly", sign: int) -> "Poly":
        """self + sign * other over the least common denominator."""
        self._check_compatible(other)
        g = gcd(self.den, other.den)
        f_self, f_other = other.den // g, sign * (self.den // g)
        out = {m: c * f_self for m, c in self.coeffs.items()} if f_self != 1 else dict(self.coeffs)
        get = out.get
        for mono, c in other.coeffs.items():
            s = get(mono, 0) + c * f_other
            if s:
                out[mono] = s
            else:
                del out[mono]
        return Poly._reduced(self.nvars, out, self.den * f_self)

    def __add__(self, other: "Poly") -> "Poly":
        return self._combine(other, 1)

    def __sub__(self, other: "Poly") -> "Poly":
        return self._combine(other, -1)

    def __neg__(self) -> "Poly":
        return Poly._raw(self.nvars, {m: -c for m, c in self.coeffs.items()}, self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_compatible(other)
        out: Dict[Monomial, int] = {}
        get = out.get
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                mono = tuple(map(add, m1, m2))
                out[mono] = get(mono, 0) + c1 * c2
        out = {m: c for m, c in out.items() if c}
        return Poly._reduced(self.nvars, out, self.den * other.den)

    def __rmul__(self, other):
        return self.__mul__(other)

    def scale(self, c: Fraction | int) -> "Poly":
        c = _rational(c)
        if c == 0:
            return Poly.zero(self.nvars)
        num = c.numerator
        out = {m: v * num for m, v in self.coeffs.items()}
        return Poly._reduced(self.nvars, out, self.den * c.denominator)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.nvars == other.nvars
            and self.den == other.den
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.nvars, self.den, frozenset(self.coeffs.items())))

    # ------------------------------------------------------------------
    # evaluation and substitution

    def evaluate(self, values: Sequence[Fraction | int]) -> Fraction:
        if len(values) != self.nvars:
            raise ValueError("wrong number of values")
        if not self.coeffs:
            return Fraction(0)
        # each value p/q enters as p^e q^(d-e) over q^d, d the degree in it
        den = self.den
        tables = []
        for v, d in zip(values, map(max, zip(*self.coeffs))):
            v = _rational(v)
            tables.append(_powers(v.numerator, v.denominator, d))
            den *= v.denominator**d
        total = 0
        for mono, c in self.coeffs.items():
            for table, e in zip(tables, mono):
                c *= table[e]
            total += c
        return Fraction(total, den)

    def shift_var(self, var: int, delta: int) -> "Poly":
        """Substitute a_var -> a_var + delta (binomial expansion per term)."""
        if delta == 0:
            return self
        rows: Dict[int, List[int]] = {}
        out: Dict[Monomial, int] = {}
        get = out.get
        for mono, c in self.coeffs.items():
            e = mono[var]
            row = rows.get(e)
            if row is None:
                row = rows[e] = [comb(e, r) * delta ** (e - r) for r in range(e + 1)]
            head, tail = mono[:var], mono[var + 1 :]
            for r, w in enumerate(row):
                key = head + (r,) + tail
                out[key] = get(key, 0) + c * w
        out = {m: c for m, c in out.items() if c}
        # the shift is invertible over Z[a], so the content, and with it the
        # lowest-terms denominator, is unchanged
        return Poly._raw(self.nvars, out, self.den)

    def permute_vars(self, perm: Sequence[int]) -> "Poly":
        """Return q with q(a_0,...,a_{n-1}) = self(a_{perm[0]}, ..., a_{perm[n-1]}).

        ``perm`` must be a permutation of range(nvars): slot j of the original
        polynomial is fed the variable with index perm[j].
        """
        if sorted(perm) != list(range(self.nvars)):
            raise ValueError(f"{perm} is not a permutation of 0..{self.nvars - 1}")
        out: Dict[Monomial, int] = {}
        for mono, coeff in self.coeffs.items():
            new_mono = [0] * self.nvars
            for j, e in enumerate(mono):
                new_mono[perm[j]] = e
            out[tuple(new_mono)] = coeff
        return Poly._raw(self.nvars, out, self.den)

    def at_zero(self, var: int) -> "Poly":
        """The polynomial at a_var = 0, in the other nvars - 1 variables: the
        terms free of a_var, with that slot dropped, in lowest terms."""
        out = {m[:var] + m[var + 1 :]: c for m, c in self.coeffs.items() if not m[var]}
        return Poly._reduced(self.nvars - 1, out, self.den)

    # ------------------------------------------------------------------
    # serialization

    def to_json_terms(self) -> list:
        """[numerator, denominator, monomial] per term, each coefficient in
        lowest terms, in glex-descending order."""
        out = []
        for m, c in self._sorted_coeffs():
            g = gcd(c, self.den)
            out.append([c // g, self.den // g, list(m)])
        return out

    @classmethod
    def from_json_terms(cls, nvars: int, data: Iterable) -> "Poly":
        terms = {tuple(m): Fraction(num, den) for num, den, m in data}
        return cls(nvars, terms)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "Poly(0)"
        parts = []
        for mono, c in self.sorted_terms():
            factors = [str(c)] if c != 1 or sum(mono) == 0 else []
            for i, e in enumerate(mono):
                if e == 1:
                    factors.append(f"a{i + 1}")
                elif e > 1:
                    factors.append(f"a{i + 1}^{e}")
            parts.append("*".join(factors))
        return "Poly(" + " + ".join(parts) + ")"


@dataclass(frozen=True)
class LinearForm:
    """Integer linear form c0 + c1*a_1 + ... + cn*a_n (total degree <= 1)."""

    constant: int
    coeffs: Tuple[int, ...]

    @property
    def nvars(self) -> int:
        return len(self.coeffs)

    def to_poly(self) -> Poly:
        terms: Dict[Monomial, int] = {}
        if self.constant:
            terms[(0,) * self.nvars] = self.constant
        for i, c in enumerate(self.coeffs):
            if c:
                mono = tuple(1 if j == i else 0 for j in range(self.nvars))
                terms[mono] = c
        return Poly._raw(self.nvars, terms)

    def evaluate(self, point: Sequence[int]) -> int:
        """The form's value at an integer point."""
        return self.constant + sum(map(mul, self.coeffs, point))

    def is_positive_on_grid(self) -> bool:
        """True when the form is positive at every nonnegative integer point."""
        return self.constant > 0 and all(c >= 0 for c in self.coeffs)


def binomial_poly(nvars: int, var: int, m: int) -> Poly:
    """The polynomial a_var (a_var - 1) ... (a_var - m + 1) / m! in one variable.

    Evaluated at an integer N >= 0 it equals the binomial coefficient C(N, m).
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    result = Poly.const(nvars, 1)
    a = Poly.variable(nvars, var)
    for r in range(m):
        result = result * (a - Poly.const(nvars, r))
    return result.scale(Fraction(1, factorial(m)))


# ----------------------------------------------------------------------
# exact division and linear factors


def _content(p: Poly) -> int:
    """The gcd of p's integer coefficients, signed like its leading one."""
    g = gcd(*p.coeffs.values())
    return -g if p.coeffs[p.leading_monomial()] < 0 else g


def exact_div(p: Poly, q: Poly) -> Poly:
    """Exact polynomial division p / q; raises ArithmeticError if not exact.

    p's integer numerator is divided over Z by the primitive part of q's.
    By Gauss's lemma a quotient over Q by a primitive divisor has integer
    coefficients, so the first step whose quotient coefficient is not an
    integer already shows that the division is not exact.  q's content and
    both denominators are applied to the quotient at the end.
    """
    if q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    p._check_compatible(q)
    if p.is_zero():
        return Poly.zero(p.nvars)
    lm_q = q.leading_monomial()
    deg_q = sum(lm_q)
    cont = _content(q)
    lc_q = q.coeffs[lm_q] // cont
    tail_q = [(sum(m), m, c // cont) for m, c in q.coeffs.items() if m != lm_q]
    # the remainder is keyed by glex_key, so max() compares plain tuples
    rem = {(sum(m), m): c for m, c in p.coeffs.items()}
    quot: Dict[Monomial, int] = {}
    while rem:
        key = max(rem)
        deg, lm_r = key
        diff = tuple(a - b for a, b in zip(lm_r, lm_q))
        if any(d < 0 for d in diff):
            raise ArithmeticError("division is not exact")
        c, r = divmod(rem.pop(key), lc_q)
        if r:
            raise ArithmeticError("division is not exact")
        quot[diff] = c
        deg -= deg_q
        for d2, m2, c2 in tail_q:
            key = (deg + d2, tuple(map(add, diff, m2)))
            s = rem.get(key, 0) - c * c2
            if s:
                rem[key] = s
            else:
                del rem[key]
    # p / q = (P / den_p) / (cont * Q' / den_q) = (P / Q') * den_q / (den_p * cont)
    f = q.den if cont > 0 else -q.den
    if f != 1:
        quot = {m: c * f for m, c in quot.items()}
    return Poly._reduced(p.nvars, quot, p.den * abs(cont))


def cancel_factors(p: Poly, q: Poly, factors: Iterable[Poly]) -> Tuple[Poly, Poly]:
    """p / (q * prod(factors)) as a pair (p', q'): each factor is divided out
    of p where it divides p exactly and multiplied into q where it does not.
    When p and q are coprime and every factor is irreducible, p' and q' are
    coprime again: a factor left in q' did not divide p', which divides p."""
    for f in factors:
        try:
            p = exact_div(p, f)
        except ArithmeticError:
            q = q * f
    return p, q


def make_primitive(p: Poly) -> Poly:
    """Scale to integer coefficients with content 1 and positive leading coeff."""
    if p.is_zero():
        return p
    g = _content(p)
    if g == 1 and p.den == 1:
        return p
    return Poly._raw(p.nvars, {m: c // g for m, c in p.coeffs.items()})


def _divisors(n: int) -> List[int]:
    """The positive divisors of n in ascending order, by trial division up
    to its square root."""
    n = abs(n)
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def linear_factors(p: Poly) -> Optional[Tuple[List[LinearForm], Fraction]]:
    """Factor p as const * product of integer linear forms with nonnegative
    coefficients and positive constant terms; None if p is not of that shape.

    A factor c0 + sum c_i a_i of the primitive part has c0 dividing its
    constant term, and, restricted to the a_i axis, each c_i > 0 divides the
    leading coefficient and -c0/c_i is a root of that restriction.
    Trial division over those candidates is a complete search.
    """
    if p.is_zero():
        return None
    nvars = p.nvars
    prim = make_primitive(p)
    scale = p.leading_coeff() / prim.leading_coeff()
    factors: List[LinearForm] = []
    work = prim
    while not work.is_constant():
        const = work.constant_value()
        if const <= 0 or const.denominator != 1:
            return None
        found = None
        terms = work.sorted_terms()
        axes = [{m[i]: int(c) for m, c in terms if sum(m) == m[i]} for i in range(nvars)]
        for c0 in _divisors(int(const)):
            candidates = [_axis_coefficients(axis, c0) for axis in axes]
            for coeffs in itertools.product(*candidates):
                if not any(coeffs):
                    continue
                cand = LinearForm(c0, coeffs)
                try:
                    quotient = exact_div(work, cand.to_poly())
                except ArithmeticError:
                    continue
                factors.append(cand)
                work = quotient
                found = cand
                break
            if found:
                break
        if not found:
            return None
    tail = work.constant_value()
    if tail <= 0:
        return None
    return factors, scale * tail


def _axis_coefficients(axis: Dict[int, int], c0: int) -> List[int]:
    """The coefficients of a_i that a factor c0 + ... can have, given the
    restriction to the a_i axis as {exponent: coefficient}: 0, and each
    positive divisor c of its leading coefficient at whose root t = -c0/c the
    restriction vanishes (tested as sum coeff * (-c0)^e * c^(deg - e) = 0)."""
    deg = max(axis)
    out = [0]
    for c in _divisors(axis[deg]):
        if sum(coeff * (-c0) ** e * c ** (deg - e) for e, coeff in axis.items()) == 0:
            out.append(c)
    return out
