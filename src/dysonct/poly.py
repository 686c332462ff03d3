"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial in the symbolic variables a_1..a_n is stored as a map from
exponent tuples (one nonnegative int per variable) to Fraction coefficients.
Zero coefficients are never stored, so structural equality of the term maps
is polynomial equality.  Monomials are ordered graded-lexicographically with
a_1 > a_2 > ... > a_n; that order fixes every canonical form in the package.

The gcd machinery at the bottom (content extraction + primitive-part
pseudo-remainder sequences) is what lets rational functions be kept fully
reduced, which the proof engine relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, gcd
from typing import Dict, Iterable, Mapping, Sequence, Tuple

Monomial = Tuple[int, ...]

# BigRat: every exact scalar in the package is a stdlib Fraction.
BigRat = Fraction


def glex_key(mono: Monomial) -> tuple:
    """Sort key realizing graded-lex order with the first variable largest."""
    return (sum(mono), mono)


class Poly:
    """Sparse exact polynomial over Q in a fixed number of variables."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Monomial, Fraction | int] | None = None):
        clean: Dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                mono = tuple(mono)
                if len(mono) != nvars or any(e < 0 for e in mono):
                    raise ValueError(f"bad exponent vector {mono} for nvars={nvars}")
                c = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
                if c != 0:
                    clean[mono] = c
        self.nvars = nvars
        self.terms = clean

    @classmethod
    def _raw(cls, nvars: int, terms: Dict[Monomial, Fraction]) -> "Poly":
        # Internal constructor: caller guarantees clean keys and no zeros.
        p = object.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        return p

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls._raw(nvars, {})

    @classmethod
    def const(cls, nvars: int, value: Fraction | int) -> "Poly":
        c = Fraction(value)
        if c == 0:
            return cls.zero(nvars)
        return cls._raw(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars: int, idx: int) -> "Poly":
        if not 0 <= idx < nvars:
            raise ValueError(f"variable index {idx} out of range for nvars={nvars}")
        mono = tuple(1 if i == idx else 0 for i in range(nvars))
        return cls._raw(nvars, {mono: Fraction(1)})

    # ------------------------------------------------------------------
    # predicates and views

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m in self.terms)

    def constant_value(self) -> Fraction:
        return self.terms.get((0,) * self.nvars, Fraction(0))

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(m) for m in self.terms)

    def degree_in(self, var: int) -> int:
        if not self.terms:
            return 0
        return max(m[var] for m in self.terms)

    def leading_monomial(self) -> Monomial | None:
        if not self.terms:
            return None
        return max(self.terms, key=glex_key)

    def leading_coeff(self) -> Fraction:
        lm = self.leading_monomial()
        return Fraction(0) if lm is None else self.terms[lm]

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in glex-descending order (the canonical serialization order)."""
        return sorted(self.terms.items(), key=lambda kv: glex_key(kv[0]), reverse=True)

    def coefficient(self, mono: Monomial) -> Fraction:
        return self.terms.get(tuple(mono), Fraction(0))

    # ------------------------------------------------------------------
    # arithmetic

    def _check_compatible(self, other: "Poly") -> None:
        if self.nvars != other.nvars:
            raise ValueError(f"mismatched variable counts {self.nvars} != {other.nvars}")

    def __add__(self, other: "Poly") -> "Poly":
        self._check_compatible(other)
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = out.get(mono, Fraction(0)) + c
            if s:
                out[mono] = s
            elif mono in out:
                del out[mono]
        return Poly._raw(self.nvars, out)

    def __sub__(self, other: "Poly") -> "Poly":
        self._check_compatible(other)
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = out.get(mono, Fraction(0)) - c
            if s:
                out[mono] = s
            elif mono in out:
                del out[mono]
        return Poly._raw(self.nvars, out)

    def __neg__(self) -> "Poly":
        return Poly._raw(self.nvars, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_compatible(other)
        if not self.terms or not other.terms:
            return Poly.zero(self.nvars)
        out: Dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(x + y for x, y in zip(m1, m2))
                s = out.get(mono, Fraction(0)) + c1 * c2
                if s:
                    out[mono] = s
                elif mono in out:
                    del out[mono]
        return Poly._raw(self.nvars, out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def scale(self, c: Fraction | int) -> "Poly":
        c = Fraction(c)
        if c == 0:
            return Poly.zero(self.nvars)
        return Poly._raw(self.nvars, {m: v * c for m, v in self.terms.items()})

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.const(self.nvars, 1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.terms.items())))

    # ------------------------------------------------------------------
    # evaluation and substitution

    def evaluate(self, values: Sequence[Fraction | int]) -> Fraction:
        if len(values) != self.nvars:
            raise ValueError("wrong number of values")
        vals = [Fraction(v) for v in values]
        total = Fraction(0)
        for mono, coeff in self.terms.items():
            term = coeff
            for e, v in zip(mono, vals):
                if e:
                    term *= v**e
            total += term
        return total

    def substitute(self, assignment: Mapping[int, Fraction | int]) -> "Poly":
        """Partially evaluate some variables; the result keeps nvars slots."""
        if not assignment:
            return self
        out: Dict[Monomial, Fraction] = {}
        for mono, coeff in self.terms.items():
            c = coeff
            new_mono = list(mono)
            for var, val in assignment.items():
                e = mono[var]
                if e:
                    c *= Fraction(val) ** e
                new_mono[var] = 0
            if c == 0:
                continue
            key = tuple(new_mono)
            s = out.get(key, Fraction(0)) + c
            if s:
                out[key] = s
            elif key in out:
                del out[key]
        return Poly._raw(self.nvars, out)

    def shift_var(self, var: int, delta: int) -> "Poly":
        """Substitute a_var -> a_var + delta (binomial expansion per term)."""
        if delta == 0:
            return self
        out: Dict[Monomial, Fraction] = {}
        for mono, coeff in self.terms.items():
            e = mono[var]
            for r in range(e + 1):
                c = coeff * comb(e, r) * Fraction(delta) ** (e - r)
                if c == 0:
                    continue
                new_mono = list(mono)
                new_mono[var] = r
                key = tuple(new_mono)
                s = out.get(key, Fraction(0)) + c
                if s:
                    out[key] = s
                elif key in out:
                    del out[key]
        return Poly._raw(self.nvars, out)

    def permute_vars(self, perm: Sequence[int]) -> "Poly":
        """Return q with q(a_0,...,a_{n-1}) = self(a_{perm[0]}, ..., a_{perm[n-1]}).

        ``perm`` must be a permutation of range(nvars): slot j of the original
        polynomial is fed the variable with index perm[j].
        """
        if sorted(perm) != list(range(self.nvars)):
            raise ValueError(f"{perm} is not a permutation of 0..{self.nvars - 1}")
        out: Dict[Monomial, Fraction] = {}
        for mono, coeff in self.terms.items():
            new_mono = [0] * self.nvars
            for j, e in enumerate(mono):
                new_mono[perm[j]] = e
            out[tuple(new_mono)] = coeff
        return Poly._raw(self.nvars, out)

    def drop_var(self, var: int) -> "Poly":
        """Remove a variable the polynomial does not actually use."""
        if self.degree_in(var):
            raise ValueError(f"polynomial still involves variable {var}")
        out = {m[:var] + m[var + 1 :]: c for m, c in self.terms.items()}
        return Poly._raw(self.nvars - 1, out)

    def insert_var(self, var: int) -> "Poly":
        """Add an unused variable slot at position ``var``."""
        out = {m[:var] + (0,) + m[var:]: c for m, c in self.terms.items()}
        return Poly._raw(self.nvars + 1, out)

    # ------------------------------------------------------------------
    # serialization

    def to_json_terms(self) -> list:
        return [
            [c.numerator, c.denominator, list(m)] for m, c in self.sorted_terms()
        ]

    @classmethod
    def from_json_terms(cls, nvars: int, data: Iterable) -> "Poly":
        terms = {tuple(m): Fraction(num, den) for num, den, m in data}
        return cls(nvars, terms)

    def __repr__(self) -> str:
        if not self.terms:
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
        terms: Dict[Monomial, Fraction] = {}
        if self.constant:
            terms[(0,) * self.nvars] = Fraction(self.constant)
        for i, c in enumerate(self.coeffs):
            if c:
                mono = tuple(1 if j == i else 0 for j in range(self.nvars))
                terms[mono] = Fraction(c)
        return Poly(self.nvars, terms)

    def shift(self, delta: int) -> "LinearForm":
        return LinearForm(self.constant + delta, self.coeffs)

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
# exact division and gcd


def exact_div(p: Poly, q: Poly) -> Poly:
    """Exact polynomial division p / q; raises ArithmeticError if not exact."""
    if q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    p._check_compatible(q)
    if p.is_zero():
        return Poly.zero(p.nvars)
    lm_q = q.leading_monomial()
    lc_q = q.terms[lm_q]
    rem = dict(p.terms)
    quot: Dict[Monomial, Fraction] = {}
    while rem:
        lm_r = max(rem, key=glex_key)
        diff = tuple(a - b for a, b in zip(lm_r, lm_q))
        if any(d < 0 for d in diff):
            raise ArithmeticError("division is not exact")
        c = rem[lm_r] / lc_q
        quot[diff] = c
        for m2, c2 in q.terms.items():
            mono = tuple(a + b for a, b in zip(diff, m2))
            s = rem.get(mono, Fraction(0)) - c * c2
            if s:
                rem[mono] = s
            elif mono in rem:
                del rem[mono]
    return Poly._raw(p.nvars, quot)


def _frac_content(p: Poly) -> Fraction:
    """Positive rational c with p/c integer-primitive (content 1)."""
    num_gcd = 0
    den_lcm = 1
    for c in p.terms.values():
        num_gcd = gcd(num_gcd, abs(c.numerator))
        den_lcm = den_lcm * c.denominator // gcd(den_lcm, c.denominator)
    return Fraction(num_gcd, den_lcm)


def make_primitive(p: Poly) -> Poly:
    """Scale to integer coefficients with content 1 and positive leading coeff."""
    if p.is_zero():
        return p
    c = _frac_content(p)
    q = p.scale(1 / c)
    if q.leading_coeff() < 0:
        q = -q
    return q


def _coeffs_in_var(p: Poly, var: int) -> Dict[int, Poly]:
    """View p as univariate in ``var``: degree -> coefficient polynomial."""
    out: Dict[int, Dict[Monomial, Fraction]] = {}
    for mono, c in p.terms.items():
        d = mono[var]
        rest = list(mono)
        rest[var] = 0
        out.setdefault(d, {})[tuple(rest)] = c
    return {d: Poly._raw(p.nvars, t) for d, t in out.items()}


def _from_coeffs_in_var(nvars: int, var: int, coeffs: Dict[int, Poly]) -> Poly:
    out: Dict[Monomial, Fraction] = {}
    for d, poly in coeffs.items():
        for mono, c in poly.terms.items():
            mo = list(mono)
            mo[var] += d
            out[tuple(mo)] = c
    return Poly._raw(nvars, out)


def _content_in_var(p: Poly, var: int) -> Poly:
    coeffs = _coeffs_in_var(p, var)
    content = Poly.zero(p.nvars)
    for poly in coeffs.values():
        content = poly_gcd(content, poly)
        if content.is_constant():
            break
    return content


def _prem(p: Poly, q: Poly, var: int) -> Poly:
    """Pseudo-remainder of p by q with respect to ``var``."""
    dq = q.degree_in(var)
    lq = _coeffs_in_var(q, var)[dq]
    r = p
    e = p.degree_in(var) - dq + 1
    while not r.is_zero() and r.degree_in(var) >= dq:
        dr = r.degree_in(var)
        lr = _coeffs_in_var(r, var)[dr]
        shift = Poly.variable(p.nvars, var) ** (dr - dq)
        r = r * lq - q * lr * shift
        e -= 1
    if e > 0:
        r = r * lq**e
    return r


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Gcd over Q[a_1..a_n], returned integer-primitive with positive lead.

    Content extraction plus a primitive pseudo-remainder sequence; exactness
    throughout, no floating point anywhere.
    """
    if p.is_zero():
        return make_primitive(q)
    if q.is_zero():
        return make_primitive(p)
    p._check_compatible(q)
    if p.is_constant() or q.is_constant():
        return Poly.const(p.nvars, 1)
    var = next(
        i for i in range(p.nvars) if p.degree_in(i) > 0 or q.degree_in(i) > 0
    )
    if p.degree_in(var) == 0:
        return poly_gcd(p, _content_in_var(q, var))
    if q.degree_in(var) == 0:
        return poly_gcd(_content_in_var(p, var), q)

    cont_p = _content_in_var(p, var)
    cont_q = _content_in_var(q, var)
    a = make_primitive(exact_div(p, cont_p))
    b = make_primitive(exact_div(q, cont_q))
    if a.degree_in(var) < b.degree_in(var):
        a, b = b, a
    while True:
        r = _prem(a, b, var)
        if r.is_zero():
            g = exact_div(b, _content_in_var(b, var))
            break
        if r.degree_in(var) == 0:
            g = Poly.const(p.nvars, 1)
            break
        a, b = b, make_primitive(exact_div(r, _content_in_var(r, var)))
    return make_primitive(poly_gcd(cont_p, cont_q) * g)
