"""Shared test helpers, chiefly the independent constant-term oracle."""

from __future__ import annotations

from dysonct.laurent import LaurentPoly
from dysonct.poly import Poly, exact_div, linear_factors


def literal_ct(n: int, a, b) -> int:
    """Constant-term oracle by literal expansion of every (1 - x_i/x_j)^{a_j}.

    Deliberately naive (full product, no slicing, no pair merging) so it is
    an independent check on the production path; only usable for small a.
    """
    f = LaurentPoly.one(n)
    for j in range(n):
        for i in range(n):
            if i == j:
                continue
            expo = tuple(1 if t == i else (-1 if t == j else 0) for t in range(n))
            base = LaurentPoly(n, {(0,) * n: 1, expo: -1})
            for _ in range(a[j]):
                f = f * base
    return f.coefficient(tuple(b))


def assert_canonical(r, num: Poly, den: Poly, factors) -> None:
    """Assert that the RatFunc r is num/den in canonical form, with no gcd:
    the same function (by cross-multiplication), a monic denominator, and
    no linear polynomial of ``factors`` dividing both r's numerator and its
    denominator.  When ``factors`` holds every irreducible factor of den,
    as the linear factors of a den that splits into them do, that is the
    uniqueness of the canonical form: a common factor of r's numerator and
    denominator would be one of them."""
    assert r.num * den == num * r.den
    assert r.den.leading_coeff() == 1
    for f in factors:
        assert not (_divides(f, r.num) and _divides(f, r.den)), f


def _divides(f: Poly, p: Poly) -> bool:
    try:
        exact_div(p, f)
    except ArithmeticError:
        return False
    return True


def sum_term(r, coeff: Poly):
    """coeff * r as a term (num, factors, constant) of RatFunc.sum_over;
    r's denominator must split into positive linear factors."""
    split = linear_factors(r.den)
    assert split is not None
    return coeff * r.num, [f.to_poly() for f in split[0]], split[1]


def split_factors(p: Poly):
    """The linear factors of p, which must split into positive ones, as
    polynomials."""
    split = linear_factors(p)
    assert split is not None
    return [f.to_poly() for f in split[0]]


def poly_vars(nvars: int):
    """The variable polynomials a_1..a_n plus the constant-builder."""
    return [Poly.variable(nvars, i) for i in range(nvars)]


def latex_balanced(text: str) -> bool:
    """Smoke check used by the document tests: delimiters and environments pair up."""
    depth = 0
    for ch in text:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth < 0:
                return False
    if depth != 0:
        return False
    if text.count(r"\[") != text.count(r"\]"):
        return False
    begins = [m for m in _environments(text, r"\begin{")]
    ends = [m for m in _environments(text, r"\end{")]
    return begins == ends


def _environments(text: str, marker: str):
    out = []
    idx = 0
    while True:
        idx = text.find(marker, idx)
        if idx < 0:
            return out
        close = text.find("}", idx)
        out.append(text[idx + len(marker) : close])
        idx = close
