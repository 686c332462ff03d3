"""Golden strings, in both styles, for the render paths that no pinned
document or benchmark reference reaches."""

from fractions import Fraction

import pytest

from dysonct.conjecture import ClosedForm
from dysonct.laurent import pk_expansion
from dysonct.poly import Poly
from dysonct.ratfunc import RatFunc
from dysonct.render import ASCII, LATEX, fmt_c_symbol, fmt_closed_form, fmt_pk_coeff

A1, A2, ONE = Poly.variable(2, 0), Poly.variable(2, 1), Poly.const(2, 1)
NONSPLIT = A1 * A1 + A2 + ONE

FORMS = {
    "rational-coefficient": (
        RatFunc.make(A1 + Poly.const(2, Fraction(1, 2)), ONE + A2),
        "(1/2)*(1+2a_1) * (a_1+a_2)! / ((1+a_2) * a_1! a_2!)",
        r"\frac{\tfrac{1}{2} (1+2a_{1}) (a_{1}+a_{2})!}{(1+a_{2}) a_{1}!\, a_{2}!}",
    ),
    "rational-coefficient-expanded": (
        RatFunc.make(A1 * A1 + Poly.const(2, Fraction(1, 2)) * A2 + ONE, ONE),
        "a_1^2 + (1/2)*a_2 + 1 * (a_1+a_2)! / (a_1! a_2!)",
        r"\frac{(a_{1}^{2} + \tfrac{1}{2} a_{2} + 1) (a_{1}+a_{2})!}{a_{1}!\, a_{2}!}",
    ),
    "minus-one-coefficient": (
        RatFunc.make(-A2, ONE + A1),
        "-1*a_2 * (a_1+a_2)! / ((1+a_1) * a_1! a_2!)",
        r"\frac{-a_{2} (a_{1}+a_{2})!}{(1+a_{1}) a_{1}!\, a_{2}!}",
    ),
    "minus-one-coefficient-nonsplitting-denominator": (
        RatFunc.make(-A2 * (ONE + A1), NONSPLIT),
        "-1*a_2*(1+a_1) * (a_1+a_2)! / (a_1^2 + a_2 + 1 * a_1! a_2!)",
        r"\frac{-a_{2} (1+a_{1}) (a_{1}+a_{2})!}{(a_{1}^{2} + a_{2} + 1) a_{1}!\, a_{2}!}",
    ),
    "constant-numerator": (
        RatFunc.make(Poly.const(2, -1), ONE + A1),
        "-1 * (a_1+a_2)! / ((1+a_1) * a_1! a_2!)",
        r"\frac{-1 (a_{1}+a_{2})!}{(1+a_{1}) a_{1}!\, a_{2}!}",
    ),
    "nonsplitting-denominator": (
        RatFunc.make(A1, NONSPLIT),
        "a_1 * (a_1+a_2)! / (a_1^2 + a_2 + 1 * a_1! a_2!)",
        r"\frac{a_{1} (a_{1}+a_{2})!}{(a_{1}^{2} + a_{2} + 1) a_{1}!\, a_{2}!}",
    ),
    "zero": (RatFunc.make(Poly.zero(2), ONE), "0", "0"),
}


@pytest.mark.parametrize("name", FORMS)
def test_closed_form(name):
    R, ascii_text, latex_text = FORMS[name]
    form = ClosedForm(2, (0, 0), R)
    assert fmt_closed_form(form, ASCII) == ascii_text
    assert fmt_closed_form(form, LATEX) == latex_text


def test_pk_coeff_over_a_factorial_with_odd_sign():
    terms = {t.m: t for t in pk_expansion(3, 0, (3, -1, -2)).terms}
    expected = {
        (0, 3): ("-(a_3(a_3-1)(a_3-2))/6", r"-\frac{a_{3}(a_{3}-1)(a_{3}-2)}{6}"),
        (1, 2): ("-(a_2 a_3(a_3-1))/2", r"-\frac{a_{2} a_{3}(a_{3}-1)}{2}"),
        (2, 1): ("-(a_2(a_2-1) a_3)/2", r"-\frac{a_{2}(a_{2}-1) a_{3}}{2}"),
        (3, 0): ("-(a_2(a_2-1)(a_2-2))/6", r"-\frac{a_{2}(a_{2}-1)(a_{2}-2)}{6}"),
    }
    assert set(terms) == set(expected)
    for m, (ascii_text, latex_text) in expected.items():
        assert fmt_pk_coeff(terms[m], [1, 2], ASCII) == ascii_text
        assert fmt_pk_coeff(terms[m], [1, 2], LATEX) == latex_text


def test_c_symbol_with_custom_a_text():
    assert fmt_c_symbol(3, (1, -1, 0), ASCII, a_text="X") == "c_3(X; <1,-1,0>)"
    assert fmt_c_symbol(3, (1, -1, 0), LATEX, a_text="X") == r"c_{3}(X; \langle 1,-1,0 \rangle)"
    assert fmt_c_symbol(3, (1, -1, 0), ASCII) == "c_3(a; <1,-1,0>)"
    assert fmt_c_symbol(3, (1, -1, 0), LATEX) == r"c_{3}(\mathbf{a}; \langle 1,-1,0 \rangle)"
