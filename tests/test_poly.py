from fractions import Fraction
from math import comb

import pytest

from dysonct.poly import (
    LinearForm,
    Poly,
    binomial_poly,
    exact_div,
    glex_key,
)


def vars3():
    return [Poly.variable(3, i) for i in range(3)]


def test_difference_of_squares():
    a1, a2 = Poly.variable(2, 0), Poly.variable(2, 1)
    assert (a1 + a2) * (a1 - a2) == a1 * a1 - a2 * a2


def test_add_zero_is_identity():
    a1, a2 = Poly.variable(2, 0), Poly.variable(2, 1)
    p = a1 * a2 + a2 * 3
    assert p + Poly.zero(2) == p


def test_binomial_evaluation_matches_integer_binomial():
    # a_1(a_1-1)/2 at a_1 = 4 is C(4,2) = 6
    a1 = Poly.variable(1, 0)
    p = (a1 * (a1 - Poly.const(1, 1))).scale(Fraction(1, 2))
    assert p.evaluate([4]) == 6


def test_mismatched_nvars_rejected():
    p, q = Poly.variable(2, 0), Poly.variable(3, 0)
    for op in (Poly.__add__, Poly.__sub__, Poly.__mul__):
        with pytest.raises(ValueError):
            op(p, q)


def test_glex_order_prefers_first_variable():
    a1, a2, a3 = vars3()
    p = a2 * a2 + a1 * a3 + a3
    # graded-lex with a_1 > a_2 > a_3: degree-2 monomials first, a_1 a_3 wins
    assert p.leading_monomial() == (1, 0, 1)
    assert glex_key((1, 0, 1)) > glex_key((0, 2, 0))


def test_shift_var():
    a1, a2, _ = vars3()
    p = a1 * a1
    shifted = p.shift_var(0, -1)
    assert shifted == a1 * a1 - 2 * a1 + Poly.const(3, 1)
    assert p.shift_var(0, 1).shift_var(0, -1) == p


def test_permute_vars_roundtrip():
    a1, a2, a3 = vars3()
    p = a1 * a1 * a2 + a3 * 5
    q = p.permute_vars((1, 2, 0))
    assert q != p
    inv = (2, 0, 1)
    assert q.permute_vars(inv) == p


def test_at_zero():
    a1, a2, a3 = vars3()
    p = a1 * a2 + a3 * a2
    at_zero = p.at_zero(0)
    assert at_zero.nvars == 2
    assert at_zero == Poly.variable(2, 1) * Poly.variable(2, 0)
    assert (a1 * a2).at_zero(0) == Poly.zero(2)
    # a polynomial free of the variable only loses its slot
    assert (a2 + a3).at_zero(0) == Poly.variable(2, 0) + Poly.variable(2, 1)
    # dropping a1/2 leaves a2 + a3 with denominator 1, not 2
    q = a1.scale(Fraction(1, 2)) + a2 + a3
    assert q.den == 2
    lowered = q.at_zero(0)
    assert lowered.den == 1
    assert lowered == Poly.variable(2, 0) + Poly.variable(2, 1)


def test_binomial_poly_examples():
    assert binomial_poly(3, 1, 0) == Poly.const(3, 1)
    a2 = Poly.variable(3, 1)
    expected = (a2 * (a2 - Poly.const(3, 1))).scale(Fraction(1, 2))
    assert binomial_poly(3, 1, 2) == expected
    assert binomial_poly(3, 2, 1) == Poly.variable(3, 2)


def test_binomial_poly_matches_binomial_coefficients():
    for m in range(9):
        p = binomial_poly(1, 0, m)
        for n in range(m, 9):
            assert p.evaluate([n]) == comb(n, m)


def test_exact_div_and_failure():
    a1, a2, _ = vars3()
    p = (a1 + a2) * (a1 - a2)
    assert exact_div(p, a1 + a2) == a1 - a2
    with pytest.raises(ArithmeticError):
        exact_div(a1 * a1 + Poly.const(3, 1), a1 + a2)


def test_linear_form_to_poly():
    f = LinearForm(2, (1, 0, 3))
    p = f.to_poly()
    assert p.evaluate([1, 10, 2]) == 2 + 1 + 6
    assert f.is_positive_on_grid()
    assert not LinearForm(0, (1, 0, 0)).is_positive_on_grid()
    assert not LinearForm(1, (-1, 0, 0)).is_positive_on_grid()


def test_serialization_roundtrip():
    a1, a2, a3 = vars3()
    p = a1 * a2 * 7 - a3.scale(Fraction(2, 3)) + Poly.const(3, 1)
    data = p.to_json_terms()
    assert Poly.from_json_terms(3, data) == p
    # glex-descending order in the serialized form
    degrees = [sum(m) for _, _, m in data]
    assert degrees == sorted(degrees, reverse=True)


def test_exact_div_by_non_primitive_non_monic_divisor():
    a1, a2, _ = vars3()
    one = Poly.const(3, 1)
    assert exact_div(a1 + one, 2 * a1 + 2 * one) == Poly.const(3, Fraction(1, 2))
    p = (2 * a1 + 4 * one) * (a2.scale(Fraction(1, 3)) + one)
    expected = (a2 + 3 * one).scale(Fraction(1, 9))
    assert exact_div(p, 6 * a1 + 12 * one) == expected
    assert exact_div(p, (6 * a1 + 12 * one).scale(Fraction(-1, 5))) == expected * -5


def test_exact_div_rejects_inexact_integer_step():
    a1, _, _ = vars3()
    one = Poly.const(3, 1)
    # the leading monomials divide, but a1^2 / (2 a1) is not integral
    with pytest.raises(ArithmeticError):
        exact_div(a1 * a1 + one, 2 * a1 + one)


def test_every_route_gives_one_canonical_form():
    a1, a2, a3 = vars3()
    one = Poly.const(3, 1)
    direct = Poly(
        3, {(1, 0, 0): Fraction(1, 6), (0, 1, 1): Fraction(-2, 3), (0, 0, 0): Fraction(3, 2)}
    )
    integer = a1 - 4 * a2 * a3 + 9 * one
    routes = [
        integer.scale(Fraction(1, 6)),
        integer.scale(Fraction(5, 6)).scale(Fraction(1, 5)),
        a1.scale(Fraction(1, 6)) - (a2 * a3).scale(Fraction(2, 3)) + Poly.const(3, Fraction(3, 2)),
        (a1.scale(Fraction(1, 2)) + Poly.const(3, Fraction(1, 4))) * Poly.const(3, Fraction(1, 3))
        - (a2 * a3).scale(Fraction(2, 3))
        + Poly.const(3, Fraction(17, 12)),
        exact_div(integer * (3 * a2 + 6 * one), 18 * a2 + 36 * one),
        exact_div(direct * (a1 - a3).scale(Fraction(2, 7)), (a1 - a3).scale(Fraction(2, 7))),
        Poly.from_json_terms(3, direct.to_json_terms()),
    ]
    for p in routes:
        assert p == direct
        assert hash(p) == hash(direct)
    assert direct.coefficient((0, 1, 1)) == Fraction(-2, 3)
    assert direct.leading_coeff() == Fraction(-2, 3)
    assert direct.constant_value() == Fraction(3, 2)
    zero = direct - direct
    assert zero == Poly.zero(3) and hash(zero) == hash(Poly.zero(3))


def test_json_terms_are_reduced_per_coefficient():
    a1, a2, a3 = vars3()
    p = (
        a1 * a2.scale(Fraction(-3, 4))
        + a3.scale(Fraction(5, 6))
        + a2.scale(Fraction(-7, 1))
        + Poly.const(3, Fraction(1, 12))
    )
    data = p.to_json_terms()
    assert data == [
        [-3, 4, [1, 1, 0]],
        [-7, 1, [0, 1, 0]],
        [5, 6, [0, 0, 1]],
        [1, 12, [0, 0, 0]],
    ]
    back = Poly.from_json_terms(3, data)
    assert back == p and back.to_json_terms() == data
    assert Poly.from_json_terms(3, []) == Poly.zero(3)
