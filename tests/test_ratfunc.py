import random
from fractions import Fraction

import pytest

from dysonct.poly import Poly
from dysonct.ratfunc import RatFunc


def test_telescoping_sum():
    # a_1/(a_1+a_2) + a_2/(a_1+a_2): the common factor cancels completely
    a1, a2 = Poly.variable(2, 0), Poly.variable(2, 1)
    assert RatFunc.sum_over([(a1, [a1 + a2], 1), (a2, [a1 + a2], 1)]) == RatFunc.const(2, 1)


def test_cancellation():
    # -a_1/(1+a_2+a_3) times 1+a_2+a_3
    one = Poly.const(3, 1)
    a = [Poly.variable(3, i) for i in range(3)]
    r = RatFunc.over(-a[0] * (one + a[1] + a[2]), [one + a[1] + a[2]], 1)
    assert r == RatFunc(-a[0], one)


def test_zero_division_is_domain_error():
    a1 = Poly.variable(2, 0)
    with pytest.raises(ZeroDivisionError):
        RatFunc.over(a1, [], 0)
    with pytest.raises(ZeroDivisionError):
        RatFunc.coprime(a1, Poly.zero(2))


def test_canonical_form_soundness_random():
    rng = random.Random(11)
    a = [Poly.variable(2, i) for i in range(2)]
    pool = [a[0], a[1], a[0] + a[1], a[0] - a[1], a[0] + Poly.const(2, 1)]
    for _ in range(25):
        p = pool[rng.randrange(len(pool))] * rng.randint(1, 3) + Poly.const(2, rng.randint(-2, 2))
        q = pool[rng.randrange(len(pool))] + Poly.const(2, rng.randint(1, 3))
        assert RatFunc.over(p * q, [q], 1) == RatFunc(p, Poly.const(2, 1))


def test_over_divides_out_repeated_and_associated_factors():
    # (a_1+1)^2 a_2 / (2 (a_1+1) (2 a_1+2) (a_2+3)): one factor a_1+1 and an
    # associate of it cancel, the rest stays, and the denominator is monic
    a1, a2 = Poly.variable(2, 0), Poly.variable(2, 1)
    one = Poly.const(2, 1)
    f = a1 + one
    r = RatFunc.over(f * f * a2, [f, f.scale(2), a2 + one * 3], 2)
    assert r == RatFunc.coprime(a2, (a2 + one * 3).scale(4))
    assert r.den.leading_coeff() == 1 and r.num == a2.scale(Fraction(1, 4))


def test_sum_over_brings_terms_over_the_lcm_of_their_factors():
    # 1/(a_1+1) - 1/(a_1+2) = 1/((a_1+1)(a_1+2)), and a sum that cancels is 0
    a1 = Poly.variable(2, 0)
    one = Poly.const(2, 1)
    r = RatFunc.sum_over([(one, [a1 + one], 1), (-one, [a1 + one * 2], 1)])
    assert r == RatFunc.coprime(one, (a1 + one) * (a1 + one * 2))
    assert RatFunc.sum_over([(a1, [a1 + one], 2), (-a1, [a1 + one], 2)]) == RatFunc.zero(2)


def test_denominator_is_monic_under_glex():
    a1, a2 = Poly.variable(2, 0), Poly.variable(2, 1)
    r = RatFunc.coprime(a2, (a1 + a2).scale(3))
    assert r.den.leading_coeff() == 1
    assert r.num == a2.scale(Fraction(1, 3))


def test_permute_stays_canonical():
    a = [Poly.variable(3, i) for i in range(3)]
    one = Poly.const(3, 1)
    r = RatFunc.over(a[0] * a[1], [one + a[2], one + a[0]], 1)
    permuted = r.permute_vars((2, 0, 1))
    assert permuted.den.leading_coeff() == 1
    assert permuted.permute_vars((1, 2, 0)) == r


def test_evaluate_and_pole():
    a1, a2 = Poly.variable(2, 0), Poly.variable(2, 1)
    r = RatFunc.coprime(a1, a1 - a2)
    assert r.evaluate([3, 1]) == Fraction(3, 2)
    with pytest.raises(ZeroDivisionError):
        r.evaluate([2, 2])


def test_serialization_roundtrip():
    a = [Poly.variable(3, i) for i in range(3)]
    r = RatFunc.over(a[0] * 2 + a[1], [a[2] + Poly.const(3, 1)], 5)
    assert RatFunc.from_json(3, r.to_json()) == r
