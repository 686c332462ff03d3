import random
from fractions import Fraction

import pytest

from dysonct.poly import Poly
from dysonct.ratfunc import RatFunc


def test_telescoping_sum():
    a1, a2 = Poly.variable(2, 0), Poly.variable(2, 1)
    r = RatFunc.make(a1, a1 + a2)
    s = RatFunc.make(a2, a1 + a2)
    assert r + s == RatFunc.one(2)


def test_self_division():
    a1, a2 = Poly.variable(2, 0), Poly.variable(2, 1)
    r = RatFunc.make(a1 * a2 + a2 * 3, a1 + Poly.const(2, 5))
    assert r / r == RatFunc.one(2)


def test_cancellation():
    one = Poly.const(3, 1)
    a = [Poly.variable(3, i) for i in range(3)]
    r = RatFunc.make(-a[0], one + a[1] + a[2])
    s = RatFunc.from_poly(one + a[1] + a[2])
    assert r * s == RatFunc.make(-a[0], one)


def test_zero_division_is_domain_error():
    r = RatFunc.one(2)
    with pytest.raises(ZeroDivisionError):
        r / RatFunc.zero(2)


def test_canonical_form_soundness_random():
    rng = random.Random(11)
    a = [Poly.variable(2, i) for i in range(2)]
    pool = [a[0], a[1], a[0] + a[1], a[0] - a[1], a[0] + Poly.const(2, 1)]
    for _ in range(25):
        p = pool[rng.randrange(len(pool))] * rng.randint(1, 3) + Poly.const(2, rng.randint(-2, 2))
        q = pool[rng.randrange(len(pool))] + Poly.const(2, rng.randint(1, 3))
        if q.is_zero():
            continue
        assert RatFunc.make(p * q, q) == RatFunc.make(p, Poly.const(2, 1))


def test_denominator_is_monic_under_glex():
    a1, a2 = Poly.variable(2, 0), Poly.variable(2, 1)
    r = RatFunc.make(a2, (a1 + a2).scale(3))
    assert r.den.leading_coeff() == 1
    assert r.num == a2.scale(Fraction(1, 3))


def test_shift_and_permute_stay_canonical():
    a = [Poly.variable(3, i) for i in range(3)]
    one = Poly.const(3, 1)
    r = RatFunc.make(a[0] * a[1], (one + a[2]) * (one + a[0]))
    shifted = r.shift_var(0, -1)
    assert shifted == RatFunc.make(r.num.shift_var(0, -1), r.den.shift_var(0, -1))
    permuted = r.permute_vars((2, 0, 1))
    assert permuted.den.leading_coeff() == 1
    assert permuted.permute_vars((1, 2, 0)) == r


def test_evaluate_and_pole():
    a1, a2 = Poly.variable(2, 0), Poly.variable(2, 1)
    r = RatFunc.make(a1, a1 - a2)
    assert r.evaluate([3, 1]) == Fraction(3, 2)
    with pytest.raises(ZeroDivisionError):
        r.evaluate([2, 2])


def test_serialization_roundtrip():
    a = [Poly.variable(3, i) for i in range(3)]
    r = RatFunc.make(a[0] * 2 + a[1], (a[2] + Poly.const(3, 1)) * 5)
    assert RatFunc.from_json(3, r.to_json()) == r
