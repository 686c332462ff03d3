from fractions import Fraction

import pytest

from dysonct.conjecture import (
    GuessExhausted,
    SampleSet,
    ansatz_factor,
    guess_dyson,
    guess_dyson_with_details,
    guess_rat,
    sample_grid,
)
from dysonct.laurent import ct, multinomial
from dysonct.poly import Poly
from dysonct.ratfunc import RatFunc


def _vars(n):
    return [Poly.variable(n, i) for i in range(n)]


def known_R_2m1m1():
    a = _vars(3)
    one, two = Poly.const(3, 1), Poly.const(3, 2)
    return RatFunc.make(
        a[1] * a[2] * (two + 2 * a[0] + a[1] + a[2]),
        (one + a[0] + a[1]) * (one + a[0] + a[2]) * (one + a[0]),
    )


def test_ansatz_trivial_for_nonnegative_b():
    assert ansatz_factor((0, 0, 0)).value == RatFunc.one(3)
    assert ansatz_factor((2, 2, -0, 0)).value == RatFunc.one(4)


def test_ansatz_two_negative_components():
    a = _vars(3)
    one = Poly.const(3, 1)
    expected = RatFunc.make(a[1] * a[2], (one + a[0] + a[2]) * (one + a[0] + a[1]))
    assert ansatz_factor((2, -1, -1)).value == expected


def test_ansatz_f4_example():
    a = _vars(4)
    one, two, three = (Poly.const(4, c) for c in (1, 2, 3))
    s = a[1] + a[2] + a[3]
    expected = RatFunc.make(
        a[0] * (a[0] - one) * a[2],
        (one + s) * (two + s) * (three + s) * (one + a[0] + a[1] + a[3]),
    )
    assert ansatz_factor((-3, 2, -1, 2)).value == expected


def test_sample_grid_first_point_and_prefix_determinism():
    assert sample_grid(3, (0, 0, 0), 1) == [(2, 3, 4)]
    long = sample_grid(3, (0, 0, 0), 40)
    assert sample_grid(3, (0, 0, 0), 10) == long[:10]
    assert len(set(long)) == 40


def test_sample_grid_lower_bound_rule():
    pts = sample_grid(2, (4, -4), 12)
    assert all(min(p) >= 4 for p in pts)


def test_sample_grid_keeps_ansatz_finite():
    b = (-3, 2, -1, 2)
    factor = ansatz_factor(b).value
    for p in sample_grid(4, b, 15):
        assert factor.num.evaluate(p) != 0
        assert factor.den.evaluate(p) != 0


def test_guess_rat_constant():
    pts = sample_grid(2, (0, 0), 12)
    samples = SampleSet(pts, [Fraction(1)] * len(pts))
    assert guess_rat(samples, 0) == RatFunc.one(2)


def test_guess_rat_exact_rational():
    pts = sample_grid(2, (0, 0), 30)
    samples = SampleSet(pts, [Fraction(p[0], p[0] + p[1]) for p in pts])
    a1, a2 = Poly.variable(2, 0), Poly.variable(2, 1)
    assert guess_rat(samples, 2) == RatFunc.make(a1, a1 + a2)


def test_guess_rat_scaled_constant_term_ratio():
    # c_3(a; <-1,0,1>) / multinomial has the closed form -a_1/(1+a_2+a_3)
    b = (-1, 0, 1)
    pts = sample_grid(3, b, 45)
    samples = SampleSet(pts, [Fraction(ct(3, p, b), multinomial(p)) for p in pts])
    a = _vars(3)
    expected = RatFunc.make(-a[0], Poly.const(3, 1) + a[1] + a[2])
    assert guess_rat(samples, 3) == expected


def test_guess_rat_no_fit_returns_none():
    pts = sample_grid(2, (0, 0), 20)
    # factorial growth is not a rational function of low degree
    from math import factorial

    samples = SampleSet(pts, [Fraction(factorial(p[0])) for p in pts])
    assert guess_rat(samples, 1) is None


def test_guess_rat_duplicate_points():
    with pytest.raises(ValueError):
        SampleSet([(2, 3), (2, 3)], [Fraction(1), Fraction(2)])
    # consistent duplicates collapse
    s = SampleSet([(2, 3), (2, 3)], [Fraction(1), Fraction(1)])
    assert len(s.points) == 1


def test_guess_rat_needs_enough_samples():
    pts = sample_grid(2, (0, 0), 6)
    samples = SampleSet(pts, [Fraction(1)] * len(pts))
    with pytest.raises(ValueError):
        guess_rat(samples, 3)


def test_guess_dyson_multinomial_case():
    form = guess_dyson(3, (0, 0, 0))
    assert form.R == RatFunc.one(3)


def test_guess_dyson_zero_sum_shortcut():
    form = guess_dyson(3, (1, 0, 0))
    assert form.R.is_zero()
    # shortcut agrees with the oracle on sampled points
    for p in sample_grid(3, (1, 0, 0), 8):
        assert ct(3, p, (1, 0, 0)) == 0


def test_guess_dyson_form_2m1m1():
    form, details = guess_dyson_with_details(3, (2, -1, -1))
    assert form.R == known_R_2m1m1()
    assert details.t == 2  # residual after removing the ansatz factor
    assert details.used_ansatz


def test_guess_dyson_single_move_form():
    form = guess_dyson(3, (-1, 0, 1))
    a = _vars(3)
    assert form.R == RatFunc.make(-a[0], Poly.const(3, 1) + a[1] + a[2])


def test_guess_dyson_matches_oracle_on_fresh_points():
    form = guess_dyson(3, (2, -1, -1))
    grid = sample_grid(3, (2, -1, -1), 60)
    for p in grid[-5:]:
        assert form.evaluate(p) == ct(3, p, (2, -1, -1))


def test_guess_dyson_superset_stability():
    # refitting on a strictly larger prefix of the same grid gives the same R
    b = (2, -1, -1)
    pts = sample_grid(3, b, 60)
    from dysonct.conjecture import ansatz_factor as af

    factor = af(b).value
    vals = [Fraction(ct(3, p, b), multinomial(p)) / factor.evaluate(p) for p in pts]
    small = guess_rat(SampleSet(pts[:25], vals[:25]), 2)
    large = guess_rat(SampleSet(pts, vals), 2)
    assert small is not None and small == large


def test_ansatz_lowers_fit_degree_for_2m1m1():
    with_f, with_d = guess_dyson_with_details(3, (2, -1, -1), use_ansatz=True)
    without_f, without_d = guess_dyson_with_details(3, (2, -1, -1), use_ansatz=False)
    assert with_d.t < without_d.t
    assert with_f.R == without_f.R
    # the residual really is smaller than the full rational function
    assert with_d.residual.total_degree() < with_f.R.total_degree()


def test_guess_exhausted_carries_samples():
    with pytest.raises(GuessExhausted) as info:
        guess_dyson(3, (2, -1, -1), max_t=0)
    err = info.value
    assert err.max_t == 0
    assert len(err.samples.points) > 0
    assert err.b == (2, -1, -1)


def test_pole_at_fresh_point_fails_validation():
    # The t = 1 fit samples the first 13 grid points and validates on the
    # next ones. The oracle agrees with 1/L on every point except the first
    # fresh one, where L vanishes and the oracle stays finite, so the t = 1
    # candidate must be rejected rather than evaluated at its pole.
    b = (0, 0, 0)
    weights = (1, 10, 100)  # L = 0 at no other grid point these fits reach
    first_fresh = sample_grid(3, b, 14)[-1]
    K = sum(w * x for w, x in zip(weights, first_fresh))

    def oracle(n, p, b):
        L = sum(w * x for w, x in zip(weights, p)) - K
        return multinomial(p) * Fraction(1, L) if L else 0

    with pytest.raises(GuessExhausted):
        guess_dyson(3, b, max_t=1, use_ansatz=False, oracle=oracle)
    form, details = guess_dyson_with_details(3, b, max_t=3, use_ansatz=False, oracle=oracle)
    a = _vars(3)
    L = a[0] + 10 * a[1] + 100 * a[2] - Poly.const(3, K)
    assert form.R == RatFunc.make(Poly.const(3, 1), L)
    assert details.t == 2
