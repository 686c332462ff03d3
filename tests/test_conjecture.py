import math
import random
from fractions import Fraction
from typing import List, Optional, Tuple

import pytest

import dysonct.conjecture as conjecture
from dysonct.conjecture import (
    HOLDOUT,
    AmbiguousFit,
    GuessExhausted,
    SampleSet,
    _max_unknowns,
    _Screen,
    _mono_values,
    _monomials_up_to,
    ansatz_factor,
    guess_dyson,
    guess_dyson_with_details,
    guess_rat,
    sample_grid,
)
from dysonct.laurent import ct, multinomial
from dysonct.linalg import FIRST_PRIME, _clear_row, solve_nullspace
from dysonct.poly import Poly
from dysonct.ratfunc import RatFunc
from dysonct.turbo import zero_sum_vectors


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
    assert ansatz_factor((0, 0, 0)) == RatFunc.one(3)
    assert ansatz_factor((2, 2, -0, 0)) == RatFunc.one(4)


def test_ansatz_two_negative_components():
    a = _vars(3)
    one = Poly.const(3, 1)
    expected = RatFunc.make(a[1] * a[2], (one + a[0] + a[2]) * (one + a[0] + a[1]))
    assert ansatz_factor((2, -1, -1)) == expected


def test_ansatz_f4_example():
    a = _vars(4)
    one, two, three = (Poly.const(4, c) for c in (1, 2, 3))
    s = a[1] + a[2] + a[3]
    expected = RatFunc.make(
        a[0] * (a[0] - one) * a[2],
        (one + s) * (two + s) * (three + s) * (one + a[0] + a[1] + a[3]),
    )
    assert ansatz_factor((-3, 2, -1, 2)) == expected


def test_sample_grid_first_point_and_prefix_determinism():
    assert sample_grid(3, (0, 0, 0), 1) == [(2, 3, 4)]
    long = sample_grid(3, (0, 0, 0), 40)
    assert sample_grid(3, (0, 0, 0), 10) == long[:10]
    assert len(set(long)) == 40


def test_sample_grid_lower_bound_rule():
    pts = sample_grid(2, (4, -4), 12)
    assert all(min(p) >= 4 for p in pts)


def test_sample_grid_keeps_ansatz_finite():
    # the grid has no guard for the factor's zeros and poles, as it needs none
    cases = [(-3, 2, -1, 2)] + [b for n in range(1, 5) for b in zero_sum_vectors(n, 3)]
    for b in cases:
        factor = ansatz_factor(b)
        for poly in (factor.num, factor.den):
            # the integer numerators over poly.den: zero exactly where poly is
            terms = list(poly.coeffs.items())
            for p in sample_grid(len(b), b, 200):
                assert sum(c * math.prod(map(pow, p, m)) for m, c in terms), (b, p)


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

    factor = af(b)
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


@pytest.mark.parametrize(
    "b, use_ansatz, calls", [((2, -1, -1), False, 98), ((2, -1, -1), True, 24), ((1, 1, -1, -1, 0), True, 245)]
)
def test_oracle_is_called_once_at_each_grid_point_in_order(b, use_ansatz, calls):
    # the fit samples and then the 5 fresh points are one grid prefix
    seen = []

    def oracle(n, p, b):
        seen.append(p)
        return ct(n, p, b)

    guess_dyson(len(b), b, use_ansatz=use_ansatz, oracle=oracle)
    assert seen == sample_grid(len(b), b, calls)


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

    seen = []

    def oracle(n, p, b):
        seen.append(p)
        L = sum(w * x for w, x in zip(weights, p)) - K
        return multinomial(p) * Fraction(1, L) if L else 0

    with pytest.raises(GuessExhausted):
        guess_dyson(3, b, max_t=1, use_ansatz=False, oracle=oracle)
    seen.clear()
    form, details = guess_dyson_with_details(3, b, max_t=3, use_ansatz=False, oracle=oracle)
    # all 5 fresh points of the failed check are drawn, though it stops at the
    # first: the t = 2 fit samples the 6 grid points after them
    grid = sample_grid(3, b, 29)
    assert seen == grid[:13] + grid[18:]
    a = _vars(3)
    L = a[0] + 10 * a[1] + 100 * a[2] - Poly.const(3, K)
    assert form.R == RatFunc.make(Poly.const(3, 1), L)
    assert details.t == 2


# guess_rat before the mod-p screen: every split is solved and checked exactly.
# Kept verbatim as the reference the screened version must agree with.
def _eval_mono(point: Tuple[int, ...], mono: Tuple[int, ...]) -> int:
    v = 1
    for x, e in zip(point, mono):
        if e:
            v *= x**e
    return v


def _guess_rat_reference(samples: SampleSet, t: int) -> Optional[RatFunc]:
    if t < 0:
        raise ValueError("t must be nonnegative")
    if not samples.points:
        raise ValueError("empty sample set")
    nvars = len(samples.points[0])
    if len(samples.points) <= HOLDOUT:
        raise ValueError("not enough samples for the held-out margin")
    fit_pts = samples.points[:-HOLDOUT]
    fit_vals = samples.values[: len(fit_pts)]
    hold_pts = samples.points[len(fit_pts) :]
    hold_vals = samples.values[len(fit_pts) :]

    # the monomials of every split are a prefix of these, in the same order
    all_monos = _monomials_up_to(nvars, t)
    mono_vals = [[_eval_mono(p, m) for m in all_monos] for p in fit_pts]
    for d_num in range(t, -1, -1):
        d_den = t - d_num
        num_monos = _monomials_up_to(nvars, d_num)
        den_monos = _monomials_up_to(nvars, d_den)
        unknowns = len(num_monos) + len(den_monos)
        if len(fit_pts) < unknowns:
            raise ValueError(
                f"need at least {unknowns + HOLDOUT} samples for t={t}, have "
                f"{len(samples.points)}"
            )
        # value * den(p) - num(p) = 0, scaled by the value's denominator
        rows = []
        for vals, f in zip(mono_vals, fit_vals):
            fn, fd = f.numerator, f.denominator
            row = [fn * v for v in vals[: len(den_monos)]]
            row += [-fd * v for v in vals[: len(num_monos)]]
            rows.append(row)
        basis = solve_nullspace(rows)
        if not basis:
            continue
        candidates: List[RatFunc] = []
        for vec in basis:
            den = Poly(nvars, dict(zip(den_monos, vec[: len(den_monos)])))
            num = Poly(nvars, dict(zip(num_monos, vec[len(den_monos) :])))
            if den.is_zero():
                continue
            if any(den.evaluate(p) == 0 for p in samples.points):
                continue
            candidates.append(RatFunc.make(num, den))
        if not candidates:
            continue
        first = candidates[0]
        if any(c != first for c in candidates[1:]):
            raise AmbiguousFit(
                f"{len(candidates)} inequivalent candidates at t={t}, "
                f"split ({d_num},{d_den})"
            )
        if all(first.evaluate(p) == v for p, v in zip(hold_pts, hold_vals)):
            return first
    return None


def test_monomial_table_matches_direct_evaluation():
    points = sample_grid(3, (0, 0, 0), 20)
    monos = _monomials_up_to(3, 5)
    assert _mono_values(points, monos) == [[_eval_mono(p, m) for m in monos] for p in points]


def _outcome(fit, samples, t):
    """What a fit returns (a RatFunc or None), or AmbiguousFit if it raises it."""
    try:
        return fit(samples, t)
    except AmbiguousFit:
        return AmbiguousFit


def _assert_same_outcomes(samples, t):
    expected = _outcome(_guess_rat_reference, samples, t)
    assert _outcome(guess_rat, samples, t) == expected, (t, len(samples.points))
    return expected


def _climb(samples_of, nvars, max_t):
    """The outcomes of both fits as guess_dyson climbs t = 0, 1, ..., max_t:
    at each t its sample count, doubled after an AmbiguousFit up to three
    times; it stops at the first fit."""
    outcomes = []
    for t in range(max_t + 1):
        needed = _max_unknowns(nvars, t) + 3 + HOLDOUT
        for _ in range(4):
            outcomes.append(_assert_same_outcomes(samples_of(needed), t))
            if outcomes[-1] is not AmbiguousFit:
                break
            needed *= 2
        if isinstance(outcomes[-1], RatFunc):
            break
    return outcomes


def _oracle_samples(b, use_ansatz, count):
    """The first ``count`` samples guess_dyson draws for b."""
    n = len(b)
    factor = ansatz_factor(b) if use_ansatz else RatFunc.one(n)
    points = sample_grid(n, b, count)
    values = [Fraction(ct(n, p, b), multinomial(p)) / factor.evaluate(p) for p in points]
    return SampleSet(points, values)


@pytest.mark.parametrize("use_ansatz", [True, False])
@pytest.mark.parametrize("b", [(2, -1, -1), (2, -2, 0), (-1, 0, 1), (3, -2, -1)])
def test_screened_fit_matches_reference_on_oracle_samples(b, use_ansatz):
    # every t up to the fit's degree
    outcomes = _climb(lambda count: _oracle_samples(b, use_ansatz, count), 3, 12)
    assert outcomes[-1] == guess_dyson_with_details(3, b, use_ansatz=use_ansatz)[1].residual


def test_screened_fit_matches_reference_on_ambiguous_n5_fit():
    b = (-1, -1, 0, 1, 1)
    samples = _oracle_samples(b, True, _max_unknowns(5, 1) + 3 + HOLDOUT)
    assert _assert_same_outcomes(samples, 1) is AmbiguousFit


def _random_poly(rng, nvars, degree):
    monos = _monomials_up_to(nvars, degree)
    lower = [m for m in monos if sum(m) < degree]
    terms = {m: rng.randint(-5, 5) for m in rng.sample(lower, min(len(lower), rng.randint(0, 3)))}
    terms[rng.choice(monos[len(lower) :])] = rng.choice([-3, -2, -1, 1, 2, 3])
    return Poly(nvars, terms)


def _random_rational_functions():
    """12 seeded (nvars, num, den, samples_of) cases of total degree <= 4;
    samples_of(count) samples num / den at its first ``count`` grid points."""
    rng = random.Random(7)
    for _ in range(12):
        nvars = rng.randint(2, 3)
        d_num = rng.randint(0, 4)
        num = _random_poly(rng, nvars, d_num)
        den = _random_poly(rng, nvars, rng.randint(0, 4 - d_num))
        points = [p for p in sample_grid(nvars, (0,) * nvars, 400) if den.evaluate(p) != 0]

        def samples_of(count):
            return SampleSet(points[:count], [num.evaluate(p) / den.evaluate(p) for p in points[:count]])

        yield nvars, num, den, samples_of


def test_screened_fit_matches_reference_on_random_rational_functions():
    kinds = set()
    for nvars, num, den, samples_of in _random_rational_functions():
        outcomes = _climb(samples_of, nvars, 4)
        assert outcomes[-1] == RatFunc.make(num, den)
        kinds.update(type(o) if o is not AmbiguousFit else o for o in outcomes)
    assert kinds == {RatFunc, type(None), AmbiguousFit}


def _assert_screen_rows_are_exact_rows_mod_p(samples, t):
    # the premise of the screen: guess_rat's rows are primitive, so the
    # screen's residues are the rows solve_nullspace would reduce mod p
    nvars = len(samples.points[0])
    nfit = len(samples.points) - HOLDOUT
    mono_vals = _mono_values(samples.points, _monomials_up_to(nvars, t))
    screen = _Screen(mono_vals, samples.values, nfit)
    for d_num in range(t + 1):
        n_num = len(_monomials_up_to(nvars, d_num))
        n_den = len(_monomials_up_to(nvars, t - d_num))
        rows = [
            [f.numerator * v for v in vals[:n_den]] + [-f.denominator * v for v in vals[:n_num]]
            for vals, f in zip(mono_vals[:nfit], samples.values)
        ]
        expected = [[x % FIRST_PRIME for x in _clear_row(row)] for row in rows]
        assert screen.rows_mod_p(n_den, n_num).tolist() == expected, (t, d_num)


@pytest.mark.parametrize(
    "b, use_ansatz, fit_t",
    [((2, -1, -1), True, 2), ((2, -1, -1), False, 6), ((4, -2, -2), True, 6), ((4, -2, -2), False, 12)],
)
def test_screen_rows_are_exact_rows_mod_p_on_oracle_samples(b, use_ansatz, fit_t):
    # every t up to the degree guess_dyson fits at
    for t in range(fit_t + 1):
        samples = _oracle_samples(b, use_ansatz, _max_unknowns(3, t) + 3 + HOLDOUT)
        _assert_screen_rows_are_exact_rows_mod_p(samples, t)


def test_screen_rows_are_exact_rows_mod_p_on_random_rational_functions():
    for nvars, _, _, samples_of in _random_rational_functions():
        for t in range(5):
            _assert_screen_rows_are_exact_rows_mod_p(samples_of(_max_unknowns(nvars, t) + 3 + HOLDOUT), t)


def test_only_the_winning_split_is_lifted(monkeypatch):
    lifted = []

    def counting(rows):
        basis = solve_nullspace(rows)
        lifted.append(len(basis))
        return basis

    monkeypatch.setattr(conjecture, "solve_nullspace", counting)
    form, details = guess_dyson_with_details(3, (2, -1, -1), use_ansatz=False)
    assert form.R == known_R_2m1m1() and details.t == 6
    # 28 splits at t <= 6; the mod-p screen rejects all but the one that fits
    assert lifted == [1]
