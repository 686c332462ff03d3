"""Acceptance suite: one test per criterion, each printing a PASS line.

Every expected value here is either verified against an independent oracle
(the exact constant-term expansion), computed by hand from the defining
formulas, or frozen from the published closed forms.  Time targets are
asserted as hard bounds.
"""

import itertools
import time

from dysonct.conjecture import (
    ClosedForm,
    ansatz_factor,
    guess_dyson,
    guess_dyson_with_details,
    sample_grid,
)
from dysonct.laurent import ct, multinomial, pk_expansion
from dysonct.poly import Poly, binomial_poly
from dysonct.prover import (
    Resolver,
    c2_closed_form,
    check_boundary,
    check_denominator_safety,
    check_recursion,
    prove,
)
from dysonct.ratfunc import RatFunc
from dysonct.turbo import permute_form, turbo_dyson


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def _vars(n):
    return [Poly.variable(n, i) for i in range(n)]


def known_R_2m1m1() -> RatFunc:
    a = _vars(3)
    one, two = Poly.const(3, 1), Poly.const(3, 2)
    return RatFunc.coprime(
        a[1] * a[2] * (two + 2 * a[0] + a[1] + a[2]),
        (one + a[0] + a[1]) * (one + a[0] + a[2]) * (one + a[0]),
    )


def test_criterion_1_multinomial_theorem_as_oracle_check():
    started = time.perf_counter()
    cases = 0
    for n in range(1, 5):
        for a in itertools.product(range(4), repeat=n):
            assert ct(n, a, (0,) * n) == multinomial(a), (n, a)
            cases += 1
    elapsed = time.perf_counter() - started
    assert cases == 4 + 16 + 64 + 256
    assert elapsed < 60.0
    _report(1, True, f"{cases} exact multinomial identities in {elapsed:.1f}s")


def test_criterion_2_known_closed_form_guessed_and_proved():
    started = time.perf_counter()
    form = guess_dyson(3, (2, -1, -1))
    assert form.R == known_R_2m1m1()
    cert = prove(3, (2, -1, -1), Resolver())
    assert cert.is_valid()
    assert cert.form.R == known_R_2m1m1()
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(2, True, f"guess+prove of the worked-example form in {elapsed:.1f}s")


def test_criterion_3_permutation_family_without_fresh_guessing():
    a = _vars(3)
    one = Poly.const(3, 1)
    resolver = Resolver()
    base = resolver.form(3, (-1, 0, 1))
    assert base.R == RatFunc.coprime(-a[0], one + a[1] + a[2])
    calls_after_base = resolver.guess_calls
    swapped13 = permute_form(base, (2, 1, 0))
    swapped12 = permute_form(base, (1, 0, 2))
    assert swapped13.b == (1, 0, -1)
    assert swapped13.R == RatFunc.coprime(-a[2], one + a[0] + a[1])
    assert swapped12.b == (0, -1, 1)
    assert swapped12.R == RatFunc.coprime(-a[1], one + a[0] + a[2])
    assert resolver.guess_calls == calls_after_base
    _report(3, True, "three displayed forms, two derived purely by relabeling")


def test_criterion_4_boundary_expansion_data():
    by_shift = {t.shifted_b: t.coeff for t in pk_expansion(3, 0, (2, -1, -1))}
    assert by_shift[(1, -1)] == binomial_poly(3, 1, 2)  # a_2(a_2-1)/2
    assert by_shift[(-1, 1)] == binomial_poly(3, 2, 2)  # a_3(a_3-1)/2
    assert by_shift[(0, 0)] == Poly.variable(3, 1) * Poly.variable(3, 2)  # a_2 a_3
    assert pk_expansion(3, 1, (2, -1, -1)) == ()
    assert pk_expansion(3, 2, (2, -1, -1)) == ()
    _report(4, True, "P_1 coefficients paired with their c_2 targets; P_2 = P_3 empty")


def test_criterion_5_ansatz_factor_reproduced():
    a = _vars(4)
    one, two, three = (Poly.const(4, c) for c in (1, 2, 3))
    s = a[1] + a[2] + a[3]
    expected = RatFunc.coprime(
        a[0] * (a[0] - one) * a[2],
        (one + s) * (two + s) * (three + s) * (one + a[0] + a[1] + a[3]),
    )
    assert ansatz_factor((-3, 2, -1, 2)) == expected
    _report(5, True, "four-variable ansatz factor matches the displayed product")


def test_criterion_6_ansatz_speedup_qualitative():
    started = time.perf_counter()
    with_form, with_details = guess_dyson_with_details(3, (4, -2, -2), max_t=12)
    t_with = with_details.t
    without_form, without_details = guess_dyson_with_details(
        3, (4, -2, -2), max_t=12, use_ansatz=False
    )
    t_without = without_details.t
    elapsed = time.perf_counter() - started
    assert (t_with, t_without) == (6, 12)
    assert (with_details.samples_used, without_details.samples_used) == (186, 464)
    assert with_form.R == without_form.R
    _report(
        6,
        True,
        f"fit degree {t_with} (with factor) vs {t_without} (without), "
        f"{with_details.samples_used} vs {without_details.samples_used} samples, "
        f"same closed form; {elapsed:.1f}s",
    )


def test_criterion_7_base_case_equivalence():
    cases = 0
    for h in range(-4, 5):
        form = c2_closed_form((h, -h))
        for a1 in range(7):
            for a2 in range(7):
                assert form.evaluate((a1, a2)) == ct(2, (a1, a2), (h, -h))
                cases += 1
    _report(7, True, f"{cases} exact values incl. out-of-support zeros")


def test_criterion_8_turbo_sweep():
    started = time.perf_counter()
    resolver = Resolver()
    result = turbo_dyson(3, 2, resolver=resolver)
    elapsed = time.perf_counter() - started
    assert len(result.store) == 19
    assert not result.failures
    for entry in result.store:
        cert = entry.certificate
        assert cert["recursion_ok"] and cert["initial_ok"] and cert["denominator_safe"]
        assert all(cert["boundary_ok"])
        for p in sample_grid(entry.n, entry.b, 5):
            assert entry.form.evaluate(p) == ct(entry.n, p, entry.b)
    assert elapsed < 300.0
    _report(8, True, f"19 certified entries, oracle-checked, in {elapsed:.1f}s")


def test_criterion_9_boundary_conditions_are_load_bearing():
    wrong = ClosedForm(3, (2, -1, -1), RatFunc.const(3, 1))
    safety = check_denominator_safety(wrong)
    assert check_recursion(wrong, safety).ok
    resolver = Resolver()
    lower = {t.shifted_b: prove(2, t.shifted_b, resolver) for t in pk_expansion(3, 1, wrong.b)}
    outcome = check_boundary(wrong, safety, 1, lower)
    assert not outcome.ok
    _report(9, True, "R = 1 passes the recursion but fails the k = 2 boundary")


def test_criterion_10_n4_end_to_end():
    started = time.perf_counter()
    resolver = Resolver()
    cert = prove(4, (1, -1, 0, 0), resolver)
    elapsed = time.perf_counter() - started
    assert cert.is_valid()

    def leaves(c):
        if not c.dependencies:
            yield c
        for dep in c.dependencies:
            yield from leaves(dep)

    terminal = list(leaves(cert))
    assert terminal and all(leaf.base_case and leaf.form.n == 2 for leaf in terminal)
    assert cert.form.evaluate((1, 1, 1, 1)) == ct(4, (1, 1, 1, 1), (1, -1, 0, 0))
    assert cert.form.evaluate((2, 1, 1, 1)) == ct(4, (2, 1, 1, 1), (1, -1, 0, 0))
    assert elapsed < 600.0
    _report(10, True, f"n = 4 certificate grounded in the n = 2 base case, {elapsed:.1f}s")
