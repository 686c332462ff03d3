import dataclasses
import hashlib
import itertools
import json
from collections import Counter
from fractions import Fraction

import pytest

import dysonct.prover as prover_module
from conftest import assert_canonical, split_factors, sum_term
from dysonct.conjecture import ClosedForm, guess_dyson, sample_grid
from dysonct.laurent import ct, pk_expansion
from dysonct.poly import Poly, exact_div
from dysonct.prover import (
    ProofError,
    Resolver,
    c2_closed_form,
    check_boundary,
    check_denominator_safety,
    check_initial,
    check_recursion,
    linear_factors,
    matching_permutation,
    prove,
)
from dysonct.ratfunc import RatFunc
from dysonct.store import ResultStore
from dysonct.turbo import turbo_dyson


def _vars(n):
    return [Poly.variable(n, i) for i in range(n)]


def _plus_a1(R):
    """R + a_1, which shares no factor with R's denominator."""
    return RatFunc.coprime(R.num + _vars(R.num.nvars)[0] * R.den, R.den)


def _times_raise_a1(R):
    """R (1 + a_1) / (2 + a_1) as the arguments of RatFunc.over."""
    one = Poly.const(R.num.nvars, 1)
    num, factors, c = sum_term(R, one + _vars(R.num.nvars)[0])
    return num, factors + [one + one + _vars(R.num.nvars)[0]], c


def form_2m1m1():
    return guess_dyson(3, (2, -1, -1))


def _recursion(form):
    """check_recursion cleared by the form's own denominator split."""
    return check_recursion(form, check_denominator_safety(form))


def _boundary(form, k):
    """check_boundary at pivot k against the proved level-(n-1) dependencies."""
    resolver = Resolver()
    terms = pk_expansion(form.n, k, form.b)
    lower = {t.shifted_b: prove(form.n - 1, t.shifted_b, resolver) for t in terms}
    return check_boundary(form, check_denominator_safety(form), k, lower)


# ----------------------------------------------------------------------
# c2


def test_c2_zero_sum_mismatch():
    assert c2_closed_form((1, 1)).R.is_zero()


def test_c2_trivial():
    assert c2_closed_form((0, 0)).R == RatFunc.const(2, 1)


def test_c2_values():
    assert c2_closed_form((1, -1)).evaluate((1, 1)) == -1
    # out-of-support binomial vanishes through the numerator zero
    assert c2_closed_form((2, -2)).evaluate((1, 1)) == 0


def test_c2_matches_oracle_on_grid():
    for h in range(-4, 5):
        form = c2_closed_form((h, -h))
        for a1 in range(7):
            for a2 in range(7):
                assert form.evaluate((a1, a2)) == ct(2, (a1, a2), (h, -h)), (h, a1, a2)


def test_c2_is_built_canonical():
    # built from its linear factors without a gcd, R is already reduced
    # with a monic denominator
    for h in range(-12, 13):
        R = c2_closed_form((h, -h)).R
        up = Poly.variable(2, 0 if h >= 0 else 1)
        factors = [up + Poly.const(2, 1 + r) for r in range(abs(h))]
        assert_canonical(R, R.num, R.den, factors)


# ----------------------------------------------------------------------
# recursion


def test_recursion_constant_form():
    assert _recursion(ClosedForm(3, (0, 0, 0), RatFunc.const(3, 1))).ok


def test_recursion_form_2m1m1():
    assert _recursion(form_2m1m1()).ok


def test_recursion_rejects_non_solution():
    a = _vars(3)
    out = _recursion(ClosedForm(3, (0, 0, 0), RatFunc(a[0], Poly.const(3, 1))))
    assert not out.ok
    assert out.difference is not None and not out.difference.is_zero()


def test_recursion_zero_form():
    assert _recursion(ClosedForm(3, (1, 0, 0), RatFunc.zero(3))).ok


def test_recursion_symbolic_agrees_with_pointwise():
    # the symbolic verdict must match exact evaluation at integer points
    forms = [form_2m1m1(), ClosedForm(3, (0, 0, 0), RatFunc.const(3, 1)),
             ClosedForm(3, (0, 0, 0), RatFunc(_vars(3)[0], Poly.const(3, 1)))]
    points = [p for p in sample_grid(3, (0, 0, 0), 20)]
    for form in forms:
        symbolic = _recursion(form).ok
        pointwise = True
        for p in points:
            s = sum(p)
            rhs = sum(
                Fraction(p[i], s)
                * form.R.evaluate(tuple(x - (1 if i == j else 0) for j, x in enumerate(p)))
                for i in range(3)
            )
            if form.R.evaluate(p) != rhs:
                pointwise = False
                break
        assert symbolic == pointwise


def _recursion_holds_by_product(form):
    """Reference verdict: the recursion cleared by R's denominator times the
    product of every shifted denominator, with no factoring at all."""
    n, num, den = form.n, form.R.num, form.R.den
    s = sum(_vars(n), Poly.zero(n))
    shifted = [(num.shift_var(i, -1), den.shift_var(i, -1)) for i in range(n)]
    lhs = num * s
    for _, d in shifted:
        lhs = lhs * d
    rhs = Poly.zero(n)
    for i, (num_i, _) in enumerate(shifted):
        term = _vars(n)[i] * num_i * den
        for j, (_, d) in enumerate(shifted):
            if j != i:
                term = term * d
        rhs = rhs + term
    return lhs == rhs


@pytest.fixture(scope="module")
def sweep_forms_n3():
    store = ResultStore()
    turbo_dyson(3, 2, store=store, resolver=Resolver())
    return [entry.form for entry in store if entry.n == 3]


def _recursion_residue(R, p):
    """R(p) - sum_i p_i/s R(p - e_i), s = p_1+...+p_n, by exact evaluation."""
    s = sum(p)
    rhs = sum(
        Fraction(x, s) * R.evaluate(tuple(y - (i == j) for j, y in enumerate(p)))
        for i, x in enumerate(p)
    )
    return R.evaluate(p) - rhs


POINTS = [(1, 1, 1), (2, 1, 3), (1, 4, 2), (3, 3, 1), (5, 2, 2)]


def test_recursion_agrees_with_product_of_shifted_denominators(sweep_forms_n3):
    a = _vars(3)
    one = Poly.const(3, 1)
    assert len(sweep_forms_n3) == 19
    for form in sweep_forms_n3:
        assert _recursion(form).ok and _recursion_holds_by_product(form)
    variants = {
        "R + a_1": _plus_a1,
        "R(a + e_1)": lambda R: RatFunc.coprime(R.num.shift_var(0, 1), R.den.shift_var(0, 1)),
        "R (1+a_1)/(2+a_1)": lambda R: RatFunc.over(*_times_raise_a1(R)),
    }
    rejected = {}
    for name, make in variants.items():
        for form in sweep_forms_n3:
            wrong = ClosedForm(3, form.b, make(form.R))
            verdict = _recursion_holds_by_product(wrong)
            assert _recursion(wrong).ok == verdict, (name, form.b)
            rejected[name] = rejected.get(name, 0) + (not verdict)
    # only the constant form for b = 0 survives the shift
    assert rejected == {"R + a_1": 19, "R(a + e_1)": 18, "R (1+a_1)/(2+a_1)": 19}
    # a repeated linear factor
    den = (one + a[0]) * (one + a[0])
    for num in (one, a[1], a[0] * a[1] + a[2]):
        R = RatFunc.coprime(num, den)
        out = _recursion(ClosedForm(3, (0, 0, 0), R))
        assert out.ok == _recursion_holds_by_product(ClosedForm(3, (0, 0, 0), R))
        assert not out.ok
        for p in POINTS:
            assert out.difference.evaluate(p) == _recursion_residue(R, p)


def test_recursion_failure_reports_the_pointwise_difference():
    # a wrong complexity-3 form, whose difference was slow to reduce over
    # the product of every shifted denominator
    resolver = Resolver()
    right = resolver.form(3, (3, -2, -1))
    R = _plus_a1(right.R)
    resolver.add_form(ClosedForm(3, (3, -2, -1), R))
    with pytest.raises(ProofError) as info:
        prove(3, (3, -2, -1), resolver)
    outcome = info.value.outcome
    assert outcome.check == "recursion" and not outcome.ok
    for p in POINTS:
        residue = _recursion_residue(R, p)
        assert outcome.difference.evaluate(p) == residue


# ----------------------------------------------------------------------
# boundary


def test_boundary_2m1m1_positive_pivot():
    assert _boundary(form_2m1m1(), 0).ok


def test_boundary_2m1m1_negative_pivots():
    for k in (1, 2):
        out = _boundary(form_2m1m1(), k)
        assert out.ok
        assert "empty" in out.note


def test_boundary_detects_wrong_form():
    # R = 1 satisfies the recursion but not the k=2 boundary for b=(2,-1,-1)
    wrong = ClosedForm(3, (2, -1, -1), RatFunc.const(3, 1))
    assert _recursion(wrong).ok
    out = _boundary(wrong, 1)
    assert not out.ok


def test_boundary_negative_pivot_requires_vanishing():
    # for b_k < 0 the check passes iff R vanishes at a_k = 0
    form = form_2m1m1()
    assert form.R.num.at_zero(1).is_zero()
    assert _boundary(form, 1).ok
    bad = ClosedForm(3, (2, -1, -1), RatFunc.const(3, 1))
    assert not _boundary(bad, 1).ok


def test_boundary_lhs_is_the_reduced_restriction():
    # the boundary left side, reduced by trial division with the split's
    # factors at a_k = 0, is R(a_k = 0) in canonical form; every stored
    # identity, of a passed check, has equal sides
    resolver = Resolver()
    prove(4, (1, -1, 0, 0), resolver)
    certs = [c.to_json() for c in resolver.certificates.values()]
    store = ResultStore()
    turbo_dyson(3, 3, store=store, resolver=Resolver())
    certs += [entry.certificate for entry in store]
    checked = 0
    for cert in certs:
        if cert["base_case"]:
            continue
        R = ClosedForm.from_json(cert["form"]).R
        identities = cert["identities"]
        for identity in (identities["recursion"], *identities["boundary"], identities["initial"]):
            assert identity["lhs"] == identity["rhs"], cert["form"]
        for k, identity in enumerate(identities["boundary"]):
            lhs = RatFunc.from_json(R.num.nvars - 1, identity["lhs"])
            num, den = R.num.at_zero(k), R.den.at_zero(k)
            assert_canonical(lhs, num, den, split_factors(den))
            checked += 1
    assert checked > 100


# ----------------------------------------------------------------------
# initial condition and denominator safety


def _initial(form):
    return check_initial(form, check_denominator_safety(form))


def test_initial_examples():
    assert _initial(ClosedForm(3, (0, 0, 0), RatFunc.const(3, 1))).ok
    assert _initial(form_2m1m1()).ok  # value 0 at a = 0
    form5 = guess_dyson(3, (-1, 0, 1))
    assert _initial(form5).ok
    wrong = _initial(ClosedForm(3, (0, 0, 0), RatFunc.const(3, 2)))
    assert not wrong.ok and wrong.difference == RatFunc.const(3, 1)


@pytest.mark.parametrize(
    "make_R",
    [
        lambda a: RatFunc.coprime(Poly.const(3, 1), a[0]),
        lambda a: RatFunc.coprime(a[0] * 2, a[0] + a[1]),
    ],
    ids=["1_over_a1", "2a1_over_a1_plus_a2"],
)
def test_denominator_vanishing_on_the_grid_stops_the_proof(make_R):
    # 1/a_1 has no value on the face a_1 = 0, 2 a_1/(a_1 + a_2) none at
    # a = 0 (although its limit along the diagonal is the expected 1): both
    # denominators vanish at a nonnegative integer point, so neither splits
    # into positive linear forms, and prove stops before any other check
    form = ClosedForm(3, (0, 0, 0), make_R(_vars(3)))
    with pytest.raises(ProofError) as info:
        check_denominator_safety(form)
    assert info.value.outcome.check == "denominator-safety"
    resolver = Resolver()
    resolver.add_form(form)
    with pytest.raises(ProofError) as info:
        prove(3, (0, 0, 0), resolver)
    assert info.value.outcome.check == "denominator-safety"


def test_denominator_safety_syntactic():
    result = check_denominator_safety(form_2m1m1())
    assert result.guarantee == "syntactic"
    coeff_sets = {f.coeffs for f in result.factors}
    assert coeff_sets == {(1, 0, 0), (1, 1, 0), (1, 0, 1)}
    assert all(f.constant == 1 for f in result.factors)


def test_denominator_safety_trivial_denominator():
    result = check_denominator_safety(ClosedForm(3, (0, 0, 0), RatFunc.const(3, 1)))
    assert result.factors == [] and result.constant == 1


def test_denominator_safety_grid_failure():
    a1, a2 = Poly.variable(2, 0), Poly.variable(2, 1)
    form = ClosedForm(2, (0, 0), RatFunc.coprime(Poly.const(2, 1), a1 - a2))
    with pytest.raises(ProofError) as info:
        check_denominator_safety(form)
    assert info.value.outcome.check == "denominator-safety"


def test_denominator_safety_rejects_nonsplitting_positive_denominator():
    # a_1^2 + a_2 + 1 has no zero on the nonnegative grid, but it does not
    # split into linear factors, so nothing proves that: not certified
    a1, a2 = Poly.variable(2, 0), Poly.variable(2, 1)
    den = a1 * a1 + a2 + Poly.const(2, 1)
    form = ClosedForm(2, (0, 0), RatFunc.coprime(Poly.const(2, 1), den))
    with pytest.raises(ProofError) as info:
        check_denominator_safety(form)
    assert info.value.outcome.check == "denominator-safety"


def test_linear_factors_reassembles_product():
    a = _vars(3)
    c = [Poly.const(3, k) for k in range(4)]
    s = a[0] + a[1] + a[2]
    products = [
        [c[1] + a[0] + a[1], c[1] + a[0] + a[2], c[1] + a[0]],
        # seven factors; the product's first-degree coefficients (80, 72, 36)
        # bound 81*73*37 = 218781 coefficient vectors
        [c[1] + a[0], c[2] + a[0], c[3] + a[0], c[1] + a[1], c[2] + a[1], c[1] + s, c[2] + s],
    ]
    for forms in products:
        den = c[1]
        for f in forms:
            den = den * f
        factors, const = linear_factors(den)
        assert len(factors) == len(forms)
        rebuilt = Poly.const(3, const)
        for f in factors:
            rebuilt = rebuilt * f.to_poly()
        assert rebuilt == den


# ----------------------------------------------------------------------
# prove


def test_prove_2m1m1():
    cert = prove(3, (2, -1, -1))
    assert cert.is_valid()
    dep_bs = {d.form.b for d in cert.dependencies}
    assert dep_bs == {(1, -1), (-1, 1), (0, 0)}
    assert all(d.base_case for d in cert.dependencies)


def test_prove_denominator_with_many_coefficient_vectors():
    # R's denominator is a product of 7 positive linear forms whose
    # first-degree coefficients allow 117*37*45 = 194805 coefficient vectors
    cert = prove(3, (5, -3, -2), Resolver())
    assert cert.is_valid()
    assert cert.to_json()["denominator_safe"]


def test_prove_zero_form():
    cert = prove(3, (1, 0, 0))
    assert cert.is_valid()
    assert cert.form.R.is_zero()


def test_prove_base_case_directly():
    cert = prove(2, (2, -2))
    assert cert.base_case and cert.is_valid()
    assert (cert.recursion, cert.boundaries, cert.initial) == (None, (), None)


def test_base_case_certificate_json():
    # the verdicts and the identity of the base case are derived, as it
    # holds no outcomes
    assert prove(2, (1, -1)).to_json() == {
        "form": {
            "n": 2,
            "b": [1, -1],
            "R": {
                "num_terms": [[-1, 1, [0, 1]]],
                "den_terms": [[1, 1, [1, 0]], [1, 1, [0, 0]]],
            },
        },
        "recursion_ok": True,
        "boundary_ok": [True, True],
        "initial_ok": True,
        "denominator_safe": True,
        "denominator_guarantee": "syntactic",
        "initial_limit_used": False,
        "base_case": True,
        "dependency_b": [],
        "dependencies": [],
        "identities": {"base_case": "binomial-theorem closed form for n = 2"},
    }


def test_prove_n4_end_to_end():
    resolver = Resolver()
    cert = prove(4, (1, -1, 0, 0), resolver)
    assert cert.is_valid()
    # tree bottoms out in n = 2 base certificates
    level3 = cert.dependencies
    assert level3 and all(d.form.n == 3 for d in level3)
    leaves = [leaf for d in level3 for leaf in d.dependencies]
    assert leaves and all(leaf.base_case and leaf.form.n == 2 for leaf in leaves)
    assert cert.form.evaluate((1, 1, 1, 1)) == ct(4, (1, 1, 1, 1), (1, -1, 0, 0))
    assert cert.form.evaluate((2, 1, 1, 1)) == ct(4, (2, 1, 1, 1), (1, -1, 0, 0))


def test_prove_splits_each_denominator_once_and_expands_each_pivot_once(monkeypatch):
    split_dens = []
    expanded = Counter()
    real_split, real_expand = prover_module.linear_factors, prover_module.pk_expansion

    def counting_split(p):
        split_dens.append(p)
        return real_split(p)

    def counting_expand(n, k, b):
        expanded[(n, tuple(b))] += 1
        return real_expand(n, k, b)

    monkeypatch.setattr(prover_module, "linear_factors", counting_split)
    monkeypatch.setattr(prover_module, "pk_expansion", counting_expand)
    resolver = Resolver()
    assert prove(4, (1, -1, 0, 0), resolver).is_valid()
    proved = [c.form for c in resolver.certificates.values() if not c.base_case]
    checked = [c.form for c in resolver.checked.values()]
    # the n = 3 dependencies are <-1,0,1>, <-1,1,0>, <0,0,0> and <1,-1,0>,
    # in proof order; the second and the last relabel the first, so they are
    # neither split nor expanded
    assert sorted(f.b for f in checked) == [(-1, 0, 1), (0, 0, 0), (1, -1, 0, 0)]
    assert sorted(f.b for f in proved if f not in checked) == [(-1, 1, 0), (1, -1, 0)]
    assert Counter(split_dens) == Counter(f.R.den for f in checked)
    assert expanded == Counter({(f.n, f.b): f.n for f in checked})


def _certificates_by_route(resolver):
    """The resolver's certificates, as (base, checked, relabeled) lists."""
    certs = list(resolver.certificates.values())
    checked = list(resolver.checked.values())
    base = [c for c in certs if c.base_case]
    relabeled = [c for c in certs if not c.base_case and not any(c is k for k in checked)]
    return base, checked, relabeled


def test_every_certificate_carries_a_split_of_its_denominator():
    # checked, relabeled and base certificates alike: c * prod F is R's
    # denominator and every F is positive on the nonnegative grid
    first = Resolver()
    prove(4, (1, -1, 0, 0), first)
    swept = Resolver()
    turbo_dyson(4, 2, resolver=swept)
    for resolver in (first, swept):
        routes = _certificates_by_route(resolver)
        assert all(routes)
        for cert in (c for route in routes for c in route):
            split = cert.split
            assert split.constant > 0
            assert all(f.is_positive_on_grid() for f in split.factors)
            den = Poly.const(cert.form.n, split.constant)
            for f in split.factors:
                den = den * f.to_poly()
            assert den == cert.form.R.den, cert.form.b


def test_prove_rejects_denominator_without_linear_split():
    a = _vars(3)
    den = a[0] * a[0] + a[1] + Poly.const(3, 1)
    resolver = Resolver()
    resolver.add_form(ClosedForm(3, (0, 0, 0), RatFunc.coprime(Poly.const(3, 1), den)))
    with pytest.raises(ProofError) as info:
        prove(3, (0, 0, 0), resolver)
    assert info.value.outcome.check == "denominator-safety"


def test_prove_failure_gives_counterexample_report():
    resolver = Resolver()
    resolver.add_form(ClosedForm(3, (2, -1, -1), RatFunc.const(3, 1)))
    with pytest.raises(ProofError) as info:
        prove(3, (2, -1, -1), resolver)
    assert info.value.outcome.check == "boundary"


def test_certified_forms_match_oracle_everywhere_tested():
    # every zero-sum b with |b_i| <= 2 for n = 3, all a_i <= 3
    resolver = Resolver()
    vectors = [
        b
        for b in itertools.product(range(-2, 3), repeat=3)
        if sum(b) == 0
    ]
    assert len(vectors) == 19
    for b in vectors:
        cert = prove(3, b, resolver)
        assert cert.is_valid()
        for a in itertools.product(range(4), repeat=3):
            assert cert.form.evaluate(a) == ct(3, a, b), (b, a)


@pytest.mark.parametrize(
    "target", ["check_recursion", "check_boundary", "check_initial"]
)
def test_mutated_checker_blocks_certificate(monkeypatch, target):
    def failing(*args, **kwargs):
        from dysonct.prover import CheckOutcome

        return CheckOutcome(ok=False, check=target)

    monkeypatch.setattr(prover_module, target, failing)
    with pytest.raises(ProofError):
        prover_module.prove(3, (2, -1, -1), Resolver())


def test_mutated_denominator_check_blocks_certificate(monkeypatch):
    monkeypatch.setattr(prover_module, "linear_factors", lambda den: None)
    with pytest.raises(ProofError):
        prover_module.prove(3, (2, -1, -1), Resolver())


def test_certificate_serialization_carries_tree():
    cert = prove(3, (2, -1, -1), Resolver())
    data = cert.to_json()
    assert data["recursion_ok"] and data["initial_ok"]
    assert sorted(tuple(x) for x in data["dependency_b"]) == [(-1, 1), (0, 0), (1, -1)]
    assert len(data["dependencies"]) == 3
    assert all(dep["base_case"] for dep in data["dependencies"])
    assert "recursion" in data["identities"]
    assert len(data["identities"]["boundary"]) == 3


# ----------------------------------------------------------------------
# relabeled certificates


def _cycle_lengths(perm):
    seen, lengths = set(), set()
    for start in range(len(perm)):
        length, i = 0, start
        while i not in seen:
            seen.add(i)
            i = perm[i]
            length += 1
        lengths.add(length)
    return lengths


@pytest.mark.parametrize("n, complexity", [(3, 5), (4, 2), (5, 1)])
def test_relabeled_certificates_equal_the_checked_ones(monkeypatch, n, complexity):
    resolver = Resolver()
    store = ResultStore()
    turbo_dyson(n, complexity, store=store, resolver=resolver)
    checked = {id(c) for c in resolver.checked.values()}
    relabeled = [
        e for e in store if e.n == n and id(resolver.certificates[(n, e.b)]) not in checked
    ]
    assert len(relabeled) == {3: 73, 4: 49, 5: 19}[n]
    cycles = set()
    for e in relabeled:
        source = resolver.checked[(n, tuple(sorted(e.b)))].form.b
        cycles |= _cycle_lengths(matching_permutation(source, e.b))
    # an n-cycle at each n, and pivots with b_k < 0; at n = 5 the boundary
    # checks read relabeled n = 4 certificates as dependencies
    assert n in cycles
    assert any(
        o.get("note") == "empty expansion (b_k < 0)"
        for e in relabeled
        for o in e.certificate["identities"]["boundary"]
    )
    # on a resolver seeded with the sweep's forms nothing is refitted, and
    # with relabeling off the recursion check runs once per certificate
    recursions = []
    real_recursion = prover_module.check_recursion
    monkeypatch.setattr(prover_module, "_relabeled_certificate", lambda *args: None)
    monkeypatch.setattr(
        prover_module,
        "check_recursion",
        lambda form, safety: recursions.append(form.b) or real_recursion(form, safety),
    )
    for e in relabeled:
        fresh = Resolver()
        for form in resolver.forms.values():
            fresh.add_form(form)
        recursions.clear()
        assert prove(n, e.b, fresh).to_json() == e.certificate
        assert fresh.guess_calls == 0
        assert sorted(recursions) == sorted(
            b for (_, b), c in fresh.certificates.items() if not c.base_case
        )


def test_a_checked_class_member_gives_its_relabelings_their_forms():
    # 7 of the 14 forms the n = 5 proof needs are n = 4 arrangements whose
    # class already has a checked member: they are relabeled, not fitted,
    # and the certificate is the one fitting them gave
    resolver = Resolver()
    cert = prove(5, (1, 1, -1, -1, 0), resolver)
    assert resolver.guess_calls == 7
    text = json.dumps(cert.to_json(), indent=2, sort_keys=True)
    assert (
        hashlib.sha256(text.encode()).hexdigest()
        == "bd6e57d8607917418afa18c3c9d9f0dfde3fbb31894a95be47819709f9a56b65"
    )


def _not_splitting(R):
    a = _vars(3)
    return RatFunc.coprime(R.num, R.den * (a[0] * a[0] + a[1] + Poly.const(3, 1)))


@pytest.mark.parametrize(
    "wrong, check",
    [
        (lambda R: RatFunc.const(3, 1), "boundary"),
        (_plus_a1, "recursion"),
        (_not_splitting, "denominator-safety"),
    ],
    ids=["one", "plus-a1", "non-splitting"],
)
def test_a_form_that_is_not_the_relabeling_runs_the_checks(wrong, check):
    b = (-1, 2, -1)
    resolver = Resolver()
    prove(3, (2, -1, -1), resolver)
    form = ClosedForm(3, b, wrong(resolver.form(3, b).R))
    resolver.add_form(form)
    with pytest.raises(ProofError) as info:
        prove(3, b, resolver)
    alone = Resolver()
    alone.add_form(form)
    with pytest.raises(ProofError) as unrelated:
        prove(3, b, alone)
    assert info.value.outcome.check == unrelated.value.outcome.check == check
    assert str(info.value) == str(unrelated.value)


def test_boundary_failure_difference_is_reduced_over_linear_factors():
    # a doubled <1,-1> dependency fails the boundary of <1,0,-1> at its
    # first pivot; the difference is lhs - rhs, over a monic denominator
    # that shares no linear factor with its numerator
    resolver = Resolver()
    prove(2, (1, -1), resolver)
    real = resolver.certificates[(2, (1, -1))]
    doubled = ClosedForm(2, (1, -1), RatFunc.coprime(real.form.R.num * 2, real.form.R.den))
    resolver.certificates[(2, (1, -1))] = dataclasses.replace(real, form=doubled)
    with pytest.raises(ProofError) as info:
        prove(3, (1, 0, -1), resolver)
    outcome = info.value.outcome
    assert outcome.check == "boundary" and outcome.k == 0
    diff = outcome.difference
    terms = pk_expansion(3, 0, (1, 0, -1))
    for p in [(0, 0), (1, 2), (3, 1), (2, 5), (4, 4)]:
        rhs = sum(
            t.coeff.at_zero(0).evaluate(p) * resolver.certificates[(2, t.shifted_b)].form.R.evaluate(p)
            for t in terms
        )
        assert diff.evaluate(p) == outcome.lhs.evaluate(p) - rhs, p
    assert not diff.is_zero() and diff.den.leading_coeff() == 1
    for f in split_factors(diff.den):
        with pytest.raises(ArithmeticError):
            exact_div(diff.num, f)


def test_failed_boundary_splits_only_the_form_itself(monkeypatch):
    # criterion 9's wrong form R = 1 for <2,-1,-1> passes the recursion and
    # fails the boundary at its first pivot; the difference is read from the
    # splits the certificates carry, so only R's own denominator is split
    splits = []
    real_split = prover_module.linear_factors

    def counting_split(p):
        splits.append(p)
        return real_split(p)

    monkeypatch.setattr(prover_module, "linear_factors", counting_split)
    resolver = Resolver()
    resolver.add_form(ClosedForm(3, (2, -1, -1), RatFunc.const(3, 1)))
    with pytest.raises(ProofError) as info:
        prove(3, (2, -1, -1), resolver)
    outcome = info.value.outcome
    assert outcome.check == "boundary" and outcome.k == 0
    assert splits == [RatFunc.const(3, 1).den]
    terms = pk_expansion(3, 0, (2, -1, -1))
    assert terms
    for p in [(0, 0), (1, 2), (3, 1), (2, 5), (4, 4)]:
        rhs = sum(
            t.coeff.at_zero(0).evaluate(p) * resolver.certificates[(2, t.shifted_b)].form.R.evaluate(p)
            for t in terms
        )
        assert outcome.difference.evaluate(p) == outcome.lhs.evaluate(p) - rhs, p
