from fractions import Fraction
from itertools import product

from conftest import sum_term
from dysonct.conjecture import ClosedForm, guess_dyson
from dysonct.laurent import ct
from dysonct.poly import Poly
from dysonct.prover import Resolver, c2_closed_form, prove
from dysonct.ratfunc import RatFunc
from dysonct.store import ResultStore
from dysonct.turbo import (
    complexity,
    derive_by_reduction,
    permute_form,
    turbo_dyson,
    zero_sum_vectors,
)


def _vars(n):
    return [Poly.variable(n, i) for i in range(n)]


def test_complexity_examples():
    assert complexity((0, 0, 0)) == 0
    assert complexity((2, -1, -1)) == 2
    assert complexity((4, -2, -2)) == 4
    # half-integral out-of-band value for non-zero-sum vectors
    assert complexity((1, 0, 0)) == Fraction(1, 2)


def test_zero_sum_enumeration_counts():
    assert len(zero_sum_vectors(3, 0)) == 1
    assert len(zero_sum_vectors(3, 1)) == 7
    vecs = zero_sum_vectors(3, 2)
    assert len(vecs) == 19
    assert all(sum(v) == 0 for v in vecs)
    # representatives (sorted descending) precede the rest of their class
    for rep in [(1, 0, -1), (2, 0, -2), (2, -1, -1), (1, 1, -2)]:
        cls = [v for v in vecs if tuple(sorted(v, reverse=True)) == rep]
        assert cls[0] == rep


def test_zero_sum_vectors_order_against_brute_force():
    # by complexity, then by descending representative (b sorted descending),
    # then descending inside the class, which puts the representative first
    def sweep_order(v):
        rep = sorted(v, reverse=True)
        return complexity(v), [-x for x in rep], [-x for x in v]

    for n in range(1, 6):
        for c in range(5):
            box = product(range(-c, c + 1), repeat=n)
            brute = [v for v in box if sum(v) == 0 and sum(map(abs, v)) <= 2 * c]
            assert zero_sum_vectors(n, c) == sorted(brute, key=sweep_order), (n, c)


def test_permute_form_single_move_family():
    a = _vars(3)
    one = Poly.const(3, 1)
    base = guess_dyson(3, (-1, 0, 1))
    swapped13 = permute_form(base, (2, 1, 0))
    assert swapped13.b == (1, 0, -1)
    assert swapped13.R == RatFunc.coprime(-a[2], one + a[0] + a[1])
    swapped12 = permute_form(base, (1, 0, 2))
    assert swapped12.b == (0, -1, 1)
    assert swapped12.R == RatFunc.coprime(-a[1], one + a[0] + a[2])


def test_permute_form_identity():
    base = guess_dyson(3, (-1, 0, 1))
    assert permute_form(base, (0, 1, 2)) == base


def test_permute_form_three_cycle_matches_fresh_guess():
    base = guess_dyson(3, (1, 0, -1))
    cycled = permute_form(base, (1, 2, 0))
    assert cycled.b == (0, -1, 1)
    assert cycled.R == guess_dyson(3, (0, -1, 1)).R


def test_permute_form_composition_consistency():
    base = guess_dyson(3, (2, -1, -1))
    once = permute_form(base, (1, 2, 0))
    twice = permute_form(once, (1, 2, 0))
    direct = permute_form(base, (2, 0, 1))
    assert twice == direct


def test_reduction_relation_n2_against_base_case():
    # c_2(a + e_2; b) = c_2(a; b) - c_2(a; b + (-1, 1)), as rational functions
    one = Poly.const(2, 1)
    a1, a2 = Poly.variable(2, 0), Poly.variable(2, 1)
    for h in range(-2, 3):
        b = (h, -h)
        # multinomial(a + e_2) / multinomial(a) = (1 + a_1 + a_2) / (1 + a_2)
        R = c2_closed_form(b).R
        raised = RatFunc.coprime(R.num.shift_var(1, 1), R.den.shift_var(1, 1))
        num, factors, c = sum_term(raised, one + a1 + a2)
        terms = [
            (num, factors + [one + a2], c),
            sum_term(c2_closed_form(b).R, -one),
            sum_term(c2_closed_form((h - 1, 1 - h)).R, one),
        ]
        assert RatFunc.sum_over(terms).is_zero(), b


def test_derive_by_reduction_matches_guess():
    forms = {}
    for b in [(2, -1, -1), (1, -1, 0), (2, -2, 0)]:
        forms[b] = guess_dyson(3, b)
    asked = []

    def lookup(b):
        asked.append(b)
        return forms.get(b)

    derived = derive_by_reduction(3, (1, -2, 1), lookup)
    assert derived is not None
    assert derived.R == guess_dyson(3, (1, -2, 1)).R
    # the base (S = {}), then S = {1}, {2} of the identity at the base
    assert asked == [(2, -1, -1), (1, -1, 0), (2, -2, 0)]
    # every target of complexity <= 2, from forms fitted on demand
    resolver = Resolver()
    for target in zero_sum_vectors(3, 2):
        derived = derive_by_reduction(3, target, lambda b: resolver.form(3, b))
        assert derived.R == resolver.form(3, target).R, target
    # at even n the target's term of the identity is negative
    derived = derive_by_reduction(4, (0, 0, -1, 1), lambda b: resolver.form(4, b))
    assert derived.R == resolver.form(4, (0, 0, -1, 1)).R


def test_derive_by_reduction_requires_all_ingredients():
    forms = {(2, -1, -1): guess_dyson(3, (2, -1, -1))}
    assert derive_by_reduction(3, (1, -2, 1), forms.get) is None


def test_derive_by_reduction_needs_denominators_that_split():
    # a looked-up form whose denominator a_1^2 + a_2 + 1 has no linear
    # factors stops the derivation, as a missing one does
    a = _vars(3)
    forms = {b: guess_dyson(3, b) for b in [(2, -1, -1), (1, -1, 0), (2, -2, 0)]}
    den = a[0] * a[0] + a[1] + Poly.const(3, 1)
    forms[(1, -1, 0)] = ClosedForm(3, (1, -1, 0), RatFunc.coprime(Poly.const(3, 1), den))
    asked = []

    def lookup(b):
        asked.append(b)
        return forms.get(b)

    assert derive_by_reduction(3, (1, -2, 1), lookup) is None
    assert asked == [(2, -1, -1), (1, -1, 0), (2, -2, 0)]


def test_sweep_c1_contents():
    result = turbo_dyson(3, 1)
    assert len(result.store) == 7
    assert not result.failures
    kinds = {line.b: line.provenance for line in result.lines}
    assert kinds[(0, 0, 0)] == "guessed"
    assert kinds[(1, 0, -1)] == "guessed"
    permuted = [b for b, k in kinds.items() if k == "permuted"]
    assert len(permuted) == 5


def test_sweep_c2_certified_and_oracle_checked():
    resolver = Resolver()
    result = turbo_dyson(3, 2, resolver=resolver)
    assert len(result.store) == 19
    assert not result.failures
    # one fit per permutation class
    assert resolver.guess_calls == 5
    from dysonct.conjecture import sample_grid

    for entry in result.store:
        cert = entry.certificate
        assert cert["recursion_ok"] and cert["initial_ok"] and cert["denominator_safe"]
        assert all(cert["boundary_ok"])
        for p in sample_grid(entry.n, entry.b, 5):
            assert entry.form.evaluate(p) == ct(entry.n, p, entry.b)


def test_sweep_permutation_closure():
    # with a class representative already in the store, its rearrangements
    # never trigger a fresh fit
    resolver = Resolver()
    store = ResultStore()
    result = turbo_dyson(3, 1, store=store, resolver=resolver)
    first_calls = resolver.guess_calls
    assert first_calls == 2
    again = turbo_dyson(3, 1, store=store, resolver=resolver)
    assert resolver.guess_calls == first_calls
    assert again.added == 0


def test_sweep_relabels_from_the_largest_stored_member():
    # <1,-1,0> is stored before its class's representative <1,0,-1>
    store = ResultStore()
    store.record(prove(3, (1, -1, 0), Resolver()), {"kind": "guessed"})
    result = turbo_dyson(3, 1, store=store)
    sources = {line.b: line.source_b for line in result.lines}
    assert sources[(1, 0, -1)] == (1, -1, 0)
    assert sources[(0, 1, -1)] == (1, 0, -1)
    assert store.get(3, (0, 1, -1)).provenance == {"kind": "permuted", "source_b": [1, 0, -1]}


def test_sweep_n2_matches_base_case():
    result = turbo_dyson(2, 3)
    assert len(result.store) == 7  # (0,0) plus (h,-h) for h in +-1,+-2,+-3
    for entry in result.store:
        assert entry.provenance["kind"] == "base"
        assert entry.form.R == c2_closed_form(entry.b).R


def test_sweep_idempotence_and_byte_identical_store(tmp_path):
    path = tmp_path / "store.json"
    store = ResultStore()
    turbo_dyson(3, 1, store=store)
    store.save(str(path))
    first = path.read_bytes()

    loaded = ResultStore.load(str(path))
    rerun = turbo_dyson(3, 1, store=loaded)
    assert rerun.added == 0
    loaded.save(str(path))
    assert path.read_bytes() == first


def test_provenance_soundness_reverify_permuted_entry():
    result = turbo_dyson(3, 1)
    entry = result.store.get(3, (0, -1, 1))
    assert entry.provenance["kind"] == "permuted"
    fresh = prove(3, (0, -1, 1), Resolver())
    assert fresh.form.R == entry.form.R
