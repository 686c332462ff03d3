import itertools
import random
from typing import Dict, Tuple

import pytest

from conftest import literal_ct
from dysonct import laurent
from dysonct.laurent import (
    _ct_cached,
    _expand,
    _Family,
    _signed_row,
    ct,
    multinomial,
    pk_expansion,
)
from dysonct.poly import Poly, binomial_poly


def test_ct_examples():
    assert ct(3, (1, 1, 1), (0, 0, 0)) == 6
    assert ct(3, (1, 1, 1), (3, 0, -3)) == 0
    assert ct(2, (1, 1), (1, -1)) == -1
    # nonzero b-sum kills the coefficient for any a
    assert ct(3, (2, 1, 2), (1, 0, 0)) == 0
    assert ct(1, (3,), (0,)) == 1


def test_negative_a_rejected():
    with pytest.raises(ValueError):
        ct(2, (1, -1), (0, 0))
    with pytest.raises(ValueError):
        ct(2, (1,), (0, 0))
    with pytest.raises(ValueError):
        ct(0, (), ())


def test_against_literal_expansion():
    for n in (2, 3):
        for a in itertools.product(range(3), repeat=n):
            for b in itertools.product(range(-2, 3), repeat=n):
                assert ct(n, a, b) == literal_ct(n, a, b), (n, a, b)


def test_against_literal_expansion_n4():
    for a in itertools.product(range(2), repeat=4):
        for b in [(0, 0, 0, 0), (1, -1, 0, 0), (1, 0, 0, -1), (2, -1, -1, 0), (1, 1, -1, -1)]:
            assert ct(4, a, b) == literal_ct(4, a, b), (a, b)


def test_multinomial_theorem_small():
    for n in (1, 2, 3):
        for a in itertools.product(range(4), repeat=n):
            assert ct(n, a, (0,) * n) == multinomial(a)
    for a in itertools.product(range(3), repeat=4):
        assert ct(4, a, (0,) * 4) == multinomial(a)
    for a in [(0, 1, 2, 3, 4), (3, 3, 3, 3, 3), (6, 2, 5, 3, 4), (1, 0, 2, 1, 0, 2),
              (2, 3, 4, 5, 6, 7)]:
        assert ct(len(a), a, (0,) * len(a)) == multinomial(a), a


def test_relabeling_symmetry():
    for a in itertools.product(range(3), repeat=3):
        for b in [(0, 0, 0), (1, -1, 0), (2, -1, -1), (2, -2, 0), (1, 1, -2)]:
            base = ct(3, a, b)
            for perm in itertools.permutations(range(3)):
                pa = tuple(a[p] for p in perm)
                pb = tuple(b[p] for p in perm)
                assert ct(3, pa, pb) == base


def test_relabeling_symmetry_n4_sample():
    cases = [((1, 2, 0, 1), (1, -1, 0, 0)), ((2, 1, 1, 2), (2, -1, -1, 0))]
    for a, b in cases:
        base = ct(4, a, b)
        for perm in itertools.permutations(range(4)):
            assert ct(4, tuple(a[p] for p in perm), tuple(b[p] for p in perm)) == base


def _zero_sum(n, bound):
    return [b for b in itertools.product(range(-bound, bound + 1), repeat=n) if sum(b) == 0]


def test_raw_dp_is_invariant_under_relabeling():
    # the uncached kernel itself, bypassing the canonical arrangement and the
    # top-level lookup: every arrangement of the pairs (a_i, b_i) must give
    # the literal value; its sub-instances are read from the families of the
    # unsorted tails.  At n = 2 there is no kernel: ct sorts first and reads
    # the closed form, checked on every arrangement by
    # test_against_literal_expansion
    _ct_cached.cache_clear()
    cases = [(3, a, b) for a in itertools.product(range(3), repeat=3) for b in _zero_sum(3, 2)]
    cases += [(4, a, b) for a in itertools.product(range(2), repeat=4) for b in _zero_sum(4, 1)]
    for n, a, b in cases:
        expected = literal_ct(n, a, b)
        for perm in itertools.permutations(range(n)):
            pa = tuple(a[p] for p in perm)
            pb = tuple(b[p] for p in perm)
            assert _expand(_Family(pa), pb) == expected, (n, pa, pb)
    _ct_cached.cache_clear()


@pytest.mark.parametrize(
    "a, b",
    [((3, 1, 4, 2), (1, -1, 2, -2)), ((1, 2, 1, 0), (1, 0, -1, 0))],
    ids=["distinct-a", "tied-a"],
)
def test_all_arrangements_share_one_cache_entry(a, b):
    # the first arrangement fills the cache with its sub-instances too; every
    # other relabeling must then be a single hit on the canonical entry
    _ct_cached.cache_clear()
    perms = list(itertools.permutations(range(4)))
    arrange = [(tuple(a[p] for p in perm), tuple(b[p] for p in perm)) for perm in perms]
    ct(4, *arrange[0])
    first = _ct_cached.cache_info()
    for pa, pb in arrange[1:]:
        ct(4, pa, pb)
    info = _ct_cached.cache_info()
    assert (info.misses - first.misses, info.hits - first.hits) == (0, 23)


def _forward_dp_ct(n: int, a: Tuple[int, ...], b: Tuple[int, ...]) -> int:
    """Reference oracle: the forward-elimination DP that the recursion on
    sub-instances (``laurent._expand``) replaced, kept verbatim (without the
    cache)."""
    # Callers pass the canonical arrangement (see ct); the DP itself is
    # correct for any arrangement.  DP state: accumulated exponents of the
    # still-active variables h..n-1, mapped to integer coefficients.  Processing variable h absorbs every pair factor (h, j),
    # keeps only the slice with x_h-exponent b_h, and retires x_h.
    state: Dict[Tuple[int, ...], int] = {(0,) * n: 1}
    for h in range(n - 1):
        ah = a[h]
        # pair (h, j) with summand index m in [-a_h, a_j] contributes
        # rows[idx][a_h + m] and exponents +m to x_h, -m to x_j
        highs = a[h + 1 :]
        rows = [_signed_row(ah, aj) for aj in highs]
        last = len(highs)
        # bounds on the m-sum over partners idx..last-1, for pruning
        suffix_lo = [-ah * (last - i) for i in range(last + 1)]
        suffix_hi = [sum(highs[i:]) for i in range(last + 1)]
        new_state: Dict[Tuple[int, ...], int] = {}

        def walk(idx: int, need: int, rest: Tuple[int, ...], key: Tuple[int, ...], coeff: int):
            if idx == last - 1:
                # the last partner takes the whole remaining need
                if -ah <= need <= highs[idx]:
                    key += (rest[idx] - need,)
                    s = new_state.get(key, 0) + coeff * rows[idx][ah + need]
                    if s:
                        new_state[key] = s
                    elif key in new_state:
                        del new_state[key]
                return
            # prune m-ranges that cannot reach the target slice
            lo = max(-ah, need - suffix_hi[idx + 1])
            hi = min(highs[idx], need - suffix_lo[idx + 1])
            row = rows[idx]
            e = rest[idx]
            for m in range(lo, hi + 1):
                walk(idx + 1, need - m, rest, key + (e - m,), coeff * row[ah + m])

        for key, coeff in state.items():
            walk(0, b[h] - key[0], key[1:], (), coeff)
        state = new_state
        if not state:
            return 0
    return state.get((b[n - 1],), 0)


@pytest.mark.parametrize("a", [(2, 3, 4, 5, 6), (2, 3, 4, 5, 7)])
def test_recursion_matches_forward_dp_on_guess_grid(a):
    # the arrangements a fit at n = 5 samples: every distinct placement of b
    for b in sorted(set(itertools.permutations((1, 1, -1, -1, 0)))):
        assert ct(5, a, b) == _forward_dp_ct(5, a, b), (a, b)


def test_recursion_matches_forward_dp_tied_a():
    a, b = (4, 4, 5, 6, 7), (2, -2, 1, -1, 0)
    assert ct(5, a, b) == _forward_dp_ct(5, a, b) != 0


def test_recursion_matches_forward_dp_random():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(2, 6)
        a = tuple(rng.randint(0, 4 if n < 6 else 3) for _ in range(n))
        b = [rng.randint(-3, 3) for _ in range(n - 1)]
        b = tuple(b + [-sum(b)])
        # the reference takes any arrangement, ct sorts it first
        assert ct(n, a, b) == _forward_dp_ct(n, a, b), (n, a, b)
    # warm targets of one family that share b_0 (a_0 is the unique
    # smallest exponent), so they read one prefix table and its pair
    # products; the prefix table has depth n - 3, at least 2 only at n >= 5
    for a in [(1, 2, 2, 3, 4), (1, 2, 2, 3, 3, 4)]:
        n = len(a)
        _ct_cached.cache_clear()
        for _ in range(4):
            rest = [rng.randint(-3, 3) for _ in range(n - 2)]
            b = (2, *rest, -2 - sum(rest))
            assert ct(n, a, b) == _forward_dp_ct(n, a, b), (n, a, b)
        assert len(_ct_cached(n, a).prefixes) == 1


def test_sub_instances_live_in_the_one_cache():
    _ct_cached.cache_clear()
    ct(5, (2, 3, 4, 5, 6), (1, 1, -1, -1, 0))
    assert _ct_cached.cache_info().currsize > 1
    _ct_cached.cache_clear()
    assert _ct_cached.cache_info().currsize == 0
    ct(5, (2, 3, 4, 5, 6), (1, 1, -1, -1, 0))
    info = _ct_cached.cache_info()
    assert info.misses > 0 and info.currsize > 1


def test_recursion_matches_forward_dp_at_line_ends():
    # larger entries than the guess grid; each line b[:-2] is read at both
    # ends of the range where x_4 and x_5 can reach their exponents, and one
    # step beyond, where the pruned m-ranges are empty; the head (27, 0, 0)
    # is out of x_1's reach (27 > 5 + 6 + 7 + 8), so its whole line is zero
    a = (4, 5, 6, 7, 8)
    for head in [(3, -2, 1), (-16, 2, 2), (22, 0, 0), (27, 0, 0)]:
        s = sum(head)
        lo = max(-4 * a[3], -s - (sum(a) - a[4]))
        hi = min(sum(a) - a[3], -s + 4 * a[4])
        nonzero = []
        for k in (lo - 1, lo, lo + 1, hi - 1, hi, hi + 1):
            b = head + (k, -s - k)
            expected = _forward_dp_ct(5, a, b)
            assert ct(5, a, b) == expected, b
            nonzero.append(expected != 0)
        assert nonzero == ([False] * 6 if head[0] == 27 else [False] + [True] * 4 + [False])


def test_cache_clear_drops_every_value_and_row(monkeypatch):
    # count the kernel's expansions, the binomials its rows are built from
    # and the prefix tables and pair products built from the rows: a cold
    # call after cache_clear must redo all of them, a warm call none
    counts = {"expand": 0, "comb": 0, "prefixes": 0, "pairs": 0}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(laurent, "_expand", counted("expand", laurent._expand))
    monkeypatch.setattr(laurent, "comb", counted("comb", laurent.comb))
    monkeypatch.setattr(laurent, "_prefix_table", counted("prefixes", laurent._prefix_table))
    monkeypatch.setattr(laurent, "_pair_products", counted("pairs", laurent._pair_products))
    a, b = (2, 3, 4, 5, 6), (1, 1, -1, -1, 0)
    cold = []
    for _ in range(2):
        _ct_cached.cache_clear()
        assert _ct_cached.cache_info().currsize == 0
        counts.update(dict.fromkeys(counts, 0))
        assert ct(5, a, b) == _forward_dp_ct(5, a, b)
        cold.append((_ct_cached.cache_info().misses, *counts.values()))
    assert cold[0] == cold[1] and min(cold[0]) > 0
    counts.update(dict.fromkeys(counts, 0))
    ct(5, a, b)
    assert set(counts.values()) == {0}


def test_off_plane_target_is_not_read_from_its_line():
    # (1, 0, 0) has the line key and b[-2] of the stored (0, 0, 0)
    _ct_cached.cache_clear()
    assert ct(3, (1, 1, 1), (0, 0, 0)) == 6
    assert ct(3, (1, 1, 1), (1, 0, 0)) == 0


@pytest.mark.parametrize("a", [0, 1, 7])
def test_one_variable(a):
    assert ct(1, (a,), (0,)) == 1
    assert ct(1, (a,), (1,)) == 0


def test_zero_sum_law():
    for a in itertools.product(range(3), repeat=3):
        for b in itertools.product(range(-2, 3), repeat=3):
            if sum(b) != 0:
                assert ct(3, a, b) == 0


def test_recursion_cross_check():
    b_list = [(0, 0, 0), (1, -1, 0), (2, -1, -1)]
    for a in itertools.product(range(1, 4), repeat=3):
        for b in b_list:
            total = sum(
                ct(3, tuple(x - (1 if i == j else 0) for j, x in enumerate(a)), b)
                for i in range(3)
            )
            assert ct(3, a, b) == total, (a, b)


def test_boundary_cross_check():
    # with a_k = 0 the constant term collapses through the P_k expansion
    for b in [(0, 0, 0), (1, -1, 0), (2, -1, -1), (2, -2, 0)]:
        for k in range(3):
            expansion = pk_expansion(3, k, b)
            others = [i for i in range(3) if i != k]
            for rest in itertools.product(range(4), repeat=2):
                a = [0, 0, 0]
                for idx, val in zip(others, rest):
                    a[idx] = val
                lhs = ct(3, tuple(a), b)
                rhs = 0
                for term in expansion:
                    coeff = term.coeff.evaluate(a)
                    assert coeff.denominator == 1
                    rhs += int(coeff) * ct(2, rest, term.shifted_b)
                assert lhs == rhs, (b, k, a)


def test_pk_expansion_2m1m1_data():
    by_m = {t.m: t for t in pk_expansion(3, 0, (2, -1, -1))}
    assert set(by_m) == {(2, 0), (1, 1), (0, 2)}
    assert by_m[(2, 0)].coeff == binomial_poly(3, 1, 2)
    assert by_m[(2, 0)].shifted_b == (1, -1)
    assert by_m[(0, 2)].coeff == binomial_poly(3, 2, 2)
    assert by_m[(0, 2)].shifted_b == (-1, 1)
    assert by_m[(1, 1)].coeff == Poly.variable(3, 1) * Poly.variable(3, 2)
    assert by_m[(1, 1)].shifted_b == (0, 0)


def test_pk_expansion_negative_pivot_is_empty():
    assert pk_expansion(3, 1, (2, -1, -1)) == ()
    assert pk_expansion(3, 2, (2, -1, -1)) == ()


def test_pk_expansion_zero_vector():
    (term,) = pk_expansion(3, 0, (0, 0, 0))
    assert term.m == (0, 0)
    assert term.coeff == Poly.const(3, 1)
    assert term.shifted_b == (0, 0)


def test_pk_expansion_preserves_b_sum():
    for b in [(2, -1, -1), (3, -1, -2), (1, 1, -2)]:
        for k in range(3):
            for term in pk_expansion(3, k, b):
                assert sum(term.shifted_b) == sum(b)


def test_pk_expansion_contract_errors():
    with pytest.raises(ValueError):
        pk_expansion(2, 0, (1, -1))
    with pytest.raises(ValueError):
        pk_expansion(3, 3, (0, 0, 0))


def test_multinomial_values():
    assert multinomial((0,)) == 1
    assert multinomial((1, 1, 1)) == 6
    assert multinomial((3, 3, 3, 3)) == 369600
