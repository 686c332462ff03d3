import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from pathlib import Path

import numpy as np
import pytest

import dysonct.linalg as linalg
from dysonct.linalg import (
    FIRST_PRIME,
    _rref_mod,
    kernel_mod_p,
    matmul_mod,
    solve_nullspace,
)


def test_identity_has_trivial_nullspace():
    assert solve_nullspace([[1, 0], [0, 1]]) == []


def test_single_equation_kernel():
    assert solve_nullspace([[1, 1]]) == [(1, -1)]


def test_rank_one_matrix():
    basis = solve_nullspace([[1, 2], [2, 4]])
    assert len(basis) == 1
    # canonical scaling: primitive integers, first nonzero positive
    assert basis[0] == (2, -1)


def test_non_integer_entries_are_rejected():
    # a cast to int64 would truncate Fraction(1, 2) to 0 and solve another system
    for row in ([Fraction(1, 2), 1], [1, Fraction(2, 1)], [0.5, 1]):
        with pytest.raises(TypeError):
            solve_nullspace([[1, 1], row])


def test_zero_matrix_gives_full_basis():
    basis = solve_nullspace([[0, 0, 0]])
    assert basis == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert all(type(v) is int for vec in basis for v in vec)


def test_random_exactness_small():
    rng = random.Random(3)
    for _ in range(20):
        rows = [[rng.randint(-9, 9) for _ in range(6)] for _ in range(rng.randint(2, 8))]
        basis = solve_nullspace(rows)
        for vec in basis:
            for row in rows:
                assert sum(Fraction(x) * v for x, v in zip(row, vec)) == 0


def _reference_nullspace(rows):
    """Nullspace basis by Gauss-Jordan elimination over Fraction, one vector
    per free column, scaled like solve_nullspace's (primitive integers, first
    nonzero entry positive)."""
    m = [[Fraction(x) for x in row] for row in rows]
    ncols = len(m[0])
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -m[i][fc]
        common = lcm(*(v.denominator for v in vec))
        ints = [int(v * common) for v in vec]
        g = gcd(*ints)
        if next(v for v in ints if v) < 0:
            g = -g
        basis.append(tuple(Fraction(v, g) for v in ints))
    return basis


def _random_matrix(rng):
    ncols = rng.randint(1, 12)
    nrows = rng.randint(1, 14)
    kind = rng.choice(("full", "low_rank", "scaled"))
    if kind == "low_rank":
        # a product through a narrow inner dimension has rank at most k
        k = rng.randint(0, ncols - 1)
        left = [[rng.randint(-6, 6) for _ in range(k)] for _ in range(nrows)]
        right = [[rng.randint(-6, 6) for _ in range(ncols)] for _ in range(k)]
        rows = [
            [sum(a * b for a, b in zip(lrow, col)) for col in zip(*right)] if k else [0] * ncols
            for lrow in left
        ]
    elif kind == "scaled":
        # rows with a common factor, which solve_nullspace takes as given
        rows = []
        for _ in range(nrows):
            g = rng.randint(2, 12)
            rows.append([g * rng.randint(-9, 9) for _ in range(ncols)])
    else:
        rows = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(nrows)]
    for _ in range(rng.randint(0, 2)):
        rows.insert(rng.randint(0, len(rows)), [0] * ncols)
    return rows


def test_random_bases_match_fraction_reference():
    rng = random.Random(11)
    nullities = set()
    for _ in range(200):
        rows = _random_matrix(rng)
        expected = _reference_nullspace(rows)
        assert solve_nullspace(rows) == expected, rows
        nullities.add(len(expected))
    # the sample covers trivial, partial and full nullspaces
    assert 0 in nullities and len(nullities) >= 5


def test_multi_vector_kernel_lifts_over_several_primes(monkeypatch):
    # the RREF entries are ratios of 3 x 3 minors near 10**18, beyond what
    # one prime reconstructs, so every vector of the 3-vector kernel is
    # combined over several primes that give the same pivots
    rng = random.Random(8)
    rows = [[rng.randint(10**6 - 1000, 10**6 + 1000) for _ in range(6)] for _ in range(3)]
    reductions = []

    def counted(matrix, p):
        reductions.append(p)
        return kernel_mod_p(matrix, p)

    monkeypatch.setattr(linalg, "kernel_mod_p", counted)
    basis = solve_nullspace(rows)
    assert len(basis) == 3 and basis == _reference_nullspace(rows)
    assert len(reductions) >= 2


def test_mod_p_kernel_is_the_exact_basis_reduced_mod_p():
    # the premise of guess_rat's screen: where the first prime keeps the exact
    # rank, the kernel it reads off the primitive rows reduced mod p is
    # solve_nullspace's basis reduced mod p, vector for vector, each scaled to
    # 1 in its free column
    rng = random.Random(11)
    p = FIRST_PRIME
    compared = 0
    for _ in range(200):
        rows = _random_matrix(rng)
        exact = solve_nullspace(rows)
        matrix = np.array([[x % p for x in row] for row in rows], dtype=np.int64)
        kernel, _ = kernel_mod_p(matrix, p)
        if kernel.shape[1] != len(exact):
            continue
        assert kernel.shape == (len(rows[0]), len(exact))
        for column, vec in zip(kernel.T.tolist(), exact):
            # an RREF basis vector's last nonzero entry sits in its free column
            fc = max(c for c, v in enumerate(vec) if v)
            scale = pow(vec[fc], -1, p)
            assert column == [v * scale % p for v in vec], rows
        compared += 1
    assert compared == 200


def _rref_mod_reference(rows, p):
    """RREF of rows mod p and its pivot columns, by Gauss-Jordan elimination
    over Python ints."""
    m = [[x % p for x in row] for row in rows]
    pivots = []
    for c in range(len(m[0])):
        r = len(pivots)
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def _assert_mod_p_kernels_match_reference(rows, p):
    matrix = np.array(rows, dtype=np.int64)
    before = matrix.copy()
    expected, expected_pivots = _rref_mod_reference(rows, p)
    rref, pivots = _rref_mod(matrix, p)
    assert (rref.tolist(), pivots) == (expected, expected_pivots), (rows, p)
    ncols = len(rows[0])
    free = [c for c in range(ncols) if c not in expected_pivots]
    kernel = [[int(c == fc) for fc in free] for c in range(ncols)]
    for row, pc in zip(expected, expected_pivots):
        kernel[pc] = [-row[fc] % p for fc in free]
    got, got_pivots = kernel_mod_p(matrix, p)
    assert (got.tolist(), got_pivots) == (kernel, expected_pivots), (rows, p)
    for column in zip(*kernel):
        assert all(sum(map(mul, row, column)) % p == 0 for row in rows)
    assert np.array_equal(matrix, before)
    return len(expected_pivots)


@pytest.mark.parametrize(
    "rows, p",
    [
        ([[0, 3], [2, 0]], 7),  # the first pivot needs a row swap
        ([[0, 0, 5], [0, 0, 1], [0, 0, 2]], 7),  # zero columns
        ([[1, 2, 3], [1, 2, 3], [2, 4, 6], [0, 1, 1]], 7),  # repeated and dependent rows
        ([[2**31 - 1, 1], [1, 1]], 2**31 - 1),  # p itself is zero, so row 1 pivots
        ([[-1, 2 * (2**31 - 1) + 3], [-(2**31 - 1) - 2, 4]], 2**31 - 1),
        ([[-(2**63), 2**63 - 1], [1, -(2**62)]], 2**31 - 1),  # the int64 extremes
        ([[1, 0, 4, 0, 2], [0, 3, 1, 5, 6]], 7),  # full row rank at column 1 of 5
        ([[5]], 7),
        ([[0]], 7),
        ([[14]], 7),
        ([[0, 2, 9, 4]], 7),
        ([[0], [0], [3], [1]], 7),
        ([[FIRST_PRIME, 1], [1, 1]], FIRST_PRIME),
        ([[-1, 2 * FIRST_PRIME + 3], [-FIRST_PRIME - 2, 4]], FIRST_PRIME),
        ([[-(2**63), 2**63 - 1], [1, -(2**62)]], FIRST_PRIME),
    ],
)
def test_mod_p_rref_matches_python_reference(rows, p):
    _assert_mod_p_kernels_match_reference(rows, p)


def test_mod_p_rref_matches_python_reference_on_random_matrices():
    rng = random.Random(12)
    ranks = set()
    for _ in range(300):
        p = rng.choice((2, 7, 101, FIRST_PRIME))
        shape = rng.choice(("square", "wide", "tall", "row", "column"))
        ncols = 1 if shape == "column" else rng.randint(1, 9)
        nrows = {
            "square": ncols,
            "wide": rng.randint(1, ncols),
            "tall": rng.randint(4 * ncols, 4 * ncols + 6),  # as after a doubling
            "row": 1,
            "column": rng.randint(1, 9),
        }[shape]
        # a product through an inner dimension k has rank at most k
        k = rng.randint(0, min(nrows, ncols))
        left = [[rng.randrange(p) for _ in range(k)] for _ in range(nrows)]
        right = [[rng.randrange(p) for _ in range(ncols)] for _ in range(k)]
        rows = [[sum(map(mul, lrow, col)) for col in zip(*right)] for lrow in left]
        if k == 0:
            rows = [[0] * ncols for _ in range(nrows)]
        if rng.random() < 0.3:
            zero = rng.randrange(ncols)
            rows = [[0 if c == zero else x for c, x in enumerate(row)] for row in rows]
        if rng.random() < 0.3:
            rows.insert(rng.randrange(nrows + 1), list(rng.choice(rows)))
        # unreduced entries: negative, p and its multiples, and beyond p
        rows = [[x % p + p * rng.randint(-3, 3) for x in row] for row in rows]
        ranks.add((shape, _assert_mod_p_kernels_match_reference(rows, p) == min(nrows, ncols)))
    assert len(ranks) == 10  # full and deficient rank in every shape


@pytest.mark.parametrize("p, room", [(FIRST_PRIME, 32), (2**31 - 1, 2)])
def test_delayed_reduction_keeps_int64_exact(p, room):
    # each pending update subtracts at most (p - 1)**2 from an entry reduced
    # into [0, p), and room of them stay within int64
    assert linalg._room(p) == room
    assert room * (p - 1) ** 2 + p <= 2**63 - 1


def _bordered(k, rng, p):
    """[[I, X], [Y, Z]] with I the k x k identity, X and Y all p - 1 and Z
    small and 3 x 6.  Pivot c < k leaves the rows of X and the columns of Y
    that later pivots read unchanged, so each of the first k updates
    subtracts exactly (p - 1)**2 from every entry of Z: more than room of
    them overflow int64.  Z's last 3 columns are free, so the RREF shows it."""
    top = [[int(i == j) for j in range(k)] + [p - 1] * 6 for i in range(k)]
    bottom = [[p - 1] * k + [rng.randrange(4) for _ in range(6)] for _ in range(3)]
    return top + bottom


def _near_p_rows(rng, nrows, ncols, p):
    return [[p - 1 - rng.randrange(4) for _ in range(ncols)] for _ in range(nrows)]


@pytest.mark.parametrize("p", [FIRST_PRIME, 2**31 - 1])
def test_delayed_reduction_matches_python_reference(p):
    # more pivots than room allows, so the trailing block is reduced mid-run,
    # on entries near p - 1
    room = linalg._room(p)
    n = 2 * room + 6
    rng = random.Random(p)
    tall = _near_p_rows(rng, n + 5, n, p)
    # a zero column and a repeated column, each met with updates pending,
    # and a repeated row, so the rank falls short
    deficient = _near_p_rows(rng, n + 3, n, p)
    for row in deficient:
        row[room + 1] = 0
        row[room + 3] = row[2]
    deficient.append(list(deficient[5]))
    # every row pivots before the last column, with updates still pending
    wide = _near_p_rows(rng, room + 3, n, p)
    bordered = _bordered(room + 4, rng, p)
    cases = {"bordered": bordered, "tall": tall, "deficient": deficient, "wide": wide}
    ranks = {name: _assert_mod_p_kernels_match_reference(rows, p) for name, rows in cases.items()}
    assert ranks == {"bordered": room + 7, "tall": n, "deficient": n - 2, "wide": room + 3}
    assert min(ranks.values()) > room


def test_matmul_mod_matches_python_ints():
    rng = random.Random(4)
    p = FIRST_PRIME
    a = [[rng.randrange(p) for _ in range(300)] for _ in range(7)]
    b = [[rng.randrange(p) for _ in range(5)] for _ in range(300)]
    expected = [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]
    got = matmul_mod(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64), p)
    assert got.tolist() == expected


def test_prime_sized_entry_is_not_mistaken_for_zero():
    # the first prime kills the leading entry and moves the pivot to column
    # 1; the basis must come from the primes that keep column 0
    assert solve_nullspace([[FIRST_PRIME, 1]]) == [(1, -FIRST_PRIME)]


def test_modular_path_recovers_known_kernel():
    # a wide system with a kernel built by design
    rng = random.Random(5)
    cols = 60
    w = [rng.randint(-50, 50) for _ in range(cols - 1)]
    rows = []
    for _ in range(cols + 6):
        lead = [rng.randint(-1000, 1000) for _ in range(cols - 1)]
        last = -sum(l * x for l, x in zip(lead, w))
        rows.append(lead + [last])
    basis = solve_nullspace(rows)
    assert len(basis) == 1
    vec = basis[0]
    for row in rows:
        assert sum(Fraction(x) * v for x, v in zip(row, vec)) == 0
    # proportional to (w, 1)
    scale = vec[-1]
    assert scale != 0
    assert all(v == scale * wi for v, wi in zip(vec, w))


def test_modular_path_trivial_nullspace():
    rng = random.Random(9)
    cols = 53
    rows = [[rng.randint(-1000, 1000) for _ in range(cols)] for _ in range(cols + 8)]
    assert solve_nullspace(rows) == []


def test_ragged_matrix_rejected():
    with pytest.raises(ValueError):
        solve_nullspace([[1, 2], [1]])


UNSOUND_KERNEL = """
import inspect
import dysonct.linalg as linalg

# _rref_mod without the write-back of the scaled pivot row, which the block
# update leaves zero: every reduction is wrong, so no basis ever verifies
source = inspect.getsource(linalg._rref_mod)
assert "        block[:, r] = row\\n" in source
exec("from __future__ import annotations\\n" + source.replace("        block[:, r] = row\\n", ""),
     linalg.__dict__)
try:
    linalg.solve_nullspace([[1, 2, 3], [2, 4, 7], [3, 6, 10]])
except ArithmeticError as exc:
    print("raised:", exc)
"""


def test_unsound_reduction_raises_instead_of_spinning():
    # the prime loop is bounded, so the child ends well inside the timeout
    result = subprocess.run(
        [sys.executable, "-c", UNSOUND_KERNEL],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("raised: no verified nullspace basis after ")
