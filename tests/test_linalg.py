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
    _clear_row,
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


def test_fraction_entries():
    rows = [[Fraction(1, 2), Fraction(1, 3)]]
    (vec,) = solve_nullspace(rows)
    assert Fraction(1, 2) * vec[0] + Fraction(1, 3) * vec[1] == 0
    assert vec == (2, -3) and all(type(v) is int for v in vec)


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
    kind = rng.choice(("full", "low_rank", "fractions"))
    if kind == "low_rank":
        # a product through a narrow inner dimension has rank at most k
        k = rng.randint(0, ncols - 1)
        left = [[rng.randint(-6, 6) for _ in range(k)] for _ in range(nrows)]
        right = [[rng.randint(-6, 6) for _ in range(ncols)] for _ in range(k)]
        rows = [
            [sum(a * b for a, b in zip(lrow, col)) for col in zip(*right)] if k else [0] * ncols
            for lrow in left
        ]
    elif kind == "fractions":
        rows = [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(ncols)]
            for _ in range(nrows)
        ]
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
        matrix = np.array([[x % p for x in _clear_row(row)] for row in rows], dtype=np.int64)
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
        ([[FIRST_PRIME, 1], [1, 1]], FIRST_PRIME),  # p itself is zero, so row 1 pivots
        ([[-1, 2 * FIRST_PRIME + 3], [-FIRST_PRIME - 2, 4]], FIRST_PRIME),
        ([[-(2**63), 2**63 - 1], [1, -(2**62)]], FIRST_PRIME),  # the int64 extremes
        ([[1, 0, 4, 0, 2], [0, 3, 1, 5, 6]], 7),  # full row rank at column 1 of 5
        ([[5]], 7),
        ([[0]], 7),
        ([[14]], 7),
        ([[0, 2, 9, 4]], 7),
        ([[0], [0], [3], [1]], 7),
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


def test_matmul_mod_matches_python_ints():
    rng = random.Random(4)
    p = FIRST_PRIME
    a = [[rng.randrange(p) for _ in range(300)] for _ in range(7)]
    b = [[rng.randrange(p) for _ in range(5)] for _ in range(300)]
    expected = [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]
    got = matmul_mod(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64), p)
    assert got.tolist() == expected


def test_prime_sized_entry_is_not_mistaken_for_zero():
    # the first prime, 2**31 - 1, kills the leading entry and moves the pivot
    # to column 1; the basis must come from the primes that keep column 0
    assert solve_nullspace([[2**31 - 1, 1]]) == [(1, -(2**31 - 1))]


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
