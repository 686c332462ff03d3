"""Exact nullspace computation for the rational-function fitter.

The matrix is integer rows, taken as given: no row is scaled or cleared of
a common factor.  One strategy for every system size: row reduction modulo
primes just below 2**29, Chinese-remainder combination extended by one
prime per step, rational reconstruction, and a final exact big-integer
verification M v = 0 of every basis vector.  One Gauss-Jordan kernel,
``_rref_mod``, does every mod-p reduction: numpy int64 only, one in-place
update of the trailing block per pivot, no floating point.  The block is
reduced mod p only once 32 updates are pending, as many as int64 holds at
that prime size, so the reduction costs a fraction of what it costs after
every update.

A nullity of zero modulo any prime already proves the exact nullspace is
trivial, so failed fit degrees are rejected quickly; reconstructed vectors
are never trusted without the exact verification step.

``kernel_mod_p`` reads the nullspace basis of a matrix modulo one prime off
its RREF, and it is the only code that does, for the fitter's screen and the
exact lift alike: ``solve_nullspace`` combines the kernels it returns, entry
by entry, over primes that give the same pivots, and reconstructs every
entry.  The fitter screens each system with it modulo ``FIRST_PRIME``,
p = 2**29 - 3, before it asks ``solve_nullspace`` for the exact basis, and
hands the kernel of a split that passes to ``solve_nullspace`` as the lift's
first prime, so the lift does not reduce the same rows again.  When the
rows' reduction has the exact rank and the exact pivots, and p divides no
denominator of the exact reduced basis, the mod-p basis is the exact basis
reduced mod p, vector for vector, so a property that holds exactly (a
nonzero entry, a nonzero value) still holds mod p unless p divides one
particular nonzero integer.

numpy is imported inside the functions that build or reduce an array, so
importing this module does not load it; the first mod-p reduction does.
"""

from __future__ import annotations

from math import gcd, isqrt, lcm
from operator import index, mul
from typing import TYPE_CHECKING, Iterator, List, Sequence, Tuple

if TYPE_CHECKING:
    import numpy as np

# the primes below 2**29 in descending order, extended by _prime on demand
_primes: List[int] = []


def _is_prime(n: int) -> bool:
    # Deterministic Miller-Rabin for n < 3.2e9 with bases 2, 3, 5, 7.
    if n < 2:
        return False
    for p in (2, 3, 5, 7):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime(i: int) -> int:
    """The i-th prime below 2**29, counting down from 2**29 - 3.

    Primes of that size let _rref_mod take 32 updates between reductions
    (see _room), where a 31-bit prime allows 2."""
    n = _primes[-1] - 2 if _primes else 2**29 - 1
    while len(_primes) <= i:
        if _is_prime(n):
            _primes.append(n)
        n -= 2
    return _primes[i]


# the prime solve_nullspace reduces with first, and the fitter screens with
FIRST_PRIME = _prime(0)


def _room(p: int) -> int:
    """How many rank-1 updates _rref_mod lets its trailing block take
    between reductions mod p: the most, room, with room (p - 1)**2 + p below
    2**63.  That is 32 for a prime below 2**29 and 2 for one below 2**31."""
    return (2**63 - 1 - p) // (p - 1) ** 2


def _rref_mod(matrix: np.ndarray, p: int) -> Tuple[np.ndarray, List[int]]:
    """The reduced row echelon form of ``matrix`` modulo the prime p < 2**31
    and its pivot columns in increasing order.

    ``matrix`` is any int64 array and is left unchanged; the RREF is a new
    array, with entries in [0, p).

    The input is reduced once, into a copy.  Each pivot scales its row to 1
    and clears its column from every other row in one in-place rank-1 update
    of the trailing block (every row, the columns from the pivot's on),
    which subtracts a product y z with y and z in [0, p) from each entry.
    The block is reduced with x - x // p * p, which gives the residues of
    x % p faster than numpy's int64 ``%`` does, only once ``room`` updates
    are pending: an entry reduced into [0, p) then lies in
    [-room (p - 1)**2, p), which int64 holds exactly (see _room).  The
    pivot's column and row are reduced before they are read, and every
    column the loop leaves is in [0, p).  The copy is held transposed, so
    that the trailing block is one contiguous run of memory.
    """
    import numpy as np

    m = matrix.T.copy()  # m[c] is column c of the matrix
    m -= m // p * p
    ncols, nrows = m.shape
    room = _room(p)
    pending = 0  # updates m[c:] has taken since it was last reduced
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            # every row has its pivot, so the rest of the block only needs
            # its pending updates reduced
            if pending:
                rest = m[c:]
                rest -= rest // p * p
            break
        column = m[c]
        if pending:
            column -= column // p * p
        if not column[r]:
            nz = np.flatnonzero(column[r:])
            if nz.size == 0:
                continue
            # rows r and below are zero left of column c, so only columns c
            # and beyond need swapping
            pivot = r + int(nz[0])
            m[c:, [r, pivot]] = m[c:, [pivot, r]]
        row = m[c:, r] % p * pow(int(m[c, r]), -1, p) % p
        # clears column c from every other row; row r itself is overwritten
        block = m[c:]
        block -= row[:, None] * column
        pending += 1
        if pending == room:
            block -= block // p * p
            pending = 0
        block[:, r] = row
        pivots.append(c)
        r += 1
    return m.T, pivots


def _rational_reconstruct(x: int, mod: int) -> Tuple[int, int] | None:
    """(num, den) with den > 0, num = x den mod ``mod`` and both at most
    sqrt(mod / 2) in size, or None if no such coprime pair exists."""
    bound = isqrt(mod // 2)
    r0, r1 = mod, x % mod
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if r1 > bound or abs(t1) > bound or t1 == 0 or gcd(r1, abs(t1)) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _verified_vector(
    int_rows: List[List[int]], vec: Sequence[Tuple[int, int]]
) -> Tuple[int, ...] | None:
    """The vector of (num, den) pairs scaled to primitive integers with its
    first nonzero entry positive, or None unless every row annihilates it."""
    common = lcm(*(den for _, den in vec))
    ints = [num * (common // den) for num, den in vec]
    if any(sum(map(mul, row, ints)) for row in int_rows):
        return None
    g = gcd(*ints)
    if next(v for v in ints if v) < 0:
        g = -g
    return tuple(v // g for v in ints)


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for int64 arrays with entries in [0, p), p < 2**31.

    b is split into 16-bit halves so that no partial sum leaves int64, which
    holds for inner dimensions up to 2**15.
    """
    if a.shape[-1] > 2**15:
        raise ValueError("inner dimension too large for int64 partial sums")
    low = a @ (b & 0xFFFF)
    high = a @ (b >> 16)
    return ((high % p) * 0x10000 + low) % p


# a nullspace basis modulo one prime and the pivots it was read off, as
# kernel_mod_p returns them
ModKernel = Tuple["np.ndarray", List[int]]


def kernel_mod_p(matrix: np.ndarray, p: int) -> ModKernel:
    """The nullspace basis of the int64 array ``matrix`` modulo the prime p
    and the pivot columns of its RREF mod p, in increasing order.

    The basis is the columns of an int64 array with entries in [0, p), one
    per free column of the RREF in increasing order, with 1 in that free
    column and 0 in the others.  ``matrix`` need not be reduced mod p.
    solve_nullspace lifts these kernels to the exact basis, so for a matrix
    of integer rows this is that basis reduced mod p, vector for vector and
    up to scale, whenever the reduction has the exact pivots and p divides
    no denominator of the exact RREF."""
    import numpy as np

    rref, pivots = _rref_mod(matrix, p)
    ncols = matrix.shape[1]
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    kernel = np.zeros((ncols, len(free)), dtype=np.int64)
    kernel[free, range(len(free))] = 1
    kernel[pivots] = -rref[: len(pivots), free] % p
    return kernel, pivots


# primes _nullspace_modular tries before it bounds the count; the fitter's
# systems, up to n = 4 at t = 9, have needed one or two below 2**29
_UNBOUNDED_PRIMES = 4


def _prime_budget(int_rows: List[List[int]], ncols: int) -> int:
    """How many primes a sound mod-p reduction can need for ``int_rows``.

    Every minor of the matrix is at most D in size, D the product of the
    min(rows, ncols) largest row norms (Hadamard), with D < 2**bits.  The
    exact RREF's entries are ratios of such minors, so rational
    reconstruction succeeds once the lucky primes' product exceeds 2 D**2.
    A prime is unlucky, giving other pivots, only if it divides one nonzero
    minor, so fewer than bits / 28 are; each prime exceeds 2**28.
    """
    norm_bits = sorted((sum(x * x for x in row).bit_length() + 1) // 2 for row in int_rows)
    bits = sum(norm_bits[-min(len(int_rows), ncols) :])
    return bits // 28 + (2 * bits + 1) // 28 + 2


def _candidate_primes(int_rows: List[List[int]], ncols: int) -> Iterator[int]:
    """The primes _nullspace_modular may try, in order; their count is
    bounded by _prime_budget, computed only once the first few are spent."""
    yield from map(_prime, range(_UNBOUNDED_PRIMES))
    yield from map(_prime, range(_UNBOUNDED_PRIMES, _prime_budget(int_rows, ncols)))


def _lifted_basis(
    int_rows: List[List[int]], residues: List[List[int]], mod: int
) -> List[Tuple[int, ...]] | None:
    """The exact basis if every entry of every kernel vector in ``residues``,
    combined modulo ``mod``, reconstructs and every vector verifies against
    the integer rows, else None."""
    basis: List[Tuple[int, ...]] = []
    for column in residues:
        vec = [_rational_reconstruct(x, mod) for x in column]
        verified = None if None in vec else _verified_vector(int_rows, vec)
        if verified is None:
            return None
        basis.append(verified)
    return basis


def _nullspace_modular(
    int_rows: List[List[int]], ncols: int, first_kernel: ModKernel | None
) -> List[Tuple[int, ...]]:
    import numpy as np

    # the current pivot group is its pivots, its primes' product modulus and
    # residues, its kernel vectors with each entry combined modulo modulus;
    # an empty kernel lifts to []
    pivots: List[int] | None = None
    tried = 0
    for tried, p in enumerate(_candidate_primes(int_rows, ncols), 1):
        if tried == 1 and first_kernel is not None:
            kernel, kernel_pivots = first_kernel
        else:
            # the rows hold big integers, which fit in int64 only once reduced
            matrix = np.array([[x % p for x in row] for row in int_rows], dtype=np.int64)
            kernel, kernel_pivots = kernel_mod_p(matrix.reshape(len(int_rows), ncols), p)
        # Over Q the rank is at least the rank mod p and, at equal rank, each
        # pivot is at most its mod-p counterpart; a prime that loses on either
        # count is unlucky, one that wins shows the previous group was.
        if (
            pivots is None
            or len(kernel_pivots) > len(pivots)
            or (len(kernel_pivots) == len(pivots) and kernel_pivots < pivots)
        ):
            pivots, residues, modulus = kernel_pivots, kernel.T.tolist(), p
        elif kernel_pivots != pivots:
            continue
        else:
            inv = pow(modulus % p, -1, p)
            residues = [
                [x + modulus * ((r - x) * inv % p) for x, r in zip(xs, rs)]
                for xs, rs in zip(residues, kernel.T.tolist())
            ]
            modulus *= p
        basis = _lifted_basis(int_rows, residues, modulus)
        if basis is not None:
            return basis
    raise ArithmeticError(
        f"no verified nullspace basis after {tried} primes, more than the "
        "matrix's Hadamard bound allows: the mod-p reduction is unsound"
    )


def solve_nullspace(
    rows: Sequence[Sequence[int]], first_kernel: ModKernel | None = None
) -> List[Tuple[int, ...]]:
    """Exact basis of {v : M v = 0}, canonically scaled; empty list if trivial.

    Basis vectors are tuples of Python ints, scaled to be primitive (their
    gcd is 1) with the first nonzero entry positive, so results are
    reproducible across runs.

    The rows are integers, taken as given: each entry is read through
    ``operator.index``, so a Fraction or a float raises TypeError rather
    than being truncated by a cast.  Zero rows are dropped.

    ``first_kernel`` is for a caller that has already reduced the rows
    modulo FIRST_PRIME: it must be the kernel of these rows mod
    FIRST_PRIME and its pivots, as ``kernel_mod_p`` returns them, and the
    lift takes it as its first prime's kernel instead of reducing the rows
    again.
    """
    rows = list(rows)
    if not rows:
        raise ValueError("matrix must have at least one row")
    ncols = len(rows[0])
    if any(len(r) != ncols for r in rows):
        raise ValueError("matrix rows must all have the same length")
    int_rows = [r for r in (list(map(index, row)) for row in rows) if any(r)]
    return _nullspace_modular(int_rows, ncols, first_kernel)
