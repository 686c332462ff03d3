"""Exact rational-function fitting for constant-term closed forms.

Given a target b-vector, the constant term divided by the multinomial
coefficient is sampled at a deterministic grid of integer a-points and
matched against num/den candidates of increasing total degree t, trying the
splits (t, 0), (t-1, 1), ..., (0, t) in order.  An empirically known factor
attached to each negative b-component (a product of reciprocal rising
factorials) is divided out of the samples first, which lowers the degree of
the residual fit dramatically; the factor is restored on the way out.

Everything is exact: the linear systems are solved over Q, candidates are
validated on held-out points, and the caller is expected to run the proof
engine on whatever comes out.  Splits are first screened modulo one prime,
and only those that can still fit are solved over Q; the screen only skips.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import mul
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .laurent import ct, multinomial
from .linalg import FIRST_PRIME, kernel_mod_p, matmul_mod, solve_nullspace
from .poly import LinearForm, Poly
from .ratfunc import RatFunc, rising_factorial

Oracle = Callable[[int, Tuple[int, ...], Tuple[int, ...]], int]

HOLDOUT = 5  # held-out validation points appended to every fit
DEFAULT_MAX_T = 12  # total-degree budget of a fit when the caller names none


class GuessError(Exception):
    """Base class for fitting failures."""


class AmbiguousFit(GuessError):
    """The nullspace held several inequivalent candidates; add more data."""


class GuessExhausted(GuessError):
    """No rational form found up to max_t; carries the samples gathered."""

    def __init__(self, n: int, b: Tuple[int, ...], max_t: int, samples: "SampleSet"):
        self.n = n
        self.b = b
        self.max_t = max_t
        self.samples = samples
        super().__init__(
            f"no rational form of total degree <= {max_t} matches "
            f"c_{n}(a; {list(b)}) on {len(samples.points)} samples"
        )


@dataclass(frozen=True)
class ClosedForm:
    """A pair (b, R) denoting d_n(a; b) = R(a) * (a_1+...+a_n)!/(a_1!...a_n!)."""

    n: int
    b: Tuple[int, ...]
    R: RatFunc

    def evaluate(self, a: Sequence[int]) -> Fraction:
        return self.R.evaluate(a) * multinomial(tuple(a))

    def to_json(self) -> dict:
        return {"n": self.n, "b": list(self.b), "R": self.R.to_json()}

    @classmethod
    def from_json(cls, data: dict) -> "ClosedForm":
        n = data["n"]
        return cls(n=n, b=tuple(data["b"]), R=RatFunc.from_json(n, data["R"]))


@dataclass
class SampleSet:
    """Distinct integer sample points with exact oracle values."""

    points: List[Tuple[int, ...]]
    values: List[Fraction]

    def __post_init__(self):
        if len(self.points) != len(self.values):
            raise ValueError("points and values must align")
        seen: Dict[Tuple[int, ...], Fraction] = {}
        pts: List[Tuple[int, ...]] = []
        vals: List[Fraction] = []
        for p, v in zip(self.points, self.values):
            p = tuple(p)
            v = Fraction(v)
            if p in seen:
                if seen[p] != v:
                    raise ValueError(f"inconsistent duplicate sample at {p}")
                continue
            seen[p] = v
            pts.append(p)
            vals.append(v)
        self.points = pts
        self.values = vals


def ansatz_factor(b: Sequence[int]) -> RatFunc:
    """The empirical factor of R_b attached to negative b-components: the
    product over negative components b_i of
    1 / ((1 + a_i)_{floor(b_i / 2)} (1 + sum_{j != i} a_j)_{|b_i|}),
    as a reduced rational function; 1 when b has no negative components."""
    b = tuple(b)
    n = len(b)
    value = RatFunc.one(n)
    for i, bi in enumerate(b):
        if bi >= 0:
            continue
        first = rising_factorial(LinearForm(1, tuple(1 if j == i else 0 for j in range(n))), bi // 2)
        second = rising_factorial(LinearForm(1, tuple(0 if j == i else 1 for j in range(n))), abs(bi))
        value = value * (first * second).reciprocal()
    return value


def sample_grid(n: int, b: Sequence[int], count: int) -> List[Tuple[int, ...]]:
    """First ``count`` points of the deterministic sampling sequence.

    Entries are >= max(2, max|b_i|) and pairwise distinct within each point;
    every arrangement of a coordinate set is emitted, so no variable is stuck
    in a narrow band, which would let spurious interpolants through.  The
    ansatz factor is finite and nonzero at every point, so sampled values can
    always be divided by it: each numerator piece a_i + 1 - r is at least 1,
    as r <= ceil(|b_i| / 2) <= a_i, and each denominator piece
    1 + sum_{j != i} a_j + r is positive.
    """
    if count < 1:
        raise ValueError("count must be positive")
    return list(itertools.islice(_grid_iter(n, tuple(b)), count))


def _grid_iter(n: int, b: Tuple[int, ...]) -> Iterator[Tuple[int, ...]]:
    """The sampling sequence of sample_grid."""
    lo = max(2, max((abs(x) for x in b), default=0))
    for top in itertools.count(lo + n - 1):
        for rest in itertools.combinations(range(lo, top), n - 1):
            yield from itertools.permutations(rest + (top,))


def _monomials_up_to(nvars: int, degree: int) -> List[Tuple[int, ...]]:
    monos = [
        m
        for m in itertools.product(range(degree + 1), repeat=nvars)
        if sum(m) <= degree
    ]
    monos.sort(key=lambda m: (sum(m), m))
    return monos


def _mono_values(
    points: Sequence[Tuple[int, ...]], monos: List[Tuple[int, ...]]
) -> List[List[int]]:
    """The value of every monomial at every point, for monomials ordered as
    _monomials_up_to orders them."""
    index = {m: k for k, m in enumerate(monos)}
    # each nonconstant monomial is an earlier one times its first variable
    steps = []
    for m in monos[1:]:
        i = next(i for i, e in enumerate(m) if e)
        steps.append((index[m[:i] + (m[i] - 1,) + m[i + 1 :]], i))
    table = []
    for point in points:
        vals = [1]
        for k, i in steps:
            vals.append(vals[k] * point[i])
        table.append(vals)
    return table


def guess_rat(samples: SampleSet, t: int) -> Optional[RatFunc]:
    """Fit a rational function of total degree exactly t to the samples.

    For each split (d_num, d_den) with d_num + d_den = t, in the order
    (t, 0), (t-1, 1), ..., (0, t): solve value * den(a) - num(a) = 0 on the
    fitting points, reject candidates whose denominator vanishes at any
    sample point, and keep a survivor only if it reproduces the last HOLDOUT
    samples, held out of the fit, exactly.  Returns None when no split
    admits a fit; raises AmbiguousFit when a nullspace of dimension > 1 holds
    inequivalent candidates (the caller should supply more samples).

    Each split is screened modulo p = linalg.FIRST_PRIME before its exact
    rows are built.  A vector of the mod-p nullspace basis counts as a candidate
    only if its denominator part is nonzero mod p and its denominator is
    nonzero mod p at every sample point.  The split is skipped when no vector
    counts, or when exactly one counts and value * den(h) - num(h) is nonzero
    mod p at some held-out point h; every other split is solved and checked
    exactly as above.  The screen only ever skips, so whatever is returned
    has passed every exact check and a skip cannot produce a wrong closed
    form; at worst it misses a fit.  That takes p dividing one particular
    nonzero integer (an entry, a denominator value or a held-out residual of
    an exact basis vector) or a reduction mod p of the wrong rank or pivots.
    """
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

    unknowns = _max_unknowns(nvars, t)
    if len(fit_pts) < unknowns:
        raise ValueError(
            f"need at least {unknowns + HOLDOUT} samples for t={t}, have "
            f"{len(samples.points)}"
        )
    # the monomials of every split are a prefix of these, in the same order
    monos = _monomials_up_to(nvars, t)
    mono_vals = _mono_values(samples.points, monos)
    screen = _Screen(mono_vals, samples.values, len(fit_pts))
    for d_num in range(t, -1, -1):
        n_num, n_den = comb(d_num + nvars, nvars), comb(t - d_num + nvars, nvars)
        if not screen.may_fit(n_den, n_num):
            continue
        # value * den(p) - num(p) = 0, scaled by the value's denominator
        rows = []
        for vals, f in zip(mono_vals, fit_vals):
            fn, fd = f.numerator, f.denominator
            rows.append([fn * v for v in vals[:n_den]] + [-fd * v for v in vals[:n_num]])
        candidates = [
            RatFunc.make(
                Poly(nvars, dict(zip(monos, vec[n_den:]))),
                Poly(nvars, dict(zip(monos, vec[:n_den]))),
            )
            for vec in solve_nullspace(rows)
            if all(sum(map(mul, vals, vec[:n_den])) for vals in mono_vals)
        ]
        if not candidates:
            continue
        first = candidates[0]
        if any(c != first for c in candidates[1:]):
            raise AmbiguousFit(
                f"{len(candidates)} inequivalent candidates at t={t}, "
                f"split ({d_num},{t - d_num})"
            )
        if all(first.evaluate(p) == v for p, v in zip(hold_pts, hold_vals)):
            return first
    return None


class _Screen:
    """guess_rat's checks on a split, modulo linalg.FIRST_PRIME."""

    def __init__(self, mono_vals: List[List[int]], values: List[Fraction], nfit: int):
        p = FIRST_PRIME
        self.monos = np.array([[v % p for v in vals] for vals in mono_vals], dtype=np.int64)
        self.value_num = np.array([f.numerator % p for f in values], dtype=np.int64)
        self.value_den = np.array([f.denominator % p for f in values], dtype=np.int64)
        self.nfit = nfit

    def rows_mod_p(self, n_den: int, n_num: int) -> np.ndarray:
        """guess_rat's rows for the split, reduced mod p.  Each row holds the
        coprime entries fn and -fd in its constant-monomial columns, so it is
        already primitive and this is the reduction solve_nullspace starts
        from."""
        fit = slice(None, self.nfit)
        den = self.value_num[fit, None] * self.monos[fit, :n_den]
        num = -self.value_den[fit, None] * self.monos[fit, :n_num]
        return np.hstack((den, num)) % FIRST_PRIME

    def may_fit(self, n_den: int, n_num: int) -> bool:
        """False if the split's nullspace holds no candidate mod p, or holds
        one that misses a held-out value mod p."""
        p = FIRST_PRIME
        kernel = kernel_mod_p(self.rows_mod_p(n_den, n_num), p)
        kernel = kernel[:, kernel[:n_den].any(axis=0)]
        den = matmul_mod(self.monos[:, :n_den], kernel[:n_den], p)
        counted = np.flatnonzero(den.all(axis=0))
        if len(counted) != 1:
            return len(counted) > 1
        (j,) = counted
        held = slice(self.nfit, None)
        num = matmul_mod(self.monos[held, :n_num], kernel[n_den:, j], p)
        residual = self.value_num[held] * den[held, j] - self.value_den[held] * num
        return not (residual % p).any()


@dataclass
class GuessDetails:
    """Fit metadata surfaced for diagnostics and benchmarks."""

    t: int
    samples_used: int
    residual: RatFunc
    used_ansatz: bool


def guess_dyson(
    n: int,
    b: Sequence[int],
    max_t: int = DEFAULT_MAX_T,
    use_ansatz: bool = True,
    oracle: Oracle | None = None,
) -> ClosedForm:
    """Conjecture the closed form d_n(a; b); see guess_dyson_with_details."""
    form, _ = guess_dyson_with_details(n, b, max_t, use_ansatz, oracle)
    return form


def guess_dyson_with_details(
    n: int,
    b: Sequence[int],
    max_t: int = DEFAULT_MAX_T,
    use_ansatz: bool = True,
    oracle: Oracle | None = None,
) -> Tuple[ClosedForm, GuessDetails]:
    """Sample the constant-term oracle and fit R_b with increasing degree.

    If sum(b) != 0 the zero form is returned immediately.  Otherwise the
    oracle value divided by the multinomial (and, unless disabled, by the
    ansatz factor) is fitted by guess_rat with t = 0, 1, ..., max_t; the
    winning residual times the ansatz factor is validated against the oracle
    at 5 fresh points before being returned.  Raises GuessExhausted when
    max_t is used up.
    """
    b = tuple(b)
    if n < 1 or len(b) != n:
        raise ValueError("b must have length n >= 1")
    if oracle is None:
        oracle = ct
    if sum(b) != 0:
        zero = ClosedForm(n=n, b=b, R=RatFunc.zero(n))
        details = GuessDetails(t=0, samples_used=0, residual=RatFunc.zero(n), used_ansatz=use_ansatz)
        return zero, details

    factor = ansatz_factor(b) if use_ansatz else RatFunc.one(n)
    grid = _grid_iter(n, b)
    points: List[Tuple[int, ...]] = []
    values: List[Fraction] = []
    samples = SampleSet([], [])
    for t in range(max_t + 1):
        # a few extra rows overdetermine every split, starving fake interpolants
        needed = _max_unknowns(n, t) + 3 + HOLDOUT
        residual = None
        for _ in range(4):
            for p in itertools.islice(grid, max(0, needed - len(points))):
                points.append(p)
                values.append(Fraction(oracle(n, p, b), multinomial(p)) / factor.evaluate(p))
            samples = SampleSet(points[:needed], values[:needed])
            try:
                residual = guess_rat(samples, t)
                break
            except AmbiguousFit:
                needed *= 2
        if residual is None:
            continue
        form_r = factor * residual
        candidate = ClosedForm(n=n, b=b, R=form_r)
        # the fresh points are drawn before any is checked, so a failed check
        # leaves the same grid suffix for the next fit
        fresh = list(itertools.islice(grid, 5))
        # a pole at a fresh point, where the constant term is finite, fails too
        if all(
            form_r.den.evaluate(p) != 0 and candidate.evaluate(p) == oracle(n, p, b)
            for p in fresh
        ):
            details = GuessDetails(
                t=t,
                samples_used=len(samples.points),
                residual=residual,
                used_ansatz=use_ansatz,
            )
            return candidate, details
    raise GuessExhausted(n, b, max_t, samples)


def _max_unknowns(nvars: int, t: int) -> int:
    # the widest splits are (t, 0) and (0, t): all monomials of degree <= t
    # plus a constant
    return comb(t + nvars, nvars) + 1
