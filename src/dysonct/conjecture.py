"""Exact rational-function fitting for constant-term closed forms.

Given a target b-vector, the constant term divided by the multinomial
coefficient is sampled at a deterministic grid of integer a-points and
matched against num/den candidates of increasing total degree t, trying the
splits (t, 0), (t-1, 1), ..., (0, t) in order.  An empirically known factor
attached to each negative b-component (a product of reciprocal rising
factorials) is divided out of the samples first, which lowers the degree of
the residual fit dramatically; the factor is restored on the way out.  The
factor is kept as its linear factors (ansatz_forms), P over Q: a sample is
the single Fraction ct * Q(p) / (multinomial * P(p)) of integer products,
and the restore cancels or multiplies in one linear factor at a time by
exact division, which gives the canonical form without a polynomial gcd.

Everything is exact: the linear systems are solved over Q, a split fits
only when its kernel is a single vector, which is then already in lowest
terms (see guess_rat), the fit is validated on held-out points, and the
caller is expected to run the proof engine on whatever comes out.  Splits
are first screened modulo one prime, and only those that can still fit are
solved over Q; the screen only skips.  The screen evaluates the monomials
mod p from the sample points, and the exact big-integer monomial table is
built only when a split passes it.  The screen's methods import numpy when
they run, so importing this module does not load it; the first fit does.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, prod
from operator import mul
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .laurent import ct, multinomial
from .linalg import FIRST_PRIME, kernel_mod_p, matmul_mod, solve_nullspace
from .poly import LinearForm, Poly, cancel_factors, glex_key
from .ratfunc import RatFunc
from .render import ASCII, fmt_c_symbol

if TYPE_CHECKING:
    import numpy as np

Oracle = Callable[[int, Tuple[int, ...], Tuple[int, ...]], int]

HOLDOUT = 5  # held-out validation points appended to every fit
DEFAULT_MAX_T = 12  # total-degree budget of a fit when the caller names none


class GuessError(Exception):
    """Base class for fitting failures."""


class AmbiguousFit(GuessError):
    """A split's kernel held several vectors, one with a denominator nonzero
    at every sample; add more data."""


class GuessExhausted(GuessError):
    """No rational form found up to max_t; carries the samples gathered."""

    def __init__(self, n: int, b: Tuple[int, ...], max_t: int, samples: "SampleSet"):
        self.n = n
        self.b = b
        self.max_t = max_t
        self.samples = samples
        super().__init__(
            f"no rational form of total degree <= {max_t} matches "
            f"{fmt_c_symbol(n, b, ASCII)} on {len(samples.points)} samples"
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


Ansatz = Tuple[Tuple[LinearForm, ...], Tuple[LinearForm, ...]]


def ansatz_forms(b: Sequence[int]) -> Ansatz:
    """The linear factors of the ansatz factor of R_b: (numerator forms,
    denominator forms).  Each negative component b_i contributes the
    numerator forms a_i + 1 - r, r = 1..ceil(|b_i| / 2), and the denominator
    forms 1 + r + sum_{j != i} a_j, r = 0..|b_i| - 1.

    Every form is irreducible, monic and appears once; numerator constants
    are <= 0 and denominator constants >= 1, with all coefficients 0 or 1,
    so no numerator form is associated with a denominator form."""
    n = len(b)
    num: List[LinearForm] = []
    den: List[LinearForm] = []
    for i, bi in enumerate(b):
        if bi >= 0:
            continue
        unit = tuple(1 if j == i else 0 for j in range(n))
        rest = tuple(1 - e for e in unit)
        num += [LinearForm(1 - r, unit) for r in range(1, (1 - bi) // 2 + 1)]
        den += [LinearForm(1 + r, rest) for r in range(-bi)]
    return tuple(num), tuple(den)


def ansatz_factor(b: Sequence[int]) -> RatFunc:
    """The empirical factor of R_b attached to negative b-components: the
    product over negative components b_i of
    1 / ((1 + a_i)_{floor(b_i / 2)} (1 + sum_{j != i} a_j)_{|b_i|}),
    which is the product of ansatz_forms' numerator forms over the product
    of its denominator forms; 1 when b has no negative components.  Those
    products share no factor and the denominator is monic, so the quotient
    is already reduced."""
    n = len(b)
    one = Poly.const(n, 1)
    num, den = ansatz_forms(b)
    return RatFunc(
        prod((f.to_poly() for f in num), start=one),
        prod((f.to_poly() for f in den), start=one),
    )


def _sample_value(ct_value: int, p: Tuple[int, ...], forms: Ansatz) -> Fraction:
    """ct_value / (multinomial(p) * P(p) / Q(p)) as one Fraction, for the
    ansatz factor P/Q whose linear factors are ``forms``."""
    num_forms, den_forms = forms
    return Fraction(
        ct_value * prod(f.evaluate(p) for f in den_forms),
        multinomial(p) * prod(f.evaluate(p) for f in num_forms),
    )


def restore_ansatz(residual: RatFunc, forms: Ansatz) -> RatFunc:
    """residual times the ansatz factor with the linear factors ``forms``,
    in canonical form, by exact division and no gcd.

    For residual = N/D, each denominator form is cancelled from N where it
    divides N and multiplied into D where it does not; then each numerator
    form likewise between D and N; then D is scaled monic.  N/D is reduced
    and every form is irreducible, so the result is reduced too
    (poly.cancel_factors), and a reduced form with a monic denominator is
    unique."""
    num_forms, den_forms = forms
    num, den = cancel_factors(residual.num, residual.den, (f.to_poly() for f in den_forms))
    den, num = cancel_factors(den, num, (f.to_poly() for f in num_forms))
    return RatFunc.coprime(num, den)


def sample_grid(n: int, b: Sequence[int], count: int) -> List[Tuple[int, ...]]:
    """First ``count`` points of the deterministic sampling sequence.

    Entries are >= max(2, max|b_i|) and pairwise distinct within each point;
    every arrangement of a coordinate set is emitted, so no variable is stuck
    in a narrow band, which would let spurious interpolants through.  The
    ansatz factor is finite and nonzero at every point, so sampled values can
    always be divided by it: each numerator form a_i + 1 - r is at least 1,
    as r <= ceil(|b_i| / 2) <= a_i, and each denominator form
    1 + sum_{j != i} a_j + r is positive (see ansatz_forms).  A value is
    divided by the factor P/Q by multiplying the integer product Q(p) of the
    denominator forms into its numerator and P(p) into its denominator.
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
    monos.sort(key=glex_key)
    return monos


def _mono_steps(monos: List[Tuple[int, ...]]) -> List[Tuple[int, int]]:
    """(k, i) for each nonconstant monomial of ``monos``, ordered as
    _monomials_up_to orders them: the monomial is monomial k times variable
    i, its first variable, so k is an earlier index."""
    index = {m: k for k, m in enumerate(monos)}
    steps = []
    for m in monos[1:]:
        i = next(i for i, e in enumerate(m) if e)
        steps.append((index[m[:i] + (m[i] - 1,) + m[i + 1 :]], i))
    return steps


def _mono_values(
    points: Sequence[Tuple[int, ...]], monos: List[Tuple[int, ...]]
) -> List[List[int]]:
    """The value of every monomial at every point, for monomials ordered as
    _monomials_up_to orders them."""
    steps = _mono_steps(monos)
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
    (t, 0), (t-1, 1), ..., (0, t), the kernel of the linear system
    value * den(a) - num(a) = 0 on the fitting points is solved exactly.  A
    kernel vector counts when its denominator is nonzero at every sample
    point.  A split with no counted vector is skipped, and one whose kernel
    holds a counted vector and more than one vector raises AmbiguousFit (the
    caller should supply more samples).  A split fits when its kernel is a
    single counted vector (N, D) that reproduces the last HOLDOUT samples,
    held out of the fit, exactly; N/D is returned, with D scaled monic.
    Returns None when no split fits.

    N/D is in lowest terms with no gcd.  If N and D shared a nonconstant
    factor g, every h * (N/g, D/g) with deg h <= deg g would fit the split's
    degrees and solve the same system, since D, and with it g, is nonzero at
    every fitting point; h = 1 and h = a variable of g alone give two
    independent vectors, so the kernel would hold more than one.

    Each split is screened modulo p = linalg.FIRST_PRIME before its exact
    rows are built, by the same rule on the mod-p kernel: it is skipped when
    no vector counts mod p, or when the kernel is one vector at which
    value * den(h) - num(h) is nonzero mod p at some held-out point h; every
    other split is solved and checked exactly as above.  The exact monomial
    table the rows are read from is built when a split first passes the
    screen, only as wide as that split reads (max(n_num, n_den) columns),
    and rebuilt only for a later passing split that reads more.  The screen
    only ever skips, so whatever is returned has passed every exact check
    and a skip cannot produce a wrong closed form; at worst it misses a fit.
    That takes p dividing one particular nonzero integer (an entry, a
    denominator value or a held-out residual of an exact basis vector), or
    a reduction mod p of the wrong rank or pivots.
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
    screen = _Screen(samples.points, samples.values, len(fit_pts), monos)
    # the exact values of the first ``width`` monomials
    mono_vals: List[List[int]] = []
    width = 0
    for d_num in range(t, -1, -1):
        n_num, n_den = comb(d_num + nvars, nvars), comb(t - d_num + nvars, nvars)
        if not screen.may_fit(n_den, n_num):
            continue
        if width < max(n_num, n_den):
            width = max(n_num, n_den)
            mono_vals = _mono_values(samples.points, monos[:width])
        # value * den(p) - num(p) = 0, scaled by the value's denominator
        rows = []
        for vals, f in zip(mono_vals, fit_vals):
            fn, fd = f.numerator, f.denominator
            rows.append([fn * v for v in vals[:n_den]] + [-fd * v for v in vals[:n_num]])
        kernel = solve_nullspace(rows)
        if not any(all(sum(map(mul, vals, vec[:n_den])) for vals in mono_vals) for vec in kernel):
            continue
        if len(kernel) > 1:
            raise AmbiguousFit(
                f"kernel of {len(kernel)} vectors at t={t}, split ({d_num},{t - d_num})"
            )
        (vec,) = kernel
        fit = RatFunc.coprime(
            Poly(nvars, dict(zip(monos, vec[n_den:]))),
            Poly(nvars, dict(zip(monos, vec[:n_den]))),
        )
        if all(fit.evaluate(p) == v for p, v in zip(hold_pts, hold_vals)):
            return fit
    return None


class _Screen:
    """guess_rat's checks on a split, modulo linalg.FIRST_PRIME.

    The monomial table is built mod p straight from the sample points, one
    numpy column per monomial, each an earlier column times one coordinate
    as in _mono_values, so no exact big integer is formed; every split's
    monomials are a column prefix of it."""

    def __init__(
        self,
        points: Sequence[Tuple[int, ...]],
        values: List[Fraction],
        nfit: int,
        monos: List[Tuple[int, ...]],
    ):
        import numpy as np

        p = FIRST_PRIME
        coords = np.array([[x % p for x in point] for point in points], dtype=np.int64)
        self.monos = np.ones((len(points), len(monos)), dtype=np.int64)
        for j, (k, i) in enumerate(_mono_steps(monos), 1):
            self.monos[:, j] = self.monos[:, k] * coords[:, i] % p
        self.value_num = np.array([f.numerator % p for f in values], dtype=np.int64)
        self.value_den = np.array([f.denominator % p for f in values], dtype=np.int64)
        self.nfit = nfit

    def rows_mod_p(self, n_den: int, n_num: int) -> np.ndarray:
        """guess_rat's rows for the split, reduced mod p.  Each row holds the
        coprime entries fn and -fd in its constant-monomial columns, so it is
        already primitive and this is the reduction solve_nullspace starts
        from."""
        import numpy as np

        fit = slice(None, self.nfit)
        den = self.value_num[fit, None] * self.monos[fit, :n_den]
        num = -self.value_den[fit, None] * self.monos[fit, :n_num]
        return np.hstack((den, num)) % FIRST_PRIME

    def may_fit(self, n_den: int, n_num: int) -> bool:
        """False if no vector of the split's kernel mod p counts, or if the
        kernel is one vector that misses a held-out value mod p."""
        p = FIRST_PRIME
        kernel, _ = kernel_mod_p(self.rows_mod_p(n_den, n_num), p)
        den = matmul_mod(self.monos[:, :n_den], kernel[:n_den], p)
        if not den.all(axis=0).any():
            return False
        if kernel.shape[1] > 1:
            return True
        held = slice(self.nfit, None)
        num = matmul_mod(self.monos[held, :n_num], kernel[n_den:, 0], p)
        residual = self.value_num[held] * den[held, 0] - self.value_den[held] * num
        return not (residual % p).any()


@dataclass
class GuessDetails:
    """Fit metadata surfaced for diagnostics and benchmarks."""

    t: int
    samples_used: int
    residual: RatFunc


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

    The ansatz factor enters only through ansatz_forms' linear factors, its
    numerator product P and denominator product Q: each sample is
    Fraction(ct(p) * Q(p), multinomial(p) * P(p)), and the residual is
    restored by restore_ansatz, by exact division alone.  No factor RatFunc
    is evaluated or multiplied; with no ansatz the forms are empty.
    """
    b = tuple(b)
    if n < 1 or len(b) != n:
        raise ValueError("b must have length n >= 1")
    if oracle is None:
        oracle = ct
    if sum(b) != 0:
        zero = ClosedForm(n=n, b=b, R=RatFunc.zero(n))
        details = GuessDetails(t=0, samples_used=0, residual=RatFunc.zero(n))
        return zero, details

    forms = ansatz_forms(b) if use_ansatz else ((), ())
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
                values.append(_sample_value(oracle(n, p, b), p, forms))
            samples = SampleSet(points[:needed], values[:needed])
            try:
                residual = guess_rat(samples, t)
                break
            except AmbiguousFit:
                needed *= 2
        if residual is None:
            continue
        form_r = restore_ansatz(residual, forms)
        candidate = ClosedForm(n=n, b=b, R=form_r)
        # the fresh points are drawn before any is checked, so a failed check
        # leaves the same grid suffix for the next fit
        fresh = list(itertools.islice(grid, 5))
        # a pole at a fresh point, where the constant term is finite, fails too
        if all(
            form_r.den.evaluate(p) != 0 and candidate.evaluate(p) == oracle(n, p, b)
            for p in fresh
        ):
            details = GuessDetails(t=t, samples_used=len(samples.points), residual=residual)
            return candidate, details
    raise GuessExhausted(n, b, max_t, samples)


def _max_unknowns(nvars: int, t: int) -> int:
    # the widest splits are (t, 0) and (0, t): all monomials of degree <= t
    # plus a constant
    return comb(t + nvars, nvars) + 1
