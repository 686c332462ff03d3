"""Machine verification of conjectured closed forms.

A closed form d_n(a; b) = R(a) * (a_1+...+a_n)!/(a_1!...a_n!) is certified by
checking, as identities of rational functions in canonical form:

* the recursion R(a) = sum_i (a_i / (a_1+...+a_n)) R(a - e_i),
* for every pivot k, the boundary identity obtained by setting a_k = 0,
  whose right side combines level-(n-1) closed forms weighted by the Taylor
  coefficients of P_k,
* the initial value at a = 0,

together with a proof that R's reduced denominator cannot vanish at any
nonnegative integer point (so the rational identities imply the integer
ones): the denominator must split into linear forms with nonnegative
coefficients and positive constants, and a form whose denominator does not
split that way is not certified.  ``prove`` runs this denominator-safety
check first, and its split is the input of every check after it: it gives
the linear factors of R's side of the recursion and the boundary identities
(a factor at a_k = 0 is still linear with a positive constant), and it keeps
R's denominator nonzero at a = 0 for the initial value; each check raises
``ValueError`` when handed a split that is not ok.  Each sum identity is
decided as one ``RatFunc.sum_over`` of its terms over the lcm of their
linear factors, a complete symbolic proof over Q, not sampling: it holds
when the sum is zero, and otherwise the sum is the failing difference.
Boundary dependencies, the shifted b named by each pivot's P_k terms, are
proved recursively before the checks, bottoming out in the built-in n = 2
closed form; the boundary check at each pivot builds that pivot's P_k
expansion and reads the proved dependencies' forms and splits from their
certificates.  A ``ProofCertificate`` holds the outcomes of its checks and
the split they ran on, and its validity and stored verdicts are read from
the outcomes.  An arrangement of b whose class (its sorted b) already has a
checked member is certified by relabeling that member's outcomes and split,
when its form is that member's relabeled (see ``prove`` for the lemma).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import prod
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .conjecture import DEFAULT_MAX_T, ClosedForm, guess_dyson
from .laurent import pk_compositions, pk_expansion
from .poly import LinearForm, Poly, linear_factors
from .ratfunc import RatFunc
from .render import ASCII, fmt_d_symbol


@dataclass
class CheckOutcome:
    """Verdict of one symbolic check: the identity's left side, which a
    passed check's right side equals, and the failing difference if any."""

    ok: bool
    check: str
    k: Optional[int] = None
    lhs: Optional[RatFunc] = None
    difference: Optional[RatFunc] = None
    note: str = ""


class ProofError(Exception):
    """A check failed; carries the counterexample report."""

    def __init__(self, form: ClosedForm, outcome: CheckOutcome):
        self.form = form
        self.outcome = outcome
        where = f" at k={outcome.k + 1}" if outcome.k is not None else ""
        msg = (
            f"proof of {fmt_d_symbol(form.n, form.b, ASCII)} failed: "
            f"{outcome.check}{where} does not hold"
        )
        if outcome.difference is not None:
            msg += f"; difference {outcome.difference!r}"
        super().__init__(msg)


# ----------------------------------------------------------------------
# the n = 2 base case


def c2_closed_form(b: Sequence[int]) -> ClosedForm:
    """Closed form of the two-variable constant term (binomial theorem case).

    For b = (h, -h) the value is (-1)^h (a_1+a_2)! / ((a_1+h)! (a_2-h)!),
    i.e. R = (-1)^h a_2 (a_2-1) ... (a_2-h+1) / ((a_1+1) ... (a_1+h)) for
    h >= 0 and the same with a_1 and a_2 swapped for h < 0, built from those
    linear factors.  The two products share no variable and the denominator
    is monic, so R is canonical as built.  Out-of-support factorials correspond
    to numerator zeros of R at the same integer points, so evaluating R
    reproduces the convention that the coefficient is 0 there.
    """
    return _c2_split_form(b)[0]


def _c2_split_form(b: Sequence[int]) -> Tuple[ClosedForm, DenominatorSafety]:
    """c2_closed_form(b) and the split of its denominator into the linear
    factors it is built from, which are positive on the grid."""
    b = tuple(b)
    if len(b) != 2:
        raise ValueError("c2_closed_form expects a pair")
    if b[0] + b[1] != 0:
        return ClosedForm(n=2, b=b, R=RatFunc.zero(2)), DenominatorSafety(True, [], Fraction(1))
    h = b[0]
    up, down = ((1, 0), (0, 1)) if h >= 0 else ((0, 1), (1, 0))
    sign = Poly.const(2, -1 if h % 2 else 1)
    den_forms = [LinearForm(1 + r, up) for r in range(abs(h))]
    num = prod((LinearForm(-r, down).to_poly() for r in range(abs(h))), start=sign)
    den = prod((f.to_poly() for f in den_forms), start=Poly.const(2, 1))
    split = DenominatorSafety(True, den_forms, Fraction(1))
    return ClosedForm(n=2, b=b, R=RatFunc(num, den)), split


# ----------------------------------------------------------------------
# relabeling


def permute_form(form: ClosedForm, perm: Sequence[int]) -> ClosedForm:
    """Closed form for b' with b'_i = b_{perm[i]}, via variable relabeling.

    The constant term is invariant under simultaneous relabeling of a and b;
    chasing the labels through gives R_{b'}(a) = R_b(y) with
    y_{perm[i]} = a_i, i.e. the a-variables are permuted by the inverse of
    the permutation applied to b."""
    perm = tuple(perm)
    if sorted(perm) != list(range(form.n)):
        raise ValueError(f"{perm} is not a permutation of 0..{form.n - 1}")
    b_new = tuple(form.b[p] for p in perm)
    return ClosedForm(n=form.n, b=b_new, R=form.R.permute_vars(_inverse(perm)))


def _inverse(perm: Sequence[int]) -> List[int]:
    inverse = [0] * len(perm)
    for i, p in enumerate(perm):
        inverse[p] = i
    return inverse


def matching_permutation(src: Tuple[int, ...], dst: Tuple[int, ...]) -> Tuple[int, ...]:
    """Lexicographically smallest perm with dst[i] = src[perm[i]]."""
    used = [False] * len(src)
    perm = []
    for value in dst:
        for j, s in enumerate(src):
            if not used[j] and s == value:
                used[j] = True
                perm.append(j)
                break
        else:
            raise ValueError(f"{dst} is not a rearrangement of {src}")
    return tuple(perm)


# ----------------------------------------------------------------------
# the four checks


def check_recursion(form: ClosedForm, safety: DenominatorSafety) -> CheckOutcome:
    """Verify R(a) = sum_i (a_i / (a_1+...+a_n)) R(a - e_i) symbolically.

    The multinomial shift rule multinomial(a - e_i)/multinomial(a) = a_i/sum(a)
    is exact, so this is precisely the constant-term recursion divided by the
    multinomial.  The ok ``safety`` split writes R's denominator as
    c * prod F, with c = safety.constant and F = safety.factors, so the
    identity is a sum of quotients over linear factors: num over c * prod F,
    and for each i, -a_i * num(a - e_i) over c * s * prod F(a - e_i), with
    s = a_1+...+a_n.  ``RatFunc.sum_over`` brings the terms over the lcm of
    their factors; the check passes when that sum is zero, and a failing
    check reports the sum as its difference.
    """
    if not safety.ok:
        raise ValueError("check_recursion needs an ok denominator split")
    n = form.n
    R = form.R
    if R.is_zero():
        return CheckOutcome(ok=True, check="recursion", lhs=R, note="zero form")
    factors = [f.to_poly() for f in safety.factors]
    a = [Poly.variable(n, i) for i in range(n)]
    s = sum(a, Poly.zero(n))
    terms = [(R.num, factors, safety.constant)]
    for i in range(n):
        shifted = [f.shift_var(i, -1) for f in factors]
        terms.append((-(a[i] * R.num.shift_var(i, -1)), shifted + [s], safety.constant))
    diff = RatFunc.sum_over(terms)
    ok = diff.is_zero()
    return CheckOutcome(ok=ok, check="recursion", lhs=R, difference=None if ok else diff)


def check_boundary(
    form: ClosedForm,
    safety: DenominatorSafety,
    k: int,
    lower: Mapping[Tuple[int, ...], ProofCertificate],
) -> CheckOutcome:
    """Verify the boundary identity at a_k = 0 (k zero-based).

    Left side: R with a_k set to 0, read in the surviving n-1 variables (the
    multinomial collapses to the (n-1)-variable one on both sides).  R's
    denominator is c * prod F by the ok ``safety`` split, and each F at
    a_k = 0 is still linear with a positive constant, so the left side is
    num(a_k = 0) over c * prod F(a_k = 0), reduced one linear factor at a
    time.  Right side: sum over the terms of P_k for (n, b), which this
    check expands, of coeff(a-hat) * R_{shifted b}(a-hat).  ``lower`` maps
    each shifted b to its proved level-(n-1) certificate, which holds the
    form and the split of its denominator into linear factors.  An empty
    expansion (b_k < 0) makes the right side 0.  The check passes when the
    left side minus each term, brought over the lcm of their linear factors
    by ``RatFunc.sum_over``, is zero; a failing check reports that sum as
    its difference.
    """
    if not safety.ok:
        raise ValueError("check_boundary needs an ok denominator split")
    num = form.R.num.at_zero(k)
    factors = [f.to_poly().at_zero(k) for f in safety.factors]
    lhs = RatFunc.over(num, factors, safety.constant)
    terms = pk_expansion(form.n, k, form.b)
    sides = [(num, factors, safety.constant)]
    for term in terms:
        dep = lower[term.shifted_b]
        dep_factors = [f.to_poly() for f in dep.split.factors]
        sides.append((-(term.coeff.at_zero(k) * dep.form.R.num), dep_factors, dep.split.constant))
    diff = RatFunc.sum_over(sides)
    ok = diff.is_zero()
    return CheckOutcome(
        ok=ok,
        check="boundary",
        k=k,
        lhs=lhs,
        difference=None if ok else diff,
        note="" if terms else "empty expansion (b_k < 0)",
    )


def check_initial(form: ClosedForm, safety: DenominatorSafety) -> CheckOutcome:
    """Verify d_n(0; b) = 1 when b = 0 and 0 otherwise.

    R is evaluated at a = 0, where the ok ``safety`` split makes its
    denominator the positive c * prod F(0).
    """
    if not safety.ok:
        raise ValueError("check_initial needs an ok denominator split")
    n = form.n
    expected = Fraction(1) if all(x == 0 for x in form.b) else Fraction(0)
    value = form.R.num.constant_value() / form.R.den.constant_value()
    ok = value == expected
    return CheckOutcome(
        ok=ok,
        check="initial",
        lhs=RatFunc.const(n, value),
        difference=None if ok else RatFunc.const(n, value - expected),
    )


# ----------------------------------------------------------------------
# denominator safety


@dataclass
class DenominatorSafety:
    ok: bool
    factors: Optional[List[LinearForm]] = None
    constant: Optional[Fraction] = None

    @property
    def guarantee(self) -> str:
        return "syntactic" if self.ok else "none"


def check_denominator_safety(form: ClosedForm) -> DenominatorSafety:
    """Certify that R's reduced denominator is nonzero at nonnegative integer a.

    The only accepted argument is syntactic: the denominator splits into
    linear forms with nonnegative coefficients and strictly positive
    constants, times a positive constant, so it is positive on the whole
    nonnegative orthant.  Any other denominator gives ``ok=False``, even one
    that happens to have no nonnegative integer zero.
    """
    split = linear_factors(form.R.den)
    if split is not None:
        factors, const = split
        if const > 0 and all(f.is_positive_on_grid() for f in factors):
            return DenominatorSafety(ok=True, factors=factors, constant=const)
    return DenominatorSafety(ok=False)


# ----------------------------------------------------------------------
# certificates and the prover driver

@dataclass
class ProofCertificate:
    """A ClosedForm with the outcomes of the checks that prove it.

    ``recursion``, ``boundaries`` (one per pivot, in pivot order) and
    ``initial`` are the outcomes of the checks; ``dependencies`` holds the
    certificates of the level-(n-1) forms the boundary checks read,
    recursively down to n = 2.  There the built-in binomial-theorem closed
    form needs no further justification, so a base-case certificate has no
    outcomes.  ``is_valid`` and ``to_json`` read every verdict from the
    outcomes.

    ``split`` is the ok split of the form's denominator into linear factors
    that the checks ran on, and the one a boundary check reading this form
    uses: the checked split for a checked certificate, the relabeled split
    of the source for a relabeled one, and the factors ``c2_closed_form``
    builds the form from for a base case.  It is not serialized.
    """

    form: ClosedForm
    split: DenominatorSafety
    dependencies: Tuple["ProofCertificate", ...] = ()
    recursion: Optional[CheckOutcome] = None
    boundaries: Tuple[CheckOutcome, ...] = ()
    initial: Optional[CheckOutcome] = None

    @property
    def base_case(self) -> bool:
        return self.form.n == 2

    def is_valid(self) -> bool:
        """True for the base case; otherwise there must be one boundary
        outcome per pivot, every outcome must have passed, and every
        dependency must be valid."""
        if self.base_case:
            return True
        outcomes = (self.recursion, *self.boundaries, self.initial)
        return (
            len(self.boundaries) == self.form.n
            and all(o is not None and o.ok for o in outcomes)
            and all(dep.is_valid() for dep in self.dependencies)
        )

    def to_json(self) -> dict:
        if self.base_case:
            recursion_ok, boundary_ok, initial_ok = True, [True, True], True
            identities: dict = {"base_case": "binomial-theorem closed form for n = 2"}
        else:
            recursion_ok = self.recursion.ok
            boundary_ok = [o.ok for o in self.boundaries]
            initial_ok = self.initial.ok
            identities = {
                "recursion": _identity_json(self.recursion),
                "boundary": [_identity_json(o) for o in self.boundaries],
                "initial": _identity_json(self.initial),
            }
        return {
            "form": self.form.to_json(),
            "recursion_ok": recursion_ok,
            "boundary_ok": boundary_ok,
            "initial_ok": initial_ok,
            # every check runs on the denominator's split into positive
            # linear factors, the only guarantee denominator safety
            # certifies; the three keys keep the stored format unchanged
            "denominator_safe": True,
            "denominator_guarantee": "syntactic",
            "initial_limit_used": False,
            "base_case": self.base_case,
            "dependency_b": [list(dep.form.b) for dep in self.dependencies],
            "dependencies": [dep.to_json() for dep in self.dependencies],
            "identities": identities,
        }


def _identity_json(outcome: CheckOutcome) -> dict:
    data: dict = {"ok": outcome.ok}
    if outcome.lhs is not None:
        # a passed check's sides are equal; the stored format keeps both
        data["lhs"] = data["rhs"] = outcome.lhs.to_json()
    if outcome.note:
        data["note"] = outcome.note
    return data


class Resolver:
    """Cache of closed forms and certificates shared across a proof run.

    Forms are looked up in the cache first, then fall back to the built-in
    n = 2 family or to a fresh conjecture; ``guess_calls`` counts how many
    forms actually required sampling and fitting.

    ``checked`` maps each relabeling class (n and sorted b) to the first
    n >= 3 certificate of the class that ``prove`` certified by running the
    checks; ``prove`` certifies the other arrangements of the class by
    relabeling that certificate's outcomes.
    """

    def __init__(self, max_t: int = DEFAULT_MAX_T):
        self.max_t = max_t
        self.forms: Dict[Tuple[int, Tuple[int, ...]], ClosedForm] = {}
        self.certificates: Dict[Tuple[int, Tuple[int, ...]], ProofCertificate] = {}
        self.checked: Dict[Tuple[int, Tuple[int, ...]], ProofCertificate] = {}
        self.guess_calls = 0

    def form(self, n: int, b: Sequence[int]) -> ClosedForm:
        b = tuple(b)
        key = (n, b)
        if key in self.forms:
            return self.forms[key]
        if n == 2:
            form = c2_closed_form(b)
        elif sum(b) != 0:
            form = ClosedForm(n=n, b=b, R=RatFunc.zero(n))
        else:
            form = guess_dyson(n, b, self.max_t)
            self.guess_calls += 1
        self.forms[key] = form
        return form

    def add_form(self, form: ClosedForm) -> None:
        self.forms[(form.n, form.b)] = form


def _relabeled_certificate(
    source: ProofCertificate,
    form: ClosedForm,
    dependencies: Tuple[ProofCertificate, ...],
) -> Optional[ProofCertificate]:
    """The certificate of ``form`` as the relabeling of ``source``, a
    checked certificate of the same class, or None unless ``form`` is the
    relabeling of the source's form.

    ``dependencies`` holds form's own dependency certificates.  With perm
    taking the source's b to form.b (b_i = b_src[perm[i]]), form's pivot k
    is the source's pivot perm[k], and sigma relabels the source's
    surviving variables at that pivot to form's.
    """
    perm = matching_permutation(source.form.b, form.b)
    if permute_form(source.form, perm).R != form.R:
        return None
    inverse = _inverse(perm)
    boundaries = []
    for k in range(form.n):
        pivot = perm[k]
        sigma = [inverse[j] - (inverse[j] > k) for j in range(form.n) if j != pivot]
        outcome = source.boundaries[pivot]
        boundaries.append(replace(outcome, k=k, lhs=outcome.lhs.permute_vars(sigma)))
    factors = [LinearForm(f.constant, tuple(f.coeffs[p] for p in perm)) for f in source.split.factors]
    # permute_vars rescales the relabeled denominator to be monic; a linear
    # factor's leading coefficient in graded-lex order is its first nonzero one
    constant = Fraction(1, prod(next(c for c in f.coeffs if c) for f in factors))
    return ProofCertificate(
        form,
        DenominatorSafety(True, factors, constant),
        dependencies,
        # the side of a passed recursion is R, and the source's R relabeled
        # is form.R, checked above
        recursion=replace(source.recursion, lhs=form.R),
        boundaries=tuple(boundaries),
        # the side of the initial-value check is a constant, which every
        # relabeling fixes
        initial=source.initial,
    )


def prove(n: int, b: Sequence[int], resolver: Resolver | None = None) -> ProofCertificate:
    """Certify the closed form for (n, b), recursing through its boundary
    dependencies down to the n = 2 base case.

    One pass: the level-(n-1) forms named by the P_k terms of every pivot
    are proved first (k ascending, terms in order, first occurrence wins),
    once, before either route below certifies the form; the boundary check
    at each pivot builds its own P_k expansion and reads the proved forms.
    Of the checks, denominator safety runs first, and its split of R's
    denominator into linear factors is the input of the recursion, boundary
    and initial-value checks that follow.

    An arrangement whose class has a certificate the resolver checked
    (``Resolver.checked``) is certified without the checks when its form
    is that certificate's form relabeled (``permute_form``): its outcomes
    and split are the checked one's, relabeled (the boundary at pivot k
    from the checked pivot that k relabels, rescaled to canonical form;
    the initial value, a constant, unchanged), its dependencies are its
    own, and no P_k expansion is built.  This is sound by one lemma:
    relabeling a and b together leaves the constant term unchanged, so
    permuting the a-variables maps a proof to a proof.  The permutation is
    a ring automorphism of Q(a); it maps each checked identity, split and
    P_k expansion to the relabeled one, and each certified dependency form
    to the certified form of the relabeled dependency (two forms equal on
    the nonnegative grid are equal).  Canonical forms are unique, so the
    relabeled outcomes are the ones the checks would return.  Any other
    form runs the checks.

    The certificate holds the outcomes of the recursion, boundary and
    initial checks and the split they ran on; an n = 2 certificate holds no
    outcomes, and is issued only for the form of c2_closed_form, with the
    split that function builds its denominator from.

    Raises ProofError with a counterexample report when any check fails, and
    propagates GuessExhausted when a needed form cannot even be conjectured.
    """
    if n < 2:
        raise ValueError("prove requires n >= 2")
    if resolver is None:
        resolver = Resolver()
    b = tuple(b)
    key = (n, b)
    if key in resolver.certificates:
        return resolver.certificates[key]

    form = resolver.form(n, b)
    if n == 2:
        # the binomial theorem certifies c2_closed_form alone; a form taken
        # from elsewhere, such as a store, must be that one
        base, split = _c2_split_form(b)
        if form.R != base.R:
            raise ProofError(
                form,
                CheckOutcome(
                    ok=False,
                    check="base-case",
                    lhs=form.R,
                    note="not the binomial-theorem closed form",
                ),
            )
        cert = ProofCertificate(form, split)
        resolver.certificates[key] = cert
        return cert

    # prove lower levels first (post-order over the dependency tree)
    dep_vectors = dict.fromkeys(v for k in range(n) for _, v in pk_compositions(n, k, b))
    dependencies = tuple(prove(n - 1, v, resolver) for v in dep_vectors)

    relabeling_class = (n, tuple(sorted(b)))
    source = resolver.checked.get(relabeling_class)
    if source is not None:
        cert = _relabeled_certificate(source, form, dependencies)
        if cert is not None:
            resolver.certificates[key] = cert
            return cert

    lower = {dep.form.b: dep for dep in dependencies}

    safety = check_denominator_safety(form)
    if not safety.ok:
        raise ProofError(
            form,
            CheckOutcome(
                ok=False,
                check="denominator-safety",
                note="denominator does not split into positive linear factors",
            ),
        )
    recursion = check_recursion(form, safety)
    if not recursion.ok:
        raise ProofError(form, recursion)
    boundaries = []
    for k in range(n):
        outcome = check_boundary(form, safety, k, lower)
        if not outcome.ok:
            raise ProofError(form, outcome)
        boundaries.append(outcome)
    initial = check_initial(form, safety)
    if not initial.ok:
        raise ProofError(form, initial)

    cert = ProofCertificate(form, safety, dependencies, recursion, tuple(boundaries), initial)
    resolver.certificates[key] = cert
    resolver.checked.setdefault(relabeling_class, cert)
    return cert
