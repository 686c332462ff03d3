"""Plain-text and LaTeX rendering of polynomials and closed forms.

Internal canonical forms are expanded and monic; for display the
denominators (and numerators, when possible) are re-factored into the
rising-factorial-style linear pieces the subject is usually written in, with
a plain expanded fallback when a polynomial does not split that way.  Every
spelling that differs between plain text and LaTeX is a field of ``Style``;
``ASCII`` and ``LATEX`` are its two values, and no function branches on which
one it was given.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import List, Sequence, Tuple

from .conjecture import ClosedForm
from .laurent import PkTerm
from .poly import LinearForm, Poly
from .prover import linear_factors


@dataclass(frozen=True)
class Style:
    """How one output style spells formulas.  A template takes ``str.format``
    arguments in the order its comment gives."""

    group: str  # the argument of a subscript or exponent
    bold: str  # a vector symbol
    vector: str  # a vector's comma-joined components
    times: str  # between factors of a product
    wide_times: str  # between R's numerator or denominator and its factorials
    thin: str  # between the multinomial's factorials; before a boundary c-symbol
    fraction: str  # a rational coefficient: numerator, denominator
    over: str  # a falling factorial over its factorial
    quotient: str  # a closed form's upper and lower halves
    expanded: str  # a numerator or denominator that does not factor
    negate: str  # opens a factored product whose coefficient is -1
    geq: str


ASCII = Style(
    group="{}", bold="{}", vector="<{}>", times="*", wide_times=" * ", thin=" ",
    fraction="({}/{})", over="({})/{}", quotient="{} / ({})",
    # the benchmark references pin the bare sum and the -1 coefficient
    expanded="{}", negate="-1*", geq=">=",
)
LATEX = Style(
    group="{{{}}}", bold=r"\mathbf{{{}}}", vector=r"\langle {} \rangle", times=" ",
    wide_times=" ", thin=r"\, ", fraction=r"\tfrac{{{}}}{{{}}}",
    over=r"\frac{{{}}}{{{}}}", quotient=r"\frac{{{}}}{{{}}}",
    expanded="({})", negate="-", geq=r"\geq",
)


def fmt_var(i: int, style: Style) -> str:
    return f"a_{style.group.format(i + 1)}"


def fmt_b_vector(b: Sequence[int], style: Style) -> str:
    return style.vector.format(",".join(str(x) for x in b))


def fmt_coeff(c: Fraction, style: Style) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return style.fraction.format(c.numerator, c.denominator)


def fmt_poly(p: Poly, style: Style) -> str:
    """Expanded rendering, terms in graded-lex descending order."""
    if p.is_zero():
        return "0"
    parts: List[str] = []
    for mono, c in p.sorted_terms():
        mono_txt = _fmt_monomial(mono, style)
        if not mono_txt:
            term = fmt_coeff(c, style)
        elif c == 1:
            term = mono_txt
        elif c == -1:
            term = f"-{mono_txt}"
        else:
            term = f"{fmt_coeff(c, style)}{style.times}{mono_txt}"
        parts.append(term)
    text = parts[0]
    for term in parts[1:]:
        if term.startswith("-"):
            text += " - " + term[1:]
        else:
            text += " + " + term
    return text


def _fmt_monomial(mono: Tuple[int, ...], style: Style) -> str:
    pieces = []
    for i, e in enumerate(mono):
        if e == 0:
            continue
        v = fmt_var(i, style)
        pieces.append(v if e == 1 else f"{v}^{style.group.format(e)}")
    return style.times.join(pieces)


def fmt_linear_form(f: LinearForm, style: Style) -> str:
    parts: List[str] = []
    if f.constant:
        parts.append(str(f.constant))
    for i, c in enumerate(f.coeffs):
        if c == 0:
            continue
        v = fmt_var(i, style)
        if c == 1:
            parts.append(f"+{v}" if parts else v)
        elif c == -1:
            parts.append(f"-{v}")
        else:
            parts.append(f"+{c}{v}" if parts and c > 0 else f"{c}{v}")
    return "".join(parts) if parts else "0"


def _fmt_factored(p: Poly, style: Style) -> str:
    """A nonzero p as the left factor of a product: const * monomial * linear
    forms when it splits so, else expanded."""
    terms = p.sorted_terms()
    mins = [min(m[i] for m, _ in terms) for i in range(p.nvars)]
    core = Poly(
        p.nvars,
        {tuple(e - lo for e, lo in zip(m, mins)): c for m, c in terms},
    )
    split = linear_factors(core)
    if split is None:
        return style.expanded.format(fmt_poly(p, style))
    factors, const = split
    monomial = _fmt_monomial(tuple(mins), style)
    pieces = [monomial] if monomial else []
    ordered = sorted(factors, key=lambda f: (f.coeffs, f.constant), reverse=True)
    pieces.extend(f"({fmt_linear_form(f, style)})" for f in ordered)
    if not pieces:
        return fmt_coeff(const, style)
    body = style.times.join(pieces)
    if const == 1:
        return body
    if const == -1:
        return style.negate + body
    return f"{fmt_coeff(const, style)}{style.times}{body}"


def fmt_closed_form(form: ClosedForm, style: Style) -> str:
    """The full d_n(a; b) display: R folded with the multinomial."""
    if form.R.is_zero():
        return "0"
    variables = [fmt_var(i, style) for i in range(form.n)]
    top = "(" + "+".join(variables) + ")!"
    bottom = style.thin.join(f"{v}!" for v in variables)
    num = _fmt_factored(form.R.num, style)
    den = _fmt_factored(form.R.den, style)
    upper = top if num == "1" else f"{num}{style.wide_times}{top}"
    lower = bottom if den == "1" else f"{den}{style.wide_times}{bottom}"
    return style.quotient.format(upper, lower)


def fmt_d_symbol(n: int, b: Sequence[int], style: Style) -> str:
    return f"d_{style.group.format(n)}({style.bold.format('a')}; {fmt_b_vector(b, style)})"


def fmt_c_symbol(n: int, b: Sequence[int], style: Style, a_text: str | None = None) -> str:
    if a_text is None:
        a_text = style.bold.format("a")
    return f"c_{style.group.format(n)}({a_text}; {fmt_b_vector(b, style)})"


def fmt_pk_coeff(term: PkTerm, others: Sequence[int], style: Style) -> str:
    """Render prod (-1)^{m_i} C(a_i, m_i) in falling-factorial style,
    e.g. m = (2, 0) over (a_2, a_3) -> a_2(a_2-1)/2."""
    num_pieces: List[str] = []
    den = 1
    for var, mi in zip(others, term.m):
        if mi == 0:
            continue
        v = fmt_var(var, style)
        falling = [v] + [f"({v}-{r})" for r in range(1, mi)]
        num_pieces.append("".join(falling))
        den *= factorial(mi)
    body = " ".join(num_pieces) if num_pieces else "1"
    if den > 1:
        body = style.over.format(body, den)
    return f"-{body}" if sum(term.m) % 2 else body
