"""Plain-text and LaTeX rendering of polynomials and closed forms.

Internal canonical forms are expanded and monic; for display the
denominators (and numerators, when possible) are re-factored into the
rising-factorial-style linear pieces the subject is usually written in, with
a plain expanded fallback when a polynomial does not split that way.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import List, Optional, Sequence, Tuple

from .conjecture import ClosedForm
from .laurent import PkTerm
from .poly import LinearForm, Poly
from .prover import linear_factors
from .ratfunc import RatFunc

ASCII = "ascii"
LATEX = "latex"


def fmt_var(i: int, style: str) -> str:
    return f"a_{{{i + 1}}}" if style == LATEX else f"a_{i + 1}"


def fmt_b_vector(b: Sequence[int], style: str) -> str:
    inner = ",".join(str(x) for x in b)
    if style == LATEX:
        return rf"\langle {inner} \rangle"
    return f"<{inner}>"


def fmt_coeff(c: Fraction, style: str) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    if style == LATEX:
        return rf"\tfrac{{{c.numerator}}}{{{c.denominator}}}"
    return f"({c.numerator}/{c.denominator})"


def fmt_poly(p: Poly, style: str) -> str:
    """Expanded rendering, terms in graded-lex descending order."""
    if p.is_zero():
        return "0"
    parts: List[str] = []
    for mono, c in p.sorted_terms():
        mono_txt = _fmt_monomial(mono, style)
        if mono_txt:
            if c == 1:
                term = mono_txt
            elif c == -1:
                term = f"-{mono_txt}"
            else:
                sep = " " if style == LATEX else "*"
                term = f"{fmt_coeff(c, style)}{sep}{mono_txt}"
        else:
            term = fmt_coeff(c, style)
        parts.append(term)
    text = parts[0]
    for term in parts[1:]:
        if term.startswith("-"):
            text += " - " + term[1:]
        else:
            text += " + " + term
    return text


def _fmt_monomial(mono: Tuple[int, ...], style: str) -> str:
    pieces = []
    for i, e in enumerate(mono):
        if e == 0:
            continue
        v = fmt_var(i, style)
        if e == 1:
            pieces.append(v)
        elif style == LATEX:
            pieces.append(f"{v}^{{{e}}}")
        else:
            pieces.append(f"{v}^{e}")
    sep = " " if style == LATEX else "*"
    return sep.join(pieces)


def fmt_linear_form(f: LinearForm, style: str) -> str:
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


def _factor_for_display(p: Poly, style: str) -> Optional[Tuple[Fraction, str]]:
    """Try to render p as const * monomial * product of linear forms."""
    if p.is_zero():
        return None
    terms = p.sorted_terms()
    mins = [min(m[i] for m, _ in terms) for i in range(p.nvars)]
    core = Poly(
        p.nvars,
        {tuple(e - lo for e, lo in zip(m, mins)): c for m, c in terms},
    )
    split = linear_factors(core)
    if split is None:
        return None
    factors, const = split
    monomial = _fmt_monomial(tuple(mins), style)
    pieces = [monomial] if monomial else []
    ordered = sorted(factors, key=lambda f: (f.coeffs, f.constant), reverse=True)
    pieces.extend(f"({fmt_linear_form(f, style)})" for f in ordered)
    sep = " " if style == LATEX else "*"
    return const, sep.join(pieces) if pieces else "1"


def fmt_poly_factored(p: Poly, style: str) -> str:
    """Factored rendering when p splits into linear pieces, expanded otherwise."""
    split = _factor_for_display(p, style)
    if split is None:
        return fmt_poly(p, style)
    const, body = split
    if const == 1:
        return body
    if body == "1":
        return fmt_coeff(const, style)
    sep = " " if style == LATEX else "*"
    return f"{fmt_coeff(const, style)}{sep}{body}"


def fmt_ratfunc(r: RatFunc, style: str) -> str:
    if r.is_zero():
        return "0"
    num = fmt_poly_factored(r.num, style)
    if r.den.is_constant() and r.den.constant_value() == 1:
        return num
    den = fmt_poly_factored(r.den, style)
    if style == LATEX:
        return rf"\frac{{{num}}}{{{den}}}"
    return f"({num}) / ({den})"


def fmt_multinomial(n: int, style: str) -> Tuple[str, str]:
    """(numerator factorial, denominator factorials) of the multinomial."""
    variables = [fmt_var(i, style) for i in range(n)]
    top = "(" + "+".join(variables) + ")!"
    if style == LATEX:
        bottom = r"\, ".join(f"{v}!" for v in variables)
    else:
        bottom = " ".join(f"{v}!" for v in variables)
    return top, bottom


def fmt_closed_form(form: ClosedForm, style: str) -> str:
    """The full d_n(a; b) display: R folded with the multinomial."""
    n = form.n
    if form.R.is_zero():
        return "0"
    top, bottom = fmt_multinomial(n, style)
    num = fmt_poly_factored(form.R.num, style)
    den_trivial = form.R.den.is_constant() and form.R.den.constant_value() == 1
    den = None if den_trivial else fmt_poly_factored(form.R.den, style)
    if style == LATEX:
        upper = f"{num} {top}" if num != "1" else top
        lower = f"{den} {bottom}" if den else bottom
        return rf"\frac{{{upper}}}{{{lower}}}"
    upper = f"{num} * {top}" if num != "1" else top
    lower = f"{den} * {bottom}" if den else bottom
    return f"{upper} / ({lower})"


def fmt_d_symbol(n: int, b: Sequence[int], style: str) -> str:
    if style == LATEX:
        return rf"d_{{{n}}}(\mathbf{{a}}; {fmt_b_vector(b, LATEX)})"
    return f"d_{n}(a; {fmt_b_vector(b, ASCII)})"


def fmt_c_symbol(n: int, b: Sequence[int], style: str, a_text: str | None = None) -> str:
    if a_text is None:
        a_text = r"\mathbf{a}" if style == LATEX else "a"
    if style == LATEX:
        return rf"c_{{{n}}}({a_text}; {fmt_b_vector(b, LATEX)})"
    return f"c_{n}({a_text}; {fmt_b_vector(b, ASCII)})"


def fmt_pk_coeff(term: PkTerm, others: Sequence[int], style: str) -> str:
    """Render prod (-1)^{m_i} C(a_i, m_i) in falling-factorial style,
    e.g. m = (2, 0) over (a_2, a_3) -> a_2(a_2-1)/2."""
    sign = -1 if sum(term.m) % 2 else 1
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
        if style == LATEX:
            body = rf"\frac{{{body}}}{{{den}}}"
        else:
            body = f"({body})/{den}"
    if sign < 0:
        body = f"-{body}"
    return body
