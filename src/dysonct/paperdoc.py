"""Human-readable proof documents generated from certificates.

A document is only ever produced from a valid certificate.  It states the
closed form, then walks the verified facts in proof order: the recursion,
one boundary identity per pivot, the initial value, the uniqueness
conclusion, and an appendix with the tree of lower-level closed forms the
boundary checks used.  Everything displayed is re-derived from the
certificate and the deterministic expansion machinery, never free-typed.
There is one document structure, ``_document``; each output format is a
``_Notation`` that spells its headings, labels, math, displays and lists,
and names the ``render.Style`` that spells its formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .laurent import pk_compositions
from .prover import ProofCertificate
from .render import (
    ASCII,
    LATEX,
    Style,
    fmt_b_vector,
    fmt_c_symbol,
    fmt_closed_form,
    fmt_d_symbol,
    fmt_pk_coeff,
    fmt_var,
)

FORMATS = ("markdown", "latex")


@dataclass(frozen=True)
class _Notation:
    """How one output format spells the parts of a document.  Every template
    takes one ``str.format`` argument."""

    style: Style  # spells every formula
    section: str
    subsection: str
    label: str
    math: str  # inline formula
    qed: str
    gloss: str  # opens the sentence that follows the statement display
    punctuates: bool  # whether a formula ending a sentence takes its stop
    display_one: Tuple[str, str]  # opens and closes a display of one row
    display_many: Tuple[str, str]  # ... of several rows
    display_indent: str
    row_end: str  # ends every display row but the last
    list_open: Tuple[str, ...]  # the appendix list
    sublist_open: Tuple[str, ...]  # a list nested in an item
    list_close: Tuple[str, ...]
    item: str
    depends: str  # the note under an item that has dependencies

    def punct(self, mark: str) -> str:
        return mark if self.punctuates else ""

    def display(self, rows: Sequence[str], mark: str = "") -> List[str]:
        opener, closer = self.display_many if len(rows) > 1 else self.display_one
        ends = [self.row_end] * (len(rows) - 1) + [self.punct(mark)]
        body = [f"{self.display_indent}{row}{end}" for row, end in zip(rows, ends)]
        return [opener, *body, closer]


_NOTATIONS = {
    "markdown": _Notation(
        style=ASCII, section="# {}", subsection="## {}", label="**{}.**",
        math="{}", qed="QED", gloss="where",
        punctuates=False, display_one=("", ""), display_many=("", ""),
        display_indent="    ", row_end="",
        list_open=("",), sublist_open=(), list_close=(), item="- {}",
        depends="  (certified via its own recursion/boundary/initial checks; "
        "depends on {})",
    ),
    "latex": _Notation(
        style=LATEX, section=r"\section*{{{}}}", subsection=r"\subsection*{{{}}}",
        label=r"\noindent\textbf{{{}.}}",
        math="${}$", qed=r"\qed", gloss="Here",
        punctuates=True, display_one=(r"\[", r"\]"),
        display_many=(r"\begin{gather*}", r"\end{gather*}"),
        display_indent="", row_end=r" \\",
        list_open=(r"\begin{itemize}",), sublist_open=(r"\begin{itemize}",),
        list_close=(r"\end{itemize}",), item=r"\item {}",
        depends="(depends on {})",
    ),
}

_BASE_CASE_NOTE = (
    "This is the built-in two-variable family: expanding the Laurent "
    "product reduces it to a single binomial coefficient, so no further "
    "induction is needed."
)
_APPENDIX_TITLE = "Appendix: lower-level closed forms used by the boundary checks"


def build_document(cert: ProofCertificate, fmt: str = "markdown") -> str:
    if fmt not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}")
    if not cert.is_valid():
        raise ValueError("refusing to write a document for an invalid certificate")
    return "\n".join(_document(cert, _NOTATIONS[fmt])) + "\n"


def _document(cert: ProofCertificate, nota: _Notation) -> List[str]:
    form, style = cert.form, nota.style
    n, b = form.n, form.b
    math, label, bold = nota.math.format, nota.label.format, style.bold.format
    c_sym, d_sym = fmt_c_symbol(n, b, style), fmt_d_symbol(n, b, style)
    conclusion = (
        f"{label('Conclusion')} The recursion, the {n} boundary identities, and the "
        f"initial value determine {math(c_sym)} at every nonnegative integer point; "
        f"the closed form above satisfies all of them, so the identity holds. {nota.qed}"
    )
    lines = [nota.section.format(f"Closed form for {math(c_sym)}"), ""]
    if cert.base_case:
        statement = math(f"{c_sym} = {d_sym} = {fmt_closed_form(form, style)}") + nota.punct(".")
        return lines + [f"{label('Statement')} {statement}", "", _BASE_CASE_NOTE]
    if form.R.is_zero():
        b_eq = f"{bold('b')} = {fmt_b_vector(b, style)}"
        lines.append(
            f"{label('Statement')} {math(f'{c_sym} = 0')} for all nonnegative integer "
            f"{math(bold('a'))}, since the components of {math(b_eq)} do not sum to "
            f"zero and the underlying Laurent product is homogeneous of degree {math('0')}."
        )
        return lines + ["", conclusion]

    variables = ", ".join(math(fmt_var(i, style)) for i in range(n))
    product = f"F_{style.group.format(n)}({bold('x')}; {bold('a')}; {fmt_b_vector(b, style)})"
    lines.append(f"{label('Statement')} For all nonnegative integers {variables},")
    lines += nota.display([f"{c_sym} = {d_sym} = {fmt_closed_form(form, style)}"], ".")
    lines += [
        f"{nota.gloss} {math(c_sym)} denotes the constant term of the Laurent product "
        f"{math(product)}.",
        "",
        nota.subsection.format("Good style proof"),
        "",
    ]

    shifted = [fmt_c_symbol(n, b, style, a_text=_a_minus_e(n, i, style)) for i in range(n)]
    lines.append(f"{label('Recursion')} For {variables} {math(f'{style.geq} 1')},")
    lines += nota.display([f"{c_sym} = {' + '.join(shifted)}"], ",")
    lines += [
        "and the closed form satisfies the same relation (verified as an identity "
        "of rational functions in canonical form).",
        "",
    ]

    rows = [
        f"{fmt_c_symbol(n, b, style, a_text=_a_with_zero(n, k, style))} = "
        f"{_boundary_rhs(cert, k, nota)}"
        for k in range(n)
    ]
    lines.append(f"{label('Boundary conditions')} Setting each {math('a_k = 0')} in turn:")
    lines += nota.display(rows)
    lines += [
        "each verified against the lower-level closed forms (empty right sides "
        "are exactly the vanishing cases).",
        "",
    ]

    value = "1" if all(x == 0 for x in b) else "0"
    initial = fmt_c_symbol(n, b, style, a_text=fmt_b_vector((0,) * n, style))
    lines.append(f"{label('Initial condition')} {math(f'{initial} = {value}')}.")
    lines += ["", conclusion]
    if cert.dependencies and not all(d.base_case for d in cert.dependencies):
        lines += ["", nota.subsection.format(_APPENDIX_TITLE), *nota.list_open]
        for dep in cert.dependencies:
            lines += _appendix_entry(dep, nota)
        lines += nota.list_close
    return lines


def _appendix_entry(dep: ProofCertificate, nota: _Notation) -> List[str]:
    """One appendix item, its dependency note, and its non-base dependencies
    as a list nested two spaces deeper."""
    form, style = dep.form, nota.style
    d_eq = f"{fmt_d_symbol(form.n, form.b, style)} = {fmt_closed_form(form, style)}"
    lines = [nota.item.format(nota.math.format(d_eq))]
    subs = () if dep.base_case else dep.dependencies
    if subs:
        vectors = ", ".join(nota.math.format(fmt_b_vector(s.form.b, style)) for s in subs)
        lines.append(nota.depends.format(vectors))
    nested = [s for s in subs if not s.base_case]
    if nested:
        inner = list(nota.sublist_open)
        for s in nested:
            inner += _appendix_entry(s, nota)
        inner += nota.list_close
        lines += [f"  {line}" for line in inner]
    return lines


def _a_with_zero(n: int, k: int, style: Style) -> str:
    return fmt_b_vector(["0" if i == k else fmt_var(i, style) for i in range(n)], style)


def _a_minus_e(n: int, i: int, style: Style) -> str:
    parts = [f"{fmt_var(j, style)}-1" if j == i else fmt_var(j, style) for j in range(n)]
    return fmt_b_vector(parts, style)


def _boundary_rhs(cert: ProofCertificate, k: int, nota: _Notation) -> str:
    n, b, style = cert.form.n, cert.form.b, nota.style
    compositions = pk_compositions(n, k, b)
    if not compositions:
        return "0"
    others = [i for i in range(n) if i != k]
    a_hat = fmt_b_vector([fmt_var(i, style) for i in others], style)
    pieces: List[str] = []
    for m, shifted_b in compositions:
        coeff = fmt_pk_coeff(m, others, style)
        call = fmt_c_symbol(n - 1, shifted_b, style, a_text=a_hat)
        if coeff == "1":  # m = 0, an even sign; a bare -1 cannot occur
            pieces.append(call)
        else:
            pieces.append(f"{coeff}{style.thin}{call}")
    return " + ".join(pieces).replace(" + -", " - ")
