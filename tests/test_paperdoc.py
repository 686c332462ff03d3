import dataclasses
import re

import pytest

from conftest import latex_balanced
from dysonct.conjecture import ClosedForm
from dysonct.paperdoc import build_document
from dysonct.prover import CheckOutcome, Resolver, prove
from dysonct.ratfunc import RatFunc
from dysonct.render import ASCII, LATEX, fmt_closed_form, fmt_poly
from dysonct.poly import Poly


@pytest.fixture(scope="module")
def cert_2m1m1():
    return prove(3, (2, -1, -1), Resolver())


@pytest.fixture(scope="module")
def cert_n4():
    return prove(4, (1, -1, 0, 0), Resolver())


def test_markdown_document_structure(cert_2m1m1):
    doc = build_document(cert_2m1m1, "markdown")
    assert "# Closed form for c_3(a; <2,-1,-1>)" in doc
    assert "## Good style proof" in doc
    # statement display
    assert "a_2*a_3*(2+2a_1+a_2+a_3) * (a_1+a_2+a_3)!" in doc
    assert "(1+a_1+a_2)*(1+a_1+a_3)*(1+a_1) * a_1! a_2! a_3!" in doc
    # recursion instance
    assert "c_3(<a_1-1,a_2,a_3>; <2,-1,-1>)" in doc
    # all three boundary displays, including both vanishing ones
    assert "c_3(<0,a_2,a_3>; <2,-1,-1>) = " in doc
    assert "c_3(<a_1,0,a_3>; <2,-1,-1>) = 0" in doc
    assert "c_3(<a_1,a_2,0>; <2,-1,-1>) = 0" in doc
    # boundary summands with their c_2 targets
    assert "(a_3(a_3-1))/2 c_2(<a_2,a_3>; <-1,1>)" in doc
    assert "(a_2(a_2-1))/2 c_2(<a_2,a_3>; <1,-1>)" in doc
    assert "a_2 a_3 c_2(<a_2,a_3>; <0,0>)" in doc
    # initial condition and conclusion
    assert "c_3(<0,0,0>; <2,-1,-1>) = 0" in doc
    assert "**Conclusion.**" in doc


def test_latex_document_balance_and_content(cert_2m1m1):
    doc = build_document(cert_2m1m1, "latex")
    assert latex_balanced(doc)
    assert r"\subsection*{Good style proof}" in doc
    assert r"\frac{a_{2} a_{3} (2+2a_{1}+a_{2}+a_{3}) (a_{1}+a_{2}+a_{3})!}" in doc
    assert r"\begin{gather*}" in doc and r"\end{gather*}" in doc
    assert r"\frac{a_{3}(a_{3}-1)}{2}" in doc


def test_latex_closed_form_parenthesizes_an_expanded_sum():
    # R's numerator for <2,-2,0> does not factor; bare, the multinomial's
    # (a_1+a_2+a_3)! would multiply only its last term
    doc = build_document(prove(3, (2, -2, 0), Resolver()), "latex")
    assert latex_balanced(doc)
    assert r"= \frac{(a_{1} a_{2}^{2} - a_{1} a_{2} a_{3} - a_{2}^{2} a_{3} - " in doc
    assert r" - a_{2}) (a_{1}+a_{2}+a_{3})!}{(2+a_{1}+a_{3}) (1+a_{1}+a_{3}) (1+a_{1}) a_{1}!\, " in doc
    # a denominator too; factored pieces stay bare
    a1, a2 = Poly.variable(2, 0), Poly.variable(2, 1)
    form = ClosedForm(2, (0, 0), RatFunc.coprime(a1, a1 * a1 + a2 + Poly.const(2, 1)))
    expected = r"\frac{a_{1} (a_{1}+a_{2})!}{(a_{1}^{2} + a_{2} + 1) a_{1}!\, a_{2}!}"
    assert fmt_closed_form(form, LATEX) == expected


def test_zero_form_document_is_short():
    cert = prove(3, (1, 0, 0), Resolver())
    doc = build_document(cert, "markdown")
    assert "= 0" in doc
    assert "Good style proof" not in doc
    assert len(doc.splitlines()) <= 6


def test_base_case_document():
    cert = prove(2, (1, -1), Resolver())
    assert cert.is_valid()
    doc = build_document(cert, "markdown")
    assert "binomial coefficient" in doc
    assert "Good style proof" not in doc
    latex = build_document(cert, "latex")
    assert latex_balanced(latex)


def test_n4_document_has_dependency_appendix(cert_n4):
    doc = build_document(cert_n4, "markdown")
    assert "## Appendix: lower-level closed forms" in doc
    assert "d_3(a; <0,0,0>)" in doc
    latex = build_document(cert_n4, "latex")
    assert latex_balanced(latex)
    assert r"\begin{itemize}" in latex


def _failed_boundary(cert):
    failed = CheckOutcome(ok=False, check="boundary", k=cert.form.n - 1)
    return dataclasses.replace(cert, boundaries=(*cert.boundaries[:-1], failed))


def _invalid_dependency(cert):
    first, *rest = cert.dependencies
    return dataclasses.replace(cert, dependencies=(dataclasses.replace(first, initial=None), *rest))


@pytest.mark.parametrize(
    "breaking",
    [
        lambda c: dataclasses.replace(c, recursion=CheckOutcome(ok=False, check="recursion")),
        _failed_boundary,
        lambda c: dataclasses.replace(c, boundaries=c.boundaries[:-1]),
        lambda c: dataclasses.replace(c, initial=None),
        _invalid_dependency,
    ],
    ids=["failed-recursion", "failed-boundary", "missing-boundary", "missing-initial",
         "invalid-dependency"],
)
def test_invalid_certificate_refused(cert_n4, breaking):
    # is_valid reads the outcomes; the n = 4 certificate's first dependency
    # is an n = 3 certificate with outcomes of its own
    assert cert_n4.is_valid() and not cert_n4.dependencies[0].base_case
    broken = breaking(cert_n4)
    assert not broken.is_valid()
    with pytest.raises(ValueError):
        build_document(broken, "markdown")


def test_unknown_format_refused(cert_2m1m1):
    with pytest.raises(ValueError):
        build_document(cert_2m1m1, "pdf")


def test_displays_rederivable_from_certificate(cert_2m1m1):
    # the statement display is exactly the render of the certified form
    doc = build_document(cert_2m1m1, "markdown")
    assert fmt_closed_form(cert_2m1m1.form, ASCII) in doc


def test_render_fallback_for_nonsplitting_polys():
    a1, a2 = Poly.variable(2, 0), Poly.variable(2, 1)
    form = ClosedForm(2, (0, 0), RatFunc.coprime(Poly.const(2, 1), a1 * a1 + a2 + Poly.const(2, 1)))
    text = fmt_closed_form(form, ASCII)
    assert "a_1^2" in text  # expanded, not factored
    assert fmt_poly(Poly.zero(2), ASCII) == "0"


def _labels(doc: str):
    """The bold run-in labels ("Statement", "Recursion", ...) in order."""
    found = re.findall(r"\*\*([^*]+)\.\*\*|\\textbf\{([^}]+)\.\}", doc)
    return [markdown or latex for markdown, latex in found]


def _markdown_appendix(doc: str):
    """(nesting depth, b) of every item of the Markdown appendix."""
    out = []
    for line in doc.splitlines():
        m = re.match(r"( *)- d_\d+\(a; <([-\d,]+)>\)", line)
        if m:
            out.append((len(m.group(1)) // 2, m.group(2)))
    return out


def _latex_appendix(doc: str):
    """(nesting depth, b) of every item of the LaTeX appendix."""
    out, depth = [], 0
    for line in doc.splitlines():
        line = line.strip()
        if line == r"\begin{itemize}":
            depth += 1
        elif line == r"\end{itemize}":
            depth -= 1
        m = re.match(r"\\item \$d_\{\d+\}\(\\mathbf\{a\}; \\langle ([-\d,]+) \\rangle\)", line)
        if m:
            out.append((depth - 1, m.group(1)))
    return out


@pytest.mark.parametrize(
    "n,b", [(3, (1, 0, 0)), (2, (1, -1)), (3, (2, -1, -1)), (5, (1, 1, -1, -1, 0))]
)
def test_markdown_and_latex_documents_agree(n, b):
    cert = prove(n, b, Resolver())
    markdown = build_document(cert, "markdown")
    latex = build_document(cert, "latex")
    assert latex_balanced(latex)
    assert _labels(markdown) and _labels(markdown) == _labels(latex)
    assert _markdown_appendix(markdown) == _latex_appendix(latex)
    if n == 5:
        # the appendix is the whole dependency tree, two levels deep
        assert {depth for depth, _ in _markdown_appendix(markdown)} == {0, 1}
