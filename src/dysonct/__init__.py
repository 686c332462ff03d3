"""dysonct: conjecture and prove closed forms for Dyson-product constant terms."""

from .conjecture import (
    ClosedForm,
    GuessExhausted,
    SampleSet,
    ansatz_factor,
    guess_dyson,
    guess_dyson_with_details,
    guess_rat,
    sample_grid,
)
from .laurent import (
    LaurentPoly,
    PkTerm,
    ct,
    multinomial,
    pk_expansion,
)
from .linalg import solve_nullspace
from .poly import LinearForm, Poly, binomial_poly
from .prover import (
    ProofCertificate,
    ProofError,
    Resolver,
    c2_closed_form,
    check_boundary,
    check_denominator_safety,
    check_initial,
    check_recursion,
    permute_form,
    prove,
)
from .ratfunc import RatFunc
from .store import ResultStore, StoreEntry, store_path
from .turbo import (
    complexity,
    derive_by_reduction,
    turbo_dyson,
    zero_sum_vectors,
)

__all__ = [
    "ClosedForm",
    "GuessExhausted",
    "LaurentPoly",
    "LinearForm",
    "PkTerm",
    "Poly",
    "ProofCertificate",
    "ProofError",
    "RatFunc",
    "Resolver",
    "ResultStore",
    "SampleSet",
    "StoreEntry",
    "ansatz_factor",
    "binomial_poly",
    "c2_closed_form",
    "check_boundary",
    "check_denominator_safety",
    "check_initial",
    "check_recursion",
    "complexity",
    "ct",
    "derive_by_reduction",
    "guess_dyson",
    "guess_dyson_with_details",
    "guess_rat",
    "multinomial",
    "permute_form",
    "pk_expansion",
    "prove",
    "sample_grid",
    "solve_nullspace",
    "store_path",
    "turbo_dyson",
    "zero_sum_vectors",
]
