"""Converging upper bound hierarchies for the minimal eigenvalue of
self-adjoint noncommutative polynomials, via exact Haar-state moment
matrices and symmetric-pencil generalized eigenvalue problems."""

__version__ = "0.1.0"

from .algebra import (AlgebraSpec, GeneratorSpec, Letter, NCPolynomial, Word,
                      canonicalize, evaluate, multiply, star, tracial_class,
                      words_up_to)
from .haar import (ConstantAtom, SignatureMatrix, UnitaryAtom,
                   exact_trace_moment, mc_trace_moment, mc_trace_moments)
from .hierarchy import (HierarchyReport, MomentMatrix, PencilReport,
                        eta_sequence, lambda_sequence, max_shift,
                        moment_matrix, scalar_moments)
from .states import (CanonicalTrace, Combination, FreeProductState, HaarTrace,
                     StateSpec, TensorProductState, evaluate_poly,
                     evaluate_state, evaluate_sums, make_increasing)
from .symcomb import character, content_product, partitions, weingarten

__all__ = [
    "AlgebraSpec", "GeneratorSpec", "Letter", "NCPolynomial", "Word",
    "canonicalize", "evaluate", "multiply", "star", "tracial_class",
    "words_up_to",
    "ConstantAtom", "SignatureMatrix", "UnitaryAtom",
    "exact_trace_moment", "mc_trace_moment", "mc_trace_moments",
    "HierarchyReport", "MomentMatrix", "PencilReport",
    "eta_sequence", "lambda_sequence", "max_shift", "moment_matrix",
    "scalar_moments",
    "CanonicalTrace", "Combination", "FreeProductState", "HaarTrace",
    "StateSpec", "TensorProductState", "evaluate_poly", "evaluate_state",
    "evaluate_sums", "make_increasing",
    "character", "content_product", "partitions", "weingarten",
]
