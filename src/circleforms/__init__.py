"""Exact verification and classification of equivariant real circle forms
on complex affine four-space.

All computation is exact over Q and Q(i): sparse Laurent polynomials in the
invariant variable T = ab, structured 2x2 polynomial matrix groups with a
Galois twist, a four-variable expansion layer for cross-validation, a
decision procedure for equivalence of the twisted forms with verifiable
certificates, and an independent brute-force conjugator search.
"""

from .gaussian import GaussianRational, Rational, format_rational, parse_rational, rational_odd_root
from .laurent import LaurentPoly, geometric_sum
from .matrices import StructuredMatrix
from .polymaps import (
    MultiPoly,
    PolyMap,
    compose,
    expand,
    is_involution,
    weight_check,
)
from .forms import (
    FormSpec,
    case12_checks,
    case12_conjugator,
    case12_twist,
    family_checks,
    linear_circle_form,
    make_circle_form,
    make_splitting,
    make_twist,
    verify_case12_bundle,
    verify_cocycle,
    verify_conjugation,
    verify_splitting,
)
from .equivalence import (
    DecisionResult,
    InternalConsistencyError,
    build_certificate,
    classify,
    decide_equiv,
    equivalence_key,
    verify_certificate,
)
from .oracle import (
    LinearSystem,
    conjugators_between,
    nullspace,
    search_conjugator,
)
from .quotient import induced_images, make_invariants, verify_relation

__version__ = "0.1.0"

__all__ = [
    "DecisionResult",
    "FormSpec",
    "GaussianRational",
    "InternalConsistencyError",
    "LaurentPoly",
    "LinearSystem",
    "MultiPoly",
    "PolyMap",
    "Rational",
    "StructuredMatrix",
    "build_certificate",
    "case12_checks",
    "case12_conjugator",
    "case12_twist",
    "classify",
    "compose",
    "conjugators_between",
    "decide_equiv",
    "equivalence_key",
    "expand",
    "family_checks",
    "format_rational",
    "geometric_sum",
    "induced_images",
    "is_involution",
    "linear_circle_form",
    "make_circle_form",
    "make_invariants",
    "make_splitting",
    "make_twist",
    "nullspace",
    "parse_rational",
    "rational_odd_root",
    "search_conjugator",
    "verify_case12_bundle",
    "verify_certificate",
    "verify_cocycle",
    "verify_conjugation",
    "verify_relation",
    "verify_splitting",
    "weight_check",
]
