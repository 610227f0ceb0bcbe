"""Exact verification and classification of equivariant real circle forms
on complex affine four-space.

All computation is exact over Q and Q(i): sparse Laurent polynomials in the
invariant variable T = ab, structured 2x2 polynomial matrix groups with a
Galois twist, a four-variable expansion layer for cross-validation, a
decision procedure for equivalence of the twisted forms with verifiable
certificates, and an independent brute-force conjugator search.
"""

from types import ModuleType as _ModuleType

from .gaussian import GaussianRational, format_rational, parse_rational, rational_odd_root
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
    verify_bundle_involution,
    verify_cocycle,
    verify_conjugation,
    verify_splitting,
    verify_weight_grading,
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

# Every public name bound above, so each is declared once, in its import.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
