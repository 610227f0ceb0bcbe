"""Deciding equivalence of two circle forms in the family.

mu_h and mu_h2 are equivalent exactly when some real r != 0 satisfies
h(T) = r * h2(r^2 T) mod T^m, i.e. c_j = r^(2j+1) * c2_j for every j < m.

The procedure never materializes a real root.  Writing rho_j = c_j / c2_j on
the common support and picking the pivot p = min support, a real r exists iff

    supports of h and h2 agree below m,  and
    rho_p^(2j+1) == rho_j^(2p+1) for every j in the support.

Sketch: r must satisfy r^(2p+1) = rho_p, which has a unique real solution
since the exponent is odd.  Raising r^(2j+1) = rho_j to the (2p+1) power and
substituting eliminates r, giving the displayed cross conditions; conversely
the unique odd real root of rho_p satisfies every remaining condition because
x -> x^(2p+1) is injective on the reals.  Odd exponents also make the signs
self-consistent, so no separate sign analysis is needed (an even-power
variant of this reduction would be wrong).

Separating the two forms in each cross condition gives
c_j^(2p+1) / c_p^(2j+1) == c2_j^(2p+1) / c2_p^(2j+1): the support and these
ratios are a complete invariant of one form, equivalence_key.  The cross
condition is written only there.  decide_equiv is key equality, and classify
groups forms by key, with no pairwise decisions.

Equal keys have equal supports, hence the same pivot p.  The witness r is
then the (2p+1)-th root of rho_p = c_p / c2_p, and it is rational iff rho_p
has a rational (2p+1)-th root; only then can build_certificate construct the
explicit conjugator for r (an irrational witness would need an
algebraic-number field, which this package deliberately avoids).  Deciding
and constructing are separate calls: the verdict never builds a matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import index
from typing import Optional, Sequence

from .forms import FormSpec, _require_real_poly, make_splitting, make_twist, verify_conjugation
from .gaussian import RationalLike, as_rational, rational_odd_root
from .laurent import LaurentPoly
from .matrices import StructuredMatrix


class InternalConsistencyError(RuntimeError):
    """A postcondition that the underlying theory guarantees has failed;
    this always indicates an implementation bug, never bad input."""


@dataclass(frozen=True)
class DecisionResult:
    """The verdict of decide_equiv: whether some real r != 0 relates the two
    forms, and that r when it is rational (None otherwise).  An equivalent
    pair with rational_witness None is equivalent over the reals only."""

    equivalent: bool
    rational_witness: Optional[Fraction]


def decide_equiv(h: LaurentPoly, h2: LaurentPoly, m: int) -> DecisionResult:
    """Decide mu_h ~ mu_h2 for the weight (2, 2m+1) family: the verdict and
    the rational witness r, if any; build_certificate constructs the
    conjugator for such an r."""
    c = _coefficients(h, m, "h")
    c2 = _coefficients(h2, m, "h2")
    if _key(c) != _key(c2):
        return DecisionResult(False, None)
    if not c:
        return DecisionResult(True, Fraction(1))  # an empty support admits every r
    pivot = min(c)
    return DecisionResult(True, rational_odd_root(c[pivot] / c2[pivot], 2 * pivot + 1))


def build_certificate(h: LaurentPoly, h2: LaurentPoly, m: int,
                      r: RationalLike) -> StructuredMatrix:
    """The conjugator N with N * M_h = M_h'' * gamma(N) for h'' = r*h2(r^2 T),
    given a witness r (the rational_witness of decide_equiv).

    N = K_h'' * K_h^-1 is computed in the Laurent group and must come out
    polynomial with determinant 1; every one of those facts is re-verified
    here and a failure raises, since the theory guarantees success whenever
    the preconditions hold.
    """
    r = as_rational(r)
    if not r:
        raise ValueError("witness r must be nonzero")
    _require_real_poly(h, "h")
    _require_real_poly(h2, "h2")
    h_target = h2.apply_scaling(r)
    if h.truncate_mod(m) != h_target.truncate_mod(m):
        raise ValueError("r is not a witness: h != r*h2(r^2 T) mod T^m")

    spec_src = FormSpec(m, h)
    spec_dst = FormSpec(m, h_target)
    conjugator = make_splitting(spec_dst) * make_splitting(spec_src).inverse()

    # With det N = 1, N is in Lambda exactly when its entries are polynomial.
    if conjugator.det() != LaurentPoly.one():
        raise InternalConsistencyError("certificate determinant is not 1")
    if not conjugator.is_polynomial:
        raise InternalConsistencyError("certificate left the polynomial group")
    src = make_twist(spec_src)
    dst = make_twist(spec_dst)
    if conjugator * src != dst * conjugator.galois():
        raise InternalConsistencyError("certificate fails to conjugate the twists")
    return conjugator


def verify_certificate(h: LaurentPoly, h2: LaurentPoly, m: int,
                       r: RationalLike, conjugator: StructuredMatrix) -> bool:
    """Independent re-check of a stored certificate (r, N): r != 0, N of
    cross-exponent 2m+1, and verify_conjugation(N, M_h, M_h'')."""
    _require_real_poly(h, "h")
    _require_real_poly(h2, "h2")
    r = as_rational(r)
    if not r or conjugator.e != 2 * index(m) + 1:
        return False
    src = make_twist(FormSpec(m, h))
    dst = make_twist(FormSpec(m, h2.apply_scaling(r)))
    return verify_conjugation(conjugator, src, dst)


def _coefficients(h: LaurentPoly, m: int, name: str) -> dict[int, Fraction]:
    """The coefficients of h mod T^m by exponent, for a real polynomial h."""
    if index(m) < 1:
        raise ValueError("m must be a positive integer")
    _require_real_poly(h, name)
    c = h.truncate_mod(m)
    return {e: Fraction(n, c._den) for e, n in c._re.items()}


def _key(coeffs: dict[int, Fraction]) -> tuple:
    support = tuple(sorted(coeffs))
    if not support:
        return (), ()
    p = support[0]
    c_p = coeffs[p]
    return support, tuple(coeffs[j] ** (2 * p + 1) / c_p ** (2 * j + 1) for j in support)


def equivalence_key(h: LaurentPoly, m: int) -> tuple:
    """Complete invariant of mu_h: two forms are equivalent exactly when
    their keys are equal, and decide_equiv decides by this equality.

    The key is (S, ratios) with S the ascending support of h mod T^m, p = min S
    and ratios the values c_j^(2p+1) / c_p^(2j+1) for j in S.  Under
    c_j -> r^(2j+1) c_j both powers pick up r^((2j+1)(2p+1)), so the ratios are
    invariant; equality of two keys is the cross condition of the module
    docstring.
    """
    return _key(_coefficients(h, m, "h"))


def classify(forms: Sequence[LaurentPoly], m: int) -> list[list[int]]:
    """Partition indices of `forms` into equivalence classes, ordered by their
    first index: the forms grouped by equivalence_key, which is equal exactly
    for equivalent forms, so no pair is decided.
    """
    if index(m) < 1:
        raise ValueError("m must be a positive integer")
    groups: dict[tuple, list[int]] = {}
    for i, h in enumerate(forms):
        _require_real_poly(h, f"forms[{i}]")
        groups.setdefault(equivalence_key(h, m), []).append(i)
    return list(groups.values())
