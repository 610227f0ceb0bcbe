"""Constructors for the circle-form family and its verification checks.

For an odd weight n = 2m+1 and a real polynomial h(T), the family consists of
the twist matrices

    M_h = (1 - T*h^2,            a^n * h^n;
           -b^n * h^n,           sum_{j<n} (T*h^2)^j)

together with the real structure mu_h = phi_{M_h} o mu_0, where mu_0 is the
coordinate-swap-plus-conjugation circle form.  On the locus ab != 0 each M_h
splits through the Laurent matrix K_h, which is what makes the family
comparable: K_h has entries (1, h/T^m; h*sum_{j<m}(Th^2)^j / T^m,
sum_{j<=m}(Th^2)^j).

Reading note for K_h: the two geometric sums run over powers (T*h^2)^j with
j up to m-1 (bottom left, inside the T^-m factor) and up to m (bottom right).
Any other reading breaks det(K_h) = 1, which is checked symbolically in the
tests over a grid of (m, h).

family_checks is the one list of the checks that make mu_h a real circle
form: det M_h = 1, M_h * gamma(M_h) = I, K_h = M_h * gamma(K_h), mu_h^2 = id
and the weight grading.  The cocycle is read in closed form: M_h is real,
so gamma(M_h) is its holomorphic swap-twin, and for polynomial entries
M * swap(M) = I is S = -Q and det M = 1 (verify_bundle_involution).  The
last two checks are derived, with the representation lemma, from the
matrix M_h; mu_h itself is not built.  The lemma is the pair
of identities phi_A o phi_B = phi_{A*B} and mu_0 o phi_M o mu_0 =
phi_{gamma(M)} for structured A, B, M with polynomial entries, where
phi_M = expand(M).  Together they give mu_M^2 = phi_M o phi_{gamma(M)} =
phi_{M * gamma(M)}, and expand is injective, so mu_M^2 = id exactly when
verify_cocycle(M) holds.  tests/test_representation_lemma.py proves both
identities as polynomial identities in the entries; the twist-family and
case12 release criteria still build mu_h and the product M * gamma(M), and
compare the computed checks with the derived ones.

Two real forms are compared through one relation: a conjugator N in the
polynomial group Lambda with N * M = M' * gamma(N) (verify_conjugation).

The weight-(1,2) case uses cross-exponent 4.  Its twist is the family twist
formula at n = 4 and h = 1, which defines a nontrivial orthogonal bundle
involution: it composes with its holomorphic swap-twin to the identity,
the same closed form as the cocycle of M_h, since its entries are real.
Its exact conjugator with non-real coefficients linearizes the associated
circle form, which is the relation above with M = I.  case12_checks is the
one list of its checks, and it derives the involution and weight-grading
checks of its circle form as family_checks does.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import index

from .gaussian import GaussianRational
from .laurent import LaurentPoly, geometric_sum
from .matrices import StructuredMatrix
from .polymaps import MultiPoly, PolyMap, compose, expand


def _require_real_poly(p: LaurentPoly, name: str) -> None:
    if not isinstance(p, LaurentPoly):
        raise TypeError(f"{name} must be a LaurentPoly")
    if not p.is_polynomial:
        raise ValueError(f"{name} must be a polynomial in T")
    if not p.is_real:
        raise ValueError(f"{name} must have real coefficients")


@dataclass(frozen=True)
class FormSpec:
    """Family parameters: m >= 1 (so the fiber weight is n = 2m+1) and a real
    polynomial h in the invariant variable T."""

    m: int
    h: LaurentPoly

    def __post_init__(self):
        if index(self.m) < 1:
            raise ValueError("m must be a positive integer")
        _require_real_poly(self.h, "h")

    @property
    def n(self) -> int:
        return 2 * self.m + 1

    def weights(self) -> tuple[int, int, int, int]:
        return (2, -2, self.n, -self.n)


def _twist(n: int, h: LaurentPoly) -> StructuredMatrix:
    """The twist formula at cross-exponent n: (1 - T*h^2, a^n h^n; -b^n h^n,
    sum_{j<n} (T*h^2)^j)."""
    th2 = LaurentPoly.variable() * h * h
    hn = h ** n
    return StructuredMatrix(
        n,
        LaurentPoly.one() - th2,
        hn,
        -hn,
        geometric_sum(th2, n),
    )


def make_twist(spec: FormSpec) -> StructuredMatrix:
    """The family matrix M_h (cross-exponent n, polynomial entries, det 1)."""
    return _twist(spec.n, spec.h)


def splitting_entries(spec: FormSpec) -> tuple[LaurentPoly, LaurentPoly, LaurentPoly]:
    """The Laurent entries (q_h, s_h, r_h) of the splitting matrix K_h."""
    m, h = spec.m, spec.h
    th2 = LaurentPoly.variable() * h * h
    t_neg_m = LaurentPoly.monomial(-m)
    below_m = geometric_sum(th2, m)
    # sum_{j<=m} (Th^2)^j = 1 + Th^2 * sum_{j<m} (Th^2)^j
    return h * t_neg_m, h * below_m * t_neg_m, LaurentPoly.one() + th2 * below_m


def make_splitting(spec: FormSpec) -> StructuredMatrix:
    """The matrix K_h that trivializes M_h on the open locus T != 0:
    det(K_h) = 1 and K_h = M_h * gamma(K_h)."""
    q, s, r = splitting_entries(spec)
    return StructuredMatrix(spec.n, LaurentPoly.one(), q, s, r)


def verify_cocycle(matrix: StructuredMatrix) -> bool:
    """M * gamma(M) == identity, the condition for phi_M o mu_0 to be an
    antiholomorphic involution, as one structured product.  Verdicts read
    it in closed form (verify_bundle_involution); the twist-family and
    case12 release criteria compute this product to check that form."""
    return matrix * matrix.galois() == StructuredMatrix.identity(matrix.e)


def verify_bundle_involution(matrix: StructuredMatrix) -> bool:
    """M * swap(M) == I, where swap(M) = (R, a^e S; b^e Q, P) is the
    holomorphic swap-twin of M, for M with polynomial entries; computed in
    closed form as S == -Q and det M == 1.  For real entries swap(M) =
    gamma(M), so this is the cocycle M * gamma(M) = I (verify_cocycle).

    The entries of M * swap(M) are P*R + T^e Q^2, a^e P*(S + Q),
    b^e R*(S + Q) and P*R + T^e S^2.  If S + Q != 0, the two off-diagonal
    entries vanish only for P = R = 0, as Q(i)[T] is an integral domain,
    and then the first says T^e Q^2 = 1, which has no polynomial solution.
    So S = -Q, both diagonal entries are P*R - T^e Q*S = det M, and M *
    swap(M) = I is S = -Q and det M = 1.  Over a commutative ring a
    one-sided inverse of a square matrix is two-sided, so swap(M) * M = I
    holds with it.  A matrix with a negative power of T gets False: for
    those the equivalence fails, as P = R = 0 and Q = S = T^-2 at e = 4
    give M * swap(M) = I."""
    return matrix.is_polynomial and matrix.S == -matrix.Q and matrix.det() == LaurentPoly.one()


def verify_splitting(twist: StructuredMatrix, splitting: StructuredMatrix) -> bool:
    """det(K) = 1 and K = M * gamma(K), both exact, for a twist M and its
    splitting K.  Since det(gamma K) = conj(det K) = 1, the second is
    K * (gamma K)^-1 = M."""
    return splitting.det() == LaurentPoly.one() and splitting == twist * splitting.galois()


def verify_weight_grading(twist: StructuredMatrix, weights) -> bool:
    """weight_check(make_circle_form(twist), weights), read off the matrix.

    For weights (k, -k, n, -n), T = ab has weight 0, so every T-polynomial
    entry does too.  mu_M sends (a, b, x, y) to the conjugate of (b, a,
    P*y + b^e*Q*x, R*x + a^e*S*y), and component i must have weighted degree
    -w_i: b, a, P*y and R*x always do, b^e*Q*x (weight n - e*k) does when
    Q = 0 or e*k = 2n, and a^e*S*y (weight e*k - n) when S = 0 or
    e*k = 2n.  A zero component is skipped, as weight_check skips it."""
    k, _, n, _ = weights
    return twist.e * k == 2 * n or (twist.Q.is_zero and twist.S.is_zero)


def verify_conjugation(candidate: StructuredMatrix, m_src: StructuredMatrix,
                       m_dst: StructuredMatrix) -> bool:
    """Exact check that candidate N lies in the polynomial group and
    N * M_src = M_dst * gamma(N).  With det(N) a nonzero constant so is
    det(gamma N) = conj(det N), and the equation is the same condition as
    N * M_src * (gamma N)^-1 = M_dst."""
    return candidate.in_lambda() and candidate * m_src == m_dst * candidate.galois()


def linear_circle_form() -> PolyMap:
    """mu_0: the coordinate swap (a, b, x, y) -> (b, a, y, x) composed with
    conjugation; the linear circle form."""
    a, b, x, y = (MultiPoly.variable(i) for i in range(4))
    return PolyMap((b, a, y, x), conjugates_input=True)


def make_circle_form(twist: StructuredMatrix) -> PolyMap:
    """mu_M = phi_M o mu_0, with phi_M = expand(M); for M = M_h this is the
    family form mu_h."""
    return compose(expand(twist), linear_circle_form())


def family_checks(spec: FormSpec) -> dict[str, bool]:
    """Every check that mu_h is a real circle form, in display order: det M_h
    = 1, the cocycle M_h * gamma(M_h) = I (verify_bundle_involution, as M_h
    is real), the splitting K_h = M_h * gamma(K_h), mu_h^2 = id and the
    weight grading.  M_h and K_h are each built once; mu_h^2 = id and the
    weight grading are derived, with the lemma, from the cocycle and
    verify_weight_grading (which reads e = n)."""
    twist = make_twist(spec)
    cocycle = verify_bundle_involution(twist)
    return {
        "det_is_one": twist.det() == LaurentPoly.one(),
        "cocycle": cocycle,
        "splitting": verify_splitting(twist, make_splitting(spec)),
        "involution": cocycle,
        "weight_grading": verify_weight_grading(twist, spec.weights()),
    }


CASE12_WEIGHTS = (1, -1, 2, -2)
CASE12_CROSS_EXPONENT = 4


def case12_twist() -> StructuredMatrix:
    """The weight-(1,2) bundle twist (1-T, a^4; -b^4, 1+T+T^2+T^3): the
    family twist formula at cross-exponent 4 with h = 1."""
    return _twist(CASE12_CROSS_EXPONENT, LaurentPoly.one())


def case12_conjugator() -> StructuredMatrix:
    """The exact matrix with non-real coefficients that conjugates the
    weight-(1,2) circle form to the linear one."""
    def quarters(*coeffs):
        """The polynomial with ascending coefficients (re + im*i) / 4."""
        return LaurentPoly.from_coeffs([GaussianRational(Fraction(re, 4), Fraction(im, 4))
                                        for re, im in coeffs])

    return StructuredMatrix(CASE12_CROSS_EXPONENT,
                            quarters((4, 0), (-2, 2), (-1, -1)),
                            quarters((1, -1)),
                            quarters((-3, 1), (-1, -1)),
                            quarters((4, 0), (2, -2), (1, -1), (1, -1)))


def case12_checks() -> dict[str, bool]:
    """Every weight-(1,2) check, in display order.  The stored conjugator N
    linearizes the form (N * I = Phi * gamma(N) with N in Lambda) and is not
    real; the twist Phi composes with its swap-twin to the identity
    (verify_bundle_involution); and its circle form mu = phi_Phi o mu_0 is
    a weight-graded involution, derived, with the lemma, as family_checks
    derives it for mu_h: Phi is real, so gamma(Phi) is its swap-twin and
    the bundle condition is the cocycle, and e*1 = 4 = 2*2.  Each matrix is
    built once."""
    twist = case12_twist()
    conj = case12_conjugator()
    involution = verify_bundle_involution(twist)
    return {
        "linearization": verify_conjugation(conj, StructuredMatrix.identity(twist.e), twist),
        "bundle_conditions": involution,
        "involution_relations": involution and verify_weight_grading(twist, CASE12_WEIGHTS),
        "conjugator_not_real": conj.galois() != conj,
    }
