"""The representation lemma, one exact check per cross-exponent e, and the
two circle-form checks that ``family_checks`` and ``case12_checks`` derive
from it.

Write phi_M = expand(M) and mu_M = phi_M o mu_0 = make_circle_form(M).  For
structured A, B, M of cross-exponent e with polynomial entries:

(1) compose(expand(A), expand(B)) == expand(A * B);
(2) compose(mu_0, compose(expand(M), mu_0)) == expand(gamma(M));
(3) compose(mu_M, mu_M) == expand(M * gamma(M)), which (1) and (2) give.

expand places each entry at its own monomials (P at x*T^j, Q at a^e*y*T^j,
S at b^e*x*T^j, R at y*T^j), so expand(N) is the identity map exactly when
N = I, and (3) says that mu_M^2 = id exactly when verify_cocycle(M) holds.

Generic entries.  Write each entry X = U + iV with U, V real polynomials in
T, so that its conjugate is U - iV; call U and V the parts of X.  expand
places the entries, compose substitutes images that are linear in x and y,
the matrix product multiplies two entries and adds T^e, and gamma swaps and
conjugates.  So, as tests/test_generic_h.py assumes of M_h and K_h, each
image on either side is a polynomial over Z[i] in the parts, each term of
the form c * (parts) * T^o * a^alpha * b^beta * x^r * y^s with:

* in (1), one part of an entry of A times one of B, o in {0, e};
* in (2), one part of an entry of M, o = 0;
* in (3), two parts of entries of M, o in {0, e};

and (alpha, beta) in {(0, 0), (e, 0), (0, e)} throughout.  The difference
of the two sides is such a polynomial, and the identity holds for all
entries exactly when that polynomial is zero.

Exponent window.  Let 0 = k_0 < k_1 < ... < k_16 be a Sidon set: the sums
k_i + k_j with i <= j are pairwise distinct.  Give the parts the monomials
T^(K_j) with K_j = (e+1) * k_j, j >= 1, pairwise distinct across the
matrices of one check.  A term of degree d <= 2 in the parts has T-exponent
t = o + (e+1) * (k_i + k_j), with i = j = 0 for d = 0 and i = 0 for d = 1.
As 0 <= o <= e, o is t mod (e+1), and the Sidon property gives {i, j} from
k_i + k_j, so t determines o and the parts.  The term lands on the monomial
a^(t + alpha) b^(t + beta) x^r y^s, whose exponents give alpha - beta in
{0, e, -e}, hence (alpha, beta), hence t.  So distinct terms land on
distinct monomials, nothing cancels, and the check at these monomial parts
holds exactly when the identity holds for every structured matrix of
cross-exponent e.  Each check runs at every e from 3 to 2*MAX_M + 1: the
weight 2m+1 of every family form the command line admits, and case12's
e = 4.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circleforms import (
    FormSpec,
    GaussianRational,
    LaurentPoly,
    MultiPoly,
    PolyMap,
    StructuredMatrix,
    case12_twist,
    compose,
    expand,
    family_checks,
    is_involution,
    linear_circle_form,
    make_circle_form,
    make_twist,
    verify_cocycle,
    verify_weight_grading,
    weight_check,
)
from circleforms import acceptance, cli, forms
from circleforms.forms import CASE12_WEIGHTS

from reference_paths import conj, diagonal, inverse
from strategies import nonzero_gaussians, real_polys, structured_matrices

CROSS_EXPONENTS = range(3, 2 * cli.MAX_M + 2)


def sidon(count):
    """The first count terms of the greedy Sidon sequence from 0 (the
    Mian-Chowla sequence less 1): each term is the least integer whose sums
    with every earlier term and with itself are all new."""
    terms, sums = [], set()
    candidate = 0
    while len(terms) < count:
        new = {candidate + t for t in terms} | {2 * candidate}
        if not new & sums:
            terms.append(candidate)
            sums |= new
        candidate += 1
    return terms


K = sidon(17)


def generic_matrix(e, first):
    """The structured matrix of cross-exponent e whose entries are
    T^(K_j) + i*T^(K_(j+1)) for j = first, first + 2, ..., first + 6, with
    K_j = (e+1) * k_j."""
    def entry(j):
        return LaurentPoly({(e + 1) * K[j]: 1, (e + 1) * K[j + 1]: GaussianRational(0, 1)})

    return StructuredMatrix(e, *(entry(first + 2 * i) for i in range(4)))


def test_exponents_are_a_sidon_set():
    sums = [a + b for i, a in enumerate(K) for b in K[i:]]
    assert K[0] == 0 and len(set(sums)) == len(sums) == 17 * 18 // 2


@pytest.mark.parametrize("e", CROSS_EXPONENTS)
def test_expand_is_multiplicative(e):
    a, b = generic_matrix(e, 1), generic_matrix(e, 9)
    assert compose(expand(a), expand(b)) == expand(a * b)


@pytest.mark.parametrize("e", CROSS_EXPONENTS)
def test_mu0_conjugates_expand_into_gamma(e):
    mu0, m = linear_circle_form(), generic_matrix(e, 1)
    assert compose(mu0, compose(expand(m), mu0)) == expand(m.galois())


@pytest.mark.parametrize("e", CROSS_EXPONENTS)
def test_circle_form_squares_to_the_cocycle(e):
    m = generic_matrix(e, 1)
    mu = make_circle_form(m)
    assert compose(mu, mu) == expand(m * m.galois())


def test_expand_of_the_identity_only():
    assert expand(StructuredMatrix.identity(3)) == PolyMap.identity()
    for i in range(4):
        entries = [LaurentPoly.one(), LaurentPoly.zero(), LaurentPoly.zero(), LaurentPoly.one()]
        entries[i] = entries[i] + LaurentPoly.variable()
        assert expand(StructuredMatrix(3, *entries)) != PolyMap.identity()


# Structured matrices, their diagonal part (Q = S = 0, graded for every
# weight), family twists (cocycles) and constant diagonal cocycles
# diag(c, 1/conj(c)).
matrices = st.one_of(
    structured_matrices,
    structured_matrices.map(lambda m: StructuredMatrix(m.e, m.P, LaurentPoly.zero(),
                                                       LaurentPoly.zero(), m.R)),
    st.builds(lambda m, h: make_twist(FormSpec(m, h)), st.integers(1, 2), real_polys),
    st.builds(lambda e, c: diagonal(e, c, inverse(conj(c))),
              st.sampled_from((3, 4, 5)), nonzero_gaussians),
)


@st.composite
def graded_cases(draw):
    """A matrix and weights (k, -k, n, -n), n often with e*k = 2n."""
    twist = draw(matrices)
    k = draw(st.integers(-3, 4))
    n = draw(st.one_of(st.integers(-6, 9), st.just(twist.e * k // 2)))
    return twist, (k, -k, n, -n)


@settings(max_examples=200)
@given(graded_cases())
@example((StructuredMatrix.identity(3), (2, -2, 5, -5)))
@example((case12_twist(), CASE12_WEIGHTS))
def test_derived_checks_equal_the_computed_ones(case):
    twist, weights = case
    mu = make_circle_form(twist)
    assert verify_cocycle(twist) == is_involution(mu)
    assert verify_weight_grading(twist, weights) == weight_check(mu, weights)


@pytest.mark.parametrize("m", (1, 2, 3))
@pytest.mark.parametrize("coeffs", ((), (1,), (2, -1), (0, 3), (1, 1, -2)))
def test_family_checks_derive_what_mu_h_computes(m, coeffs):
    spec = FormSpec(m, LaurentPoly.from_coeffs(coeffs))
    checks = family_checks(spec)
    mu = make_circle_form(make_twist(spec))
    assert (checks["involution"], checks["weight_grading"]) == (True, True)
    assert (is_involution(mu), weight_check(mu, spec.weights())) == (True, True)


def test_verdicts_build_no_four_variable_map(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a four-variable map was built")

    monkeypatch.setattr(PolyMap, "__init__", refuse)
    monkeypatch.setattr(MultiPoly, "substitute", refuse)
    assert cli.main(["verify-form", "--m", "3", "--h", "1,-2,1/3"]) == 0
    assert cli.main(["case12"]) == 0
    assert cli.main(["verify-form", "--m", "1", "--h", "0"]) == 0


@pytest.mark.parametrize("target,name", [(forms, "verify_weight_grading"),
                                         (acceptance, "weight_check")],
                         ids=["derived", "computed"])
def test_release_gate_compares_derived_with_computed(monkeypatch, target, name):
    monkeypatch.setattr(target, name, lambda twist_or_mu, weights: False)
    passed, detail = acceptance.twist_family_suite()
    assert not passed
    assert detail.startswith("derived and computed differ at m=1, h=")
    assert detail.endswith(": weight_grading")
    passed, detail = acceptance.case12_suite()
    assert (passed, detail) == (False, "derived and computed differ: involution_relations")
