import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circleforms import (
    FormSpec,
    GaussianRational,
    LaurentPoly,
    StructuredMatrix,
    case12_checks,
    case12_conjugator,
    case12_twist,
    compose,
    expand,
    family_checks,
    is_involution,
    linear_circle_form,
    make_circle_form,
    make_splitting,
    make_twist,
    verify_bundle_involution,
    verify_cocycle,
    verify_splitting,
    weight_check,
)
from circleforms import cli, forms
from circleforms.forms import CASE12_WEIGHTS, splitting_entries

from reference_paths import (
    base_rescale,
    coordinate_swap,
    diagonal,
    holomorphic_weight_check,
    product_splitting_entries,
    product_twist,
    swap,
)
from strategies import (
    bundle_involutions,
    lambda_matrices,
    laurents,
    nonzero_gaussians,
    nonzero_real_gaussians,
    real_polys,
    real_small_polys,
    structured,
    structured_matrices,
)

T = LaurentPoly.variable()
one = LaurentPoly.one()
zero = LaurentPoly.zero()

# Ground-truth serialized matrices, frozen by hand from the defining
# formulas.  Constructor regressions show up as diffs against these rather
# than against freshly regenerated values.
FROZEN_TWIST_M1_H1 = {
    "e": 3,
    "P": [{"re": "1"}, {"re": "-1"}],
    "Q": [{"re": "1"}],
    "S": [{"re": "-1"}],
    "R": [{"re": "1"}, {"re": "1"}, {"re": "1"}],
}
FROZEN_CASE12_TWIST = {
    "e": 4,
    "P": [{"re": "1"}, {"re": "-1"}],
    "Q": [{"re": "1"}],
    "S": [{"re": "-1"}],
    "R": [{"re": "1"}, {"re": "1"}, {"re": "1"}, {"re": "1"}],
}
FROZEN_CASE12_CONJUGATOR = {
    "e": 4,
    "P": [{"re": "1"}, {"im": "1/2", "re": "-1/2"}, {"im": "-1/4", "re": "-1/4"}],
    "Q": [{"im": "-1/4", "re": "1/4"}],
    "S": [{"im": "1/4", "re": "-3/4"}, {"im": "-1/4", "re": "-1/4"}],
    "R": [{"re": "1"}, {"im": "-1/2", "re": "1/2"}, {"im": "-1/4", "re": "1/4"},
          {"im": "-1/4", "re": "1/4"}],
}


class TestFormSpec:
    def test_n_is_odd(self):
        assert FormSpec(1, one).n == 3
        assert FormSpec(3, one).n == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            FormSpec(0, one)
        with pytest.raises(ValueError):
            FormSpec(1, LaurentPoly.monomial(-1))
        with pytest.raises(ValueError):
            FormSpec(1, LaurentPoly.constant(GaussianRational(0, 1)))


class TestTwistConstructor:
    def test_zero_gives_identity(self):
        for m in (1, 2, 3):
            assert make_twist(FormSpec(m, zero)) == StructuredMatrix.identity(2 * m + 1)

    def test_frozen_vector_m1_h1(self):
        assert make_twist(FormSpec(1, one)).to_json() == FROZEN_TWIST_M1_H1

    def test_h_equals_t_m2(self):
        twist = make_twist(FormSpec(2, T))
        assert twist.P == one - T ** 3
        assert twist.Q == LaurentPoly.monomial(5)
        assert twist.S == -LaurentPoly.monomial(5)
        assert twist.R == sum((T ** (3 * j) for j in range(5)), zero)

    def test_membership(self):
        assert make_twist(FormSpec(2, one + T)).in_lambda()

    def test_galois_formula_for_real_h(self):
        spec = FormSpec(1, one + T)
        twist = make_twist(spec)
        twisted = twist.galois()
        assert twisted.P == twist.R
        assert twisted.Q == twist.S
        assert twisted.S == twist.Q
        assert twisted.R == twist.P

    def test_base_rescale_matches_coefficient_scaling(self):
        # substituting (a, b) -> (ra, rb) in the twist of h' equals the
        # twist of r * h'(r^2 T); this is what reduces equivalence checks
        # to the coefficientwise scaling rule
        for m, coeffs, r in [(1, [1], Fraction(2)), (2, [1, 2], Fraction(-1, 2)),
                             (1, [0, 3], Fraction(1, 3))]:
            h = LaurentPoly.from_coeffs(coeffs)
            lhs = base_rescale(make_twist(FormSpec(m, h)), r)
            rhs = make_twist(FormSpec(m, h.apply_scaling(r)))
            assert lhs == rhs


class TestSplittingConstructor:
    def test_zero_gives_identity(self):
        assert make_splitting(FormSpec(2, zero)) == StructuredMatrix.identity(5)

    def test_m1_h1_entries(self):
        split = make_splitting(FormSpec(1, one))
        assert split.P == one
        assert split.Q == LaurentPoly.monomial(-1)
        assert split.S == LaurentPoly.monomial(-1)
        assert split.R == one + T

    def test_laurent_membership(self):
        # K_h is Laurent with det 1: a unit outside the polynomial group
        split = make_splitting(FormSpec(2, one + T))
        assert not split.in_lambda()
        assert split.det() == one

    def test_det_is_one_on_samples(self):
        for m, coeffs in [(1, [1]), (2, [1, 2]), (3, [0, 1, 0, 2])]:
            assert make_splitting(FormSpec(m, LaurentPoly.from_coeffs(coeffs))).det() == one

    def test_entry_shapes(self):
        m = 2
        h = LaurentPoly.from_coeffs([1, 1])
        q, s, r = splitting_entries(FormSpec(m, h))
        th2 = T * h * h
        assert q * LaurentPoly.monomial(m) == h
        assert s * LaurentPoly.monomial(m) == h * (one + th2)
        assert r == one + th2 + th2 ** 2


# Real h for the packed constructors: the shared small rationals (zero,
# constants and negative constants among them), and 30-digit numerators
# and denominators, whose widths are far from the small ones.
wide_rationals = st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 30))
FAMILY_POLYS = st.one_of(real_polys, st.lists(wide_rationals, max_size=4).map(LaurentPoly.from_coeffs))


def same_twist_and_splitting(m, h):
    spec = FormSpec(m, h)
    assert make_twist(spec) == product_twist(spec.n, h)
    assert splitting_entries(spec) == product_splitting_entries(spec)


class TestPackedConstructors:
    """make_twist and splitting_entries, one packing of h each at the width
    of the laurent docstring, against the Laurent-product references."""

    @given(m=st.integers(1, 8), h=FAMILY_POLYS)
    @settings(max_examples=150)
    def test_equal_to_products(self, m, h):
        same_twist_and_splitting(m, h)

    def test_minus_one_half_at_m1(self):
        # x = T/4, so D = 4 and the splitting's sum below m has one term
        h = LaurentPoly.constant(Fraction(-1, 2))
        same_twist_and_splitting(1, h)
        quarter = LaurentPoly.monomial(1, Fraction(1, 4))
        twist = make_twist(FormSpec(1, h))
        assert twist.P == one - quarter
        assert twist.Q == LaurentPoly.constant(Fraction(-1, 8)) == -twist.S
        assert twist.R == one + quarter + quarter * quarter
        q, s, r = splitting_entries(FormSpec(1, h))
        assert q == s == LaurentPoly.monomial(-1, Fraction(-1, 2))
        assert r == one + quarter

    def test_zero(self):
        for m in range(1, 9):
            same_twist_and_splitting(m, zero)
            assert splitting_entries(FormSpec(m, zero)) == (zero, zero, one)

    def test_case12(self):
        assert case12_twist() == product_twist(4, one)

    def test_digit_cap(self):
        # 10^4299 is the widest coefficient the command line reads
        big = 10 ** 4299
        same_twist_and_splitting(2, LaurentPoly.from_coeffs([big, big]))

    def test_no_laurent_product(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a Laurent product was formed")

        monkeypatch.setattr(LaurentPoly, "__mul__", refuse)
        monkeypatch.setattr(LaurentPoly, "__pow__", refuse)
        spec = FormSpec(3, LaurentPoly.from_coeffs([1, Fraction(-2, 3), 5]))
        make_twist(spec)
        splitting_entries(spec)
        case12_twist()


class TestFamilyChecks:
    def test_det_of_the_twist_is_read_once(self, monkeypatch):
        dets = []
        det = StructuredMatrix.det

        def counted(matrix):
            dets.append(matrix.Q.is_polynomial)
            return det(matrix)

        monkeypatch.setattr(StructuredMatrix, "det", counted)
        checks = family_checks(FormSpec(2, LaurentPoly.from_coeffs([1, -2, 3])))
        assert all(checks.values())
        assert list(checks) == ["det_is_one", "cocycle", "splitting", "involution",
                                "weight_grading"]
        # one det of M_h (in the bundle check) and one of K_h
        assert sorted(dets) == [False, True]


class TestCocycle:
    def test_identity(self):
        assert verify_cocycle(StructuredMatrix.identity(3))

    def test_family_members(self):
        assert verify_cocycle(make_twist(FormSpec(1, one)))
        assert verify_cocycle(make_twist(FormSpec(2, LaurentPoly.from_coeffs([1, -2, 3]))))

    def test_scaling_matrix_fails(self):
        m = StructuredMatrix(3, LaurentPoly.constant(2), zero, zero, one)
        assert not verify_cocycle(m)


def product_is_identity(m):
    """M * swap(M) == I and swap(M) * M == I, as two structured products."""
    ident = StructuredMatrix.identity(m.e)
    return m * swap(m) == ident and swap(m) * m == ident


def scaled(m, c):
    """c * M: S = -Q is kept, det M is multiplied by c^2."""
    return diagonal(m.e, c, c) * m


E_VALUES = st.sampled_from((3, 4, 5))
# det 1, mostly S != -Q: products of elementary factors
SPECIAL_LINEAR = E_VALUES.flatmap(lambda e: lambda_matrices(e, units=st.just(GaussianRational(1))))
POLYNOMIAL_MATRICES = st.one_of(
    structured_matrices,
    bundle_involutions(),
    st.builds(scaled, bundle_involutions(), nonzero_gaussians),
    SPECIAL_LINEAR,
)
REAL_INVOLUTIONS = bundle_involutions(polys=real_small_polys, units=nonzero_real_gaussians)
REAL_POLYNOMIAL_MATRICES = st.one_of(
    structured(entry_strategy=real_small_polys),
    REAL_INVOLUTIONS,
    st.builds(scaled, REAL_INVOLUTIONS, nonzero_real_gaussians),
    E_VALUES.flatmap(lambda e: lambda_matrices(e, real_small_polys, st.just(GaussianRational(1)))),
)


class TestBundleInvolution:
    """verify_bundle_involution's closed form S == -Q and det M == 1 against
    the two products M * swap(M) and swap(M) * M, and against verify_cocycle
    where swap(M) = gamma(M)."""

    @given(m=POLYNOMIAL_MATRICES)
    @settings(max_examples=200)
    def test_closed_form_is_the_product(self, m):
        assert verify_bundle_involution(m) == product_is_identity(m)

    @given(m=REAL_POLYNOMIAL_MATRICES)
    @settings(max_examples=200)
    def test_closed_form_is_the_cocycle_on_real_matrices(self, m):
        assert verify_bundle_involution(m) == verify_cocycle(m)

    @given(m=st.one_of(bundle_involutions(), REAL_INVOLUTIONS))
    @settings(max_examples=50)
    def test_involutions_are_drawn(self, m):
        assert product_is_identity(m)
        assert verify_bundle_involution(m)

    @given(m=structured(entry_strategy=laurents).filter(lambda m: not m.is_polynomial))
    @settings(max_examples=100)
    def test_laurent_matrices_get_false(self, m):
        assert not verify_bundle_involution(m)

    def test_laurent_involutions_get_false(self):
        t2 = LaurentPoly.monomial(-2)
        # M * swap(M) = I, though S != -Q: the equivalence needs polynomials
        outside = StructuredMatrix(4, zero, t2, t2, zero)
        # S = -Q and det 1, but Laurent
        inside = StructuredMatrix(4, zero, t2, -t2, one)
        for m in (outside, inside):
            assert product_is_identity(m) and verify_cocycle(m)
            assert not verify_bundle_involution(m)

    def test_family_and_case12_twists(self):
        for m in (make_twist(FormSpec(3, LaurentPoly.from_coeffs([1, -2]))), case12_twist(),
                  StructuredMatrix.identity(5)):
            assert verify_bundle_involution(m)
        assert not verify_bundle_involution(StructuredMatrix(3, LaurentPoly.constant(2),
                                                             zero, zero, one))
        assert not verify_bundle_involution(case12_conjugator())


def check_splitting(spec):
    return verify_splitting(make_twist(spec), make_splitting(spec))


class TestSplittingIdentity:
    def test_trivial(self):
        assert check_splitting(FormSpec(1, zero))

    def test_m1_h1(self):
        assert check_splitting(FormSpec(1, one))

    def test_deeper_case(self):
        assert check_splitting(FormSpec(3, LaurentPoly.from_coeffs([1, 2])))

    def test_grid(self):
        for m in (1, 2):
            for coeffs in itertools.product((-1, 0, 1), repeat=2):
                assert check_splitting(FormSpec(m, LaurentPoly.from_coeffs(coeffs)))


class TestCircleForms:
    def test_mu0_involution(self):
        assert is_involution(linear_circle_form())

    def test_weight_compat_samples(self):
        for m, coeffs in [(1, [1]), (2, [2, -1]), (1, [0, 3])]:
            spec = FormSpec(m, LaurentPoly.from_coeffs(coeffs))
            mu = make_circle_form(make_twist(spec))
            assert is_involution(mu)
            assert weight_check(mu, spec.weights())

    def test_family_checks_in_display_order(self):
        checks = family_checks(FormSpec(2, LaurentPoly.from_coeffs([1, -1])))
        assert list(checks) == ["det_is_one", "cocycle", "splitting", "involution",
                                "weight_grading"]
        assert all(checks.values())

    def test_coherence_with_matrix_route(self):
        # the expanded route and the matrix cocycle agree on involutivity
        spec = FormSpec(2, LaurentPoly.from_coeffs([1, 1]))
        twist = make_twist(spec)
        assert verify_cocycle(twist) == is_involution(make_circle_form(twist))


class TestIntegralCoefficients:
    """h = 1 + 2T + 3T^2 written with ints, with Fraction(n, 1) or with the
    command-line tokens 2/2, 1e0 and 3.0 is one h: same checks, same twist,
    same verify-form --json bytes."""

    SPELLINGS = ([1, 2, 3], [Fraction(1), Fraction(2, 1), Fraction(6, 2)])
    TOKENS = ("1,2,3", "2/2,4/2,3.0", "1e0,2,3e0")

    def test_family_checks_agree(self):
        specs = [FormSpec(2, LaurentPoly.from_coeffs(h)) for h in self.SPELLINGS]
        specs += [FormSpec(2, cli.parse_poly(tokens)) for tokens in self.TOKENS]
        checks = [family_checks(spec) for spec in specs]
        assert all(checks[0].values())
        assert all(c == checks[0] for c in checks)
        twists = [make_twist(spec) for spec in specs]
        assert all(t.to_json() == twists[0].to_json() for t in twists)
        for twist in twists:
            for entry in twist.entries():
                for _, c in entry.items():
                    assert c.re.denominator == 1 and c.im.denominator == 1

    def test_verify_form_json_bytes_agree(self, capsys):
        outputs = []
        for tokens in self.TOKENS:
            code = cli.main(["verify-form", "--m", "2", "--h", tokens, "--json"])
            outputs.append((code, *capsys.readouterr()))
        assert outputs[0][0] == 0
        assert outputs == [outputs[0]] * len(self.TOKENS)


class TestCase12:
    def test_frozen_twist(self):
        assert case12_twist().to_json() == FROZEN_CASE12_TWIST

    def test_twist_is_the_literal_matrix(self):
        assert case12_twist() == StructuredMatrix(4, one - T, one, -one,
                                                  one + T + T ** 2 + T ** 3)

    def test_frozen_conjugator(self):
        assert case12_conjugator().to_json() == FROZEN_CASE12_CONJUGATOR

    def test_conjugator_denominators(self):
        denominators = set()
        for entry in case12_conjugator().entries():
            for _, c in entry.items():
                denominators.add(Fraction(c.re).denominator)
                denominators.add(Fraction(c.im).denominator)
        assert denominators <= {1, 2, 4}

    def test_bundle_conditions(self):
        assert verify_bundle_involution(case12_twist())
        assert verify_cocycle(case12_twist())  # real entries: twist == swap-twin

    def test_involution_relations(self):
        twist = case12_twist()
        mu = make_circle_form(twist)
        assert mu.images == compose(expand(twist), coordinate_swap()).images
        assert is_involution(mu)
        assert weight_check(mu, CASE12_WEIGHTS)

    def test_linearization(self):
        assert case12_checks()["linearization"]

    def test_checks_in_display_order(self):
        checks = case12_checks()
        assert list(checks) == ["linearization", "bundle_conditions",
                                "involution_relations", "conjugator_not_real"]
        assert all(checks.values())

    def test_zero_conjugator_fails_linearization(self, monkeypatch):
        # 0 * I = Phi * gamma(0) holds, so only the Lambda check rejects it
        monkeypatch.setattr(forms, "case12_conjugator",
                            lambda: StructuredMatrix(4, zero, zero, zero, zero))
        checks = case12_checks()
        assert not checks["linearization"]
        assert checks["bundle_conditions"] and checks["involution_relations"]

    def test_conjugator_is_not_real(self):
        conj = case12_conjugator()
        assert conj.galois() != conj

    def test_conjugator_det_one(self):
        assert case12_conjugator().det() == one

    def test_twist_is_equivariant(self):
        assert holomorphic_weight_check(expand(case12_twist()), CASE12_WEIGHTS)
