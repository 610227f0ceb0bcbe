import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from circleforms import (
    FormSpec,
    GaussianRational,
    LaurentPoly,
    MultiPoly,
    StructuredMatrix,
    build_certificate,
    classify,
    decide_equiv,
    format_rational,
    linear_circle_form,
    make_invariants,
    parse_rational,
    rational_odd_root,
    search_conjugator,
    verify_certificate,
    verify_relation,
    weight_check,
)
from circleforms.equivalence import equivalence_key
from circleforms.gaussian import DigitLimitError, integer_kth_root, power
from circleforms.quotient import in_invariant_subring

from reference_paths import conj, inverse, neg
from strategies import gaussians, nonzero_gaussians, rationals

I = GaussianRational(0, 1)
ZERO = GaussianRational(0)
ONE = GaussianRational(1)


class TestArithmetic:
    def test_norm_identity(self):
        assert GaussianRational(1, 1) * GaussianRational(1, -1) == GaussianRational(2)

    def test_product_of_conjugate_halves(self):
        # ((1-i)/2) * ((1+i)/4) = (1-i)(1+i)/8 = 2/8 = 1/4
        lhs = GaussianRational(Fraction(1, 2), Fraction(-1, 2))
        rhs = GaussianRational(Fraction(1, 4), Fraction(1, 4))
        assert lhs * rhs == GaussianRational(Fraction(1, 4))

    def test_pow_takes_nonnegative_exponents(self):
        assert power(I, 0, ONE) == ONE and power(I, 2, ONE) == neg(ONE)
        with pytest.raises(ValueError):
            power(I, -1, ONE)

    def test_inverse_of_two(self):
        assert inverse(GaussianRational(2)) == GaussianRational(Fraction(1, 2))

    def test_division_by_zero_is_distinct_error(self):
        with pytest.raises(ZeroDivisionError):
            inverse(ZERO)

    @given(z1=gaussians, z2=gaussians, z3=gaussians)
    def test_field_axioms(self, z1, z2, z3):
        assert (z1 + z2) + z3 == z1 + (z2 + z3)
        assert (z1 * z2) * z3 == z1 * (z2 * z3)
        assert z1 * (z2 + z3) == z1 * z2 + z1 * z3
        assert z1 + neg(z1) == ZERO
        assert z1 * ONE == z1

    @given(z=nonzero_gaussians)
    def test_multiplicative_inverse(self, z):
        assert z * inverse(z) == ONE
        assert inverse(inverse(z)) == z

    @given(z1=gaussians, z2=nonzero_gaussians)
    def test_division_roundtrip(self, z1, z2):
        assert (z1 * inverse(z2)) * z2 == z1


class TestExactInputsOnly:
    """Every library entry point that takes a rational takes an int or a
    Fraction; a float, a string or a Decimal raises TypeError at once."""

    ENTRY_POINTS = {
        "GaussianRational.re": GaussianRational,
        "GaussianRational.im": lambda x: GaussianRational(1, x),
        "LaurentPoly.constant": LaurentPoly.constant,
        "LaurentPoly.from_coeffs": lambda x: LaurentPoly.from_coeffs([1, x]),
        "MultiPoly.constant": MultiPoly.constant,
        "apply_scaling": lambda x: LaurentPoly.one().apply_scaling(x),
        "build_certificate": lambda x: build_certificate(
            LaurentPoly.one(), LaurentPoly.one(), 1, x),
        "verify_certificate": lambda x: verify_certificate(
            LaurentPoly.one(), LaurentPoly.one(), 1, x, StructuredMatrix.identity(3)),
        "search_conjugator": lambda x: search_conjugator(
            LaurentPoly.one(), LaurentPoly.one(), 1, 0, [x]),
        "rational_odd_root": lambda x: rational_odd_root(x, 3),
        "format_rational": format_rational,
    }

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("value", [0.1, 1.0, "1", "1e2000000", Decimal("0.1")],
                             ids=["float", "integral-float", "str", "long-str", "Decimal"])
    def test_inexact_or_text_input_raises_type_error(self, entry, value):
        with pytest.raises(TypeError):
            self.ENTRY_POINTS[entry](value)

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("value", [1, Fraction(1)], ids=["int", "Fraction"])
    def test_int_and_fraction_accepted(self, entry, value):
        self.ENTRY_POINTS[entry](value)


ONE_PLUS_T = LaurentPoly.from_coeffs([1, 1])
ONE_PLUS_5T = LaurentPoly.from_coeffs([1, 5])


class TestIntegerParametersOnly:
    """Every exponent, cross-exponent e, valuation and family parameter m is
    read through operator.index: an int is taken, and a float, a string or a
    Fraction raises TypeError, integral or not, instead of being truncated
    (decide_equiv at m = 1.5 once kept T and answered inequivalent)."""

    ENTRY_POINTS = {
        "LaurentPoly exponent": lambda k: LaurentPoly({k: 1}),
        "LaurentPoly.monomial": LaurentPoly.monomial,
        "LaurentPoly.from_coeffs valuation": lambda k: LaurentPoly.from_coeffs([1, 2], valuation=k),
        "truncate_mod": lambda m: ONE_PLUS_T.truncate_mod(m),
        "MultiPoly exponent": lambda k: MultiPoly.monomial((k, 0, 0, 0)),
        "StructuredMatrix e": lambda e: StructuredMatrix(
            e, LaurentPoly.one(), LaurentPoly.zero(), LaurentPoly.zero(), LaurentPoly.one()),
        "weight_check weights": lambda k: weight_check(linear_circle_form(), (2 * k, -2, 3, -3)),
        "FormSpec m": lambda m: FormSpec(m, ONE_PLUS_T),
        "decide_equiv m": lambda m: decide_equiv(ONE_PLUS_T, ONE_PLUS_5T, m),
        "equivalence_key m": lambda m: equivalence_key(ONE_PLUS_T, m),
        "classify m": lambda m: classify([ONE_PLUS_T, ONE_PLUS_5T], m),
        "classify m, no forms": lambda m: classify([], m),
        "** exponent": lambda k: ONE_PLUS_T ** k,
        "rational_odd_root k": lambda k: rational_odd_root(8, k),
        "build_certificate m": lambda m: build_certificate(ONE_PLUS_T, ONE_PLUS_T, m, 1),
        "verify_certificate m": lambda m: verify_certificate(
            LaurentPoly.one(), LaurentPoly.one(), m, 1, StructuredMatrix.identity(3)),
        "search_conjugator m": lambda m: search_conjugator(
            LaurentPoly.one(), LaurentPoly.one(), m, 0, [1]),
        "make_invariants m": make_invariants,
        "verify_relation m": verify_relation,
        "in_invariant_subring m": lambda m: in_invariant_subring(MultiPoly.constant(1), m),
    }

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("value", [1.5, 1.0, "1", Fraction(3, 2), Fraction(1)],
                             ids=["float", "integral-float", "str", "Fraction", "integral-Fraction"])
    def test_non_integer_raises_type_error(self, entry, value):
        with pytest.raises(TypeError):
            self.ENTRY_POINTS[entry](value)

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_int_accepted(self, entry):
        self.ENTRY_POINTS[entry](1)

    def test_exponents_and_roots(self):
        for bad in (lambda: LaurentPoly.one() ** 1.5, lambda: LaurentPoly.one() ** Fraction(2),
                    lambda: rational_odd_root(8, 3.0)):
            with pytest.raises(TypeError):
                bad()
        # a negative integer keeps its ValueError, as an even k and a negative
        # exponent do (test_even_k_rejected, test_pow_takes_nonnegative_exponents)
        with pytest.raises(ValueError):
            rational_odd_root(8, -3)


class TestRecord:
    """A GaussianRational is the record (re, im) of two Fractions: equal
    values are equal records with equal hashes, however they were given."""

    def test_parts_are_fractions(self):
        z = GaussianRational(3, Fraction(-4, 2))
        assert type(z.re) is Fraction and type(z.im) is Fraction
        assert (z.re, z.im) == (3, -2)

    def test_equal_values_are_equal_records(self):
        assert GaussianRational(3) == GaussianRational(Fraction(6, 2))
        assert hash(GaussianRational(3)) == hash(GaussianRational(Fraction(6, 2)))
        assert GaussianRational(Fraction(1, 2)) != GaussianRational(0, Fraction(1, 2))

    def test_never_equal_to_a_plain_scalar(self):
        assert (GaussianRational(3) == 3) is False
        assert (GaussianRational(3) == Fraction(3)) is False

    def test_frozen(self):
        with pytest.raises(AttributeError):
            GaussianRational(1).re = Fraction(2)


class TestConjugation:
    """The tests' conj on one record agrees with the store's bar on the
    constant polynomial it makes."""

    def test_basic(self):
        assert conj(GaussianRational(1, 1)) == GaussianRational(1, -1)
        z = GaussianRational(Fraction(3, 5), Fraction(4, 5))
        assert conj(z) == GaussianRational(Fraction(3, 5), Fraction(-4, 5))
        assert LaurentPoly.constant(z).bar() == LaurentPoly.constant(conj(z))

    @given(z=gaussians)
    def test_involution(self, z):
        assert conj(conj(z)) == z
        assert LaurentPoly.constant(z).bar().bar() == LaurentPoly.constant(z)

    @given(z1=gaussians, z2=gaussians)
    def test_ring_automorphism(self, z1, z2):
        assert conj(z1 * z2) == conj(z1) * conj(z2)
        assert conj(z1 + z2) == conj(z1) + conj(z2)
        assert LaurentPoly.constant(z1 * z2).bar() == LaurentPoly.constant(conj(z1) * conj(z2))

    @given(z=gaussians)
    def test_is_real_iff_fixed(self, z):
        assert LaurentPoly.constant(z).is_real == (conj(z) == z)


class TestOddRoots:
    @pytest.mark.parametrize("q,k,expected", [
        (Fraction(1, 8), 3, Fraction(1, 2)),
        (Fraction(-27), 3, Fraction(-3)),
        (Fraction(0), 5, Fraction(0)),
        (Fraction(32, 243), 5, Fraction(2, 3)),
        (Fraction(7), 1, Fraction(7)),
    ])
    def test_exact_roots(self, q, k, expected):
        assert rational_odd_root(q, k) == expected

    def test_no_rational_cube_root_of_third(self):
        # brute scan: no integer pair (p, q) with small absolute value cubes to 1/3
        for p in range(-20, 21):
            for q in range(1, 21):
                assert Fraction(p, q) ** 3 != Fraction(1, 3)
        assert rational_odd_root(Fraction(1, 3), 3) is None

    def test_even_k_rejected(self):
        with pytest.raises(ValueError):
            rational_odd_root(Fraction(4), 2)

    @given(r=rationals, k=st.sampled_from([1, 3, 5, 7]))
    def test_root_of_power_recovers(self, r, k):
        assert rational_odd_root(r ** k, k) == r

    @given(q=rationals, k=st.sampled_from([1, 3, 5]))
    def test_result_powers_back(self, q, k):
        root = rational_odd_root(q, k)
        if root is not None:
            assert root ** k == q

    def test_integer_root_boundaries(self):
        assert integer_kth_root(0, 3) == 0
        assert integer_kth_root(1, 9) == 1
        assert integer_kth_root(2 ** 30, 3) == 2 ** 10
        assert integer_kth_root(2 ** 30 + 1, 3) is None
        big = 12345678901234567890123456789
        assert integer_kth_root(big ** 7, 7) == big


class TestText:
    @pytest.mark.parametrize("text", ["-3/4", "7", "0", "1/2"])
    def test_rational_round_trip(self, text):
        assert format_rational(parse_rational(text)) == text

    @given(sign=st.sampled_from(["", "-", "+"]), num=st.from_regex(r"[0-9]{0,4}", fullmatch=True),
           tail=st.sampled_from(["", "/7", "/0", "/1_0", ".", ".5", ".25", ".0_1", "e3", "E-2",
                                 ".5e+1", "e", "/", "/-2", "x", "e0", "E-0", ".5e+00",
                                 "e0_0"]),
           pad=st.sampled_from(["", " ", "\t"]))
    def test_parse_agrees_with_fraction(self, sign, num, tail, pad):
        text = pad + sign + num + tail + pad
        try:
            expected = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            with pytest.raises(type(exc)):
                parse_rational(text)
        else:
            assert parse_rational(text) == expected

    def test_parse_refuses_beyond_the_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        assert parse_rational("9" * limit) == 10 ** limit - 1
        assert parse_rational(f"1e{limit - 1}") == 10 ** (limit - 1)
        for text in ["9" * (limit + 1), "1/" + "9" * (limit + 1), f"1e{limit}",
                     f"1e-{limit}", "0." + "0" * limit, "1e" + "9" * (limit + 1)]:
            with pytest.raises(OverflowError, match=str(limit)):
                parse_rational(text)

    def test_parse_stays_bounded_with_the_limit_switched_off(self):
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            with pytest.raises(OverflowError):
                parse_rational("1e999999999")
        finally:
            sys.set_int_max_str_digits(saved)

    def test_format_refuses_beyond_the_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        assert format_rational(Fraction(1, 10 ** (limit - 1))) == "1/1" + "0" * (limit - 1)
        for q in (10 ** limit, Fraction(1, 10 ** limit)):
            with pytest.raises(DigitLimitError, match=str(limit)):
                format_rational(q)

    def test_json_omits_zero_im(self):
        assert GaussianRational(Fraction(1, 2)).to_json() == {"re": "1/2"}
        obj = GaussianRational(1, -2).to_json()
        assert obj == {"re": "1", "im": "-2"}

    @given(z=gaussians)
    def test_json_round_trip(self, z):
        assert GaussianRational.from_json(z.to_json()) == z

    def test_str_forms(self):
        assert str(GaussianRational(1, 1)) == "1+i"
        assert str(GaussianRational(0, -1)) == "-i"
        assert str(GaussianRational(Fraction(3, 5), Fraction(-4, 5))) == "3/5-4/5i"
