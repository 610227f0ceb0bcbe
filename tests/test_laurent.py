from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from circleforms import GaussianRational, LaurentPoly, geometric_sum

from reference_paths import monomial_parts, substitute_power
from strategies import (
    laurents,
    nonzero_laurents,
    nonzero_rationals,
    poly_laurents,
    real_polys,
)

T = LaurentPoly.variable()
one = LaurentPoly.one()


class TestArithmetic:
    def test_telescoping(self):
        # (1 - X)(1 + X + X^2) = 1 - X^3, the identity behind det = 1
        lhs = (one - T) * geometric_sum(T, 3)
        assert lhs == one - T ** 3

    def test_add_zero(self):
        p = LaurentPoly.from_coeffs([1, 2, 3])
        assert p + LaurentPoly.zero() == p

    def test_inverse_monomials(self):
        assert LaurentPoly.monomial(-1) * T == one

    @given(p=laurents, q=laurents, r=laurents)
    def test_ring_axioms(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert p * (q + r) == p * q + p * r
        assert p * q == q * p
        assert p - p == LaurentPoly.zero()

    @given(p=laurents, n=st.integers(0, 4))
    def test_pow_matches_repeated_mul(self, p, n):
        expected = one
        for _ in range(n):
            expected = expected * p
        assert p ** n == expected

    def test_negative_pow_rejected(self):
        with pytest.raises(ValueError):
            T ** -1


class TestGeometricSum:
    @pytest.mark.parametrize("count", [0, 1, 2, 3, 6])
    def test_value(self, count):
        base = one + T
        expected = LaurentPoly.zero()
        for j in range(count):
            expected = expected + base ** j
        assert geometric_sum(base, count) == expected

    @pytest.mark.parametrize("count", [0, 1, 2, 3, 6])
    def test_multiplies_count_minus_one_times(self, monkeypatch, count):
        # the powers base^0 .. base^(count-1) need count - 1 products; base^count is never formed
        calls = []
        mul = LaurentPoly.__mul__

        def counted(self, other):
            calls.append(None)
            return mul(self, other)

        monkeypatch.setattr(LaurentPoly, "__mul__", counted)
        geometric_sum(one + T, count)
        assert len(calls) == max(count - 1, 0)


class TestBar:
    def test_conjugates_coefficients(self):
        p = LaurentPoly.monomial(1, GaussianRational(1, 1))
        assert p.bar() == LaurentPoly.monomial(1, GaussianRational(1, -1))

    @given(p=laurents)
    def test_involution(self, p):
        assert p.bar().bar() == p

    @given(p=laurents)
    def test_fixed_iff_real(self, p):
        assert (p.bar() == p) == p.is_real

    @given(p=laurents, q=laurents)
    def test_multiplicative(self, p, q):
        assert (p * q).bar() == p.bar() * q.bar()


class TestValuationDegree:
    def test_example(self):
        p = LaurentPoly.monomial(-1) + LaurentPoly.monomial(2, 3)
        assert p.valuation() == -1
        assert p.degree() == 2

    def test_constant(self):
        c = LaurentPoly.constant(5)
        assert c.valuation() == 0
        assert c.degree() == 0

    def test_zero_has_neither(self):
        with pytest.raises(ValueError):
            LaurentPoly.zero().valuation()
        with pytest.raises(ValueError):
            LaurentPoly.zero().degree()

    @given(p=nonzero_laurents, q=nonzero_laurents)
    def test_valuation_additive(self, p, q):
        # Q(i)[T, T^-1] is an integral domain
        prod = p * q
        assert not prod.is_zero
        assert prod.valuation() == p.valuation() + q.valuation()
        assert prod.degree() == p.degree() + q.degree()


class TestTruncate:
    def test_examples(self):
        p = LaurentPoly.from_coeffs([1, 1, 0, 1])
        assert p.truncate_mod(2) == LaurentPoly.from_coeffs([1, 1])
        assert LaurentPoly.monomial(3).truncate_mod(3) == LaurentPoly.zero()
        small = LaurentPoly.from_coeffs([4, 5])
        assert small.truncate_mod(5) == small

    def test_rejects_laurent(self):
        with pytest.raises(ValueError):
            LaurentPoly.monomial(-1).truncate_mod(2)

    @given(p=poly_laurents, m=st.integers(1, 6))
    def test_idempotent(self, p, m):
        assert p.truncate_mod(m).truncate_mod(m) == p.truncate_mod(m)

    @given(p=poly_laurents, q=poly_laurents, m=st.integers(1, 6))
    def test_quotient_ring_homomorphism(self, p, q, m):
        direct = (p * q).truncate_mod(m)
        reduced = (p.truncate_mod(m) * q.truncate_mod(m)).truncate_mod(m)
        assert direct == reduced


class TestApplyScaling:
    def test_halving_example(self):
        assert LaurentPoly.from_coeffs([2, 8]).apply_scaling(Fraction(1, 2)) == \
            LaurentPoly.from_coeffs([1, 1])

    def test_identity_and_negation(self):
        h = LaurentPoly.from_coeffs([3, -2, 5])
        assert h.apply_scaling(1) == h
        assert h.apply_scaling(-1) == -h

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            LaurentPoly.one().apply_scaling(0)

    def test_non_real_rejected(self):
        with pytest.raises(ValueError):
            LaurentPoly.constant(GaussianRational(0, 1)).apply_scaling(2)

    @given(h=real_polys, r=nonzero_rationals, s=nonzero_rationals)
    def test_group_action(self, h, r, s):
        assert h.apply_scaling(s).apply_scaling(r) == h.apply_scaling(r * s)

    @given(h=real_polys, r=nonzero_rationals)
    def test_agrees_with_substitution(self, h, r):
        # r * h(r^2 T) computed by substitution instead of coefficientwise
        substituted = substitute_power(h, r * r) * LaurentPoly.constant(r)
        assert h.apply_scaling(r) == substituted


class TestPredicates:
    def test_examples(self):
        assert not (one + LaurentPoly.monomial(1, GaussianRational(0, 1))).is_real
        assert not LaurentPoly.monomial(-1).is_polynomial
        p = one + LaurentPoly.monomial(2, 3)
        assert p.coeff(2) == GaussianRational(3)
        assert p.coeff(7) == GaussianRational(0)

    def test_constant_flags(self):
        assert LaurentPoly.zero().is_constant
        assert LaurentPoly.constant(4).is_constant
        assert not T.is_constant

    def test_monomial_parts(self):
        # the single-term reader that the reference unit inverse rests on
        assert monomial_parts(LaurentPoly.monomial(-2, 5)) == (GaussianRational(5), -2)
        assert monomial_parts(one + T) is None


class TestJson:
    def test_polynomial_form_is_array(self):
        p = LaurentPoly.from_coeffs([1, 0, 2])
        assert p.to_json() == [{"re": "1"}, {"re": "0"}, {"re": "2"}]

    def test_laurent_form_has_valuation(self):
        p = LaurentPoly.monomial(-2) + T
        obj = p.to_json()
        assert obj["valuation"] == -2
        assert len(obj["coeffs"]) == 4

    def test_zero_is_empty_array(self):
        assert LaurentPoly.zero().to_json() == []
        assert LaurentPoly.from_json([]) == LaurentPoly.zero()

    @given(p=laurents)
    def test_round_trip(self, p):
        assert LaurentPoly.from_json(p.to_json()) == p
