import dataclasses
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circleforms import (
    DecisionResult,
    FormSpec,
    GaussianRational,
    LaurentPoly,
    StructuredMatrix,
    build_certificate,
    classify,
    decide_equiv,
    make_splitting,
    make_twist,
    verify_certificate,
)
from circleforms import equivalence
from circleforms.acceptance import case_m2_conditions
from circleforms.equivalence import equivalence_key

from reference_paths import conjugates_by_inverse, decide_equiv_by_ratios, pairwise_classify
from strategies import nonzero_rationals, real_polys

T = LaurentPoly.variable()
one = LaurentPoly.one()
zero = LaurentPoly.zero()


def poly(*coeffs):
    return LaurentPoly.from_coeffs(coeffs)


class TestDecide:
    def test_result_is_the_verdict_and_the_witness(self):
        fields = [f.name for f in dataclasses.fields(DecisionResult)]
        assert fields == ["equivalent", "rational_witness"]

    def test_halving_pair(self):
        result = decide_equiv(poly(1, 1), poly(2, 8), 2)
        assert result.equivalent is True
        assert result.rational_witness == Fraction(1, 2)

    def test_linear_vs_twisted(self):
        result = decide_equiv(zero, one, 1)
        assert result.equivalent is False
        assert result.rational_witness is None

    def test_irrational_witness_case(self):
        result = decide_equiv(poly(0, 1), poly(0, 3), 2)
        assert result.equivalent
        assert result.rational_witness is None  # r^3 = 1/3 has no rational root

    def test_reflexive_with_unit_witness(self):
        h = poly(2, -3, 1)
        result = decide_equiv(h, h, 3)
        assert result.equivalent
        assert result.rational_witness == 1

    def test_empty_truncated_support(self):
        result = decide_equiv(LaurentPoly.monomial(2), LaurentPoly.monomial(3, 5), 2)
        assert result.equivalent
        assert result.rational_witness == 1

    def test_sign_flip_pair(self):
        result = decide_equiv(poly(0, 1), poly(0, -1), 2)
        assert result.equivalent
        assert result.rational_witness == -1

    def test_non_real_input_rejected(self):
        bad = LaurentPoly.constant(GaussianRational(0, 1))
        with pytest.raises(ValueError):
            decide_equiv(bad, one, 1)

    def test_laurent_input_rejected(self):
        with pytest.raises(ValueError):
            decide_equiv(LaurentPoly.monomial(-1), one, 1)

    def test_bad_m_rejected(self):
        with pytest.raises(ValueError):
            decide_equiv(one, one, 0)
        # classify checks m before grouping, so also with no forms
        with pytest.raises(ValueError):
            classify([], 0)
        with pytest.raises(TypeError):
            classify([], 1.5)

    @pytest.mark.parametrize("bad", [
        [1, 2],
        LaurentPoly.monomial(-1),
        LaurentPoly.constant(GaussianRational(0, 1)),
    ], ids=["not-laurent", "negative-exponent", "non-real"])
    def test_same_rejection_as_form_spec(self, bad):
        with pytest.raises(Exception) as from_spec:
            FormSpec(1, bad)
        with pytest.raises(Exception) as from_decide:
            decide_equiv(bad, one, 1)
        assert type(from_spec.value) is type(from_decide.value)
        assert str(from_spec.value) == str(from_decide.value)

    @given(h=real_polys, junk=real_polys, junk2=real_polys, m=st.integers(1, 3))
    @settings(max_examples=60)
    def test_truncation_coherence(self, h, junk, junk2, m):
        # verdict and witness depend only on the polynomials mod T^m
        tail = LaurentPoly.monomial(m) * junk
        tail2 = LaurentPoly.monomial(m) * junk2
        base = decide_equiv(h, h + tail2, m)
        bumped = decide_equiv(h + tail, h + tail2, m)
        assert base.equivalent and bumped.equivalent
        assert base.rational_witness == bumped.rational_witness

    @given(h=real_polys, r=nonzero_rationals, m=st.integers(1, 3))
    @settings(max_examples=60)
    def test_scaling_coherence(self, h, r, m):
        result = decide_equiv(h, h.apply_scaling(r), m)
        assert result.equivalent
        if not h.truncate_mod(m).is_zero:
            assert result.rational_witness == 1 / r

    @given(h=real_polys, h2=real_polys, m=st.integers(1, 3))
    @settings(max_examples=60)
    def test_symmetry(self, h, h2, m):
        fwd = decide_equiv(h, h2, m)
        bwd = decide_equiv(h2, h, m)
        assert fwd.equivalent == bwd.equivalent
        if fwd.equivalent and fwd.rational_witness and bwd.rational_witness:
            if not h.truncate_mod(m).is_zero:
                assert fwd.rational_witness * bwd.rational_witness == 1


class TestM2Conditions:
    @pytest.mark.parametrize("c,expected", [
        ((0, 0, 0, 0), True),
        ((0, 5, 0, -2), True),
        ((1, 0, 2, 0), True),
        ((1, 1, 2, 8), True),
        ((1, 1, 2, 7), False),
        ((0, 1, 1, 1), False),
        ((1, 1, 0, 0), False),
    ])
    def test_examples(self, c, expected):
        assert case_m2_conditions(*c) is expected

    def test_agreement_with_decision(self):
        values = [Fraction(v) for v in (-2, -1, 0, 1, 2)]
        for c0, c1, c0p, c1p in itertools.product(values, repeat=4):
            direct = case_m2_conditions(c0, c1, c0p, c1p)
            decided = decide_equiv(poly(c0, c1), poly(c0p, c1p), 2).equivalent
            assert direct == decided, (c0, c1, c0p, c1p)


class TestCertificates:
    def test_identity_certificate(self):
        conj = build_certificate(poly(1, 1), poly(2, 8), 2, Fraction(1, 2))
        assert conj == StructuredMatrix.identity(5)

    def test_monomial_target(self):
        conj = build_certificate(zero, LaurentPoly.monomial(2), 2, Fraction(1))
        assert conj == make_splitting(FormSpec(2, LaurentPoly.monomial(2)))
        assert conj.in_lambda()

    def test_nontrivial_tail(self):
        # forms differing only above T^m still get polynomial conjugators
        h = poly(1, 0, 0, 2)
        h2 = poly(1, 0, 5)
        conj = build_certificate(h, h2, 2, Fraction(1))
        assert conj.in_lambda()
        assert verify_certificate(h, h2, 2, Fraction(1), conj)

    def test_non_witness_rejected(self):
        with pytest.raises(ValueError):
            build_certificate(one, poly(3), 1, Fraction(2))

    @pytest.mark.parametrize("h,h2,m,r", [
        (poly(1, 1), poly(2, 8), 2, Fraction(1, 2)),
        (zero, LaurentPoly.monomial(2), 2, Fraction(1)),
        (poly(1, 0, 0, 2), poly(1, 0, 5), 2, Fraction(1)),
    ])
    def test_two_dets_per_certificate(self, monkeypatch, h, h2, m, r):
        # det N for both postconditions, and det K_h inside .inverse()
        calls = []
        original = StructuredMatrix.det

        def counted(matrix):
            calls.append(matrix)
            return original(matrix)

        monkeypatch.setattr(StructuredMatrix, "det", counted)
        conj = build_certificate(h, h2, m, r)
        assert len(calls) == 2
        assert calls[-1] is conj

    def test_zero_r_rejected(self):
        with pytest.raises(ValueError):
            build_certificate(one, one, 1, Fraction(0))

    def test_verify_rejects_tampered_matrix(self):
        h, h2 = poly(1, 1), poly(2, 8)
        r = Fraction(1, 2)
        conj = build_certificate(h, h2, 2, r)
        tampered = StructuredMatrix(conj.e, conj.P + T, conj.Q, conj.S, conj.R)
        assert not verify_certificate(h, h2, 2, r, tampered)
        # a unit of the wrong cross exponent (e = 3, while m = 2 needs 5)
        assert not verify_certificate(h, h2, 2, r, StructuredMatrix.identity(3))
        # 0 * M_h = M_h'' * gamma(0) holds, so only the Lambda check rejects it
        assert not verify_certificate(h, h2, 2, r, StructuredMatrix(5, zero, zero, zero, zero))

    def test_verify_rejects_wrong_r(self):
        h, h2 = poly(1, 1), poly(2, 8)
        conj = build_certificate(h, h2, 2, Fraction(1, 2))
        assert not verify_certificate(h, h2, 2, Fraction(1), conj)

    @given(h=real_polys, r=nonzero_rationals, m=st.integers(1, 2))
    @settings(max_examples=30)
    def test_scaled_pairs_certify(self, h, r, m):
        h2 = h.apply_scaling(r)
        witness = 1 / r
        conj = build_certificate(h, h2, m, witness)
        assert verify_certificate(h, h2, m, witness, conj)

    def test_soundness_reverification(self):
        h, h2, m = poly(0, 2), poly(0, 2, 7), 2
        r = decide_equiv(h, h2, m).rational_witness
        assert r is not None
        conj = build_certificate(h, h2, m, r)
        target = make_twist(FormSpec(m, h2.apply_scaling(r)))
        assert conjugates_by_inverse(conj, make_twist(FormSpec(m, h)), target)


class TestClassify:
    def test_ten_singletons(self):
        forms = [poly(1, c) for c in range(1, 11)]
        assert classify(forms, 2) == [[i] for i in range(10)]

    def test_mixed_partition(self):
        forms = [zero, poly(0, 1), LaurentPoly.monomial(2), poly(0, 2)]
        assert classify(forms, 2) == [[0, 2], [1, 3]]

    def test_singleton_input(self):
        assert classify([poly(4)], 1) == [[0]]

    def test_scaled_family_collapses(self):
        base = poly(1, 2)
        forms = [base, base.apply_scaling(2), base.apply_scaling(Fraction(-1, 3))]
        assert classify(forms, 2) == [[0, 1, 2]]


def _tail(m, junk):
    return LaurentPoly.monomial(m) * junk


@st.composite
def scaling_orbits(draw):
    """(forms, m): members r*h(r^2 T) + T^m*tail of a few base forms, each
    with a fresh tail, in shuffled order."""
    m = draw(st.integers(1, 3))
    bases = draw(st.lists(real_polys, min_size=1, max_size=3))
    forms = [base.apply_scaling(draw(nonzero_rationals)) + _tail(m, draw(real_polys))
             for base in bases for _ in range(draw(st.integers(1, 3)))]
    return draw(st.permutations(forms)), m


@st.composite
def real_only_forms(draw):
    """(forms, m): c*T^p and q*c*T^p with q not a rational (2p+1)-th power,
    so the pair is equivalent over the reals only, plus tails."""
    m = draw(st.integers(2, 3))
    p = draw(st.integers(1, m - 1))
    c = draw(nonzero_rationals)
    q = draw(st.sampled_from([Fraction(2), Fraction(-3), Fraction(1, 5), Fraction(7, 4)]))
    forms = [LaurentPoly.monomial(p, c) + _tail(m, draw(real_polys)),
             LaurentPoly.monomial(p, q * c) + _tail(m, draw(real_polys)),
             draw(real_polys)]
    return draw(st.permutations(forms)), m


@st.composite
def zero_support_forms(draw):
    """(forms, m): forms that vanish mod T^m, mixed with arbitrary ones."""
    m = draw(st.integers(1, 3))
    forms = [_tail(m, draw(real_polys)) for _ in range(draw(st.integers(1, 3)))]
    forms += draw(st.lists(real_polys, max_size=3))
    return draw(st.permutations(forms)), m


arbitrary_forms = st.tuples(st.lists(real_polys, max_size=6), st.integers(1, 3))


@st.composite
def decision_pairs(draw):
    """([h, h2], m) for m in 1..8 and forms up to degree 7: arbitrary pairs,
    and scaled pairs r*h(r^2 T) + T^m*tail."""
    m = draw(st.integers(1, 8))
    long_polys = st.builds(lambda a, b: a + LaurentPoly.monomial(4) * b, real_polys, real_polys)
    h = draw(long_polys)
    if draw(st.booleans()):
        h2 = draw(long_polys)
    else:
        h2 = h.apply_scaling(draw(nonzero_rationals)) + _tail(m, draw(real_polys))
    return [h, h2], m


class TestDecideAgainstRatios:
    """decide_equiv compares equivalence_key; the ratio loop of
    ``reference_paths`` is the reference."""

    @pytest.mark.parametrize("strategy", [decision_pairs(), scaling_orbits(), real_only_forms(),
                                          zero_support_forms()],
                             ids=["real-polys", "scaling-orbits", "real-only", "zero-support"])
    @settings(max_examples=100)
    @given(data=st.data())
    def test_same_verdict_and_witness(self, strategy, data):
        forms, m = data.draw(strategy)
        for h, h2 in itertools.product(forms, repeat=2):
            assert decide_equiv(h, h2, m) == decide_equiv_by_ratios(h, h2, m)

    def test_decision_errors_match(self):
        for args in [(one, one, 0), (one, one, 1.5), ([1], one, 1), (one, LaurentPoly.monomial(-1), 1),
                     (LaurentPoly.constant(GaussianRational(0, 1)), one, 1)]:
            with pytest.raises(Exception) as ours:
                decide_equiv(*args)
            with pytest.raises(Exception) as reference:
                decide_equiv_by_ratios(*args)
            assert type(ours.value) is type(reference.value)
            assert str(ours.value) == str(reference.value)


class TestClassifyAgainstPairwise:
    """classify groups by equivalence_key; the pairwise union-find of
    ``reference_paths`` is the reference."""

    @pytest.mark.parametrize("strategy", [scaling_orbits(), real_only_forms(),
                                          zero_support_forms(), arbitrary_forms],
                             ids=["scaling-orbits", "real-only", "zero-support", "real-polys"])
    @settings(max_examples=60)
    @given(data=st.data())
    def test_same_partition(self, strategy, data):
        forms, m = data.draw(strategy)
        assert classify(forms, m) == pairwise_classify(forms, m)

    @given(pair=st.one_of(st.tuples(real_polys, real_polys),
                          st.tuples(real_polys, nonzero_rationals, real_polys).map(
                              lambda t: (t[0], t[0].apply_scaling(t[1]) + _tail(3, t[2])))),
           m=st.integers(1, 3))
    @settings(max_examples=200)
    def test_key_equality_is_the_verdict(self, pair, m):
        h, h2 = pair
        same_key = equivalence_key(h, m) == equivalence_key(h2, m)
        assert same_key == decide_equiv_by_ratios(h, h2, m).equivalent

    def test_key_is_the_support_and_the_ratios_at_the_least_exponent(self):
        # S = (0, 2), p = 0: c_0^1 / c_0^1 and c_2^1 / c_0^5
        assert equivalence_key(poly(2, 0, 3, 9), 3) == ((0, 2), (1, Fraction(3, 32)))
        assert equivalence_key(poly(0, 2, 0, 5), 4) == ((1, 3), (1, Fraction(5 ** 3, 2 ** 7)))
        assert equivalence_key(poly(0, 0, 4), 2) == ((), ())

    def test_classify_decides_no_pair(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("classify called decide_equiv")

        monkeypatch.setattr(equivalence, "decide_equiv", refuse)
        assert classify([poly(1, 1), poly(2, 8), poly(1, 2)], 2) == [[0, 1], [2]]

    def test_real_only_pair_shares_a_key(self):
        assert equivalence_key(poly(0, 1), 2) == equivalence_key(poly(0, 3), 2)

    def test_key_rejects_bad_input(self):
        with pytest.raises(ValueError):
            equivalence_key(one, 0)
        with pytest.raises(ValueError):
            equivalence_key(LaurentPoly.constant(GaussianRational(0, 1)), 1)


class TestClassifyGuard:
    """A key that merges or splits a class makes classify disagree with the
    pairwise reference, so the differential test above would catch it."""

    def test_key_that_merges_classes_is_caught(self, monkeypatch):
        forms = [zero, one]
        monkeypatch.setattr(equivalence, "equivalence_key", lambda h, m: ())
        assert classify(forms, 1) == [[0, 1]] != pairwise_classify(forms, 1)

    def test_key_that_splits_a_class_is_caught(self, monkeypatch):
        forms = [poly(1, 1), poly(2, 8)]
        monkeypatch.setattr(equivalence, "equivalence_key", lambda h, m: id(h))
        assert classify(forms, 2) == [[0], [1]] != pairwise_classify(forms, 2)
