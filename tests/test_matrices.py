import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circleforms import FormSpec, GaussianRational, LaurentPoly, StructuredMatrix, make_splitting
from circleforms.acceptance import GRID_MS, GRID_VALUES

from reference_paths import (
    base_rescale,
    conj,
    diagonal,
    fixed_point_shape,
    inverse,
    monomial_parts,
    substitute_power,
    unit_inverse,
)
from strategies import gaussians, laurents, nonzero_gaussians, nonzero_rationals, structured_matrices

T = LaurentPoly.variable()
one = LaurentPoly.one()
zero = LaurentPoly.zero()


def lambda_elements(e_values=(3, 5)):
    """Random members of the polynomial group, built from elementary
    generators (unipotent triangulars and invertible diagonals)."""

    def build(e, choices):
        m = StructuredMatrix.identity(e)
        for kind, data in choices:
            if kind == "upper":
                gen = StructuredMatrix(e, one, data, zero, one)
            elif kind == "lower":
                gen = StructuredMatrix(e, one, zero, data, one)
            else:
                a, b = data
                gen = StructuredMatrix(e, LaurentPoly.constant(a), zero, zero,
                                       LaurentPoly.constant(b))
            m = m * gen
        return m

    poly_entries = st.dictionaries(st.integers(0, 3), gaussians, max_size=2).map(LaurentPoly)
    gen_choice = st.one_of(
        st.tuples(st.just("upper"), poly_entries),
        st.tuples(st.just("lower"), poly_entries),
        st.tuples(st.just("diag"), st.tuples(nonzero_gaussians, nonzero_gaussians)),
    )
    return st.builds(build, st.sampled_from(e_values), st.lists(gen_choice, min_size=1, max_size=3))


def lambda_element_pairs(e_values=(3, 5)):
    """Two independent polynomial-group members sharing one cross-exponent."""
    return st.sampled_from(e_values).flatmap(
        lambda e: st.tuples(lambda_elements((e,)), lambda_elements((e,))))


class TestProductAndInverse:
    def test_identity_neutral(self):
        m = StructuredMatrix(3, one - T, one, -one, one + T)
        ident = StructuredMatrix.identity(3)
        assert m * ident == m
        assert ident * m == m

    def test_cross_exponent_mismatch_rejected(self):
        with pytest.raises(ValueError):
            StructuredMatrix.identity(3) * StructuredMatrix.identity(5)

    @given(m=lambda_elements())
    @settings(max_examples=40)
    def test_inverse_roundtrip(self, m):
        ident = StructuredMatrix.identity(m.e)
        assert m * unit_inverse(m) == ident
        assert unit_inverse(m) * m == ident

    def test_inverse_of_diagonal(self):
        alpha = GaussianRational(2, 1)
        m = diagonal(3, alpha, conj(alpha))
        inv = unit_inverse(m)
        assert inv == diagonal(3, inverse(alpha), inverse(conj(alpha)))

    def test_non_unit_determinant_rejected(self):
        m = StructuredMatrix(3, one + T, zero, zero, one)
        with pytest.raises(ValueError):
            m.inverse()
        with pytest.raises(ValueError):
            unit_inverse(m)

    @pytest.mark.parametrize("m", [
        diagonal(3, 2, 1),  # a constant det other than 1
        StructuredMatrix(3, T, zero, zero, T),  # T * I, det T^2
    ], ids=["det-2-diagonal", "T-identity"])
    def test_inverse_requires_det_one(self, m):
        assert unit_inverse(m) is not None
        with pytest.raises(ValueError):
            m.inverse()

    def test_inverse_of_splittings_matches_reference(self):
        # K_h over the twist-family grid, with h of degree at most 2
        for m, coeffs in itertools.product(GRID_MS, itertools.product(GRID_VALUES, repeat=3)):
            k = make_splitting(FormSpec(m, LaurentPoly.from_coeffs(coeffs)))
            inv = k.inverse()
            assert inv == unit_inverse(k)
            assert k * inv == StructuredMatrix.identity(k.e)

    @given(pair=lambda_element_pairs())
    @settings(max_examples=40)
    def test_inverse_of_det_one_products_matches_reference(self, pair):
        m1, m2 = pair
        prod = m1 * m2
        # scale the first column so the product has det 1
        c = monomial_parts(prod.det())[0]
        prod = prod * diagonal(prod.e, inverse(c), 1)
        assert prod.det() == one
        assert prod.inverse() == unit_inverse(prod)
        assert prod * prod.inverse() == StructuredMatrix.identity(prod.e)

    @given(m1=structured_matrices, m2=structured_matrices)
    @settings(max_examples=40)
    def test_det_multiplicative(self, m1, m2):
        m2 = StructuredMatrix(m1.e, m2.P, m2.Q, m2.S, m2.R)
        assert (m1 * m2).det() == m1.det() * m2.det()


class TestDet:
    def test_identity(self):
        assert StructuredMatrix.identity(4).det() == one

    def test_antidiagonal(self):
        m = StructuredMatrix(3, zero, one, one, zero)
        assert m.det() == -LaurentPoly.monomial(3)


class TestGalois:
    def test_identity_fixed(self):
        ident = StructuredMatrix.identity(5)
        assert ident.galois() == ident

    @given(m=structured_matrices)
    def test_involution(self, m):
        assert m.galois().galois() == m

    @given(m1=structured_matrices, m2=structured_matrices)
    @settings(max_examples=40)
    def test_group_automorphism(self, m1, m2):
        m2 = StructuredMatrix(m1.e, m2.P, m2.Q, m2.S, m2.R)
        assert (m1 * m2).galois() == m1.galois() * m2.galois()

    @given(m=structured_matrices)
    def test_det_conjugates(self, m):
        assert m.galois().det() == m.det().bar()


class TestBaseRescale:
    """The (a, b) -> (ra, rb) substitution of ``reference_paths``, which the
    scaling cross-check in test_forms relies on, acts as a substitution."""

    def test_unit(self):
        m = StructuredMatrix(3, one - T, T, -T, one + T)
        assert base_rescale(m, 1) == m

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            base_rescale(StructuredMatrix.identity(3), 0)

    @given(m=structured_matrices, r=nonzero_rationals, s=nonzero_rationals)
    @settings(max_examples=40)
    def test_composition(self, m, r, s):
        assert base_rescale(base_rescale(m, r), s) == base_rescale(m, r * s)

    @given(m=structured_matrices, r=nonzero_rationals)
    @settings(max_examples=40)
    def test_det_transform(self, m, r):
        # substituting (a, b) -> (ra, rb) sends det(T) to det(r^2 T)
        assert base_rescale(m, r).det() == substitute_power(m.det(), r * r)


class TestMembership:
    def test_zero_matrix_neither(self):
        m = StructuredMatrix(3, zero, zero, zero, zero)
        assert not m.in_lambda()
        assert m.det().is_zero

    def test_monomial_det_is_lambda_prime(self):
        m = StructuredMatrix(3, zero, one, one, zero)  # det = -T^3
        assert not m.in_lambda()
        assert monomial_parts(m.det()) == (GaussianRational(-1), 3)

    def test_polynomial_unit_det_is_lambda(self):
        m = StructuredMatrix(3, one - T, one, -one, one + T + T * T)
        assert m.det() == one
        assert m.in_lambda()

    def test_nonconstant_nonmonomial_det_is_neither(self):
        m = StructuredMatrix(3, one + T, zero, zero, one)
        assert not m.in_lambda()
        assert monomial_parts(m.det()) is None

    def test_laurent_entries_rejected_without_det(self, monkeypatch):
        def no_det(matrix):
            raise AssertionError("det computed for a Laurent matrix")

        m = StructuredMatrix(3, one, LaurentPoly.monomial(-1), zero, one)
        monkeypatch.setattr(StructuredMatrix, "det", no_det)
        assert not m.in_lambda()

    @given(pair=lambda_element_pairs())
    @settings(max_examples=30)
    def test_lambda_closed_under_product_and_inverse(self, pair):
        m1, m2 = pair
        assert m1.in_lambda()
        assert (m1 * m2).in_lambda()
        assert unit_inverse(m1).in_lambda()

    @given(m=lambda_elements(), j=st.integers(-2, 2), c=nonzero_gaussians)
    @settings(max_examples=30)
    def test_lambda_prime_closure(self, m, j, c):
        unit = StructuredMatrix(m.e, LaurentPoly.monomial(j, c), zero, zero, one)
        prod = m * unit
        # det(prod) = c*T^j * det(m) stays a Laurent unit; only j = 0 stays in Lambda
        for mat in (prod, unit_inverse(prod)):
            assert monomial_parts(mat.det()) is not None
            assert mat.in_lambda() == (j == 0)


class TestFixedPointShape:
    def test_diagonal_pair(self):
        alpha = GaussianRational(2, 1)
        m = diagonal(3, alpha, conj(alpha))
        assert fixed_point_shape(m) == alpha

    def test_identity(self):
        assert fixed_point_shape(StructuredMatrix.identity(3)) == GaussianRational(1)

    def test_antidiagonal_absent(self):
        m = StructuredMatrix(3, zero, one, one, zero)
        assert m.galois() == m  # twist-fixed, but determinant is not constant
        assert fixed_point_shape(m) is None

    def test_mismatched_diagonal_absent(self):
        m = diagonal(3, GaussianRational(2, 1), GaussianRational(2, 1))
        assert fixed_point_shape(m) is None

    @given(p=laurents, q=laurents)
    @settings(max_examples=60)
    def test_rigidity_of_twist_fixed_units(self, p, q):
        # Matrices (P, Q; bar Q, bar P) are exactly the twist-fixed ones;
        # whenever the determinant is a nonzero constant they must be
        # diagonal with conjugate entries.
        psi = StructuredMatrix(3, p, q, q.bar(), p.bar())
        assert psi.galois() == psi
        det = psi.det()
        if not det.is_zero and det.is_constant:
            assert fixed_point_shape(psi) is not None

    @given(alpha=nonzero_gaussians)
    def test_diagonal_instances_always_pass(self, alpha):
        psi = diagonal(5, alpha, conj(alpha))
        assert psi.galois() == psi
        assert psi.det().is_constant
        assert fixed_point_shape(psi) == alpha


class TestJson:
    @given(m=structured_matrices)
    def test_round_trip(self, m):
        assert StructuredMatrix.from_json(m.to_json()) == m

    def test_bad_document_rejected(self):
        with pytest.raises(ValueError):
            StructuredMatrix.from_json({"e": 3})
