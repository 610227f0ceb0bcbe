from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circleforms import (
    FormSpec,
    GaussianRational,
    LaurentPoly,
    MultiPoly,
    PolyMap,
    StructuredMatrix,
    compose,
    expand,
    is_involution,
    linear_circle_form,
    make_circle_form,
    make_twist,
    weight_check,
)

from reference_paths import (
    base_scaling_map,
    conj,
    coordinate_swap,
    holomorphic_weight_check,
    scaling_map,
    substitute_by_products,
)
from strategies import (
    gaussians,
    multis,
    nonzero_gaussians,
    nonzero_rationals,
    real_polys,
    structured,
    substitute_images,
)

A, B, X, Y = (MultiPoly.variable(i) for i in range(4))

poly_structured = structured(e_values=(3, 5), entry_strategy=st.dictionaries(
    st.integers(0, 2), gaussians, max_size=3).map(LaurentPoly))


def poly_structured_pairs():
    entry = st.dictionaries(st.integers(0, 2), gaussians, max_size=3).map(LaurentPoly)
    return st.sampled_from((3, 5)).flatmap(
        lambda e: st.tuples(structured((e,), entry), structured((e,), entry)))


class TestMultiPoly:
    @given(p=multis, q=multis, r=multis)
    @settings(max_examples=50)
    def test_ring_axioms(self, p, q, r):
        assert (p + q) * r == p * r + q * r
        assert p * q == q * p
        assert p - p == MultiPoly.zero()

    @given(p=multis, q=multis)
    @settings(max_examples=50)
    def test_bar_multiplicative(self, p, q):
        assert (p * q).bar() == p.bar() * q.bar()

    def test_substitute_is_evaluation(self):
        three = MultiPoly.constant(3)
        p = A * A * B + X * three
        images = (B, A, Y, X)
        assert p.substitute(images) == B * B * A + Y * three

    @given(p=multis)
    @settings(max_examples=50)
    def test_substitute_identity(self, p):
        assert p.substitute((A, B, X, Y)) == p

    @given(p=multis, images=st.tuples(*[substitute_images] * 4))
    @settings(max_examples=150)
    def test_substitute_agrees_with_products(self, p, images):
        assert p.substitute(images) == substitute_by_products(p, images)

    @given(h=real_polys)
    @settings(max_examples=20, derandomize=True, database=None)
    def test_substitute_agrees_with_products_on_family_squares(self, h):
        """Every image of compose(mu_h, mu_h) for m = 1..3."""
        for m in (1, 2, 3):
            mu = make_circle_form(make_twist(FormSpec(m, h)))
            inner = tuple(img.bar() for img in mu.images)
            for img in mu.images:
                assert img.substitute(inner) == substitute_by_products(img, inner)


class TestCompose:
    def test_mu0_squares_to_identity(self):
        mu0 = linear_circle_form()
        assert compose(mu0, mu0) == PolyMap.identity()

    def test_conjugation_flags_cancel(self):
        conj = PolyMap(PolyMap.identity().images, True)
        assert compose(conj, conj) == PolyMap.identity()

    def test_flag_is_part_of_equality(self):
        swap = coordinate_swap().images
        assert PolyMap(swap, True) != PolyMap(swap, False)
        assert PolyMap(swap, True) == linear_circle_form()
        assert PolyMap(swap) == PolyMap(swap, False)

    def test_flags_xor_on_all_four_pairs(self):
        twist = make_twist(FormSpec(1, LaurentPoly.from_coeffs([1, 2])))
        phi, mu0 = expand(twist), linear_circle_form()
        for f in (phi, mu0):
            for g in (phi, mu0):
                assert compose(f, g).conjugates_input == (f is mu0) ^ (g is mu0)
        assert compose(mu0, compose(phi, mu0)) == expand(twist.galois())

    def test_flag_conjugates_the_inner_images(self):
        # (a, b, x, y) -> (i*b, -i*a, y, x): squaring gives (i*(-i)a, -i*i*b, x, y)
        # = id, but after conjugating the inner images it gives (-a, -b, x, y).
        i = MultiPoly.constant(GaussianRational(0, 1))
        images = (B * i, A * -i, Y, X)
        assert is_involution(PolyMap(images))
        assert not is_involution(PolyMap(images, True))
        assert compose(PolyMap(images, True), PolyMap(images, True)) == PolyMap((-A, -B, X, Y))

    def test_circle_form_is_twist_after_swap(self):
        spec = FormSpec(1, LaurentPoly.one())
        twist = make_twist(spec)
        mu = make_circle_form(twist)
        manual = compose(expand(twist), linear_circle_form())
        assert mu == manual
        assert mu.conjugates_input

    @given(pair=poly_structured_pairs())
    @settings(max_examples=25)
    def test_associativity_via_matrices(self, pair):
        m1, m2 = pair
        f = expand(m1)
        g = PolyMap(expand(m2).images, True)
        mu0 = linear_circle_form()
        assert compose(compose(f, g), mu0) == compose(f, compose(g, mu0))


class TestInvolutions:
    def test_mu0(self):
        assert is_involution(linear_circle_form())

    def test_twisted_form(self):
        assert is_involution(make_circle_form(make_twist(FormSpec(1, LaurentPoly.one()))))

    def test_twist_alone_is_not(self):
        spec = FormSpec(1, LaurentPoly.one())
        phi = expand(make_twist(spec))
        assert not is_involution(phi)


class TestWeightCheck:
    def test_twist_is_equivariant(self):
        spec = FormSpec(2, LaurentPoly.from_coeffs([1, 2]))
        phi = expand(make_twist(spec))
        assert holomorphic_weight_check(phi, spec.weights())

    def test_mu0_polynomial_part_inverts_weights(self):
        assert weight_check(linear_circle_form(), (2, -2, 3, -3))

    def test_identity_fails_inversion(self):
        assert not weight_check(PolyMap.identity(), (2, -2, 3, -3))

    def test_wrong_weight_detected(self):
        bad = PolyMap((X, B, A, Y))
        assert not holomorphic_weight_check(bad, (2, -2, 3, -3))

    def test_weights_pattern_enforced(self):
        with pytest.raises(ValueError):
            weight_check(PolyMap.identity(), (2, -2, 3, 3))


class TestO2Relations:
    def test_plain_swap(self):
        # The coordinate swap with conjugation satisfies both O(2) relations:
        # it squares to the identity and inverts the circle weights.
        mu0 = linear_circle_form()
        assert is_involution(mu0)
        assert weight_check(mu0, (2, -2, 3, -3))


class TestExpand:
    def test_identity(self):
        assert expand(StructuredMatrix.identity(3)) == PolyMap.identity()

    def test_laurent_entries_rejected(self):
        bad = StructuredMatrix(3, LaurentPoly.monomial(-1), LaurentPoly.zero(),
                               LaurentPoly.zero(), LaurentPoly.one())
        with pytest.raises(ValueError):
            expand(bad)

    @given(pair=poly_structured_pairs())
    @settings(max_examples=25)
    def test_product_homomorphism(self, pair):
        m1, m2 = pair
        assert expand(m1 * m2) == compose(expand(m1), expand(m2))

    @given(m=poly_structured)
    @settings(max_examples=25)
    def test_galois_is_mu0_conjugation(self, m):
        mu0 = linear_circle_form()
        assert expand(m.galois()) == compose(mu0, compose(expand(m), mu0))

    @given(m=poly_structured)
    @settings(max_examples=20)
    def test_injective_on_samples(self, m):
        # distinct matrices expand to distinct maps
        other = m * StructuredMatrix(m.e, LaurentPoly.one(), LaurentPoly.one(),
                                     LaurentPoly.zero(), LaurentPoly.one())
        if m != other:
            assert expand(m) != expand(other)


OMEGA = GaussianRational(Fraction(3, 5), Fraction(4, 5))


class TestCircleScalings:
    def test_omega_must_be_on_circle(self):
        with pytest.raises(ValueError):
            scaling_map(GaussianRational(2), (2, -2, 3, -3))

    @given(m=poly_structured)
    @settings(max_examples=20)
    def test_omega_commutes_with_fiber_twists(self, m):
        weights = (2, -2, m.e, -m.e)
        rho = scaling_map(OMEGA, weights)
        rho_inv = scaling_map(conj(OMEGA), weights)
        assert compose(rho_inv, rho) == PolyMap.identity()
        conjugated = compose(compose(rho, expand(m)), rho_inv)
        assert conjugated == expand(m)

    @given(r=nonzero_rationals)
    def test_base_scaling_factors(self, r):
        # composing the base rescaling with a circle point gives base factors
        # (lambda, conj(lambda)) with lambda = r * omega^2
        psi = compose(base_scaling_map(r), scaling_map(OMEGA, (2, -2, 3, -3)))
        lam = OMEGA * OMEGA * GaussianRational(r)
        factors = (lam, conj(lam), OMEGA * OMEGA * OMEGA, conj(OMEGA * OMEGA * OMEGA))
        for image, var, factor in zip(psi.images, (A, B, X, Y), factors):
            assert image == var * MultiPoly.constant(factor)
