import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circleforms import (
    FormSpec,
    GaussianRational,
    LaurentPoly,
    MultiPoly,
    PolyMap,
    induced_images,
    linear_circle_form,
    make_circle_form,
    make_invariants,
    make_twist,
    verify_relation,
)
from circleforms.quotient import in_invariant_subring

from reference_paths import solve_in_invariant_subring
from strategies import gaussians, nonzero_gaussians

A, B, X, Y = (MultiPoly.variable(i) for i in range(4))


class TestGenerators:
    def test_m1_shapes(self):
        # the tuple is (T, W, U, V), in that order
        assert make_invariants(1) == (A * B, X * Y, A ** 3 * Y ** 2, B ** 3 * X ** 2)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_weight_zero(self, m):
        n = 2 * m + 1
        weights = (2, -2, n, -n)
        for gen in make_invariants(m):
            assert gen.weighted_degrees(weights) == {0}

    def test_product_still_invariant(self):
        t, w, _, _ = make_invariants(1)
        assert (t * w).weighted_degrees((2, -2, 3, -3)) == {0}

    def test_bad_m(self):
        with pytest.raises(ValueError):
            make_invariants(0)


class TestRelation:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_holds(self, m):
        assert verify_relation(m)

    def test_perturbed_relation_fails(self):
        m = 1
        t, w, u, v = make_invariants(m)
        n = 2 * m + 1
        wrong = u * v - t ** (n - 1) * w ** 2
        assert not wrong.is_zero


class TestSubringMembership:
    def test_generators_and_combinations(self):
        t, w, u, _ = make_invariants(1)
        assert in_invariant_subring(t, 1)
        assert in_invariant_subring(t * w + u * MultiPoly.constant(3), 1)
        assert in_invariant_subring(MultiPoly.constant(5), 1)
        assert in_invariant_subring(MultiPoly.zero(), 1)

    def test_non_invariants_rejected(self):
        assert not in_invariant_subring(X, 1)
        assert not in_invariant_subring(A * B + X, 1)

    def test_weight_zero_but_outside(self):
        # a^2 y has weighted degree 2*2 - 3 = 1, so definitely outside;
        # a*b*x*y is T*W, inside
        assert in_invariant_subring(A * B * X * Y, 1)
        assert not in_invariant_subring(A * A * Y, 1)

    def test_gaussian_coefficients(self):
        t, w, _, _ = make_invariants(1)
        mixed = (t * MultiPoly.constant(GaussianRational(1, 2))
                 + w * MultiPoly.constant(GaussianRational(0, -1)))
        assert in_invariant_subring(mixed, 1)


@st.composite
def generator_sums(draw):
    """(poly, m, perturbed): a Q(i)-combination of up to three products
    T^i W^j U^k V^l, optionally plus one monomial of nonzero weight."""
    m = draw(st.integers(1, 3))
    gens = make_invariants(m)
    poly = MultiPoly.zero()
    for _ in range(draw(st.integers(0, 3))):
        exps = draw(st.tuples(st.integers(0, 2), st.integers(0, 2),
                              st.integers(0, 1), st.integers(0, 1)))
        product = MultiPoly.constant(draw(gaussians))
        for gen, e in zip(gens, exps):
            product = product * gen ** e
        poly = poly + product
    n = 2 * m + 1
    perturbed = draw(st.booleans())
    if perturbed:
        mono = draw(st.tuples(*[st.integers(0, n + 1)] * 4).filter(
            lambda e: 2 * (e[0] - e[1]) + n * (e[2] - e[3]) != 0))
        poly = poly + MultiPoly.monomial(mono, draw(nonzero_gaussians))
    return poly, m, perturbed


class TestMembershipAgainstSolve:
    """The weight-zero criterion against the linear solve of
    ``reference_paths``."""

    @given(case=generator_sums())
    @settings(max_examples=150)
    def test_agrees_with_linear_solve(self, case):
        poly, m, perturbed = case
        assert in_invariant_subring(poly, m) == solve_in_invariant_subring(poly, m)
        assert in_invariant_subring(poly, m) is not perturbed

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_weight_zero_monomials_factor(self, m):
        # every weight-zero monomial of small degree is inside, the rest outside
        n = 2 * m + 1
        for i, j, k, l in itertools.product(range(n + 2), range(n + 2), range(4), range(4)):
            mono = MultiPoly.monomial((i, j, k, l))
            inside = 2 * (i - j) + n * (k - l) == 0
            assert in_invariant_subring(mono, m) is inside
            if i + j + k + l <= n + 2:
                assert solve_in_invariant_subring(mono, m) is inside


class TestInducedImages:
    def test_linear_form_swaps_u_and_v(self):
        t, w, u, v = make_invariants(1)
        images, expressible = induced_images(linear_circle_form(), 1)
        assert images == (t, w, v, u)
        assert expressible == (True, True, True, True)

    def test_identity_map_fixes_generators(self):
        images, _ = induced_images(PolyMap.identity(), 2)
        assert images == make_invariants(2)

    def test_twisted_form_images_are_invariant_and_expressible(self):
        spec = FormSpec(1, LaurentPoly.one())
        mu = make_circle_form(make_twist(spec))
        images, expressible = induced_images(mu, 1)
        for img in images:
            assert img.weighted_degrees(spec.weights()) == {0}
        assert expressible == (True, True, True, True)

    @pytest.mark.parametrize("coeffs,m", [([1], 1), ([0, 2], 2), ([1, -1], 1)])
    def test_double_pullback_with_conjugation_is_identity(self, coeffs, m):
        mu = make_circle_form(make_twist(FormSpec(m, LaurentPoly.from_coeffs(coeffs))))

        def pull(g):
            return g.substitute(mu.images).bar()

        for gen in make_invariants(m):
            assert pull(pull(gen)) == gen
