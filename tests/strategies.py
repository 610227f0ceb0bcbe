"""Shared hypothesis strategies for exact algebra objects."""

from fractions import Fraction
from functools import reduce
from operator import mul

from hypothesis import strategies as st

from circleforms import GaussianRational, LaurentPoly, MultiPoly, StructuredMatrix

from reference_paths import diagonal, is_zero

rationals = st.fractions(min_value=Fraction(-4), max_value=Fraction(4), max_denominator=4)
nonzero_rationals = rationals.filter(bool)

gaussians = st.builds(GaussianRational, rationals, rationals)
nonzero_gaussians = gaussians.filter(lambda z: not is_zero(z))
real_gaussians = st.builds(GaussianRational, rationals)

laurents = st.dictionaries(st.integers(-3, 4), gaussians, max_size=4).map(LaurentPoly)
nonzero_laurents = laurents.filter(lambda p: not p.is_zero)

real_polys = st.lists(rationals, min_size=0, max_size=4).map(LaurentPoly.from_coeffs)
poly_laurents = st.dictionaries(st.integers(0, 5), gaussians, max_size=4).map(LaurentPoly)

multis = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
    gaussians,
    max_size=4,
).map(MultiPoly)

monomials = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))

# An image is zero, a constant, a single term (its coefficient 1 or any
# nonzero element of Q(i)) or several terms: the cases substitute tells apart.
substitute_images = st.one_of(
    st.just(MultiPoly.zero()),
    nonzero_gaussians.map(MultiPoly.constant),
    st.builds(MultiPoly.monomial, monomials,
              st.one_of(st.just(GaussianRational(1)), nonzero_gaussians)),
    st.dictionaries(monomials, nonzero_gaussians, min_size=2, max_size=3).map(MultiPoly),
)


def structured(e_values=(3, 4, 5), entry_strategy=poly_laurents):
    return st.builds(
        StructuredMatrix,
        st.sampled_from(e_values),
        entry_strategy,
        entry_strategy,
        entry_strategy,
        entry_strategy,
    )


structured_matrices = structured()


small_polys = st.dictionaries(st.integers(0, 2), gaussians, max_size=2).map(LaurentPoly)


def lambda_matrices(e):
    """Elements of Lambda (polynomial entries, nonzero constant determinant)
    at cross-exponent e: a constant diagonal unit times up to three
    elementary factors (1, p; 0, 1) and (1, 0; q, 1)."""
    one, zero = LaurentPoly.one(), LaurentPoly.zero()
    upper = small_polys.map(lambda p: StructuredMatrix(e, one, p, zero, one))
    lower = small_polys.map(lambda q: StructuredMatrix(e, one, zero, q, one))
    diag = st.builds(diagonal, st.just(e), nonzero_gaussians, nonzero_gaussians)
    factors = st.lists(st.one_of(upper, lower), max_size=3)
    return st.tuples(diag, factors).map(lambda parts: reduce(mul, parts[1], parts[0]))
