"""Shared hypothesis strategies for exact algebra objects."""

from fractions import Fraction
from functools import reduce
from operator import mul

from hypothesis import strategies as st

from circleforms import GaussianRational, LaurentPoly, MultiPoly, StructuredMatrix, geometric_sum

from reference_paths import diagonal, is_zero, swap, unit_inverse

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
real_small_polys = st.dictionaries(st.integers(0, 2), real_gaussians, max_size=2).map(LaurentPoly)
nonzero_real_gaussians = nonzero_rationals.map(GaussianRational)


def lambda_matrices(e, polys=small_polys, units=nonzero_gaussians):
    """Elements of Lambda (polynomial entries, nonzero constant determinant)
    at cross-exponent e: a constant diagonal unit, its entries drawn from
    ``units``, times up to three elementary factors (1, p; 0, 1) and
    (1, 0; q, 1) with p and q drawn from ``polys``."""
    one, zero = LaurentPoly.one(), LaurentPoly.zero()
    upper = polys.map(lambda p: StructuredMatrix(e, one, p, zero, one))
    lower = polys.map(lambda q: StructuredMatrix(e, one, zero, q, one))
    diag = st.builds(diagonal, st.just(e), units, units)
    factors = st.lists(st.one_of(upper, lower), max_size=3)
    return st.tuples(diag, factors).map(lambda parts: reduce(mul, parts[1], parts[0]))


def bundle_involutions(e_values=(3, 4, 5), polys=small_polys, units=nonzero_gaussians):
    """Structured matrices M with M * swap(M) = I: the family twist formula
    (1 - T*h^2, a^e h^e; -b^e h^e, sum_{j<e} (T*h^2)^j) for h drawn from
    ``polys``, conjugated to N * M * swap(N)^-1 by N in Lambda.  swap is
    multiplicative, so the conjugate is again an involution."""
    def conjugated(e):
        def build(h, n):
            th2 = LaurentPoly.variable() * h * h
            twist = StructuredMatrix(e, LaurentPoly.one() - th2, h ** e, -h ** e,
                                     geometric_sum(th2, e))
            return n * twist * unit_inverse(swap(n))
        return st.builds(build, polys, lambda_matrices(e, polys, units))
    return st.sampled_from(e_values).flatmap(conjugated)
