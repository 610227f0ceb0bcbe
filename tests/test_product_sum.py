"""The one Kronecker kernel for sums of Laurent products.

``StructuredMatrix.__mul__`` (four sums a*b + T^t*c*d), ``det`` (one
difference P*R - T^e*Q*S) and ``LaurentPoly.__mul__`` (one product) each
pack their operands once.  They must give the very store -- numerators,
imaginary numerators and denominator -- of the reference paths in
``reference_paths``: ten separate products and four sums per matrix
product, three products and a difference per det, and a product packed at
its own width.  Extreme widths put product coefficients on the bound the
kernel's width is computed from.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from circleforms import GaussianRational, LaurentPoly, StructuredMatrix

from reference_paths import DictLaurent, entrywise_det, entrywise_product, kronecker_product
from strategies import laurents, poly_laurents, structured, structured_matrices

E_VALUES = (3, 4, 5)

# Denominators up to 60, so the two products of one entry rarely share one.
mixed_rationals = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 60))
mixed_laurents = st.dictionaries(
    st.integers(-4, 6),
    st.builds(GaussianRational, mixed_rationals, st.one_of(st.just(0), mixed_rationals)),
    max_size=4,
).map(LaurentPoly)
# Every entry kind at once, zero entries drawn often.
entries = st.one_of(st.just(LaurentPoly.zero()), poly_laurents, laurents, mixed_laurents)


def store(p):
    """The integer store of p, checked to be canonical."""
    assert p._den > 0 and 0 not in p._re.values() and 0 not in p._im.values()
    assert gcd(p._den, *p._re.values(), *p._im.values()) == 1
    return dict(p._re), dict(p._im), p._den


def same_store(value, reference):
    equal_stores(store(value), store(reference))


def equal_stores(got, expected):
    # compared outside the assert, so a failure does not make pytest diff
    # stores whose numerators have thousands of digits
    differs = got != expected
    assert not differs


def same_matrix(value, reference):
    assert value.e == reference.e
    for entry, expected in zip(value.entries(), reference.entries()):
        same_store(entry, expected)


def matrix_pairs(entry_strategy):
    """Two matrices of one cross-exponent, entries from entry_strategy."""
    return st.sampled_from(E_VALUES).flatmap(lambda e: st.tuples(
        structured((e,), entry_strategy), structured((e,), entry_strategy)))


@given(pair=st.one_of(matrix_pairs(poly_laurents), matrix_pairs(laurents),
                      matrix_pairs(mixed_laurents), matrix_pairs(entries)))
def test_matrix_product_equals_entrywise_product(pair):
    a, b = pair
    same_matrix(a * b, entrywise_product(a, b))
    same_matrix(b * a, entrywise_product(b, a))


@given(matrix=st.one_of(structured_matrices, structured(E_VALUES, laurents),
                        structured(E_VALUES, mixed_laurents), structured(E_VALUES, entries)))
def test_det_equals_entrywise_det(matrix):
    same_store(matrix.det(), entrywise_det(matrix))


@given(p=entries, q=entries)
def test_laurent_product_equals_own_width_product(p, q):
    same_store(p * q, kronecker_product(p, q))
    assert (p * q).items() == (DictLaurent.of(p) * DictLaurent.of(q)).items()


def test_shifted_pairs_of_different_valuation():
    # P*R sits at T^-3, T^e*Q*S at T^(e+4): one entry of two distant ranges
    T = LaurentPoly.variable()
    p, r = LaurentPoly.monomial(-2, Fraction(1, 4)), LaurentPoly.monomial(-1, 3) + T
    q, s = LaurentPoly.monomial(1, Fraction(2, 9)), LaurentPoly.monomial(3, GaussianRational(0, 5))
    for e in E_VALUES:
        m = StructuredMatrix(e, p, q, s, r)
        same_store(m.det(), entrywise_det(m))
        same_matrix(m * m, entrywise_product(m, m))
        same_matrix(m * m.galois(), entrywise_product(m, m.galois()))


def test_zero_pairs_drop_out():
    zero, one = LaurentPoly.zero(), LaurentPoly.one()
    m = StructuredMatrix(3, LaurentPoly.monomial(2, 5), zero, zero, zero)
    assert m.det() == zero and (m * m).entries() == (LaurentPoly.monomial(4, 25), zero, zero, zero)
    n = StructuredMatrix(3, zero, one, LaurentPoly.monomial(-1, Fraction(1, 2)), zero)
    assert n.det() == LaurentPoly.monomial(2, Fraction(-1, 2))
    same_matrix(n * n, entrywise_product(n, n))


def extreme(count, height, signs, imaginary=False):
    """count terms from T^0, each coefficient +-height (times 1 + i when
    imaginary), with the signs repeating."""
    unit = GaussianRational(1, 1) if imaginary else GaussianRational(1)
    return LaurentPoly.from_coeffs(
        [unit * GaussianRational(signs[j % len(signs)] * height) for j in range(count)])


def extreme_cases(height, signs, imaginary):
    """The products and matrices of the extreme-width test at one height."""
    x = extreme(60, height, signs, imaginary)
    y = extreme(60, height, (1, -1) if signs == (1,) else (1,), imaginary)
    minus = extreme(60, height, tuple(-s for s in signs), imaginary)
    products = ((x, x), (x, y), (x, x.bar()))
    matrices = [StructuredMatrix(e, *entries) for e in E_VALUES
                for entries in ((x, minus, x, x), (x, x, x, x), (x, y, x, y))]
    return products, matrices


def times(p, c):
    """The store of c * p, for an integer c and a p of denominator 1."""
    assert p._den == 1
    return {k: c * v for k, v in p._re.items()}, {k: c * v for k, v in p._im.items()}, 1


@pytest.mark.parametrize("signs", [(1,), (1, -1)], ids=["plus", "alternating"])
@pytest.mark.parametrize("imaginary", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("height", [1, 2 ** 64 - 1, 10 ** 40], ids=["1", "2^64-1", "10^40"])
def test_extreme_widths(height, signs, imaginary):
    # 60 coefficients of one magnitude put the middle numerator of x*y on
    # the bound ||x||_1 * ||y||_inf itself, so one bit less of width fails
    products, matrices = extreme_cases(height, signs, imaginary)
    for a, b in products:
        same_store(a * b, kronecker_product(a, b))
    for m in matrices:
        same_store(m.det(), entrywise_det(m))
        same_matrix(m * m, entrywise_product(m, m))
        same_matrix(m * m.galois(), entrywise_product(m, m.galois()))


@pytest.mark.parametrize("signs", [(1,), (1, -1)], ids=["plus", "alternating"])
@pytest.mark.parametrize("imaginary", [False, True], ids=["real", "complex"])
def test_extreme_widths_at_the_digit_cap(signs, imaginary):
    # H = 10^4299, the widest coefficient the command line reads.  Each
    # value is homogeneous of degree 2 in H: H^2 times the value at H = 1,
    # which the test above checks against the reference paths
    height = 10 ** 4299
    (products, matrices), (unit_products, unit_matrices) = (
        extreme_cases(h, signs, imaginary) for h in (height, 1))
    for (a, b), (a1, b1) in zip(products, unit_products):
        equal_stores(store(a * b), times(a1 * b1, height ** 2))
    # one det: each matrix-product entry is the same two-pair sum
    equal_stores(store(matrices[0].det()), times(unit_matrices[0].det(), height ** 2))


def test_extreme_width_coefficients_reach_the_bound():
    # the width rule is tight here: the product's middle coefficient is the
    # bound itself, and for the all-(+H) det the sum nearly doubles it
    height = 10 ** 4299
    x = extreme(60, height, (1,))
    assert (x * x).coeff(59) == GaussianRational(60 * height ** 2)
    minus = extreme(60, height, (-1,))
    det = StructuredMatrix(3, x, minus, x, x).det()
    assert det.coeff(59) == GaussianRational((60 + 57) * height ** 2)
