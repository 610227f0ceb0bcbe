"""sympy as an independent oracle: the kernel operations against ``sympy.Poly``
over Q(i) (``QQ_I``), and the family formulas against a sympy transcription
of the ``forms`` docstring.  Skipped when sympy is not installed; the
package itself does not use it.

Laurent values are lifted to polynomials first: each operand is multiplied
by T^K, with K the largest negative exponent the strategies draw, and the
result of an operation by the matching power of T^K."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")

from circleforms import (
    FormSpec, GaussianRational, LaurentPoly, PolyMap, compose, expand, make_twist,
)
from circleforms.forms import splitting_entries

from reference_paths import conj, inverse, is_zero, neg
from strategies import (
    gaussians, laurents, multis, real_polys, structured_matrices, substitute_images,
)

QQ_I = sympy.QQ_I
T, H = sympy.symbols("T H")
GENS = sympy.symbols("a b x y")
K = 3  # laurents draws exponents from -K up


def number(c):
    """A GaussianRational as a sympy number."""
    return sympy.Rational(c.re) + sympy.I * sympy.Rational(c.im)


def element(c):
    """A GaussianRational as an element of QQ_I."""
    return QQ_I.from_sympy(number(c))


def lifted(p, shift=K):
    """p * T^shift as a sympy Poly over QQ_I."""
    return sympy.Poly.from_dict({(e + shift,): number(c) for e, c in p.items()}, T, domain=QQ_I)


def multi(p):
    """A MultiPoly as a sympy Poly in a, b, x, y over QQ_I."""
    return sympy.Poly.from_dict({mono: number(c) for mono, c in p.items()}, *GENS, domain=QQ_I)


def conjugated(poly):
    """The sympy Poly with conjugated coefficients."""
    return sympy.Poly.from_dict({m: sympy.conjugate(c) for m, c in poly.terms()},
                                *poly.gens, domain=QQ_I)


def laurent_expr(p):
    """A LaurentPoly as a sympy expression in T."""
    return sum(number(c) * T ** e for e, c in p.items())


@settings(max_examples=60)
@given(p=laurents, q=laurents, n=st.integers(0, 3))
def test_laurent_operations_match_sympy(p, q, n):
    sp, sq = lifted(p), lifted(q)
    assert lifted(p + q) == sp + sq
    assert lifted(p - q) == sp - sq
    assert lifted(p * q, 2 * K) == sp * sq
    assert lifted(p ** n, n * K) == sp ** n
    assert lifted(p.bar()) == conjugated(sp)


@settings(max_examples=40)
@given(p=multis, q=multis, n=st.integers(0, 2))
def test_multipoly_operations_match_sympy(p, q, n):
    sp, sq = multi(p), multi(q)
    assert multi(p + q) == sp + sq
    assert multi(p - q) == sp - sq
    assert multi(p * q) == sp * sq
    assert multi(p ** n) == sp ** n
    assert multi(p.bar()) == conjugated(sp)


def substituted(poly, images):
    """poly evaluated at four sympy Polys, by simultaneous replacement."""
    expr = poly.as_expr().xreplace({g: img.as_expr() for g, img in zip(GENS, images)})
    return sympy.Poly(expr, *GENS, domain=QQ_I)


@settings(max_examples=30)
@given(p=multis, images=st.tuples(*[substitute_images] * 4))
def test_substitute_matches_sympy(p, images):
    assert multi(p.substitute(images)) == substituted(multi(p), [multi(i) for i in images])


@settings(max_examples=20)
@given(f=st.tuples(*[multis] * 4), g=st.tuples(*[substitute_images] * 4),
       flags=st.tuples(st.booleans(), st.booleans()))
def test_compose_matches_sympy(f, g, flags):
    # f after g: v -> f(conj^cf(g(conj^cg(v)))), and conj(P(w)) = bar(P)(conj(w))
    fmap, gmap = PolyMap(f, flags[0]), PolyMap(g, flags[1])
    inner = [multi(img) for img in g]
    if flags[0]:
        inner = [conjugated(img) for img in inner]
    got = compose(fmap, gmap)
    assert got.conjugates_input == (flags[0] != flags[1])
    assert [multi(img) for img in got.images] == [substituted(multi(img), inner) for img in f]


@settings(max_examples=40)
@given(matrix=structured_matrices)
def test_expand_matches_sympy(matrix):
    # (a, b, x, y) -> (a, b, P(ab) x + a^e Q(ab) y, b^e S(ab) x + R(ab) y)
    a, b, x, y = GENS
    e = matrix.e
    P, Q, S, R = (sum(number(c) * (a * b) ** j for j, c in p.items()) for p in matrix.entries())
    expected = (a, b, P * x + a ** e * Q * y, b ** e * S * x + R * y)
    got = expand(matrix)
    assert not got.conjugates_input
    assert [multi(img) for img in got.images] == [sympy.Poly(v, *GENS, domain=QQ_I)
                                                   for v in expected]


# The forms docstring, transcribed: for n = 2m+1 and x = T*h^2,
#   M_h = (1 - x, a^n h^n; -b^n h^n, sum_{j<n} x^j),
#   K_h = (1, h/T^m; h*sum_{j<m} x^j / T^m, sum_{j<=m} x^j),
# with the a^n, b^n factors held as the cross-exponent n.

def twist_transcription(m, h):
    n, x = 2 * m + 1, T * h ** 2
    return 1 - x, h ** n, -h ** n, sum(x ** j for j in range(n))


def splitting_transcription(m, h):
    x = T * h ** 2
    return h / T ** m, h * sum(x ** j for j in range(m)) / T ** m, sum(x ** j for j in range(m + 1))


def product(e, left, right):
    """(P, a^e Q; b^e S, R) products, contracting a^e b^e = T^e."""
    p, q, s, r = left
    p2, q2, s2, r2 = right
    return (p * p2 + T ** e * q * s2, p * q2 + q * r2, s * p2 + r * s2, T ** e * s * q2 + r * r2)


def det(e, matrix):
    p, q, s, r = matrix
    return p * r - T ** e * q * s


def galois(matrix):
    """gamma for entries with real coefficients: the swap (R, S, Q, P)."""
    p, q, s, r = matrix
    return r, s, q, p


def same(left, right):
    """Entrywise equality of Laurent expressions in T (and H)."""
    return all(sympy.expand(u - v) == 0 for u, v in zip(left, right))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_transcription_satisfies_the_family_identities(m):
    # with h a free real symbol H: det M_h = 1, M_h gamma(M_h) = I, det K_h = 1
    # and K_h = M_h gamma(K_h)
    n = 2 * m + 1
    twist = twist_transcription(m, H)
    q, s, r = splitting_transcription(m, H)
    split = (sympy.Integer(1), q, s, r)
    assert sympy.expand(det(n, twist)) == 1
    assert same(product(n, twist, galois(twist)), (1, 0, 0, 1))
    assert sympy.expand(det(n, split)) == 1
    assert same(product(n, twist, galois(split)), split)


@settings(max_examples=25)
@given(m=st.integers(1, 3), h=real_polys)
def test_family_formulas_match_the_transcription(m, h):
    spec, hx = FormSpec(m, h), laurent_expr(h)
    twist = make_twist(spec)
    assert twist.e == 2 * m + 1
    assert same([laurent_expr(p) for p in twist.entries()], twist_transcription(m, hx))
    assert same([laurent_expr(p) for p in splitting_entries(spec)],
                splitting_transcription(m, hx))


def test_conversion_keeps_imaginary_parts():
    p = LaurentPoly.from_coeffs([GaussianRational(Fraction(1, 2), -3)], valuation=-1)
    assert lifted(p) == sympy.Poly((sympy.Rational(1, 2) - 3 * sympy.I) * T ** 2, T, domain=QQ_I)


@settings(max_examples=60)
@given(z=gaussians, w=gaussians)
def test_record_and_helper_arithmetic_match_sympy(z, w):
    a, b = element(z), element(w)
    assert element(z + w) == a + b
    assert element(z * w) == a * b
    assert element(neg(z)) == -a
    assert element(conj(z)) == QQ_I.from_sympy(sympy.conjugate(QQ_I.to_sympy(a)))
    assert is_zero(z) == (a == QQ_I.zero)
    if is_zero(z):
        with pytest.raises(ZeroDivisionError):
            inverse(z)
    else:
        assert element(inverse(z)) == QQ_I.one / a
