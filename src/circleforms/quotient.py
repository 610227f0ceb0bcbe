"""Invariants of the torus action and the quotient hypersurface.

The invariant ring of the weight (2, -2, n, -n) action on (a, b, x, y) is
generated by T = ab, W = xy, U = a^n y^2, V = b^n x^2, subject to the single
relation U*V - T^n*W^2 = 0; the categorical quotient is that hypersurface.
The generators are monomials, so a polynomial lies in the invariant subring
exactly when each of its monomials has weight 0.
Circle forms descend to real forms of the quotient; this module materializes
the generators, the relation, and the induced generator images, but does not
attempt to classify the induced real forms.
"""

from __future__ import annotations

from operator import index

from .polymaps import MultiPoly, PolyMap


def make_invariants(m: int) -> tuple[MultiPoly, MultiPoly, MultiPoly, MultiPoly]:
    """The four generators (T, W, U, V) for n = 2m+1."""
    if index(m) < 1:
        raise ValueError("m must be a positive integer")
    n = 2 * m + 1
    return (
        MultiPoly.monomial((1, 1, 0, 0)),
        MultiPoly.monomial((0, 0, 1, 1)),
        MultiPoly.monomial((n, 0, 0, 2)),
        MultiPoly.monomial((0, n, 2, 0)),
    )


def verify_relation(m: int) -> bool:
    """U*V - T^n*W^2 expands to the zero polynomial, exactly."""
    n = 2 * m + 1
    t, w, u, v = make_invariants(m)
    return (u * v - t ** n * w ** 2).is_zero


def in_invariant_subring(poly: MultiPoly, m: int) -> bool:
    """Whether poly lies in Q(i)[T, W, U, V]: every monomial has weighted degree 0.

    The generators are monomials of weight 0, and they generate every
    monomial of weight 0: for a^i b^j x^k y^l, weight 2(i-j) + n(k-l) = 0
    with n odd forces k - l = 2s and j - i = n*s, and the monomial is
    T^i W^l V^s when s >= 0 and T^j W^k U^(-s) when s < 0.
    """
    if index(m) < 1:
        raise ValueError("m must be a positive integer")
    n = 2 * m + 1
    return poly.weighted_degrees((2, -2, n, -n)) <= {0}


def induced_images(mu: PolyMap, m: int) -> tuple[tuple[MultiPoly, ...], tuple[bool, ...]]:
    """Pullbacks (images) of T, W, U, V along the polynomial part of mu, and
    whether each lies in the invariant subring (expressible).

    For the linear circle form the images land back in the generator set
    (T, W, V, U); for twisted forms expressibility is reported as data, not
    asserted.
    """
    images = tuple(g.substitute(mu.images) for g in make_invariants(m))
    return images, tuple(in_invariant_subring(img, m) for img in images)
