"""Expanded four-variable symbolic engine.

Polynomial self-maps of C^4 in the coordinates (a, b, x, y), optionally
pre-composed with coordinatewise conjugation, are the ground truth that the
structured-matrix shortcuts get validated against.  Everything here is exact
and pure; the expanded view is a verification layer, not the production path.
``MultiPoly`` takes every ring operation except multiplication from the
sparse kernel ``laurent.SparsePoly`` that ``LaurentPoly`` also builds on.

``PolyMap`` is the one map type: four coordinate images and a
``conjugates_input`` flag, set for circle forms such as mu_0 and unset for
twists phi_M = ``expand(M)``.  ``compose`` is the one way to compose two
maps, and ``is_involution`` and ``weight_check`` are the two circle-form
checks.
"""

from __future__ import annotations

from typing import Sequence

from .gaussian import GaussianRational
from .laurent import LaurentPoly, SparsePoly
from .matrices import StructuredMatrix

Monomial = tuple[int, int, int, int]

VAR_NAMES = ("a", "b", "x", "y")


class MultiPoly(SparsePoly):
    """Polynomial in a, b, x, y over Q(i); sparse map from exponent quadruples."""

    __slots__ = ()

    _ONE = (0, 0, 0, 0)

    @staticmethod
    def _key(mono) -> Monomial:
        mono = tuple(int(e) for e in mono)
        if len(mono) != 4 or any(e < 0 for e in mono):
            raise ValueError(f"bad exponent quadruple: {mono}")
        return mono

    @classmethod
    def variable(cls, index: int) -> "MultiPoly":
        mono = [0, 0, 0, 0]
        mono[index] = 1
        return cls({tuple(mono): 1})

    def __mul__(self, other):
        if type(other) is not MultiPoly:
            return NotImplemented
        acc: dict[Monomial, GaussianRational] = {}
        for m1, c1 in self._terms.items():
            a1, b1, x1, y1 = m1
            for m2, c2 in other._terms.items():
                m = (a1 + m2[0], b1 + m2[1], x1 + m2[2], y1 + m2[3])
                p = c1 * c2
                cur = acc.get(m)
                acc[m] = p if cur is None else cur + p
        out = MultiPoly()
        out._terms = {m: c for m, c in acc.items() if not c.is_zero}
        return out

    def substitute(self, images: Sequence["MultiPoly"]) -> "MultiPoly":
        """Evaluate at images = (image of a, of b, of x, of y).

        An image that is a single term c*v enters a term of self by adding
        exponents and multiplying by a cached power of c (by nothing when
        c = 1); only the powers of multi-term images are multiplied out,
        once each.  Every term accumulates into one dict."""
        if len(images) != 4:
            raise ValueError("need exactly four images")
        # For a single-term image, (its exponents, its coefficient or None
        # when that is 1); None for a zero or multi-term image.
        singles = []
        for img in images:
            single = None
            if len(img._terms) == 1:
                ((mono, c),) = img._terms.items()
                single = (mono, None if c.re == 1 and not c.im else c)
            singles.append(single)
        pow_cache: dict[tuple[int, int], object] = {}

        def power(i: int, n: int):
            """images[i] ** n, or the n-th power of its coefficient when it
            is a single term."""
            got = pow_cache.get((i, n))
            if got is None:
                single = singles[i]
                got = images[i] ** n if single is None else single[1] ** n
                pow_cache[i, n] = got
            return got

        acc: dict[Monomial, GaussianRational] = {}
        for mono, c in self._terms.items():
            a = b = x = y = 0
            product = None
            for i, exp in enumerate(mono):
                if not exp:
                    continue
                single = singles[i]
                if single is None:
                    factor = power(i, exp)
                    product = factor if product is None else product * factor
                    continue
                m = single[0]
                a += exp * m[0]
                b += exp * m[1]
                x += exp * m[2]
                y += exp * m[3]
                if single[1] is not None:
                    c = c * power(i, exp)
            if product is None:
                key = (a, b, x, y)
                cur = acc.get(key)
                acc[key] = c if cur is None else cur + c
                continue
            for m, pc in product._terms.items():
                key = (a + m[0], b + m[1], x + m[2], y + m[3])
                p = c * pc
                cur = acc.get(key)
                acc[key] = p if cur is None else cur + p
        return MultiPoly._wrap({m: c for m, c in acc.items() if not c.is_zero})

    def weighted_degrees(self, weights: Sequence[int]) -> set[int]:
        """The set of weighted degrees of the monomials present."""
        return {
            sum(e * w for e, w in zip(mono, weights)) for mono in self._terms
        }

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for mono, c in sorted(self._terms.items()):
            factors = [f"({c})"]
            for name, e in zip(VAR_NAMES, mono):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)


class PolyMap:
    """Self-map of C^4 given by four coordinate images, optionally
    pre-composed with coordinatewise conjugation.

    Semantics: v -> images(conj(v)) when conjugates_input is set, else
    v -> images(v).  Antiholomorphic involutions (real forms) carry the flag;
    ordinary automorphisms do not.
    """

    __slots__ = ("images", "conjugates_input")

    def __init__(self, images: Sequence[MultiPoly], conjugates_input: bool = False):
        images = tuple(images)
        if len(images) != 4:
            raise ValueError("a polynomial self-map of C^4 needs four images")
        self.images = images
        self.conjugates_input = bool(conjugates_input)

    @classmethod
    def identity(cls) -> "PolyMap":
        return cls(tuple(MultiPoly.variable(i) for i in range(4)))

    @classmethod
    def coordinate_swap(cls) -> "PolyMap":
        """(a, b, x, y) -> (b, a, y, x)."""
        v = [MultiPoly.variable(i) for i in range(4)]
        return cls((v[1], v[0], v[3], v[2]))

    def __eq__(self, other):
        if not isinstance(other, PolyMap):
            return NotImplemented
        return self.conjugates_input == other.conjugates_input and self.images == other.images

    def __repr__(self):
        flag = "conj" if self.conjugates_input else "holo"
        body = ", ".join(f"{n} -> {img}" for n, img in zip(VAR_NAMES, self.images))
        return f"PolyMap[{flag}]({body})"


def compose(f: PolyMap, g: PolyMap) -> PolyMap:
    """f after g: v -> f(g(v)).  Conjugation moves through g by conjugating
    its coefficients, so the result is again images-then-maybe-conj."""
    inner = tuple(img.bar() for img in g.images) if f.conjugates_input else g.images
    return PolyMap(tuple(img.substitute(inner) for img in f.images),
                   f.conjugates_input ^ g.conjugates_input)


def is_involution(f: PolyMap) -> bool:
    return compose(f, f) == PolyMap.identity()


def _check_weights(weights: Sequence[int]) -> tuple[int, int, int, int]:
    weights = tuple(int(w) for w in weights)
    if len(weights) != 4 or weights[1] != -weights[0] or weights[3] != -weights[2]:
        raise ValueError(f"weights must look like (k, -k, n, -n): {weights}")
    return weights


def weight_check(f: PolyMap, weights: Sequence[int]) -> bool:
    """Grading check for the polynomial part of a circle form: component i
    must be homogeneous of weighted degree -w_i, the grading a map must have
    to be compatible with the circle real structure t -> conj(t)^-1."""
    weights = _check_weights(weights)
    for img, w in zip(f.images, weights):
        if img.is_zero:
            continue
        if img.weighted_degrees(weights) != {-w}:
            return False
    return True


def expand(matrix: StructuredMatrix) -> PolyMap:
    """The four-variable map fixing (a, b) and acting on (x, y) by the matrix,
    with the a^e, b^e factors written out.  Requires polynomial entries."""
    e = matrix.e
    for entry in matrix.entries():
        if not entry.is_polynomial:
            raise ValueError("cannot expand a matrix with Laurent entries")

    def tpow(p: LaurentPoly, extra_a: int, extra_b: int) -> MultiPoly:
        # c*T^j -> c * a^(j+extra_a) * b^(j+extra_b), since T = ab.
        return MultiPoly({(j + extra_a, j + extra_b, 0, 0): c for j, c in p.items()})

    a_img = MultiPoly.variable(0)
    b_img = MultiPoly.variable(1)
    x_var = MultiPoly.variable(2)
    y_var = MultiPoly.variable(3)
    x_img = tpow(matrix.P, 0, 0) * x_var + tpow(matrix.Q, e, 0) * y_var
    y_img = tpow(matrix.S, 0, e) * x_var + tpow(matrix.R, 0, 0) * y_var
    return PolyMap((a_img, b_img, x_img, y_img))

