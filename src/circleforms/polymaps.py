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
checks, computed on a built map.

The family and case12 verdicts build no map: ``forms.family_checks`` and
``forms.case12_checks`` derive both circle-form checks from the matrix with
the representation lemma (expand(A) o expand(B) = expand(A*B) and
mu_0 o expand(M) o mu_0 = expand(gamma(M))), which the tests prove with
``compose`` and ``expand``.  The computed checks still run in the
twist-family and case12 release criteria, which compare them with the
derived ones, and the representation-coherence criterion checks the lemma
on random matrices.  Outside those criteria, ``quotient.induced_images``
is the one caller of ``MultiPoly.substitute``.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cache, reduce
from operator import index, or_
from typing import Sequence

from .laurent import LaurentPoly, SparsePoly
from .matrices import StructuredMatrix

Monomial = tuple[int, int, int, int]

VAR_NAMES = ("a", "b", "x", "y")

# A monomial a^i b^j x^k y^l is the key i<<3W | j<<2W | k<<W | l, so key
# order is the order of exponent tuples and a monomial product is one add.
# Exponents stay below 2^EXP_BITS, and 2*EXP_BITS + 3 <= W: no product or
# substitution of such keys carries from one field into the next, so a
# result beyond the bound is caught before it is stored.
_W = 64
_MASK = (1 << _W) - 1
EXP_BITS = 28
# the bits at and above EXP_BITS in each of the four fields
_HIGH = ((1 << _W) - (1 << EXP_BITS)) * ((1 << 4 * _W) - 1) // _MASK
_T = 1 << 3 * _W | 1 << 2 * _W  # the key of T = ab


def _unkey(key: int) -> Monomial:
    return key >> 3 * _W, key >> 2 * _W & _MASK, key >> _W & _MASK, key & _MASK


def _made(re: dict, im: dict, den: int) -> "MultiPoly":
    """The value with numerators re and im over den, zeros dropped, after
    checking that every exponent is below 2^EXP_BITS."""
    p = MultiPoly._make({k: c for k, c in re.items() if c}, {k: c for k, c in im.items() if c}, den)
    if reduce(or_, p._keys(), 0) & _HIGH:
        raise OverflowError(f"a MultiPoly exponent reached 2^{EXP_BITS}")
    return p


def _conv(acc: defaultdict, x: dict, y: dict, sign: int = 1) -> defaultdict:
    """acc + sign * x * y for numerator dicts keyed by packed monomials."""
    for k1, c1 in x.items():
        c1 *= sign
        for k2, c2 in y.items():
            acc[k1 + k2] += c1 * c2
    return acc


class MultiPoly(SparsePoly):
    """Polynomial in a, b, x, y over Q(i) on the ``laurent`` integer store,
    keyed by packed exponent quadruples."""

    __slots__ = ()

    _ONE = (0, 0, 0, 0)
    _NAMES = VAR_NAMES
    _unkey = staticmethod(_unkey)

    @staticmethod
    def _key(mono) -> int:
        mono = tuple(map(index, mono))
        if len(mono) != 4 or not 0 <= min(mono) <= max(mono) < 1 << EXP_BITS:
            raise ValueError(f"bad exponent quadruple: {mono}")
        a, b, x, y = mono
        return a << 3 * _W | b << 2 * _W | x << _W | y

    @classmethod
    def variable(cls, index: int) -> "MultiPoly":
        return cls._make({1 << _W * (3 - index): 1}, {})

    def __mul__(self, other):
        if type(other) is not MultiPoly:
            return NotImplemented
        a, b, c, d = self._re, self._im, other._re, other._im
        re, im = _conv(defaultdict(int), a, c), _conv(defaultdict(int), d, a)
        _conv(re, b, d, -1)
        _conv(im, b, c)
        return _made(re, im, self._den * other._den)

    def substitute(self, images: Sequence["MultiPoly"]) -> "MultiPoly":
        """Evaluate at images = (image of a, of b, of x, of y).

        An image that is a bare monomial (coefficient 1) enters by adding
        exponents.  The terms of self are grouped by their exponents at the
        other images, and each group is multiplied once by the cached
        powers of those images."""
        if len(images) != 4:
            raise ValueError("need exactly four images")
        slots, others = [], []  # (position, key) of each bare monomial; the rest
        for i, img in enumerate(images):
            if img._den == 1 and not img._im and list(img._re.values()) == [1]:
                slots.append((i, next(iter(img._re))))
            else:
                others.append(i)
        groups = {}
        for part, numerators in enumerate((self._re, self._im)):
            for key, c in numerators.items():
                exps = _unkey(key)
                shift = 0
                for i, unit in slots:
                    shift += exps[i] * unit
                acc = groups.setdefault(tuple(map(exps.__getitem__, others)), ({}, {}))[part]
                acc[shift] = acc.get(shift, 0) + c
        power = cache(lambda i, n: images[i] ** n)
        total = MultiPoly.zero()
        for rest, (re, im) in groups.items():
            term = _made(re, im, self._den)
            for i, n in zip(others, rest):
                if n:
                    term = term * power(i, n)
            total = total + term
        return total

    def weighted_degrees(self, weights: Sequence[int]) -> set[int]:
        """The set of weighted degrees of the monomials present."""
        return {sum(e * w for e, w in zip(_unkey(k), weights)) for k in self._keys()}


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
    weights = tuple(map(index, weights))
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

    a, b, x, y = 1 << 3 * _W, 1 << 2 * _W, 1 << _W, 1  # the keys of the variables

    def times(p: LaurentPoly, key: int) -> MultiPoly:
        """p(T) times the monomial of the given key."""
        return _made({j * _T + key: c for j, c in p._re.items()},
                     {j * _T + key: c for j, c in p._im.items()}, p._den)

    x_img = times(matrix.P, x) + times(matrix.Q, e * a + y)
    y_img = times(matrix.S, e * b + x) + times(matrix.R, y)
    return PolyMap((MultiPoly.variable(0), MultiPoly.variable(1), x_img, y_img))
