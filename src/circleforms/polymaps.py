"""Expanded four-variable symbolic engine.

Polynomial self-maps of C^4 in the coordinates (a, b, x, y), optionally
pre-composed with coefficientwise conjugation, are the ground truth that the
structured-matrix shortcuts get validated against.  Everything here is exact
and pure; the expanded view is a verification layer, not the production path.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .gaussian import GaussianRational
from .laurent import LaurentPoly
from .matrices import StructuredMatrix

Monomial = tuple[int, int, int, int]

VAR_NAMES = ("a", "b", "x", "y")


def _coeff(value) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    return GaussianRational(value)


class MultiPoly:
    """Polynomial in a, b, x, y over Q(i); sparse map from exponent quadruples."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Optional[dict] = None):
        canon = {}
        if terms:
            for mono, c in terms.items():
                c = _coeff(c)
                if not c.is_zero:
                    mono = tuple(int(e) for e in mono)
                    if len(mono) != 4 or any(e < 0 for e in mono):
                        raise ValueError(f"bad exponent quadruple: {mono}")
                    canon[mono] = c
        self._terms = canon

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls()

    @classmethod
    def constant(cls, c) -> "MultiPoly":
        return cls({(0, 0, 0, 0): c})

    @classmethod
    def variable(cls, index: int) -> "MultiPoly":
        mono = [0, 0, 0, 0]
        mono[index] = 1
        return cls({tuple(mono): 1})

    @classmethod
    def monomial(cls, mono: Monomial, c=1) -> "MultiPoly":
        return cls({mono: c})

    def items(self):
        return self._terms.items()

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_real(self) -> bool:
        return all(c.is_real for c in self._terms.values())

    def bar(self) -> "MultiPoly":
        if self.is_real:
            return self
        out = MultiPoly()
        out._terms = {m: c.conjugate() for m, c in self._terms.items()}
        return out

    def _binary(self, other: "MultiPoly", sign: int) -> "MultiPoly":
        acc = dict(self._terms)
        for m, c in other._terms.items():
            cur = acc.get(m)
            new = c if sign > 0 else -c
            if cur is not None:
                new = cur + new
            if new.is_zero:
                acc.pop(m, None)
            else:
                acc[m] = new
        out = MultiPoly()
        out._terms = acc
        return out

    @staticmethod
    def _coerce(value) -> Optional["MultiPoly"]:
        if isinstance(value, MultiPoly):
            return value
        if isinstance(value, (int, Fraction, GaussianRational)):
            return MultiPoly.constant(value)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._binary(other, +1)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._binary(other, -1)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        out = MultiPoly()
        out._terms = {m: -c for m, c in self._terms.items()}
        return out

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scalar_mul(other)
        if not isinstance(other, MultiPoly):
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

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scalar_mul(other)
        return NotImplemented

    def scalar_mul(self, c) -> "MultiPoly":
        c = _coeff(c)
        if c.is_zero:
            return MultiPoly()
        out = MultiPoly()
        out._terms = {m: c * v for m, v in self._terms.items()}
        return out

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = MultiPoly.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def substitute(self, images: Sequence["MultiPoly"]) -> "MultiPoly":
        """Evaluate at images = (image of a, of b, of x, of y)."""
        if len(images) != 4:
            raise ValueError("need exactly four images")
        pow_cache: list[dict[int, MultiPoly]] = [
            {0: MultiPoly.constant(1), 1: img} for img in images
        ]

        def power(i: int, n: int) -> "MultiPoly":
            cache = pow_cache[i]
            got = cache.get(n)
            if got is None:
                got = images[i] ** n
                cache[n] = got
            return got

        total = MultiPoly.zero()
        for mono, c in self._terms.items():
            term = MultiPoly.constant(c)
            for i, exp in enumerate(mono):
                if exp:
                    term = term * power(i, exp)
            total = total + term
        return total

    def weighted_degrees(self, weights: Sequence[int]) -> set[int]:
        """The set of weighted degrees of the monomials present."""
        return {
            sum(e * w for e, w in zip(mono, weights)) for mono in self._terms
        }

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self):
        return f"MultiPoly({self})"

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
    """Polynomial self-map of C^4, stored as the four coordinate images."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[MultiPoly]):
        images = tuple(images)
        if len(images) != 4:
            raise ValueError("a polynomial self-map of C^4 needs four images")
        self.images = images

    @classmethod
    def identity(cls) -> "PolyMap":
        return cls(tuple(MultiPoly.variable(i) for i in range(4)))

    @classmethod
    def coordinate_swap(cls) -> "PolyMap":
        """(a, b, x, y) -> (b, a, y, x)."""
        v = [MultiPoly.variable(i) for i in range(4)]
        return cls((v[1], v[0], v[3], v[2]))

    def compose(self, other: "PolyMap") -> "PolyMap":
        """self after other: v -> self(other(v))."""
        return PolyMap(tuple(img.substitute(other.images) for img in self.images))

    def bar(self) -> "PolyMap":
        return PolyMap(tuple(img.bar() for img in self.images))

    @property
    def is_real(self) -> bool:
        return all(img.is_real for img in self.images)

    def is_identity(self) -> bool:
        return self == PolyMap.identity()

    def __eq__(self, other):
        if not isinstance(other, PolyMap):
            return NotImplemented
        return self.images == other.images

    def __repr__(self):
        body = ", ".join(f"{n} -> {img}" for n, img in zip(VAR_NAMES, self.images))
        return f"PolyMap({body})"


class RealStructureMap:
    """A polynomial map optionally pre-composed with coordinatewise conjugation.

    Semantics: v -> map(conj(v)) when conjugates_input is set, else v -> map(v).
    Antiholomorphic involutions (real forms) carry the flag; ordinary
    automorphisms do not.
    """

    __slots__ = ("map", "conjugates_input")

    def __init__(self, poly_map: PolyMap, conjugates_input: bool):
        self.map = poly_map
        self.conjugates_input = bool(conjugates_input)

    @classmethod
    def identity(cls) -> "RealStructureMap":
        return cls(PolyMap.identity(), False)

    def __eq__(self, other):
        if not isinstance(other, RealStructureMap):
            return NotImplemented
        return self.conjugates_input == other.conjugates_input and self.map == other.map

    def __repr__(self):
        flag = "conj" if self.conjugates_input else "holo"
        return f"RealStructureMap[{flag}]({self.map!r})"


def compose(f: RealStructureMap, g: RealStructureMap) -> RealStructureMap:
    """f after g.  Conjugation moves through the polynomial part of g by
    conjugating its coefficients, so the result is again map-then-maybe-conj."""
    inner = g.map.bar() if f.conjugates_input else g.map
    return RealStructureMap(f.map.compose(inner), f.conjugates_input ^ g.conjugates_input)


def is_involution(f: RealStructureMap) -> bool:
    return compose(f, f) == RealStructureMap.identity()


def _check_weights(weights: Sequence[int]) -> tuple[int, int, int, int]:
    weights = tuple(int(w) for w in weights)
    if len(weights) != 4 or weights[1] != -weights[0] or weights[3] != -weights[2]:
        raise ValueError(f"weights must look like (k, -k, n, -n): {weights}")
    return weights


def weight_check(f: PolyMap, weights: Sequence[int], sign: int = 1) -> bool:
    """Equivariance grading check.

    With sign +1, component i must be homogeneous of weighted degree w_i
    (a holomorphic equivariant map).  With sign -1 it must be homogeneous of
    weight -w_i, which is the grading a conjugating map must satisfy to be
    compatible with the circle real structure t -> conj(t)^-1.
    """
    weights = _check_weights(weights)
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    for img, w in zip(f.images, weights):
        if img.is_zero:
            continue
        if img.weighted_degrees(weights) != {sign * w}:
            return False
    return True


def o2_relation_check(tau: PolyMap, weights: Sequence[int]) -> bool:
    """True when tau is an involution that inverts the torus action, i.e.
    tau^2 = id and every component is homogeneous of opposite weight."""
    return weight_check(tau, weights, sign=-1) and tau.compose(tau).is_identity()


def expand(matrix: StructuredMatrix, weights: Sequence[int] | None = None) -> PolyMap:
    """The four-variable map fixing (a, b) and acting on (x, y) by the matrix,
    with the a^e, b^e factors written out.  Requires polynomial entries."""
    e = matrix.e
    for entry in matrix.entries():
        if not entry.is_polynomial:
            raise ValueError("cannot expand a matrix with Laurent entries")
    if weights is not None:
        _check_weights(weights)

    def tpow(p: LaurentPoly, extra_a: int, var: int) -> MultiPoly:
        # c*T^j -> c * a^(j+extra_a on a side) ... T = ab, plus a^e or b^e factor.
        terms = {}
        for j, c in p.items():
            if var == 0:
                mono = (j + extra_a, j, 0, 0)
            else:
                mono = (j, j + extra_a, 0, 0)
            terms[mono] = c
        return MultiPoly(terms)

    a_img = MultiPoly.variable(0)
    b_img = MultiPoly.variable(1)
    x_var = MultiPoly.variable(2)
    y_var = MultiPoly.variable(3)
    x_img = tpow(matrix.P, 0, 0) * x_var + tpow(matrix.Q, e, 0) * y_var
    y_img = tpow(matrix.S, e, 1) * x_var + tpow(matrix.R, 0, 0) * y_var
    return PolyMap((a_img, b_img, x_img, y_img))


def scaling_map(omega: GaussianRational, weights: Sequence[int]) -> PolyMap:
    """The linear action of a unit-circle point: v_i -> omega^(w_i) * v_i.

    Restricted to exact circle points (norm_sq = 1, e.g. Pythagorean-triple
    points like (3+4i)/5) so that omega^(-w) = conj(omega)^w stays in Q(i).
    """
    weights = _check_weights(weights)
    if omega.norm_sq() != 1:
        raise ValueError("omega must lie on the unit circle (norm_sq == 1)")
    images = []
    for i, w in enumerate(weights):
        factor = omega ** w if w >= 0 else omega.conjugate() ** (-w)
        images.append(MultiPoly.variable(i) * factor)
    return PolyMap(tuple(images))


def base_scaling_map(r) -> PolyMap:
    """(a, b, x, y) -> (ra, rb, x, y) for a nonzero rational r."""
    r = Fraction(r)
    if not r:
        raise ValueError("base scaling factor must be nonzero")
    v = [MultiPoly.variable(i) for i in range(4)]
    return PolyMap((v[0] * r, v[1] * r, v[2], v[3]))
