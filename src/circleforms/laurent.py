"""Sparse Laurent polynomials in one variable T over Q(i).

Terms live in a dict {exponent: coefficient}; exponents may be negative,
stored coefficients are never zero, and the zero polynomial is the empty
dict.  The zero polynomial has no valuation or degree: callers branch on
``is_zero`` first rather than relying on a sentinel.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Union

from .gaussian import GaussianRational, RationalLike

CoeffLike = Union[int, Fraction, GaussianRational]


def _coeff(value: CoeffLike) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    return GaussianRational(value)


class LaurentPoly:
    """Element of Q(i)[T, T^-1], held sparse and canonical."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Optional[dict] = None):
        canon = {}
        if terms:
            for exp, c in terms.items():
                c = _coeff(c)
                if not c.is_zero:
                    canon[int(exp)] = c
        self._terms = canon

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def variable(cls) -> "LaurentPoly":
        """The generator T."""
        return cls({1: 1})

    @classmethod
    def constant(cls, c: CoeffLike) -> "LaurentPoly":
        return cls({0: c})

    @classmethod
    def monomial(cls, exp: int, c: CoeffLike = 1) -> "LaurentPoly":
        return cls({exp: c})

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[CoeffLike], valuation: int = 0) -> "LaurentPoly":
        """Build from an ascending coefficient list starting at `valuation`."""
        return cls({valuation + j: c for j, c in enumerate(coeffs)})

    def items(self):
        return self._terms.items()

    def sorted_items(self):
        return sorted(self._terms.items())

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_real(self) -> bool:
        return all(c.is_real for c in self._terms.values())

    @property
    def is_polynomial(self) -> bool:
        """True when no negative exponent occurs (the zero polynomial counts)."""
        return all(e >= 0 for e in self._terms)

    @property
    def is_constant(self) -> bool:
        return not self._terms or set(self._terms) == {0}

    def coeff(self, exp: int) -> GaussianRational:
        """Coefficient at T^exp; zero for absent exponents."""
        c = self._terms.get(exp)
        return c if c is not None else GaussianRational(0)

    def constant_value(self) -> GaussianRational:
        if not self.is_constant:
            raise ValueError(f"not a constant: {self}")
        return self.coeff(0)

    def valuation(self) -> int:
        if not self._terms:
            raise ValueError("the zero polynomial has no valuation")
        return min(self._terms)

    def degree(self) -> int:
        if not self._terms:
            raise ValueError("the zero polynomial has no degree")
        return max(self._terms)

    def monomial_parts(self) -> Optional[tuple[GaussianRational, int]]:
        """(c, k) when the value is a single term c*T^k, else None."""
        if len(self._terms) != 1:
            return None
        ((exp, c),) = self._terms.items()
        return c, exp

    def bar(self) -> "LaurentPoly":
        """Coefficientwise complex conjugation; T itself is fixed."""
        if self.is_real:
            return self
        out = LaurentPoly()
        out._terms = {e: c.conjugate() for e, c in self._terms.items()}
        return out

    def truncate_mod(self, m: int) -> "LaurentPoly":
        """Reduce a polynomial mod T^m: drop every term of exponent >= m."""
        if m < 1:
            raise ValueError("modulus exponent must be positive")
        if not self.is_polynomial:
            raise ValueError("truncate_mod needs a polynomial, not a Laurent value")
        return LaurentPoly({e: c for e, c in self._terms.items() if e < m})

    def apply_scaling(self, r: RationalLike) -> "LaurentPoly":
        """r * p(r^2 T), computed coefficientwise: c_j -> r^(2j+1) * c_j.

        Defined termwise rather than by substitution so it stays exact and
        total on truncated inputs; the two definitions agree on polynomials.
        """
        r = Fraction(r)
        if not r:
            raise ValueError("scaling factor must be nonzero")
        if not self.is_real:
            raise ValueError("apply_scaling is defined for real inputs")
        return LaurentPoly({e: c * r ** (2 * e + 1) for e, c in self._terms.items()})

    def _binary(self, other, sign: int) -> "LaurentPoly":
        acc = dict(self._terms)
        for e, c in other._terms.items():
            cur = acc.get(e)
            new = c if sign > 0 else -c
            if cur is not None:
                new = cur + new
            if new.is_zero:
                acc.pop(e, None)
            else:
                acc[e] = new
        out = LaurentPoly()
        out._terms = acc
        return out

    @staticmethod
    def _coerce(value) -> Optional["LaurentPoly"]:
        if isinstance(value, LaurentPoly):
            return value
        if isinstance(value, (int, Fraction, GaussianRational)):
            return LaurentPoly.constant(value)
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
        out = LaurentPoly()
        out._terms = {e: -c for e, c in self._terms.items()}
        return out

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scalar_mul(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        acc: dict[int, GaussianRational] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                p = c1 * c2
                cur = acc.get(e)
                acc[e] = p if cur is None else cur + p
        out = LaurentPoly()
        out._terms = {e: c for e, c in acc.items() if not c.is_zero}
        return out

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scalar_mul(other)
        return NotImplemented

    def scalar_mul(self, c: CoeffLike) -> "LaurentPoly":
        c = _coeff(c)
        if c.is_zero:
            return LaurentPoly()
        out = LaurentPoly()
        out._terms = {e: c * v for e, v in self._terms.items()}
        return out

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self):
        return f"LaurentPoly({self})"

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for e, c in self.sorted_items():
            if e == 0:
                parts.append(f"({c})")
            elif e == 1:
                parts.append(f"({c})*T")
            else:
                parts.append(f"({c})*T^{e}")
        return " + ".join(parts)

    def to_json(self):
        """Ascending coefficient array for polynomials; otherwise
        {"valuation": v, "coeffs": [...]}."""
        if self.is_zero:
            return []
        lo, hi = self.valuation(), self.degree()
        if lo >= 0:
            return [self.coeff(e).to_json() for e in range(0, hi + 1)]
        return {"valuation": lo, "coeffs": [self.coeff(e).to_json() for e in range(lo, hi + 1)]}

    @classmethod
    def from_json(cls, obj) -> "LaurentPoly":
        if isinstance(obj, list):
            return cls.from_coeffs([GaussianRational.from_json(c) for c in obj])
        if isinstance(obj, dict) and "valuation" in obj and "coeffs" in obj:
            coeffs = [GaussianRational.from_json(c) for c in obj["coeffs"]]
            return cls.from_coeffs(coeffs, valuation=int(obj["valuation"]))
        raise ValueError(f"not a Laurent polynomial object: {obj!r}")


def geometric_sum(base: LaurentPoly, count: int) -> LaurentPoly:
    """sum_{j=0}^{count-1} base^j  (the empty sum is 0, count=1 gives 1)."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    acc = LaurentPoly.zero()
    power = LaurentPoly.one()
    for _ in range(count):
        acc = acc + power
        power = power * base
    return acc
