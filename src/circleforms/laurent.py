"""Sparse polynomials over Q(i): the shared kernel ``SparsePoly`` and the
Laurent polynomials in one variable T built on it.

Terms live in a dict {monomial key: coefficient}; stored coefficients are
never zero, and the zero polynomial is the empty dict.  ``LaurentPoly`` keys
are exponents of T, which may be negative; the four-variable ``MultiPoly``
of ``polymaps`` keys by exponent quadruples.  The zero polynomial has no
valuation or degree: callers branch on ``is_zero`` first rather than relying
on a sentinel.

Arithmetic takes operands of one type: ``+ - * ==`` pair two polynomials of
the same class, and a scalar c enters through a constructor, as in
``p * LaurentPoly.constant(c)``.
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


class SparsePoly:
    """Sparse polynomial over Q(i): a dict {monomial key: coefficient} in
    which no stored coefficient is zero, so the zero polynomial is the empty
    dict.

    A subclass fixes its monomials: ``_key`` canonicalises one key, ``_ONE``
    is the key of the constant monomial, and ``__mul__`` adds keys.  Every
    other ring operation lives here.  Operands must be of the caller's own
    class, so polynomials of two subclasses never mix.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Optional[dict] = None):
        canon = {}
        if terms:
            key = self._key
            for k, c in terms.items():
                c = _coeff(c)
                if not c.is_zero:
                    canon[key(k)] = c
        self._terms = canon

    @classmethod
    def _wrap(cls, terms: dict):
        """An instance holding `terms`, which must already be canonical."""
        out = cls.__new__(cls)
        out._terms = terms
        return out

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def constant(cls, c: CoeffLike):
        return cls({cls._ONE: c})

    @classmethod
    def monomial(cls, key, c: CoeffLike = 1):
        return cls({key: c})

    def items(self):
        return self._terms.items()

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_real(self) -> bool:
        return all(c.is_real for c in self._terms.values())

    def bar(self):
        """Coefficientwise complex conjugation; the variables are fixed."""
        if self.is_real:
            return self
        return self._wrap({k: c.conjugate() for k, c in self._terms.items()})

    def _binary(self, other, sign: int):
        acc = dict(self._terms)
        for k, c in other._terms.items():
            cur = acc.get(k)
            new = c if sign > 0 else -c
            if cur is not None:
                new = cur + new
            if new.is_zero:
                acc.pop(k, None)
            else:
                acc[k] = new
        return self._wrap(acc)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._binary(other, +1)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._binary(other, -1)

    def __neg__(self):
        return self._wrap({k: -c for k, c in self._terms.items()})

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = self.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self):
        return f"{type(self).__name__}({self})"


class LaurentPoly(SparsePoly):
    """Element of Q(i)[T, T^-1], held sparse and canonical; keys are the
    exponents of T."""

    __slots__ = ()

    _key = int
    _ONE = 0

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def variable(cls) -> "LaurentPoly":
        """The generator T."""
        return cls({1: 1})

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[CoeffLike], valuation: int = 0) -> "LaurentPoly":
        """Build from an ascending coefficient list starting at `valuation`."""
        return cls({valuation + j: c for j, c in enumerate(coeffs)})

    def sorted_items(self):
        return sorted(self._terms.items())

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
        return LaurentPoly({e: c * GaussianRational(r ** (2 * e + 1)) for e, c in self._terms.items()})

    def __mul__(self, other):
        if type(other) is not LaurentPoly:
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
            if type(obj["valuation"]) is not int:
                raise ValueError(f"valuation must be a JSON integer: {obj['valuation']!r}")
            coeffs = [GaussianRational.from_json(c) for c in obj["coeffs"]]
            return cls.from_coeffs(coeffs, valuation=obj["valuation"])
        raise ValueError(f"not a Laurent polynomial object: {obj!r}")


def geometric_sum(base: LaurentPoly, count: int) -> LaurentPoly:
    """sum_{j=0}^{count-1} base^j  (the empty sum is 0, count=1 gives 1)."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    acc: dict[int, GaussianRational] = {}
    power = LaurentPoly.one()
    for j in range(count):
        if j:
            power = power * base
        for e, c in power.items():
            cur = acc.get(e)
            acc[e] = c if cur is None else cur + c
    return LaurentPoly._wrap({e: c for e, c in acc.items() if not c.is_zero})
