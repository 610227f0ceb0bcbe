"""Sparse polynomials over Q(i): the shared integer kernel ``SparsePoly`` and
the Laurent polynomials in one variable T built on it.

A value is integers over one common denominator: ``_re`` maps each monomial
key to the numerator of the real part of its coefficient, ``_im`` does the
same for the imaginary part (empty when no coefficient has one), and
``_den`` > 0 is coprime to the numerators taken together.  No stored
numerator is zero, so every value has one representation; the zero
polynomial is ({}, {}, 1) and has no valuation or degree (callers branch on
``is_zero`` first).  ``LaurentPoly`` keys are exponents of T, which may
be negative; the four-variable ``MultiPoly`` of ``polymaps`` packs its
exponent quadruple into one int.  This store is the package's one
representation of Q(i): the constructors read each coefficient, an int, a
Fraction or a ``GaussianRational`` record, straight into it, and ``coeff``
and ``items`` hand coefficients back as records.

Laurent products use Kronecker substitution (Harvey, "Faster polynomial
multiplication via multipoint Kronecker substitution", JSC 2009), through
one kernel, ``_product_sum``, for any sum of products sign_k * T^t_k * x_k * y_k:
``p * q`` is its one-pair case, and a 2x2 matrix entry or determinant
a*b + s*T^t*c*d its two-pair case.  Each operand is evaluated once at
2^bits, with bits wide enough for every coefficient of the sum; the
products, the shifts T^t_k, the signs and the sum are integer operations;
and the signed base-2^bits digits of the total are the numerators, read
and brought to lowest terms once.  With imaginary parts, (a + bi)(c + di)
takes the three products ac, bd and (a + b)(c + d).

The width: pair k is put over the common denominator D = lcm_k(den x_k *
den y_k) by the factor f_k = D / (den x_k * den y_k).  With ||p||_1 the sum
and ||p||_inf the largest of the |re| and |im| over p's numerators, each
real or imaginary numerator of x*y sums products of one numerator of x
and one of y, each numerator of x at most once, so it is at most
||x||_1 * ||y||_inf, and likewise at most ||x||_inf * ||y||_1.  Every
numerator of the sum is therefore at most
B = sum_k f_k * min(||x_k||_1 * ||y_k||_inf, ||x_k||_inf * ||y_k||_1), and
bits = B.bit_length() + 1 keeps it a signed digit below 2^(bits-1).

Arithmetic takes operands of one type: ``+ - * ==`` pair two polynomials of
the same class, and a scalar c enters through a constructor, as in
``p * LaurentPoly.constant(c)``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import index
from typing import Iterable, Optional, Union

from .gaussian import GaussianRational, RationalLike, as_rational, power

CoeffLike = Union[int, Fraction, GaussianRational]


class SparsePoly:
    """Sparse polynomial over Q(i) on the integer store described above.

    A subclass fixes its monomials: ``_key`` turns a monomial into its key,
    ``_unkey`` turns it back, ``_ONE`` is the constant monomial, ``_NAMES``
    are the variables, and ``__mul__`` multiplies.  Every other ring operation lives here.
    Operands must be of the caller's own class, so polynomials of two
    subclasses never mix.
    """

    __slots__ = ("_re", "_im", "_den")

    def __init__(self, terms: Optional[dict] = None):
        parts = {}
        for k, c in (terms or {}).items():
            if type(c) is GaussianRational:
                parts[self._key(k)] = c.re, c.im
            else:
                parts[self._key(k)] = c if type(c) is int else as_rational(c), 0
        # the numerators over the lcm of the denominators have no common factor with it
        den = lcm(*(x.denominator for pair in parts.values() for x in pair))
        self._re, self._im, self._den = {}, {}, den
        for k, (re, im) in parts.items():
            if re:
                self._re[k] = re.numerator * (den // re.denominator)
            if im:
                self._im[k] = im.numerator * (den // im.denominator)

    @classmethod
    def _make(cls, re: dict, im: dict, den: int = 1):
        """The value with nonzero numerators re and im over den, brought to
        lowest terms."""
        g = gcd(den, *re.values(), *im.values()) if den != 1 else 1
        out = cls.__new__(cls)
        if g != 1:
            den //= g
            re = {k: c // g for k, c in re.items()}
            im = {k: c // g for k, c in im.items()}
        out._re, out._im, out._den = re, im, den
        return out

    @classmethod
    def zero(cls):
        return cls._make({}, {})

    @classmethod
    def constant(cls, c: CoeffLike):
        return cls({cls._ONE: c})

    @classmethod
    def monomial(cls, key, c: CoeffLike = 1):
        return cls({key: c})

    def _keys(self):
        return self._re.keys() | self._im.keys() if self._im else self._re.keys()

    def coeff(self, mono) -> GaussianRational:
        """The coefficient of a monomial; zero when absent."""
        k = self._key(mono)
        re, im = self._re.get(k, 0), self._im.get(k, 0)
        if self._den == 1:
            return GaussianRational(re, im)
        return GaussianRational(Fraction(re, self._den), Fraction(im, self._den))

    def items(self) -> list:
        """(monomial, coefficient) for each term, in ascending monomial order."""
        return [(mono, self.coeff(mono)) for mono in map(self._unkey, sorted(self._keys()))]

    @property
    def is_zero(self) -> bool:
        return not self._re and not self._im

    @property
    def is_real(self) -> bool:
        return not self._im

    def bar(self):
        """Coefficientwise complex conjugation; the variables are fixed."""
        if not self._im:
            return self
        return self._make(self._re, {k: -c for k, c in self._im.items()}, self._den)

    def _binary(self, other, sign: int):
        """self + sign*other over the lcm of the two denominators."""
        den = lcm(self._den, other._den)
        f, g = den // self._den, sign * (den // other._den)
        parts = []
        for x, y in ((self._re, other._re), (self._im, other._im)):
            acc = {k: f * c for k, c in x.items()} if f != 1 else dict(x)
            for k, c in y.items():
                c = acc.get(k, 0) + g * c
                if c:
                    acc[k] = c
                else:
                    del acc[k]
            parts.append(acc)
        return self._make(*parts, den)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._binary(other, +1)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._binary(other, -1)

    def __neg__(self):
        return self.zero() - self

    def __pow__(self, n: int):
        return power(self, n, self.constant(1))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._den == other._den and self._re == other._re and self._im == other._im

    def __hash__(self):
        return hash((self._den, frozenset(self._re.items()), frozenset(self._im.items())))

    def __str__(self):
        """The terms as (c)*v^e factors, in ascending monomial order."""
        parts = []
        for mono, c in self.items():
            factors = [f"({c})"]
            for name, e in zip(self._NAMES, mono if type(mono) is tuple else (mono,)):
                if e:
                    factors.append(name if e == 1 else f"{name}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts) or "0"

    def __repr__(self):
        return f"{type(self).__name__}({self})"


# Kronecker packing splits a packed value of more than this many bits in
# two, so packing and reading cost n log n in its length n rather than n^2;
# below it plain shifts are faster.
_SPLIT = 1 << 12


def _evaluate(terms, low: int, bits: int) -> int:
    """sum c * 2^(bits*(k - low)) over (k, c) terms, none below low."""
    if len(terms) < 2 or len(terms) * bits <= _SPLIT:
        value = 0
        for k, c in terms:
            value += c << bits * (k - low)
        return value
    terms = sorted(terms)
    half = len(terms) // 2
    mid = terms[half][0]
    upper = _evaluate(terms[half:], mid, bits)
    return _evaluate(terms[:half], low, bits) + (upper << bits * (mid - low))


def _unpack(value: int, low: int, bits: int) -> dict:
    """{low + j: d_j} for the signed digits |d_j| < 2^(bits-1) of value =
    sum d_j 2^(bits*j); zero digits are left out."""
    count = value.bit_length() // bits + 1
    if count > 1 and value.bit_length() > _SPLIT:
        # the lower half of the digits is the remainder of least magnitude
        shift = bits * (count // 2)
        lower = value & ((1 << shift) - 1)
        if lower >> (shift - 1):
            lower -= 1 << shift
        upper = _unpack((value - lower) >> shift, low + count // 2, bits)
        return {**_unpack(lower, low, bits), **upper}
    out = {}
    full = 1 << bits
    half, mask = full >> 1, full - 1
    while value:
        digit = value & mask
        value >>= bits
        if digit >= half:
            digit -= full
            value += 1
        if digit:
            out[low] = digit
        low += 1
    return out


def _operand(p) -> tuple[int, int, int]:
    """(valuation, ||p||_1, ||p||_inf) of a nonzero p, over its numerators."""
    re, im = p._re, p._im
    if im:
        magnitudes = [*map(abs, re.values()), *map(abs, im.values())]
        return min(re.keys() | im.keys()), sum(magnitudes), max(magnitudes)
    magnitudes = [*map(abs, re.values())]
    return min(re), sum(magnitudes), max(magnitudes)


def _product_sum(pairs) -> "LaurentPoly":
    """sum sign * T^shift * x * y over the (x, y, shift, sign) in pairs, sign
    = +-1, by one Kronecker evaluation at the width of the module docstring."""
    live, low = [], None
    for x, y, shift, sign in pairs:
        if (x._re or x._im) and (y._re or y._im):
            vx, x1, xmax = _operand(x)
            vy, y1, ymax = _operand(y)
            v = vx + vy + shift
            if low is None or v < low:
                low = v
            live.append((x, y, vx, vy, v, sign, x._den * y._den, min(x1 * ymax, xmax * y1)))
    if not live:
        return LaurentPoly.zero()
    den = live[0][6] if len(live) == 1 else lcm(*[pair[6] for pair in live])
    bound = 0
    for *_, d, size in live:
        bound += den // d * size
    bits = bound.bit_length() + 1
    re = im = 0
    for x, y, vx, vy, v, sign, d, _ in live:
        a = _evaluate(x._re.items(), vx, bits) if x._re else 0
        b = _evaluate(x._im.items(), vx, bits) if x._im else 0
        c = _evaluate(y._re.items(), vy, bits) if y._re else 0
        e = _evaluate(y._im.items(), vy, bits) if y._im else 0
        scale, offset = sign * (den // d), bits * (v - low)
        ac, be = a * c, b * e
        re += scale * (ac - be) << offset
        if b or e:
            im += scale * ((a + b) * (c + e) - ac - be) << offset
    return LaurentPoly._make(_unpack(re, low, bits), _unpack(im, low, bits), den)


class LaurentPoly(SparsePoly):
    """Element of Q(i)[T, T^-1], held sparse and canonical; keys are the
    exponents of T."""

    __slots__ = ()

    _key = _unkey = index  # an exponent is an int: a float or Fraction raises TypeError
    _ONE = 0
    _NAMES = ("T",)

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls._make({0: 1}, {})

    @classmethod
    def variable(cls) -> "LaurentPoly":
        """The generator T."""
        return cls._make({1: 1}, {})

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[CoeffLike], valuation: int = 0) -> "LaurentPoly":
        """Build from an ascending coefficient list starting at `valuation`."""
        valuation = index(valuation)
        return cls({valuation + j: c for j, c in enumerate(coeffs)})

    @property
    def is_polynomial(self) -> bool:
        """True when no negative exponent occurs (the zero polynomial counts)."""
        return min(self._keys(), default=0) >= 0

    @property
    def is_constant(self) -> bool:
        return self._keys() <= {0}

    def valuation(self) -> int:
        if self.is_zero:
            raise ValueError("the zero polynomial has no valuation")
        return min(self._keys())

    def degree(self) -> int:
        if self.is_zero:
            raise ValueError("the zero polynomial has no degree")
        return max(self._keys())

    def truncate_mod(self, m: int) -> "LaurentPoly":
        """Reduce a polynomial mod T^m: drop every term of exponent >= m."""
        if index(m) < 1:
            raise ValueError("modulus exponent must be positive")
        if not self.is_polynomial:
            raise ValueError("truncate_mod needs a polynomial, not a Laurent value")
        return self._make(*({e: c for e, c in part.items() if e < m}
                            for part in (self._re, self._im)), self._den)

    def apply_scaling(self, r: RationalLike) -> "LaurentPoly":
        """r * p(r^2 T), computed coefficientwise: c_j -> r^(2j+1) * c_j.

        Defined termwise rather than by substitution so it stays exact and
        total on truncated inputs; the two definitions agree on polynomials.
        """
        r = as_rational(r)
        if not r:
            raise ValueError("scaling factor must be nonzero")
        if not self.is_real:
            raise ValueError("apply_scaling is defined for real inputs")
        return LaurentPoly({e: Fraction(c, self._den) * r ** (2 * e + 1)
                            for e, c in self._re.items()})

    def __mul__(self, other):
        if type(other) is not LaurentPoly:
            return NotImplemented
        return _product_sum(((self, other, 0, 1),))

    def to_json(self):
        """Ascending coefficient array for polynomials; otherwise
        {"valuation": v, "coeffs": [...]}."""
        if self.is_zero:
            return []
        lo = min(self.valuation(), 0)
        coeffs = [self.coeff(e).to_json() for e in range(lo, self.degree() + 1)]
        return coeffs if lo == 0 else {"valuation": lo, "coeffs": coeffs}

    @classmethod
    def from_json(cls, obj) -> "LaurentPoly":
        """The inverse of to_json.  A valuation must be <= 0, as to_json
        writes it, so every exponent read is bounded by the document's length."""
        if isinstance(obj, list):
            obj = {"valuation": 0, "coeffs": obj}
        if not (isinstance(obj, dict) and "valuation" in obj and "coeffs" in obj):
            raise ValueError(f"not a Laurent polynomial object: {obj!r}")
        if type(obj["valuation"]) is not int:
            raise ValueError(f"valuation must be a JSON integer: {obj['valuation']!r}")
        if obj["valuation"] > 0:
            raise ValueError(f"valuation must not be positive: {obj['valuation']!r}")
        return cls.from_coeffs([GaussianRational.from_json(c) for c in obj["coeffs"]],
                               valuation=obj["valuation"])


def geometric_sum(base: LaurentPoly, count: int) -> LaurentPoly:
    """sum_{j=0}^{count-1} base^j  (the empty sum is 0, count=1 gives 1)."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    total = LaurentPoly.zero()
    power = LaurentPoly.one()
    for j in range(count):
        if j:
            power = power * base
        total = total + power
    return total
