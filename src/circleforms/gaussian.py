"""Exact arithmetic in Q and Q(i).

Rationals are ``fractions.Fraction`` (arbitrary precision, always canonical:
positive denominator, reduced, zero as 0/1).  ``GaussianRational`` is the
record (re, im) of one coefficient re + im*i at the polynomial API boundary;
the arithmetic of Q(i) runs on the integer store of ``laurent``.  No
floating point anywhere.  Every library entry point that takes a rational
takes an int or a Fraction only (``as_rational``): a float or a string
raises TypeError, so no inexact value and no unchecked text gets in.

parse_rational is the one reader of the text form of a rational (command
line and JSON) and format_rational the one writer.  Both refuse a numerator
or denominator longer than sys.get_int_max_str_digits() digits: the reader
before the value is computed, the writer with DigitLimitError.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from operator import index
from typing import Optional, Union

RationalLike = Union[int, Fraction]

# The text forms fractions.Fraction reads: a sign, then digits over an
# optional denominator, or a decimal with an optional exponent.  As in
# Fraction, a digit is any Unicode decimal digit ("١" reads as 1).
_RATIONAL_TEXT = re.compile(r"""
    \s*(?P<sign>[-+]?)(?=\d|\.\d)(?P<num>\d*|\d+(?:_\d+)*)
    (?:/(?P<den>\d+(?:_\d+)*)
     |(?:\.(?P<dec>\d*|\d+(?:_\d+)*))?(?:[eE](?P<exp>[-+]?\d+(?:_\d+)*))?)
    \s*""", re.VERBOSE)


def _exponent(text: Optional[str]) -> int:
    """The value of an exponent, capped at 10**18 in size: any larger one
    makes a numerator or denominator too long, and is not converted."""
    if not text:
        return 0
    digits = text.lstrip("+-").replace("_", "").lstrip("0")
    size = int(digits or "0") if len(digits) <= 18 else 10 ** 18
    return -size if text[0] == "-" else size


def parse_rational(text: str) -> Fraction:
    """Parse the text form of a rational: "-3/4", "7", "0", "1.5", "1e3".

    A numerator or denominator longer than sys.get_int_max_str_digits()
    digits, as written and before reduction, raises OverflowError before its
    value is computed; text that is not a rational raises ValueError."""
    match = _RATIONAL_TEXT.fullmatch(text)
    if match is None:
        raise ValueError(f"invalid literal for a rational: {text!r}")
    num = match["num"].replace("_", "")
    if match["den"] is not None:
        den = match["den"].replace("_", "")
        shift = 0
    else:
        dec = (match["dec"] or "").replace("_", "")
        num, den = num + dec, "1"
        shift = _exponent(match["exp"]) - len(dec)
    # the default limit stands in when it is switched off: no input may cost unbounded time
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    if max(len(num) + shift, len(den) - shift) > limit:
        raise OverflowError(f"a numerator or denominator has more than {limit} digits, "
                            "the int/str conversion limit (sys.get_int_max_str_digits())")
    n, d = int(num or "0"), int(den)
    if shift >= 0:
        n *= 10 ** shift
    else:
        d *= 10 ** -shift
    return Fraction(-n if match["sign"] == "-" else n, d)


def json_rational(value) -> Fraction:
    """Read a rational from JSON: its text form or a JSON integer.  Floats are
    refused (0.1 has no exact value), and so are bools and everything else."""
    if isinstance(value, str):
        return parse_rational(value)
    if type(value) is not int:
        raise ValueError(f"a JSON rational must be a string or an integer: {value!r}")
    return Fraction(value)


def as_rational(x: RationalLike) -> Fraction:
    """x as a Fraction, for an int or a Fraction.  Anything else raises
    TypeError: a float has no exact value, and text goes through
    parse_rational, which caps its length."""
    if type(x) is Fraction:
        return x
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"a rational must be an int or a Fraction, not {type(x).__name__}: {x!r}")
    return Fraction(x)


class DigitLimitError(ValueError):
    """Raised by format_rational alone: the rational has a numerator or
    denominator longer than sys.get_int_max_str_digits() allows to print."""


def format_rational(q: RationalLike) -> str:
    """Render a rational as "num/den", omitting the denominator when 1."""
    q = as_rational(q)
    try:
        if q.denominator == 1:
            return str(q.numerator)
        return f"{q.numerator}/{q.denominator}"
    except ValueError:
        raise DigitLimitError(
            f"a rational in the result has more than {sys.get_int_max_str_digits()} digits, "
            "the int/str conversion limit (sys.get_int_max_str_digits())") from None


def integer_kth_root(n: int, k: int) -> Optional[int]:
    """Exact k-th root of a nonnegative integer, or None if n is not a k-th power."""
    if n < 0 or k < 1:
        raise ValueError("need n >= 0 and k >= 1")
    if n in (0, 1) or k == 1:
        return n
    # Newton iteration from a power-of-two upper bound; exact integer arithmetic.
    x = 1 << (-(-n.bit_length() // k))
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    return x if x ** k == n else None


def rational_odd_root(q: RationalLike, k: int) -> Optional[Fraction]:
    """The unique rational r with r**k == q, for odd k >= 1; None if no such r.

    Odd k makes the real root unique, with the sign carried by the numerator;
    r is rational exactly when numerator and denominator are both k-th powers.
    """
    if index(k) < 1 or k % 2 == 0:
        raise ValueError("k must be an odd positive integer")
    q = as_rational(q)
    num = integer_kth_root(abs(q.numerator), k)
    if num is None:
        return None
    den = integer_kth_root(q.denominator, k)
    if den is None:
        return None
    return Fraction(num if q >= 0 else -num, den)


def power(base, n: int, one):
    """base ** n by repeated squaring, for an int n >= 0 and the unit `one`
    of base's ring."""
    n = index(n)
    if n < 0:
        raise ValueError("exponent must be a nonnegative integer")
    result = None
    while n:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if n:
            base = base * base
    return one if result is None else result


@dataclass(frozen=True, slots=True)
class GaussianRational:
    """One coefficient re + im*i of Q(i) at the polynomial API boundary: the
    constructors take it, ``coeff`` and ``items`` return it, and it is the
    text (``str``) and JSON form of a coefficient.  Both parts are Fractions;
    equality and hashing are those of the pair, and never equal a plain
    scalar."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "re", as_rational(self.re))
        object.__setattr__(self, "im", as_rational(self.im))

    # kept only for the benchmark's gaussian.add/mul counters and the tests' dict kernel
    def __add__(self, other):
        if type(other) is not GaussianRational:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            return NotImplemented
        a, b, c, d = self.re, self.im, other.re, other.im
        return GaussianRational(a * c - b * d, a * d + b * c)

    def __str__(self):
        if not self.im:
            return format_rational(self.re)
        im = format_rational(abs(self.im)) + "i"
        if im == "1i":
            im = "i"
        sign = "+" if self.im > 0 else "-"
        if not self.re:
            return im if sign == "+" else "-" + im
        return f"{format_rational(self.re)}{sign}{im}"

    def to_json(self) -> dict:
        """{"re": "...", "im": "..."} with "im" omitted when zero."""
        obj = {"re": format_rational(self.re)}
        if self.im:
            obj["im"] = format_rational(self.im)
        return obj

    @classmethod
    def from_json(cls, obj) -> "GaussianRational":
        if not isinstance(obj, dict) or "re" not in obj:
            raise ValueError(f"not a Gaussian rational object: {obj!r}")
        return cls(json_rational(obj["re"]), json_rational(obj.get("im", 0)))
