"""2x2 matrices of the shape (P(T), a^e Q(T); b^e S(T), R(T)).

Only the four T-polynomials and the cross-exponent e are stored; products
contract the off-diagonal variable factors through a^e * b^e = T^e, which is
the whole point of the representation.  Each entry of a product, and the
det, is one sum of two Laurent products a*b + s*T^t*c*d, computed by the
``laurent`` kernel in one Kronecker evaluation: every operand is packed
once, at the width that entry needs.  One cross-exponent parameter covers
both the weight-(2, 2m+1) family (e = 2m+1) and the weight-(1, 2) case
(e = 4); the algebra is identical.

The polynomial group Lambda, tested by in_lambda(), holds the matrices whose
entries are polynomial in T and whose det is a nonzero constant.  The
splitting matrices K_h are Laurent with det 1, so they lie outside it;
inverse() is the SL_2 adjugate and takes det-1 matrices only.

The Galois twist gamma sends (P, Q, S, R) to (bar R, bar S, bar Q, bar P).
The holomorphic swap-twin, the same swap without conjugation, is never
built: forms.verify_bundle_involution reads M * swap(M) = I in closed form.
"""

from __future__ import annotations

from operator import index

from .laurent import LaurentPoly, _product_sum


class StructuredMatrix:
    __slots__ = ("e", "P", "Q", "S", "R")

    def __init__(self, e: int, P: LaurentPoly, Q: LaurentPoly, S: LaurentPoly, R: LaurentPoly):
        e = index(e)
        if e < 1:
            raise ValueError("cross-exponent e must be a positive integer")
        self.e = e
        self.P = P
        self.Q = Q
        self.S = S
        self.R = R

    @classmethod
    def identity(cls, e: int) -> "StructuredMatrix":
        one, zero = LaurentPoly.one(), LaurentPoly.zero()
        return cls(e, one, zero, zero, one)

    def entries(self) -> tuple[LaurentPoly, LaurentPoly, LaurentPoly, LaurentPoly]:
        return self.P, self.Q, self.S, self.R

    def __mul__(self, other):
        if not isinstance(other, StructuredMatrix):
            return NotImplemented
        if self.e != other.e:
            raise ValueError(f"cross-exponent mismatch: {self.e} != {other.e}")
        e, (P, Q, S, R), (P2, Q2, S2, R2) = self.e, self.entries(), other.entries()
        return StructuredMatrix(
            e,
            _product_sum(((P, P2, 0, 1), (Q, S2, e, 1))),
            _product_sum(((P, Q2, 0, 1), (Q, R2, 0, 1))),
            _product_sum(((S, P2, 0, 1), (R, S2, 0, 1))),
            _product_sum(((R, R2, 0, 1), (S, Q2, e, 1))),
        )

    def det(self) -> LaurentPoly:
        return _product_sum(((self.P, self.R, 0, 1), (self.Q, self.S, self.e, -1)))

    def galois(self) -> "StructuredMatrix":
        return StructuredMatrix(self.e, self.R.bar(), self.S.bar(), self.Q.bar(), self.P.bar())

    def inverse(self) -> "StructuredMatrix":
        """The inverse (R, -Q; -S, P) of a matrix of det 1, such as a
        splitting matrix K_h; any other determinant raises ValueError."""
        if self.det() != LaurentPoly.one():
            raise ValueError("matrix determinant is not 1; no inverse here")
        return StructuredMatrix(self.e, self.R, -self.Q, -self.S, self.P)

    @property
    def is_polynomial(self) -> bool:
        return all(p.is_polynomial for p in self.entries())

    def in_lambda(self) -> bool:
        """Entries polynomial and det a nonzero constant.  The entries are
        checked first, so a Laurent matrix is rejected without a det."""
        if not self.is_polynomial:
            return False
        det = self.det()
        return det.is_constant and not det.is_zero

    def __eq__(self, other):
        if not isinstance(other, StructuredMatrix):
            return NotImplemented
        return (self.e == other.e and self.P == other.P and self.Q == other.Q
                and self.S == other.S and self.R == other.R)

    def __hash__(self):
        return hash((self.e, self.P, self.Q, self.S, self.R))

    def __repr__(self):
        return (f"StructuredMatrix(e={self.e}, P={self.P}, Q={self.Q}, "
                f"S={self.S}, R={self.R})")

    def to_json(self) -> dict:
        return {
            "e": self.e,
            "P": self.P.to_json(),
            "Q": self.Q.to_json(),
            "S": self.S.to_json(),
            "R": self.R.to_json(),
        }

    @classmethod
    def from_json(cls, obj) -> "StructuredMatrix":
        if not isinstance(obj, dict):
            raise ValueError(f"not a structured matrix object: {obj!r}")
        try:
            if type(obj["e"]) is not int:
                raise ValueError(f"cross-exponent e must be a JSON integer: {obj['e']!r}")
            return cls(
                obj["e"],
                LaurentPoly.from_json(obj["P"]),
                LaurentPoly.from_json(obj["Q"]),
                LaurentPoly.from_json(obj["S"]),
                LaurentPoly.from_json(obj["R"]),
            )
        except KeyError as exc:
            raise ValueError(f"structured matrix object missing field {exc}") from exc
