"""The sparse-polynomial kernel shared by ``LaurentPoly`` and ``MultiPoly``.

The embedding T^j -> (ab)^j of Q(i)[T] into Q(i)[a, b, x, y] is an injective
ring homomorphism that commutes with conjugation, so every shared operation
must give the same answer on either side of it.  Arithmetic takes operands
of one type: the two classes never mix, and neither mixes with a scalar.
"""

import operator
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from circleforms import GaussianRational, LaurentPoly, MultiPoly
from circleforms.laurent import SparsePoly

from strategies import gaussians, poly_laurents

SHARED = ("_binary", "__add__", "__sub__", "__neg__", "__pow__",
          "__eq__", "__hash__", "bar")


def embed(p):
    """T^j -> (ab)^j."""
    return MultiPoly({(j, j, 0, 0): c for j, c in p.items()})


@given(p=poly_laurents, q=poly_laurents, n=st.integers(0, 3), c=gaussians)
def test_embedding_commutes_with_shared_operations(p, q, n, c):
    ep, eq = embed(p), embed(q)
    assert embed(p + q) == ep + eq
    assert embed(p - q) == ep - eq
    assert embed(-p) == -ep
    assert embed(p * q) == ep * eq
    assert embed(p ** n) == ep ** n
    assert embed(p.bar()) == ep.bar()
    pc, epc = LaurentPoly.constant(c), MultiPoly.constant(c)
    assert embed(pc) == epc
    assert embed(p * pc) == ep * epc
    assert embed(pc + p) == epc + ep
    assert embed(pc - p) == epc - ep
    assert (p == q) == (ep == eq)
    assert embed(LaurentPoly(dict(p.items()))) == ep
    assert hash(p + LaurentPoly.zero()) == hash(p) and hash(ep + MultiPoly.zero()) == hash(ep)


def test_laurent_and_multipoly_do_not_mix():
    with pytest.raises(TypeError):
        LaurentPoly.one() + MultiPoly.constant(1)
    with pytest.raises(TypeError):
        MultiPoly.constant(1) - LaurentPoly.one()
    assert (LaurentPoly.one() == MultiPoly.constant(1)) is False
    assert (MultiPoly.constant(1) == LaurentPoly.one()) is False
    # Nor does any of them mix with a scalar.  Every value and scalar below
    # is 1, so an operation that coerced would succeed: a TypeError and a
    # False ``==`` show that none does.
    scalars = (1, Fraction(1), GaussianRational(1))
    for value in (GaussianRational(1), LaurentPoly.one(), MultiPoly.constant(1)):
        for scalar in scalars:
            if type(scalar) is type(value):
                continue
            for op in (operator.add, operator.sub, operator.mul):
                with pytest.raises(TypeError):
                    op(value, scalar)
                with pytest.raises(TypeError):
                    op(scalar, value)
            assert (value == scalar) is False and (scalar == value) is False
            assert value != scalar and scalar != value


@pytest.mark.parametrize("cls", [LaurentPoly, MultiPoly])
def test_subclasses_keep_only_their_own_rules(cls):
    assert issubclass(cls, SparsePoly)
    assert not set(SHARED) & set(vars(cls))
    assert "__mul__" in vars(cls)
