"""The sparse-polynomial kernel shared by ``LaurentPoly`` and ``MultiPoly``.

The embedding T^j -> (ab)^j of Q(i)[T] into Q(i)[a, b, x, y] is an injective
ring homomorphism that commutes with conjugation, so every shared operation
must give the same answer on either side of it.  Operands of the two classes
never mix.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from circleforms import LaurentPoly, MultiPoly
from circleforms.laurent import SparsePoly

from strategies import gaussians, poly_laurents

SHARED = ("_binary", "__add__", "__sub__", "__neg__", "scalar_mul", "__pow__",
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
    assert embed(p.scalar_mul(c)) == ep.scalar_mul(c)
    assert embed(c + p) == c + ep
    assert embed(c - p) == c - ep
    assert embed(c * p) == c * ep
    assert (p == q) == (ep == eq)
    assert embed(LaurentPoly(dict(p.items()))) == ep
    assert hash(p + 0) == hash(p) and hash(ep + 0) == hash(ep)


def test_laurent_and_multipoly_do_not_mix():
    with pytest.raises(TypeError):
        LaurentPoly.one() + MultiPoly.constant(1)
    with pytest.raises(TypeError):
        MultiPoly.constant(1) - LaurentPoly.one()
    assert (LaurentPoly.one() == MultiPoly.constant(1)) is False
    assert (MultiPoly.constant(1) == LaurentPoly.one()) is False


@pytest.mark.parametrize("cls", [LaurentPoly, MultiPoly])
def test_subclasses_keep_only_their_own_rules(cls):
    assert issubclass(cls, SparsePoly)
    assert not set(SHARED) & set(vars(cls))
    assert "__mul__" in vars(cls)
