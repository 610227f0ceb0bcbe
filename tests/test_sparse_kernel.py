"""The sparse-polynomial kernel shared by ``LaurentPoly`` and ``MultiPoly``.

Every operation agrees with the dict kernel it replaced (``DictLaurent`` and
``DictMulti`` in ``reference_paths``), on the shared strategies and on wide
values whose coefficients need many bits and whose Kronecker digits sit at
the edge of their range.

The embedding T^j -> (ab)^j of Q(i)[T] into Q(i)[a, b, x, y] is an injective
ring homomorphism that commutes with conjugation, so every shared operation
must give the same answer on either side of it.  Arithmetic takes operands
of one type: the two classes never mix, and neither mixes with a scalar.
"""

import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from circleforms import GaussianRational, LaurentPoly, MultiPoly
from circleforms.laurent import SparsePoly

from reference_paths import DictLaurent, DictMulti, init_by_records
from strategies import gaussians, laurents, monomials, multis, poly_laurents, substitute_images

# Rationals of up to about 80 bits over denominators of up to 40 bits, and
# Laurent values with up to 12 terms spread over T^-30 .. T^30.
wide_rationals = st.builds(Fraction, st.integers(-2 ** 80, 2 ** 80), st.integers(1, 2 ** 40))
wide_gaussians = st.builds(GaussianRational, wide_rationals,
                           st.one_of(st.just(0), wide_rationals))
wide_laurents = st.dictionaries(st.integers(-30, 30), st.one_of(gaussians, wide_gaussians),
                                max_size=12).map(LaurentPoly)


def agree(reference, value):
    """The package value and the reference value have the same terms."""
    return reference.items() == value.items()


def check_ring_operations(p, q, n, ref):
    """Every operation of p and q, with p ** n, agrees with the reference."""
    rp, rq = ref.of(p), ref.of(q)
    assert agree(rp + rq, p + q)
    assert agree(rp - rq, p - q)
    assert agree(-rp, -p)
    assert agree(rp * rq, p * q)
    assert agree(rp ** n, p ** n)
    assert agree(rp.bar(), p.bar())
    assert (p == q) == (rp == rq)
    assert p.is_zero == (not rp.items()) and p.is_real == all(not c.im for _, c in rp.items())
    assert p + q - q == p and hash(p + q - q) == hash(p)


@given(p=st.one_of(laurents, wide_laurents), q=st.one_of(laurents, wide_laurents),
       n=st.integers(0, 3), m=st.integers(1, 6))
def test_laurent_agrees_with_dict_kernel(p, q, n, m):
    check_ring_operations(p, q, n, DictLaurent)
    if p.is_polynomial:
        assert agree(DictLaurent.of(p).truncate_mod(m), p.truncate_mod(m))


@pytest.mark.parametrize("low", [-3, 0, 5])
@pytest.mark.parametrize("bits", [1, 7, 8, 31, 64, 65])
def test_kronecker_digits_at_the_edge_of_their_range(low, bits):
    # all-(+-)(2^bits - 1) operands make product numerators close to 2^(B-1)
    for signs in ((1, 1, 1), (1, -1, 1), (-1, -1, -1), (1, 1, -1)):
        p = LaurentPoly.from_coeffs([s * (2 ** bits - 1) for s in signs], valuation=low)
        for q in (p, p.bar(), -p, p * LaurentPoly.constant(GaussianRational(1, -1))):
            assert agree(DictLaurent.of(p) * DictLaurent.of(q), p * q)


@pytest.mark.parametrize("count,span,bits", [(200, 200, 8), (3, 3, 3000), (20, 1000, 4)])
def test_long_products_agree_with_dict_kernel(count, span, bits):
    # packed values beyond 4096 bits: many digits, wide digits, and a sparse
    # span, each split in two while packing and reading
    rng = random.Random(count * span + bits)

    def value(imaginary):
        def number():
            return rng.randint(-2 ** bits, 2 ** bits)
        return LaurentPoly({rng.randint(-span // 2, span): GaussianRational(
            number(), number() if imaginary else 0) for _ in range(count)})

    for imaginary in (False, True):
        p, q = value(imaginary), value(imaginary)
        assert agree(DictLaurent.of(p) * DictLaurent.of(q), p * q)
        assert agree(DictLaurent.of(p) * DictLaurent.of(p.bar()), p * p.bar())


@given(p=multis, q=multis, n=st.integers(0, 2), images=st.tuples(*[substitute_images] * 4))
def test_multipoly_agrees_with_dict_kernel(p, q, n, images):
    check_ring_operations(p, q, n, DictMulti)
    reference = DictMulti.of(p).substitute([DictMulti.of(img) for img in images])
    assert agree(reference, p.substitute(images))


# Coefficients of every accepted kind: ints, Fractions (integral ones
# included) and records, with zero real or imaginary parts.
mixed_coeffs = st.one_of(
    st.integers(-5, 5),
    st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 6])),
    wide_rationals,
    st.builds(GaussianRational, st.one_of(st.just(0), wide_rationals),
              st.one_of(st.just(0), st.integers(-3, 3), wide_rationals)),
)


def store(p):
    return p._re, p._im, p._den


@given(laurent_terms=st.dictionaries(st.integers(-6, 6), mixed_coeffs, max_size=6),
       multi_terms=st.dictionaries(monomials, mixed_coeffs, max_size=6))
def test_constructor_stores_as_the_record_path(laurent_terms, multi_terms):
    for cls, terms in ((LaurentPoly, laurent_terms), (MultiPoly, multi_terms)):
        reference = cls.__new__(cls)
        init_by_records(reference, terms)
        assert store(cls(terms)) == store(reference)


def test_scalar_paths_build_no_record(monkeypatch):
    built = []
    original = GaussianRational.__post_init__

    def counted(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(GaussianRational, "__post_init__", counted)
    p = LaurentPoly.from_coeffs([3, Fraction(-1, 2), 0, Fraction(4, 2)], valuation=-1)
    q = p.apply_scaling(Fraction(2, 3))
    MultiPoly({(1, 0, 0, 0): 2, (0, 1, 0, 0): Fraction(1, 3)})
    assert built == []
    assert q.coeff(-1) == GaussianRational(Fraction(9, 2)) and len(built) == 2


def test_exponents_beyond_the_packed_field_are_refused():
    a = MultiPoly.variable(0)
    big = a ** (2 ** 27)
    assert big.items() == [((2 ** 27, 0, 0, 0), GaussianRational(1))]
    with pytest.raises(OverflowError):
        big * big
    with pytest.raises(OverflowError):
        big.substitute((a ** 2, a, a, a))
    with pytest.raises(ValueError):
        MultiPoly.monomial((2 ** 28, 0, 0, 0))


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
