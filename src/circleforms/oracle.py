"""Brute-force conjugator search, independent of the decision procedure.

Between two twist matrices M and M' the conjugation condition
N * M = M' * gamma(N) is linear over Q in the coefficients of N once real
and imaginary parts are separated, because gamma conjugates coefficients
(it is conjugate-linear, not linear).  Both twists here have real entries,
so the split is block-diagonal: writing N = U + i*V with real polynomial
matrices U and V,

    U * M = M' * swap(U)      and      V * M = -M' * swap(V),

where swap is the galois rearrangement without conjugation.  Each block is
an exact nullspace computation over the integers after one common
denominator is cleared: a kernel basis is updated row by row, never
eliminating the rows.  Each kernel basis vector is an integer pair (U, D),
standing for U / D, and the candidates are integer combinations of those
pairs, so no rational is built.

The search is a semi-decision: degree of N is capped and the base rescaling
r ranges over a finite grid, so emptiness never certifies inequivalence by
itself.  The Lambda filter (det a nonzero constant) is a quadratic
condition, so the affine solution set is scanned rather than solved: single
basis vectors and +-1 combinations of up to two of them.  Each candidate's
determinant is tested with integer polynomial products first; only those
with a nonzero constant determinant are built as matrices.  That scan is a
heuristic, but every candidate that survives it is verified exactly before
being returned, so false positives are impossible.  The rescaling grid is
searched in one process, one r after another, so findings come out in grid
order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterator, Sequence

from .forms import FormSpec, make_twist, verify_conjugation
from .gaussian import RationalLike, as_rational
from .laurent import LaurentPoly, _evaluate
from .matrices import StructuredMatrix

VarLabel = tuple[str, int, str]  # (entry P/Q/S/R, exponent, "re" or "im")

ENTRIES = ("P", "Q", "S", "R")

# Largest entry degree a search accepts: the systems have 4*(deg+1) unknowns
# and the scan is quadratic in the kernel dimension.
MAX_DEG_BOUND = 16


@dataclass
class LinearSystem:
    """Rows of integer coefficients of a homogeneous system (a nonzero row
    holding a rational raises ``TypeError`` when it is solved), and a label
    for each column saying which matrix coefficient it stands for."""

    rows: list[list[int]]
    labels: list[VarLabel]

    def __post_init__(self):
        width = len(self.labels)
        if any(len(r) != width for r in self.rows):
            raise ValueError("row width does not match labels")


IntVector = tuple[list[int], int]  # (U, D): the vector U / D, with D > 0


def _primitive(row: list[int]) -> list[int]:
    """The row divided by its content (the gcd of its entries)."""
    g = gcd(*row)
    return row if g <= 1 else [x // g for x in row]


def nullspace(system: LinearSystem) -> list[IntVector]:
    """Basis of the solution space of the homogeneous system: for each free
    column f of its reduced row echelon form (RREF), the RREF kernel vector
    n_f with a 1 at f as (U, D), D its least denominator, so U is primitive
    and U[f] = D.  Every U multiplies back to an exactly-zero residual.

    The rows are not eliminated: a kernel basis of the rows read so far is
    kept, starting as the identity, each vector v_c keeping the column c of
    its unit vector.  A row whose dot products d with every v_c vanish is
    redundant and costs only those products.  Otherwise v_k, of least column
    k with d_k != 0, is dropped with its column, and every other v_c becomes
    the primitive form of (d_k/g)*v_c - (d_c/g)*v_k, g = gcd(d_k, d_c): zero
    on this row and still on the rows before.  An empty basis ends the work
    (full column rank); later rows are only checked for integers.

    The kept vectors are already the canonical basis.  By induction v_c is
    nonzero at c, zero at every other kept column, and nonzero elsewhere
    only at dropped columns left of c (v_k enters v_c only if d_c != 0, and
    then k < c), so its last nonzero entry is at c.  As the RREF row with
    pivot p is zero left of p, n_f is nonzero at a pivot column only left
    of f, and a kernel vector sum x_f n_f has its last nonzero entry at the
    largest free f with x_f != 0.  So every kept column is free, and as the
    kept vectors are a kernel basis, the kept columns are the free columns.
    Zero at every other free column, the primitive v_f is +-U."""
    ncols = len(system.labels)
    free = list(range(ncols))
    kernel = [[int(i == j) for j in range(ncols)] for i in free]
    for row in system.rows:
        if not any(row):
            continue
        gcd(*row)  # a rational entry raises TypeError, even in a redundant row
        if not kernel:
            continue
        dots = [sum(map(mul, row, v)) for v in kernel]
        k = next((i for i, d in enumerate(dots) if d), None)
        if k is None:
            continue
        del free[k]
        lead, a = kernel.pop(k), dots.pop(k)
        for i, d in enumerate(dots):
            if d:
                g = gcd(a, d)
                kernel[i] = _primitive([a // g * x - d // g * y for x, y in zip(kernel[i], lead)])
    return [(v, v[f]) if v[f] > 0 else ([-x for x in v], -v[f]) for f, v in zip(free, kernel)]


def _conjugation_block(m_src: StructuredMatrix, m_dst: StructuredMatrix,
                       deg_bound: int, sign: int) -> LinearSystem:
    """Equations for X * M_src = sign * M_dst * swap(X) with X a real
    polynomial structured matrix of entry degree <= deg_bound: sign +1 is
    the system of the real part of a conjugator, -1 that of its imaginary
    part.  Both sides are scaled by one common denominator of the
    coefficients of M_src and M_dst, so the rows are integers and the
    kernel is unchanged."""
    e = m_src.e
    width = deg_bound + 1
    component = "re" if sign > 0 else "im"
    labels: list[VarLabel] = [(entry, j, component) for entry in ENTRIES for j in range(width)]

    polys = [*m_src.entries(), *m_dst.entries()]
    for idx, p in enumerate(polys):
        if not p.is_real:
            side = "source" if idx < 4 else "target"
            raise ValueError(f"{side} {ENTRIES[idx % 4]} must be real for the split search")
    den = lcm(*(p._den for p in polys))
    scaled = [{k: c * (den // p._den) for k, c in p._re.items()} for p in polys]
    P, Q, S, R = scaled[:4]
    P2, Q2, S2, R2 = scaled[4:]
    p, q, s, r = range(4)  # the entries of X, in column-block order

    # X * M_src entries, with X = (p, q, s, r) unknown:
    #   P: p*P + T^e q*S      Q: p*Q + q*R
    #   S: s*P + r*S          R: T^e s*Q + r*R
    # sign * M_dst * swap(X), M_dst = (P2, Q2, S2, R2), swap(X) = (r, s, q, p):
    #   P: P2*r + T^e Q2*q    Q: P2*s + Q2*p
    #   S: S2*r + R2*q        R: T^e S2*s + R2*p
    # as (unknown, its known coefficients, factor, power of T) per entry
    terms = [
        [(p, P, 1, 0), (q, S, 1, e), (r, P2, -sign, 0), (q, Q2, -sign, e)],
        [(p, Q, 1, 0), (q, R, 1, 0), (s, P2, -sign, 0), (p, Q2, -sign, 0)],
        [(s, P, 1, 0), (r, S, 1, 0), (r, S2, -sign, 0), (q, R2, -sign, 0)],
        [(s, Q, 1, e), (r, R, 1, 0), (s, S2, -sign, e), (p, R2, -sign, 0)],
    ]

    rows: list[list[int]] = []
    for products in terms:
        by_exponent: dict[int, list[int]] = {}
        for unknown, coeffs, factor, shift in products:
            col = unknown * width
            for k, coeff in coeffs.items():
                for j in range(width):
                    row = by_exponent.get(j + k + shift)
                    if row is None:
                        row = by_exponent[j + k + shift] = [0] * len(labels)
                    row[col + j] += factor * coeff
        rows += [by_exponent[t] for t in sorted(by_exponent) if any(by_exponent[t])]
    return LinearSystem(rows=rows, labels=labels)


def _build_matrix(e: int, u: Sequence[int], v: Sequence[int],
                  deg_bound: int, den: int = 1) -> StructuredMatrix:
    """The matrix (U + iV) / den for integer coefficient vectors U and V laid
    out as in the conjugation blocks."""
    width = deg_bound + 1
    polys = []
    for k in range(4):
        parts = [{j: x for j, x in enumerate(vec[k * width:(k + 1) * width]) if x}
                 for vec in (u, v)]
        polys.append(LaurentPoly._make(*parts, den))
    return StructuredMatrix(e, *polys)


IntCandidate = tuple[list[int], list[int], int]


def _candidates(re_basis: Sequence[IntVector], im_basis: Sequence[IntVector],
                ncols: int) -> Iterator[IntCandidate]:
    """The scanned combinations (u, v) of the two kernel bases, in scan
    order: single basis vectors, then +-1 sums of two real or of two
    imaginary ones, then u +- i*v.  Each is (U, V, c) with integer vectors
    U = c*u and V = c*v and c > 0; an absent part is one shared zero
    vector of length ncols."""
    zero = [0] * ncols

    def pair_sums(basis):
        for i, (a, da) in enumerate(basis):
            for b, db in basis[i + 1:]:
                for s in (da, -da):
                    yield [db * x + s * y for x, y in zip(a, b)], da * db

    for u, du in re_basis:
        yield u, zero, du
    for v, dv in im_basis:
        yield zero, v, dv
    for u, c in pair_sums(re_basis):
        yield u, zero, c
    for v, c in pair_sums(im_basis):
        yield zero, v, c
    for u, du in re_basis:
        for v, dv in im_basis:
            uu = [dv * x for x in u]
            vv = [du * y for y in v]
            yield uu, vv, du * dv
            yield uu, [-y for y in vv], du * dv


def _det_is_unit(e: int, width: int, u: Sequence[int], v: Sequence[int]) -> bool:
    """Whether det(U + iV) is a nonzero constant, for integer coefficient
    vectors laid out as in the conjugation blocks.

    Each entry is packed into one int at X = 2^bits (Kronecker substitution,
    as in ``laurent``), with bits wide enough that every coefficient of the
    real and imaginary parts of det is a signed digit below 2^(bits-1); a
    part is then constant exactly when its packed value is below that.  A
    common scale c of U and V multiplies det by c^2, which changes neither
    property.  It stays beside ``laurent._product_sum`` because it never
    decodes a determinant that is not constant, and almost none is."""
    height = max(map(abs, [*u, *v]))
    bits = (4 * width * height * height).bit_length() + 1
    pu, qu, su, ru, pv, qv, sv, rv = [
        _evaluate(list(enumerate(vec[k * width:(k + 1) * width])), 0, bits)
        for vec in (u, v) for k in range(4)]
    # (Pu + iPv)(Ru + iRv) - T^e (Qu + iQv)(Su + iSv), split into parts
    re = pu * ru - pv * rv - (qu * su - qv * sv << bits * e)
    im = pu * rv + pv * ru - (qu * sv + qv * su << bits * e)
    half = 1 << bits - 1
    return abs(re) < half and abs(im) < half and bool(re or im)


def conjugators_between(m_src: StructuredMatrix, m_dst: StructuredMatrix,
                        deg_bound: int) -> list[StructuredMatrix]:
    """All verified conjugators found by the bounded-degree nullspace scan.

    Only candidates whose determinant passes the integer test of
    ``_det_is_unit`` are built as matrices; each of those is still checked
    in full by ``verify_conjugation``."""
    if m_src.e != m_dst.e:
        raise ValueError("cross-exponent mismatch")
    e = m_src.e
    width = deg_bound + 1
    re_basis = nullspace(_conjugation_block(m_src, m_dst, deg_bound, +1))
    im_basis = nullspace(_conjugation_block(m_src, m_dst, deg_bound, -1))

    found = []
    seen = set()
    for u, v, c in _candidates(re_basis, im_basis, 4 * width):
        if not _det_is_unit(e, width, u, v):
            continue
        matrix = _build_matrix(e, u, v, deg_bound, c)
        if matrix in seen:
            continue
        if verify_conjugation(matrix, m_src, m_dst):
            seen.add(matrix)
            found.append(matrix)
    return found


def search_conjugator(h: LaurentPoly, h2: LaurentPoly, m: int, deg_bound: int,
                      r_grid: Sequence[RationalLike]) -> list[tuple[Fraction, StructuredMatrix]]:
    """For each r in the grid, search for N with N*M_h = M_h''*gamma(N) where
    h'' = r*h2(r^2 T), degree of N capped at deg_bound (0..MAX_DEG_BOUND).
    Every result is exactly verified; an empty list is a valid
    (non-)finding."""
    if not 0 <= deg_bound <= MAX_DEG_BOUND:
        raise ValueError(f"degree bound must be in 0..{MAX_DEG_BOUND}")
    grid = [as_rational(r) for r in r_grid]
    if not grid or any(not r for r in grid):
        raise ValueError("r_grid must be nonempty with nonzero entries")
    m_src = make_twist(FormSpec(m, h))
    results = []
    for r in grid:
        m_dst = make_twist(FormSpec(m, h2.apply_scaling(r)))
        results.extend((r, matrix) for matrix in conjugators_between(m_src, m_dst, deg_bound))
    return results
