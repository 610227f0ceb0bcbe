"""Brute-force conjugator search, independent of the decision procedure.

Between two twist matrices M and M' the conjugation condition
N * M = M' * gamma(N) is linear over Q in the coefficients of N once real
and imaginary parts are separated, because gamma conjugates coefficients
(it is conjugate-linear, not linear).  Both twists here have real entries,
so the split is block-diagonal: writing N = U + i*V with real polynomial
matrices U and V,

    U * M = M' * swap(U)      and      V * M = -M' * swap(V),

where swap is the galois rearrangement without conjugation.
``conjugators_between`` takes real polynomial cocycles M * gamma(M) = I
only, as every twist is, and checks both matrices before it builds a system,
in the closed form S = -Q and det M = 1 (for real M, gamma(M) is swap(M),
and ``forms.verify_bundle_involution`` proves the form).  For those the P
and Q entry equations imply the S and R ones, and the P entry P' of M' is a
unit of Q[[T]], so the P and Q entry equations give the r and s entries of U
(or V) as power series in its p and q entries (``_conjugation_bases``).
Each block is therefore solved in the coefficients of p and q alone, its
rows saying that the two series stop at the degree cap: an exact nullspace
computation over the integers, after one common denominator and powers of
P'(0) are cleared, in which a kernel basis is updated row by row, never
eliminating the rows.  Each kernel vector is extended by its r and s
coefficients and the extended vectors are brought to the canonical basis of
the whole block.  Each kernel basis vector is an integer pair (U, D),
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

from .forms import FormSpec, make_twist, verify_bundle_involution, verify_conjugation
from .gaussian import RationalLike, as_rational
from .laurent import LaurentPoly, _evaluate
from .matrices import StructuredMatrix

VarLabel = tuple[str, int, str]  # (entry P/Q/S/R, exponent, "re" or "im")

ENTRIES = ("P", "Q", "S", "R")

# Largest entry degree a search accepts: the systems have 2*(deg+1) unknowns
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
                kernel[i] = _eliminate(kernel[i], d, lead, a)
    return [_as_pair(v, f) for f, v in zip(free, kernel)]


def _eliminate(v: list[int], d: int, lead: list[int], a: int) -> list[int]:
    """The primitive form of (a/g)*v - (d/g)*lead, g = gcd(a, d): the update
    that clears v against lead where v reads d and lead reads a."""
    g = gcd(a, d)
    return _primitive([a // g * x - d // g * y for x, y in zip(v, lead)])


def _scaled_series(num: dict[int, int], p2: dict[int, int], length: int) -> list[int]:
    """G_k = c^(k+1) * [T^k] num/P2 for k < length, with c = P2(0) != 0.
    From P2 * (num/P2) = num, G_k = c^k num_k - sum_{1<=i<=k} P2_i c^(i-1)
    G_(k-i): integers, with no division."""
    c = p2[0]
    steps = [(i, x * c ** (i - 1)) for i, x in p2.items() if i]
    out: list[int] = []
    for k in range(length):
        out.append(num.get(k, 0) * c ** k - sum(x * out[k - i] for i, x in steps if i <= k))
    return out


def _as_pair(v: list[int], f: int) -> IntVector:
    """The primitive v as (U, D) with U[f] = D > 0."""
    return (v, v[f]) if v[f] > 0 else ([-x for x in v], -v[f])


def _canonical_basis(vectors: list[list[int]]) -> list[IntVector]:
    """The basis that ``nullspace`` returns for the span of independent
    integer vectors, in its order: the reduced echelon form from the right.
    The vector whose last nonzero column c is largest leads, and c is
    cleared from every other vector by the update of ``nullspace``; then
    the rest repeat.  Each vector ends with its last nonzero entry at its
    own column and a zero at every other vector's, which fixes it up to
    scale: it is the RREF kernel vector n_f of that column f."""
    rest, done = list(vectors), []
    while rest:
        lasts = [max(j for j, x in enumerate(v) if x) for v in rest]
        c = max(lasts)
        lead = rest.pop(lasts.index(c))
        a = lead[c]
        rest = [_eliminate(v, v[c], lead, a) if v[c] else v for v in rest]
        done = [(f, _eliminate(v, v[c], lead, a) if v[c] else v) for f, v in done]
        done.append((c, lead))
    return [_as_pair(_primitive(v), f) for f, v in reversed(done)]


def _conjugation_bases(m_src: StructuredMatrix, m_dst: StructuredMatrix,
                       deg_bound: int) -> tuple[list[IntVector], list[IntVector]]:
    """Kernel bases of X * M_src = sign * M_dst * swap(X), sign +1 then -1,
    with X = (p, q; s, r) a real polynomial structured matrix of entry degree
    <= d = deg_bound: sign +1 is the system of the real part of a
    conjugator, -1 that of its imaginary part.  Each is the basis
    ``nullspace`` returns for the whole system in the columns p, q, s, r,
    but only p and q are solved for: r and s are closed forms in them.

    The P and Q entries of the equation are
        p*P + T^e q*S = sign*(P2*r + T^e Q2*q)    p*Q + q*R = sign*(P2*s + Q2*p),
    that is, as sign^2 = 1,
        P2*r = sign*P*p + T^e (sign*S - Q2)*q      P2*s = (sign*Q - Q2)*p + sign*R*q.
    M_dst is a real polynomial cocycle (``conjugators_between`` has checked
    both matrices), whose P entry P2*bar(R2) + T^e Q2*bar(Q2) = 1 gives
    P2(0)*R2(0) = 1 at T = 0; so P2 is a unit of Q[[T]], and for
    given p and q the two identities fix r and s as power series.  (p, q)
    extends to a solution exactly when both series are polynomials of degree
    <= d, and that is when their coefficients at T^(d+1) .. T^(N-1) vanish,
    for N = d + 1 + the largest degree among P2 and the numerator's terms:
    then the numerator minus P2 times the series cut at T^d is a polynomial
    of degree < N and a multiple of T^N, hence zero.  Those coefficients are
    the rows, one N for r and one for s; the six series P, T^e S, T^e Q2, Q,
    Q2 and R over P2 are computed once and shared by both signs.  With
    c = P2(0), c^(k+1) times a series' T^k coefficient is an integer, so row
    k is scaled by c^(k+1), and the extension of a kernel vector by its r
    and s coefficients by c^(d+1); the coefficients of M_src and M_dst are
    put over one common denominator, which cancels in every quotient.

    Only the P and Q entries are equations, as for real polynomial cocycles
    they imply the S and R ones: swap(M) = M^-1, so the residual
    E = X*M_src - sign*M_dst*swap(X) is -sign*M_dst*swap(E)*M_src, whose P
    and Q entries, once E_P = E_Q = 0, are -sign*P2*(E_R*P + T^e E_S*S) and
    -sign*P2*(E_R*Q + E_S*R).  P2 != 0, as P2(0) != 0, and det(P, Q; T^e S, R)
    = det M_src = +-1, so E_R = E_S = 0."""
    e = m_src.e
    width = deg_bound + 1
    polys = [*m_src.entries(), *m_dst.entries()]
    den = lcm(*(p._den for p in polys[:6]))
    P, Q, S, R, P2, Q2 = [{k: x * (den // p._den) for k, x in p._re.items()} for p in polys[:6]]
    TeS, TeQ2 = ({k + e: x for k, x in f.items()} for f in (S, Q2))

    def rows_end(*nums):
        return width + max(max(f) for f in (P2, *nums) if f)

    r_end, s_end = rows_end(P, TeS, TeQ2), rows_end(Q, Q2, R)
    c = P2[0]
    P_, TeS_, TeQ2_, Q_, Q2_, R_ = (_scaled_series(f, P2, max(r_end, s_end))
                                    for f in (P, TeS, TeQ2, Q, Q2, R))
    powers = [c ** j for j in range(width)]

    bases = []
    for sign in (+1, -1):
        component = "re" if sign > 0 else "im"
        labels: list[VarLabel] = [(entry, j, component) for entry in "PQ" for j in range(width)]
        # r = r_p*p + r_q*q and s = s_p*p + s_q*q, as scaled series
        r_p, r_q = [sign * x for x in P_], [sign * x - y for x, y in zip(TeS_, TeQ2_)]
        s_p, s_q = [sign * x - y for x, y in zip(Q_, Q2_)], [sign * x for x in R_]
        rows = []
        for of_p, of_q, end in ((r_p, r_q, r_end), (s_p, s_q, s_end)):
            for k in range(width, end):
                row = [w * x[k - j] for x in (of_p, of_q) for j, w in enumerate(powers)]
                if any(row):
                    rows.append(row)
        vectors = []
        for u, _ in nullspace(LinearSystem(rows, labels)):
            p, q = u[:width], u[width:]
            # the coefficients of s and r up to T^d, times c^(d+1)
            s, r = ([sum(powers[deg_bound - k + j] * (of_p[k - j] * p[j] + of_q[k - j] * q[j])
                         for j in range(k + 1)) for k in range(width)]
                    for of_p, of_q in ((s_p, s_q), (r_p, r_q)))
            vectors.append([c * powers[-1] * x for x in u] + s + r)
        bases.append(_canonical_basis(vectors))
    return bases[0], bases[1]


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

    Before any system is built, each of m_src and m_dst must have
    polynomial entries, real ones, and be a cocycle M * gamma(M) = I, read
    in the closed form of ``verify_bundle_involution`` (for real entries
    gamma(M) is the swap-twin); anything else raises ValueError.  Only
    candidates whose determinant passes the integer test of
    ``_det_is_unit`` are built as matrices; each of those is still checked
    in full by ``verify_conjugation``.  The candidates are distinct
    combinations of independent kernel vectors, so none is found twice."""
    if m_src.e != m_dst.e:
        raise ValueError("cross-exponent mismatch")
    for side, matrix in (("source", m_src), ("target", m_dst)):
        if matrix.is_polynomial:
            for name, p in zip(ENTRIES, matrix.entries()):
                if not p.is_real:
                    raise ValueError(f"{side} {name} must be real for the split search")
        if not verify_bundle_involution(matrix):
            raise ValueError("conjugators_between takes polynomial cocycles M * gamma(M) = I")
    e = m_src.e
    width = deg_bound + 1
    re_basis, im_basis = _conjugation_bases(m_src, m_dst, deg_bound)

    found = []
    for u, v, c in _candidates(re_basis, im_basis, 4 * width):
        if _det_is_unit(e, width, u, v):
            matrix = _build_matrix(e, u, v, deg_bound, c)
            if verify_conjugation(matrix, m_src, m_dst):
                found.append(matrix)
    return found


def search_conjugator(h: LaurentPoly, h2: LaurentPoly, m: int, deg_bound: int,
                      r_grid: Sequence[RationalLike]) -> list[tuple[Fraction, StructuredMatrix]]:
    """For each r in the grid, search for N with N*M_h = M_h''*gamma(N) where
    h'' = r*h2(r^2 T), degree of N capped at deg_bound (0..MAX_DEG_BOUND).
    Every result is exactly verified; an empty list is a valid
    (non-)finding.  M_h is built once for the grid; ``conjugators_between``
    checks it with each target, as its closed form costs less than one
    structured matrix product."""
    if not 0 <= deg_bound <= MAX_DEG_BOUND:
        raise ValueError(f"degree bound must be in 0..{MAX_DEG_BOUND}")
    grid = [as_rational(r) for r in r_grid]
    if not grid or any(not r for r in grid):
        raise ValueError("r_grid must be nonempty with nonzero entries")
    m_src = make_twist(FormSpec(m, h))
    results = []
    for r in grid:
        m_dst = make_twist(FormSpec(m, h2.apply_scaling(r)))
        found = conjugators_between(m_src, m_dst, deg_bound)
        results.extend((r, matrix) for matrix in found)
    return results
