"""Reference oracle: rational Gauss-Jordan elimination and the candidate scan
on ``Fraction`` vectors, with each candidate built through the public
``LaurentPoly`` constructor (``fraction_matrix``), kept as the slow path that
the integer routines in ``circleforms.oracle`` are checked against.  Those
hold every kernel basis vector as an integer pair (U, D); ``as_pairs``
brings a ``Fraction`` basis to that form for comparison.
``reference_block`` is the full conjugation system, all four entry equations;
``conjugation_block`` is its P and Q entry equations alone, the system whose
kernel ``circleforms.oracle._conjugation_bases`` computes in closed form.  ``fraction_solve_linear`` runs the reference membership test in
``reference_paths``.  Not used by the package."""

from fractions import Fraction
from math import lcm
from typing import Optional

from circleforms import GaussianRational, LaurentPoly, LinearSystem, StructuredMatrix
from circleforms.oracle import ENTRIES, verify_conjugation


def fraction_rref(rows, ncols):
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    work = [[Fraction(v) for v in row] for row in rows if any(row)]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(work)):
            if work[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = 1 / work[r][c]
        if inv != 1:
            work[r] = [v * inv for v in work[r]]
        lead = work[r]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                row = work[i]
                work[i] = [a - f * b if b else a for a, b in zip(row, lead)]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots


def fraction_nullspace(rows, ncols):
    rref_rows, pivots = fraction_rref(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row, p in zip(rref_rows, pivots):
            if row[free]:
                vec[p] = -row[free]
        basis.append(vec)
    return basis


def as_pairs(basis):
    """Each Fraction vector as (U, D): D its least common denominator and
    U = D * vector, the form ``circleforms.oracle.nullspace`` returns."""
    pairs = []
    for vec in basis:
        den = lcm(*(x.denominator for x in vec))
        pairs.append(([int(x * den) for x in vec], den))
    return pairs


def fraction_solve_linear(rows, rhs, ncols) -> Optional[list]:
    augmented = [list(row) + [b] for row, b in zip(rows, rhs)]
    rref_rows, pivots = fraction_rref(augmented, ncols + 1)
    solution = [Fraction(0)] * ncols
    for row, p in zip(rref_rows, pivots):
        if p == ncols:
            return None
        solution[p] = row[ncols]
    return solution


def reference_candidates(re_basis, im_basis):
    """The scanned combinations as (u, v) Fraction vectors, in scan order."""
    def add_vec(a, b, flip):
        return [x + (-y if flip else y) for x, y in zip(a, b)]

    candidates = [(u, None) for u in re_basis] + [(None, v) for v in im_basis]
    for basis, real in ((re_basis, True), (im_basis, False)):
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                for flip in (False, True):
                    vec = add_vec(basis[i], basis[j], flip)
                    candidates.append((vec, None) if real else (None, vec))
    for u in re_basis:
        for v in im_basis:
            for flip in (False, True):
                candidates.append((u, [-x for x in v] if flip else v))
    return candidates


def fraction_matrix(e, re_vec, im_vec, deg_bound):
    """The matrix whose Fraction coefficients are laid out in re_vec and
    im_vec as in the conjugation blocks (None for a zero part), built
    through the public constructor."""
    width = deg_bound + 1
    entries = []
    for k in range(4):
        terms = {}
        for j in range(width):
            re = 0 if re_vec is None else re_vec[k * width + j]
            im = 0 if im_vec is None else im_vec[k * width + j]
            terms[j] = GaussianRational(re, im)
        entries.append(LaurentPoly(terms))
    return StructuredMatrix(e, *entries)


def reference_block(m_src, m_dst, deg_bound, sign, entries=4):
    """The entry equations of X * M_src = sign * M_dst * swap(X), with X a
    real polynomial structured matrix of entry degree <= deg_bound, laid out
    as in the conjugation blocks and scaled to integers by one common
    denominator: those of the first ``entries`` of P, Q, S and R, in that
    order."""
    e = m_src.e
    width = deg_bound + 1
    component = "re" if sign > 0 else "im"
    labels = [(entry, j, component) for entry in ENTRIES for j in range(width)]
    polys = [*m_src.entries(), *m_dst.entries()]
    assert all(p.is_real for p in polys)
    den = lcm(*(p._den for p in polys))
    P, Q, S, R, P2, Q2, S2, R2 = [{k: c * (den // p._den) for k, c in p._re.items()}
                                  for p in polys]
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

    rows = []
    for products in terms[:entries]:
        by_exponent = {}
        for unknown, coeffs, factor, shift in products:
            col = unknown * width
            for k, coeff in coeffs.items():
                for j in range(width):
                    row = by_exponent.setdefault(j + k + shift, [0] * len(labels))
                    row[col + j] += factor * coeff
        rows += [by_exponent[t] for t in sorted(by_exponent) if any(by_exponent[t])]
    return LinearSystem(rows=rows, labels=labels)


def conjugation_block(m_src, m_dst, deg_bound, sign):
    """The P and Q entry equations of ``reference_block``, which for real
    polynomial cocycles have the kernel of all four."""
    return reference_block(m_src, m_dst, deg_bound, sign, entries=2)


def reference_bases(m_src, m_dst, deg_bound):
    """The Fraction kernel bases of the full real and imaginary systems."""
    ncols = 4 * (deg_bound + 1)
    return tuple(fraction_nullspace(reference_block(m_src, m_dst, deg_bound, sign).rows, ncols)
                 for sign in (+1, -1))


def reference_conjugators_between(m_src, m_dst, deg_bound):
    """The scan with every candidate built as a matrix and filtered by
    ``StructuredMatrix.det``; it checks no cocycle."""
    found = []
    seen = set()
    for re_vec, im_vec in reference_candidates(*reference_bases(m_src, m_dst, deg_bound)):
        matrix = fraction_matrix(m_src.e, re_vec, im_vec, deg_bound)
        det = matrix.det()
        if det.is_zero or not det.is_constant:
            continue
        if matrix in seen:
            continue
        if verify_conjugation(matrix, m_src, m_dst):
            seen.add(matrix)
            found.append(matrix)
    return found
