"""Generic paths that the package replaced by closed forms from the paper,
kept as the slow references the closed forms are checked against.  Not used
by the package.

* ``pairwise_classify``: union-find over all n(n-1)/2 ``decide_equiv``
  verdicts, then every verdict re-checked against the partition.
* ``solve_in_invariant_subring``: membership in Q(i)[T, W, U, V] by an exact
  linear solve against every generator product of a matching degree.
* ``substitute_power`` and ``base_rescale``: the substitutions T -> s*T and
  (a, b) -> (ra, rb), against which the coefficientwise scaling rule
  ``LaurentPoly.apply_scaling`` is cross-checked.
"""

from fractions import Fraction

from circleforms import LaurentPoly, StructuredMatrix, decide_equiv, make_invariants
from circleforms.equivalence import InternalConsistencyError

from reference_oracle import fraction_solve_linear


def pairwise_classify(forms, m):
    """Partition indices of `forms` into equivalence classes, ordered by their
    first index, from every pairwise verdict."""
    count = len(forms)
    parent = list(range(count))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    verdict = {}
    for i in range(count):
        for j in range(i + 1, count):
            same = decide_equiv(forms[i], forms[j], m, with_certificate=False).equivalent
            verdict[(i, j)] = same
            if same:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)

    for (i, j), same in verdict.items():
        if (find(i) == find(j)) != same:
            raise InternalConsistencyError(
                f"equivalence verdicts are not transitive at pair ({i}, {j})")

    classes = {}
    for i in range(count):
        classes.setdefault(find(i), []).append(i)
    return [classes[root] for root in sorted(classes)]


def solve_in_invariant_subring(poly, m):
    """Exact linear-algebra test of membership in Q(i)[T, W, U, V].

    Monomials in the generators are homogeneous in (a, b, x, y), so only
    generator products whose total degree matches one of the input's
    homogeneous degrees can contribute; products are enumerated up to twice
    the input degree, which is already more than any contributing product.
    """
    if poly.is_zero:
        return True
    n = 2 * m + 1
    gens = make_invariants(m).as_tuple()
    bound = 2 * max(sum(mono) for mono, _ in poly.items())
    gen_degree = (2, 2, n + 2, n + 2)
    wanted_degrees = {sum(mono) for mono, _ in poly.items()}

    products = []
    max_exp = [bound // d for d in gen_degree]
    for et in range(max_exp[0] + 1):
        for ew in range(max_exp[1] + 1):
            if 2 * et + 2 * ew > bound:
                break
            for eu in range(max_exp[2] + 1):
                for ev in range(max_exp[3] + 1):
                    degree = 2 * et + 2 * ew + (n + 2) * (eu + ev)
                    if degree > bound:
                        break
                    if degree not in wanted_degrees:
                        continue
                    products.append(
                        gens[0] ** et * gens[1] ** ew * gens[2] ** eu * gens[3] ** ev
                    )

    monomials = sorted({mono for p in products for mono, _ in p.items()}
                       | {mono for mono, _ in poly.items()})
    index = {mono: i for i, mono in enumerate(monomials)}
    zero = Fraction(0)
    rows = [[zero] * len(products) for _ in range(len(monomials))]
    for col, p in enumerate(products):
        for mono, c in p.items():
            rows[index[mono]][col] = Fraction(c.re)  # generator products are real
    rhs_re = [zero] * len(monomials)
    rhs_im = [zero] * len(monomials)
    for mono, c in poly.items():
        rhs_re[index[mono]] = Fraction(c.re)
        rhs_im[index[mono]] = Fraction(c.im)
    # A Q(i)-combination of real products splits into independent real and
    # imaginary solves against the same matrix.
    if fraction_solve_linear(rows, rhs_re, len(products)) is None:
        return False
    if any(rhs_im) and fraction_solve_linear(rows, rhs_im, len(products)) is None:
        return False
    return True


def substitute_power(p, scale):
    """p(scale * T) for a nonzero rational scale."""
    scale = Fraction(scale)
    if not scale:
        raise ValueError("substitution scale must be nonzero")
    return LaurentPoly({e: c * scale ** e for e, c in p.items()})


def base_rescale(matrix, r):
    """Substitute (a, b) -> (ra, rb): T -> r^2 T everywhere, and the
    off-diagonal entries pick up the factor r^e from a^e, b^e."""
    r = Fraction(r)
    if not r:
        raise ValueError("rescale factor must be nonzero")
    r2 = r * r
    re = r ** matrix.e
    return StructuredMatrix(
        matrix.e,
        substitute_power(matrix.P, r2),
        substitute_power(matrix.Q, r2) * re,
        substitute_power(matrix.S, r2) * re,
        substitute_power(matrix.R, r2),
    )
