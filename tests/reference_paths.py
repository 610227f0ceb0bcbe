"""Generic paths that the package replaced by closed forms from the paper,
kept as the slow references the closed forms are checked against.  Not used
by the package.

* ``decide_equiv_by_ratios``: the verdict and witness from the cross
  conditions rho_p^(2j+1) == rho_j^(2p+1) on the ratios rho_j = c_j / c2_j,
  against which ``decide_equiv`` (equality of ``equivalence_key``) is
  cross-checked.
* ``pairwise_classify``: union-find over all n(n-1)/2
  ``decide_equiv_by_ratios`` verdicts, then every verdict re-checked against
  the partition; ``classify`` groups by key, so this is its independent
  check.
* ``solve_in_invariant_subring``: membership in Q(i)[T, W, U, V] by an exact
  linear solve against every generator product of a matching degree.
* ``substitute_power`` and ``base_rescale``: the substitutions T -> s*T and
  (a, b) -> (ra, rb), against which the coefficientwise scaling rule
  ``LaurentPoly.apply_scaling`` is cross-checked.

* ``conjugates_by_inverse``: the twisted-conjugation identity written with
  an inverse, N * M * (gamma N)^-1 = M', against which the package's
  inverse-free N * M = M' * gamma(N) is cross-checked.
* ``unit_inverse`` (with ``monomial_parts``): the inverse of a matrix whose
  det is any Laurent unit c*T^k, against which the package's det-1 adjugate
  ``StructuredMatrix.inverse`` is cross-checked, and which the Lambda and
  Lambda' closure tests use.
* ``entrywise_product``, ``entrywise_det`` and ``kronecker_product``: a
  matrix product as ten Laurent products and four sums, the det as three
  products and a difference, and each Laurent product packed, read and
  reduced on its own, against which the one-evaluation kernel behind
  ``StructuredMatrix.__mul__``, ``det`` and ``LaurentPoly.__mul__`` is
  cross-checked.
* ``substitute_by_products``: ``MultiPoly.substitute`` as one polynomial
  product per variable of every term, summed term by term, against which
  the package's monomial path for single-term images is cross-checked.
* ``DictLaurent`` and ``DictMulti`` (on ``DictSparse``): the sparse kernel
  as it was before the integer store, a dict {monomial: GaussianRational}
  with schoolbook products and a termwise ``substitute``, against which
  ``LaurentPoly`` and ``MultiPoly`` are cross-checked operation by operation.
* ``init_by_records``: ``SparsePoly.__init__`` as it was when every
  coefficient became a ``GaussianRational`` before it entered the store,
  against which the constructor that reads scalars directly is cross-checked.
* ``product_twist``, ``product_splitting_entries`` and ``geometric_sum``:
  the twist M_h and the entries of K_h built from Laurent products, h^n by
  repeated squaring and each sum sum_{j<k} (T*h^2)^j one product per term,
  against which ``forms._twist`` and ``forms.splitting_entries`` (one
  packing of h each) are cross-checked.  ``geometric_sum`` also builds the
  twist formula at non-real h for ``strategies.bundle_involutions``.

Helpers that only the tests need:

* ``conj``, ``neg``, ``inverse`` and ``is_zero``: the Q(i) operations on a
  ``GaussianRational`` record, which carries only ``+`` and ``*``.

* ``scaling_map`` and ``base_scaling_map``: the circle point and the base
  rescaling as four-variable maps.
* ``holomorphic_weight_check``: the grading of a holomorphic equivariant
  map, component i of weighted degree w_i (``weight_check`` checks the
  opposite grading of a circle form).
* ``diagonal``: the constant matrix diag(top, bottom) at cross-exponent e.
* ``swap``: the holomorphic swap-twin (R, a^e S; b^e Q, P) of a structured
  matrix, gamma without conjugation; the product M * swap(M) is the
  reference for ``forms.verify_bundle_involution``, and the conjugation
  blocks of the oracle are written with it.
* ``coordinate_swap``: the holomorphic map (a, b, x, y) -> (b, a, y, x).
* ``fixed_point_shape`` (with ``constant_value``): alpha for a matrix
  diag(alpha, conj(alpha)), the shape of every twist-fixed unit.
* ``proof_conditions``: the two polynomiality conditions a diagonal gauge
  must meet, a third route to the equivalence verdict.
"""

from fractions import Fraction
from math import lcm
from operator import index

from circleforms import (
    DecisionResult,
    FormSpec,
    GaussianRational,
    LaurentPoly,
    MultiPoly,
    PolyMap,
    StructuredMatrix,
    make_invariants,
)
from circleforms.equivalence import InternalConsistencyError
from circleforms.forms import _require_real_poly
from circleforms.gaussian import power, rational_odd_root
from circleforms.laurent import _evaluate, _unpack
from circleforms.polymaps import _check_weights

from reference_oracle import fraction_solve_linear


def conj(z):
    """The complex conjugate of a Gaussian rational."""
    return GaussianRational(z.re, -z.im)


def neg(z):
    return GaussianRational(-z.re, -z.im)


def inverse(z):
    """1 / z for a nonzero Gaussian rational."""
    norm = z.re * z.re + z.im * z.im
    if not norm:
        raise ZeroDivisionError("inverse of zero in Q(i)")
    return GaussianRational(z.re / norm, -z.im / norm)


def is_zero(z):
    return z == GaussianRational(0)


def decide_equiv_by_ratios(h, h2, m):
    """``decide_equiv`` from the cross conditions on rho_j = c_j / c2_j at
    the pivot p = min support, without the key of either form."""
    if index(m) < 1:
        raise ValueError("m must be a positive integer")
    _require_real_poly(h, "h")
    _require_real_poly(h2, "h2")

    # h and h2 are real, so each is its real numerators over its denominator
    c = h.truncate_mod(m)
    c2 = h2.truncate_mod(m)
    if c._re.keys() != c2._re.keys():
        return DecisionResult(False, None)

    witness = Fraction(1)  # an empty support admits every r
    if c._re:
        pivot = min(c._re)
        rho = {j: Fraction(n * c2._den, c2._re[j] * c._den) for j, n in c._re.items()}
        rho_p = rho[pivot]
        for j in rho:
            if rho_p ** (2 * j + 1) != rho[j] ** (2 * pivot + 1):
                return DecisionResult(False, None)
        witness = rational_odd_root(rho_p, 2 * pivot + 1)
    return DecisionResult(True, witness)


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
            same = decide_equiv_by_ratios(forms[i], forms[j], m).equivalent
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
    gens = make_invariants(m)
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


def conjugates_by_inverse(n, src, dst):
    """N in Lambda and N * src * (gamma N)^-1 == dst."""
    if not n.in_lambda():
        return False
    return n * src * unit_inverse(n.galois()) == dst


def monomial_parts(p):
    """(c, k) when the Laurent polynomial p is a single term c*T^k, else None."""
    terms = p.items()
    if len(terms) != 1:
        return None
    ((k, c),) = terms
    return c, k


def unit_inverse(matrix):
    """The inverse of a matrix whose det is a Laurent unit c*T^k: its
    adjugate times c^-1 * T^-k."""
    parts = monomial_parts(matrix.det())
    if parts is None:
        raise ValueError("matrix determinant is not a unit c*T^k; no inverse here")
    c, k = parts
    scale = LaurentPoly.monomial(-k, inverse(c))
    return StructuredMatrix(matrix.e, scale * matrix.R, scale * (-matrix.Q),
                            scale * (-matrix.S), scale * matrix.P)


def entrywise_product(self, other):
    """``StructuredMatrix.__mul__`` as ten Laurent products, two of them by
    the monomial T^e, and four sums."""
    if not isinstance(other, StructuredMatrix):
        return NotImplemented
    if self.e != other.e:
        raise ValueError(f"cross-exponent mismatch: {self.e} != {other.e}")
    Te = LaurentPoly.monomial(self.e)
    return StructuredMatrix(
        self.e,
        self.P * other.P + Te * (self.Q * other.S),
        self.P * other.Q + self.Q * other.R,
        self.S * other.P + self.R * other.S,
        Te * (self.S * other.Q) + self.R * other.R,
    )


def entrywise_det(self):
    """``StructuredMatrix.det`` as three Laurent products and a difference."""
    return self.P * self.R - LaurentPoly.monomial(self.e) * (self.Q * self.S)


def kronecker_product(self, other):
    """``LaurentPoly.__mul__`` as one Kronecker product at the width
    2 * min(terms) * max|x| * max|y|, read and reduced on its own."""
    if type(other) is not LaurentPoly:
        return NotImplemented
    if self.is_zero or other.is_zero:
        return LaurentPoly.zero()
    # a product coefficient sums at most min(terms) products of real or
    # imaginary parts, so its real and imaginary |numerator| < 2^(bits-1)
    bound = 2 * min(len(self._re) + len(self._im), len(other._re) + len(other._im))
    for p in (self, other):
        bound *= max(map(abs, (*p._re.values(), *p._im.values())))
    bits = bound.bit_length() + 1
    # each factor is T^low * (re + i*im)(T), re and im evaluated at 2^bits
    packed, low = [], 0
    for p in (self, other):
        valuation = min(p._keys())
        for part in (p._re, p._im):
            packed.append(_evaluate(part.items(), valuation, bits) if part else 0)
        low += valuation
    x, y, z, w = packed
    xz, yw = x * z, y * w
    im = _unpack((x + y) * (z + w) - xz - yw, low, bits) if y or w else {}
    return LaurentPoly._make(_unpack(xz - yw, low, bits), im, self._den * other._den)


def substitute_by_products(poly, images):
    """poly evaluated at images = (image of a, of b, of x, of y): each term
    is its coefficient times the cached powers of the images it uses."""
    if len(images) != 4:
        raise ValueError("need exactly four images")
    pow_cache = [{0: MultiPoly.constant(1), 1: img} for img in images]

    def power(i, n):
        cache = pow_cache[i]
        got = cache.get(n)
        if got is None:
            got = images[i] ** n
            cache[n] = got
        return got

    total = MultiPoly.zero()
    for mono, c in poly.items():
        term = MultiPoly.constant(c)
        for i, exp in enumerate(mono):
            if exp:
                term = term * power(i, exp)
        total = total + term
    return total


def substitute_power(p, scale):
    """p(scale * T) for a nonzero rational scale."""
    scale = Fraction(scale)
    if not scale:
        raise ValueError("substitution scale must be nonzero")
    return LaurentPoly({e: c * GaussianRational(scale ** e) for e, c in p.items()})


def base_rescale(matrix, r):
    """Substitute (a, b) -> (ra, rb): T -> r^2 T everywhere, and the
    off-diagonal entries pick up the factor r^e from a^e, b^e."""
    r = Fraction(r)
    if not r:
        raise ValueError("rescale factor must be nonzero")
    r2 = r * r
    re = LaurentPoly.constant(r ** matrix.e)
    return StructuredMatrix(
        matrix.e,
        substitute_power(matrix.P, r2),
        substitute_power(matrix.Q, r2) * re,
        substitute_power(matrix.S, r2) * re,
        substitute_power(matrix.R, r2),
    )


def scaling_map(omega, weights):
    """The linear action of a unit-circle point: v_i -> omega^(w_i) * v_i.

    Restricted to exact circle points (|omega|^2 = 1, e.g. Pythagorean-triple
    points like (3+4i)/5) so that omega^(-w) = conj(omega)^w stays in Q(i).
    """
    weights = _check_weights(weights)
    one = GaussianRational(1)
    if omega * conj(omega) != one:
        raise ValueError("omega must lie on the unit circle (|omega|^2 == 1)")
    images = []
    for i, w in enumerate(weights):
        factor = power(omega, w, one) if w >= 0 else power(conj(omega), -w, one)
        images.append(MultiPoly.variable(i) * MultiPoly.constant(factor))
    return PolyMap(tuple(images))


def holomorphic_weight_check(f, weights):
    """Whether every nonzero component i of the map f is homogeneous of
    weighted degree w_i."""
    weights = _check_weights(weights)
    return all(img.is_zero or img.weighted_degrees(weights) == {w}
               for img, w in zip(f.images, weights))


def base_scaling_map(r):
    """(a, b, x, y) -> (ra, rb, x, y) for a nonzero rational r."""
    r = Fraction(r)
    if not r:
        raise ValueError("base scaling factor must be nonzero")
    v = [MultiPoly.variable(i) for i in range(4)]
    r = MultiPoly.constant(r)
    return PolyMap((v[0] * r, v[1] * r, v[2], v[3]))


def diagonal(e, top, bottom):
    """The constant matrix diag(top, bottom) at cross-exponent e."""
    zero = LaurentPoly.zero()
    return StructuredMatrix(e, LaurentPoly.constant(top), zero, zero, LaurentPoly.constant(bottom))


def swap(matrix):
    """The holomorphic swap-twin (R, a^e S; b^e Q, P) of a structured matrix."""
    return StructuredMatrix(matrix.e, matrix.R, matrix.S, matrix.Q, matrix.P)


def coordinate_swap():
    """The holomorphic map (a, b, x, y) -> (b, a, y, x)."""
    a, b, x, y = (MultiPoly.variable(i) for i in range(4))
    return PolyMap((b, a, y, x))


def constant_value(p):
    """The value of a constant Laurent polynomial."""
    if not p.is_constant:
        raise ValueError(f"not a constant: {p}")
    return p.coeff(0)


def fixed_point_shape(matrix):
    """alpha when the matrix is diag(alpha, conj(alpha)) with alpha != 0,
    else None."""
    if not matrix.Q.is_zero or not matrix.S.is_zero:
        return None
    if not matrix.P.is_constant or not matrix.R.is_constant:
        return None
    alpha = constant_value(matrix.P)
    if is_zero(alpha) or constant_value(matrix.R) != conj(alpha):
        return None
    return alpha


def proof_conditions(h, h_target, m, alpha):
    """The two polynomiality conditions that characterize when a bounded
    diagonal gauge alpha produces a polynomial conjugator between the twists
    of h and h_target (h_target already includes any base rescaling):

        alpha * q_{h''} - conj(alpha) * q_h       is a polynomial, and
        alpha * s_h * r_{h''} - conj(alpha) * r_h * s_{h''}  is a polynomial.
    """
    if is_zero(alpha):
        raise ValueError("alpha must be nonzero")
    q_h, s_h, r_h = product_splitting_entries(FormSpec(m, h))
    q_t, s_t, r_t = product_splitting_entries(FormSpec(m, h_target))
    bar_alpha = LaurentPoly.constant(conj(alpha))
    alpha = LaurentPoly.constant(alpha)
    cond_q = q_t * alpha - q_h * bar_alpha
    cond_s = (s_h * r_t) * alpha - (r_h * s_t) * bar_alpha
    return cond_q.is_polynomial and cond_s.is_polynomial


class DictSparse:
    """Sparse polynomial over Q(i) as a dict {monomial: GaussianRational}
    with no zero value; subclasses fix ``_key`` and ``__mul__``."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        self._terms = {}
        for k, c in (terms or {}).items():
            c = c if isinstance(c, GaussianRational) else GaussianRational(c)
            if not is_zero(c):
                self._terms[self._key(k)] = c

    @classmethod
    def _wrap(cls, terms):
        out = cls.__new__(cls)
        out._terms = {k: c for k, c in terms.items() if not is_zero(c)}
        return out

    @classmethod
    def of(cls, poly):
        """The reference value of a package polynomial."""
        return cls(dict(poly.items()))

    def items(self):
        return sorted(self._terms.items())

    def bar(self):
        return self._wrap({k: conj(c) for k, c in self._terms.items()})

    def _binary(self, other, sign):
        acc = dict(self._terms)
        for k, c in other._terms.items():
            c = c if sign > 0 else neg(c)
            acc[k] = acc[k] + c if k in acc else c
        return self._wrap(acc)

    def __add__(self, other):
        return self._binary(other, +1)

    def __sub__(self, other):
        return self._binary(other, -1)

    def __neg__(self):
        return self._wrap({k: neg(c) for k, c in self._terms.items()})

    def __pow__(self, n):
        result = type(self)({self._ONE: 1})
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        return type(other) is type(self) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))


class DictLaurent(DictSparse):
    __slots__ = ()
    _key = int
    _ONE = 0

    def __mul__(self, other):
        acc = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                p = c1 * c2
                acc[e1 + e2] = acc[e1 + e2] + p if e1 + e2 in acc else p
        return self._wrap(acc)

    def truncate_mod(self, m):
        return self._wrap({e: c for e, c in self._terms.items() if e < m})


class DictMulti(DictSparse):
    __slots__ = ()
    _ONE = (0, 0, 0, 0)

    @staticmethod
    def _key(mono):
        return tuple(int(e) for e in mono)

    def __mul__(self, other):
        acc = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = tuple(x + y for x, y in zip(m1, m2))
                p = c1 * c2
                acc[m] = acc[m] + p if m in acc else p
        return self._wrap(acc)

    def substitute(self, images):
        """Evaluate at four images: a single-term image c*v enters a term by
        adding exponents and a power of c, a longer one by its power."""
        total = DictMulti()
        for mono, c in self._terms.items():
            term = DictMulti({(0, 0, 0, 0): c})
            for img, exp in zip(images, mono):
                if len(img._terms) == 1:
                    ((m, ic),) = img._terms.items()
                    shifted = tuple(exp * e for e in m)
                    term = term * DictMulti({shifted: power(ic, exp, GaussianRational(1))})
                else:
                    term = term * img ** exp
            total = total + term
        return total


def init_by_records(self, terms=None):
    """``SparsePoly.__init__`` with each coefficient made a GaussianRational
    first; call it on ``cls.__new__(cls)``."""
    coeffs = {}
    for k, c in (terms or {}).items():
        coeffs[self._key(k)] = c if type(c) is GaussianRational else GaussianRational(c)
    # the numerators over the lcm of the denominators have no common factor with it
    den = lcm(*(x.denominator for c in coeffs.values() for x in (c.re, c.im)))
    self._re, self._im, self._den = {}, {}, den
    for k, c in coeffs.items():
        if c.re:
            self._re[k] = c.re.numerator * (den // c.re.denominator)
        if c.im:
            self._im[k] = c.im.numerator * (den // c.im.denominator)


def geometric_sum(base, count):
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


def product_twist(n, h):
    """The twist formula at cross-exponent n: (1 - T*h^2, a^n h^n; -b^n h^n,
    sum_{j<n} (T*h^2)^j), from Laurent products."""
    th2 = LaurentPoly.variable() * h * h
    hn = h ** n
    return StructuredMatrix(n, LaurentPoly.one() - th2, hn, -hn, geometric_sum(th2, n))


def product_splitting_entries(spec):
    """The entries (q_h, s_h, r_h) of K_h, from Laurent products."""
    m, h = spec.m, spec.h
    th2 = LaurentPoly.variable() * h * h
    t_neg_m = LaurentPoly.monomial(-m)
    below_m = geometric_sum(th2, m)
    # sum_{j<=m} (Th^2)^j = 1 + Th^2 * sum_{j<m} (Th^2)^j
    return h * t_neg_m, h * below_m * t_neg_m, LaurentPoly.one() + th2 * below_m
