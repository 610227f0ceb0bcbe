"""The family identities for every real h, one exact check per m.

M_h and K_h are built from h by ring operations alone (products, sums,
powers and geometric sums), so each of their entries is an element of
Q[T^+-1, H] evaluated at H = h, and the package computes exactly that
evaluation.  Each check below is an identity P(T, H) = 0 in that ring, with
P the difference of the two sides, entry by entry:

* det M_h = 1;
* M_h * gamma(M_h) = I (``verify_cocycle``);
* det K_h = 1 and K_h = M_h * gamma(K_h) (``verify_splitting``).

h is real, so gamma fixes H and conjugates the rational coefficients only.

Exponent window.  Let n = 2m+1 and write each term as c * T^a * H^b.  The
entries of M_h are 1 - T*H^2, H^n, -H^n and sum_{j<n} T^j H^(2j), so
0 <= a <= 2m.  The entries of K_h are 1, H*T^-m, H * sum_{j<m} T^j H^(2j) *
T^-m and sum_{j<=m} T^j H^(2j), so -m <= a <= m.  gamma keeps exponents.
Every entry of a product of two structured matrices, and every determinant,
is a sum of products x*y and T^n*x*y of two such entries, so its terms have
-2m <= a <= 4m + n = 6m + 1.  Every a on either side of each check therefore
lies in W = [-2m, 3n], whose span 8m + 3 is below K = 4n.

Substituting H := T^K sends T^a H^b to T^(a + K*b).  For a, a' in W and
b, b' >= 0, a + K*b = a' + K*b' forces a = a' (they are congruent mod K and
differ by less than K) and then b = b'.  So distinct monomials stay distinct,
and P(T, T^K) = 0 exactly when P = 0.  The package's own check at h = T^K
therefore proves the identity in Q[T^+-1, H], and with it the identity at
every real h.  This is Kronecker's substitution used as a proof device; the
coefficient grids of the acceptance criteria stay as gates beside it.
"""

import pytest

from circleforms import (
    FormSpec,
    LaurentPoly,
    make_splitting,
    make_twist,
    verify_cocycle,
    verify_splitting,
)

CHECKS = {
    "det_is_one": lambda twist, splitting: twist.det() == LaurentPoly.one(),
    "cocycle": lambda twist, splitting: verify_cocycle(twist),
    "splitting": verify_splitting,
}


def generic_h(m: int) -> LaurentPoly:
    """h := T^K with K = 4(2m+1), which stands for a free real H at this m."""
    return LaurentPoly.monomial(4 * (2 * m + 1))


@pytest.mark.parametrize("check", CHECKS)
@pytest.mark.parametrize("m", range(1, 9))
def test_identity_holds_for_every_real_h(m, check):
    spec = FormSpec(m, generic_h(m))
    assert CHECKS[check](make_twist(spec), make_splitting(spec))
