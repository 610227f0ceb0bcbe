import itertools
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circleforms import (
    FormSpec,
    GaussianRational,
    LaurentPoly,
    LinearSystem,
    StructuredMatrix,
    case12_conjugator,
    case12_twist,
    conjugators_between,
    decide_equiv,
    make_twist,
    nullspace,
    search_conjugator,
    verify_conjugation,
)
from circleforms.oracle import MAX_DEG_BOUND, _conjugation_block

from reference_oracle import fraction_solve_linear
from reference_paths import conjugates_by_inverse, proof_conditions, unit_inverse
from strategies import lambda_matrices, real_polys

T = LaurentPoly.variable()
one = LaurentPoly.one()
zero = LaurentPoly.zero()
F = Fraction


def poly(*coeffs):
    return LaurentPoly.from_coeffs(coeffs)


class TestNullspace:
    def test_identity_system_has_trivial_kernel(self):
        rows = [[1, 0], [0, 1]]
        sys = LinearSystem(rows, [("P", 0, "re"), ("P", 1, "re")])
        assert nullspace(sys) == []

    def test_difference_equation(self):
        sys = LinearSystem([[2, -2]], [("P", 0, "re"), ("P", 1, "re")])
        assert nullspace(sys) == [([1, 1], 1)]

    def test_least_denominator(self):
        # x0 = -(3/2) x2 and x1 = (1/3) x2: U = (-9, 2, 6) over D = 6
        sys = LinearSystem([[2, 0, 3], [0, 3, -1]], [("P", j, "re") for j in range(3)])
        assert nullspace(sys) == [([-9, 2, 6], 6)]

    def test_random_rectangular_residuals_vanish(self):
        rng = random.Random(1984)
        for _ in range(10):
            # rational rows scaled to integers by their lcm: the kernel is unchanged
            rows = [[F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(8)]
                    for _ in range(6)]
            rows = [[int(x * lcm(*(y.denominator for y in row))) for x in row] for row in rows]
            labels = [("P", j, "re") for j in range(8)]
            sys = LinearSystem(rows, labels)
            basis = nullspace(sys)
            assert len(basis) >= 2  # more unknowns than equations
            for vec, den in basis:
                assert den > 0 and gcd(*vec) == 1
                for row in rows:
                    assert sum(a * x for a, x in zip(row, vec)) == 0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            LinearSystem([[1, 2]], [("P", 0, "re")])

    def test_rational_rows_are_refused(self):
        labels = [("P", 0, "re"), ("P", 1, "re")]
        for rows in (
            [[F(1, 2), F(1)]],
            # a row that depends on the rows before it
            [[1, 2], [F(2), F(4)]],
            [[1, 2], [2.0, 4.0]],
            # a row read once the kernel is already empty
            [[1, 0], [0, 1], [F(1, 2), 0]],
            [[1, 0], [0, 1], [0, 0], [0.0, 1.5]],
        ):
            with pytest.raises(TypeError):
                nullspace(LinearSystem(rows, labels))
        # a zero row is skipped whatever its entries' type
        assert nullspace(LinearSystem([[1, -1], [F(0), 0.0]], labels)) == [([1, 1], 1)]


class TestSolveLinear:
    """The rational solver of ``reference_oracle``, on which the reference
    membership test in ``reference_paths`` runs."""

    def test_unique_solution(self):
        rows = [[F(2), F(0)], [F(0), F(4)]]
        assert fraction_solve_linear(rows, [F(6), F(2)], 2) == [F(3), F(1, 2)]

    def test_inconsistent_detected(self):
        rows = [[F(1), F(1)], [F(2), F(2)]]
        assert fraction_solve_linear(rows, [F(1), F(3)], 2) is None

    def test_underdetermined_gives_particular(self):
        rows = [[F(1), F(1)]]
        sol = fraction_solve_linear(rows, [F(5)], 2)
        assert sol is not None
        assert sol[0] + sol[1] == 5


def _entry_difference(a, b):
    """Entrywise difference of two structured products, as a poly tuple."""
    return tuple(p - q for p, q in zip(a.entries(), b.entries()))


def _random_real_matrix(rng, e):
    def entry():
        return LaurentPoly({j: rng.randint(-2, 2) for j in range(rng.randint(1, 3))})
    return StructuredMatrix(e, entry(), entry(), entry(), entry())


def _combine(u_mat, v_mat):
    i_unit = LaurentPoly.constant(GaussianRational(0, 1))
    entries = [p + q * i_unit for p, q in zip(u_mat.entries(), v_mat.entries())]
    return StructuredMatrix(u_mat.e, *entries)


class TestBlockAssembly:
    @given(h=real_polys, u=st.lists(st.integers(-2, 2), min_size=8, max_size=8))
    @settings(max_examples=30)
    def test_real_block_matches_structured_residual(self, h, u):
        # a real candidate U satisfies the re-block exactly when
        # U * M_src - M_dst * swap(U) vanishes as a structured matrix
        m_src = make_twist(FormSpec(1, h))
        m_dst = make_twist(FormSpec(1, h + one))
        deg = 1
        width = deg + 1
        entries = [LaurentPoly({j: u[i * width + j] for j in range(width)})
                   for i in range(4)]
        cand = StructuredMatrix(3, *entries)
        residual = _entry_difference(cand * m_src, m_dst * cand.s_twist())
        block = _conjugation_block(m_src, m_dst, deg, +1)
        vec = [F(u[i]) for i in range(8)]
        evaluated = [sum(a * x for a, x in zip(row, vec)) for row in block.rows]
        rows_vanish = all(v == 0 for v in evaluated)
        assert rows_vanish == all(p.is_zero for p in residual)

    @given(m=st.integers(1, 3), h=real_polys, h2=real_polys, sign=st.sampled_from((1, -1)),
           x=st.lists(real_polys, min_size=4, max_size=4))
    @settings(max_examples=40)
    def test_residual_is_fixed_by_the_cocycle(self, m, h, h2, sign, x):
        # the step behind the P and Q blocks: for cocycles M_src and M_dst the
        # residual E = X * M_src - sign * M_dst * swap(X) is
        # -sign * M_dst * swap(E) * M_src
        m_src, m_dst = make_twist(FormSpec(m, h)), make_twist(FormSpec(m, h2))
        cand = StructuredMatrix(2 * m + 1, *x)
        scale = LaurentPoly.constant(-sign)
        neg_dst = StructuredMatrix(m_dst.e, scale, zero, zero, scale) * m_dst
        residual = StructuredMatrix(cand.e, *(p + q for p, q in zip(
            (cand * m_src).entries(), (neg_dst * cand.s_twist()).entries())))
        assert residual == neg_dst * residual.s_twist() * m_src

    def test_conjugate_linearity_decomposition(self):
        # N = U + iV: the residual against gamma splits into the two blocks,
        # with the sign flip on the V block coming from coefficient conjugation
        rng = random.Random(7)
        i_unit = LaurentPoly.constant(GaussianRational(0, 1))
        m_src = make_twist(FormSpec(1, poly(1, 1)))
        m_dst = make_twist(FormSpec(1, poly(2)))
        for _ in range(10):
            u_mat = _random_real_matrix(rng, 3)
            v_mat = _random_real_matrix(rng, 3)
            n_mat = _combine(u_mat, v_mat)
            res = _entry_difference(n_mat * m_src, m_dst * n_mat.galois())
            res_re = _entry_difference(u_mat * m_src, m_dst * u_mat.s_twist())
            neg_swap = m_dst * v_mat.s_twist()
            res_im = tuple(p + q for p, q in
                           zip((v_mat * m_src).entries(), neg_swap.entries()))
            recombined = tuple(p + q * i_unit for p, q in zip(res_re, res_im))
            assert res == recombined


class TestVerifyConjugation:
    def test_identity_conjugates_itself(self):
        m = make_twist(FormSpec(1, one))
        assert verify_conjugation(StructuredMatrix.identity(3), m, m)

    def test_case12_conjugator_from_identity(self):
        assert verify_conjugation(case12_conjugator(),
                                  StructuredMatrix.identity(4), case12_twist())

    def test_wrong_target_fails(self):
        m0 = make_twist(FormSpec(1, zero))
        m1 = make_twist(FormSpec(1, one))
        assert not verify_conjugation(StructuredMatrix.identity(3), m0, m1)

    def test_laurent_candidate_fails_membership(self):
        m = make_twist(FormSpec(1, zero))
        cand = StructuredMatrix(3, LaurentPoly.monomial(-1), zero, zero, LaurentPoly.monomial(1))
        assert not verify_conjugation(cand, m, m)

    def test_zero_matrix_fails_membership(self):
        # 0 * M = M' * gamma(0) holds, so only the Lambda check rejects it
        m0 = make_twist(FormSpec(1, zero))
        m1 = make_twist(FormSpec(1, one))
        assert not verify_conjugation(StructuredMatrix(3, zero, zero, zero, zero), m0, m1)

    @given(data=st.data(), m=st.integers(1, 2), h=real_polys)
    @settings(max_examples=40)
    def test_agrees_with_inverse_reference(self, data, m, h):
        n = data.draw(lambda_matrices(2 * m + 1))
        src = make_twist(FormSpec(m, h))
        dst = n * src * unit_inverse(n.galois())
        assert verify_conjugation(n, src, dst)
        assert conjugates_by_inverse(n, src, dst)
        bent = StructuredMatrix(dst.e, dst.P + one, dst.Q, dst.S, dst.R)
        assert not verify_conjugation(n, src, bent)
        assert not conjugates_by_inverse(n, src, bent)


class TestSearch:
    def test_self_pair_contains_identity(self):
        h = poly(1, -2)
        found = search_conjugator(h, h, 2, 3, [F(1)])
        assert any(n == StructuredMatrix.identity(5) for _, n in found)

    def test_halving_pair_found(self):
        found = search_conjugator(poly(1, 1), poly(2, 8), 2, 6, [F(1), F(1, 2)])
        assert found
        assert all(r == F(1, 2) for r, _ in found)
        assert all(n.det() == one for _, n in found)

    def test_inequivalent_pair_empty(self):
        grid = [F(1), F(-1), F(2), F(-2), F(1, 2), F(-1, 2)]
        assert search_conjugator(zero, one, 1, 4, grid) == []

    def test_all_results_verified(self):
        found = search_conjugator(poly(0, 1), poly(0, -1), 2, 6, [F(-1), F(1)])
        assert found
        m_src = make_twist(FormSpec(2, poly(0, 1)))
        for r, n in found:
            # rebuild the target independently: h'' = r * h2(r^2 T)
            m_dst = make_twist(FormSpec(2, poly(0, -1).apply_scaling(r)))
            assert verify_conjugation(n, m_src, m_dst)

    def test_source_twist_built_once(self, monkeypatch):
        calls = []

        def counting_make_twist(spec):
            calls.append(spec)
            return make_twist(spec)

        monkeypatch.setattr("circleforms.oracle.make_twist", counting_make_twist)
        grid = [F(1), F(-1), F(1, 2)]
        search_conjugator(poly(1, 1), poly(2, 8), 2, 1, grid)
        assert len(calls) == 1 + len(grid)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            search_conjugator(one, one, 1, 3, [])
        with pytest.raises(ValueError):
            search_conjugator(one, one, 1, 3, [F(0)])
        with pytest.raises(ValueError):
            search_conjugator(one, one, 1, -1, [F(1)])

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            search_conjugator(one, one, 1, MAX_DEG_BOUND + 1, [F(1)])


ALPHA_GRID = (GaussianRational(1), GaussianRational(0, 1), GaussianRational(1, 1))
R_GRID = (F(1), F(-1), F(2), F(-2), F(1, 2), F(-1, 2))


class TestProofConditions:
    def test_equal_forms_alpha_one(self):
        h = poly(1, 1)
        assert proof_conditions(h, h, 2, GaussianRational(1))

    def test_negated_forms_alpha_imaginary(self):
        h = poly(1, 1)
        assert proof_conditions(h, -h, 2, GaussianRational(0, 1))
        assert not proof_conditions(h, -h, 2, GaussianRational(1))

    def test_zero_alpha_rejected(self):
        with pytest.raises(ValueError):
            proof_conditions(one, one, 1, GaussianRational(0))

    def test_inequivalent_pair_has_no_alpha(self):
        for alpha in ALPHA_GRID:
            for r in R_GRID:
                assert not proof_conditions(zero, one.apply_scaling(r), 1, alpha)

    def test_scan_agrees_with_decision(self):
        # third route to the verdict: scanning (r, alpha) flags exactly the
        # pairs whose rational witness lies in the grid
        values = (-1, 0, 1)
        for hc in itertools.product(values, repeat=2):
            for h2c in itertools.product(values, repeat=2):
                h, h2 = poly(*hc), poly(*h2c)
                scan = any(
                    proof_conditions(h, h2.apply_scaling(r), 2, alpha)
                    for r in R_GRID for alpha in ALPHA_GRID
                )
                dec = decide_equiv(h, h2, 2)
                expected = dec.equivalent and dec.rational_witness in R_GRID
                assert scan == expected, (hc, h2c)


class TestConjugatorsBetween:
    def test_exponent_mismatch(self):
        with pytest.raises(ValueError):
            conjugators_between(StructuredMatrix.identity(3), StructuredMatrix.identity(5), 2)

    def test_nonreal_solution_satisfies_both_blocks(self):
        # the weight-(1,2) conjugator has non-real coefficients; its real and
        # imaginary parts must solve the two assembled systems exactly
        deg = 3
        width = deg + 1
        conj = case12_conjugator()
        ident = StructuredMatrix.identity(4)
        for component, sign in (("re", +1), ("im", -1)):
            block = _conjugation_block(ident, case12_twist(), deg, sign)
            vec = []
            for entry in conj.entries():
                for j in range(width):
                    c = entry.coeff(j)
                    vec.append(F(c.re if component == "re" else c.im))
            residuals = [sum(a * x for a, x in zip(row, vec)) for row in block.rows]
            assert all(v == 0 for v in residuals)

    def test_axis_aligned_solutions_found(self):
        # where a diagonal rational conjugator exists the two-vector scan
        # recovers it (the deeper non-real combinations are out of its reach
        # by design; they are still certified by verify_conjugation above)
        m = make_twist(FormSpec(1, poly(1)))
        found = conjugators_between(m, m, 4)
        assert any(n == StructuredMatrix.identity(3) for n in found)
