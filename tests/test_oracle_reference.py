"""Differential tests: the integer kernel bases, the integer candidate scan and
its determinant test against the rational reference path in
``reference_oracle``, the P and Q conjugation blocks against the full
four-equation system, and the closed-form bases of the oracle against the
kernels of the P and Q blocks."""

import itertools
import json
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circleforms import (
    FormSpec,
    LaurentPoly,
    LinearSystem,
    StructuredMatrix,
    case12_conjugator,
    case12_twist,
    conjugators_between,
    make_twist,
    nullspace,
    verify_cocycle,
)
from circleforms import oracle
from circleforms.acceptance import ORACLE_R_GRID
from circleforms.cli import main
from circleforms.oracle import (
    _build_matrix,
    _candidates,
    _det_is_unit,
)

from reference_oracle import (
    as_pairs,
    conjugation_block,
    fraction_matrix,
    fraction_nullspace,
    fraction_rref,
    reference_bases,
    reference_block,
    reference_candidates,
    reference_conjugators_between,
)
from strategies import rationals, real_polys

F = Fraction


@st.composite
def matrices(draw, max_rows=6, max_cols=8):
    """Integer matrices with many zero entries, drawn as rational rows each
    scaled by the lcm of its denominators (which leaves the kernel
    unchanged); some have an appended combination of their rows
    (rank-deficient) or a zeroed column."""
    ncols = draw(st.integers(1, max_cols))
    entry = st.one_of(st.just(F(0)), rationals)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=max_rows))
    if rows and draw(st.booleans()):
        coeffs = draw(st.lists(rationals, min_size=len(rows), max_size=len(rows)))
        rows.append([sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(ncols)])
    if draw(st.booleans()):
        dead = draw(st.integers(0, ncols - 1))
        rows = [[F(0) if j == dead else x for j, x in enumerate(row)] for row in rows]
    return [[int(x * lcm(*(y.denominator for y in row))) for x in row] for row in rows], ncols


def _basis(rows, ncols):
    return nullspace(LinearSystem(rows, [("P", j, "re") for j in range(ncols)]))


def _rref_from_basis(basis, ncols):
    """The nonzero RREF rows and pivots that a kernel basis in canonical
    form determines: the pivots are the columns that are not free, and the
    row with pivot p holds -U[p] / D at each free column."""
    free = [next(j for j in reversed(range(ncols)) if vec[j]) for vec, _ in basis]
    pivots = [c for c in range(ncols) if c not in free]
    rows = []
    for p in pivots:
        row = [F(int(c == p)) for c in range(ncols)]
        for (vec, den), f in zip(basis, free):
            row[f] = -F(vec[p], den)
        rows.append(row)
    return rows, pivots


class TestEliminationAgainstReference:
    @given(matrices())
    @settings(max_examples=300)
    def test_rref_rows_and_pivots(self, case):
        rows, ncols = case
        basis = _basis(rows, ncols)
        assert all(type(x) is int for vec, den in basis for x in (*vec, den))
        assert _rref_from_basis(basis, ncols) == fraction_rref(rows, ncols)

    @given(matrices())
    @settings(max_examples=200)
    def test_nullspace_basis(self, case):
        rows, ncols = case
        basis = _basis(rows, ncols)
        ref = fraction_nullspace(rows, ncols)
        assert [[F(x, den) for x in vec] for vec, den in basis] == ref
        assert basis == as_pairs(ref)
        pivots = set(fraction_rref(rows, ncols)[1])
        free_cols = [c for c in range(ncols) if c not in pivots]
        for (vec, den), free in zip(basis, free_cols, strict=True):
            assert den > 0 and gcd(*vec) == 1 and vec[free] == den
            assert all(type(x) is int for x in vec)

    @given(matrices(), st.data())
    @settings(max_examples=100)
    def test_scaled_integer_rows_give_the_same_form(self, case, data):
        rows, ncols = case
        factors = data.draw(st.lists(st.integers(1, 6),
                                     min_size=len(rows), max_size=len(rows)))
        scaled = [[k * x for x in row] for k, row in zip(factors, rows)]
        assert _basis(scaled, ncols) == _basis(rows, ncols) == \
            as_pairs(fraction_nullspace(scaled, ncols))

    @given(matrices(), st.data())
    @settings(max_examples=100)
    def test_basis_ignores_row_order_and_nonzero_scaling(self, case, data):
        rows, ncols = case
        factors = data.draw(st.lists(st.integers(-6, 6).filter(bool),
                                     min_size=len(rows), max_size=len(rows)))
        scaled = data.draw(st.permutations([[k * x for x in row]
                                            for k, row in zip(factors, rows)]))
        assert _basis(scaled, ncols) == _basis(rows, ncols)

    @given(matrices(), st.data())
    @settings(max_examples=100)
    def test_basis_ignores_zero_and_duplicate_rows(self, case, data):
        rows, ncols = case
        extra = data.draw(st.lists(st.one_of(st.just([0] * ncols), st.sampled_from(rows))
                                   if rows else st.just([0] * ncols), max_size=4))
        positions = data.draw(st.lists(st.integers(0, len(rows)),
                                       min_size=len(extra), max_size=len(extra)))
        padded = [list(row) for row in rows]
        for at, row in zip(positions, extra):
            padded.insert(at, list(row))
        assert _basis(padded, ncols) == _basis(rows, ncols)

    def test_wide_and_empty_systems(self):
        assert _basis([], 3) == as_pairs(fraction_nullspace([], 3)) == \
            [([1, 0, 0], 1), ([0, 1, 0], 1), ([0, 0, 1], 1)]
        assert nullspace(LinearSystem([], [("P", 0, "re"), ("P", 1, "re")])) == \
            as_pairs(fraction_nullspace([], 2)) == [([1, 0], 1), ([0, 1], 1)]
        rows = [[0, 2, 4, 0, 6], [0, 1, 2, 0, 3]]
        assert fraction_rref(rows, 5) == ([[0, 1, 2, 0, 3]], [1])
        assert _basis(rows, 5) == as_pairs(fraction_nullspace(rows, 5)) == \
            [([1, 0, 0, 0, 0], 1), ([0, -2, 1, 0, 0], 1),
             ([0, 0, 0, 1, 0], 1), ([0, -3, 0, 0, 1], 1)]


def poly(*coeffs):
    return LaurentPoly.from_coeffs(coeffs)


# (m, h, h2, deg, grid, in_grid): m = 1 and m = 2, each with a pair whose
# witness lies in the grid (h2 = h rescaled by 1/w) and an inequivalent pair
SEARCHES = (
    (1, poly(1, 2), poly(1, 2).apply_scaling(F(-1, 2)), 4, (F(1), F(-2), F(1, 2)), True),
    (1, poly(1, 2), poly(0, -2), 4, (F(1), F(-1), F(2)), False),
    (2, poly(1, 1), poly(2, 8), 5, (F(1), F(1, 2), F(-1, 2)), True),
    (2, poly(2, -1, 1), poly(0, 1, -1), 4, (F(1), F(3), F(-1, 3)), False),
)


ORACLE_ARGVS = [
    ["--m", "2", "--h", "1,1", "--hp", "2,8", "--deg", "4", "--r-grid=1,1/2,-1/2"],
    ["--m", "1", "--h", "1,-1/3", "--hp", "1,1/3", "--deg", "5", "--r-grid=1,-1,2"],
    ["--m", "2", "--h", "0,1", "--hp", "0,-1", "--deg", "6", "--r-grid=-1,1"],
    ["--m", "1", "--h", "0", "--hp", "1", "--deg", "3", "--r-grid=1,-1,2"],
    # findings with real and with imaginary parts
    ["--m", "1", "--h", "0", "--hp", "0", "--deg", "2"],
]


def _twists(m, h, h2, r):
    return make_twist(FormSpec(m, h)), make_twist(FormSpec(m, h2.apply_scaling(r)))


def _assert_reference_bytes(argv, capsys, monkeypatch):
    """stdout and stderr of the CLI call equal those with the reference scan."""
    assert main(argv) == 0
    fast = capsys.readouterr()
    monkeypatch.setattr(oracle, "conjugators_between", reference_conjugators_between)
    assert main(argv) == 0
    assert capsys.readouterr() == fast


class TestScanAgainstReference:
    @pytest.mark.parametrize("m,h,h2,deg,grid,in_grid", SEARCHES)
    def test_det_prefilter_matches_structured_det(self, m, h, h2, deg, grid, in_grid):
        survivors = 0
        for r in grid:
            m_src, m_dst = _twists(m, h, h2, r)
            re_basis, im_basis = reference_bases(m_src, m_dst, deg)
            ref = reference_candidates(re_basis, im_basis)
            ncols = 4 * (deg + 1)
            new = list(_candidates(as_pairs(re_basis), as_pairs(im_basis), ncols))
            assert len(new) == len(ref)
            # pairwise distinct, so with _build_matrix injective no matrix is found twice
            assert len({(*(F(x, c) for x in u), *(F(y, c) for y in v))
                        for u, v, c in new}) == len(new)
            zero = [F(0)] * ncols
            for (u, v, c), (ref_u, ref_v) in zip(new, ref):
                assert [F(x, c) for x in u] == (zero if ref_u is None else ref_u)
                assert [F(y, c) for y in v] == (zero if ref_v is None else ref_v)
                det = fraction_matrix(m_src.e, ref_u, ref_v, deg).det()
                assert _build_matrix(m_src.e, u, v, deg, c).det() == det
                unit = not det.is_zero and det.is_constant
                assert _det_is_unit(m_src.e, deg + 1, u, v) == unit
                survivors += unit
        assert survivors or not in_grid
        assert bool(oracle.search_conjugator(h, h2, m, deg, grid)) == in_grid

    def test_det_prefilter_on_a_non_real_conjugator(self):
        # the weight-(1,2) conjugator is U + i*V with both parts nonzero
        conj, width = case12_conjugator(), 4
        coeffs = [entry.coeff(j) for entry in conj.entries() for j in range(width)]
        den = lcm(*(F(x).denominator for c in coeffs for x in (c.re, c.im)))
        u = [int(c.re * den) for c in coeffs]
        v = [int(c.im * den) for c in coeffs]
        assert any(u) and any(v)
        assert _det_is_unit(4, width, u, v)
        zero = [0] * len(u)
        for pair in ((u, v), (u, [-y for y in v]), (v, u), (u, zero), (zero, v)):
            det = _build_matrix(4, *pair, width - 1).det()
            assert _det_is_unit(4, width, *pair) == (not det.is_zero and det.is_constant)

    @given(st.sampled_from((3, 4, 5)), st.integers(1, 3), st.data())
    @settings(max_examples=300)
    def test_det_prefilter_on_random_vectors(self, e, width, data):
        vec = st.lists(st.sampled_from((0, 0, 0, 1, -1, 2)), min_size=4 * width,
                       max_size=4 * width)
        zero = [0] * (4 * width)
        u = data.draw(st.one_of(st.just(zero), vec))
        v = data.draw(vec if u is zero else st.one_of(st.just(zero), vec))
        det = _build_matrix(e, u, v, width - 1).det()
        assert _det_is_unit(e, width, u, v) == (not det.is_zero and det.is_constant)

    @pytest.mark.parametrize("m,h,h2,deg,grid,in_grid", SEARCHES)
    def test_bases_match(self, m, h, h2, deg, grid, in_grid):
        for r in grid:
            m_src, m_dst = _twists(m, h, h2, r)
            re_basis, im_basis = reference_bases(m_src, m_dst, deg)
            re_block = conjugation_block(m_src, m_dst, deg, +1)
            im_block = conjugation_block(m_src, m_dst, deg, -1)
            assert all(type(x) is int for block in (re_block, im_block)
                       for row in block.rows for x in row)
            assert nullspace(re_block) == as_pairs(re_basis)
            assert nullspace(im_block) == as_pairs(im_basis)

    def test_bases_match_on_every_oracle_agreement_system(self):
        # both blocks at every (h, h2, r) of the criterion's grid against the
        # full system; equal systems (the same h2 rescaled, or a zero h2) are
        # solved once
        systems = set()
        for hc, h2c in itertools.product(itertools.product((-1, 0, 1), repeat=2), repeat=2):
            m_src = make_twist(FormSpec(2, poly(*hc)))
            for r in ORACLE_R_GRID:
                m_dst = make_twist(FormSpec(2, poly(*h2c).apply_scaling(r)))
                for sign in (+1, -1):
                    block = conjugation_block(m_src, m_dst, 6, sign)
                    full = reference_block(m_src, m_dst, 6, sign)
                    systems.add((tuple(map(tuple, block.rows)), tuple(map(tuple, full.rows))))
        assert len(systems) > 400
        for rows, full in systems:
            assert _basis(rows, 28) == as_pairs(fraction_nullspace(full, 28))

    @pytest.mark.parametrize("argv", ORACLE_ARGVS)
    def test_oracle_json_bytes_match_reference(self, argv, capsys, monkeypatch):
        _assert_reference_bytes(["oracle", *argv, "--json"], capsys, monkeypatch)

    @pytest.mark.parametrize("argv", ORACLE_ARGVS)
    def test_oracle_text_bytes_match_reference(self, argv, capsys, monkeypatch):
        # the text lines print every found N, each entry in lowest terms
        _assert_reference_bytes(["oracle", *argv], capsys, monkeypatch)

    def test_byte_check_covers_findings(self, capsys):
        assert main(["oracle", "--m", "2", "--h", "1,1", "--hp", "2,8", "--deg", "4",
                     "--r-grid=1,1/2,-1/2", "--json"]) == 0
        assert len(json.loads(capsys.readouterr().out)) >= 1


COCYCLE_PAIRS = tuple(itertools.product((StructuredMatrix.identity(4), case12_twist()), repeat=2))


def _assert_blocks_match_full_system(m_src, m_dst, deg):
    for sign in (+1, -1):
        block = conjugation_block(m_src, m_dst, deg, sign)
        full = reference_block(m_src, m_dst, deg, sign)
        assert block.rows == full.rows[:len(block.rows)]
        assert nullspace(block) == nullspace(full) == \
            as_pairs(fraction_nullspace(full.rows, 4 * (deg + 1)))


def _conjugated(n, m):
    """N * M * gamma(N)^-1, for N = diag(a, b) with nonzero rational a, b: a
    cocycle when M is, with P entry (a/b) * P."""
    a, b = (x.coeff(0).re for x in (n.P, n.R))
    inverse = StructuredMatrix(n.e, LaurentPoly.constant(1 / b), poly(), poly(),
                               LaurentPoly.constant(1 / a))
    return n * m * inverse


def _diag(e, a, b):
    return StructuredMatrix(e, LaurentPoly.constant(a), poly(), poly(), LaurentPoly.constant(b))


def _assert_closed_form_matches_block(m_src, m_dst, deg):
    assert oracle._conjugation_bases(m_src, m_dst, deg) == tuple(
        nullspace(conjugation_block(m_src, m_dst, deg, sign)) for sign in (+1, -1))


class TestClosedFormBases:
    """The bases solved on the p and q columns, with r and s in closed form,
    equal those of the P and Q entry equations in all four columns."""

    @given(st.integers(1, 3), real_polys, real_polys, st.integers(0, 4))
    @settings(max_examples=60)
    def test_family_twists(self, m, h, h2, deg):
        _assert_closed_form_matches_block(make_twist(FormSpec(m, h)),
                                          make_twist(FormSpec(m, h2)), deg)

    @pytest.mark.parametrize("deg", (0, 1, 3, 5))
    @pytest.mark.parametrize("pair", range(len(COCYCLE_PAIRS)))
    def test_identity_and_case12(self, pair, deg):
        _assert_closed_form_matches_block(*COCYCLE_PAIRS[pair], deg)

    def test_every_oracle_agreement_system(self):
        # equal targets (the same h2 rescaled, or a zero h2) are solved once
        twists = {}
        for hc, h2c in itertools.product(itertools.product((-1, 0, 1), repeat=2), repeat=2):
            for r in ORACLE_R_GRID:
                h2 = poly(*h2c).apply_scaling(r)
                twists[hc, h2] = make_twist(FormSpec(2, poly(*hc))), make_twist(FormSpec(2, h2))
        assert len(twists) == 225
        for m_src, m_dst in twists.values():
            _assert_closed_form_matches_block(m_src, m_dst, 6)

    @pytest.mark.parametrize("deg", range(4))
    def test_target_constant_term_not_one(self, deg):
        # diag(2, 1/2) is a cocycle with P(0) = 2, so every row and every
        # closed form carries powers of 2; its kernels have dimension 2(deg+1)
        diag = _diag(3, 2, F(1, 2))
        assert verify_cocycle(diag)
        bases = oracle._conjugation_bases(diag, diag, deg)
        assert [len(b) for b in bases] == [2 * (deg + 1)] * 2
        twist = make_twist(FormSpec(1, poly(1, F(-1, 3))))
        bent = _conjugated(_diag(3, 2, 1), twist)
        assert verify_cocycle(bent) and bent.P.coeff(0).re == 2
        for m_src, m_dst in ((diag, diag), (StructuredMatrix.identity(3), diag),
                             (diag, StructuredMatrix.identity(3)), (twist, bent),
                             (bent, twist), (bent, bent)):
            _assert_closed_form_matches_block(m_src, m_dst, deg)


class TestCocycleLemma:
    """For real polynomial cocycles the P and Q entry equations of a block
    imply its S and R ones, so the P and Q rows have the kernel of all four."""

    @given(st.integers(1, 3), real_polys, real_polys, st.integers(0, 4))
    @settings(max_examples=60)
    def test_family_blocks_have_the_full_kernel(self, m, h, h2, deg):
        _assert_blocks_match_full_system(make_twist(FormSpec(m, h)),
                                         make_twist(FormSpec(m, h2)), deg)

    @pytest.mark.parametrize("deg", (0, 1, 3, 5))
    @pytest.mark.parametrize("pair", range(len(COCYCLE_PAIRS)))
    def test_identity_and_case12_blocks_have_the_full_kernel(self, pair, deg):
        _assert_blocks_match_full_system(*COCYCLE_PAIRS[pair], deg)

    def test_identity_and_case12_pairs_pass_the_cocycle_check(self):
        ident = StructuredMatrix.identity(4)
        assert ident in conjugators_between(ident, ident, 2)
        for m_src, m_dst in COCYCLE_PAIRS:
            assert verify_cocycle(m_src) and verify_cocycle(m_dst)
            conjugators_between(m_src, m_dst, 2)

    def test_non_cocycle_pair_is_refused_before_any_system(self, monkeypatch):
        bent = StructuredMatrix(3, poly(1, 1), poly(), poly(), poly(1))
        twist = make_twist(FormSpec(1, poly(1, 2)))
        # a Laurent cocycle with P = 0, for which the lemma's P2 != 0 fails
        laurent = StructuredMatrix(4, poly(), LaurentPoly.monomial(-2),
                                   -LaurentPoly.monomial(-2), poly(1))
        assert verify_cocycle(laurent)
        # for both the P and Q rows have solutions that the full system has not
        for m_src, m_dst in ((bent, twist), (StructuredMatrix.identity(4), laurent)):
            for sign in (+1, -1):
                assert nullspace(conjugation_block(m_src, m_dst, 3, sign)) != \
                    nullspace(reference_block(m_src, m_dst, 3, sign))

        def no_system(system):
            raise AssertionError("a system was solved")

        monkeypatch.setattr(oracle, "nullspace", no_system)
        for m_src, m_dst in ((bent, twist), (twist, bent), (bent, bent),
                             (case12_twist(), laurent), (laurent, case12_twist())):
            with pytest.raises(ValueError, match="cocycle"):
                conjugators_between(m_src, m_dst, 2)
