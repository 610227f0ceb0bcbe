"""Differential tests: the integer elimination, the integer candidate scan and
its determinant test against the rational reference path in
``reference_oracle``."""

import json
from fractions import Fraction
from math import lcm

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
    make_twist,
    nullspace,
)
from circleforms import oracle
from circleforms.cli import main
from circleforms.oracle import (
    _build_matrix,
    _candidates,
    _det_is_unit,
    _rref,
)

from reference_oracle import (
    fraction_matrix,
    fraction_nullspace,
    fraction_rref,
    reference_bases,
    reference_candidates,
    reference_conjugators_between,
)
from strategies import rationals

F = Fraction


@st.composite
def matrices(draw, max_rows=6, max_cols=8):
    """Rational matrices with many zero entries; some have an appended
    combination of their rows (rank-deficient) or a zeroed column."""
    ncols = draw(st.integers(1, max_cols))
    entry = st.one_of(st.just(F(0)), rationals)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=max_rows))
    if rows and draw(st.booleans()):
        coeffs = draw(st.lists(rationals, min_size=len(rows), max_size=len(rows)))
        rows.append([sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(ncols)])
    if draw(st.booleans()):
        dead = draw(st.integers(0, ncols - 1))
        rows = [[F(0) if j == dead else x for j, x in enumerate(row)] for row in rows]
    return rows, ncols


def _normalized(rows, pivots):
    return [[F(x, row[p]) for x in row] for row, p in zip(rows, pivots)]


class TestEliminationAgainstReference:
    @given(matrices())
    @settings(max_examples=300)
    def test_rref_rows_and_pivots(self, case):
        rows, ncols = case
        ref_rows, ref_pivots = fraction_rref(rows, ncols)
        int_rows, pivots = _rref(rows, ncols)
        assert pivots == ref_pivots
        assert all(type(x) is int for row in int_rows for x in row)
        assert _normalized(int_rows, pivots) == ref_rows

    @given(matrices())
    @settings(max_examples=200)
    def test_nullspace_basis(self, case):
        rows, ncols = case
        system = LinearSystem(rows, [("P", j, "re") for j in range(ncols)])
        basis = nullspace(system)
        assert basis == fraction_nullspace(rows, ncols)
        assert all(type(x) is Fraction for vec in basis for x in vec)

    @given(matrices())
    @settings(max_examples=100)
    def test_scaled_integer_rows_give_the_same_form(self, case):
        rows, ncols = case
        den = lcm(*(x.denominator for row in rows for x in row))
        scaled = [[int(x * den) for x in row] for row in rows]
        assert _rref(scaled, ncols) == _rref(rows, ncols)

    def test_wide_and_empty_systems(self):
        assert _rref([], 3) == ([], [])
        assert fraction_nullspace([], 2) == nullspace(
            LinearSystem([], [("P", 0, "re"), ("P", 1, "re")]))
        rows = [[F(0), F(2), F(4), F(0), F(6)], [F(0), F(1, 3), F(2, 3), F(0), F(1)]]
        int_rows, pivots = _rref(rows, 5)
        assert pivots == [1]
        assert int_rows == [[0, 1, 2, 0, 3]]


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


def _twists(m, h, h2, r):
    return make_twist(FormSpec(m, h)), make_twist(FormSpec(m, h2.apply_scaling(r)))


class TestScanAgainstReference:
    @pytest.mark.parametrize("m,h,h2,deg,grid,in_grid", SEARCHES)
    def test_det_prefilter_matches_structured_det(self, m, h, h2, deg, grid, in_grid):
        survivors = 0
        for r in grid:
            m_src, m_dst = _twists(m, h, h2, r)
            re_basis, im_basis = reference_bases(m_src, m_dst, deg)
            ref = reference_candidates(re_basis, im_basis)
            new = list(_candidates(re_basis, im_basis))
            assert len(new) == len(ref)
            for (u, v, c), (ref_u, ref_v) in zip(new, ref):
                assert (None if u is None else [F(x, c) for x in u]) == ref_u
                assert (None if v is None else [F(y, c) for y in v]) == ref_v
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
        for pair in ((u, v), (u, [-y for y in v]), (v, u), (u, None), (None, v)):
            det = _build_matrix(4, *pair, width - 1).det()
            assert _det_is_unit(4, width, *pair) == (not det.is_zero and det.is_constant)

    @given(st.sampled_from((3, 4, 5)), st.integers(1, 3), st.data())
    @settings(max_examples=300)
    def test_det_prefilter_on_random_vectors(self, e, width, data):
        vec = st.lists(st.sampled_from((0, 0, 0, 1, -1, 2)), min_size=4 * width,
                       max_size=4 * width)
        u = data.draw(st.one_of(st.none(), vec))
        v = data.draw(vec if u is None else st.one_of(st.none(), vec))
        det = _build_matrix(e, u, v, width - 1).det()
        assert _det_is_unit(e, width, u, v) == (not det.is_zero and det.is_constant)

    @pytest.mark.parametrize("m,h,h2,deg,grid,in_grid", SEARCHES)
    def test_bases_match(self, m, h, h2, deg, grid, in_grid):
        for r in grid:
            m_src, m_dst = _twists(m, h, h2, r)
            re_basis, im_basis = reference_bases(m_src, m_dst, deg)
            assert nullspace(oracle._conjugation_block(m_src, m_dst, deg, +1)) == re_basis
            assert nullspace(oracle._conjugation_block(m_src, m_dst, deg, -1)) == im_basis

    @pytest.mark.parametrize("argv", [
        ["--m", "2", "--h", "1,1", "--hp", "2,8", "--deg", "4", "--r-grid=1,1/2,-1/2"],
        ["--m", "1", "--h", "1,-1/3", "--hp", "1,1/3", "--deg", "5", "--r-grid=1,-1,2"],
        ["--m", "2", "--h", "0,1", "--hp", "0,-1", "--deg", "6", "--r-grid=-1,1"],
        ["--m", "1", "--h", "0", "--hp", "1", "--deg", "3", "--r-grid=1,-1,2"],
    ])
    def test_oracle_json_bytes_match_reference(self, argv, capsys, monkeypatch):
        argv = ["oracle", *argv, "--json"]
        assert main(argv) == 0
        fast = capsys.readouterr().out
        monkeypatch.setattr(oracle, "conjugators_between", reference_conjugators_between)
        assert main(argv) == 0
        assert capsys.readouterr().out == fast

    def test_byte_check_covers_findings(self, capsys):
        assert main(["oracle", "--m", "2", "--h", "1,1", "--hp", "2,8", "--deg", "4",
                     "--r-grid=1,1/2,-1/2", "--json"]) == 0
        assert len(json.loads(capsys.readouterr().out)) >= 1
