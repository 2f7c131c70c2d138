"""The fraction-free echelon, rref, kernel and det against Fraction
oracles; echelon, rref and kernel read sparse (column, value) rows."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nilharm import linalg
from nilharm.linalg import det, echelon, kernel, rref


# Gauss-Jordan (rref, kernel) and Gaussian (det) elimination in Fraction
# arithmetic: the references the integer elimination must match exactly.
def oracle_rref(rows):
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c] != 0),
                         None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [mat[i][j] - f * mat[r][j] for j in range(ncols)]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def oracle_kernel(rows, ncols):
    ech, pivots = oracle_rref(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -ech[r][fc]
        basis.append(vec)
    return basis


def oracle_det(rows):
    mat = [[Fraction(x) for x in row] for row in rows]
    n, out = len(mat), Fraction(1)
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if mat[i][c] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            mat[c], mat[pivot_row] = mat[pivot_row], mat[c]
            out = -out
        out *= mat[c][c]
        for i in range(c + 1, n):
            f = mat[i][c] / mat[c][c]
            mat[i] = [mat[i][j] - f * mat[c][j] for j in range(n)]
    return out


# ints, zeros and non-integral rationals, mixed within a row
entries = st.one_of(st.just(0), st.integers(-5, 5),
                    st.fractions(min_value=-9, max_value=9,
                                 max_denominator=6))


@st.composite
def matrices(draw, square=False):
    """Random rows plus zero rows, duplicates and combinations of rows,
    so that rank deficiency is common; tall and wide shapes both."""
    ncols = draw(st.integers(1, 7))
    nrows = ncols if square else draw(st.integers(1, 9))
    rows = []
    while len(rows) < nrows:
        kind = draw(st.sampled_from(("random", "random", "zero", "copy",
                                     "combination")))
        if kind == "zero":
            rows.append([0] * ncols)
        elif kind != "random" and rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(entries), draw(entries)
            rows.append(list(a) if kind == "copy"
                        else [s * x + t * y for x, y in zip(a, b)])
        else:
            rows.append(draw(st.lists(entries, min_size=ncols,
                                      max_size=ncols)))
    return rows


@st.composite
def sparse_rows(draw, rows):
    """The dense rows as (column, value) pairs in a drawn column order,
    each zero value kept or left out, so a zero row may come out empty."""
    out = []
    for row in rows:
        pairs = [(c, x) for c, x in enumerate(row) if x or draw(st.booleans())]
        out.append(draw(st.permutations(pairs)))
    return out


@settings(max_examples=150, deadline=None)
@given(st.data(), matrices())
@example(None, [[0, 0, 0]])
@example(None, [[Fraction(1, 2), Fraction(1, 3)], [3, 2], [0, 0], [6, 4]])
def test_rref_kernel_and_rank_match_the_fraction_oracle(data, rows):
    ncols = len(rows[0])
    # the explicit examples keep every pair, zeros included, in order
    sparse = ([list(enumerate(row)) for row in rows] if data is None
              else data.draw(sparse_rows(rows)))
    ech, pivots = rref(sparse, ncols)
    assert (ech, pivots) == oracle_rref(rows)
    assert all(type(x) is Fraction for row in ech for x in row)
    assert kernel(sparse, ncols) == oracle_kernel(rows, ncols)
    basis = echelon(iter(row) for row in sparse)
    assert sorted(basis) == pivots
    for c, vec in basis.items():
        # primitive integer rows, zero on every other pivot column
        assert all(type(x) is int and x for x in vec.values())
        assert math.gcd(*vec.values()) == 1 and min(vec) == c
        assert [Fraction(vec.get(k, 0), vec[c]) for k in range(ncols)] \
            == ech[pivots.index(c)]


@settings(max_examples=150, deadline=None)
@given(matrices(square=True))
def test_det_matches_the_fraction_oracle(rows):
    got = det(rows)
    assert got == oracle_det(rows)
    assert type(got) is Fraction


def test_rref_does_not_depend_on_row_order():
    rows = [[0, 2, 4, 1], [1, Fraction(1, 3), 0, 0], [1, 3, 4, 1]]
    sparse = [list(enumerate(row)) for row in rows]
    assert (rref(sparse, 4) == rref(sparse[::-1], 4)
            == rref([row[::-1] for row in sparse], 4) == oracle_rref(rows))


def test_empty_input():
    # no equations: every vector is in the kernel
    assert rref([], 3) == ([], [])
    assert kernel([], 3) == [[Fraction(int(i == j)) for j in range(3)]
                             for i in range(3)]
    assert kernel([[], [(1, 0)]], 2) == kernel([], 2)
    assert kernel([], 0) == []
    assert echelon([]) == {}
    assert det([]) == 1


def test_scaled_reads_a_float_ratio_without_a_fraction(monkeypatch):
    floats = [0.1, -2.5, 3.0, -0.0, 1e-300, 5e300]
    expected = linalg._scaled([Fraction(x) for x in floats])
    built = []

    def counted(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(linalg, "Fraction", counted)
    assert linalg._scaled(floats) == expected
    assert built == []
    # a numpy scalar is no float to type(), so it goes through Fraction
    assert linalg._scaled([np.float64(0.75), 1]) == ([3, 4], 4)
    assert len(built) == 1
    for bad, error in ((math.nan, ValueError), (math.inf, OverflowError),
                       (-math.inf, OverflowError)):
        with pytest.raises(error):
            linalg._scaled([1, bad])
