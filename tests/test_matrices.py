"""Exact Gaussian-rational matrices: arithmetic, overflow fallback, solving."""
from fractions import Fraction

import numpy as np

from kahlerid import gq
from kahlerid.matrices import ExactMatrix, FloatMatrix, solve_exact


def _from_rows(rows, den=1):
    nrows = len(rows)
    cols = [{i: gq(Fraction(rows[i][j], den)) for i in range(nrows)}
            for j in range(len(rows[0]))]
    return ExactMatrix.from_columns(nrows, cols)


def _from_cols(cols):
    return ExactMatrix.from_columns(
        len(cols[0]), [{i: v for i, v in enumerate(col)} for col in cols])


def test_entry_and_norm():
    m = _from_rows([[1, -2], [3, 4]], den=6)
    assert m.entry(0, 1) == gq(Fraction(-1, 3))
    assert m.max_norm() == Fraction(2, 3)
    assert not m.is_zero()
    assert (m - m).is_zero()


def test_matmul_matches_fraction_reference():
    a = _from_rows([[1, 2], [3, 5]], den=7)
    b = _from_rows([[-4, 1], [2, 9]], den=3)
    c = a @ b
    ref = [
        [Fraction(1, 7) * Fraction(-4, 3) + Fraction(2, 7) * Fraction(2, 3),
         Fraction(1, 7) * Fraction(1, 3) + Fraction(2, 7) * Fraction(9, 3)],
        [Fraction(3, 7) * Fraction(-4, 3) + Fraction(5, 7) * Fraction(2, 3),
         Fraction(3, 7) * Fraction(1, 3) + Fraction(5, 7) * Fraction(9, 3)],
    ]
    for i in range(2):
        for j in range(2):
            assert c.entry(i, j) == gq(ref[i][j])


def test_matmul_int64_overflow_falls_back_exactly():
    # products near 2^63 must not wrap: dim-2 matmul of ~2^40-scale entries
    big = 1 << 40
    a = _from_rows([[big + 1, big - 3], [big + 7, big + 11]])
    b = _from_rows([[big - 1, big + 5], [big + 13, big - 17]])
    c = a @ b
    ref = [[0, 0], [0, 0]]
    av = [[big + 1, big - 3], [big + 7, big + 11]]
    bv = [[big - 1, big + 5], [big + 13, big - 17]]
    for i in range(2):
        for j in range(2):
            ref[i][j] = sum(av[i][k] * bv[k][j] for k in range(2))
            assert c.entry(i, j) == gq(ref[i][j])
    # sanity: the true product really exceeds int64
    assert max(max(row) for row in ref) > 2**63 - 1


def test_add_and_scale_with_factor_beyond_int64():
    # the common-denominator factor alone exceeds int64, though the entries fit
    big_den = 10**20 + 39
    eye = np.eye(2, dtype=np.int64)
    m = ExactMatrix(eye, np.zeros((2, 2), np.int64), big_den)
    total = ExactMatrix.zeros(2) + m
    assert total == m
    assert total.entry(0, 0) == gq(Fraction(1, big_den))
    assert ExactMatrix.zeros(2).scale(10**20) == ExactMatrix.zeros(2)


def test_complex_parts_and_adjoint():
    m = _from_cols([[gq(1, 2), gq(0, 1)], [gq(3), gq(-1, -1)]])
    assert m.has_im()
    adj = m.adjoint()
    # adjoint = conjugate transpose
    assert adj.entry(0, 0) == gq(1, -2)
    assert adj.entry(0, 1) == gq(0, -1)
    assert adj.entry(1, 0) == gq(3)
    assert m.bar().transpose() == adj
    assert (m @ m).adjoint() == adj @ adj


def test_frobenius_inner_hermitian():
    m = _from_cols([[gq(1, 2), gq(0, 1)], [gq(3), gq(-1, -1)]])
    w = _from_cols([[gq(2), gq(1, 1)], [gq(0, -3), gq(5)]])
    mm = m.frobenius_inner(m)
    assert mm.im == 0 and mm.re > 0
    assert m.frobenius_inner(w) == w.frobenius_inner(m).conjugate()


def test_scale_and_identity():
    ident = ExactMatrix.identity(3)
    assert ident.scale(gq(0, 1)).scale(gq(0, 1)) == ident.scale(gq(-1))
    assert (ident - ident).max_norm() == Fraction(0)


def test_float_matrix_roundtrip():
    m = _from_rows([[1, 2], [3, 4]], den=3)
    f = FloatMatrix.from_exact(m)
    assert abs(f.data[0, 1] - 2 / 3) < 1e-15
    assert (f - f).max_norm() == 0.0
    assert f.max_norm() > 1.0


def test_solve_exact_unique():
    cols = [[gq(1), gq(0)], [gq(1), gq(1)]]
    x = solve_exact(cols, [gq(3), gq(2)])
    assert x == [gq(1), gq(2)]


def test_solve_exact_complex():
    cols = [[gq(0, 1), gq(1)]]
    x = solve_exact(cols, [gq(1), gq(0, -1)])
    assert x == [gq(0, -1)]


def test_solve_exact_inconsistent_returns_none():
    cols = [[gq(1), gq(1)]]
    assert solve_exact(cols, [gq(1), gq(2)]) is None


def test_solve_exact_underdetermined_prefers_leading_columns():
    # second column dependent on first: free variable pinned to zero
    cols = [[gq(1), gq(2)], [gq(2), gq(4)]]
    x = solve_exact(cols, [gq(3), gq(6)])
    assert x == [gq(3), gq(0)]
