"""Exact Gaussian-rational matrices: arithmetic, overflow fallback, solving."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kahlerid import gq, matrices
from kahlerid.matrices import (
    ExactMatrix,
    FloatMatrix,
    FrobeniusColumns,
    _max_abs,
    linear_combination,
    solve_exact,
)
from kahlerid.operators import vector_operator


def _narrowest(bound):
    """The storage dtype of parts with this bound: the narrowest signed
    integer dtype holding +-bound, int64 below 2**62, object from there."""
    for t in (np.int8, np.int16, np.int32, np.int64):
        if bound <= np.iinfo(t).max and bound < 1 << 62:
            return np.dtype(t)
    return np.dtype(object)


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


def test_zero_matrix_with_denominator_beyond_int64_normalizes_to_den_1():
    big_den = 10**20 + 39
    z = np.zeros((2, 2), np.int64)
    assert ExactMatrix(z, z.copy(), big_den) == ExactMatrix.zeros(2)
    m = ExactMatrix(np.eye(2, dtype=np.int64), z.copy(), big_den)
    assert m - m == ExactMatrix.zeros(2)
    assert (m - m).den == 1


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
    assert abs(f.re[0, 1] - 2 / 3) < 1e-15 and f.im is None
    assert (f - f).max_norm() == 0.0
    assert f.max_norm() > 1.0


def test_solve_exact_unique():
    cols = [[gq(1), gq(0)], [gq(1), gq(1)]]
    [x] = solve_exact(cols, [[gq(3), gq(2)]])
    assert x == [gq(1), gq(2)]


def test_solve_exact_complex():
    cols = [[gq(0, 1), gq(1)]]
    [x] = solve_exact(cols, [[gq(1), gq(0, -1)]])
    assert x == [gq(0, -1)]


def test_solve_exact_inconsistent_returns_none():
    cols = [[gq(1), gq(1)]]
    assert solve_exact(cols, [[gq(1), gq(2)]]) == [None]


def test_solve_exact_underdetermined_prefers_leading_columns():
    # second column dependent on first: free variable pinned to zero
    cols = [[gq(1), gq(2)], [gq(2), gq(4)]]
    [x] = solve_exact(cols, [[gq(3), gq(6)]])
    assert x == [gq(3), gq(0)]


def test_solve_exact_many_empty_and_single():
    cols = [[gq(1), gq(0)], [gq(1), gq(1)]]
    assert solve_exact(cols, []) == []
    assert solve_exact(cols, [[gq(3), gq(2)]]) == [[gq(1), gq(2)]]


_small = st.builds(gq, st.integers(-3, 3), st.integers(-2, 2))


@st.composite
def _systems(draw):
    """A rank-deficient system and right-hand sides inside and outside its span."""
    nrows = draw(st.integers(1, 5))
    ncols = draw(st.integers(1, 5))
    rank = draw(st.integers(0, min(nrows, ncols)))
    basis = [[draw(_small) for _ in range(nrows)] for _ in range(rank)]
    mix = [[draw(_small) for _ in range(rank)] for _ in range(ncols)]
    columns = [[sum((c * b[i] for c, b in zip(m, basis)), gq(0)) for i in range(nrows)]
               for m in mix]
    targets, in_span = [], []
    for _ in range(draw(st.integers(1, 4))):
        in_span.append(draw(st.booleans()))
        if in_span[-1]:
            w = [draw(_small) for _ in range(ncols)]
            targets.append([sum((c * col[i] for c, col in zip(w, columns)), gq(0))
                            for i in range(nrows)])
        else:
            targets.append([draw(_small) for _ in range(nrows)])
    return columns, targets, in_span


@settings(max_examples=80, deadline=None)
@given(_systems())
def test_solve_exact_many_equals_separate_solves(system):
    columns, targets, in_span = system
    got = solve_exact(columns, targets)
    assert got == [solve_exact(columns, [t])[0] for t in targets]
    for t, x, inside in zip(targets, got, in_span):
        assert x is not None or not inside
        if x is not None:
            assert [sum((c * col[i] for c, col in zip(x, columns)), gq(0))
                    for i in range(len(t))] == t


def test_solve_exact_many_pins_free_variables_and_flags_inconsistent_columns():
    # rank 1: the second column is twice the first, the third is zero
    cols = [[gq(1), gq(0, 1)], [gq(2), gq(0, 2)], [gq(0), gq(0)]]
    targets = [[gq(3), gq(0, 3)], [gq(1), gq(1)], [gq(0), gq(0)]]
    assert solve_exact(cols, targets) == [
        [gq(3), gq(0), gq(0)], None, [gq(0), gq(0), gq(0)]]


def _as_object(m):
    # the same matrix held in Python integers, so every product takes the object path;
    # `_normalized=True` keeps that dtype, outside the storage rule
    return ExactMatrix(m.re.astype(object), m.im.astype(object), m.den, _normalized=True)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_frobenius_inner_int64_path_equals_object_path(rows, cols, data):
    entries = st.builds(gq, st.fractions(-9, 9, max_denominator=6), st.integers(-9, 9))

    def mat():
        return ExactMatrix.from_columns(rows, [
            {i: data.draw(entries) for i in range(rows)} for _ in range(cols)])

    a, b = mat(), mat()
    assert object not in (a.re.dtype, b.re.dtype)
    assert a.frobenius_inner(b) == _as_object(a).frobenius_inner(_as_object(b))


def test_frobenius_inner_above_the_int64_bound_takes_the_object_path():
    # 2 * size * max|a| * max|b| = 2**64 >= 2**62, and the sums exceed int64
    big = 1 << 31
    re = np.array([[big, big - 1]], dtype=np.int64)
    a = ExactMatrix(re, np.array([[0, big]], dtype=np.int64), 1)
    b = ExactMatrix(re.copy(), np.array([[-big, 3]], dtype=np.int64), 1)
    got = a.frobenius_inner(b)
    # sum a * conj(b) over the two entries, in Python integers
    av = [(big, 0), (big - 1, big)]
    bv = [(big, -big), (big - 1, 3)]
    want_re = sum(ar * br + ai * bi for (ar, ai), (br, bi) in zip(av, bv))
    want_im = sum(ai * br - ar * bi for (ar, ai), (br, bi) in zip(av, bv))
    assert got == gq(want_re, want_im)
    assert max(abs(want_re), abs(want_im)) > 2**63 - 1
    assert got == _as_object(a).frobenius_inner(_as_object(b))


_PARTS = st.sampled_from(["complex", "real", "imaginary"])


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6), st.integers(1, 64), st.integers(0, 30),
       _PARTS, _PARTS, st.integers(0, 2**32 - 1))
# 2 * k * a * b is near 2**59: the object tier, where float64 would round
@example(rows=4, k=64, bits=26, a_parts="complex", b_parts="complex", seed=0)
def test_matmul_float64_int64_and_object_tiers_agree(rows, k, bits, a_parts, b_parts, seed):
    rng = np.random.default_rng(seed)

    def mat(r, c, parts):
        part = lambda: rng.integers(-(1 << bits), (1 << bits) + 1, size=(r, c))
        zero = np.zeros((r, c), np.int64)
        re = zero if parts == "imaginary" else part()
        im = zero if parts == "real" else part()
        return ExactMatrix(re, im, 1)

    a, b = mat(rows, k, a_parts), mat(k, 3, b_parts)
    got = a @ b
    want = _as_object(a) @ _as_object(b)
    assert got == want == _product_ref(a, b)
    # never float64: the narrowest dtype for the bound
    assert got.re.dtype == got.im.dtype == want.re.dtype == _narrowest(got.bound)


# -- normal form, cached entry bound, read-only parts ------------------------------

_BIG = (1 << 62) + 1
# factors at and past the int64 bound, in numerators and in denominators
_FACTORS = [gq(Fraction(-3, 7), Fraction(5, 2)), gq(_BIG), gq(0, Fraction(1, 10**20 + 39)),
            gq(Fraction(_BIG, 3), -1)]


@st.composite
def _square(draw, dim):
    """A dim x dim matrix of 3-, 26- or 64-bit numerators: float64 holds the
    products of the first exactly, the object tier those of the others."""
    bits = draw(st.sampled_from([3, 26, 64]))
    den = draw(st.sampled_from([1, 6, 10**20 + 39]))
    num = st.integers(-(1 << bits), 1 << bits)
    return ExactMatrix.from_columns(dim, [
        {i: gq(Fraction(draw(num), den), Fraction(draw(num), den))
         for i in range(dim) if draw(st.booleans())}
        for _ in range(dim)])


_pairs = st.integers(1, 3).flatmap(lambda d: st.tuples(_square(d), _square(d)))


def _assert_normal(m):
    """den > 0, gcd(re, im, den) = 1, both parts in the narrowest dtype for
    the bound, read-only parts, and a cached bound equal to a fresh
    reduction."""
    assert m._bounds == (_max_abs(m.re), _max_abs(m.im))
    assert m.den > 0
    assert math.gcd(m.den, *(int(x) for x in m.re.flat), *(int(x) for x in m.im.flat)) == 1
    assert m.re.dtype == m.im.dtype == _narrowest(m.bound)
    assert not (m.re.flags.writeable or m.im.flags.writeable)


@settings(max_examples=60, deadline=None)
@given(_pairs, st.sampled_from(_FACTORS))
def test_every_operation_keeps_the_normal_form_and_a_true_bound(pair, c):
    a, b = pair
    results = [a, b, a + b, a - b, a - a, -a, a.scale(c), b.scale(c).scale(1 / c), a @ b,
               a.adjoint(), a.bar(), a.transpose(), (a @ b).adjoint() @ a.scale(c),
               linear_combination([(c, a, None), (2, b, None), (-c, a, None)], a.shape)]
    for m in results:
        _assert_normal(m)
    assert a - a == ExactMatrix.zeros(*a.shape) and (a - a).den == 1


@settings(max_examples=80, deadline=None)
@given(_pairs, st.sampled_from(_FACTORS), st.sampled_from(["other", "copy", "scaled", "bumped"]))
def test_equality_is_a_zero_difference(pair, c, how):
    a, other = pair
    bump = ExactMatrix.from_columns(a.shape[0], [{0: gq(Fraction(1, 3))}] * a.shape[1])
    b = {"other": other, "copy": a + ExactMatrix.zeros(*a.shape),
         "scaled": a.scale(c).scale(1 / c), "bumped": a + bump}[how]
    assert (a == b) == (b == a) == (a - b).is_zero()
    if how in ("copy", "scaled"):
        assert a == b
    if how == "bumped":
        assert a != b


def test_parts_are_read_only_from_every_constructor():
    a = _from_rows([[1, 2], [3, 4]], den=3)
    big = ExactMatrix(np.array([[_BIG, 0], [0, 1]], dtype=object),
                      np.zeros((2, 2), dtype=object), 5)
    assert big.re.dtype == object
    for m in (a, big, a + a, a @ a, big @ big, a.scale(gq(0, 1)), -a, a.adjoint(), a.bar(),
              a.transpose(), ExactMatrix.identity(2), linear_combination([(2, a, None)], (2, 2)),
              ExactMatrix.zeros(2), ExactMatrix.zeros(3, 1),
              ExactMatrix.from_columns(2, [{1: gq(1)}]),
              ExactMatrix(np.eye(2, dtype=np.int64), np.zeros((2, 2), np.int64), 1),
              ExactMatrix.zeros(2) @ a):
        for part in (m.re, m.im):
            with pytest.raises(ValueError, match="read-only"):
                part[0, 0] = 7


def test_normalization_reduces_to_the_unique_normal_form():
    re = np.array([[6, -4], [0, 2]], dtype=np.int64)
    im = np.array([[2, 0], [0, -8]], dtype=np.int64)
    m = ExactMatrix(re, im, -10)
    assert (m.den, m.re.tolist(), m.im.tolist()) == (5, [[-3, 2], [0, -1]], [[-1, 0], [0, 4]])
    # gcd(3, re) is already 1: nothing is divided
    m3 = ExactMatrix(re.copy(), im.copy(), 3)
    assert (m3.den, m3.re.tolist(), m3.im.tolist()) == (3, re.tolist(), im.tolist())
    # object parts drop to the narrowest dtype once the common factor brings
    # them below 2**62
    obj = np.array([[2**70, 0], [0, -(2**71)]], dtype=object)
    m70 = ExactMatrix(obj, np.zeros((2, 2), dtype=object), 2**70)
    assert (m70.den, m70.re.tolist(), m70.re.dtype) == (1, [[1, 0], [0, -2]], np.int8)
    m_obj = ExactMatrix(np.array([[_BIG]], dtype=object), np.array([[0]], dtype=object), 3)
    assert (m_obj.den, m_obj.re[0, 0], m_obj.re.dtype) == (3, _BIG, object)
    # zero over a denominator past int64, in either dtype, is 0 over 1
    for dtype in (np.int64, object):
        z = np.zeros((2, 2), dtype=dtype)
        zm = ExactMatrix(z, z.copy(), -(2**64 + 13))
        assert (zm.den, zm.re.dtype, zm.bound) == (1, np.int8, 0)
        assert zm == ExactMatrix.zeros(2)


def test_from_columns_fills_int64_whenever_the_entries_fit():
    small = ExactMatrix.from_columns(2, [{0: gq(Fraction(1, 3))}, {1: gq(0, 2**59)}])
    assert small.re.dtype == small.im.dtype == _narrowest(small.bound) == np.int64
    tiny = ExactMatrix.from_columns(2, [{0: gq(Fraction(1, 3))}, {1: gq(0, 2)}])
    assert tiny.re.dtype == tiny.im.dtype == np.int8 and tiny.bound == 6
    assert small.entry(1, 1) == gq(0, 2**59) and small.den == 3
    big = ExactMatrix.from_columns(2, [{0: gq(Fraction(_BIG, 7))}, {}])
    assert big.re.dtype == object and big.entry(0, 0) == gq(Fraction(_BIG, 7))


# -- stacked inner products, zero operands -----------------------------------------


@st.composite
def _sparse(draw, shape, bits_choice):
    """A matrix of this shape on a random subset of its entries (possibly
    none), real or complex, with 3-, 26- or 64-bit numerators: products on
    the float64 tier, past it, and stored as Python integers."""
    rows, cols = shape
    bits = draw(st.sampled_from(bits_choice))
    den = draw(st.sampled_from([1, 6, 10**20 + 39]))
    num = st.integers(-(1 << bits), 1 << bits)
    real = draw(st.booleans())
    cells = draw(st.sets(st.integers(0, rows * cols - 1)))
    columns = [{} for _ in range(cols)]
    for cell in cells:
        i, j = divmod(cell, cols)
        columns[j][i] = gq(Fraction(draw(num), den), 0 if real else Fraction(draw(num), den))
    return ExactMatrix.from_columns(rows, columns)


@st.composite
def _inner_case(draw):
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    bits = draw(st.sampled_from([[3], [26], [64], [3, 26, 64]]))
    mats = st.lists(_sparse(shape, bits), min_size=1, max_size=4)
    return draw(mats), draw(mats)


def _inner_ref(x, y):
    rows, cols = x.shape
    return sum((x.entry(i, j) * y.entry(i, j).conjugate()
                for i in range(rows) for j in range(cols)), gq(0))


@settings(max_examples=120, deadline=None)
@given(_inner_case())
def test_stacked_inner_products_equal_the_pairwise_ones(case):
    rows, cols = case
    got = FrobeniusColumns(cols).inner(rows)
    assert got == [[_inner_ref(x, y) for y in cols] for x in rows]
    assert got == [[x.frobenius_inner(y) for y in cols] for x in rows]
    assert got == [[_as_object(x).frobenius_inner(_as_object(y)) for y in cols] for x in rows]


def test_stacked_inner_products_of_zero_and_disjoint_matrices_are_zero():
    a = ExactMatrix.from_columns(3, [{0: gq(1, 2)}])
    b = ExactMatrix.from_columns(3, [{2: gq(Fraction(1, 7))}])
    zero = ExactMatrix.zeros(3, 1)
    assert FrobeniusColumns([zero, zero]).inner([a, b]) == [[gq(0)] * 2] * 2
    assert FrobeniusColumns([b, zero]).inner([a, zero]) == [[gq(0)] * 2] * 2
    assert FrobeniusColumns([a]).inner([a, b]) == [[gq(5)], [gq(0)]]
    with pytest.raises(ValueError, match="shape mismatch"):
        FrobeniusColumns([a, ExactMatrix.zeros(1, 3)])
    with pytest.raises(ValueError, match="shape mismatch"):
        FrobeniusColumns([a]).inner([ExactMatrix.zeros(3)])


def test_stacked_inner_products_just_past_the_float64_and_int64_bounds():
    # 2 k max|x| max|y| just past 2**53: the exact sum 2**53 + 2**26 + 1 is
    # odd and has no float64, so the object tier must take it
    x = ExactMatrix(np.array([[1 << 26, 1]]), np.zeros((1, 2), np.int64), 1)
    y = ExactMatrix(np.array([[(1 << 27) + 1, 1]]), np.zeros((1, 2), np.int64), 1)
    assert FrobeniusColumns([y, x]).inner([x]) == [[gq(2**53 + 2**26 + 1), gq(2**52 + 1)]]
    # just past 2**62: the sums 2**63 and 2**64 wrap in int64
    big = 1 << 31
    x = ExactMatrix(np.array([[big, big]]), np.array([[big, -big]]), 1)
    y = ExactMatrix(np.array([[big, big]]), np.array([[-big, -big]]), 1)
    want = [[_inner_ref(x, y), _inner_ref(x, x)]]
    assert want == [[gq(2**63, 2**63), gq(2**64)]]
    assert FrobeniusColumns([y, x]).inner([x]) == want
    assert FrobeniusColumns([y, x]).inner([_as_object(x)]) == want


def _product_ref(a, b):
    # the product in Python integers, without any shortcut
    ar, ai, br, bi = (p.astype(object) for p in (a.re, a.im, b.re, b.im))
    return ExactMatrix(ar @ br - ai @ bi, ar @ bi + ai @ br, a.den * b.den)


@st.composite
def _zero_product_case(draw):
    m, k, n = (draw(st.sampled_from([1, 2, 3, 64])) for _ in range(3))
    zero_left = draw(st.booleans())
    zshape, oshape = ((m, k), (k, n)) if zero_left else ((k, n), (m, k))
    how = draw(st.sampled_from(["zeros", "empty", "difference"]))
    if how == "zeros":
        zero = ExactMatrix.zeros(*zshape)
    elif how == "empty":
        zero = ExactMatrix.from_columns(zshape[0], [{}] * zshape[1])
    else:
        x = draw(_sparse(zshape, [3, 64]))
        zero = x - x
    other = draw(_sparse(oshape, [3, 26, 64]))
    return (zero, other) if zero_left else (other, zero)


@settings(max_examples=80, deadline=None)
@given(_zero_product_case())
def test_a_zero_operand_gives_the_zero_of_the_product_shape(case):
    a, b = case
    got = a @ b
    want = _product_ref(a, b)
    assert got == want and want.is_zero()
    assert got.shape == (a.shape[0], b.shape[1])
    assert got.den == 1 and got._bounds == (0, 0) == (_max_abs(got.re), _max_abs(got.im))
    assert got.re.dtype == got.im.dtype == _narrowest(0)
    assert not (got.re.flags.writeable or got.im.flags.writeable)


def test_element_columns_times_a_zero_operator():
    op = ExactMatrix.zeros(64)
    col = ExactMatrix.from_columns(64, [{3: gq(1, 1)}])
    assert (op @ col).shape == (64, 1) and (op @ col).is_zero()
    assert (col.adjoint() @ op).shape == (1, 64)


def _value(f):
    # the complex128 value of a FloatMatrix
    out = np.zeros(f.shape, dtype=np.complex128)
    if f.re is not None:
        out.real = f.re
    if f.im is not None:
        out.imag = f.im
    return out


def _known_zero(f) -> bool:
    # a FloatMatrix known to be zero stores no part
    return f.re is None and f.im is None


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([1, 4, 64]), st.sampled_from([1, 4, 64]), st.sampled_from([1, 4, 64]),
       st.booleans(), st.sampled_from(["zeros", "negated", "adjoint", "sum", "product"]),
       st.integers(0, 2**32 - 1))
def test_a_float_product_with_a_known_zero_operand_equals_the_blas_product(
        m, k, n, zero_left, how, seed):
    # n = 1 makes the right operand a column, as an element is
    rng = np.random.default_rng(seed)
    zshape, oshape = ((m, k), (k, n)) if zero_left else ((k, n), (m, k))
    r, c = zshape

    def z(rows, cols):
        return FloatMatrix.from_exact(ExactMatrix.zeros(rows, cols))

    zero = {"zeros": z(r, c), "negated": z(r, c).scale(-1), "adjoint": z(c, r).adjoint(),
            "sum": z(r, c) + z(r, c),
            "product": z(r, 2) @ FloatMatrix(rng.normal(size=(2, c)), None, (2, c))}[how]
    other = FloatMatrix(rng.normal(size=oshape), rng.normal(size=oshape), oshape)
    a, b = (zero, other) if zero_left else (other, zero)
    assert _known_zero(zero) and zero.shape == zshape
    got = a @ b
    assert _known_zero(got) and got.is_zero() and got.shape == (m, n)
    assert np.array_equal(_value(got), _value(a) @ _value(b))
    # a nonzero product is not marked, and neither is a matrix of unknown value
    assert not _known_zero(other @ other.adjoint()) and not _known_zero(other)
    assert not _known_zero(FloatMatrix.from_exact(ExactMatrix.identity(k)))


_FLOAT_KINDS = st.sampled_from(["real", "imaginary", "complex", "zero"])


@st.composite
def _float_operand(draw, shape):
    # an exact matrix of the given kind, entries (a + b i) / den with |a|, |b| <= 3
    kind = draw(_FLOAT_KINDS)
    if kind == "zero":
        return ExactMatrix.zeros(*shape)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    re, im = (rng.integers(-3, 4, size=shape) if part else np.zeros(shape, dtype=np.int64)
              for part in (kind != "imaginary", kind != "real"))
    return ExactMatrix(re, im, draw(st.integers(1, 6)))


@st.composite
def _float_case(draw):
    r, k, c = (draw(st.sampled_from([1, 4, 64])) for _ in range(3))
    scalar = st.builds(gq, st.fractions(-4, 4, max_denominator=5),
                       st.fractions(-4, 4, max_denominator=5))
    return (draw(_float_operand((r, k))), draw(_float_operand((r, k))),
            draw(_float_operand((k, c))), draw(scalar))


@settings(max_examples=80, deadline=None)
@given(_float_case())
def test_float_matrix_operations_equal_the_complex128_reference(case):
    a, a2, b, c = case
    fa, fa2, fb = (FloatMatrix.from_exact(x) for x in (a, a2, b))
    ra, ra2, rb = ((x.re.astype(np.float64) + 1j * x.im.astype(np.float64)) / x.den
                   for x in (a, a2, b))
    pairs = [
        (fa, ra), (fa + fa2, ra + ra2), (fa - fa2, ra - ra2),
        (fa.scale(c), ra * c.to_complex()), (fa @ fb, ra @ rb),
        (fa.adjoint(), ra.conj().T), (fa.bar(), ra.conj()),
    ]
    for got, want in pairs:
        assert got.shape == want.shape
        assert np.abs(_value(got) - want).max() <= 1e-12
        assert abs(got.max_norm() - np.abs(want).max()) <= 1e-12
        for part in (got.re, got.im):
            assert part is None or (part.dtype == np.float64 and not part.flags.writeable)
        # a matrix known to be zero is zero
        assert not _known_zero(got) or not want.any()
        assert got.is_zero() == (not _value(got).any())
    # parts known to be zero stay unstored: a product of real operands
    # stores no imaginary part
    assert _known_zero(fa @ fb) == (a.is_zero() or b.is_zero())
    if not (a.has_im() or b.has_im()):
        assert (fa @ fb).im is None
    if not (a.has_im() or a2.has_im()):
        assert (fa + fa2).im is None and (fa - fa2).im is None
    if not a.has_im():
        assert fa.im is None and fa.adjoint().im is None and fa.bar().im is None


def _real_matrices(shape):
    """Real int64 matrices of one shape from every constructor that makes them."""
    rows, cols = shape
    a = _from_rows([[(3 * i + j) % 5 - 2 for j in range(cols)] for i in range(rows)], den=3)
    b = _from_rows([[(i + 2 * j) % 3 for j in range(cols)] for i in range(cols)])
    return [a, a @ b, ExactMatrix.identity(rows) @ a, a.scale(gq(2)), a + a, -a, a.bar(),
            linear_combination([(gq(0, 1), a.scale(gq(0, 1)), None)], shape),
            _from_rows([[j - i for i in range(rows)] for j in range(cols)]).transpose(),
            a.adjoint().adjoint()]


@pytest.mark.parametrize("shape", [(2, 2), (3, 2), (1, 4)])
def test_real_int64_matrices_share_one_zero_imaginary_part(shape):
    mats = _real_matrices(shape)
    if shape[0] == shape[1]:
        mats += [ExactMatrix.identity(shape[0]), ExactMatrix.zeros(*shape)]
    for m in mats:
        assert m.re.dtype == _narrowest(m.bound) and not m.has_im()
        assert m.im is mats[0].im
    zero = mats[0].im
    assert zero.shape == shape and not zero.any()
    with pytest.raises(ValueError, match="read-only"):
        zero[0, 0] = 1
    # complex matrices, and real ones of another shape, keep parts of their own
    assert _from_rows([[1, 2, 3]]).im is not zero
    assert mats[0].scale(gq(0, 1)).im is not zero


@settings(max_examples=60, deadline=None)
@given(_pairs)
def test_a_real_result_holds_the_shared_zero_part_when_its_operands_are_real(pair):
    # the real parts, built with no imaginary part
    a, b = (ExactMatrix(m.re, None, m.den) for m in pair)
    for m in (a, b, a @ b, a + b, a.transpose(), a.adjoint(), -a):
        assert not m.has_im()
        assert m.re.dtype == _narrowest(m.bound)
        assert m.im is matrices._zero_part(*m.shape, m.re.dtype)


# -- the exact kernel: sums of products and product chains -------------------------


def _chain_ref(factors):
    """(re, im, den) of m_1 @ ... @ m_j in Python integers, without any shortcut."""
    re, im, den = factors[0].re.astype(object), factors[0].im.astype(object), factors[0].den
    for m in factors[1:]:
        mr, mi = m.re.astype(object), m.im.astype(object)
        re, im, den = re @ mr - im @ mi, re @ mi + im @ mr, den * m.den
    return re, im, den


def _combo_ref(terms):
    """sum c * (m_1 @ ... @ m_j) over the terms (c, factors), in Python
    integers over the least common denominator."""
    return ExactMatrix(*_combo_ints(terms))


def _combo_ints(terms):
    """(re, im, den) of `_combo_ref`, before any normal form."""
    parts = []
    for c, factors in terms:
        re, im, den = _chain_ref(factors)
        d = math.lcm(c.re.denominator, c.im.denominator)
        a, b = int(c.re * d), int(c.im * d)
        parts.append((a * re - b * im, b * re + a * im, d * den))
    total = math.lcm(*(d for *_, d in parts))
    return (sum(re * (total // d) for re, _, d in parts),
            sum(im * (total // d) for _, im, d in parts), total)


_COEFFS = st.sampled_from([gq(1), gq(-1), gq(0, 1), gq(Fraction(-3, 7), Fraction(5, 2)), gq(_BIG)])


@st.composite
def _combo_case(draw):
    """1-3 terms over dim x dim matrices, each a chain of 1-3 factors on the
    float64 or object tier, with mixed denominators; with `cancel`
    every term comes again negated, so the sum is zero."""
    dim = draw(st.integers(1, 3))
    terms = [(draw(_COEFFS), tuple(draw(st.lists(_square(dim), min_size=1, max_size=3))))
             for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        terms += [(-c, factors) for c, factors in terms]
    return dim, terms


def _fold(c, factors):
    # the same term from separate products and a scaling
    out = factors[0]
    for m in factors[1:]:
        out = out @ m
    return out.scale(c)


@settings(max_examples=80, deadline=None)
@given(_combo_case())
def test_the_kernel_equals_separate_products_and_sums_on_every_tier(case):
    dim, terms = case
    got = linear_combination([(c, factors, None) for c, factors in terms], (dim, dim))
    want = _combo_ref(terms)
    separate = ExactMatrix.zeros(dim)
    for c, factors in terms:
        separate = separate + _fold(c, factors)
    assert got == want == separate
    _assert_normal(got)
    if want.is_zero():
        assert got.den == 1 and got.im is ExactMatrix.zeros(dim).im


@pytest.mark.parametrize("bits, tier", [(3, np.float64), (16, object), (22, object),
                                        (40, np.float64)])
def test_the_kernel_takes_the_tier_its_bounds_allow(bits, tier, monkeypatch):
    # a chain of three complex 4 x 4 matrices: its bound is below
    # (2 * 4)**2 * 2**(3 bits), and near it; at 40 bits a sum with no
    # product, whose bound is below 3 * 2**40
    rng = np.random.default_rng(bits)
    mats = [ExactMatrix(rng.integers(-(1 << bits), 1 << bits, (4, 4)),
                        rng.integers(-(1 << bits), 1 << bits, (4, 4)), 6) for _ in range(3)]
    chain = tuple(mats if bits < 40 else mats[:1])
    seen = []
    part_product, fma = matrices._part_product, matrices._fma

    def recorded(a, b):
        seen.extend(x.dtype for x in (*a, *b) if x is not None)
        return part_product(a, b)

    def recorded_fma(acc, k, x, at=...):
        seen.extend(y.dtype for y in (acc, x) if y is not None)
        return fma(acc, k, x, at)

    monkeypatch.setattr(matrices, "_part_product", recorded)
    monkeypatch.setattr(matrices, "_fma", recorded_fma)
    got = linear_combination([(gq(0, 1), chain, None), (2, mats[0], None)], (4, 4))
    assert set(seen) == {np.dtype(tier)}
    assert got == _combo_ref([(gq(0, 1), chain), (gq(2), mats[:1])])


def test_a_chain_that_repeats_a_factor_bounds_every_product_in_it():
    # x @ x @ x: 64 * 2 * 2**52 is past 2**53 after the first product, so
    # float64 would round; a bound read from x alone would not see that
    rng = np.random.default_rng(7)
    x = ExactMatrix(rng.integers(-(1 << 26), 1 << 26, (64, 64)),
                    rng.integers(-(1 << 26), 1 << 26, (64, 64)), 1)
    for factors in ((x, x), (x, x, x)):
        got = linear_combination([(1, factors, None)], (64, 64))
        assert got == _combo_ref([(gq(1), factors)])
    assert x @ x == _product_ref(x, x)


def test_every_constructor_carries_the_bounds_of_its_parts():
    a = _from_rows([[1, -2], [3, 4]], den=6)
    c = _from_cols([[gq(1, 2), gq(0, 1)], [gq(3), gq(-1, -1)]])
    big = ExactMatrix(np.array([[_BIG, 0], [0, -1]], dtype=object), None, 5)
    made = [a, c, big, ExactMatrix.identity(2), ExactMatrix.zeros(2), ExactMatrix.zeros(2, 3),
            ExactMatrix.from_columns(2, [{1: gq(0, 3)}]),
            ExactMatrix(np.eye(2, dtype=np.int64) * 4, None, 6),
            ExactMatrix(c.re, c.im, c.den, _normalized=True), _as_object(c),
            -c, c.adjoint(), c.bar(), c.transpose(), a + c, a - a, c.scale(gq(0, 1)), a @ c,
            big @ big, big.scale(Fraction(1, _BIG)), c + c.bar(), vector_operator(c),
            linear_combination([(1, (a, c, a), None), (-1, c, None)], (2, 2))]
    for m in made:
        assert m._bounds == (_max_abs(m.re), _max_abs(m.im))
    # a real sum whose imaginary parts cancel holds the shared zero part
    assert (c + c.bar()).im is ExactMatrix.zeros(2).im


def _inner_ints(x, y):
    # <x, y> from the integer parts, without the stacked product
    xr, xi, yr, yi = (p.astype(object) for p in (x.re, x.im, y.re, y.im))
    d = x.den * y.den
    return gq(Fraction(int((xr * yr + xi * yi).sum()), d),
              Fraction(int((xi * yr - xr * yi).sum()), d))


@pytest.mark.parametrize("bits, tier", [(3, np.float64), (22, object), (34, object)])
def test_chunked_inner_products_stay_serial_and_equal_the_pairwise_ones(bits, tier, monkeypatch):
    # 12 complex rows and columns on a 30 x 30 support: m = n = 24, so the
    # chunks hold 455 of the k <= 900 support entries
    rng = np.random.default_rng(bits)

    def mat():
        part = lambda: np.where(rng.random((30, 30)) < 0.5,
                                rng.integers(-(1 << bits), 1 << bits, (30, 30)), 0)
        return ExactMatrix(part(), part(), int(rng.integers(1, 7)))

    rows, cols = [mat() for _ in range(12)], [mat() for _ in range(12)]
    span = FrobeniusColumns(cols)
    products = []
    dot_sum = matrices._dot_sum

    def serial(terms):
        terms = list(terms)
        for _, x, y in terms:
            assert x.shape[0] * x.shape[1] * y.shape[1] <= 64 ** 3
            products.append((x.shape[1], x.dtype))
        return dot_sum(terms)

    monkeypatch.setattr(matrices, "_dot_sum", serial)
    got = span.inner(rows)
    k = len(span.support)
    assert len(products) > 1 and k % products[0][0] and sum(n for n, _ in products) == k
    assert {dtype for _, dtype in products} == {np.dtype(tier)}
    assert got == [[_inner_ints(x, y) for y in cols] for x in rows]


# -- storage at the dtype edges ----------------------------------------------------

# both sides of each storage edge: int8 | int16 | int32 | int64 | object
_EDGES = [127, 128, 32767, 32768, 2**31 - 1, 2**31, 2**62 - 1, 2**62]


def _ints(m):
    """(den, re, im) of m in Python integers."""
    return m.den, m.re.astype(object).tolist(), m.im.astype(object).tolist()


def _reduced(re, im, den):
    """(den, re, im) in normal form, from integer arrays in Python integers alone."""
    g = math.gcd(den, *re.flat, *im.flat) * (1 if den > 0 else -1)
    return den // g, (re // g).tolist(), (im // g).tolist()


def _assert_stored(m, re, im, den):
    """m is (re + i im) / den, stored in the narrowest dtype for its bound."""
    want = _reduced(re, im, den)
    assert _ints(m) == want
    bounds = tuple(max((abs(v) for row in part for v in row), default=0) for part in want[1:])
    assert m._bounds == bounds
    assert m.re.dtype == m.im.dtype == _narrowest(max(bounds))
    assert not (m.re.flags.writeable or m.im.flags.writeable)


class _Ref:
    """A matrix as Python-integer parts, read by the integer references."""

    def __init__(self, re, im, den):
        self.re, self.im, self.den = re, im, den


@st.composite
def _edge_pair(draw, dim):
    """(matrix, reference) of a dim x dim matrix whose bound is one edge value:
    that value at one cell, signed, in the real or imaginary part, and
    entries up to it elsewhere, over 1 or 5 (no edge value is a multiple
    of 5), given to the constructor as int64 (every edge value fits) or as
    Python integers."""
    edge = draw(st.sampled_from(_EDGES))
    entry = st.sampled_from([0, 1, -2, edge, -edge, edge // 3, -(edge - 1)])
    real, imag = draw(st.sampled_from([(True, True), (True, False), (False, True)]))
    re, im = (np.array([[draw(entry) if on else 0 for _ in range(dim)] for _ in range(dim)],
                       dtype=object) for on in (real, imag))
    at = (draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1)))
    (re if real else im)[at] = draw(st.sampled_from([edge, -edge]))
    den = draw(st.sampled_from([1, 5]))
    given = draw(st.sampled_from([np.int64, object]))
    return ExactMatrix(re.astype(given), im.astype(given), den), _Ref(re, im, den)


_EDGE_COEFFS = st.sampled_from([gq(1), gq(-1), gq(2), gq(0, 1), gq(Fraction(-3, 7), 1)])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda d: st.lists(_edge_pair(d), min_size=3, max_size=3)),
       st.data())
def test_parts_at_every_storage_edge_compute_like_python_integers(pairs, data):
    (a, ra), (b, rb), (c, rc) = pairs
    dim = a.shape[0]
    for m, r in pairs:
        _assert_stored(m, r.re, r.im, r.den)
    # every constructor stores the narrowest dtype for its bound
    cols = [{i: gq(Fraction(ra.re[i, j], ra.den), Fraction(ra.im[i, j], ra.den))
             for i in range(dim)} for j in range(dim)]
    _assert_stored(ExactMatrix.from_columns(dim, cols), ra.re, ra.im, ra.den)
    _assert_stored(ExactMatrix.from_columns(dim, cols[:1]), ra.re[:, :1], ra.im[:, :1], ra.den)
    one = np.eye(dim, dtype=object)
    _assert_stored(ExactMatrix.identity(dim), one, 0 * one, 1)
    _assert_stored(ExactMatrix.zeros(dim), 0 * one, 0 * one, 1)
    if dim == 2:
        wide = np.zeros((4, 4), dtype=object)
        re4, im4 = wide.copy(), wide.copy()
        re4[1:3, 1:3], im4[1:3, 1:3] = ra.re, ra.im
        _assert_stored(vector_operator(a), re4, im4, ra.den)
    # negation, the involutions
    _assert_stored(-a, -ra.re, -ra.im, ra.den)
    _assert_stored(a.adjoint(), ra.re.T, -ra.im.T, ra.den)
    _assert_stored(a.bar(), ra.re, -ra.im, ra.den)
    _assert_stored(a.transpose(), ra.re.T, ra.im.T, ra.den)
    # a row gather and a signed permutation, each scaled and added to a matrix
    rows = np.array(data.draw(st.lists(st.integers(0, dim - 1), min_size=dim, max_size=dim)))
    sign = np.array(data.draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=dim,
                                       max_size=dim)))
    k, k2 = data.draw(_EDGE_COEFFS), data.draw(_EDGE_COEFFS)
    perm = np.zeros((dim, dim), dtype=object)
    perm[np.arange(dim), rows] = sign
    col = sign.astype(object)[:, None]
    gathered = _Ref(col * ra.re[rows], col * ra.im[rows], ra.den)
    got = linear_combination([(k, a, (sign, rows)), (k2, b, None)], (dim, dim))
    _assert_stored(got, *_combo_ints([(k, (gathered,)), (k2, (rb,))]))
    got = linear_combination([(k, None, (sign, rows)), (k2, b, None)], (dim, dim))
    _assert_stored(got, *_combo_ints([(k, (_Ref(perm, 0 * perm, 1),)), (k2, (rb,))]))
    # kernel sums of chains of 1-3 factors
    by_id = {id(a): ra, id(b): rb, id(c): rc}
    chains = data.draw(st.lists(st.tuples(_EDGE_COEFFS, st.lists(
        st.sampled_from([a, b, c]), min_size=1, max_size=3)), min_size=1, max_size=3))
    got = linear_combination([(k, tuple(fs), None) for k, fs in chains], (dim, dim))
    _assert_stored(got, *_combo_ints([(k, tuple(by_id[id(f)] for f in fs)) for k, fs in chains]))
    _assert_stored(a @ b, *_chain_ref((ra, rb)))
    # stacked inner products
    assert FrobeniusColumns([b, c]).inner([a, b]) == [
        [_inner_ints(x, y) for y in (rb, rc)] for x in (ra, rb)]
    # equality, entries and columns
    assert a == ExactMatrix(ra.re.copy(), ra.im.copy(), ra.den) == -(-a) == a.adjoint().adjoint()
    assert (a == b) == (_ints(a) == _ints(b))
    for j in range(dim):
        want = {i: gq(Fraction(ra.re[i, j], ra.den), Fraction(ra.im[i, j], ra.den))
                for i in range(dim)}
        assert [a.entry(i, j) for i in range(dim)] == list(want.values())
        assert a.column_dict(j) == {i: v for i, v in want.items() if v}
    # the float view
    f = FloatMatrix.from_exact(a)
    for part, want in ((f.re, ra.re), (f.im, ra.im)):
        if want.any():
            assert np.array_equal(part, want.astype(np.float64) / ra.den)
        else:
            assert part is None
