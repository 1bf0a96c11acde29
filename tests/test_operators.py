"""Operator layer: parity, supercommutator, conjugations, rebuild, Lefschetz."""
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kahlerid import gq, operators
from kahlerid.algebra import (
    AdaptedStructure,
    Multivector,
    blade_degree,
    coframe,
    frame,
    j_vector,
)
from kahlerid.dirac import clifford_left, clifford_right
from kahlerid.matrices import ExactMatrix, FloatMatrix
from kahlerid.operators import (
    LinearOperator,
    StructuralError,
    add_ops,
    adjoint,
    apply_operator,
    bar,
    bidegree_decompose,
    blade_structure,
    compose,
    compute_parity,
    conjugate,
    contract_op,
    derivation,
    derivation_rebuild,
    ext_mult,
    form_slices,
    int_mult,
    make_operator,
    measured_bidegree,
    multiplication,
    r_xi,
    scale_op,
    supercommutator,
    transport,
    vector_operator,
)
import reference
from reference import (
    basis,
    clifford_mul,
    contract,
    form_eval,
    hodge_star,
    j_algebra,
    j_derivation,
    matrix_from_blade_action,
    wedge,
)


# -- structure ------------------------------------------------------------------

def test_blade_structure_shapes():
    bs = blade_structure(2)
    assert bs.dim == 16
    assert sorted(bs.degree_indices) == [0, 1, 2, 3, 4]
    assert len(bs.degree_indices[2]) == 6
    om = AdaptedStructure(2).omega()
    assert bs.to_multivector(bs.to_column(om)) == om


def test_parity_detection():
    E1 = ext_mult(coframe(2, 1))
    assert E1.parity == "odd"
    L = ext_mult(AdaptedStructure(2).omega())
    assert L.parity == "even"
    # a sum carries its operands' parity, and a zero sum is even
    assert add_ops(E1, ext_mult(coframe(2, 2))).parity == "odd"
    assert add_ops(E1, scale_op(E1, gq(-1))).parity == "even"
    assert make_operator(ExactMatrix.zeros(16), "ext").parity == "even"


def test_a_matrix_with_even_and_odd_entries_has_no_parity():
    bs = blade_structure(2)
    both = ext_mult(coframe(2, 1)).matrix + ext_mult(AdaptedStructure(2).omega()).matrix
    with pytest.raises(StructuralError, match="even or odd"):
        compute_parity(both, bs)
    with pytest.raises(StructuralError, match="even or odd"):
        make_operator(both, "ext")


def test_supercommutator_requires_definite_parity():
    # the sign is read from the parities: wedges by 1-forms anticommute and
    # a wedge by a 2-form commutes with them; an operand of both parities
    # cannot be formed to reach it
    E1, E2 = ext_mult(coframe(2, 1)), ext_mult(coframe(2, 2))
    L = ext_mult(AdaptedStructure(2).omega())
    assert supercommutator(E1, E2).is_zero() and supercommutator(L, E1).is_zero()
    assert not compose(E1, E2).is_zero()
    with pytest.raises(StructuralError):
        supercommutator(add_ops(E1, L), L)


def test_an_even_and_an_odd_operator_do_not_add():
    E1 = ext_mult(coframe(2, 1))
    L = ext_mult(AdaptedStructure(2).omega())
    with pytest.raises(StructuralError, match="even operator to an odd"):
        add_ops(E1, L)
    # a zero operand has no parity to disagree with
    zero = LinearOperator(ExactMatrix.zeros(16), "ext", "even")
    assert add_ops(E1, zero).parity == "odd" and add_ops(zero, zero).parity == "even"


def test_picture_mismatch_raises():
    E1 = ext_mult(coframe(2, 1))
    F1 = LinearOperator(E1.matrix, "cl", E1.parity)
    with pytest.raises(StructuralError):
        supercommutator(E1, F1)
    with pytest.raises(StructuralError):
        compose(E1, F1)
    with pytest.raises(StructuralError):
        add_ops(E1, F1)


# -- Lefschetz sl2 -----------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3])
def test_lefschetz_weight_operator(n):
    """[L, Lam] acts on degree k as (k - n) id; [Lam, L] as (n - k) id."""
    bs = blade_structure(n)
    L = ext_mult(AdaptedStructure(n).omega())
    Lam = adjoint(L)
    H = supercommutator(L, Lam)
    H_op = supercommutator(Lam, L)
    for k in range(2 * n + 1):
        for idx in bs.degree_indices[k]:
            blade = bs.to_multivector(ExactMatrix.from_columns(bs.dim, [{idx: gq(1)}]))
            assert apply_operator(H, blade) == blade.scale(gq(k - n))
            assert apply_operator(H_op, blade) == blade.scale(gq(n - k))


def test_lefschetz_bidegrees():
    L = ext_mult(AdaptedStructure(2).omega())
    assert measured_bidegree([L, adjoint(L)]) == [{(1, 1)}, {(-1, -1)}]


def test_bidegree_measurement_requires_exact():
    L = ext_mult(AdaptedStructure(2).omega())
    fl = LinearOperator(FloatMatrix.from_exact(L.matrix), "ext", L.parity)
    with pytest.raises(StructuralError, match="requires an exact matrix"):
        measured_bidegree([fl])


# an entry bound of each storage dtype, with the dtype
_STORAGE_TIERS = ((2**7 - 1, np.int8), (2**15 - 1, np.int16), (2**31 - 1, np.int32),
                  (2**62 - 1, np.int64), (2**70, object))


@st.composite
def _conjugation_operands(draw):
    """A sparse exact even or odd matrix at n = 1, 2 or 3, real or complex,
    its parts stored in the dtype of a drawn bound: an entry at the bound
    fixes it, and an entry of 1 keeps the normal form from dividing it out."""
    bs = blade_structure(draw(st.sampled_from([1, 2, 3])))
    dim = bs.dim
    # the entries joining blades of opposite parity, or those that do not
    keep = bs.cross_parity == draw(st.booleans())
    bound, dtype = draw(st.sampled_from(_STORAGE_TIERS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = [rng.integers(-3, 4, size=(dim, dim)).astype(object)
             for _ in range(1 + draw(st.booleans()))]
    for x in parts:
        x[(rng.random((dim, dim)) < 0.7) | ~keep] = 0
    at_bound, at_one = rng.choice(np.flatnonzero(keep), size=2, replace=False)
    parts[0].flat[at_bound] = draw(st.sampled_from([bound, -bound]))
    parts[-1].flat[at_one] = 1
    m = ExactMatrix(parts[0], parts[1] if len(parts) > 1 else None, draw(st.integers(1, 6)))
    assert m.re.dtype == dtype
    return m


@pytest.mark.parametrize("picture", ["ext", "cl"])
@pytest.mark.parametrize("kind", ["exact", "float"])
@settings(max_examples=40, deadline=None)
@given(_conjugation_operands())
def test_conjugation_equals_the_product_form(kind, picture, m):
    # P^c is P re-indexed by J_a's blade images with its signs; the oracle
    # multiplies by J_a^-1 and J_a
    op = make_operator(m, picture)
    if kind == "float":
        op = LinearOperator(FloatMatrix.from_exact(m), picture, op.parity)
    got = conjugate(op)
    want = reference.product_conjugate(op.matrix, picture)
    assert got.parity == op.parity and got.picture == picture
    if kind == "exact":
        assert got.matrix == want
        # only signs change: den, bounds and storage dtype carry over
        assert got.matrix.den == m.den and got.matrix._bounds == m._bounds
        assert (got.matrix.re.dtype, got.matrix.im.dtype) == (m.re.dtype, m.im.dtype)
        return
    for part, ref in ((got.matrix.re, want.re), (got.matrix.im, want.im)):
        assert (part is None) == (ref is None)
        # each product entry is one +-entry plus zeros: exact in float64
        assert ref is None or (np.array_equal(part, ref) and not part.flags.writeable)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_j_and_hodge_star_match_the_blade_by_blade_reference(n):
    bs = blade_structure(n)
    for picture in ("ext", "cl"):
        for built, action in (
                (bs.Ja_ext if picture == "ext" else bs.Ja_cl, j_algebra),
                (bs.Jd_ext if picture == "ext" else bs.Jd_cl, j_derivation)):
            assert built == matrix_from_blade_action(n, lambda b: action(b, picture))
    assert bs.hodge == matrix_from_blade_action(n, hodge_star)


# -- generator construction against the per-blade reference -------------------------

def _scalars():
    return st.builds(lambda a, b: gq(Fraction(a, 3), Fraction(b, 2)),
                     st.integers(-6, 6), st.integers(-4, 4))


def _multivectors(n, parity=None):
    masks = [m for m in range(4**n) if parity is None or blade_degree(m) % 2 == parity]
    return st.dictionaries(st.sampled_from(masks), _scalars(), max_size=4).map(
        lambda d: Multivector(n, d))


@st.composite
def _n_and_multivector(draw):
    """n and a multivector of one degree parity, the factor of an even or
    odd multiplication operator."""
    n = draw(st.sampled_from([1, 2, 3]))
    return n, draw(_multivectors(n, draw(st.sampled_from([0, 1]))))


@settings(max_examples=40, deadline=None)
@given(_n_and_multivector())
def test_multiplication_matches_blade_products(case):
    n, phi = case
    pairs = [
        (ext_mult(phi), lambda b: wedge(phi, b)),
        (contract_op(phi), lambda b: contract(phi, b)),
        (clifford_left(phi), lambda b: clifford_mul(phi, b)),
        (clifford_right(phi), lambda b: clifford_mul(b, phi)),
    ]
    for op, action in pairs:
        assert op.matrix == matrix_from_blade_action(n, action)


@st.composite
def _n_and_two_multivectors(draw):
    n = draw(st.sampled_from([1, 2, 3]))
    return n, draw(_multivectors(n)), draw(_multivectors(n))


@settings(max_examples=40, deadline=None)
@given(_n_and_two_multivectors())
def test_contraction_matches_the_blade_by_blade_reference(case):
    _, phi, a = case
    assert operators.contract(phi, a) == reference.contract(phi, a)


@st.composite
def _derivation_case(draw):
    n = draw(st.sampled_from([1, 2, 3]))
    image_parity = draw(st.sampled_from([0, 1]))
    images = {i: draw(_multivectors(n, image_parity)) for i in range(1, 2 * n + 1)}
    a_parity = draw(st.sampled_from([0, 1]))
    a = draw(_multivectors(n, a_parity))
    b = draw(_multivectors(n))
    return n, image_parity, images, a_parity, a, b


@settings(max_examples=40, deadline=None)
@given(_derivation_case())
def test_derivation_is_graded_leibniz(case):
    n, image_parity, images, a_parity, a, b = case
    D = derivation(images, "ext")
    d_parity = 1 - image_parity  # D sends degree 1 to the images' parity
    for i, image in images.items():
        assert apply_operator(D, coframe(n, i)) == image
    assert apply_operator(D, Multivector.unit(n)).is_zero()
    sign = -1 if d_parity * a_parity else 1
    lhs = apply_operator(D, wedge(a, b))
    rhs = wedge(apply_operator(D, a), b) + wedge(a, apply_operator(D, b)).scale(sign)
    assert lhs == rhs


# -- one-pass sums against term-by-term references ---------------------------------

# numerators past 2**62 and denominators past int64, so the sums take the object path
_BIG_NUM = st.one_of(st.integers(-9, 9), st.integers(2**62, 2**64), st.integers(-(2**64), -(2**62)))
_BIG_DEN = st.sampled_from([1, 7, 10**20 + 39, 2**64 + 13])


def _big_scalars():
    return st.builds(lambda a, b, d: gq(Fraction(a, d), Fraction(b, d)),
                     _BIG_NUM, _BIG_NUM, _BIG_DEN)


def _big_multivectors(n, parity=None):
    masks = [m for m in range(4**n) if parity is None or blade_degree(m) % 2 == parity]
    return st.dictionaries(st.sampled_from(masks), _big_scalars(), max_size=4).map(
        lambda d: Multivector(n, d))


@st.composite
def _multiplication_case(draw):
    n = draw(st.sampled_from([1, 2]))
    kind = draw(st.sampled_from("ECLR"))
    start = None
    if draw(st.booleans()):
        start = ExactMatrix.from_columns(4**n, [
            draw(st.dictionaries(st.integers(0, 4**n - 1), _big_scalars(), max_size=3))
            for _ in range(2)])
    return n, kind, draw(_big_multivectors(n)), start


@settings(max_examples=40, deadline=None)
@given(_multiplication_case())
def test_one_pass_multiplication_equals_the_entrywise_sum(case):
    n, kind, phi, start = case
    bs = blade_structure(n)
    got = multiplication(phi, kind, start)
    start = bs.identity if start is None else start
    # sum_S phi_S W_S start, term by term and entry by entry in Gaussian rationals
    ref = [[gq(0)] * start.shape[1] for _ in range(bs.dim)]
    for mask, c in phi.coeffs.items():
        sign = bs.word(kind, mask)
        for r in np.flatnonzero(sign):
            for j in range(start.shape[1]):
                ref[r][j] += c * int(sign[r]) * start.entry(r ^ mask, j)
    assert [[got.entry(r, j) for j in range(got.shape[1])] for r in range(bs.dim)] == ref


@st.composite
def _big_derivation_case(draw):
    n = draw(st.sampled_from([1, 2]))
    parity = draw(st.sampled_from([0, 1]))
    return n, {i: draw(_big_multivectors(n, parity)) for i in range(1, 2 * n + 1)}


@settings(max_examples=30, deadline=None)
@given(_big_derivation_case())
def test_one_pass_derivation_equals_the_termwise_sum(case):
    n, images = case
    ref = ExactMatrix.zeros(4**n)
    for i, image in images.items():
        ref = ref + multiplication(image, "E") @ multiplication(frame(n, i), "C")
    assert derivation(images, "ext").matrix == ref


def test_one_pass_sums_take_the_object_path_past_int64():
    phi = Multivector(2, {0b11: gq((1 << 62) + 1), 0b1100: gq(0, Fraction(1, 10**20 + 39))})
    m = multiplication(phi, "E")
    assert m.re.dtype == object and m.bound >= 1 << 62
    assert m.entry(0b11, 0) == gq((1 << 62) + 1)
    d = derivation({1: phi, 2: Multivector.zero(2), 3: Multivector.zero(2),
                    4: Multivector.zero(2)}, "ext")
    assert d.matrix.re.dtype == object
    assert apply_operator(d, coframe(2, 1)) == phi


# -- 2n x 2n slices against the per-blade and per-entry references -----------------

@st.composite
def _n_and_threeform(draw):
    n = draw(st.sampled_from([2, 3]))
    masks = [m for m in range(4**n) if blade_degree(m) == 3]
    return n, Multivector(n, draw(st.dictionaries(st.sampled_from(masks), _scalars(),
                                                  max_size=6)))


@settings(max_examples=30, deadline=None)
@given(_n_and_threeform())
def test_form_slices_match_form_eval(case):
    n, psi = case
    slices = form_slices(psi)
    for a in range(1, 2 * n + 1):
        for b in range(1, 2 * n + 1):
            for c in range(1, 2 * n + 1):
                assert slices[a - 1].entry(b - 1, c - 1) == form_eval(
                    psi, frame(n, a), frame(n, b), frame(n, c))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_j_vec_is_j_on_each_frame_vector(n):
    j = blade_structure(n).J_vec
    for b in range(1, 2 * n + 1):
        image = Multivector(n, {1 << c: j.entry(c, b - 1) for c in range(2 * n)})
        assert image == j_vector(frame(n, b), "cl")


@st.composite
def _n_and_block(draw):
    n = draw(st.sampled_from([1, 2, 3]))
    cols = [draw(st.dictionaries(st.integers(0, 2 * n - 1), _scalars(), max_size=3))
            for _ in range(2 * n)]
    return n, ExactMatrix.from_columns(2 * n, cols)


@settings(max_examples=30, deadline=None)
@given(_n_and_block())
def test_vector_operator_matches_blade_action(case):
    n, block = case

    def act(blade):
        (mask,) = blade.coeffs
        if blade_degree(mask) != 1:
            return None
        b = mask.bit_length() - 1
        return Multivector(n, {1 << c: block.entry(c, b) for c in range(2 * n)})

    assert vector_operator(block) == matrix_from_blade_action(n, act)


# -- adjoint / conjugation ----------------------------------------------------------

def test_adjoint_involution_and_antilinearity():
    E1 = ext_mult(coframe(2, 1))
    assert adjoint(adjoint(E1)).matrix == E1.matrix
    c = gq(2, 3)
    assert adjoint(scale_op(E1, c)).matrix == scale_op(adjoint(E1), c.conjugate()).matrix


def test_int_mult_is_adjoint_of_ext_mult():
    for i in (1, 2, 3, 4):
        E = ext_mult(coframe(2, i))
        assert int_mult(coframe(2, i)).matrix == adjoint(E).matrix


def test_conjugation_scalar_on_pure_bidegree(ws):
    # P^c = i^{q-p} P for P concentrated in bidegree (p, q)
    from kahlerid.scalars import i_power
    ops = ws("nil6").ops
    mu, delta = ops["mu"], ops["del"]
    assert conjugate(mu).matrix == scale_op(mu, i_power(-3)).matrix  # (p,q) = (2,-1)
    assert conjugate(delta).matrix == scale_op(delta, i_power(-1)).matrix  # (1,0)


def test_bar_swaps_bidegree(ws):
    mu = ws("nil6").ops["mu"]
    mubar = ws("nil6").ops["mubar"]
    assert bar(mu).matrix == mubar.matrix
    assert measured_bidegree([mu, bar(mu)]) == [{(2, -1)}, {(-1, 2)}]


def test_transport_flips_picture(ws):
    D = ws("kt4").ops["D"]
    t = transport(D)
    assert t.picture == "ext"
    assert transport(t).picture == "cl"
    assert transport(t).matrix == D.matrix


# -- bidegree decomposition ---------------------------------------------------------

def test_d_bidegree_components(ws):
    d = ws("nil6").ops["d"]
    comps = bidegree_decompose(d)
    assert set(comps) == {(2, -1), (1, 0), (0, 1), (-1, 2)}
    assert add_ops(*comps.values()).matrix == d.matrix


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("picture", ["ext", "cl"])
def test_complex_frame_inverse(n, picture):
    bs = blade_structure(n)
    cf = bs.complex_frame(picture)
    assert cf.u_inv @ cf.u == bs.identity
    assert cf.u @ cf.u_inv == bs.identity


def _of_parity(odd: bool, r: int, c: int) -> tuple[int, int]:
    """(r, c), or (r ^ 1, c) when entry (r, c) is not of the parity: flipping
    the lowest blade bit changes the row's degree by one."""
    return (r, c) if bool((r ^ c).bit_count() % 2) == odd else (r ^ 1, c)


@st.composite
def _random_operator(draw):
    n = draw(st.sampled_from([1, 2, 3]))
    dim = 4**n
    odd = draw(st.booleans())
    entries = draw(st.dictionaries(
        st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1)), _scalars(),
        min_size=1, max_size=12))
    cols = [{} for _ in range(dim)]
    for (r, c), v in entries.items():
        r, c = _of_parity(odd, r, c)
        cols[c][r] = v
    picture = draw(st.sampled_from(["ext", "cl"]))
    return make_operator(ExactMatrix.from_columns(dim, cols), picture)


@settings(max_examples=60, deadline=None)
@given(_random_operator())
def test_bidegree_decompose_parts_are_pure_and_sum_to_the_operator(op):
    bs = blade_structure((op.dim.bit_length() - 1) // 2)
    jd = bs.Jd_ext if op.picture == "ext" else bs.Jd_cl
    parts = bidegree_decompose(op)
    assert [set(parts)] == measured_bidegree([op])
    total = ExactMatrix.zeros(op.dim)
    for (a, b), part in parts.items():
        c = part.matrix
        assert not c.is_zero() and part.parity == op.parity == compute_parity(c, bs)
        rows, cols = np.nonzero((c.re != 0) | (c.im != 0))
        assert np.all(bs.degrees[rows] - bs.degrees[cols] == a + b)
        assert jd @ c - c @ jd == c.scale(gq(0, a - b))
        total = total + c
    assert total == op.matrix


def test_mixed_operator_reports_every_shift(ws):
    nil6 = ws("nil6")
    d_plus_e = add_ops(nil6.ops["d"], nil6.ops["E_domega"])
    assert measured_bidegree([d_plus_e]) == [{(2, -1), (1, 0), (0, 1), (-1, 2),
                                              (3, 0), (2, 1), (1, 2), (0, 3)}]


# entries from small to past the float64 tier (2**53) and int64 storage (2**62)
_WIDE_INTS = st.one_of(st.integers(-3, 3),
                       st.sampled_from([2**30, 2**45, 2**53 - 1, 2**53, -2**53 - 1,
                                        2**62, -2**64, 3**50]))


@st.composite
def _wide_operator(draw):
    """A sparse exact even or odd operator at n = 1-3 in either picture:
    zero, real or complex, its entries over a common denominator."""
    n = draw(st.sampled_from([1, 2, 3]))
    dim = 4**n
    odd = draw(st.booleans())
    kind = draw(st.sampled_from(["zero", "real", "complex"]))
    den = draw(st.sampled_from([1, 3, 2**40]))
    cols = [{} for _ in range(dim)]
    if kind != "zero":
        at = st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1))
        for (r, c), a, b in draw(st.lists(st.tuples(at, _WIDE_INTS, _WIDE_INTS),
                                          min_size=1, max_size=8)):
            v = gq(Fraction(a, den), Fraction(b, den) if kind == "complex" else 0)
            if v:
                r, c = _of_parity(odd, r, c)
                cols[c][r] = v
    return make_operator(ExactMatrix.from_columns(dim, cols),
                         draw(st.sampled_from(["ext", "cl"])))


@settings(max_examples=40, deadline=None)
@given(st.lists(_wide_operator(), min_size=1, max_size=5))
def test_batched_blocked_bidegree_measurement_matches_the_dense_frame(ops):
    assert measured_bidegree(ops) == [reference.dense_measured_bidegree(op) for op in ops]
    for op in ops:
        assert measured_bidegree([op]) == [reference.dense_measured_bidegree(op)]
        assert {shift: part.matrix for shift, part in bidegree_decompose(op).items()} == (
            reference.dense_bidegree_components(op))


def test_batched_measurement_splits_a_batch_by_tier():
    # at n = 2 an entry of 1 puts U^-1 M U on float64, and 2**45 and 2**62
    # on Python integers: one batch runs both tiers
    cf = blade_structure(2).complex_frame("ext")
    ops = [make_operator(ExactMatrix.from_columns(16, [{}, {3: gq(v)}] + [{}] * 14), "ext")
           for v in (1, 2**45, 2**62)]
    tiers = {dtype: [ops[i] for i in rows]
             for rows, *_, dtype, _ in operators._frame_blocks(cf, [op.matrix for op in ops])}
    assert tiers == {np.float64: [ops[0]], object: [ops[1], ops[2]]}
    assert measured_bidegree(ops) == [reference.dense_measured_bidegree(op) for op in ops]


def test_batched_bidegree_measurement_requires_exact_matrices(ws):
    L = ws("nil6").ops["L"]
    for m in (L.matrix, ExactMatrix.zeros(L.dim)):
        fl = LinearOperator(FloatMatrix.from_exact(m), "ext", "even")
        with pytest.raises(StructuralError, match="requires an exact matrix"):
            measured_bidegree([L, fl])


@st.composite
def _parity_operands(draw):
    """Two operators of one picture, each even, odd or zero, exact or float."""
    n = draw(st.sampled_from([1, 2, 3]))
    bs = blade_structure(n)
    picture = draw(st.sampled_from(["ext", "cl"]))
    pools = {"even": np.argwhere(~bs.cross_parity), "odd": np.argwhere(bs.cross_parity)}
    float_mode = draw(st.booleans())
    ops = []
    for _ in "AB":
        kind = draw(st.sampled_from(["even", "odd", "zero"]))
        cols = [{} for _ in range(bs.dim)]
        if kind != "zero":
            pool = pools[kind]
            for k in draw(st.lists(st.integers(0, len(pool) - 1), min_size=1,
                                   max_size=3 * bs.dim)):
                r, c = pool[k]
                cols[c][int(r)] = draw(_scalars().filter(bool))
        op = make_operator(ExactMatrix.from_columns(bs.dim, cols), picture)
        if float_mode:
            op = LinearOperator(FloatMatrix.from_exact(op.matrix), picture, op.parity)
        ops.append(op)
    c = draw(st.sampled_from([gq(0), gq(1), gq(0, -1), gq(Fraction(1, 3), 2)]))
    return bs, ops[0], ops[1], c


@settings(max_examples=80, deadline=None)
@given(_parity_operands())
def test_carried_parity_equals_the_measured_parity(case):
    bs, a, b, c = case
    # [a, a] of an even a is zero
    results = [compose(a, b), compose(b, a), compose(a, a), adjoint(a), conjugate(a),
               bar(a), scale_op(a, c), supercommutator(a, b), supercommutator(a, a),
               add_ops(a, scale_op(a, c))]
    if a.is_zero() or b.is_zero() or a.parity == b.parity:
        results.append(add_ops(a, b))
    for r in results:
        assert r.parity == compute_parity(r.matrix, bs)


# -- r operator ---------------------------------------------------------------------

def test_r_xi_sign_convention():
    xi = basis(2, 1, 2, 3)
    r = r_xi(xi)
    assert apply_operator(r, coframe(2, 1)) == -wedge(coframe(2, 2), coframe(2, 3))
    # r kills scalars and, for a 3-form, raises degree by one
    assert apply_operator(r, Multivector.unit(2)).is_zero()


# -- graded Jacobi -------------------------------------------------------------------

def test_graded_jacobi_random_triples():
    bs = blade_structure(1)
    rng = random.Random(20240817)
    pm = bs.parity_sign
    half = gq("1/2")

    def rand_pure(parity):
        re = np.array([[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)],
                      dtype=np.int64)
        m = ExactMatrix(re, np.zeros((4, 4), dtype=np.int64), 1)
        sym = pm @ m @ pm
        part = (m + sym) if parity == "even" else (m - sym)
        return make_operator(part.scale(half), "ext")

    checked = 0
    sign = {"even": 0, "odd": 1}
    for _ in range(100):
        A, B, C = (rand_pure(rng.choice(["even", "odd"])) for _ in range(3))
        pa, pb, pc = sign[A.parity], sign[B.parity], sign[C.parity]
        total = add_ops(
            scale_op(supercommutator(A, supercommutator(B, C)), gq((-1) ** (pa * pc))),
            scale_op(supercommutator(B, supercommutator(C, A)), gq((-1) ** (pb * pa))),
            scale_op(supercommutator(C, supercommutator(A, B)), gq((-1) ** (pc * pb))),
        )
        assert total.matrix.is_zero()
        checked += 1
    assert checked == 100


# -- derivation rebuild ---------------------------------------------------------------

def test_rebuild_fixes_antiderivation(ws):
    d = ws("nil6").ops["d"]
    assert derivation_rebuild(d).matrix == d.matrix


def test_rebuild_detects_non_derivation(ws):
    proj1 = ws("kt4").ops["proj1_ext"]
    assert derivation_rebuild(proj1).matrix != proj1.matrix


def test_rebuild_even_derivation(ws):
    nab = ws("hopf4").ops["nabla_1"]
    assert derivation_rebuild(nab).matrix == nab.matrix
