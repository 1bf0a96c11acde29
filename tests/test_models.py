"""Lie-algebra models: validation, CE differential, connection, Nijenhuis."""
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kahlerid import gq
from kahlerid.algebra import AdaptedStructure, Multivector, coframe, frame, j_vector
from kahlerid.matrices import ExactMatrix
from kahlerid.models import (
    LieModel,
    ModelFormatError,
    ModelValidationError,
    builtin_models,
    ce_differential,
    from_brackets,
    geometry,
    get_model,
    levi_civita,
    load_model_dict,
    load_model_file,
    nabla,
    nabla_forms,
    nijenhuis,
    resolve_model,
    validate_model,
)
from kahlerid.operators import (
    add_ops,
    apply_operator,
    blade_structure,
    derivation_rebuild,
    ext_mult,
    int_mult,
)
import reference
from reference import wedge

# the built-ins and the two models beyond them, big32 and nil8
MODELS = {**builtin_models(),
          **{name: reference.extra_model(name) for name in reference.EXTRA_MODELS}}


def _blade(*indices) -> int:
    return sum(1 << (i - 1) for i in indices)


def _entry(table, a, b, c):
    """table[(a, b)][c], zero where absent."""
    return table.get((a, b), {}).get(c, 0)


# -- validation ----------------------------------------------------------------

def test_builtins_validate():
    for name, m in builtin_models().items():
        report = validate_model(m)
        assert report.ok, f"{name}: {report.summary()}"


def test_jacobi_witness():
    # [e1,e2]=e3 and [e3,e4]=e1 is traceless but fails Jacobi on (1,2,4)
    m = from_brackets("bad", 2, {(1, 2): {3: 1}, (3, 4): {1: 1}})
    report = validate_model(m)
    assert not report.ok
    names = {f.invariant for f in report.failures}
    assert names == {"jacobi"}
    # jacobiator of (e1, e2, e4) sticks out along e1
    assert any(f.indices == (1, 2, 4, 1) for f in report.failures)


def test_unimodularity_witness():
    m = from_brackets("bad", 2, {(1, 2): {2: 1}})
    report = validate_model(m)
    assert not report.ok
    assert {f.invariant for f in report.failures} == {"unimodularity"}
    assert "tr ad_e1" in report.failures[0].detail


def test_antisymmetry_and_range_witnesses():
    m = from_brackets("bad", 1, {(1, 1): {2: 1}, (1, 2): {5: 1}})
    report = validate_model(m)
    names = {f.invariant for f in report.failures}
    assert "antisymmetry" in names
    assert "index-range" in names


def test_summary_text_of_entry_faults():
    # an index out of range and a nonzero [e_a, e_a] stop validation first;
    # duplicates and mismatched antisymmetric pairs are found next
    one = Fraction(1)
    m = LieModel("bad", 1, ((1, 1, 2, one), (1, 2, 5, one)))
    assert validate_model(m).summary() == (
        "model bad: 2 invariant failure(s)\n"
        "  antisymmetry at (1, 1, 2): [e_1, e_1] must vanish, got 1\n"
        "  index-range at (1, 2, 5): index 5 outside 1..2")
    m = LieModel("dup", 2, ((1, 2, 3, one), (1, 2, 3, one), (2, 1, 3, one)))
    assert validate_model(m).summary() == (
        "model dup: 3 invariant failure(s)\n"
        "  duplicate-entry at (1, 2, 3): entry stored twice\n"
        "  antisymmetry at (1, 2, 3): c^3_{12} = 1 but c^3_{21} = 1\n"
        "  antisymmetry at (2, 1, 3): c^3_{21} = 1 but c^3_{12} = 1")


def test_a_bracket_stored_in_both_orders_is_one_duplicate():
    # (1, 2, 3, 1) and (2, 1, 3, -1) state [e1, e2] = e3 twice, which the
    # antisymmetric completion would sum to c^3_12 = 2
    m = from_brackets("x", 2, {(1, 2): {3: 1}, (2, 1): {3: -1}})
    assert validate_model(m).summary() == (
        "model x: 1 invariant failure(s)\n"
        "  duplicate-entry at (2, 1, 3): entry stored twice, also as (1, 2, 3)")
    with pytest.raises(ModelValidationError) as exc:
        geometry(m)
    assert exc.value.report == validate_model(m)


@st.composite
def _bracket_lists(draw):
    n = draw(st.integers(1, 3))
    index = st.integers(1, 2 * n)
    value = st.fractions(-3, 3, max_denominator=3).filter(bool)
    brackets = {}
    for a, b, c, v in draw(st.lists(st.tuples(index, index, index, value), max_size=8)):
        if a != b:
            brackets.setdefault((min(a, b), max(a, b)), {})[c] = v
    return from_brackets("random", n, brackets)


@settings(max_examples=150, deadline=None)
@given(_bracket_lists())
def test_validation_agrees_with_d(m):
    # Jacobi fails on (a, b, c) exactly where some d^2 theta^e has a
    # theta^a ^ theta^b ^ theta^c part, which is the reported component;
    # tr ad_e_b is, up to sign, d of the (2n - 1)-form e_b _| vol
    report = validate_model(m)
    d = ce_differential(m).matrix
    d2 = d @ d
    idx = range(1, m.dim + 1)
    jacobi = {f.indices[:3]: f for f in report.failures if f.invariant == "jacobi"}
    assert set(jacobi) == {
        (a, b, c) for a in idx for b in idx for c in idx if a < b < c
        and any(d2.entry(_blade(a, b, c), _blade(e)) for e in idx)}
    for (a, b, c), f in jacobi.items():
        e = f.indices[3]
        assert f.detail == f"jacobiator component {d2.entry(_blade(a, b, c), _blade(e))} along e_{e}"
    full = _blade(*idx)
    assert {f.indices for f in report.failures if f.invariant == "unimodularity"} == {
        (b,) for b in idx if d.entry(full, full ^ _blade(b))}


def test_geometry_rejects_invalid_model():
    m = from_brackets("bad", 2, {(1, 2): {2: 1}})
    with pytest.raises(ModelValidationError) as exc:
        geometry(m)
    assert not exc.value.report.ok


# -- CE differential -------------------------------------------------------------

def test_kt4_differential():
    m = get_model("kt4")  # [e1, e2] = e3
    d = ce_differential(m)
    assert apply_operator(d, coframe(2, 3)) == -wedge(coframe(2, 1), coframe(2, 2))
    for i in (1, 2, 4):
        assert apply_operator(d, coframe(2, i)).is_zero()
    assert (d.matrix @ d.matrix).is_zero()
    assert d.parity == "odd"


def test_differential_is_antiderivation():
    d = ce_differential(get_model("nil6"))
    assert derivation_rebuild(d).matrix == d.matrix


def test_abelian_differential_vanishes():
    assert ce_differential(get_model("t4")).is_zero()


# Betti numbers of the compact quotients, which left-invariant forms compute:
# for nilmanifolds by Nomizu, Ann. of Math. 59 (1954); hopf4 is the algebra
# of S^3 x S^1, the Hopf surface; t2, t4 and t6 are tori
BETTI = {
    "t2": (1, 2, 1),
    "t4": tuple(math.comb(4, k) for k in range(5)),
    "t6": tuple(math.comb(6, k) for k in range(7)),
    "kt4": (1, 3, 4, 3, 1),
    "hopf4": (1, 1, 0, 1, 1),
    "iwa6": (1, 4, 8, 10, 8, 4, 1),
    "nil6": (1, 3, 8, 12, 8, 3, 1),
}


def _kunneth(a, b):
    """The Betti numbers of a product: the convolution of the factors'."""
    return tuple(sum(a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b))
                 for k in range(len(a) + len(b) - 1))


@pytest.mark.parametrize("name", sorted(BETTI))
def test_betti_numbers_from_exact_ranks_of_d(name):
    m = get_model(name)
    assert reference.betti_numbers(ce_differential(m).matrix, m.n) == BETTI[name]


def test_betti_numbers_of_big32_and_nil8():
    # big32 is nil6 with two brackets rescaled by 2**32 and 2**-32, an
    # isomorphic algebra; nil8 is nil6's algebra plus R^2
    big32, nil8 = MODELS["big32"], MODELS["nil8"]
    assert reference.betti_numbers(ce_differential(big32).matrix, 3) == BETTI["nil6"]
    assert (reference.betti_numbers(ce_differential(nil8).matrix, 4)
            == _kunneth(BETTI["nil6"], (1, 2, 1)))


# Dolbeault numbers h^{p,q} of the integrable models' compact quotients,
# which left-invariant forms compute: tori, the Hopf surface S^3 x S^1, and
# the Iwasawa manifold (Sakane, Osaka J. Math. 13 (1976)); kt4 and nil6 are
# not integrable, and their delbar does not square to zero
DOLBEAULT = {
    "t4": [[math.comb(2, p) * math.comb(2, q) for q in range(3)] for p in range(3)],
    "t6": [[math.comb(3, p) * math.comb(3, q) for q in range(4)] for p in range(4)],
    "hopf4": [[1, 1, 0], [0, 0, 0], [0, 1, 1]],
    "iwa6": [[1, 2, 2, 1], [3, 6, 6, 3], [3, 6, 6, 3], [1, 2, 2, 1]],
}


def _dolbeault_numbers(m: LieModel) -> list[list[int]]:
    """[h^{p,q}], h^{p,q} = dim L^{p,q} - rank delbar_{p,q} - rank delbar_{p,q-1},
    with delbar_{p,q}: L^{p,q} -> L^{p,q+1} read off U^-1 delbar U in the
    complex frame, whose column r has bidegree shift(shift_code[r, 0])."""
    delbar = geometry(m).d_parts[(1, 2)].matrix
    assert (delbar @ delbar).is_zero()
    cf = blade_structure(m.n).complex_frame("ext")
    conj = cf.u_inv @ delbar @ cf.u
    frames: dict[tuple[int, int], list[int]] = {}
    for r in range(conj.shape[0]):
        frames.setdefault(cf.shift(cf.shift_code[r, 0]), []).append(r)

    def rank(p, q):
        rows, cols = frames.get((p, q + 1), []), frames.get((p, q), [])
        return reference.rank([[conj.entry(r, c) for c in cols] for r in rows])

    return [[len(frames[(p, q)]) - rank(p, q) - rank(p, q - 1) for q in range(m.n + 1)]
            for p in range(m.n + 1)]


@pytest.mark.parametrize("name", sorted(DOLBEAULT))
def test_dolbeault_numbers_from_exact_ranks_of_delbar(name):
    assert _dolbeault_numbers(get_model(name)) == DOLBEAULT[name]


def _lefschetz_rank(m: LieModel) -> int:
    """The rank of L^{n-1}: H^1 -> H^{2n-1}, H^1 = ker d_1 (d_0 = 0 on
    invariant forms).  With h = L^{n-1} on 1-forms, g = d_1 and B the image
    of d_{2n-2}, the rank of h on ker g modulo B is
    rank [[h, B], [g, 0]] - rank g - rank B."""
    n = m.n
    d = ce_differential(m).matrix
    omega = ext_mult(AdaptedStructure(n).omega()).matrix
    h = omega
    for _ in range(n - 2):
        h = h @ omega
    bs = blade_structure(n)
    one, two, low, top = (list(bs.degree_indices[k]) for k in (1, 2, 2 * n - 2, 2 * n - 1))

    def block(a, rows, cols):
        return [[a.entry(r, c) for c in cols] for r in rows]

    stacked = ([hr + br for hr, br in zip(block(h, top, one), block(d, top, low))]
               + [gr + [0] * len(low) for gr in block(d, two, one)])
    return (reference.rank(stacked) - reference.rank(block(d, two, one))
            - reference.rank(block(d, top, low)))


# hard Lefschetz where d omega = 0: L^{n-1} is onto H^{2n-1} on the tori,
# rank b_1; kt4, a nilmanifold that is no torus, fails it (Benson and
# Gordon, Topology 27 (1988)), with rank 2 < b_1 = 3
@pytest.mark.parametrize("name, want", [("t4", 4), ("t6", 6), ("kt4", 2)])
def test_hard_lefschetz_rank_on_the_first_cohomology(name, want):
    m = get_model(name)
    assert geometry(m).almost_kahler
    assert _lefschetz_rank(m) == want


@pytest.mark.parametrize("name", sorted(MODELS))
def test_weitzenbock_identity(name):
    # Bochner-Weitzenbock on the invariant forms of a unimodular algebra:
    # d d* + d* d = -sum_a nabla_a nabla_a - sum_{a,b} E_a I_b R_ab with
    # R_ab = [nabla_a, nabla_b] - nabla_{[e_a, e_b]}; unimodularity removes
    # the nabla_{sum_a nabla_{e_a} e_a} term
    m = MODELS[name]
    n, idx = m.n, range(1, m.dim + 1)
    d = ce_differential(m).matrix
    conn = levi_civita(m)
    nab = {a: nabla_forms(conn, n, a).matrix for a in idx}
    ext = {a: ext_mult(coframe(n, a)).matrix for a in idx}
    inner = {a: int_mult(coframe(n, a)).matrix for a in idx}
    rhs = ExactMatrix.zeros(4**n)
    for a in idx:
        rhs = rhs - nab[a] @ nab[a]
        for b in idx:
            r = nab[a] @ nab[b] - nab[b] @ nab[a]
            for k, c in m.constants.get((a, b), {}).items():
                r = r - nab[k].scale(gq(c))
            rhs = rhs - ext[a] @ inner[b] @ r
    assert d @ d.adjoint() + d.adjoint() @ d == rhs


# -- Levi-Civita connection -------------------------------------------------------

def test_koszul_values_kt4():
    conn = levi_civita(get_model("kt4"))
    half = Fraction(1, 2)
    assert _entry(conn, 1, 2, 3) == half        # nabla_{e1} e2 = e3/2
    assert _entry(conn, 1, 3, 2) == -half       # nabla_{e1} e3 = -e2/2
    assert _entry(conn, 2, 3, 1) == half
    assert _entry(conn, 3, 1, 2) == -half
    assert _entry(conn, 2, 1, 3) == -half
    assert _entry(conn, 1, 4, 1) == 0


@pytest.mark.parametrize("name", ["kt4", "hopf4", "nil6"])
def test_connection_is_levi_civita(name):
    # defining properties: metric compatibility and zero torsion
    m = get_model(name)
    conn = levi_civita(m)
    dim = m.dim
    for a in range(1, dim + 1):
        for b in range(1, dim + 1):
            for c in range(1, dim + 1):
                assert _entry(conn, a, b, c) == -_entry(conn, a, c, b)
    for a in range(1, dim + 1):
        for b in range(a + 1, dim + 1):
            for c in range(1, dim + 1):
                torsion = _entry(conn, a, b, c) - _entry(conn, b, a, c)
                assert torsion == _entry(m.constants, a, b, c)


def test_nabla_is_derivation_and_transports():
    m = get_model("hopf4")
    for a in (1, 2, 3, 4):
        op = nabla(levi_civita(m), m.n, a)
        assert derivation_rebuild(op).matrix == op.matrix
        assert op.parity == "even"


def test_nabla_forms_value_kt4():
    # (nabla_{e1} theta^3)(e_b) = -theta^3(nabla_{e1} e_b) gives -theta^2/2
    op = nabla_forms(levi_civita(get_model("kt4")), 2, 1)
    assert apply_operator(op, coframe(2, 3)) == coframe(2, 2).scale(gq(Fraction(-1, 2)))


# -- Nijenhuis tensor --------------------------------------------------------------

def _nij(m, a, b) -> Multivector:
    """N(e_a, e_b) as a vector."""
    return Multivector(m.n, {1 << (k - 1): v for k, v in nijenhuis(m).get((a, b), {}).items()})


def test_nijenhuis_values():
    assert _nij(get_model("kt4"), 1, 2) == frame(2, 3).scale(gq(Fraction(-1, 4)))
    assert _nij(get_model("nil6"), 1, 2) == frame(3, 4).scale(gq(Fraction(1, 4)))


@pytest.mark.parametrize("name", ["hopf4", "iwa6"])
def test_integrable_models_have_zero_nijenhuis(name):
    m = get_model(name)
    for a in range(1, m.dim + 1):
        for b in range(1, m.dim + 1):
            assert _nij(m, a, b).is_zero()
    assert geometry(m).integrable


def test_nijenhuis_symmetries_nil6():
    m = get_model("nil6")
    for a in (1, 2, 5):
        for b in (3, 4, 6):
            assert _nij(m, a, b) == -_nij(m, b, a)
            # N(Y, JZ) = -J N(Y, Z)
            jz = j_vector(frame(3, b))
            (idx, coeff), = jz.coeffs.items()
            target = _nij(m, a, idx.bit_length()).scale(coeff)
            assert target == -j_vector(_nij(m, a, b))


@pytest.mark.parametrize("name", sorted(MODELS))
def test_mu_plus_mubar_is_the_nijenhuis_tensor(name):
    # on 1-forms the pure-type parts of d are N: the theta^a ^ theta^b
    # coefficient of (mu + mubar) theta^k is <N(e_a, e_b), e_k>
    g = geometry(MODELS[name])
    n, idx = g.n, range(1, g.model.dim + 1)
    pure = add_ops(g.d_parts[(3, 0)], g.d_parts[(0, 3)])
    for k in idx:
        assert apply_operator(pure, coframe(n, k)) == Multivector(n, {
            _blade(a, b): _entry(g.nijenhuis, a, b, k)
            for a in idx for b in idx if a < b})


# -- derived geometry ---------------------------------------------------------------

def test_geometry_flags():
    flags = {
        name: (g.integrable, g.almost_kahler, g.lee_zero)
        for name, g in ((n, geometry(m)) for n, m in builtin_models().items())
    }
    assert flags["t4"] == (True, True, True)
    assert flags["kt4"] == (False, True, True)
    assert flags["hopf4"] == (True, False, False)
    assert flags["iwa6"] == (True, False, True)
    assert flags["nil6"] == (False, False, True)


def test_hopf4_lee_form():
    g = geometry(get_model("hopf4"))
    assert g.lee_form == coframe(2, 4)
    assert g.jstar_lee == j_vector(coframe(2, 4), "ext")
    # lee = omega _| d omega and lee = -J*(d* omega)
    from reference import contract
    assert contract(g.omega_form, g.d_omega) == g.lee_form
    assert -j_vector(g.dstar_omega, "ext") == g.lee_form


def test_nil6_d_omega_has_all_four_parts():
    from reference import bidegree_components
    g = geometry(get_model("nil6"))
    parts = bidegree_components(g.d_omega)
    assert {k for k, v in parts.items() if not v.is_zero()} == {
        (3, 0), (2, 1), (1, 2), (0, 3)}


# -- JSON interchange ----------------------------------------------------------------

def _spec_of(m):
    return {
        "name": m.name, "n": m.n,
        "brackets": [{"a": a, "b": b, "c": c, "v": str(v)}
                     for (a, b, c, v) in m.entries],
    }


def test_json_roundtrip(tmp_path):
    import json
    base = get_model("nil6")
    path = tmp_path / "nil6.json"
    path.write_text(json.dumps(_spec_of(base)))
    loaded = load_model_file(path)
    assert loaded.entries == base.entries
    assert loaded.n == base.n


def test_json_rejects_float_values():
    spec = {"name": "x", "n": 1, "brackets": [{"a": 1, "b": 2, "c": 1, "v": 0.5}]}
    with pytest.raises(ModelFormatError):
        load_model_dict(spec)


def test_json_rejects_bad_index_order():
    spec = {"name": "x", "n": 1, "brackets": [{"a": 2, "b": 1, "c": 1, "v": "1"}]}
    with pytest.raises(ModelFormatError):
        load_model_dict(spec)


def test_json_rejects_out_of_range():
    spec = {"name": "x", "n": 1, "brackets": [{"a": 1, "b": 3, "c": 1, "v": "1"}]}
    with pytest.raises(ModelFormatError):
        load_model_dict(spec)


def test_json_rejects_missing_keys():
    with pytest.raises(ModelFormatError):
        load_model_dict({"name": "x", "n": 1})
    with pytest.raises(ModelFormatError):
        load_model_dict({"name": "x", "brackets": []})


def test_json_rejects_n_above_limit():
    spec = {"name": "x", "n": 5, "brackets": []}
    with pytest.raises(ModelFormatError, match="n <= 4"):
        load_model_dict(spec)
    assert load_model_dict({"name": "x", "n": 4, "brackets": []}).n == 4


def test_json_accepts_fraction_strings():
    spec = {"name": "x", "n": 2,
            "brackets": [{"a": 1, "b": 2, "c": 3, "v": "-3/4"}]}
    m = load_model_dict(spec)
    assert m.constants == {(1, 2): {3: Fraction(-3, 4)}, (2, 1): {3: Fraction(3, 4)}}


def test_resolve_model(tmp_path):
    import json
    assert resolve_model("kt4").name == "kt4"
    path = tmp_path / "m.json"
    path.write_text(json.dumps(_spec_of(get_model("t2"))))
    assert resolve_model(str(path)).entries == get_model("t2").entries
    with pytest.raises(ModelFormatError):
        resolve_model("nope")
