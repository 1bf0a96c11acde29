"""Catalog integrity, evaluation semantics, vacuity, and table emission."""
import copy
import functools
import hashlib
import pickle
from dataclasses import FrozenInstanceError, fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kahlerid import get_model, gq, verifier
from kahlerid.algebra import Multivector
from kahlerid.matrices import ExactMatrix, FrobeniusColumns, linear_combination, solve_exact
from kahlerid.operators import LinearOperator, StructuralError, make_operator
from kahlerid.scalars import GaussianRational
from kahlerid.verifier import (
    COVERAGE,
    GROUP_SUITE,
    SUITES,
    Adj,
    Apply,
    Conj,
    El,
    ElementValue,
    Expr,
    Op,
    S,
    Scale,
    SCom,
    Transport,
    Workspace,
    ZeroEl,
    ZeroOp,
    add,
    catalog,
    emit_bidegree_table,
    emit_commutator_table,
    verify,
)
import reference
from reference import basis

BUILTINS = ["t2", "t4", "t6", "kt4", "hopf4", "iwa6", "nil6"]


# -- catalog shape ---------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3])
def test_catalog_counts_match_coverage(n):
    got = {}
    for e in catalog(n):
        got[e.group] = got.get(e.group, 0) + 1
    assert got == COVERAGE[n]


# sha256 of the catalog's entry reprs, one per line: every id, statement, tree,
# guard and order.  The report pins cannot see a tree that changes but still
# passes, and a changed tree can change the evaluated work.
CATALOG_SHA256 = {
    1: "abcce732f942f074347099dd2d6de2706daf0442b10d214d0758c92f8528a493",
    2: "19b8baf66ad2e3acc763ecce4b4454eb862e2834f434149182fec951caf84560",
    3: "b27bf170611ecc4418788ee93f36bc08c3ec26ce83a82e72cd5db462ca605add",
    4: "54cc210309821c127eaaedf372f8a37be71323dfd85622b446b865edfab83fe7",
}


@pytest.mark.parametrize("n", sorted(CATALOG_SHA256))
def test_catalog_trees_are_pinned(n):
    text = "\n".join(map(repr, catalog(n)))
    assert hashlib.sha256(text.encode()).hexdigest() == CATALOG_SHA256[n]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_catalog_ids_unique_and_kinds_valid(n):
    entries = catalog(n)
    ids = [e.id for e in entries]
    assert len(ids) == len(set(ids))
    for e in entries:
        assert e.kind in ("operator", "element", "bidegree")
        assert e.group in GROUP_SUITE
        if e.kind == "bidegree":
            assert e.cell is not None and e.rhs is None
        else:
            assert e.rhs is not None
        assert e.statement


def test_guards_resolve_on_workspaces(ws):
    for name in ("t2", "kt4", "nil6"):
        w = ws(name)
        for e in catalog(w.n):
            for g in e.guards or ():
                assert g in w.ops or g in w.elements, f"{e.id} guard {g!r}"


def _leaf_names(x) -> set[str]:
    """The operator and element names an expression tree reads."""
    if isinstance(x, (Op, El)):
        return {x.name}
    if isinstance(x, tuple):
        return set().union(*map(_leaf_names, x))
    if isinstance(x, Expr):
        return set().union(*(_leaf_names(getattr(x, f.name)) for f in fields(x)))
    return set()


@pytest.mark.parametrize("name", ["t2", "kt4", "nil6"])
def test_every_namespace_name_is_read(ws, name):
    # the span atoms, and the catalog trees and guards (which hold both tables' rows)
    w = ws(name)
    reached = set(verifier._SPAN_FAMILIES) | set(verifier._SPAN_LEE)
    for e in catalog(w.n):
        reached |= _leaf_names(e.lhs) | _leaf_names(e.rhs) | set(e.guards or ())
    assert set(w.ops) | set(w.elements) <= reached


# -- interned expression trees ------------------------------------------------------

def _tree(c):
    return add(S(c, SCom(Op("d"), Op("L"))), Conj(Transport(Op("D"))), Adj(Op("d")))


def test_equal_trees_are_one_node():
    a = _tree(gq(Fraction(1, 2), -3))
    # built again, from an equal coefficient that is a different object
    b = _tree(GaussianRational(Fraction(2, 4), Fraction(-6, 2)))
    assert a is b and a == b and hash(a) == hash(b)
    assert Scale(gq(-1), Op("d")) is S(-1, Op("d"))
    others = [_tree(gq(Fraction(1, 2), 3)), _tree(gq(1)), a.terms[0], SCom(Op("L"), Op("d")),
              Op("d"), El("d"), ZeroOp("ext"), ZeroOp("cl"), ZeroEl("ext"),
              add(Op("d"), Op("L")), add(Op("L"), Op("d"))]
    assert len({id(x) for x in [a, *others]}) == len(others) + 1
    assert all(x != y for i, x in enumerate([a, *others]) for y in others[i:])


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda x: pickle.loads(pickle.dumps(x))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_and_pickles_return_the_interned_node(clone):
    tree = _tree(gq(Fraction(1, 2), -3))
    scale = tree.terms[0]
    c, before = scale.c, repr(tree)
    assert clone(tree) is tree and clone(scale) is scale
    assert repr(tree) == before and tree.terms[0] is scale and scale.c is c


def test_nodes_take_their_fields_by_position_only():
    with pytest.raises(TypeError):
        Op(name="d")
    with pytest.raises(TypeError):
        SCom(Op("d"))
    with pytest.raises(FrozenInstanceError):
        Op("d").name = "L"
    assert Op("d").name == "d"


@st.composite
def _exact_sides(draw):
    """Two matrices, equal (built apart) or not, stored as int64 or as Python
    integers."""
    rows, cols = draw(st.sampled_from([(1, 1), (2, 2), (3, 1), (3, 3)]))
    bits = draw(st.sampled_from([3, 64]))
    num = st.integers(-(1 << bits), 1 << bits)
    dens = st.sampled_from([1, 6, 10**20 + 39])

    def matrix():
        return ExactMatrix.from_columns(rows, [
            {i: gq(Fraction(draw(num), draw(dens)), Fraction(draw(num), draw(dens)))
             for i in range(rows) if draw(st.booleans())} for _ in range(cols)])

    a = matrix()
    how = draw(st.sampled_from(["equal", "other", "bumped"]))
    if how == "equal":
        b = a.scale(3).scale(Fraction(1, 3))
    elif how == "other":
        b = matrix()
    else:
        b = a + ExactMatrix.from_columns(rows, [{0: gq(0, Fraction(1, 7))}] * cols)
    return a, b


@settings(max_examples=80, deadline=None)
@given(_exact_sides())
def test_exact_residual_is_the_max_norm_of_the_difference(sides):
    a, b = sides
    want = (a - b).max_norm()
    if a.shape[1] == 1:
        pair = (ElementValue(a, "cl"), ElementValue(b, "cl"))
    else:
        # the residual reads no parity
        pair = (LinearOperator(a, "cl", "even"), LinearOperator(b, "cl", "even"))
    got = verifier._value_residual(*pair)
    assert type(got) is Fraction and got == want and str(got) == str(want)
    assert (got == 0) == (a == b)


# -- verification ------------------------------------------------------------------

@pytest.mark.parametrize("name", BUILTINS)
def test_all_entries_pass_exact(ws, name):
    rep = verify(ws(name))
    assert rep.ok(), [r.entry.id for r in rep.failures()]
    c = rep.counts()
    assert c["failed"] == 0
    # conditional group is skipped exactly when d omega != 0
    expected_skips = 0 if ws(name).geom.almost_kahler else COVERAGE[ws(name).n]["almost-kahler"]
    assert c["skipped"] == expected_skips


def test_exact_residuals_are_fractions(ws):
    rep = verify(ws("kt4"))
    for r in rep.results:
        if r.entry.kind != "bidegree" and r.status == "pass":
            assert isinstance(r.residual, Fraction)
            assert r.residual == 0


def test_nonvacuity_highlights(ws):
    w = ws("nil6")
    # every d part, every lambda part, tau and rho parts live on nil6
    for nm in ("mu", "del", "delbar", "mubar",
               "lam_mu", "lam_del", "lam_delbar", "lam_mubar",
               "tau_del", "rho_del", "tau", "lam", "rho"):
        assert w.nonzero(nm), nm
    assert ws("hopf4").nonzero("lee")
    assert ws("kt4").nonzero("mu")
    assert not ws("kt4").nonzero("lam")


def test_exercised_counts(ws):
    rep = verify(ws("nil6"))
    c = rep.counts()
    assert c["exercised"] >= 400
    t4c = verify(ws("t4")).counts()
    assert t4c["exercised"] >= 40  # structural identities stay live even when d = 0


def test_big_integer_model_verifies_like_nil6(ws):
    # nil6 with two brackets rescaled by 2^32 and 2^-32: a nilpotent model of
    # the same shape whose d, D and nabla_2 leave int64 for Python integers
    big = Workspace(reference.extra_model("big32"))
    assert any(op.matrix.re.dtype == object or op.matrix.im.dtype == object
               for op in big.ops.values())
    got, want = verify(big), verify(ws("nil6"))
    assert [(r.entry.id, r.status, r.exercised) for r in got.results] == [
        (r.entry.id, r.status, r.exercised) for r in want.results]
    c = got.counts()
    assert (c["passed"], c["exercised"], c["failed"]) == (441, 410, 0)


def test_guard_semantics(ws):
    # empty guard tuple: always exercised, even with both sides zero
    rep = verify(ws("kt4"))
    by_id = {r.entry.id: r for r in rep.results}
    assert by_id["ak.rho_zero"].status == "pass"
    assert by_id["ak.rho_zero"].exercised
    # named guard: vacuous when the guard operator vanishes
    rep4 = verify(ws("t4"))
    by_id4 = {r.entry.id: r for r in rep4.results}
    assert by_id4["main.dL"].status == "pass"
    assert not by_id4["main.dL"].exercised
    # auto guard: exercised iff a side is nonzero
    assert not by_id4["cl.lemma.b"].exercised
    by_id6 = {r.entry.id: r for r in verify(ws("nil6")).results}
    assert by_id6["cl.lemma.b"].exercised
    assert by_id6["main.dL"].exercised


def test_conditional_entries_skip(ws):
    rep = verify(ws("nil6"))
    skipped = [r.entry.id for r in rep.results if r.status == "skipped"]
    assert skipped and all(i.startswith("ak.") for i in skipped)
    rep_k = verify(ws("kt4"))
    assert all(r.status != "skipped" for r in rep_k.results)


def test_suite_filtering(ws):
    w = ws("kt4")
    rep = verify(w, suite="tables")
    groups = {r.entry.group for r in rep.results}
    assert groups == {"commutator-table", "bidegree-table"}
    assert rep.counts()["total"] == 132
    with pytest.raises(ValueError):
        verify(w, suite="nope")
    assert set(SUITES) == {"all", "elementary", "clifford", "exterior", "tables"}


def test_float_mode_agrees(ws):
    rep = verify(ws("nil6", "float"), tolerance=1e-10)
    assert rep.ok()
    assert rep.mode == "float"
    for r in rep.results:
        if r.residual is not None:
            assert isinstance(r.residual, float)


def test_json_deterministic():
    a = Workspace(get_model("kt4"))
    b = Workspace(get_model("kt4"))
    assert verify(a).to_json() == verify(b).to_json()


def test_markdown_render(ws):
    text = verify(ws("kt4"), suite="exterior").to_markdown()
    assert "# Identity report: kt4" in text
    assert "| id | statement | status | exercised | residual |" in text
    assert "FAIL" not in text


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_verify_computes_each_planned_value_once_and_keeps_none(mode):
    w = Workspace(get_model("nil6"), mode=mode)
    computed = []
    inner = w._eval_inner

    def counting(expr, float_mode):
        computed.append((expr, float_mode))
        return inner(expr, float_mode)

    planned = []
    plan = w.plan

    def recording(requests):
        plan(requests)
        planned.append(set(w._uses))

    w._eval_inner = counting
    w.plan = recording
    for suite in SUITES:
        computed.clear()
        planned.clear()
        assert verify(w, suite=suite).ok()
        [keys] = planned
        assert len(computed) == len(keys) == len(set(computed))
        assert set(computed) == keys
        assert not keys & set(w._memo)
        assert w._uses == {}
    # outside verify nothing is planned: a repeated tree is memoized
    tree = SCom(Op("d"), Op("L"))
    assert w.eval(tree) is w.eval(tree)


# -- structural errors ----------------------------------------------------------------

@pytest.mark.parametrize("tolerance", [float("nan"), -1.0, float("inf")])
def test_verify_rejects_a_tolerance_that_is_not_finite_and_nonnegative(ws, tolerance):
    with pytest.raises(ValueError, match="tolerance"):
        verify(ws("t2", "float"), tolerance=tolerance)


# each torsion witness leaf and the catalog entry that reads it
WITNESS_ENTRIES = [
    ("kn_1", "cl.kn.1"),
    ("kn_twist_1", "cl.kn_twisted.1"),
    ("sigflat1f_1", "cl.sigma_oneform.1"),
    ("sigmat_1", "cl.sigma_torsion.1"),
    ("tf_mixed_1", "cl.threeform_mixed.1"),
    ("tf2_mid_1", "cl.threeform_pure1.1"),
    ("tauplusc_1f", "ex.tau_plus_conj_oneform"),
    ("tf_b_lhs_1", "cl.threeform_trace.1"),
]


@pytest.mark.parametrize("leaf, entry_id", WITNESS_ENTRIES)
def test_perturbed_torsion_witness_fails(ws, leaf, entry_id, monkeypatch):
    # one added nonzero entry must make the entry fail; adding (not scaling)
    # also reaches tf_mixed_*, which is zero on nil6
    full = verifier.catalog
    monkeypatch.setattr(verifier, "catalog",
                        lambda n: tuple(e for e in full(n) if e.id == entry_id))
    assert [r.status for r in verify(ws("nil6")).results] == ["pass"]
    w = Workspace(get_model("nil6"))
    if leaf in w.ops:
        op = w.ops[leaf]
        # an entry of op's parity: e_2 -> e_1 at (1, 2), or e_2 -> e_1 ^ e_2 at (3, 2)
        row = 3 if op.parity == "odd" else 1
        bump = ExactMatrix.from_columns(w.dim, [{row: gq(1)} if j == 2 else {}
                                                for j in range(w.dim)])
        w.ops[leaf] = make_operator(op.matrix + bump, op.picture)
    else:
        mv, picture = w.elements[leaf]
        w.elements[leaf] = (mv + basis(3, 1, 2), picture)
    [result] = verify(w).results
    assert result.status == "fail"
    # the residual reported is the one a plain subtraction of the sides gives
    [entry] = verifier.catalog(3)
    diff = w.eval(entry.lhs).matrix - w.eval(entry.rhs).matrix
    assert result.residual == diff.max_norm() > 0


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_misplaced_bidegree_entries_fail_in_their_catalog_places(ws, mode, monkeypatch):
    # each bidegree entry moved one step off its cell fails with the shifts
    # measured; the batch keeps every result in its catalog place
    full = verifier.catalog

    def moved(n):
        return tuple(replace(e, cell=(e.cell[0] + 1, e.cell[1])) if e.kind == "bidegree" else e
                     for e in full(n))

    want = verify(ws("nil6", mode)).results
    monkeypatch.setattr(verifier, "catalog", moved)
    got = verify(ws("nil6", mode)).results
    assert [r.entry.id for r in got] == [r.entry.id for r in want]
    for r, w in zip(got, want):
        if r.entry.kind != "bidegree":
            assert (r.status, r.residual) == (w.status, w.residual)
        elif w.exercised:
            cell = (r.entry.cell[0] - 1, r.entry.cell[1])
            assert (r.status, r.detail) == ("fail", f"measured [{cell}]")
        else:
            assert (r.status, r.detail) == ("pass", "")


def test_workspace_errors(ws):
    with pytest.raises(ValueError):
        Workspace(get_model("t2"), mode="symbolic")
    w = ws("t2")
    with pytest.raises(StructuralError):
        w.op("nonsense")
    with pytest.raises(StructuralError):
        w.nonzero("nonsense")
    with pytest.raises(StructuralError):
        w.eval(Apply(Op("D"), El("omega")))  # cl operator on ext element


# -- tables -----------------------------------------------------------------------------

def test_commutator_table_nil6(ws):
    table = emit_commutator_table(ws("nil6"))
    assert table["ok"]
    assert len(table["cells"]) == 60
    assert all(c["status"] == "ok" for c in table["cells"])
    by_key = {(c["row"], c["column"]): c for c in table["cells"]}
    assert by_key[("mu", "L")]["solved"] == "lam_mu"
    assert by_key[("d", "Lam")]["expected"] == "(d^c)* + (tau^c)*"
    assert by_key[("rho_del", "Lam")]["expected"] == "-i rho_delbar* + tau_delbar*"
    # rho rows are genuinely exercised on nil6
    assert ws("nil6").nonzero("rho_del") and ws("nil6").nonzero("rho_delbar")


def test_commutator_cell_outside_the_span_is_unresolved(ws, monkeypatch):
    # without lam_mu in the span, [mu, L] = lam_mu has only a spurious
    # normal-equation solution, which the reconstruction check rejects
    span = verifier._span_atoms
    monkeypatch.setattr(verifier, "_span_atoms",
                        lambda w: [a for a in span(w) if a[0] != "lam_mu"])
    table = emit_commutator_table(ws("nil6"))
    by_key = {(c["row"], c["column"]): c for c in table["cells"]}
    cell = by_key[("mu", "L")]
    assert cell["status"] == "unresolved" and cell["solved"] == ""
    assert not table["ok"]
    assert by_key[("mu", "Lam")]["status"] == "ok"


def _patch_ctab_rows(monkeypatch, rows):
    """Serve the table rows from rows, through a fresh `_ctab_cells` cache
    (the process-wide one keeps the rows it read first)."""
    monkeypatch.setattr(verifier, "_ctab_rows", rows)
    monkeypatch.setattr(verifier, "_ctab_cells", functools.cache(verifier._ctab_cells.__wrapped__))


def test_commutator_cell_with_a_wrong_expected_form_is_a_mismatch(ws, monkeypatch):
    rows = verifier._ctab_rows

    def doubled():
        out = []
        for label, base, row, lam, l in rows():
            if label == "mu":
                l = S(2, l)
            out.append((label, base, row, lam, l))
        return out

    _patch_ctab_rows(monkeypatch, doubled)
    table = emit_commutator_table(ws("nil6"))
    assert not table["ok"]
    bad = [c for c in table["cells"] if c["status"] != "ok"]
    assert [(c["row"], c["column"], c["status"], c["solved"]) for c in bad] == [
        ("mu", "L", "mismatch", "lam_mu")]


def test_commutator_cell_with_a_wrong_expected_form_off_the_span_is_a_mismatch(
        ws, monkeypatch):
    # [d, L] = lam: lam is no span atom, so the cell is compared entrywise
    solved = {(c["row"], c["column"]): c["solved"]
              for c in emit_commutator_table(ws("nil6"))["cells"]}
    rows = verifier._ctab_rows

    def doubled():
        out = []
        for label, base, row, lam, l in rows():
            if label == "d":
                l = S(2, l)
            out.append((label, base, row, lam, l))
        return out

    _patch_ctab_rows(monkeypatch, doubled)
    table = emit_commutator_table(ws("nil6"))
    assert not table["ok"]
    bad = [c for c in table["cells"] if c["status"] != "ok"]
    assert [(c["row"], c["column"], c["status"], c["solved"]) for c in bad] == [
        ("d", "L", "mismatch", solved[("d", "L")])]
    assert solved[("d", "L")]


def test_commutator_cell_equal_to_other_atoms_lists_them_as_aliases(ws, monkeypatch):
    # lam_mu_part, lam_mu on one of its entries, has <lam_mu, part> =
    # <part, part> but is no alias of lam_mu
    span = verifier._span_atoms

    def with_copies(w):
        atoms = span(w)
        lam_mu = dict(atoms)["lam_mu"]
        m = lam_mu.matrix
        keep = np.zeros(m.shape, dtype=bool)
        keep[np.unravel_index(np.flatnonzero(m.nonzero_mask())[0], m.shape)] = True
        part = ExactMatrix(np.where(keep, m.re, 0), np.where(keep, m.im, 0), m.den)
        return atoms + [("lam_mu_copy", lam_mu),
                        ("lam_mu_neg", replace(lam_mu, matrix=-m)),
                        ("lam_mu_part", replace(lam_mu, matrix=part))]

    monkeypatch.setattr(verifier, "_span_atoms", with_copies)
    table = emit_commutator_table(ws("nil6"))
    assert table["ok"]
    cell = {(c["row"], c["column"]): c for c in table["cells"]}[("mu", "L")]
    assert cell["status"] == "ok" and cell["solved"] == "lam_mu"
    assert cell["aliases"] == ["lam_mu_copy", "-lam_mu_neg"]


def _format(x):
    """A relation tree as the catalog prints it."""
    return verifier._format_terms(verifier._terms(x))


def _commutator_cells_entrywise(w):
    """The table's cells decided by rebuilding and comparing matrices: each
    solution is checked by reconstruction, each expected form and alias by
    entrywise equality."""
    atoms = verifier._span_atoms(w)
    labels = [label for label, _ in atoms]
    mats = [op.matrix for _, op in atoms]
    span = FrobeniusColumns(mats)
    gram = span.inner(mats)
    cells = []
    for label, _, col, target, expected in verifier._ctab_cells():
        t = w.eval(target).matrix
        [x] = solve_exact(gram, span.inner([t]))
        live = [j for j, c in enumerate(x) if c]
        solved = ""
        if linear_combination([(x[j], mats[j], None) for j in live], t.shape) == t:
            solved = verifier._format_combo([(x[j], labels[j]) for j in live])
        support = {labels[j] for j in live} if solved else set()
        aliases = []
        for alabel, m in zip(labels, mats):
            if t.is_zero() or alabel in support:
                continue
            if t == m:
                aliases.append(alabel)
            elif t == -m:
                aliases.append("-" + alabel)
        status = ("unresolved" if not solved
                  else "ok" if t == w.eval(expected).matrix else "mismatch")
        cells.append({"row": label, "column": col,
                      "expected": _format(expected), "status": status,
                      "solved": solved, "aliases": aliases})
    return cells


@pytest.mark.parametrize("name", ["nil6", "hopf4", "kt4"])
def test_commutator_table_decides_every_cell_like_entrywise_comparison(ws, name):
    assert emit_commutator_table(ws(name))["cells"] == _commutator_cells_entrywise(ws(name))


@pytest.mark.parametrize("name", ["nil6", "hopf4"])
def test_relation_terms_read_over_the_span_are_the_evaluated_form(ws, name):
    # the table decides a cell whose expected form is a combination of span
    # atoms from the coefficients `_terms` reads; they must give that form
    w = ws(name)
    atoms = verifier._span_atoms(w)
    index = {label: j for j, (label, _) in enumerate(atoms)}
    on_atoms = 0
    for *_, expected in verifier._ctab_cells():
        e = verifier._on_atoms(verifier._terms(expected), index)
        if e is None:
            continue
        on_atoms += 1
        want = w.eval(expected).matrix
        got = linear_combination([(c, atoms[j][1].matrix, None) for j, c in e.items()],
                                 want.shape)
        assert got == want, _format(expected)
    assert on_atoms == 56


@pytest.mark.parametrize("n", [1, 2, 3])
def test_corollary_and_table_hold_each_relation_once(n):
    by_id = {e.id: e for e in catalog(n)}
    cor = [e for e in catalog(n) if e.group == "corollary"
           and not e.id.endswith((".bar", ".baradj"))]
    assert len(cor) == 24
    for e in cor:
        _, p, col, *adj = e.id.split(".")
        if adj:
            # [P*, Q'] is the table's adjoint row, in the other column
            p, col = p + "*", "L" if col == "Lam" else "Lam"
        cell = by_id[f"ctab.{p}.{col}"]
        assert cell.lhs is e.lhs and cell.rhs is e.rhs


@pytest.mark.parametrize("n", [1, 2, 3])
def test_table_statements_print_their_trees(n):
    for e in catalog(n):
        if e.group == "commutator-table":
            _, row, col = e.id.rsplit(".", 2)
            assert e.statement == f"[{row}, {col}] = {_format(e.rhs)}"


def test_relation_printer_factors_a_shared_coefficient():
    stmts = {e.id: e.statement for e in catalog(1)}
    assert stmts["ctab.mu.Lam"] == "[mu, Lam] = i(mubar* + tau_mubar*)"
    assert stmts["ctab.d*.L"] == "[d*, L] = -(d^c + tau^c)"
    assert stmts["ctab.rho_del*.L"] == "[rho_del*, L] = -i rho_delbar - tau_delbar"
    assert stmts["ctab.tau_mu*.Lam"] == "[tau_mu*, Lam] = 3 lam_mu*"
    assert stmts["ctab.lam_mu.L"] == "[lam_mu, L] = 0"
    assert stmts["ak.del.Lam.baradj"] == "conjugate adjoint: [del, Lam] = -i delbar*"


@pytest.mark.parametrize("name", ["kt4", "hopf4"])
def test_commutator_table_other_models(ws, name):
    table = emit_commutator_table(ws(name))
    assert table["ok"]
    assert all(c["status"] in ("ok",) for c in table["cells"])


def test_bidegree_table_nil6(ws):
    table = emit_bidegree_table(ws("nil6"))
    assert table["ok"]
    cells = {(c["p"], c["q"]): c for c in table["cells"]}
    assert "mu" in cells[(2, -1)]["operators"]
    assert "tau_mu" in cells[(2, -1)]["operators"]
    assert "del" in cells[(1, 0)]["operators"]
    assert "lam_mu" in cells[(3, 0)]["operators"]
    assert "mu*" in cells[(-2, 1)]["operators"]
    for c in table["cells"]:
        assert not c["misplaced"]


def test_tables_require_exact_mode(ws):
    w = ws("t2", "float")
    with pytest.raises(StructuralError):
        emit_commutator_table(w)
    with pytest.raises(StructuralError):
        emit_bidegree_table(w)
