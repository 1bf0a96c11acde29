"""Acceptance checks.

Each test prints one ACCEPTANCE line (PASS/FAIL) before asserting, so every
criterion's status is visible in the captured output even when one fails.
All checks run in exact arithmetic; "residual zero" means matrix equality
over the Gaussian rationals, not closeness under a tolerance.
"""
import random
import time

import numpy as np

from kahlerid import Workspace, get_model, gq
from kahlerid.algebra import (
    AdaptedStructure,
    Multivector,
    frame,
    j_vector,
)
from kahlerid.dirac import clifford_left, sigma_from_torsion_form
from kahlerid.matrices import ExactMatrix
from kahlerid.operators import (
    add_ops,
    adjoint,
    apply_operator,
    blade_structure,
    conjugate,
    ext_mult,
    make_operator,
    measured_bidegree,
    scale_op,
    supercommutator,
    transport,
)
from kahlerid.scalars import i_power
from kahlerid.verifier import emit_bidegree_table, emit_commutator_table, verify
from reference import contract, frame_rotation_check, matrix_from_blade_action, wedge

BUILTINS = ("t2", "t4", "t6", "kt4", "hopf4", "iwa6", "nil6")


def _report(capsys, num, label, ok):
    # bypass capture so the line shows up even without pytest -s
    with capsys.disabled():
        print(f"ACCEPTANCE {num} {label}: {'PASS' if ok else 'FAIL'}", flush=True)


def _neg(op):
    return scale_op(op, gq(-1))


def _i(op):
    return scale_op(op, gq(0, 1))


def test_criterion_1_full_catalog_exact_on_all_models(capsys):
    t0 = time.monotonic()
    problems = []
    for name in BUILTINS:
        w = Workspace(get_model(name))
        rep = verify(w)
        for r in rep.failures():
            problems.append(f"{name}:{r.entry.id}")
        for r in rep.results:
            if r.status == "pass" and r.entry.kind != "bidegree" and r.residual != 0:
                problems.append(f"{name}:{r.entry.id} residual {r.residual}")
    elapsed = time.monotonic() - t0
    if elapsed >= 10.0:
        problems.append(f"took {elapsed:.2f}s (budget 10s)")
    ok = not problems
    _report(capsys, 1, "full catalog, exact zero residuals, all models, <10s", ok)
    assert ok, problems


def test_criterion_2_torsion_rows_on_nil6(ws, capsys):
    o = ws("nil6").ops
    checks = {
        "lam nonzero": not o["lam"].is_zero(),
        "tau nonzero": not o["tau"].is_zero(),
        "[d,L] = lam": supercommutator(o["d"], o["L"]).matrix == o["lam"].matrix,
        "[d*,L] = -(d^c + tau^c)": supercommutator(o["d_star"], o["L"]).matrix
            == _neg(add_ops(o["dc"], conjugate(o["tau"]))).matrix,
        "[tau,L] = -3 lam": supercommutator(o["tau"], o["L"]).matrix
            == scale_op(o["lam"], gq(-3)).matrix,
        "[tau,Lam] = -2 (tau^c)*": supercommutator(o["tau"], o["Lam"]).matrix
            == scale_op(adjoint(conjugate(o["tau"])), gq(-2)).matrix,
    }
    ok = all(checks.values())
    _report(capsys, 2, "torsion rows of the commutation theorem on nil6", ok)
    assert ok, [k for k, v in checks.items() if not v]


def test_criterion_3_master_identity_and_degeneration(ws, capsys):
    problems = []
    for name in ("nil6", "iwa6"):
        o = ws(name).ops
        lhs = supercommutator(o["D"], o["Hc"])
        rhs = add_ops(_neg(_i(o["Dc"])), _i(o["Dsig"]), _neg(_i(o["L_D_omega"])))
        if lhs.matrix != rhs.matrix:
            problems.append(f"{name}: [D,Hc] != -i D^c + i Dsig - i L_(D omega)")
        if o["Dsig"].is_zero():
            problems.append(f"{name}: Dsig unexpectedly zero")
    for name in ("kt4", "t4"):
        o = ws(name).ops
        if not o["Dsig"].is_zero():
            problems.append(f"{name}: Dsig should vanish")
        if not o["L_D_omega"].is_zero():
            problems.append(f"{name}: L_(D omega) should vanish")
        lhs = supercommutator(o["D"], o["Hc"])
        if lhs.matrix != _neg(_i(o["Dc"])).matrix:
            problems.append(f"{name}: degenerate master identity failed")
    ok = not problems
    _report(capsys, 3, "Dirac master identity (generic and degenerate models)", ok)
    assert ok, problems


def test_criterion_4_sigma_and_transports(ws, capsys):
    problems = []
    for name in BUILTINS:
        g, o = ws(name).geom, ws(name).ops
        for a in range(1, 2 * g.n + 1):
            if o[f"sigma_{a}"].matrix != sigma_from_torsion_form(g, a).matrix:
                problems.append(f"{name}: sigma_{a} dual construction differs")
        if not frame_rotation_check(g, seed=5):
            problems.append(f"{name}: Dirac operator depends on the frame")
    for name in ("nil6", "hopf4"):
        o = ws(name).ops
        if transport(o["D"]).matrix != add_ops(o["d"], o["d_star"]).matrix:
            problems.append(f"{name}: flat D sharp != d + d*")
        hc_rhs = _i(add_ops(o["Lam"], _neg(o["L"])))
        if transport(o["Hc"]).matrix != hc_rhs.matrix:
            problems.append(f"{name}: flat Hc sharp != i(Lam - L)")
        tauplusc = conjugate(o["tau_plus"])
        dsig_rhs = add_ops(
            o["rho_plus"], tauplusc, o["E_jlee"],
            adjoint(o["rho_plus"]), adjoint(tauplusc), _neg(o["I_jlee"]))
        if transport(o["Dsig"]).matrix != dsig_rhs.matrix:
            problems.append(f"{name}: flat Dsig sharp differs from exterior build")
    ok = not problems
    _report(capsys, 4, "sigma dual paths, frame independence, picture transports", ok)
    assert ok, problems


def test_criterion_5_tables_on_nil6(ws, capsys):
    w = ws("nil6")
    problems = []
    table = emit_commutator_table(w)
    bad = [f"{c['row']}/{c['column']}:{c['status']}"
           for c in table["cells"] if c["status"] != "ok"]
    if bad:
        problems.append(f"commutator cells not ok: {bad}")
    if len(table["cells"]) != 60:
        problems.append(f"expected 60 cells, got {len(table['cells'])}")
    rows = {c["row"] for c in table["cells"]}
    if not {"rho_del", "rho_delbar", "rho_del*", "rho_delbar*"} <= rows:
        problems.append("rho rows missing from the table")
    if not (w.nonzero("rho_del") and w.nonzero("rho_delbar")):
        problems.append("rho rows are vacuous on nil6")
    btable = emit_bidegree_table(w)
    misplaced = [m for cell in btable["cells"] for m in cell["misplaced"]]
    if misplaced:
        problems.append(f"misplaced operators: {misplaced}")
    placed = {(c["p"], c["q"]): c["operators"] for c in btable["cells"]}
    for cell, opname in (((2, -1), "mu"), ((2, -1), "tau_mu"), ((1, 0), "del"),
                         ((0, 1), "delbar"), ((-1, 2), "mubar"),
                         ((3, 0), "lam_mu"), ((2, 1), "lam_del"),
                         ((-2, 1), "mu*")):
        if opname not in placed[cell]:
            problems.append(f"{opname} not placed at {cell}")
    ok = not problems
    _report(capsys, 5, "commutator and bidegree tables on nil6", ok)
    assert ok, problems


def test_criterion_6_almost_kahler_specialization(ws, capsys):
    w = ws("kt4")
    problems = []
    for nm in ("lam", "tau", "rho"):
        if not w.ops[nm].is_zero():
            problems.append(f"{nm} should vanish when d omega = 0")
    if w.ops["mu"].is_zero():
        problems.append("mu should not vanish on kt4")
    if (1, 2) not in w.geom.nijenhuis:
        problems.append("Nijenhuis tensor should not vanish on kt4")
    rep = verify(w)
    ak = [r for r in rep.results if r.entry.group == "almost-kahler"]
    if not ak:
        problems.append("almost-kahler group missing")
    for r in ak:
        if r.status != "pass":
            problems.append(f"{r.entry.id}: {r.status}")
    mu_vacuous = [r.entry.id for r in ak
                  if r.entry.id.startswith("ak.mu.") and not r.exercised]
    if mu_vacuous:
        problems.append(f"mu rows of the specialization are vacuous: {mu_vacuous}")
    ok = not problems
    _report(capsys, 6, "almost Kahler specialization on kt4 (nonintegrable)", ok)
    assert ok, problems


def test_criterion_7_structural_core(ws, capsys):
    problems = []
    # Lefschetz weights in both bracket orders, for every catalogued rank
    for n in (1, 2, 3):
        bs = blade_structure(n)
        L = ext_mult(AdaptedStructure(n).omega())
        Lam = adjoint(L)
        H = supercommutator(L, Lam)
        H_op = supercommutator(Lam, L)
        for k in range(2 * n + 1):
            for idx in bs.degree_indices[k]:
                blade = Multivector(n, {int(idx): 1})
                if apply_operator(H, blade) != blade.scale(gq(k - n)):
                    problems.append(f"n={n}: [L,Lam] != (k-n) id at degree {k}")
                    break
                if apply_operator(H_op, blade) != blade.scale(gq(n - k)):
                    problems.append(f"n={n}: [Lam,L] != (n-k) id at degree {k}")
                    break
    for name in BUILTINS:
        o = ws(name).ops
        if not (o["d"].matrix @ o["d"].matrix).is_zero():
            problems.append(f"{name}: d^2 != 0")
        for nm in ("d", "D", "tau", "L", "Hc"):
            if adjoint(adjoint(o[nm])).matrix != o[nm].matrix:
                problems.append(f"{name}: adjoint not involutive on {nm}")
    # graded Jacobi identity on random pure-parity triples
    bs1 = blade_structure(1)
    rng = random.Random(99)
    pm = bs1.parity_sign
    half = gq("1/2")
    parity_bit = {"even": 0, "odd": 1}
    for trial in range(100):
        triple = []
        for _ in range(3):
            re = np.array([[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)],
                          dtype=np.int64)
            m = ExactMatrix(re, np.zeros((4, 4), dtype=np.int64), 1)
            sym = pm @ m @ pm
            part = (m + sym) if rng.random() < 0.5 else (m - sym)
            triple.append(make_operator(part.scale(half), "ext"))
        A, B, C = triple
        pa, pb, pc = (parity_bit[X.parity] for X in triple)
        total = add_ops(
            scale_op(supercommutator(A, supercommutator(B, C)), gq((-1) ** (pa * pc))),
            scale_op(supercommutator(B, supercommutator(C, A)), gq((-1) ** (pb * pa))),
            scale_op(supercommutator(C, supercommutator(A, B)), gq((-1) ** (pc * pb))),
        )
        if not total.matrix.is_zero():
            problems.append(f"graded Jacobi failed on trial {trial}")
            break
    ok = not problems
    _report(capsys, 7, "Lefschetz weights, d^2 = 0, involutions, graded Jacobi", ok)
    assert ok, problems


def test_criterion_8_construction_gates(ws, capsys):
    problems = []
    # Clifford action of a frame vector = wedge minus contraction, as operators
    n = 2
    for a in range(1, 2 * n + 1):
        e = frame(n, a)
        ref = matrix_from_blade_action(n, lambda phi, e=e: wedge(e, phi) - contract(e, phi))
        if clifford_left(e).matrix != ref:
            problems.append(f"e_{a}: Clifford action != wedge - contraction")
    # Lee form: the contraction and codifferential constructions agree, and
    # tau applied to the unit form recovers it
    for name in ("hopf4", "nil6", "kt4"):
        w = ws(name)
        g = w.geom
        if contract(g.omega_form, g.d_omega_plus) != g.lee_form:
            problems.append(f"{name}: lee != omega _| (d omega)+")
        if -j_vector(g.dstar_omega, "ext") != g.lee_form:
            problems.append(f"{name}: lee != -J*(d* omega)")
        if apply_operator(w.ops["tau"], Multivector.unit(g.n)) != g.lee_form:
            problems.append(f"{name}: tau(1) != lee")
    if ws("hopf4").geom.lee_form.is_zero():
        problems.append("hopf4 should carry a nonzero Lee form")
    # conjugation scalar on every operator of one measured bidegree shift
    for name in ("nil6", "hopf4"):
        w = ws(name)
        for opname, op in w.ops.items():
            (shifts,) = measured_bidegree([op])
            if len(shifts) != 1:
                continue
            ((p, q),) = shifts
            if conjugate(op).matrix != scale_op(op, i_power(q - p)).matrix:
                problems.append(f"{name}: {opname} violates P^c = i^(q-p) P")
    ok = not problems
    _report(capsys, 8, "construction gates: products, Lee form, conjugation scalars", ok)
    assert ok, problems
