"""Exterior-side operator zoo and the shared evaluation namespace.

Per model geometry this builds the bidegree parts of d, the Lefschetz
pair (L, Lam), the multiplication families lambda / tau / rho driven
by the torsion 3-form, the Lee-form operators, and a bag of auxiliary
matrices (torsion right-hand sides, frame-trace residuals) consumed by
the identity catalog.  Everything is exact.
"""
from __future__ import annotations

from .algebra import Multivector, coframe, frame
from .dirac import CliffordZoo, clifford_left, sigma_from_torsion_form, torsion_block
from .matrices import ExactMatrix
from .models import GeometryError, ModelGeometry, nabla_forms
from .operators import (
    PICTURES,
    LinearOperator,
    add_ops,
    adjoint,
    apply_operator,
    bidegree_decompose,
    blade_structure,
    conjugate,
    contract_op,
    ext_mult,
    form_slices,
    int_mult,
    k_xi,
    make_operator,
    multiplication_sum,
    r_xi,
    supercommutator,
    tensor_slices,
    vector_operator,
)
from .scalars import gq

# the (p, q) parts of d omega, each named after the part of d of bidegree
# (p - 1, q - 1)
_PARTS = {(3, 0): "mu", (2, 1): "del", (1, 2): "delbar", (0, 3): "mubar"}

_HALF = gq("1/2")


class ExteriorZoo:
    """The exterior-picture operators of one model, under their catalog
    names in `ops`."""

    def __init__(self, geom: ModelGeometry):
        n = geom.n
        bs = blade_structure(n)
        d = geom.d
        ops = {"d": d, "d_star": adjoint(d).renamed("d*"), "dc": conjugate(d).renamed("d^c")}
        ops["dc_star"] = adjoint(ops["dc"]).renamed("(d^c)*")
        ops["Ja_ext"] = make_operator("J_a", bs.Ja_ext, "ext")
        ops["Jd_ext"] = make_operator("J_d", bs.Jd_ext, "ext")

        d_parts = bidegree_decompose(d)
        shifts = {(p - 1, q - 1): nm for (p, q), nm in _PARTS.items()}
        bad = set(d_parts) - set(shifts)
        if bad:
            raise GeometryError(f"d has unexpected bidegree shifts {sorted(bad)}")
        zero = ExactMatrix.zeros(bs.dim)
        for shift, nm in shifts.items():
            ops[nm] = (d_parts[shift].renamed(nm) if shift in d_parts
                       else LinearOperator(nm, zero, "ext", "odd"))

        # the pure-bidegree pieces of the torsion 3-form d omega: J_d acts on
        # the (p, q) part as i(p - q)
        parts = geom.d_omega_parts
        for (p, q), xi in parts.items():
            col = bs.to_column(xi)
            if bs.Jd_ext @ col != col.scale(gq(0, p - q)):
                raise GeometryError(f"the ({p},{q}) part of d omega is not of bidegree ({p},{q})")
        if parts[(0, 3)] != parts[(3, 0)].conj():
            raise GeometryError("conjugation does not swap the pure parts of d omega")

        ops["L"] = ext_mult(geom.omega_form, "L")
        ops["Lam"] = adjoint(ops["L"]).renamed("Lam")
        for pq, nm in _PARTS.items():
            ops[f"lam_{nm}"] = ext_mult(parts[pq], f"lam_{nm}")
            ops[f"tau_{nm}"] = supercommutator(ops["Lam"], ops[f"lam_{nm}"]).renamed(f"tau_{nm}")
            ops[f"rho_{nm}"] = r_xi(parts[pq], f"rho_{nm}")
        for fam in ("tau", "rho"):
            for half, (a, b) in (("plus", ("del", "delbar")), ("minus", ("mu", "mubar"))):
                ops[f"{fam}_{half}"] = add_ops(
                    ops[f"{fam}_{a}"], ops[f"{fam}_{b}"]).renamed(f"{fam}_{half}")
        ops["lam"] = add_ops(*(ops[f"lam_{nm}"] for nm in _PARTS.values())).renamed("lam")
        ops["E_domega"] = ext_mult(geom.d_omega, "E_domega")
        if ops["lam"].matrix != ops["E_domega"].matrix:
            raise GeometryError("lambda parts do not sum to E_{d omega}")
        ops["tau"] = supercommutator(ops["Lam"], ops["lam"]).renamed("tau")
        ops["rho"] = r_xi(geom.d_omega, "rho")
        for fam, whole in (("tau", "[Lam, lam]"), ("rho", "r_{d omega}")):
            if ops[fam].matrix != add_ops(ops[f"{fam}_plus"], ops[f"{fam}_minus"]).matrix:
                raise GeometryError(f"{fam} parts do not sum to {whole}")

        ops["E_domega_plus"] = ext_mult(geom.d_omega_plus, "E_domega_plus")
        for nm, form in (("lee", geom.lee_form), ("jlee", geom.jstar_lee)):
            ops[f"E_{nm}"] = ext_mult(form, f"E_{nm}")
            ops[f"I_{nm}"] = int_mult(form, f"I_{nm}")
        ops["C_lee"] = contract_op(geom.lee_form, "C_lee")
        for a in range(1, 2 * n + 1):
            ops[f"nablaf_{a}"] = nabla_forms(geom.connection, a)

        # hard gate: tau(1) must reproduce the Lee form
        if apply_operator(ops["tau"], Multivector.unit(n)) != geom.lee_form:
            raise GeometryError("tau(1) does not equal the Lee form")
        self.ops = ops


# ---------------------------------------------------------------------------
# auxiliary catalog operators
# ---------------------------------------------------------------------------

def _two_form(m: ExactMatrix) -> Multivector:
    """sum_{a,b} m[a-1, b-1] theta^a ^ theta^b."""
    k = m - m.transpose()
    n2 = k.shape[0]
    return Multivector(n2 // 2, {(1 << a) | (1 << b): k.entry(a, b)
                                 for a in range(n2) for b in range(a + 1, n2)})


def _torsion_witnesses(geom: ModelGeometry):
    """The degree-1 torsion witnesses and frame-trace 2-forms at every X = e_a.

    With P_a[b, c] = psi(e_a, e_b, e_c) the slices of a 3-form and J the
    matrix of J on vectors, psi(e_a, JY, JZ) is J^T P_a J, psi(e_a, JY, Z)
    is J^T P_a and psi(e_a, Y, JZ) is P_a J; psi(J e_a, ., .) is the slice
    s P_j for J e_a = s e_j.  A witness sending e_b to sum_c M[b, c] e_c is
    the degree-1 operator of M^T.
    """
    n = geom.n
    st = geom.structure
    bs = blade_structure(n)
    j = bs.J_vec
    jt = j.transpose()
    full, plus, minus = (form_slices(f) for f in
                         (geom.d_omega, geom.d_omega_plus, geom.d_omega_minus))
    idx = range(1, 2 * n + 1)
    nij = tensor_slices(n, {(k, b, c): geom.nijenhuis(b, c).coeff(k)  # <e_k, N(e_b, e_c)>
                            for k in idx for b in idx for c in idx})

    def at_j(slices, a: int) -> ExactMatrix:
        ja, sa = st.pair(a)
        return slices[ja - 1].scale(sa)

    ops: dict[str, LinearOperator] = {}
    elements: dict[str, tuple[Multivector, str]] = {}

    def on_vectors(name, m, picture="cl"):
        ops[name] = make_operator(name, vector_operator(m.transpose()), picture)

    # tau_plus^c on 1-forms: alpha -> -J*lee ^ alpha + 1/2 sum_{A,B,C}
    # dw+(Je_A, e_C, Je_B) alpha(e_C) theta^A ^ theta^B
    tau = [(-geom.jstar_lee, bs.proj1)]
    for a in range(1, 2 * n + 1):
        p, pp, pm = full[a - 1], plus[a - 1], minus[a - 1]
        q, qp, qm = at_j(full, a), at_j(plus, a), at_j(minus, a)
        n4 = at_j(nij, a).scale(4)
        # 2<(nabla_X J)Y,Z> = dw(X,Y,Z) - dw(X,JY,JZ) + 4<JX,N(Y,Z)>
        on_vectors(f"kn_{a}", (p - jt @ p @ j + n4).scale(_HALF))
        # 2<J^-1(nabla_JX J)Y,Z> = dw(JX,Y,JZ) + dw(JX,JY,Z) - 4<JX,N(Y,Z)>
        on_vectors(f"kn_twist_{a}", (q @ j + jt @ q - n4).scale(_HALF))
        # sigma_flat on 1-forms: dw+(X,Y,Z) - dw+(X,JY,JZ)
        on_vectors(f"sigflat1f_{a}", torsion_block(geom, a), "ext")
        ops[f"sigmat_{a}"] = sigma_from_torsion_form(geom, a)
        # psi(X,Y,Z) - psi(JX,JY,Z) - psi(JX,Y,JZ) - psi(X,JY,JZ) for psi = dw+:
        # zero iff the mixed identity holds at X = e_a
        on_vectors(f"tf_mixed_{a}", pp - jt @ qp - qp @ j - jt @ pp @ j)
        # xi(JX,Y,Z), xi(X,JY,Z), xi(X,Y,JZ) for xi = dw-: all three agree
        on_vectors(f"tf2_lhs_{a}", qm)
        on_vectors(f"tf2_mid_{a}", jt @ pm)
        on_vectors(f"tf2_rhs_{a}", pm @ j)
        # frame trace of psi = dw+ at Z = e_a: the 2-forms of psi(e_A,Z,e_B) - psi(e_A,JZ,Je_B)
        # and of 1/2 (psi(e_A,Z,e_B) + psi(Je_A,Z,Je_B))
        elements[f"tf_b_lhs_{a}"] = (_two_form(qp @ j - pp), "ext")
        elements[f"tf_b_rhs_{a}"] = (_two_form((pp + jt @ pp @ j).scale(-_HALF)), "ext")
        tau.append((coframe(n, a), vector_operator((qp @ j).transpose().scale(_HALF))))
    ops["tauplusc_1f"] = make_operator("tauplusc_1f", multiplication_sum("E", tau), "ext")
    return ops, elements


# ---------------------------------------------------------------------------
# namespace assembly
# ---------------------------------------------------------------------------

def assemble(geom: ModelGeometry):
    """Build both zoos and the evaluation namespaces.

    Returns (ops, elements) where ops maps names to operators and
    elements maps names to (multivector, picture) pairs.
    """
    n = geom.n
    bs = blade_structure(n)
    cz = CliffordZoo(geom)
    ops = {**ExteriorZoo(geom).ops, **cz.ops}
    for picture in PICTURES:
        ops[f"Ja_{picture}_inv"] = make_operator("J_a^-1", bs.ja(picture, False)[1], picture)
        ops[f"par_{picture}"] = make_operator("par", bs.parity_sign, picture)
        ops[f"id_{picture}"] = make_operator("id", bs.identity, picture)
        ops[f"proj1_{picture}"] = make_operator("proj1", bs.proj1, picture)
    ops["star_ext"] = make_operator("star", bs.hodge, "ext")

    # multiplication operators attached to the named 3-form pieces
    xis = {f"{nm}omega": geom.d_omega_parts[pq] for pq, nm in _PARTS.items()}
    xis["domega"] = geom.d_omega
    for nm, mv in {**xis, "domega_plus": geom.d_omega_plus, "lee": geom.lee_form}.items():
        ops[f"K_{nm}"] = k_xi(mv, f"K_{nm}")
        ops[f"ELam_{nm}"] = ext_mult(apply_operator(ops["Lam"], mv), f"ELam_{nm}")
    for nm, mv in {**xis, "lee": geom.lee_form}.items():
        ops[f"Lcl_{nm}"] = clifford_left(mv, f"Lcl_{nm}")
    for nm, mv in xis.items():
        ops[f"C_{nm}"] = contract_op(mv, f"C_{nm}")
    for a in range(1, 2 * n + 1):
        ops[f"Lcl_e_{a}"] = clifford_left(frame(n, a), f"Lcl_e_{a}")

    forms = {**xis, "omega": geom.omega_form, "domega_plus": geom.d_omega_plus,
             "lee": geom.lee_form, "jstar_lee": geom.jstar_lee}
    elements = {nm: (mv, "ext") for nm, mv in forms.items()}
    elements.update(cz.elements)
    witness_ops, witness_elements = _torsion_witnesses(geom)
    ops.update(witness_ops)
    elements.update(witness_elements)
    return ops, elements
