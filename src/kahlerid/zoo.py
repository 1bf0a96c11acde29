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
    LinearOperator,
    adjoint,
    add_ops,
    bidegree_decompose,
    bidegree_project,
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

_D_SHIFTS = {(2, -1): "mu", (1, 0): "del", (0, 1): "delbar", (-1, 2): "mubar"}

_HALF = gq("1/2")


class ExteriorZoo:
    """Exterior-picture operators for one model geometry."""

    def __init__(self, geom: ModelGeometry):
        self.geom = geom
        n = geom.n
        bs = blade_structure(n)
        om = geom.omega_form

        self.d = geom.d
        self.d_star = adjoint(self.d).renamed("d*")
        self.dc = conjugate(self.d).renamed("d^c")

        parts = bidegree_decompose(self.d)
        bad = set(parts) - set(_D_SHIFTS)
        if bad:
            raise GeometryError(f"d has unexpected bidegree shifts {sorted(bad)}")
        zero = ExactMatrix.zeros(bs.dim)

        def part(shift) -> LinearOperator:
            if shift in parts:
                return parts[shift].renamed(_D_SHIFTS[shift])
            return LinearOperator(_D_SHIFTS[shift], zero, "ext", "odd", shift)

        self.mu = part((2, -1))
        self.del_ = part((1, 0))
        self.delbar = part((0, 1))
        self.mubar = part((-1, 2))

        # pure-bidegree pieces of the torsion 3-form d omega
        def om_part(p, q):
            if p > n or q > n:
                return Multivector.zero(n)
            return bidegree_project(geom.d_omega, p, q)

        self.muomega = om_part(3, 0)
        self.delomega = om_part(2, 1)
        self.delbaromega = om_part(1, 2)
        self.mubaromega = om_part(0, 3)
        if self.delomega + self.delbaromega != geom.d_omega_plus:
            raise GeometryError("(2,1)+(1,2) parts disagree with the 3-form split")
        if self.muomega + self.mubaromega != geom.d_omega_minus:
            raise GeometryError("(3,0)+(0,3) parts disagree with the 3-form split")
        if self.mubaromega != self.muomega.conj():
            raise GeometryError("conjugation does not swap the pure parts of d omega")

        self.L = ext_mult(om, "L", (1, 1))
        self.Lam = adjoint(self.L).renamed("Lam")

        self.lam_mu = ext_mult(self.muomega, "lam_mu", (3, 0))
        self.lam_del = ext_mult(self.delomega, "lam_del", (2, 1))
        self.lam_delbar = ext_mult(self.delbaromega, "lam_delbar", (1, 2))
        self.lam_mubar = ext_mult(self.mubaromega, "lam_mubar", (0, 3))
        self.lam = add_ops(self.lam_mu, self.lam_del, self.lam_delbar,
                           self.lam_mubar).renamed("lam")
        self.E_domega = ext_mult(geom.d_omega, "E_domega")
        if self.lam.matrix != self.E_domega.matrix:
            raise GeometryError("lambda parts do not sum to E_{d omega}")

        self.tau_mu = supercommutator(self.Lam, self.lam_mu).renamed("tau_mu")
        self.tau_del = supercommutator(self.Lam, self.lam_del).renamed("tau_del")
        self.tau_delbar = supercommutator(self.Lam, self.lam_delbar).renamed("tau_delbar")
        self.tau_mubar = supercommutator(self.Lam, self.lam_mubar).renamed("tau_mubar")
        self.tau_plus = add_ops(self.tau_del, self.tau_delbar).renamed("tau_plus")
        self.tau_minus = add_ops(self.tau_mu, self.tau_mubar).renamed("tau_minus")
        self.tau = supercommutator(self.Lam, self.lam).renamed("tau")
        if self.tau.matrix != add_ops(self.tau_plus, self.tau_minus).matrix:
            raise GeometryError("tau parts do not sum to [Lam, lam]")

        self.rho_mu = r_xi(self.muomega, "rho_mu", (2, -1))
        self.rho_del = r_xi(self.delomega, "rho_del", (1, 0))
        self.rho_delbar = r_xi(self.delbaromega, "rho_delbar", (0, 1))
        self.rho_mubar = r_xi(self.mubaromega, "rho_mubar", (-1, 2))
        self.rho_plus = add_ops(self.rho_del, self.rho_delbar).renamed("rho_plus")
        self.rho_minus = add_ops(self.rho_mu, self.rho_mubar).renamed("rho_minus")
        self.rho = r_xi(geom.d_omega, "rho")
        if self.rho.matrix != add_ops(self.rho_plus, self.rho_minus).matrix:
            raise GeometryError("rho parts do not sum to r_{d omega}")

        self.E_lee = ext_mult(geom.lee_form, "E_lee")
        self.I_lee = int_mult(geom.lee_form, "I_lee")
        self.E_jlee = ext_mult(geom.jstar_lee, "E_jlee")
        self.I_jlee = int_mult(geom.jstar_lee, "I_jlee")
        self.K_domega_plus = k_xi(geom.d_omega_plus, "K_domega_plus")

        # hard gate: tau(1) must reproduce the Lee form
        tau_unit = bs.to_multivector(
            self.tau.matrix @ bs.to_column(Multivector.unit(n))
        )
        if tau_unit != geom.lee_form:
            raise GeometryError("tau(1) does not equal the Lee form")


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
    ez = ExteriorZoo(geom)

    ops: dict[str, LinearOperator] = {
        "d": ez.d,
        "d_star": ez.d_star,
        "dc": ez.dc,
        "dc_star": adjoint(ez.dc).renamed("(d^c)*"),
        "mu": ez.mu,
        "del": ez.del_,
        "delbar": ez.delbar,
        "mubar": ez.mubar,
        "L": ez.L,
        "Lam": ez.Lam,
        "lam_mu": ez.lam_mu,
        "lam_del": ez.lam_del,
        "lam_delbar": ez.lam_delbar,
        "lam_mubar": ez.lam_mubar,
        "lam": ez.lam,
        "tau_mu": ez.tau_mu,
        "tau_del": ez.tau_del,
        "tau_delbar": ez.tau_delbar,
        "tau_mubar": ez.tau_mubar,
        "tau_plus": ez.tau_plus,
        "tau_minus": ez.tau_minus,
        "tau": ez.tau,
        "rho_mu": ez.rho_mu,
        "rho_del": ez.rho_del,
        "rho_delbar": ez.rho_delbar,
        "rho_mubar": ez.rho_mubar,
        "rho_plus": ez.rho_plus,
        "rho_minus": ez.rho_minus,
        "rho": ez.rho,
        "E_domega": ez.E_domega,
        "E_domega_plus": ext_mult(geom.d_omega_plus, "E_domega_plus"),
        "E_lee": ez.E_lee,
        "I_lee": ez.I_lee,
        "E_jlee": ez.E_jlee,
        "I_jlee": ez.I_jlee,
        "C_lee": contract_op(geom.lee_form, "C_lee"),
        "K_domega_plus": ez.K_domega_plus,
        "Ja_ext": make_operator("J_a", bs.Ja_ext, "ext", (0, 0)),
        "Jd_ext": make_operator("J_d", bs.Jd_ext, "ext", (0, 0)),
        "Ja_ext_inv": make_operator("J_a^-1", bs.Ja_ext_inv, "ext", (0, 0)),
        "par_ext": make_operator("par", bs.parity_sign, "ext", (0, 0)),
        "id_ext": make_operator("id", bs.identity, "ext", (0, 0)),
        "proj1_ext": make_operator("proj1", bs.proj1, "ext", (0, 0)),
        "star_ext": make_operator("star", bs.hodge, "ext"),
        # Clifford side
        "D": cz.D,
        "Dc": cz.Dc,
        "Hc": cz.Hc,
        "L_omega": cz.L_omega,
        "R_omega": cz.R_omega,
        "Jd_cl": cz.Jd,
        "Ja_cl": cz.Ja,
        "Ja_cl_inv": make_operator("J_a^-1", bs.Ja_cl_inv, "cl", (0, 0)),
        "Dsig": cz.Dsig,
        "Dsigc": cz.Dsigc,
        "Dsig_ext": cz.Dsig_ext,
        "Dsig_int": cz.Dsig_int,
        "L_D_omega": cz.L_D_omega,
        "L_Dc_omega": cz.L_Dc_omega,
        "L_Jd_D_omega": cz.L_Jd_D_omega,
        "L_Jd_Dc_omega": cz.L_Jd_Dc_omega,
        "L_Dsig_omega": cz.L_Dsig_omega,
        "L_Dsigc_omega": cz.L_Dsigc_omega,
        "L_jlee": cz.L_jlee,
        "par_cl": make_operator("par", bs.parity_sign, "cl", (0, 0)),
        "id_cl": make_operator("id", bs.identity, "cl", (0, 0)),
        "proj1_cl": make_operator("proj1", bs.proj1, "cl", (0, 0)),
    }

    # multiplication operators attached to the named 3-form pieces
    xis = [
        ("muomega", ez.muomega),
        ("delomega", ez.delomega),
        ("delbaromega", ez.delbaromega),
        ("mubaromega", ez.mubaromega),
        ("domega", geom.d_omega),
    ]
    lam_mat = ez.Lam.matrix
    for nm, mv in xis + [("domega_plus", geom.d_omega_plus), ("lee", geom.lee_form)]:
        ops[f"K_{nm}"] = k_xi(mv, f"K_{nm}")
        lam_mv = bs.to_multivector(lam_mat @ bs.to_column(mv))
        ops[f"ELam_{nm}"] = ext_mult(lam_mv, f"ELam_{nm}")
    for nm, mv in xis + [("lee", geom.lee_form)]:
        ops[f"Lcl_{nm}"] = clifford_left(mv, f"Lcl_{nm}")
    for nm, mv in xis:
        ops[f"C_{nm}"] = contract_op(mv, f"C_{nm}")

    for a in range(1, 2 * n + 1):
        ops[f"nabla_{a}"] = cz.nablas[a - 1]
        ops[f"nablaf_{a}"] = nabla_forms(geom.model, a, geom.connection)
        ops[f"sigma_{a}"] = cz.sigmas[a - 1]
        ops[f"Lcl_e_{a}"] = clifford_left(frame(n, a), f"Lcl_e_{a}")

    elements: dict[str, tuple[Multivector, str]] = {
        "omega": (geom.omega_form, "ext"),
        "domega": (geom.d_omega, "ext"),
        "domega_plus": (geom.d_omega_plus, "ext"),
        "muomega": (ez.muomega, "ext"),
        "delomega": (ez.delomega, "ext"),
        "delbaromega": (ez.delbaromega, "ext"),
        "mubaromega": (ez.mubaromega, "ext"),
        "lee": (geom.lee_form, "ext"),
        "jstar_lee": (geom.jstar_lee, "ext"),
        "unit": (cz.unit, "cl"),
        "omega_cl": (geom.omega_clifford, "cl"),
        "D_omega": (cz.D_omega, "cl"),
        "Dc_omega": (cz.Dc_omega, "cl"),
        "Dsig_omega": (cz.Dsig_omega, "cl"),
        "Dsigc_omega": (cz.Dsigc_omega, "cl"),
        "Jd_D_omega": (cz.Jd_D_omega, "cl"),
        "Jd_Dc_omega": (cz.Jd_Dc_omega, "cl"),
        "sigma_vector_sum": (cz.sigma_vector_sum(), "cl"),
        "jstar_lee_cl": (geom.jstar_lee, "cl"),
    }
    witness_ops, witness_elements = _torsion_witnesses(geom)
    ops.update(witness_ops)
    elements.update(witness_elements)
    return ops, elements
