"""Exterior-side operator zoo and the shared evaluation namespace.

Per model geometry this declares the bidegree parts of d, the Lefschetz
pair (L, Lam), the multiplication families lambda / tau / rho driven
by the torsion 3-form, the Lee-form operators, and a bag of auxiliary
matrices (torsion right-hand sides, frame-trace residuals) consumed by
the identity catalog.  Each is built on its first read, so a command
holds only what it reads.  Everything is exact.
"""
from __future__ import annotations

from functools import cache, partial

from .algebra import Multivector, coframe, frame
from .dirac import CliffordZoo, clifford_left, sigma_from_torsion_form, torsion_block
from .matrices import ExactMatrix
from .models import GeometryError, ModelGeometry, nabla_forms
from .operators import (
    PICTURES,
    LazyMap,
    LinearOperator,
    add_ops,
    adjoint,
    apply_operator,
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

# the names of the part of d and of d omega keyed (p, q) in the geometry:
# mu sends omega to mu omega, the (3, 0) part of d omega, and so on
_PARTS = {(3, 0): "mu", (2, 1): "del", (1, 2): "delbar", (0, 3): "mubar"}

_HALF = gq("1/2")


class ExteriorZoo:
    """The exterior-picture operators of one model, under their catalog
    names in `ops`, each built on its first read.

    d and its four parts come from the geometry, which checks that d moves
    bidegree only by their shifts.  The gates on d omega's parts run here:
    J_d acts on each (p, q) part as i(p - q), and conjugation swaps the pure
    parts.  A gate on an operator runs in that operator's builder: `lam`
    equals E_{d omega}, `tau` and `rho` equal the sums of their plus and
    minus parts, and tau(1) is the Lee form.
    """

    def __init__(self, geom: ModelGeometry):
        n = geom.n
        bs = blade_structure(n)
        d = geom.d
        # the pure-bidegree pieces of the torsion 3-form d omega: J_d acts on
        # the (p, q) part as i(p - q)
        parts = geom.d_omega_parts
        for (p, q), xi in parts.items():
            col = bs.to_column(xi)
            if bs.Jd_ext @ col != col.scale(gq(0, p - q)):
                raise GeometryError(f"the ({p},{q}) part of d omega is not of bidegree ({p},{q})")
        if parts[(0, 3)] != parts[(3, 0)].conj():
            raise GeometryError("conjugation does not swap the pure parts of d omega")

        ops = self.ops = LazyMap()

        def from_ops(fn, name, *keys):
            """fn of the operators under keys, renamed."""
            return fn(*(ops[k] for k in keys)).renamed(name)

        ops["d"] = d
        ops.add("d_star", partial(from_ops, adjoint, "d*", "d"))
        ops.add("dc", partial(from_ops, conjugate, "d^c", "d"))
        ops.add("dc_star", partial(from_ops, adjoint, "(d^c)*", "dc"))
        ops.add("Ja_ext", partial(make_operator, "J_a", bs.Ja_ext, "ext"))
        ops.add("Jd_ext", lambda: make_operator("J_d", bs.Jd_ext, "ext"))
        for pq, nm in _PARTS.items():
            ops[nm] = geom.d_parts[pq].renamed(nm)

        def summed(op, fam, whole):
            """op, the whole of a family, once it equals its plus and minus parts' sum."""
            if op.matrix != add_ops(ops[f"{fam}_plus"], ops[f"{fam}_minus"]).matrix:
                raise GeometryError(f"{fam} parts do not sum to {whole}")
            return op

        def lam():
            op = from_ops(add_ops, "lam", *(f"lam_{nm}" for nm in _PARTS.values()))
            if op.matrix != ops["E_domega"].matrix:
                raise GeometryError("lambda parts do not sum to E_{d omega}")
            return op

        def tau():
            op = summed(from_ops(supercommutator, "tau", "Lam", "lam"), "tau", "[Lam, lam]")
            if apply_operator(op, Multivector.unit(n)) != geom.lee_form:
                raise GeometryError("tau(1) does not equal the Lee form")
            return op

        ops.add("L", partial(ext_mult, geom.omega_form, "L"))
        ops.add("Lam", partial(from_ops, adjoint, "Lam", "L"))
        for pq, nm in _PARTS.items():
            ops.add(f"lam_{nm}", partial(ext_mult, parts[pq], f"lam_{nm}"))
            ops.add(f"tau_{nm}", partial(from_ops, supercommutator, f"tau_{nm}", "Lam", f"lam_{nm}"))
            ops.add(f"rho_{nm}", partial(r_xi, parts[pq], f"rho_{nm}"))
        for fam in ("tau", "rho"):
            for half, (a, b) in (("plus", ("del", "delbar")), ("minus", ("mu", "mubar"))):
                ops.add(f"{fam}_{half}",
                        partial(from_ops, add_ops, f"{fam}_{half}", f"{fam}_{a}", f"{fam}_{b}"))
        ops.add("lam", lam)
        ops.add("E_domega", partial(ext_mult, geom.d_omega, "E_domega"))
        ops.add("tau", tau)
        ops.add("rho", lambda: summed(r_xi(geom.d_omega, "rho"), "rho", "r_{d omega}"))

        ops.add("E_domega_plus", partial(ext_mult, geom.d_omega_plus, "E_domega_plus"))
        for nm, form in (("lee", geom.lee_form), ("jlee", geom.jstar_lee)):
            ops.add(f"E_{nm}", partial(ext_mult, form, f"E_{nm}"))
            ops.add(f"I_{nm}", partial(int_mult, form, f"I_{nm}"))
        ops.add("C_lee", partial(contract_op, geom.lee_form, "C_lee"))
        for a in range(1, 2 * n + 1):
            ops.add(f"nablaf_{a}", partial(nabla_forms, geom.connection, n, a))


# ---------------------------------------------------------------------------
# auxiliary catalog operators
# ---------------------------------------------------------------------------

def _two_form(m: ExactMatrix) -> Multivector:
    """sum_{a,b} m[a-1, b-1] theta^a ^ theta^b."""
    k = m - m.transpose()
    n2 = k.shape[0]
    return Multivector(n2 // 2, {(1 << a) | (1 << b): k.entry(a, b)
                                 for a in range(n2) for b in range(a + 1, n2)})


def _torsion_witnesses(geom: ModelGeometry, ops: LazyMap, elements: LazyMap) -> None:
    """Declare the degree-1 torsion witnesses and frame-trace 2-forms at every
    X = e_a in ops and elements.

    With P_a[b, c] = psi(e_a, e_b, e_c) the slices of a 3-form and J the
    matrix of J on vectors, psi(e_a, JY, JZ) is J^T P_a J, psi(e_a, JY, Z)
    is J^T P_a and psi(e_a, Y, JZ) is P_a J; psi(J e_a, ., .) is the slice
    s P_j for J e_a = s e_j.  A witness sending e_b to sum_c M[b, c] e_c is
    the degree-1 operator of M^T.  The slices are taken once, on the first
    read of any witness, and the blocks at e_a on the first read of one at a.
    """
    n = geom.n
    st = geom.structure
    bs = blade_structure(n)
    j = bs.J_vec
    jt = j.transpose()
    idx = range(1, 2 * n + 1)

    @cache
    def tensors():
        """The slices of d omega and of its two halves, and of <e_k, N(e_b, e_c)>."""
        nij = tensor_slices(n, {(k, b, c): gq(v) for (b, c), row in geom.nijenhuis.items()
                                for k, v in row.items()})
        return [form_slices(geom.d_omega), geom.d_omega_plus_slices,
                form_slices(geom.d_omega_minus), nij]

    @cache
    def slices(a: int):
        """(P, P+, P-) at e_a and at J e_a, and the Nijenhuis slice <J e_a, N(., .)>."""
        *forms, nij = tensors()
        ja, sa = st.pair(a)
        return ([f[a - 1] for f in forms] + [f[ja - 1].scale(sa) for f in forms]
                + [nij[ja - 1].scale(sa)])

    @cache
    def blocks(a: int) -> dict:
        """(M, picture) of every witness at X = e_a."""
        p, pp, pm, q, qp, qm, nij = slices(a)
        n4 = nij.scale(4)
        return {
            # 2<(nabla_X J)Y,Z> = dw(X,Y,Z) - dw(X,JY,JZ) + 4<JX,N(Y,Z)>
            f"kn_{a}": ((p - jt @ p @ j + n4).scale(_HALF), "cl"),
            # 2<J^-1(nabla_JX J)Y,Z> = dw(JX,Y,JZ) + dw(JX,JY,Z) - 4<JX,N(Y,Z)>
            f"kn_twist_{a}": ((q @ j + jt @ q - n4).scale(_HALF), "cl"),
            # sigma_flat on 1-forms: dw+(X,Y,Z) - dw+(X,JY,JZ)
            f"sigflat1f_{a}": (torsion_block(geom, a), "ext"),
            # psi(X,Y,Z) - psi(JX,JY,Z) - psi(JX,Y,JZ) - psi(X,JY,JZ) for psi = dw+:
            # zero iff the mixed identity holds at X = e_a
            f"tf_mixed_{a}": (pp - jt @ qp - qp @ j - jt @ pp @ j, "cl"),
            # xi(JX,Y,Z), xi(X,JY,Z), xi(X,Y,JZ) for xi = dw-: all three agree
            f"tf2_lhs_{a}": (qm, "cl"),
            f"tf2_mid_{a}": (jt @ pm, "cl"),
            f"tf2_rhs_{a}": (pm @ j, "cl"),
        }

    def witness(a: int, name: str) -> LinearOperator:
        m, picture = blocks(a)[name]
        return make_operator(name, vector_operator(m.transpose()), picture)

    # frame trace of psi = dw+ at Z = e_a: the 2-forms of psi(e_A,Z,e_B) - psi(e_A,JZ,Je_B)
    # and of 1/2 (psi(e_A,Z,e_B) + psi(Je_A,Z,Je_B))
    def trace_lhs(a: int):
        _, pp, _, _, qp, _, _ = slices(a)
        return _two_form(qp @ j - pp), "ext"

    def trace_rhs(a: int):
        pp = slices(a)[1]
        return _two_form((pp + jt @ pp @ j).scale(-_HALF)), "ext"

    # tau_plus^c on 1-forms: alpha -> -J*lee ^ alpha + 1/2 sum_{A,B,C}
    # dw+(Je_A, e_C, Je_B) alpha(e_C) theta^A ^ theta^B
    def tauplusc():
        tau = [(-geom.jstar_lee, bs.proj1)]
        tau += [(coframe(n, a), vector_operator((slices(a)[4] @ j).transpose().scale(_HALF)))
                for a in idx]
        return make_operator("tauplusc_1f", multiplication_sum("E", tau), "ext")

    for a in idx:
        for name in ("kn", "kn_twist", "sigflat1f", "tf_mixed", "tf2_lhs", "tf2_mid", "tf2_rhs"):
            ops.add(f"{name}_{a}", partial(witness, a, f"{name}_{a}"))
        ops.add(f"sigmat_{a}", partial(sigma_from_torsion_form, geom, a))
        elements.add(f"tf_b_lhs_{a}", partial(trace_lhs, a))
        elements.add(f"tf_b_rhs_{a}", partial(trace_rhs, a))
    ops.add("tauplusc_1f", tauplusc)


# ---------------------------------------------------------------------------
# namespace assembly
# ---------------------------------------------------------------------------

def assemble(geom: ModelGeometry):
    """Both zoos and the evaluation namespaces, every entry built on its
    first read.

    Returns (ops, elements), two `LazyMap`s: ops maps names to operators
    and elements maps names to (multivector, picture) pairs.
    """
    n = geom.n
    bs = blade_structure(n)
    cz = CliffordZoo(geom)
    ops = LazyMap(ExteriorZoo(geom).ops, cz.ops)
    for picture in PICTURES:
        ops.add(f"Ja_{picture}_inv",
                partial(make_operator, "J_a^-1", getattr(bs, f"Ja_{picture}_inv"), picture))
        ops.add(f"par_{picture}", partial(make_operator, "par", bs.parity_sign, picture))
        ops.add(f"id_{picture}", partial(make_operator, "id", bs.identity, picture))
        ops.add(f"proj1_{picture}", partial(make_operator, "proj1", bs.proj1, picture))
    ops.add("star_ext", partial(make_operator, "star", bs.hodge, "ext"))

    def lam_mult(mv, name):
        return ext_mult(apply_operator(ops["Lam"], mv), name)

    # multiplication operators attached to the named 3-form pieces
    xis = {f"{nm}omega": geom.d_omega_parts[pq] for pq, nm in _PARTS.items()}
    xis["domega"] = geom.d_omega
    for nm, mv in {**xis, "domega_plus": geom.d_omega_plus, "lee": geom.lee_form}.items():
        ops.add(f"K_{nm}", partial(k_xi, mv, f"K_{nm}"))
        ops.add(f"ELam_{nm}", partial(lam_mult, mv, f"ELam_{nm}"))
    for nm, mv in {**xis, "lee": geom.lee_form}.items():
        ops.add(f"Lcl_{nm}", partial(clifford_left, mv, f"Lcl_{nm}"))
    for nm, mv in xis.items():
        ops.add(f"C_{nm}", partial(contract_op, mv, f"C_{nm}"))
    for a in range(1, 2 * n + 1):
        ops.add(f"Lcl_e_{a}", partial(clifford_left, frame(n, a), f"Lcl_e_{a}"))

    forms = {**xis, "omega": geom.omega_form, "domega_plus": geom.d_omega_plus,
             "lee": geom.lee_form, "jstar_lee": geom.jstar_lee}
    elements = LazyMap(cz.elements)
    for nm, mv in forms.items():
        elements[nm] = (mv, "ext")
    _torsion_witnesses(geom, ops, elements)
    return ops, elements
