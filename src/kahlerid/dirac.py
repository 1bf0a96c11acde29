"""Clifford-side operators on model spaces.

Everything here acts on the Clifford picture: multivectors with the
geometric product v.v = -<v,v>.  The central objects are the Dirac operator
D = sum_A L_{e_A} nabla_{e_A}, the degree-like operator H_c built from
two-sided Clifford multiplication by the fundamental 2-vector, and the
first-order correction sigma_X that measures the failure of the complex
structure to be parallel.
"""
from __future__ import annotations

from fractions import Fraction
from functools import partial

from .algebra import (
    Multivector,
    frame,
)
from .matrices import ExactMatrix, linear_combination
from .operators import (
    LazyMap,
    LinearOperator,
    apply_operator,
    blade_structure,
    conjugate,
    derivation_rebuild,
    make_operator,
    multiplication,
    multiplication_sum,
    vector_operator,
)
from .models import ModelGeometry, nabla
from .scalars import gq


def clifford_left(phi: Multivector) -> LinearOperator:
    """Left Clifford multiplication L_phi."""
    return make_operator(multiplication(phi, "L"), "cl")


def clifford_right(phi: Multivector) -> LinearOperator:
    """Right Clifford multiplication R_phi."""
    return make_operator(multiplication(phi, "R"), "cl")


def _frame_sum(kind: str, ops) -> ExactMatrix:
    """sum_A e_A @ ops[A-1], multiplying by e_A as `multiplication` does for kind."""
    n = len(ops) // 2
    return multiplication_sum(kind, [(frame(n, a), op.matrix) for a, op in enumerate(ops, 1)])


def dirac(nablas) -> LinearOperator:
    """D = sum_A L_{e_A} nabla_{e_A}, from (nabla_{e_1}, ..., nabla_{e_2n})."""
    return make_operator(_frame_sum("L", nablas), "cl")


def sigma(nablas, a: int) -> LinearOperator:
    """sigma_{e_a} = [nabla_{e_a}, J_d] + J_a^{-1} [nabla_{J e_a}, J_a].

    An even, degree-preserving operator; it vanishes identically when the
    fundamental form is closed.
    """
    bs = blade_structure(len(nablas) // 2)
    j, s = bs.structure.pair(a)
    na, nj = nablas[a - 1].matrix, nablas[j - 1].matrix
    jd = bs.Jd_cl
    # nabla_{J e_a} = s nabla_{e_j}, and J_a^{-1} (N J_a - J_a N) = N^c - N
    nj_c = nj.signed_reindex(*bs.ja_action["cl"])
    mat = linear_combination([(1, (na, jd), None), (-1, (jd, na), None),
                              (s, nj_c, None), (-s, nj, None)], na.shape)
    return make_operator(mat, "cl")


def torsion_block(geom: ModelGeometry, a: int) -> ExactMatrix:
    """B[b-1, c-1] = (d omega)^+(X, e_b, e_c) - (d omega)^+(X, J e_b, J e_c) at X = e_a."""
    p = geom.d_omega_plus_slices[a - 1]
    j = blade_structure(geom.n).J_vec
    return linear_combination([(1, p, None), (-1, (j.transpose(), p, j), None)], p.shape)


def sigma_from_torsion_form(geom: ModelGeometry, a: int) -> LinearOperator:
    """Alternative route on vectors only, extended as an even derivation:
    sigma_X(Y) = sum_B ( (d omega)^+(X, Y, e_B) - (d omega)^+(X, JY, J e_B) ) e_B.
    """
    return derivation_rebuild(make_operator(vector_operator(torsion_block(geom, a).transpose()),
                                            "cl"))


class CliffordZoo:
    """The Clifford-picture operators and elements of one model, under their
    catalog names, each built on its first read: `ops` maps names to
    operators, `elements` to (multivector, "cl") pairs."""

    def __init__(self, geom: ModelGeometry):
        n = geom.n
        bs = blade_structure(n)
        om = geom.omega_form
        idx = range(1, 2 * n + 1)
        ops = self.ops = LazyMap()
        elements = self.elements = LazyMap()

        def family(name: str) -> list[LinearOperator]:
            return [ops[f"{name}_{a}"] for a in idx]

        def sigma_at(a: int) -> LinearOperator:
            return sigma(family("nabla"), a)

        def sigma_sum(kind: str) -> LinearOperator:
            return make_operator(_frame_sum(kind, family("sigma")), "cl")

        for a in idx:
            ops.add(f"nabla_{a}", partial(nabla, geom.connection, n, a))
            ops.add(f"sigma_{a}", partial(sigma_at, a))
        ops.add("L_omega", partial(clifford_left, om))
        ops.add("R_omega", partial(clifford_right, om))
        # H_c = (1/2i)(L_omega + R_omega), the Clifford-side counterpart of
        # the degree-counting commutator on forms
        ops.add("Hc", lambda: make_operator(
            (ops["L_omega"].matrix + ops["R_omega"].matrix).scale(gq(0, Fraction(-1, 2))), "cl"))
        ops.add("D", lambda: dirac(family("nabla")))
        ops.add("Dc", lambda: conjugate(ops["D"]))
        ops.add("Jd_cl", lambda: make_operator(bs.Jd_cl, "cl"))
        ops.add("Ja_cl", partial(make_operator, bs.Ja_cl, "cl"))
        # D_sigma = sum_A L_{e_A} sigma_{e_A}, and its wedge and contraction
        # halves under e.x = e^x - e_|x, so D_sigma = ext - int
        for key, kind in (("Dsig", "L"), ("Dsig_ext", "E"), ("Dsig_int", "C")):
            ops.add(key, partial(sigma_sum, kind))
        ops.add("Dsigc", lambda: conjugate(ops["Dsig"]))

        def vector_sum():  # sum_A sigma_{e_A}(e_A)
            total = Multivector.zero(n)
            for a, op in enumerate(family("sigma"), 1):
                total = total + apply_operator(op, frame(n, a))
            return total, "cl"

        def applied(p: str, key: str):
            """(P x, "cl") for the operator P = ops[p] and the element x = elements[key]."""
            return apply_operator(ops[p], elements[key][0]), "cl"

        elements["unit"] = (Multivector.unit(n), "cl")
        elements["omega_cl"] = (om, "cl")
        elements["jstar_lee_cl"] = (geom.jstar_lee, "cl")
        elements.add("sigma_vector_sum", vector_sum)
        # P omega for P = D, D^c, D_sigma, D_sigma^c, then J_d D omega and
        # J_d D^c omega, each with its left Clifford multiplication
        for p in ("D", "Dc", "Dsig", "Dsigc"):
            key = f"{p}_omega"
            elements.add(key, partial(applied, p, "omega_cl"))
            ops.add(f"L_{key}", lambda key=key: clifford_left(elements[key][0]))
        for p in ("D", "Dc"):
            key = f"Jd_{p}_omega"
            elements.add(key, partial(applied, "Jd_cl", f"{p}_omega"))
            ops.add(f"L_{key}", lambda key=key: clifford_left(elements[key][0]))
        ops.add("L_jlee", partial(clifford_left, geom.jstar_lee))
