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

from .algebra import (
    Multivector,
    frame,
)
from .matrices import ExactMatrix
from .operators import (
    LinearOperator,
    apply_operator,
    blade_structure,
    conjugate,
    derivation_rebuild,
    form_slices,
    make_operator,
    multiplication,
    multiplication_sum,
    vector_operator,
)
from .models import ModelGeometry, nabla
from .scalars import GaussianRational, gq


def clifford_left(phi: Multivector, name: str, bidegree=None) -> LinearOperator:
    """Left Clifford multiplication L_phi."""
    return make_operator(name, multiplication(phi, "L"), "cl", bidegree)


def clifford_right(phi: Multivector, name: str, bidegree=None) -> LinearOperator:
    """Right Clifford multiplication R_phi."""
    return make_operator(name, multiplication(phi, "R"), "cl", bidegree)


def covariant_derivatives(geom: ModelGeometry) -> tuple[LinearOperator, ...]:
    """(nabla_{e_1}, ..., nabla_{e_2n}) as Clifford-picture operators."""
    m = geom.model
    return tuple(nabla(m, a, geom.connection) for a in range(1, m.dim + 1))


def _frame_sum(kind: str, ops) -> ExactMatrix:
    """sum_A e_A @ ops[A-1], multiplying by e_A as `multiplication` does for kind."""
    n = len(ops) // 2
    return multiplication_sum(kind, [(frame(n, a), op.matrix) for a, op in enumerate(ops, 1)])


def dirac(geom: ModelGeometry, nablas=None) -> LinearOperator:
    """D = sum_A L_{e_A} nabla_{e_A}."""
    return make_operator("D", _frame_sum("L", nablas or covariant_derivatives(geom)), "cl")


def hc_operator(geom: ModelGeometry) -> LinearOperator:
    """H_c = (1/2i)(L_omega + R_omega), the Clifford-side counterpart of
    the degree-counting commutator on forms."""
    om = geom.omega_clifford
    lw = clifford_left(om, "L_omega")
    rw = clifford_right(om, "R_omega")
    return make_operator("H_c", (lw.matrix + rw.matrix).scale(gq(0, Fraction(-1, 2))), "cl")


def sigma(geom: ModelGeometry, a: int, nablas=None) -> LinearOperator:
    """sigma_{e_a} = [nabla_{e_a}, J_d] + J_a^{-1} [nabla_{J e_a}, J_a].

    An even, degree-preserving operator; it vanishes identically when the
    fundamental form is closed.
    """
    n = geom.n
    nablas = nablas or covariant_derivatives(geom)
    bs = blade_structure(n)
    j, s = geom.structure.pair(a)
    na = nablas[a - 1].matrix
    nja = nablas[j - 1].matrix.scale(GaussianRational(Fraction(s)))
    jd = bs.Jd_cl
    ja = bs.Ja_cl
    part1 = (na @ jd) - (jd @ na)
    part2 = bs.Ja_cl_inv @ ((nja @ ja) - (ja @ nja))
    return make_operator(f"sigma_{a}", part1 + part2, "cl")


def torsion_block(geom: ModelGeometry, a: int) -> ExactMatrix:
    """B[b-1, c-1] = (d omega)^+(X, e_b, e_c) - (d omega)^+(X, J e_b, J e_c) at X = e_a."""
    p = form_slices(geom.d_omega_plus)[a - 1]
    j = blade_structure(geom.n).J_vec
    return p - j.transpose() @ p @ j


def sigma_from_torsion_form(geom: ModelGeometry, a: int) -> LinearOperator:
    """Alternative route on vectors only, extended as an even derivation:
    sigma_X(Y) = sum_B ( (d omega)^+(X, Y, e_B) - (d omega)^+(X, JY, J e_B) ) e_B.
    """
    name = f"sigma_torsion_{a}"
    on_vectors = make_operator(name, vector_operator(torsion_block(geom, a).transpose()), "cl")
    return derivation_rebuild(on_vectors).renamed(name)


def d_sigma(geom: ModelGeometry, sigmas=None) -> LinearOperator:
    """D_sigma = sum_A L_{e_A} sigma_{e_A}."""
    sigmas = sigmas or [sigma(geom, a) for a in range(1, 2 * geom.n + 1)]
    return make_operator("D_sigma", _frame_sum("L", sigmas), "cl")


def d_sigma_split(geom: ModelGeometry, sigmas=None) -> tuple[LinearOperator, LinearOperator]:
    """(D_sigma^ext, D_sigma^int): the wedge and contraction halves of
    D_sigma under e.x = e^x - e_|x, so D_sigma = ext - int."""
    sigmas = sigmas or [sigma(geom, a) for a in range(1, 2 * geom.n + 1)]
    return (
        make_operator("D_sigma_ext", _frame_sum("E", sigmas), "cl"),
        make_operator("D_sigma_int", _frame_sum("C", sigmas), "cl"),
    )


class CliffordZoo:
    """All Clifford-picture operators and elements for one model."""

    def __init__(self, geom: ModelGeometry):
        self.geom = geom
        n = geom.n
        bs = blade_structure(n)
        self.nablas = covariant_derivatives(geom)
        self.sigmas = tuple(sigma(geom, a, self.nablas) for a in range(1, 2 * n + 1))

        om = geom.omega_clifford
        self.L_omega = clifford_left(om, "L_omega")
        self.R_omega = clifford_right(om, "R_omega")
        self.D = dirac(geom, self.nablas)
        self.Dc = conjugate(self.D).renamed("D^c")
        self.Hc = hc_operator(geom)
        self.Jd = make_operator("J_d", bs.Jd_cl, "cl", (0, 0))
        self.Ja = make_operator("J_a", bs.Ja_cl, "cl", (0, 0))
        self.Dsig = d_sigma(geom, self.sigmas)
        self.Dsigc = conjugate(self.Dsig).renamed("D_sigma^c")
        self.Dsig_ext, self.Dsig_int = d_sigma_split(geom, self.sigmas)

        self.unit = Multivector.unit(n)
        self.omega = om
        self.D_omega = apply_operator(self.D, om)
        self.Dc_omega = apply_operator(self.Dc, om)
        self.Dsig_omega = apply_operator(self.Dsig, om)
        self.Dsigc_omega = apply_operator(self.Dsigc, om)
        self.Jd_D_omega = apply_operator(self.Jd, self.D_omega)
        self.Jd_Dc_omega = apply_operator(self.Jd, self.Dc_omega)

        self.L_D_omega = clifford_left(self.D_omega, "L_{D omega}")
        self.L_Dc_omega = clifford_left(self.Dc_omega, "L_{D^c omega}")
        self.L_Jd_D_omega = clifford_left(self.Jd_D_omega, "L_{J_d D omega}")
        self.L_Jd_Dc_omega = clifford_left(self.Jd_Dc_omega, "L_{J_d D^c omega}")
        self.L_Dsig_omega = clifford_left(self.Dsig_omega, "L_{D_sigma omega}")
        self.L_Dsigc_omega = clifford_left(self.Dsigc_omega, "L_{D_sigma^c omega}")
        self.L_jlee = clifford_left(geom.jstar_lee, "L_{(J* lee)#}")

    def sigma_vector_sum(self) -> Multivector:
        """sum_A sigma_{e_A}(e_A)."""
        n = self.geom.n
        out = Multivector.zero(n)
        for a in range(1, 2 * n + 1):
            out = out + apply_operator(self.sigmas[a - 1], frame(n, a))
        return out
