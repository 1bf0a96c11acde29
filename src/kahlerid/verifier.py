"""Identity catalog and verification engine.

Identities are stored as expression trees over named zoo operators and
elements.  A Workspace evaluates them on one model, exactly (Gaussian
rational matrices) or in float64 parts; a Report collects residuals plus
vacuity information.  The commutator and bidegree tables are emitted
from the same expression data, with cells recovered by exact linear
solves over the operator span.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields
from fractions import Fraction

from .matrices import (
    ExactMatrix,
    FloatMatrix,
    FrobeniusColumns,
    frobenius_norms,
    solve_exact,
)
from .algebra import AdaptedStructure
from .jsontext import json_text
from .models import LieModel, geometry
from .operators import (
    LinearOperator,
    StructuralError,
    add_ops,
    adjoint,
    bar,
    blade_structure,
    compose,
    conjugate,
    derivation_rebuild,
    measured_bidegree,
    scale_op,
    supercommutator,
    transport,
)
from .scalars import ZERO, GaussianRational, I, ONE, gq, i_power
from .zoo import assemble

# ---------------------------------------------------------------------------
# expression trees
# ---------------------------------------------------------------------------

# Every node is interned: building a node twice with equal fields returns the
# same object, so `==` and `hash` are identity and each memo or plan lookup
# hashes two pointers, not a tree.  The table lives as long as the process,
# as does every catalog tree it holds (`catalog` is cached).
_INTERNED: dict[tuple, "Expr"] = {}


class Expr:
    """An immutable, interned expression node, built from positional fields."""

    __slots__ = ()

    def __new__(cls, *args):
        key = (cls, *args)
        node = _INTERNED.get(key)
        if node is None:
            names = [f.name for f in fields(cls)]
            if len(args) != len(names):
                raise TypeError(f"{cls.__name__} takes {len(names)} fields, got {len(args)}")
            node = object.__new__(cls)
            for name, value in zip(names, args):
                object.__setattr__(node, name, value)
            node = _INTERNED.setdefault(key, node)
        return node

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through __new__: the interned node
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


# frozen fields, identity equality, construction by Expr.__new__ alone
_node = dataclass(frozen=True, eq=False, init=False)


@_node
class Op(Expr):
    name: str


@_node
class El(Expr):
    name: str


@_node
class SCom(Expr):
    a: Expr
    b: Expr


@_node
class Comp(Expr):
    a: Expr
    b: Expr


@_node
class Add(Expr):
    terms: tuple


@_node
class Scale(Expr):
    c: GaussianRational
    a: Expr


@_node
class Adj(Expr):
    a: Expr


@_node
class Conj(Expr):
    a: Expr


@_node
class Bar(Expr):
    a: Expr


@_node
class Transport(Expr):
    a: Expr


@_node
class Apply(Expr):
    op: Expr
    el: Expr


@_node
class Rebuild(Expr):
    a: Expr


@_node
class ZeroOp(Expr):
    picture: str


@_node
class ZeroEl(Expr):
    picture: str


def add(*terms: Expr) -> Expr:
    return Add(tuple(terms))


def S(c, x: Expr) -> Expr:
    if not isinstance(c, GaussianRational):
        c = GaussianRational(c)
    return Scale(c, x)


def neg(x: Expr) -> Expr:
    return S(-1, x)


@dataclass(frozen=True)
class ElementValue:
    matrix: object  # dim x 1 column, ExactMatrix or FloatMatrix
    picture: str


# ---------------------------------------------------------------------------
# catalog entries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityEntry:
    id: str
    group: str
    statement: str
    kind: str  # "operator" | "element" | "bidegree"
    lhs: Expr
    rhs: Expr | None = None
    cell: tuple[int, int] | None = None
    guards: tuple[str, ...] | None = None  # None -> exercised iff a side is nonzero
    condition: str | None = None  # "almost_kahler" restricts to d omega = 0


GROUP_SUITE = {
    "elementary": "elementary",
    "clifford": "clifford",
    "exterior": "exterior",
    "main": "exterior",
    "corollary": "exterior",
    "almost-kahler": "exterior",
    "commutator-table": "tables",
    "bidegree-table": "tables",
}

SUITES = ("all", "elementary", "clifford", "exterior", "tables")


def _add_entry(out, prefix, group, eid, stmt, lhs, rhs, kind="operator", guards=None, cell=None):
    """Append to out the entry prefix.eid of group: each group's builder
    binds out, prefix and group once and adds its entries through it."""
    out.append(IdentityEntry(f"{prefix}.{eid}", group, stmt, kind, lhs, rhs, cell=cell,
                             guards=guards))


# -- group 1: elementary properties of J, the musicals, and conjugation -----

_PC_SCALAR = [
    ("mu", (2, -1)),
    ("del", (1, 0)),
    ("delbar", (0, 1)),
    ("mubar", (-1, 2)),
    ("L", (1, 1)),
    ("Lam", (-1, -1)),
    ("lam_mu", (3, 0)),
    ("lam_del", (2, 1)),
    ("lam_delbar", (1, 2)),
    ("lam_mubar", (0, 3)),
    ("tau_mu", (2, -1)),
    ("tau_del", (1, 0)),
    ("tau_delbar", (0, 1)),
    ("tau_mubar", (-1, 2)),
    ("rho_mu", (2, -1)),
    ("rho_del", (1, 0)),
    ("rho_delbar", (0, 1)),
    ("rho_mubar", (-1, 2)),
]


def _group_elementary(n: int) -> list[IdentityEntry]:
    out = []
    ent = functools.partial(_add_entry, out, "el", "elementary")

    ent("jd_transport", "flat . J_d . sharp = -J_d* (same matrix, both pictures)",
        Transport(Op("Jd_cl")), neg(Op("Jd_ext")), guards=())
    ent("ja_transport", "flat . J_a . sharp = (-1)^k J_a*",
        Transport(Op("Ja_cl")), Comp(Op("Ja_ext"), Op("par_ext")), guards=())
    ent("jast_adjoint_ext", "(J_a*)* = (-1)^k J_a* on forms",
        Adj(Op("Ja_ext")), Comp(Op("Ja_ext"), Op("par_ext")), guards=())
    ent("jast_adjoint_cl", "J_a adjoint rule in the Clifford picture",
        Adj(Op("Ja_cl")), Comp(Op("Ja_cl"), Op("par_cl")), guards=())
    ent("jdst_adjoint_ext", "(J_d*)* = -J_d* on forms",
        Adj(Op("Jd_ext")), neg(Op("Jd_ext")), guards=())
    ent("jdst_adjoint_cl", "J_d adjoint rule in the Clifford picture",
        Adj(Op("Jd_cl")), neg(Op("Jd_cl")), guards=())
    ent("jast_inverse_ext", "(J_a*)^-1 = (-1)^k J_a* on forms",
        Comp(Op("Ja_ext"), Comp(Op("Ja_ext"), Op("par_ext"))), Op("id_ext"), guards=())
    ent("jast_inverse_cl", "J_a inverse rule in the Clifford picture",
        Comp(Op("Ja_cl"), Comp(Op("Ja_cl"), Op("par_cl"))), Op("id_cl"), guards=())
    ent("pc_adjoint_commute.d", "(d^c)* = (d*)^c",
        Adj(Conj(Op("d"))), Conj(Adj(Op("d"))), guards=())
    ent("pc_adjoint_commute.D", "(D^c)* = (D*)^c",
        Adj(Conj(Op("D"))), Conj(Adj(Op("D"))), guards=())
    ent("pc_involution.d", "(P^c)^c = -P for odd P (P = d)",
        Conj(Conj(Op("d"))), neg(Op("d")), guards=())
    ent("pc_involution.D", "(P^c)^c = -P for odd P (P = D)",
        Conj(Conj(Op("D"))), neg(Op("D")), guards=())
    ent("pc_involution.L", "(P^c)^c = P for even P (P = L)",
        Conj(Conj(Op("L"))), Op("L"), guards=())
    ent("pc_involution.Hc", "(P^c)^c = P for even P (P = H_c)",
        Conj(Conj(Op("Hc"))), Op("Hc"), guards=())
    ent("flat_pc.D", "flat . P^c . sharp = -(flat . P . sharp)^c for odd P (P = D)",
        Transport(Conj(Op("D"))), neg(Conj(Transport(Op("D")))), guards=())
    ent("flat_pc.Hc", "flat . P^c . sharp = (flat . P . sharp)^c for even P (P = H_c)",
        Transport(Conj(Op("Hc"))), Conj(Transport(Op("Hc"))), guards=())
    for nm, (p, q) in _PC_SCALAR:
        ent(f"pc_scalar.{nm}", f"{nm}^c = i^({q}-{p}) {nm} (pure bidegree ({p},{q}))",
            Conj(Op(nm)), S(i_power(q - p), Op(nm)), guards=(nm,))
    for nm, (p, q) in _PC_SCALAR[:4]:
        ent(f"pc_scalar.{nm}_star", f"{nm}*^c = i^({-p}-{-q}) {nm}* (pure bidegree ({-p},{-q}))",
            Conj(Adj(Op(nm))), S(i_power(p - q), Adj(Op(nm))), guards=(nm,))
    ent("jd_omega_ext", "J_d* omega = 0", Apply(Op("Jd_ext"), El("omega")),
        ZeroEl("ext"), kind="element", guards=())
    ent("ja_omega_ext", "J_a* omega = omega", Apply(Op("Ja_ext"), El("omega")),
        El("omega"), kind="element", guards=())
    ent("jd_omega_cl", "J_d omega = 0 (Clifford picture)", Apply(Op("Jd_cl"), El("omega_cl")),
        ZeroEl("cl"), kind="element", guards=())
    ent("ja_omega_cl", "J_a omega = omega (Clifford picture)", Apply(Op("Ja_cl"), El("omega_cl")),
        El("omega_cl"), kind="element", guards=())
    ent("jd_lr", "J_d = (L_omega - R_omega)/2",
        Op("Jd_cl"), S("1/2", add(Op("L_omega"), neg(Op("R_omega")))), guards=())
    ent("hc_def", "H_c = i J_d - i L_omega",
        Op("Hc"), add(S(I, Op("Jd_cl")), S(-I, Op("L_omega"))), guards=())
    ent("hc_jd_commute", "[H_c, J_d] = 0",
        SCom(Op("Hc"), Op("Jd_cl")), ZeroOp("cl"), guards=())
    ent("hc_conj", "H_c^c = H_c", Conj(Op("Hc")), Op("Hc"), guards=())
    ent("jd_conj", "J_d^c = J_d", Conj(Op("Jd_cl")), Op("Jd_cl"), guards=())
    ent("d_squared", "d^2 = 0", Comp(Op("d"), Op("d")), ZeroOp("ext"), guards=())
    ent("dstar_squared", "(d*)^2 = 0", Comp(Op("d_star"), Op("d_star")), ZeroOp("ext"), guards=())
    ent("codifferential", "d* = -star . d . star (unimodular model)",
        Adj(Op("d")), neg(Comp(Op("star_ext"), Comp(Op("d"), Op("star_ext")))), guards=("d",))
    for a in range(1, 2 * n + 1):
        twist = Comp(Op("Ja_cl_inv"), SCom(Op(f"nabla_{a}"), Op("Ja_cl")))
        ent(f"nabla_deriv.{a}", f"nabla_{a} is a degree-0 derivation",
            Rebuild(Op(f"nabla_{a}")), Op(f"nabla_{a}"), guards=(f"nabla_{a}",))
        ent(f"nabla_musical.{a}", f"flat . nabla_{a} . sharp = nabla_{a} on forms",
            Transport(Op(f"nabla_{a}")), Op(f"nablaf_{a}"), guards=())
        ent(f"nabla_jd_deriv.{a}", f"nabla_{a} J_d is a degree-0 derivation",
            Rebuild(SCom(Op(f"nabla_{a}"), Op("Jd_cl"))),
            SCom(Op(f"nabla_{a}"), Op("Jd_cl")), guards=None)
        ent(f"nabla_jd_skew.{a}", f"nabla_{a} J_d is anti-self-adjoint",
            Adj(SCom(Op(f"nabla_{a}"), Op("Jd_cl"))),
            neg(SCom(Op(f"nabla_{a}"), Op("Jd_cl"))), guards=None)
        ent(f"twist_deriv.{a}", f"J_a^-1 (nabla_{a} J_a) is a degree-0 derivation",
            Rebuild(twist), twist, guards=None)
        ent(f"twist_skew.{a}", f"J_a^-1 (nabla_{a} J_a) is anti-self-adjoint",
            Adj(twist), neg(twist), guards=None)
        ent(f"ja_nabla_omega.{a}", f"J_a nabla_{a} omega = -nabla_{a} omega",
            Apply(Op("Ja_cl"), Apply(Op(f"nabla_{a}"), El("omega_cl"))),
            neg(Apply(Op(f"nabla_{a}"), El("omega_cl"))), kind="element", guards=None)
        ent(f"jastar_nabla_omega.{a}", f"J_a* nabla_{a} omega = -nabla_{a} omega (forms)",
            Apply(Op("Ja_ext"), Apply(Op(f"nablaf_{a}"), El("omega"))),
            neg(Apply(Op(f"nablaf_{a}"), El("omega"))), kind="element", guards=None)
    return out


# -- group 2: Clifford picture ----------------------------------------------

def _group_clifford(n: int) -> list[IdentityEntry]:
    out = []
    ent = functools.partial(_add_entry, out, "cl", "clifford")

    dds = add(Op("d"), Op("d_star"))
    laml = add(Op("Lam"), neg(Op("L")))
    ent("transport_D", "flat . D . sharp = d + d*", Transport(Op("D")), dds, guards=())
    ent("transport_Hc", "flat . H_c . sharp = i(Lam - L)",
        Transport(Op("Hc")), S(I, laml), guards=())
    ent("transport_Dc", "flat . D^c . sharp = -(d^c + (d^c)*)",
        Transport(Op("Dc")), neg(add(Op("dc"), Op("dc_star"))), guards=())
    ent("transport_DHc", "flat . [D,H_c] . sharp = i[d + d*, Lam - L]",
        Transport(SCom(Op("D"), Op("Hc"))), S(I, SCom(dds, laml)), guards=None)
    ent("master", "[D,H_c] = -i D^c + i D_sigma - i L_{D omega}",
        SCom(Op("D"), Op("Hc")),
        add(S(-I, Op("Dc")), S(I, Op("Dsig")), S(-I, Op("L_D_omega"))), guards=())
    terms = []
    for a in range(1, 2 * n + 1):
        j, s = AdaptedStructure(n).pair(a)
        sig = add(
            SCom(Op(f"nabla_{a}"), Op("Jd_cl")),
            Comp(Op("Ja_cl_inv"), SCom(S(s, Op(f"nabla_{j}")), Op("Ja_cl"))),
        )
        terms.append(Comp(Op(f"Lcl_e_{a}"), sig))
    ent("d_hc_expanded",
        "[D,H_c] = -i D^c - i L_{D omega} + i sum_A e_A . (nabla_A J_d + J_a^-1 nabla_{JA} J_a)",
        SCom(Op("D"), Op("Hc")),
        add(S(-I, Op("Dc")), S(-I, Op("L_D_omega")), S(I, Add(tuple(terms)))), guards=())
    ent("dsig_split", "D_sigma = D_sigma^wedge - D_sigma^contract",
        Op("Dsig"), add(Op("Dsig_ext"), neg(Op("Dsig_int"))), guards=None)
    ent("dsig_adjoint", "D_sigma* = D_sigma - 2 L_{(J* lee)#}",
        Adj(Op("Dsig")), add(Op("Dsig"), S(-2, Op("L_jlee"))), guards=None)
    ent("ldomega_adjoint", "L_{D omega}* = L_{D omega} - 2 L_{(J* lee)#}",
        Adj(Op("L_D_omega")), add(Op("L_D_omega"), S(-2, Op("L_jlee"))), guards=None)
    ent("dstar_omega", "d* omega = J* lee",
        Apply(Op("d_star"), El("omega")), El("jstar_lee"), kind="element", guards=None)
    ent("hc_unit", "H_c(1) = -i omega",
        Apply(Op("Hc"), El("unit")), S(-I, El("omega_cl")), kind="element", guards=())
    ent("sigma_trace", "sum_A sigma_{e_A}(e_A) = -2 (J* lee)#",
        El("sigma_vector_sum"), S(-2, El("jstar_lee_cl")), kind="element",
        guards=("jstar_lee",))
    # ten-part commutation lemma for D_sigma and L_{D omega}
    X = add(Op("Dsig"), neg(Op("L_D_omega")))
    Xc = add(Op("Dsigc"), neg(Op("L_Dc_omega")))
    ent("lemma.a", "(L_{D omega})^c = L_{D^c omega}",
        Conj(Op("L_D_omega")), Op("L_Dc_omega"), guards=None)
    ent("lemma.b", "[L_{D omega}, H_c] = i L_{J_d D omega}",
        SCom(Op("L_D_omega"), Op("Hc")), S(I, Op("L_Jd_D_omega")), guards=None)
    ent("lemma.b_conj", "[L_{D^c omega}, H_c] = i L_{J_d D^c omega}",
        SCom(Op("L_Dc_omega"), Op("Hc")), S(I, Op("L_Jd_Dc_omega")), guards=None)
    ent("lemma.c", "D_sigma omega = -J_d D omega + 3 D^c omega",
        El("Dsig_omega"), add(neg(El("Jd_D_omega")), S(3, El("Dc_omega"))),
        kind="element", guards=None)
    ent("lemma.c_conj", "D_sigma^c omega = -J_d D^c omega - 3 D omega",
        El("Dsigc_omega"), add(neg(El("Jd_Dc_omega")), S(-3, El("D_omega"))),
        kind="element", guards=None)
    ent("lemma.d", "[D_sigma, J_d] = D_sigma^c",
        SCom(Op("Dsig"), Op("Jd_cl")), Op("Dsigc"), guards=None)
    ent("lemma.e", "[D_sigma^c, J_d] = -D_sigma",
        SCom(Op("Dsigc"), Op("Jd_cl")), neg(Op("Dsig")), guards=None)
    ent("lemma.f", "[D_sigma, H_c] = i(3 D_sigma^c - L_{D_sigma omega})",
        SCom(Op("Dsig"), Op("Hc")),
        S(I, add(S(3, Op("Dsigc")), neg(Op("L_Dsig_omega")))), guards=None)
    ent("lemma.g", "[D_sigma^c, H_c] = -i(3 D_sigma + L_{D_sigma^c omega})",
        SCom(Op("Dsigc"), Op("Hc")),
        S(-I, add(S(3, Op("Dsig")), Op("L_Dsigc_omega"))), guards=None)
    ent("lemma.h", "[D_sigma - L_{D omega}, H_c] = 3i(D_sigma^c - L_{D^c omega})",
        SCom(X, Op("Hc")), S(gq(0, 3), Xc), guards=None)
    ent("lemma.i", "[D_sigma^c - L_{D^c omega}, H_c] = -3i(D_sigma - L_{D omega})",
        SCom(Xc, Op("Hc")), S(gq(0, -3), X), guards=None)
    ent("lemma.j", "D_sigma - L_{D omega} is self-adjoint", Adj(X), X, guards=None)
    ent("lemma.j_conj", "D_sigma^c - L_{D^c omega} is self-adjoint", Adj(Xc), Xc, guards=None)
    # per-direction sigma properties
    for a in range(1, 2 * n + 1):
        j, s = AdaptedStructure(n).pair(a)
        sig = Op(f"sigma_{a}")
        p1 = Op("proj1_cl")

        def sand(x):
            return Comp(p1, Comp(x, p1))

        ent(f"sigma_deriv.{a}", f"sigma_{a} is a degree-0 derivation",
            Rebuild(sig), sig, guards=(f"sigma_{a}",))
        ent(f"sigma_skew.{a}", f"sigma_{a} is anti-self-adjoint",
            Adj(sig), neg(sig), guards=None)
        ent(f"sigma_conj.{a}", f"(sigma_X)^c = -sigma_X at X = e_{a}",
            Conj(sig), neg(sig), guards=None)
        ent(f"sigma_jswap.{a}", f"sigma_(J e_{a}) = J sigma_(e_{a}) on vectors",
            sand(S(s, Op(f"sigma_{j}"))), sand(Comp(Op("Jd_cl"), sig)), guards=None)
        ent(f"sigma_jswap2.{a}", f"J sigma_(e_{a}) = -sigma_(e_{a}) J on vectors",
            sand(Comp(Op("Jd_cl"), sig)), neg(sand(Comp(sig, Op("Jd_cl")))), guards=None)
        ent(f"sigma_torsion.{a}",
            f"sigma_{a}(Y) = sum_B (dw+(X,Y,e_B) - dw+(X,JY,Je_B)) e_B, extended",
            sig, Op(f"sigmat_{a}"), guards=None)
        ent(f"sigma_flat.{a}",
            f"sigma_flat at e_{a} = -nabla J_d* + J_a*^-1 nabla_J J_a* on forms",
            Transport(sig),
            add(neg(SCom(Op(f"nablaf_{a}"), Op("Jd_ext"))),
                Comp(Op("Ja_ext_inv"), SCom(S(s, Op(f"nablaf_{j}")), Op("Ja_ext")))),
            guards=None)
        ent(f"sigma_oneform.{a}", f"sigma_flat at e_{a} on 1-forms, torsion coefficients",
            Comp(Transport(sig), Op("proj1_ext")), Op(f"sigflat1f_{a}"), guards=None)
        ent(f"sigma_jd.{a}", f"[sigma_X, J_d] = -2 sigma_(JX) at X = e_{a}",
            SCom(sig, Op("Jd_cl")), S(-2 * s, Op(f"sigma_{j}")), guards=None)
        ent(f"kn.{a}", f"2<(nabla_X J)Y,Z> = dw(X,Y,Z) - dw(X,JY,JZ) + 4<JX,N(Y,Z)> at X = e_{a}",
            sand(SCom(Op(f"nabla_{a}"), Op("Jd_cl"))), Op(f"kn_{a}"), guards=None)
        ent(f"kn_twisted.{a}",
            f"2<J^-1(nabla_JX J)Y,Z> = dw(JX,Y,JZ) + dw(JX,JY,Z) - 4<JX,N(Y,Z)> at X = e_{a}",
            sand(Comp(Op("Ja_cl_inv"), SCom(S(s, Op(f"nabla_{j}")), Op("Ja_cl")))),
            Op(f"kn_twist_{a}"), guards=None)
        ent(f"threeform_mixed.{a}",
            f"psi(X,Y,Z) = psi(JX,JY,Z) + psi(JX,Y,JZ) + psi(X,JY,JZ) for psi = dw+, X = e_{a}",
            Op(f"tf_mixed_{a}"), ZeroOp("cl"), guards=None)
        ent(f"threeform_pure1.{a}",
            f"xi(JX,Y,Z) = xi(X,JY,Z) for xi = dw-, X = e_{a}",
            Op(f"tf2_lhs_{a}"), Op(f"tf2_mid_{a}"), guards=None)
        ent(f"threeform_pure2.{a}",
            f"xi(JX,Y,Z) = xi(X,Y,JZ) for xi = dw-, X = e_{a}",
            Op(f"tf2_lhs_{a}"), Op(f"tf2_rhs_{a}"), guards=None)
        ent(f"threeform_trace.{a}",
            f"frame trace of dw+ against J at Z = e_{a} halves evenly",
            El(f"tf_b_lhs_{a}"), El(f"tf_b_rhs_{a}"), kind="element", guards=None)
    return out


# -- group 3: exterior picture ----------------------------------------------

_XI_NAMES = ("muomega", "delomega", "delbaromega", "mubaromega", "domega")
_XI_EMULT = {
    "muomega": "lam_mu",
    "delomega": "lam_del",
    "delbaromega": "lam_delbar",
    "mubaromega": "lam_mubar",
    "domega": "E_domega",
    "domega_plus": "E_domega_plus",
    "lee": "E_lee",
}
_XI_CONJ = {
    "muomega": "mubaromega",
    "delomega": "delbaromega",
    "delbaromega": "delomega",
    "mubaromega": "muomega",
    "domega": "domega",
}


def _group_exterior(n: int) -> list[IdentityEntry]:
    out = []
    ent = functools.partial(_add_entry, out, "ex", "exterior")

    ent("d_decomposition", "d = mu + del + delbar + mubar",
        Op("d"), add(Op("mu"), Op("del"), Op("delbar"), Op("mubar")), guards=None)
    ent("lam_decomposition", "lam = lam_mu + lam_del + lam_delbar + lam_mubar",
        Op("lam"), add(Op("lam_mu"), Op("lam_del"), Op("lam_delbar"), Op("lam_mubar")),
        guards=None)
    ent("tau_decomposition", "tau = tau_mu + tau_del + tau_delbar + tau_mubar",
        Op("tau"), add(Op("tau_mu"), Op("tau_del"), Op("tau_delbar"), Op("tau_mubar")),
        guards=None)
    ent("rho_decomposition", "rho = rho_mu + rho_del + rho_delbar + rho_mubar",
        Op("rho"), add(Op("rho_mu"), Op("rho_del"), Op("rho_delbar"), Op("rho_mubar")),
        guards=None)
    ent("lam_def", "lam = E_{d omega}", Op("lam"), Op("E_domega"), guards=None)
    ent("tau_def", "tau = [Lam, lam]", Op("tau"), SCom(Op("Lam"), Op("lam")), guards=None)
    for nm in _XI_NAMES:
        ent(f"clifford_mult.{nm}",
            f"(xi# . phi#)b = xi^phi + r_xi(phi) + r_(conj xi)*(phi) + xi_|phi for xi = {nm}",
            Transport(Op(f"Lcl_{nm}")),
            add(Op(_XI_EMULT[nm]), Op("rho" if nm == "domega" else f"rho_{nm[:-5]}"),
                Adj(Op("rho" if nm == "domega" else f"rho_{_XI_CONJ[nm][:-5]}")),
                Op(f"C_{nm}")),
            guards=(nm,))
    ent("clifford_mult.oneform", "(a# . phi#)b = a^phi - a#_|phi for a 1-form (a = lee)",
        Transport(Op("Lcl_lee")), add(Op("E_lee"), neg(Op("C_lee"))), guards=("lee",))
    for nm, cell in _PC_SCALAR[:4]:
        ent(f"rho_bidegree.{nm}",
            f"r_xi has bidegree (r-1, s-1) for xi of bidegree (r, s) (xi = {nm} omega)",
            Op(f"rho_{nm}"), None, kind="bidegree", cell=cell, guards=None)
    ent("ldomega_transport",
        "flat . L_{D omega} . sharp = lam + rho + E_{J* lee} + rho* + lam* - I_{J* lee}",
        Transport(Op("L_D_omega")),
        add(Op("lam"), Op("rho"), Op("E_jlee"), Adj(Op("rho")), Adj(Op("lam")),
            neg(Op("I_jlee"))), guards=None)
    for nm in _XI_NAMES + ("domega_plus", "lee"):
        ent(f"lam_bracket.{nm}",
            f"[Lam, E_xi] = E_(Lam xi) + sum_C (e_C _| xi)^(J e_C _| .) for xi = {nm}",
            SCom(Op("Lam"), Op(_XI_EMULT[nm])),
            add(Op(f"ELam_{nm}"), Op(f"K_{nm}")), guards=(nm,))
    for nm in ("domega_plus", "domega"):
        diff = add(SCom(Op("Lam"), Op(_XI_EMULT[nm])), neg(Op(f"ELam_{nm}")))
        ent(f"lam_bracket_deriv.{nm}",
            f"[Lam, E_xi] - E_(Lam xi) is an antiderivation for xi = {nm}",
            Rebuild(diff), diff, guards=(nm,))
    ent("rho_tau.mu", "tau_mu = i rho_mu", Op("tau_mu"), S(I, Op("rho_mu")), guards=None)
    ent("rho_tau.mubar", "tau_mubar = -i rho_mubar",
        Op("tau_mubar"), S(-I, Op("rho_mubar")), guards=None)
    ent("rho_tau.minus", "rho_minus = -(tau_minus)^c",
        Op("rho_minus"), neg(Conj(Op("tau_minus"))), guards=None)
    ent("tau_plus_formula", "tau_plus = E_lee + sum_C (e_C _| dw+)^(J e_C _| .)",
        Op("tau_plus"), add(Op("E_lee"), Op("K_domega_plus")), guards=None)
    ent("lee_from_lambda_plus", "Lam(dw+) = lee",
        Apply(Op("Lam"), El("domega_plus")), El("lee"), kind="element", guards=None)
    ent("lee_from_lambda", "Lam(dw) = lee",
        Apply(Op("Lam"), El("domega")), El("lee"), kind="element", guards=None)
    ent("tau_plus_conj_oneform",
        "tau_plus^c(a) = -J*lee^a + 1/2 sum dw+(Je_A,e_C,Je_B) a(e_C) theta^A^theta^B on 1-forms",
        Comp(Conj(Op("tau_plus")), Op("proj1_ext")), Op("tauplusc_1f"), guards=None)
    ent("dsig_wedge_transport",
        "flat . D_sigma^wedge . sharp = rho_plus + (tau_plus)^c + E_{J* lee}",
        Transport(Op("Dsig_ext")),
        add(Op("rho_plus"), Conj(Op("tau_plus")), Op("E_jlee")), guards=None)
    ent("dsig_contract_transport",
        "D_sigma^contract = -(D_sigma^wedge)* + 2 I_{J* lee}",
        Transport(Op("Dsig_int")),
        add(neg(Adj(Transport(Op("Dsig_ext")))), S(2, Op("I_jlee"))), guards=None)
    ent("dsig_transport",
        "flat . D_sigma . sharp = rho_plus + tau_plus^c + E_{J*lee} + rho_plus* + (tau_plus^c)* - I_{J*lee}",
        Transport(Op("Dsig")),
        add(Op("rho_plus"), Conj(Op("tau_plus")), Op("E_jlee"),
            Adj(Op("rho_plus")), Adj(Conj(Op("tau_plus"))), neg(Op("I_jlee"))),
        guards=None)
    ent("dsig_minus_transport",
        "flat . (D_sigma - L_{D omega}) . sharp = tau^c - lam + (tau^c)* - lam*",
        Transport(add(Op("Dsig"), neg(Op("L_D_omega")))),
        add(Conj(Op("tau")), neg(Op("lam")), Adj(Conj(Op("tau"))), neg(Adj(Op("lam")))),
        guards=None)
    ent("dsigc_minus_transport",
        "flat . (D_sigma^c - L_{D^c omega}) . sharp = tau + lam^c + tau* + (lam^c)*",
        Transport(add(Op("Dsigc"), neg(Op("L_Dc_omega")))),
        add(Op("tau"), Conj(Op("lam")), Adj(Op("tau")), Adj(Conj(Op("lam")))),
        guards=None)
    return out


# -- group 4: the two main theorems ------------------------------------------

def _group_main(n: int) -> list[IdentityEntry]:
    out = []
    ent = functools.partial(_add_entry, out, "main", "main")

    dds = add(Op("d"), Op("d_star"))
    laml = add(Op("Lam"), neg(Op("L")))
    tauc = Conj(Op("tau"))
    ent("full",
        "[d + d*, Lam - L] = d^c + tau^c - lam + (d^c)* + (tau^c)* - lam*",
        SCom(dds, laml),
        add(Op("dc"), tauc, neg(Op("lam")), Op("dc_star"), Adj(tauc), neg(Adj(Op("lam")))),
        guards=())
    ent("dL", "[d, L] = lam", SCom(Op("d"), Op("L")), Op("lam"), guards=("lam",))
    ent("dLam", "[d, Lam] = (d^c)* + (tau^c)*",
        SCom(Op("d"), Op("Lam")), add(Op("dc_star"), Adj(tauc)), guards=("d",))
    ent("dstarL", "[d*, L] = -(d^c + tau^c)",
        SCom(Op("d_star"), Op("L")), neg(add(Op("dc"), tauc)), guards=("d",))
    ent("dstarLam", "[d*, Lam] = -lam*",
        SCom(Op("d_star"), Op("Lam")), neg(Adj(Op("lam"))), guards=("lam",))
    T = add(tauc, neg(Op("lam")), Adj(tauc), neg(Adj(Op("lam"))))
    ent("second_full",
        "[tau^c - lam + (tau^c)* - lam*, Lam - L] = 3(tau + lam^c + tau* + (lam^c)*)",
        SCom(T, laml),
        S(3, add(Op("tau"), Conj(Op("lam")), Adj(Op("tau")), Adj(Conj(Op("lam"))))),
        guards=None)
    ent("lamL", "[lam, L] = 0", SCom(Op("lam"), Op("L")), ZeroOp("ext"), guards=("lam",))
    ent("lamLam", "[lam, Lam] = -tau",
        SCom(Op("lam"), Op("Lam")), neg(Op("tau")), guards=("lam",))
    ent("tauL", "[tau, L] = -3 lam",
        SCom(Op("tau"), Op("L")), S(-3, Op("lam")), guards=("tau",))
    ent("tauLam", "[tau, Lam] = -2 (tau^c)*",
        SCom(Op("tau"), Op("Lam")), S(-2, Adj(tauc)), guards=("tau",))
    return out


# -- groups 5-8: the commutator relations and everything derived from them ---

# ([P, Lam], [P, L]) for each base row P.  The conjugate rows, adjoint rows,
# statement strings, corollary variants and bidegree cells are derived.
_RELATIONS = {
    "d": (add(Op("dc_star"), Adj(Conj(Op("tau")))), Op("lam")),
    "mu": (S(I, add(Adj(Op("mubar")), Adj(Op("tau_mubar")))), Op("lam_mu")),
    "tau_mu": (S(gq(0, -2), Adj(Op("tau_mubar"))), S(-3, Op("lam_mu"))),
    "lam_mu": (neg(Op("tau_mu")), ZeroOp("ext")),
    "del": (S(-I, add(Adj(Op("delbar")), Adj(Op("tau_delbar")))), Op("lam_del")),
    "tau_del": (S(gq(0, 2), Adj(Op("tau_delbar"))), S(-3, Op("lam_del"))),
    "lam_del": (neg(Op("tau_del")), ZeroOp("ext")),
    "rho_del": (add(S(-I, Adj(Op("rho_delbar"))), Adj(Op("tau_delbar"))), S(I, Op("lam_del"))),
}

# the same brackets when d omega = 0, where lam, tau and rho vanish
_AK_RELATIONS = {
    "mu": (S(I, Adj(Op("mubar"))), ZeroOp("ext")),
    "del": (S(-I, Adj(Op("delbar"))), ZeroOp("ext")),
}

_CTAB_ROWS = ("d", "mu", "tau_mu", "mubar", "tau_mubar", "del", "tau_del", "rho_del",
              "delbar", "tau_delbar", "rho_delbar", "lam_mubar", "lam_delbar", "lam_del",
              "lam_mu")

_BAR_NAME = {"mu": "mubar", "mubar": "mu", "del": "delbar", "delbar": "del"}


def _bar(x: Expr) -> Expr:
    """The complex conjugate of a relation tree: mu <-> mubar and del <-> delbar
    in every name, and each coefficient conjugated."""
    if isinstance(x, Op):
        head, sep, part = x.name.rpartition("_")
        return Op(head + sep + _BAR_NAME.get(part, part))
    if isinstance(x, Scale):
        return Scale(x.c.conjugate(), _bar(x.a))
    if isinstance(x, Add):
        return Add(tuple(map(_bar, x.terms)))
    if isinstance(x, Adj):
        return Adj(_bar(x.a))
    if isinstance(x, ZeroOp):
        return x
    raise TypeError(f"no conjugate rule for {type(x).__name__}")


def _minus_adj(x: Expr) -> Expr:
    """-x*: the [P*, Q'] cell from the [P, Q] cell, Q' the other column."""
    return x if isinstance(x, ZeroOp) else neg(Adj(x))


def _terms(x: Expr, c: GaussianRational = ONE, star: bool = False) -> list:
    """A relation tree as [(coefficient, label)]; `star` is set under an odd number of Adj."""
    if isinstance(x, ZeroOp):
        return []
    if isinstance(x, Add):
        return [t for y in x.terms for t in _terms(y, c, star)]
    if isinstance(x, Scale):
        k = x.c.conjugate() if star else x.c
        return _terms(x.a, k if c == ONE else c * k, star)
    if isinstance(x, Adj):
        return _terms(x.a, c, not star)
    if x == Op("dc_star"):  # the zoo's name for (d^c)*
        return _terms(Adj(Conj(Op("d"))), c, star)
    label = x.a.name + "^c" if isinstance(x, Conj) else x.name
    if star:
        label = f"({label})*" if "^" in label else label + "*"
    return [(c, label)]


def _format_terms(terms) -> str:
    """The relation tree that `_terms` read as `terms`, as text, a shared
    non-unit coefficient factored out: `i(mubar* + tau_mubar*)`,
    `-i rho_delbar - tau_delbar`, `3 lam_mu*`."""
    c = terms[0][0] if terms else ONE
    if c == ONE or any(k != c for k, _ in terms):
        return _format_combo(terms)
    text = {"-1": "-", "-1i": "-i"}.get(str(c), str(c))
    body = " + ".join(label for _, label in terms)
    if len(terms) > 1:
        return f"{text}({body})"
    return text + body if text == "-" else f"{text} {body}"


def _relation(p: str) -> tuple[Expr, Expr]:
    """([p, Lam], [p, L]) for a base row or the conjugate of one."""
    if p in _RELATIONS:
        return _RELATIONS[p]
    return tuple(map(_bar, _RELATIONS[_bar(Op(p)).name]))


def _variant_entries(prefix, group, relations, families, condition=None):
    """[P, Q] = R for P in each family of `relations` (columns Lam, then L),
    each with its adjoint [P*, Q'] = -R*, conjugate [P-bar, Q] = R-bar and
    conjugate adjoint [P-bar*, Q'] = -R-bar*."""
    out = []
    for family in families:
        for col, other, k in (("Lam", "L", 0), ("L", "Lam", 1)):
            for p in family:
                rhs = relations[p][k]
                adj = _minus_adj(rhs)
                stmt = f"[{p}, {col}] = {_format_terms(_terms(rhs))}"
                zero = isinstance(rhs, ZeroOp)
                for suffix, note, lhs, r in (
                        ("", "", SCom(Op(p), Op(col)), rhs),
                        (".adj", "adjoint: ", SCom(Adj(Op(p)), Op(other)), adj),
                        (".bar", "conjugate: ", SCom(Bar(Op(p)), Op(col)),
                         rhs if zero else Bar(rhs)),
                        (".baradj", "conjugate adjoint: ", SCom(Bar(Adj(Op(p))), Op(other)),
                         adj if zero else Bar(adj))):
                    out.append(IdentityEntry(f"{prefix}.{p}.{col}{suffix}", group, note + stmt,
                                             "operator", lhs, r, guards=(p,),
                                             condition=condition))
    return out


# -- group 5: the bidegree-split commutator corollary -------------------------

def _group_corollary(n: int) -> list[IdentityEntry]:
    return _variant_entries("cor", "corollary", _RELATIONS,
                            (("mu", "tau_mu", "lam_mu"), ("del", "tau_del", "lam_del")))


# -- group 6: the commutator table -------------------------------------------

def _ctab_rows() -> list[tuple]:
    """(label, base, row, [row, Lam], [row, L]) for every table row, adjoint rows last."""
    rows = [(p, p, Op(p), *_relation(p)) for p in _CTAB_ROWS]
    # [P*, Lam] = -[P, L]* and [P*, L] = -[P, Lam]*
    return rows + [(p + "*", p, Adj(row), _minus_adj(l), _minus_adj(lam))
                   for p, _, row, lam, l in rows]


@functools.cache
def _ctab_cells() -> tuple[tuple, ...]:
    """(row label, base, column, [row, column], expected) for every cell,
    built once per process for the catalog, `table_requests` and
    `emit_commutator_table`."""
    return tuple((label, base, col, SCom(row, Op(col)), expected)
                 for label, base, row, lam, l in _ctab_rows()
                 for col, expected in (("Lam", lam), ("L", l)))


@functools.cache
def _expected_terms(expected: Expr) -> tuple:
    """`_terms(expected)`, read once per tree (trees are interned) for both
    `table_requests` and `emit_commutator_table`."""
    return tuple(_terms(expected))


def _group_ctab(n: int) -> list[IdentityEntry]:
    return [IdentityEntry(f"ctab.{label}.{col}", "commutator-table",
                          f"[{label}, {col}] = {_format_terms(_expected_terms(rhs))}", "operator",
                          cell, rhs, guards=(base,))
            for label, base, col, cell, rhs in _ctab_cells()]


# -- group 7: the bidegree table ----------------------------------------------

@functools.cache
def _btab_cells() -> tuple[tuple, ...]:
    """((p, q), ((label, expr), ...)) in (-q, p) order, built once per
    process.  Each d, lam and tau part X and X* sits at its own bidegree,
    [X, L] one step up and [X, Lam] one down; within a cell atoms come
    first, then [., L], then [., Lam]."""
    atoms = [(nm, Op(nm), bd) for nm, bd in _PC_SCALAR
             if nm not in ("L", "Lam") and not nm.startswith("rho_")]
    atoms += [(nm + "*", Adj(x), (-p, -q)) for nm, x, (p, q) in atoms]
    cells: dict[tuple[int, int], list] = {}
    for col, shift in ((None, 0), ("L", 1), ("Lam", -1)):
        for nm, x, (p, q) in atoms:
            item = (nm, x) if col is None else (f"[{nm},{col}]", SCom(x, Op(col)))
            cells.setdefault((p + shift, q + shift), []).append(item)
    return tuple((pq, tuple(items))
                 for pq, items in sorted(cells.items(), key=lambda c: (-c[0][1], c[0][0])))


def _group_btab(n: int) -> list[IdentityEntry]:
    return [IdentityEntry(f"btab.{p}.{q}.{label}", "bidegree-table",
                          f"{label} is concentrated in bidegree ({p},{q})", "bidegree",
                          expr, None, cell=(p, q), guards=None)
            for (p, q), items in _btab_cells() for label, expr in items]


# -- group 8: the integrable-torsion-free specialization ----------------------

def _group_ak(n: int) -> list[IdentityEntry]:
    out = [IdentityEntry(f"ak.{nm}_zero", "almost-kahler", f"{nm} = 0 when d omega = 0",
                         "operator", Op(nm), ZeroOp("ext"), guards=(),
                         condition="almost_kahler")
           for nm in ("rho", "lam", "tau")]
    return out + _variant_entries("ak", "almost-kahler", _AK_RELATIONS,
                                  (("mu",), ("del",)), condition="almost_kahler")


@functools.lru_cache(maxsize=None)
def catalog(n: int) -> tuple[IdentityEntry, ...]:
    """The full identity catalog for models of dimension 2n."""
    entries = (
        _group_elementary(n)
        + _group_clifford(n)
        + _group_exterior(n)
        + _group_main(n)
        + _group_corollary(n)
        + _group_ctab(n)
        + _group_btab(n)
        + _group_ak(n)
    )
    ids = [e.id for e in entries]
    if len(ids) != len(set(ids)):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise RuntimeError(f"duplicate catalog ids: {dupes}")
    return tuple(entries)


# catalog sizes per group, keyed by n; pinned and tested
COVERAGE = {
    1: {"elementary": 66, "clifford": 55, "exterior": 38, "main": 10,
        "corollary": 48, "commutator-table": 60, "bidegree-table": 72,
        "almost-kahler": 19},
    2: {"elementary": 82, "clifford": 85, "exterior": 38, "main": 10,
        "corollary": 48, "commutator-table": 60, "bidegree-table": 72,
        "almost-kahler": 19},
    3: {"elementary": 98, "clifford": 115, "exterior": 38, "main": 10,
        "corollary": 48, "commutator-table": 60, "bidegree-table": 72,
        "almost-kahler": 19},
}


# ---------------------------------------------------------------------------
# workspace and evaluation
# ---------------------------------------------------------------------------

class Workspace:
    """The zoo operators and elements of one model, each built on its first
    read, with an expression evaluator that is exact by default and float
    (`FloatMatrix`) in float mode.

    `reads` lists the (expr, float_mode) evaluations the caller is about to
    make (`suite_requests`, `table_requests`): the zoo operators and elements
    they read are built with the workspace, so its construction holds all of
    the zoo work and nothing else is built.
    """

    def __init__(self, model: LieModel, mode: str = "exact", reads=()):
        if mode not in ("exact", "float"):
            raise ValueError(f"unknown mode {mode!r}")
        self.model = model
        self.mode = mode
        self.geom = geometry(model)
        self.ops, self.elements = assemble(self.geom)
        self.n = self.geom.n
        self.dim = 4 ** self.n
        self._bs = blade_structure(self.n)
        self._cols: dict[str, ExactMatrix] = {}
        self._memo: dict[tuple, object] = {}
        # planned requests left per (expr, float_mode) key; see `plan`
        self._uses: dict[tuple, int] = {}
        for expr, _ in _count_uses(reads):
            if isinstance(expr, Op):
                self.op(expr.name)
            elif isinstance(expr, El):
                self.element_column(expr.name)

    # -- leaves ------------------------------------------------------------
    def op(self, name: str) -> LinearOperator:
        if name not in self.ops:
            raise StructuralError(f"unknown operator {name!r}")
        return self.ops[name]

    def element_column(self, name: str) -> tuple[ExactMatrix, str]:
        if name not in self.elements:
            raise StructuralError(f"unknown element {name!r}")
        mv, picture = self.elements[name]
        if name not in self._cols:
            self._cols[name] = self._bs.to_column(mv)
        return self._cols[name], picture

    def nonzero(self, name: str) -> bool:
        if name in self.ops:
            return not self.ops[name].is_zero()
        if name in self.elements:
            return not self.elements[name][0].is_zero()
        raise StructuralError(f"unknown guard {name!r}")

    # -- evaluation ----------------------------------------------------------
    def eval(self, expr: Expr):
        return self._eval(expr, self.mode == "float")

    def plan(self, requests) -> None:
        """Count the evaluations that requests of (expr, float_mode) will make.

        Each planned value is dropped from the memo after its last planned
        use; a node's children are counted once, on its first request,
        since later requests hit the memo.  Unplanned values stay memoized.
        A plan replaces the previous one.
        """
        self._uses = _count_uses(requests)

    def _eval(self, expr: Expr, float_mode: bool):
        key = (expr, float_mode)
        val = self._memo.get(key)
        if val is None:
            val = self._eval_inner(expr, float_mode)
            if float_mode and isinstance(val.matrix, ExactMatrix):
                # a leaf, a zero or a rebuild is computed exactly in either
                # mode; float mode takes its float view, here and only here
                mat = FloatMatrix.from_exact(val.matrix)
                val = (LinearOperator(val.name, mat, val.picture, val.parity)
                       if isinstance(val, LinearOperator) else ElementValue(mat, val.picture))
            self._memo[key] = val
        left = self._uses.get(key)
        if left == 1:
            del self._uses[key], self._memo[key]
        elif left:
            self._uses[key] = left - 1
        return val

    def _eval_inner(self, expr: Expr, float_mode: bool):
        if isinstance(expr, Op):
            return self.op(expr.name)
        if isinstance(expr, El):
            return ElementValue(*self.element_column(expr.name))
        if isinstance(expr, ZeroOp):
            return LinearOperator("0", ExactMatrix.zeros(self.dim), expr.picture, "even")
        if isinstance(expr, ZeroEl):
            return ElementValue(ExactMatrix.zeros(self.dim, 1), expr.picture)
        vals = [self._eval(child, fm) for child, fm in _children(expr, float_mode)]
        if isinstance(expr, Add):
            if all(isinstance(v, LinearOperator) for v in vals):
                return add_ops(*vals)
            if all(isinstance(v, ElementValue) for v in vals):
                pictures = {v.picture for v in vals}
                if len(pictures) != 1:
                    raise StructuralError("cannot add elements from different pictures")
                mat = vals[0].matrix
                for v in vals[1:]:
                    mat = mat + v.matrix
                return ElementValue(mat, vals[0].picture)
            raise StructuralError("cannot add operators to elements")
        if isinstance(expr, Scale):
            v = vals[0]
            if isinstance(v, LinearOperator):
                return scale_op(v, expr.c)
            return ElementValue(v.matrix.scale(expr.c), v.picture)
        if isinstance(expr, Apply):
            opv, elv = _operator(vals[0]), vals[1]
            if not isinstance(elv, ElementValue):
                raise StructuralError("Apply needs an element operand")
            if opv.picture != elv.picture:
                raise StructuralError(
                    f"cannot apply {opv.name} ({opv.picture}) to a {elv.picture} element")
            return ElementValue(opv.matrix @ elv.matrix, elv.picture)
        ops = [_operator(v) for v in vals]
        calculus = _CALCULUS.get(type(expr))
        if calculus is None:
            raise StructuralError(f"unknown expression node {type(expr).__name__}")
        return calculus(*ops)


# the operator-calculus function of each node whose operands are all
# operators (a Rebuild's are exact, see `_children`); each entry reads the
# module-level name when called, so a wrapper bound to it later is called
_CALCULUS = {
    SCom: lambda a, b: supercommutator(a, b),
    Comp: lambda a, b: compose(a, b),
    Adj: lambda a: adjoint(a),
    Conj: lambda a: conjugate(a),
    Bar: lambda a: bar(a),
    Transport: lambda a: transport(a),
    Rebuild: lambda a: derivation_rebuild(a),
}


def _count_uses(requests) -> dict[tuple, int]:
    """The number of times each (expr, float_mode) key is requested when the
    requests are evaluated through the memo (see `Workspace.plan`)."""
    uses: dict[tuple, int] = {}
    todo = list(requests)
    while todo:
        key = todo.pop()
        uses[key] = uses.get(key, 0) + 1
        if uses[key] == 1:
            todo.extend(_children(*key))
    return uses


def _children(expr: Expr, float_mode: bool) -> tuple:
    """The (expr, float_mode) operands a node's evaluation requests, in order."""
    if isinstance(expr, (SCom, Comp)):
        return ((expr.a, float_mode), (expr.b, float_mode))
    if isinstance(expr, Add):
        return tuple((t, float_mode) for t in expr.terms)
    if isinstance(expr, Apply):
        return ((expr.op, float_mode), (expr.el, float_mode))
    if isinstance(expr, Rebuild):
        return ((expr.a, False),)
    if isinstance(expr, (Scale, Adj, Conj, Bar, Transport)):
        return ((expr.a, float_mode),)
    return ()


def _operator(v) -> LinearOperator:
    if not isinstance(v, LinearOperator):
        raise StructuralError("expected an operator-valued expression")
    return v


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@dataclass
class EntryResult:
    entry: IdentityEntry
    status: str  # "pass" | "fail" | "skipped"
    exercised: bool
    residual: object  # Fraction (exact), float (float mode), or None
    detail: str = ""


@dataclass
class Report:
    model: str
    n: int
    mode: str
    suite: str
    tolerance: float | None
    properties: dict
    results: list[EntryResult] = field(default_factory=list)

    def counts(self) -> dict:
        c = {"total": len(self.results), "passed": 0, "failed": 0,
             "skipped": 0, "exercised": 0, "vacuous": 0}
        for r in self.results:
            if r.status == "pass":
                c["passed"] += 1
                c["exercised" if r.exercised else "vacuous"] += 1
            elif r.status == "fail":
                c["failed"] += 1
            else:
                c["skipped"] += 1
        return c

    def ok(self) -> bool:
        return all(r.status != "fail" for r in self.results)

    def failures(self) -> list[EntryResult]:
        return [r for r in self.results if r.status == "fail"]

    def to_dict(self) -> dict:
        entries = []
        for r in self.results:
            residual = r.residual
            if isinstance(residual, Fraction):
                residual = str(residual)
            entries.append({
                "id": r.entry.id,
                "group": r.entry.group,
                "statement": r.entry.statement,
                "kind": r.entry.kind,
                "status": r.status,
                "exercised": r.exercised,
                "residual": residual,
                "detail": r.detail,
            })
        return {
            "model": self.model,
            "n": self.n,
            "dimension": 4 ** self.n,
            "mode": self.mode,
            "tolerance": self.tolerance,
            "suite": self.suite,
            "properties": self.properties,
            "summary": self.counts(),
            "entries": entries,
        }

    def to_json(self) -> str:
        return json_text(self.to_dict())

    def to_markdown(self) -> str:
        c = self.counts()
        props = ", ".join(f"{k}={v}" for k, v in self.properties.items())
        lines = [
            f"# Identity report: {self.model}",
            "",
            f"mode: {self.mode}" + (
                f" (tolerance {self.tolerance})" if self.mode == "float" else ""),
            f"suite: {self.suite}",
            f"properties: {props}",
            (f"result: {c['passed']}/{c['total']} passed"
             f" ({c['exercised']} exercised, {c['vacuous']} vacuous,"
             f" {c['skipped']} skipped, {c['failed']} failed)"),
            "",
            "| id | statement | status | exercised | residual |",
            "|---|---|---|---|---|",
        ]
        for r in self.results:
            residual = "" if r.residual is None else str(r.residual)
            mark = {"pass": "pass", "fail": "**FAIL**", "skipped": "skipped"}[r.status]
            ex = "yes" if r.exercised else "no"
            stmt = r.entry.statement.replace("|", "\\|")
            extra = f" ({r.detail})" if r.detail and r.status == "fail" else ""
            lines.append(f"| {r.entry.id} | {stmt}{extra} | {mark} | {ex} | {residual} |")
        return "\n".join(lines) + "\n"


def _value_residual(lhs, rhs):
    if isinstance(lhs, LinearOperator) != isinstance(rhs, LinearOperator):
        raise StructuralError("cannot compare an operator with an element")
    lp = lhs.picture
    rp = rhs.picture
    if lp != rp:
        raise StructuralError(f"picture mismatch: {lp} vs {rp}")
    if isinstance(lhs.matrix, ExactMatrix) and lhs.matrix == rhs.matrix:
        # one normal form per value: equal parts are a zero difference
        return Fraction(0)
    return (lhs.matrix - rhs.matrix).max_norm()


def _requests(e: IdentityEntry, is_float: bool) -> tuple:
    """The (expr, float_mode) evaluations verify makes for entry e."""
    if e.kind == "bidegree":
        # bidegree placement is a structural fact; measure exactly
        return ((e.lhs, False),)
    return ((e.lhs, is_float), (e.rhs, is_float))


def _suite_entries(n: int, suite: str) -> list[IdentityEntry]:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITES}")
    return [e for e in catalog(n) if suite == "all" or GROUP_SUITE[e.group] == suite]


def suite_requests(n: int, suite: str = "all", mode: str = "exact") -> list[tuple]:
    """The (expr, float_mode) evaluations of every entry of a suite at
    dimension 2n in mode, the `reads` of a workspace that `verify` runs on.
    The entries `verify` skips read no zoo leaf that the others do not."""
    return [req for e in _suite_entries(n, suite) for req in _requests(e, mode == "float")]


def verify(ws: Workspace, suite: str = "all", tolerance: float = 1e-10) -> Report:
    """Evaluate the catalog on a workspace and report per-entry residuals.

    Entries are evaluated in catalog order under one plan.  The values of
    the bidegree entries are held until the end and measured in one
    `measured_bidegree` call; their results keep their catalog places."""
    entries = _suite_entries(ws.n, suite)
    if not 0 <= tolerance < math.inf:  # also false for nan
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance!r}")
    geom = ws.geom
    report = Report(
        model=ws.model.name,
        n=ws.n,
        mode=ws.mode,
        suite=suite,
        tolerance=tolerance if ws.mode == "float" else None,
        properties={
            "integrable": geom.integrable,
            "almost_kahler": geom.almost_kahler,
            "lee_zero": geom.lee_zero,
        },
    )
    is_float = ws.mode == "float"

    def skipped(e: IdentityEntry) -> bool:
        return e.condition == "almost_kahler" and not geom.almost_kahler

    # the catalog is static: count every evaluation first, so that each
    # value is dropped after its last use
    ws.plan(req for e in entries if not skipped(e) for req in _requests(e, is_float))
    # bidegree entries: values held in catalog order, measured in one call
    placed: list[tuple[int, IdentityEntry, LinearOperator]] = []
    for e in entries:
        if skipped(e):
            report.results.append(
                EntryResult(e, "skipped", False, None, "requires d omega = 0"))
            continue
        vals = [ws._eval(x, fm) for x, fm in _requests(e, is_float)]
        if e.kind == "bidegree":
            placed.append((len(report.results), e, vals[0]))
            report.results.append(None)
            continue
        lhs, rhs = vals
        residual = _value_residual(lhs, rhs)
        ok = (residual <= tolerance) if is_float else (residual == 0)
        if e.guards is None:
            exercised = (not lhs.matrix.is_zero()) or (not rhs.matrix.is_zero())
        else:
            exercised = all(ws.nonzero(g) for g in e.guards)
        report.results.append(EntryResult(
            e, "pass" if ok else "fail", exercised,
            float(residual) if is_float else residual))
    for (at, e, _), measured in zip(placed, measured_bidegree([v for *_, v in placed])):
        ok = measured <= {e.cell}
        exercised = bool(measured) if e.guards is None else all(
            ws.nonzero(g) for g in e.guards)
        detail = "" if ok else f"measured {sorted(measured)}"
        report.results[at] = EntryResult(e, "pass" if ok else "fail", exercised, None, detail)
    return report


# ---------------------------------------------------------------------------
# commutator table emission
# ---------------------------------------------------------------------------

_SPAN_FAMILIES = (
    "mu", "del", "delbar", "mubar",
    "lam_mu", "lam_del", "lam_delbar", "lam_mubar",
    "tau_mu", "tau_del", "tau_delbar", "tau_mubar",
    "rho_mu", "rho_del", "rho_delbar", "rho_mubar",
)
_SPAN_LEE = ("E_lee", "I_lee", "E_jlee", "I_jlee")


@functools.cache
def _span_exprs() -> tuple[tuple[str, Expr], ...]:
    """(label, expr) of every atom of the commutator table's span."""
    return tuple([(nm, Op(nm)) for nm in _SPAN_FAMILIES]
                 + [(nm + "*", Adj(Op(nm))) for nm in _SPAN_FAMILIES]
                 + [(nm, Op(nm)) for nm in _SPAN_LEE])


def _span_atoms(ws: Workspace) -> list[tuple[str, LinearOperator]]:
    return [(label, ws.eval(x)) for label, x in _span_exprs()]


def _on_atoms(terms, index: dict[str, int]) -> dict[int, GaussianRational] | None:
    """{j: e_j} with sum_j e_j m_j the combination `terms` of `_terms`, m_j
    the span atom with index[label] = j, or None when a label is no atom."""
    e: dict[int, GaussianRational] = {}
    for c, label in terms:
        j = index.get(label)
        if j is None:
            return None
        e[j] = e.get(j, ZERO) + c
    return e


def table_requests(which: str = "both") -> list[tuple]:
    """The (expr, float_mode) evaluations that `emit_commutator_table`
    ("commutator"), `emit_bidegree_table` ("bidegree") or both make.  An
    expected form that is a combination of span atoms is decided from the
    Gram data and never evaluated.

    Planned in one `Workspace.plan` call, they evaluate every value once
    and drop it after its last use, in either table.
    """
    if which not in ("commutator", "bidegree", "both"):
        raise ValueError(f"unknown table {which!r}")
    exprs = []
    if which != "bidegree":
        span = _span_exprs()
        index = {label: j for j, (label, _) in enumerate(span)}
        exprs += [x for _, x in span]
        for *_, target, expected in _ctab_cells():
            exprs.append(target)
            if _on_atoms(_expected_terms(expected), index) is None:
                exprs.append(expected)
    if which != "commutator":
        exprs += [x for _, items in _btab_cells() for _, x in items]
    return [(x, False) for x in exprs]


def _format_coeff(c: GaussianRational) -> str:
    if c == ONE:
        return ""
    if c == -ONE:
        return "-"
    if c == I:
        return "i "
    if c == -I:
        return "-i "
    return f"({c}) "


def _format_combo(terms) -> str:
    """sum c * label over the nonzero (c, label) terms."""
    terms = [f"{_format_coeff(c)}{label}" for c, label in terms]
    if not terms:
        return "0"
    text = terms[0]
    for t in terms[1:]:
        text += " - " + t[1:].lstrip() if t.startswith("-") else " + " + t
    return text


def emit_commutator_table(ws: Workspace) -> dict:
    """Compute [row, Lam] and [row, L] for every table row, solve each cell
    exactly over the operator span, and compare with the expected forms.

    Every cell is decided from the span's Gram data G_jk = <m_j, m_k>, the
    right-hand sides <t, m_j> of its target t and one exact <t, t>, with
    <x, y> = sum x * conj(y) over the entries; three identities stand in
    for rebuilding and comparing matrices:

    - span: the residual of any solution x of the normal equations is
      orthogonal to the span, so t = sum_j x_j m_j exactly when
      <t, t> = sum_j x_j conj<t, m_j>;
    - aliases: t = +-a for an atom a exactly when <t, t> = <a, a> and
      <t, a> = +-<a, a>;
    - expected form: a form e = sum_j e_j m_j over span atoms equals t
      exactly when <t, t> - 2 Re sum_j conj(e_j) <t, m_j> + <e, e> = 0,
      with <e, e> = sum_jk e_j conj(e_k) G_jk.  An expected form with a
      term outside the span (the d and d* rows hold (d^c)*, tau^c and
      lam) is evaluated and compared entrywise.

    The Gram system is shared by every cell, so all cells are solved by one
    elimination; each cell only adds its right-hand side.  The span's
    matrices are stacked once, and the Gram matrix and all right-hand sides
    are two stacked inner products against them."""
    if ws.mode != "exact":
        raise StructuralError("the commutator table requires exact mode")
    atoms = _span_atoms(ws)
    labels = [a[0] for a in atoms]
    index = {label: j for j, label in enumerate(labels)}
    mats = [a[1].matrix for a in atoms]
    span = FrobeniusColumns(mats)
    # gram[j][k] = <m_j, m_k>: column j of the normal equations
    gram = span.inner(mats)
    cells = _ctab_cells()
    targets = [ws.eval(target).matrix for *_, target, _ in cells]
    rhss = span.inner(targets)
    solutions = solve_exact(gram, rhss)
    out = []
    ok = True
    for (label, _, col, _, expected), target, norm, rhs, x in zip(
            cells, targets, frobenius_norms(targets), rhss, solutions):
        solved = None
        support: set[str] = set()
        if x is not None:
            live = [j for j, c in enumerate(x) if c]
            if norm == sum((x[j] * rhs[j].conjugate() for j in live), ZERO):
                solved = _format_combo([(x[j], labels[j]) for j in live])
                support = {labels[j] for j in live}
        terms = _expected_terms(expected)
        e = _on_atoms(terms, index)
        if e is None:
            matches = target == ws.eval(expected).matrix
        else:
            s = sum((c.conjugate() * rhs[j] for j, c in e.items()), ZERO)
            ee = sum((c * k.conjugate() * gram[j][i] for j, c in e.items()
                      for i, k in e.items()), ZERO)
            matches = norm + ee == s + s.conjugate()
        if solved is None:
            status = "unresolved"
        elif matches:
            status = "ok"
        else:
            status = "mismatch"
        if status != "ok":
            ok = False
        # coincidences: other single atoms that equal the cell on this model
        # (the zeros of the stacked inner products are ZERO itself)
        aliases = []
        if norm:
            for j, (alabel, t_a) in enumerate(zip(labels, rhs)):
                a_a = gram[j][j]
                if alabel in support or t_a is ZERO or norm != a_a:
                    continue
                if t_a == a_a:
                    aliases.append(alabel)
                elif t_a == -a_a:
                    aliases.append("-" + alabel)
        out.append({
            "row": label,
            "column": col,
            "expected": _format_terms(terms),
            "status": status,
            "solved": solved if solved is not None else "",
            "aliases": aliases,
        })
    return {"model": ws.model.name, "ok": ok, "atoms": labels, "cells": out}


def commutator_table_markdown(table: dict) -> str:
    lines = [
        f"# Commutator table: {table['model']}",
        "",
        "| row | [row, Lam] | [row, L] | status |",
        "|---|---|---|---|",
    ]
    by_row: dict[str, dict] = {}
    for cell in table["cells"]:
        by_row.setdefault(cell["row"], {})[cell["column"]] = cell
    for row, cols in by_row.items():
        lam = cols["Lam"]
        lcell = cols["L"]
        status = "ok" if lam["status"] == "ok" and lcell["status"] == "ok" else (
            f"{lam['status']}/{lcell['status']}")
        lines.append(f"| {row} | {lam['expected']} | {lcell['expected']} | {status} |")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# bidegree table emission
# ---------------------------------------------------------------------------

def emit_bidegree_table(ws: Workspace) -> dict:
    """Measured bidegree placement for every tabulated operator.  The
    operators are evaluated in table order and measured in one
    `measured_bidegree` call."""
    if ws.mode != "exact":
        raise StructuralError("the bidegree table requires exact mode")
    table = _btab_cells()
    measurements = iter(measured_bidegree([ws.eval(expr) for _, items in table
                                           for _, expr in items]))
    cells = []
    ok = True
    for (p, q), items in table:
        placed = []
        vacuous = []
        misplaced = []
        for label, _ in items:
            measured = next(measurements)
            if not measured:
                vacuous.append(label)
            elif measured == {(p, q)}:
                placed.append(label)
            else:
                misplaced.append({"label": label, "measured": sorted(measured)})
        if misplaced:
            ok = False
        cells.append({
            "p": p,
            "q": q,
            "operators": placed,
            "vacuous": vacuous,
            "misplaced": misplaced,
        })
    return {"model": ws.model.name, "ok": ok, "cells": cells}


def bidegree_table_markdown(table: dict) -> str:
    lines = [
        f"# Bidegree table: {table['model']}",
        "",
        "| (p, q) | operators | vacuous on this model |",
        "|---|---|---|",
    ]
    for cell in table["cells"]:
        ops = ", ".join(cell["operators"]) or "-"
        vac = ", ".join(cell["vacuous"]) or "-"
        lines.append(f"| ({cell['p']}, {cell['q']}) | {ops} | {vac} |")
        for bad in cell["misplaced"]:
            lines.append(
                f"| | **MISPLACED** {bad['label']} measured {bad['measured']} | |")
    return "\n".join(lines) + "\n"
