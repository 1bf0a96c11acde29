"""Dirac-picture operators: D, H_c, sigma, D_sigma, frame independence."""
import pytest

from kahlerid import gq
from kahlerid.algebra import Multivector, coframe, frame
from kahlerid.dirac import CliffordZoo, sigma_from_torsion_form
from kahlerid.operators import (
    add_ops,
    apply_operator,
    scale_op,
    supercommutator,
    transport,
)
from reference import clifford_mul, frame_rotation_check, wedge

BUILTINS = ["t2", "t4", "t6", "kt4", "hopf4", "iwa6", "nil6"]


@pytest.fixture(scope="module")
def cz(geom):
    """The Clifford zoo of a built-in model, built once per module."""
    cache = {}

    def get(name: str) -> CliffordZoo:
        if name not in cache:
            cache[name] = CliffordZoo(geom(name))
        return cache[name]

    return get


def test_flat_dirac_vanishes(cz):
    assert cz("t4").ops["D"].is_zero()
    assert cz("t2").ops["D"].is_zero()


def test_dirac_value_kt4(cz):
    # D(e3) = sum_A e_A . nabla_{e_A} e3 = -e1 e2 (Koszul halves combine)
    D = cz("kt4").ops["D"]
    got = apply_operator(D, frame(2, 3))
    assert got == clifford_mul(frame(2, 1), frame(2, 2)).scale(gq(-1))
    assert D.parity == "odd"


def test_dirac_transport_value_kt4(cz):
    # flat . D . sharp applied to theta^3 gives (d + d*) theta^3 = -theta^1^theta^2
    t = transport(cz("kt4").ops["D"])
    assert apply_operator(t, coframe(2, 3)) == -wedge(coframe(2, 1), coframe(2, 2))


@pytest.mark.parametrize("name", ["t2", "kt4", "nil6"])
def test_hc_on_unit(geom, cz, name):
    g = geom(name)
    hc = cz(name).ops["Hc"]
    got = apply_operator(hc, Multivector.unit(g.n))
    assert got == g.omega_form.scale(gq(0, -1))


def test_hc_transport(ws):
    # flat . H_c . sharp = i(Lam - L)
    w = ws("hopf4")
    lhs = transport(w.ops["Hc"])
    rhs = scale_op(add_ops(w.ops["Lam"], scale_op(w.ops["L"], gq(-1))), gq(0, 1))
    assert lhs.matrix == rhs.matrix


@pytest.mark.parametrize("name", BUILTINS)
def test_frame_independence(geom, name):
    assert frame_rotation_check(geom(name), seed=11)


def test_sigma_vanishes_almost_kahler(cz):
    ops = cz("kt4").ops
    for a in range(1, 5):
        assert ops[f"sigma_{a}"].is_zero()
    assert ops["Dsig"].is_zero()


@pytest.mark.parametrize("name", ["hopf4", "nil6", "iwa6"])
def test_sigma_dual_path(geom, cz, name):
    # covariant-derivative route == torsion-three-form route
    g = geom(name)
    for a in range(1, 2 * g.n + 1):
        assert cz(name).ops[f"sigma_{a}"].matrix == sigma_from_torsion_form(g, a).matrix


def test_sigma_nonzero_somewhere(cz):
    ops = cz("nil6").ops
    assert any(not ops[f"sigma_{a}"].is_zero() for a in range(1, 7))


def test_d_sigma_split(cz):
    ops = cz("nil6").ops
    assert ops["Dsig"].matrix == (ops["Dsig_ext"].matrix - ops["Dsig_int"].matrix)


def test_hc_commutes_with_jd(ws):
    w = ws("nil6")
    assert supercommutator(w.ops["Hc"], w.ops["Jd_cl"]).is_zero()


def test_master_identity_direct(ws):
    # [D, H_c] = -i D^c + i D_sigma - i L_{D omega}
    for name in ("nil6", "iwa6"):
        w = ws(name)
        lhs = supercommutator(w.ops["D"], w.ops["Hc"])
        rhs = add_ops(
            scale_op(w.ops["Dc"], gq(0, -1)),
            scale_op(w.ops["Dsig"], gq(0, 1)),
            scale_op(w.ops["L_D_omega"], gq(0, -1)),
        )
        assert lhs.matrix == rhs.matrix


def test_master_identity_degenerate(ws):
    # almost Kahler: D_sigma = 0 and L_{D omega} = 0, so [D, H_c] = -i D^c
    for name in ("kt4", "t4"):
        w = ws(name)
        assert w.ops["Dsig"].is_zero()
        assert w.ops["L_D_omega"].is_zero()
        lhs = supercommutator(w.ops["D"], w.ops["Hc"])
        assert lhs.matrix == scale_op(w.ops["Dc"], gq(0, -1)).matrix
