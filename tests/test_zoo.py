"""The assembled operator zoo, pinned value by value and built on first read."""
import hashlib

import numpy as np
import pytest

from kahlerid import GeometryError, StructuralError, Workspace, geometry, get_model
from kahlerid import matrices, models, zoo
from kahlerid.matrices import ExactMatrix
from kahlerid.verifier import (
    emit_bidegree_table,
    emit_commutator_table,
    suite_requests,
    table_requests,
    verify,
)
from kahlerid.zoo import ExteriorZoo, assemble


def _array_bytes(a: np.ndarray) -> bytes:
    # object arrays hold pointers: hash their integers instead; fixed-width
    # parts are hashed as int64, so the pins hold whatever width stores them
    if a.dtype == object:
        return repr(a.tolist()).encode()
    return np.ascontiguousarray(a, dtype=np.int64).tobytes()


def zoo_digest(ops, elements) -> str:
    """SHA-256 over every operator (key, name, picture, parity, den, dtype,
    shape, real and imaginary parts) and every element (key, picture, sorted
    coefficients), in sorted key order; every fixed-width dtype is labelled
    and hashed as int64."""
    h = hashlib.sha256()
    for key in sorted(ops):
        op = ops[key]
        m = op.matrix
        dtype = "object" if m.re.dtype == object else "int64"
        h.update(repr((key, op.name, op.picture, op.parity, m.den, dtype,
                       m.re.shape)).encode())
        h.update(_array_bytes(m.re))
        h.update(_array_bytes(m.im))
    for key in sorted(elements):
        mv, picture = elements[key]
        h.update(repr((key, picture, sorted(mv.coeffs.items()))).encode())
    return h.hexdigest()


ZOO_SHA256 = {
    "t2": "1a8d51d6fe8b0fee131e18287459fa9bf10c3e39925196292811b46f1f4b9409",
    "t4": "dba37df0d62d9182a7c2be0341b14356777479006985e099fa1367cc7bf65896",
    "t6": "e2760bad8288539efbaa3eec2619d5246f5f8e3a4838e9ae57b11c8ad8c977a0",
    "kt4": "82ce622f2f1f5d11ff7743232c6174d675c825d4b2d4e5f5d0fa27506c25a4d8",
    "hopf4": "522d2d2d700e4697fdea7c100688f50ad78b0d3bf0657fc01669de9c1bb19a89",
    "iwa6": "ab722f7b9c5d02528164b024749b31465c6289baece47854f7dda30eb93583ba",
    "nil6": "4e6b538d71340d076ce61f35c4da96f89cd3d22b8dbb64d4688f78f6e30c1d9f",
}


@pytest.mark.parametrize("name", ["t2", "t4", "t6", "kt4", "hopf4", "iwa6", "nil6"])
def test_assembled_zoo_is_pinned(name):
    ops, elements = assemble(geometry(get_model(name)))
    assert zoo_digest(ops, elements) == ZOO_SHA256[name]


def test_swapped_d_omega_parts_are_rejected(monkeypatch):
    # J_d acts on the (p, q) part of d omega as i(p - q), so parts filed under
    # each other's bidegree must stop the zoo; their sum alone cannot tell.
    # Swapping d's (1, 0) and (0, 1) parts swaps d omega's (2, 1) and (1, 2)
    decompose = models.bidegree_decompose

    def swapped(op):
        parts = decompose(op)
        parts[(1, 0)], parts[(0, 1)] = parts[(0, 1)], parts[(1, 0)]
        return parts

    monkeypatch.setattr(models, "bidegree_decompose", swapped)
    g = geometry(get_model("nil6"))
    with pytest.raises(GeometryError, match=r"part of d omega is not of bidegree"):
        ExteriorZoo(g)


# built with the zoo: d and its four bidegree parts, which the geometry
# computes for its gate on d's shifts and for d omega's parts
EAGER = {"d", "mu", "del", "delbar", "mubar"}


def test_a_workspace_builds_only_the_operators_it_reads():
    w = Workspace(get_model("nil6"))
    assert len(w.ops) == 163 and w.ops.built() == EAGER
    emit_commutator_table(w)
    emit_bidegree_table(w)
    # the 26 operators the tables read, plus E_domega, tau_plus and
    # tau_minus for the gates of lam and tau
    assert EAGER < w.ops.built() and len(w.ops.built()) <= 32
    assert {"E_domega", "tau_plus", "tau_minus"} <= w.ops.built()
    assert not {"D", "nabla_1", "sigmat_1", "K_domega"} & w.ops.built()


def test_verify_all_builds_every_operator():
    w = Workspace(get_model("kt4"))
    verify(w)
    # I_lee is read by the commutator table's span alone
    assert set(w.ops) - w.ops.built() == {"I_lee"}
    assert w.elements.built() == set(w.elements)
    emit_commutator_table(w)
    assert w.ops.built() == set(w.ops)


def test_a_workspace_builds_what_its_reads_read_when_it_is_made():
    m = get_model("kt4")
    w = Workspace(m, reads=suite_requests(m.n))
    built = w.ops.built(), w.elements.built()
    assert set(w.ops) - built[0] == {"I_lee"}
    verify(w)
    assert (w.ops.built(), w.elements.built()) == built
    w = Workspace(m, reads=table_requests("commutator"))
    built = w.ops.built()
    assert len(built) <= 32
    emit_commutator_table(w)
    assert w.ops.built() == built


def test_unknown_names_raise_and_build_nothing():
    w = Workspace(get_model("nil6"))
    for read in (w.op, w.nonzero, w.element_column):
        with pytest.raises(StructuralError, match="unknown"):
            read("nonsense")
    assert "nonsense" not in w.ops and w.ops.built() == EAGER
    assert w.elements.built() == {"unit", "omega_cl", "jstar_lee_cl", "muomega", "delomega",
                                  "delbaromega", "mubaromega", "domega", "omega",
                                  "domega_plus", "lee", "jstar_lee"}


def test_a_gate_runs_when_its_operator_is_read(monkeypatch):
    # a wrong E_{d omega} does not stop the zoo; reading lam, which is
    # certified against it, does
    ext_mult = zoo.ext_mult

    def wrong(phi, name):
        return ext_mult(phi + phi if name == "E_domega" else phi, name)

    monkeypatch.setattr(zoo, "ext_mult", wrong)
    w = Workspace(get_model("nil6"))
    assert not w.ops["lam_mu"].is_zero()
    with pytest.raises(GeometryError, match=r"lambda parts do not sum"):
        w.op("lam")


def test_every_real_int64_nil6_operator_holds_the_shared_zero_part(ws):
    # real sums of complex operators included: their imaginary parts cancel,
    # and the normal form sees it; one zero part per storage dtype
    ops = ws("nil6").ops
    real = {k: ops[k].matrix for k in ops
            if ops[k].matrix.re.dtype != object and not ops[k].matrix.has_im()}
    assert len(real) == 134
    assert {"tau_plus", "tau_minus", "rho_plus", "rho_minus", "lam"} <= set(real)
    assert all(m.im is matrices._zero_part(64, 64, m.re.dtype) for m in real.values())
    assert ExactMatrix.zeros(64).im is matrices._zero_part(64, 64, np.dtype(np.int8))
