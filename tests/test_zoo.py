"""The assembled operator zoo, pinned value by value."""
import hashlib

import numpy as np
import pytest

from kahlerid import GeometryError, geometry, get_model, operators
from kahlerid.zoo import ExteriorZoo, assemble


def _array_bytes(a: np.ndarray) -> bytes:
    # object arrays hold pointers: hash their integers instead
    if a.dtype == object:
        return repr(a.tolist()).encode()
    return np.ascontiguousarray(a).tobytes()


def zoo_digest(ops, elements) -> str:
    """SHA-256 over every operator (key, name, picture, parity, den, dtype,
    shape, real and imaginary parts) and every element (key, picture, sorted
    coefficients), in sorted key order."""
    h = hashlib.sha256()
    for key in sorted(ops):
        op = ops[key]
        m = op.matrix
        h.update(repr((key, op.name, op.picture, op.parity, m.den, str(m.re.dtype),
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
    # each other's bidegree must stop the zoo; their sum alone cannot tell
    project = operators.bidegree_project

    def swapped(a, p, q):
        return project(a, q, p) if (p, q) in ((2, 1), (1, 2)) else project(a, p, q)

    monkeypatch.setattr(operators, "bidegree_project", swapped)
    g = geometry(get_model("nil6"))
    with pytest.raises(GeometryError, match=r"part of d omega is not of bidegree"):
        ExteriorZoo(g)
