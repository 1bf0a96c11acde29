"""Exterior/Clifford algebra layer: products, J actions, bidegrees, star."""
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from kahlerid import gq
from kahlerid.algebra import (
    AdaptedStructure,
    Multivector,
    blade_degree,
    coframe,
    frame,
    j_vector,
)
from kahlerid.models import builtin_models, geometry
from kahlerid.operators import add_ops
import reference
from reference import (
    basis,
    bidegree_components,
    clifford_mul,
    contract,
    degree_part,
    degree_spectrum,
    form_eval,
    hodge_star,
    inner,
    volume,
    wedge,
)


def _scalars():
    return st.builds(
        lambda a, b: gq(Fraction(a, 3), Fraction(b, 2)),
        st.integers(-6, 6), st.integers(-4, 4))


def _mv(n):
    dim = 1 << (2 * n)
    return st.dictionaries(st.integers(0, dim - 1), _scalars(), max_size=4).map(
        lambda d: Multivector(n, d))


# -- products -----------------------------------------------------------------

def test_vector_squares_to_minus_norm():
    for n in (1, 2):
        for i in range(1, 2 * n + 1):
            e = frame(n, i)
            assert clifford_mul(e, e) == Multivector.unit(n, -1)


def test_wedge_anticommutes_on_one_forms():
    t1, t2 = coframe(2, 1), coframe(2, 2)
    assert wedge(t2, t1) == -wedge(t1, t2)
    assert wedge(t1, t1).is_zero()


def test_wedge_unit_and_blade():
    assert wedge(Multivector.unit(2, 3), coframe(2, 4)) == basis(2, 4, c=3)
    assert wedge(coframe(2, 1), coframe(2, 3)) == basis(2, 1, 3)
    # basis() normalizes signs from index order
    assert basis(2, 3, 1) == -basis(2, 1, 3)


@settings(max_examples=60, deadline=None)
@given(_mv(2), _mv(2))
def test_clifford_vector_is_wedge_minus_contraction(a, phi):
    # Clifford action of a vector: e . phi = e ^ phi - e _| phi
    for i in (1, 2, 3, 4):
        e = frame(2, i)
        assert clifford_mul(e, phi) == wedge(e, phi) - contract(e, phi)
    del a


@settings(max_examples=40, deadline=None)
@given(_mv(2), _mv(2), _mv(2))
def test_products_associative(a, b, c):
    assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))
    assert clifford_mul(clifford_mul(a, b), c) == clifford_mul(a, clifford_mul(b, c))


@settings(max_examples=60, deadline=None)
@given(_mv(2), _mv(2))
def test_contraction_adjoint_to_wedge(b, c):
    # <alpha ^ b, c> = <b, alpha _| c> for a 1-form alpha
    for i in (1, 2, 3, 4):
        alpha = coframe(2, i)
        assert inner(wedge(alpha, b), c) == inner(b, contract(alpha, c))


def test_omega_self_contraction_counts_pairs():
    for n in (1, 2, 3):
        om = AdaptedStructure(n).omega()
        assert contract(om, om) == Multivector.unit(n, n)


# -- J actions -----------------------------------------------------------------

def test_j_on_vectors_n1():
    assert j_vector(frame(1, 1)) == frame(1, 2)
    assert j_vector(frame(1, 2)) == -frame(1, 1)


def test_j_pullback_on_coframe():
    # J* theta^i = -theta^{i+n}, J* theta^{i+n} = theta^i
    assert j_vector(coframe(2, 1), "ext") == -coframe(2, 3)
    assert j_vector(coframe(2, 3), "ext") == coframe(2, 1)


def test_omega_matches_pairing():
    st2 = AdaptedStructure(2)
    om = st2.omega()
    assert om == wedge(coframe(2, 1), coframe(2, 3)) + wedge(coframe(2, 2), coframe(2, 4))
    assert form_eval(om, frame(2, 1), frame(2, 3)) == gq(1)
    # omega(X, Y) = <JX, Y>
    for a in (1, 2, 3, 4):
        for b in (1, 2, 3, 4):
            assert form_eval(om, frame(2, a), frame(2, b)) == inner(
                j_vector(frame(2, a)), frame(2, b))


# -- bidegree ------------------------------------------------------------------

def test_bidegree_components_sum_back():
    a = basis(2, 1, 2, 3) + basis(2, 1, 2).scale(gq(2))
    parts = bidegree_components(a)
    total = Multivector.zero(2)
    for (p, q), comp in parts.items():
        assert p + q == blade_degree(next(iter(comp.coeffs))) or comp.is_zero()
        total = total + comp
    assert total == a


def test_degree_spectrum():
    assert degree_spectrum(2, 0) == [0]
    assert sorted(degree_spectrum(2, 2)) == [-2, 0, 2]  # i(p-q) multipliers p+q=2


def test_three_form_parts_nil6(geom):
    # d omega's parts are d's parts applied to omega.  On every built-in, on
    # big32 (nil6 with brackets scaled by 2**32 and 2**-32) and on nil8 (n = 4)
    # each is the blade-by-blade projection, they sum to d omega, and d's
    # parts sum to d
    geoms = [geom(name) for name in builtin_models()] + [
        geometry(reference.extra_model(name)) for name in ("big32", "nil8")]
    for g in geoms:
        parts = g.d_omega_parts
        assert list(parts) == list(g.d_parts) == [(3, 0), (2, 1), (1, 2), (0, 3)]
        total = Multivector.zero(g.n)
        for (p, q), part in parts.items():
            if max(p, q) <= g.n:
                assert part == reference.bidegree_project(g.d_omega, p, q)
            else:
                assert part.is_zero()
            if g.model.name in ("nil6", "big32"):
                assert not part.is_zero()
            total = total + part
        assert total == g.d_omega
        assert add_ops(*g.d_parts.values()).matrix == g.d.matrix


# -- Hodge star ----------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(_mv(2), _mv(2))
def test_star_defining_property(a, b):
    # a ^ *b = <a, conj b> vol on each degree; use pure-degree projections
    vol = volume(2)
    for k in range(5):
        ak = degree_part(a, k)
        bk = degree_part(b, k)
        assert wedge(ak, hodge_star(bk).conj()) == vol.scale(inner(ak, bk))


def test_star_examples():
    assert hodge_star(Multivector.unit(2)) == volume(2)
    assert hodge_star(coframe(1, 1)) == coframe(1, 2)
    assert hodge_star(coframe(1, 2)) == -coframe(1, 1)


# -- evaluation ----------------------------------------------------------------

def test_form_eval_antisymmetry():
    psi = basis(2, 1, 2, 3)
    v1, v2, v3 = frame(2, 1), frame(2, 2), frame(2, 3)
    assert form_eval(psi, v1, v2, v3) == gq(1)
    assert form_eval(psi, v2, v1, v3) == gq(-1)
    assert form_eval(psi, v1, v1, v3) == gq(0)
