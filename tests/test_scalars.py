"""GaussianRational against a pair-of-Fractions reference."""
import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kahlerid.scalars import GaussianRational, from_parts

rationals = st.one_of(
    st.integers(-3, 3).map(Fraction),
    st.fractions(max_denominator=10**6),
    st.builds(Fraction, st.integers(-2**70, 2**70), st.integers(1, 2**70)),
)
pairs = st.tuples(rationals, rationals)
# a real operand of mixed arithmetic: an int or a Fraction
reals = st.one_of(st.integers(-10**20, 10**20), rationals)


def ref(x) -> tuple[Fraction, Fraction]:
    """The (re, im) pair of a scalar, an int or a Fraction."""
    if isinstance(x, GaussianRational):
        return x.re, x.im
    return Fraction(x), Fraction(0)


def ref_mul(x, y):
    (a, b), (c, d) = x, y
    return a * c - b * d, a * d + b * c


def ref_div(x, y):
    (a, b), (c, d) = x, y
    n = c * c + d * d
    if not n:
        raise ZeroDivisionError
    return (a * c + b * d) / n, (b * c - a * d) / n


def ref_repr(p) -> str:
    re, im = p
    if not im:
        return str(re)
    if not re:
        return f"{im}i" if im != 1 else "i"
    sign = "+" if im > 0 else "-"
    mag = abs(im)
    istr = "i" if mag == 1 else f"{mag}i"
    return f"{re}{sign}{istr}"


OPS = {
    "+": (lambda x, y: x + y, lambda p, q: (p[0] + q[0], p[1] + q[1])),
    "-": (lambda x, y: x - y, lambda p, q: (p[0] - q[0], p[1] - q[1])),
    "*": (lambda x, y: x * y, ref_mul),
    "/": (lambda x, y: x / y, ref_div),
}


def check(op, x, y):
    fn, want = OPS[op]
    try:
        expected = want(ref(x), ref(y))
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            fn(x, y)
        return
    got = fn(x, y)
    assert isinstance(got, GaussianRational)
    assert ref(got) == expected
    assert_normal(got)


def assert_normal(g: GaussianRational):
    a, b, d = g.parts
    assert d > 0 and math.gcd(a, b, d) == 1
    assert (Fraction(a, d), Fraction(b, d)) == (g.re, g.im)
    assert type(g.re) is Fraction and type(g.im) is Fraction


@settings(max_examples=300, deadline=None)
@given(pairs, pairs, st.sampled_from(sorted(OPS)))
def test_arithmetic_matches_the_reference(p, q, op):
    check(op, GaussianRational(*p), GaussianRational(*q))


@settings(max_examples=300, deadline=None)
@given(pairs, reals, st.sampled_from(sorted(OPS)))
def test_mixed_arithmetic_coerces_on_either_side(p, k, op):
    g = GaussianRational(*p)
    check(op, g, k)
    check(op, k, g)
    assert (g == k) == (ref(g) == ref(k)) == (k == g)


@pytest.mark.parametrize("zero", [0, Fraction(0), GaussianRational(0)])
def test_division_by_zero_raises(zero):
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1, 2) / zero
    for num in (1, Fraction(1, 3), GaussianRational(1, 2)):
        with pytest.raises(ZeroDivisionError):
            num / GaussianRational(0)


@settings(max_examples=300, deadline=None)
@given(pairs)
def test_negation_conjugate_and_conversions(p):
    g = GaussianRational(*p)
    re, im = p
    assert ref(-g) == (-re, -im)
    assert ref(g.conjugate()) == (re, -im)
    assert_normal(-g)
    assert_normal(g.conjugate())
    assert bool(g) == bool(re or im)
    assert g.to_complex() == complex(re) + 1j * complex(im)
    assert repr(g) == str(g) == ref_repr(p)


@settings(max_examples=300, deadline=None)
@given(pairs, pairs)
def test_equality_and_hash(p, q):
    g, h = GaussianRational(*p), GaussianRational(*q)
    assert (g == h) == (p == q)
    assert g == GaussianRational(*p) and hash(g) == hash(GaussianRational(*p))
    assert hash(g) == hash(p)


@settings(max_examples=200, deadline=None)
@given(pairs)
def test_copies_and_pickles_round_trip(p):
    g = GaussianRational(*p)
    for clone in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert isinstance(clone, GaussianRational)
        assert clone == g and ref(clone) == p and hash(clone) == hash(g)
        assert clone.parts == g.parts


@settings(max_examples=300, deadline=None)
@given(st.integers(-2**80, 2**80), st.integers(-2**80, 2**80),
       st.integers(-2**80, 2**80).filter(bool))
def test_from_parts_normalizes(a, b, d):
    g = from_parts(a, b, d)
    assert ref(g) == (Fraction(a, d), Fraction(b, d))
    assert_normal(g)
    assert g.parts == GaussianRational(Fraction(a, d), Fraction(b, d)).parts


def test_constructors_and_immutability():
    assert GaussianRational("1/2", "-3") == GaussianRational(Fraction(1, 2), -3)
    assert GaussianRational().parts == (0, 0, 1)
    with pytest.raises(TypeError):
        GaussianRational(0.5)
    with pytest.raises(ZeroDivisionError):
        from_parts(1, 1, 0)
    g = GaussianRational(1, 1)
    with pytest.raises(AttributeError):
        g.re = Fraction(2)
