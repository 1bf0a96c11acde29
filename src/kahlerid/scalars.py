"""Exact complex scalars with rational real and imaginary parts.

A GaussianRational is held as one Gaussian-integer numerator over one
positive denominator, (a + b i) / d with d > 0 and gcd(a, b, d) = 1: the
format of every ExactMatrix entry, so a matrix entry or an exact inner
product is read into a scalar from integers, and a scalar into a matrix
coefficient, with no Fraction in between.  The normal form is unique, so
two scalars are equal exactly when their (a, b, d) are.  `re` and `im` are
the exact parts as Fractions, made when they are read.
"""
from __future__ import annotations

import math
from fractions import Fraction


def _rational(x) -> tuple[int, int]:
    """(numerator, denominator) of x in lowest terms, denominator > 0."""
    if isinstance(x, int):
        return int(x), 1
    if isinstance(x, str):
        x = Fraction(x)
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise TypeError(f"cannot build an exact rational from {type(x).__name__}: {x!r}")


def from_parts(a: int, b: int, d: int) -> "GaussianRational":
    """(a + b i) / d for integers a, b and d != 0, normalized."""
    if not d:
        raise ZeroDivisionError("zero denominator")
    if d < 0:
        a, b, d = -a, -b, -d
    g = math.gcd(a, b, d)
    if g > 1:
        a, b, d = a // g, b // g, d // g
    return _make(a, b, d)


def _make(a: int, b: int, d: int) -> "GaussianRational":
    """The scalar (a + b i) / d of a triple already in normal form."""
    x = _new(GaussianRational)
    _set_a(x, a)
    _set_b(x, b)
    _set_d(x, d)
    return x


def _sum(a: int, b: int, d: int, x: int, y: int, e: int) -> "GaussianRational":
    """(a + b i) / d + (x + y i) / e, normalized."""
    if d == e:
        return from_parts(a + x, b + y, d)
    return from_parts(a * e + x * d, b * e + y * d, d * e)


class GaussianRational:
    """A complex number a + bi with a, b exact rationals.

    Supports mixed arithmetic with int and Fraction.  Division is exact;
    there is no rounding anywhere in this class.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        (p, q), (r, t) = _rational(re), _rational(im)
        # over the lcm of two reduced denominators the numerators and the
        # lcm have no common factor: a prime of the lcm divides neither
        # numerator of the part whose denominator holds its full power
        d = q if q == t else math.lcm(q, t)
        _set_a(self, p * (d // q))
        _set_b(self, r * (d // t))
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, since __setattr__ refuses
        return GaussianRational, (self.re, self.im)

    # -- parts -----------------------------------------------------------
    @property
    def parts(self) -> tuple[int, int, int]:
        """(a, b, d) with self = (a + b i) / d, d > 0 and gcd(a, b, d) = 1."""
        return self._a, self._b, self._d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- predicates ------------------------------------------------------
    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    # -- arithmetic ------------------------------------------------------
    @staticmethod
    def _coerce(x):
        """(a, b, d) of x, or NotImplemented."""
        if isinstance(x, GaussianRational):
            return x._a, x._b, x._d
        if isinstance(x, int):
            return x, 0, 1
        if isinstance(x, Fraction):
            return x.numerator, 0, x.denominator
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return _sum(self._a, self._b, self._d, *o)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a, b, d = o
        return _sum(self._a, self._b, self._d, -a, -b, d)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a, b, d = o
        return _sum(a, b, d, -self._a, -self._b, self._d)

    def __neg__(self):
        return _make(-self._a, -self._b, self._d)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a, b, d = o
        return from_parts(self._a * a - self._b * b, self._a * b + self._b * a, self._d * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a, b, d = o
        n = a * a + b * b
        if not n:
            raise ZeroDivisionError("division by zero GaussianRational")
        # (x + y i)/e / ((a + b i)/d) = (x + y i)(a - b i) d / (e (a^2 + b^2))
        x, y = self._a * d, self._b * d
        return from_parts(x * a + y * b, y * a - x * b, self._d * n)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return _make(*o) / self

    def conjugate(self) -> "GaussianRational":
        return _make(self._a, -self._b, self._d)

    # -- comparison / hashing -------------------------------------------
    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return (self._a, self._b, self._d) == o

    def __hash__(self):
        return hash((self.re, self.im))

    # -- conversion ------------------------------------------------------
    def to_complex(self) -> complex:
        return complex(self._a / self._d) + 1j * complex(self._b / self._d)

    def __repr__(self):
        re, im = self.re, self.im
        if not im:
            return str(re)
        if not re:
            return f"{im}i" if im != 1 else "i"
        sign = "+" if im > 0 else "-"
        mag = abs(im)
        istr = "i" if mag == 1 else f"{mag}i"
        return f"{re}{sign}{istr}"


# the slots are set through their descriptors, past the refusing __setattr__
_new = object.__new__
_set_a, _set_b, _set_d = (GaussianRational.__dict__[k].__set__ for k in ("_a", "_b", "_d"))

ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def gq(re=0, im=0) -> GaussianRational:
    """Shorthand constructor."""
    return GaussianRational(re, im)


def i_power(k: int) -> GaussianRational:
    """i**k for any integer k."""
    return (ONE, I, GaussianRational(-1), GaussianRational(0, -1))[k % 4]
