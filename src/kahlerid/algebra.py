"""Exterior and Clifford algebra over an adapted orthonormal frame.

Everything lives on a 2n-dimensional real inner-product space with
orthonormal frame e_1..e_2n and dual coframe t^1..t^2n.  The adapted
almost complex structure acts by

    J e_i = e_{i+n},   J e_{i+n} = -e_i          (1 <= i <= n)
    J* t^i = -t^{i+n}, J* t^{i+n} = t^i          (pullback: (J*a)(X) = a(JX))

Multivectors are sparse dicts keyed by blade bitmasks (bit i-1 set means
index i is present), with exact GaussianRational coefficients.  The same
container serves both pictures: polyvectors/Clifford elements ("cl") and
forms ("ext"); the musical isomorphisms are the identity on coefficients.
Products, the extensions of J to the whole algebra and the bidegree
projection are matrices, built in `operators` from the 2n generators.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .scalars import GaussianRational, ZERO, ONE, I


# ---------------------------------------------------------------------------
# blade bitmask utilities
# ---------------------------------------------------------------------------

def blade_degree(mask: int) -> int:
    return bin(mask).count("1")


def blade_indices(mask: int) -> tuple[int, ...]:
    """1-based ascending indices of a blade mask."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


# ---------------------------------------------------------------------------
# multivectors
# ---------------------------------------------------------------------------

def _as_scalar(c) -> GaussianRational:
    if isinstance(c, GaussianRational):
        return c
    if isinstance(c, (int, Fraction)):
        return GaussianRational(c)
    raise TypeError(f"not an exact scalar: {c!r}")


class Multivector:
    """Sparse exact multivector on the rank-2n algebra (dimension 4^n)."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs=None):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = n
        clean: dict[int, GaussianRational] = {}
        top = 1 << (2 * n)
        if coeffs:
            for mask, c in coeffs.items():
                c = _as_scalar(c)
                if not c:
                    continue
                if not 0 <= mask < top:
                    raise ValueError(f"blade mask {mask} out of range for n={n}")
                clean[mask] = c
        self.coeffs = clean

    # -- constructors ----------------------------------------------------
    @staticmethod
    def zero(n: int) -> "Multivector":
        return Multivector(n)

    @staticmethod
    def unit(n: int, c=1) -> "Multivector":
        return Multivector(n, {0: _as_scalar(c)})

    # -- access ----------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.coeffs

    # -- linear structure --------------------------------------------------
    def __add__(self, other: "Multivector") -> "Multivector":
        self._check(other)
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            s = out.get(m, ZERO) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        r = Multivector.__new__(Multivector)
        r.n = self.n
        r.coeffs = out
        return r

    def __sub__(self, other: "Multivector") -> "Multivector":
        return self + (-other)

    def __neg__(self) -> "Multivector":
        return self.scale(-1)

    def scale(self, c) -> "Multivector":
        c = _as_scalar(c)
        if not c:
            return Multivector(self.n)
        r = Multivector.__new__(Multivector)
        r.n = self.n
        r.coeffs = {m: v * c for m, v in self.coeffs.items()}
        return r

    def conj(self) -> "Multivector":
        """Entrywise complex conjugation in the real blade basis."""
        r = Multivector.__new__(Multivector)
        r.n = self.n
        r.coeffs = {m: v.conjugate() for m, v in self.coeffs.items()}
        return r

    def __eq__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def _check(self, other: "Multivector"):
        if not isinstance(other, Multivector):
            raise TypeError("expected a Multivector")
        if self.n != other.n:
            raise ValueError("multivectors live on different spaces")

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for m in sorted(self.coeffs, key=lambda m: (blade_degree(m), m)):
            c = self.coeffs[m]
            idx = ",".join(str(i) for i in blade_indices(m)) or "()"
            parts.append(f"({c})*b[{idx}]")
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# adapted almost complex structure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdaptedStructure:
    """The standard J in an adapted orthonormal frame on dimension 2n."""

    n: int

    def pair(self, i: int) -> tuple[int, int]:
        """J e_i = sign * e_j on frame vectors (1-based)."""
        n = self.n
        if 1 <= i <= n:
            return i + n, 1
        if n < i <= 2 * n:
            return i - n, -1
        raise ValueError(f"frame index {i} out of range")

    def pair_dual(self, i: int) -> tuple[int, int]:
        """J* t^i = sign * t^j on coframe covectors (pullback convention)."""
        j, s = self.pair(i)
        return j, -s

    def omega(self) -> Multivector:
        """Fundamental 2-form sum_i t^i ^ t^{i+n} (same coefficients in cl)."""
        n = self.n
        return Multivector(
            n, {(1 << (i - 1)) | (1 << (i - 1 + n)): ONE for i in range(1, n + 1)}
        )

    # complex frame helpers -------------------------------------------------
    def zeta(self, j: int) -> Multivector:
        """(1,0) coframe form t^j + i t^{j+n}."""
        self._chk(j)
        return Multivector(self.n, {1 << (j - 1): ONE, 1 << (j - 1 + self.n): I})

    def zeta_bar(self, j: int) -> Multivector:
        self._chk(j)
        return Multivector(self.n, {1 << (j - 1): ONE, 1 << (j - 1 + self.n): -I})

    def _chk(self, j: int):
        if not 1 <= j <= self.n:
            raise ValueError(f"pair index {j} out of range 1..{self.n}")


def coframe(n: int, i: int) -> Multivector:
    """t^i (1-based)."""
    if not 1 <= i <= 2 * n:
        raise ValueError(f"index {i} out of range")
    return Multivector(n, {1 << (i - 1): ONE})


def frame(n: int, i: int) -> Multivector:
    """e_i (1-based); same container as coframe, kept for readability."""
    return coframe(n, i)


def j_vector(a: Multivector, picture: str = "cl") -> Multivector:
    """Apply J (cl) or J* (ext) factor-wise on the degree-1 part.

    Degree-0 parts pass through unchanged; higher degree is rejected.
    """
    if picture not in ("ext", "cl"):
        raise ValueError(f"unknown picture {picture!r}; expected 'ext' or 'cl'")
    st = AdaptedStructure(a.n)
    pair = st.pair_dual if picture == "ext" else st.pair
    out: dict[int, GaussianRational] = {}
    for m, c in a.coeffs.items():
        d = blade_degree(m)
        if d == 0:
            out[m] = c
        elif d == 1:
            j, sg = pair(m.bit_length())
            out[1 << (j - 1)] = c * sg
        else:
            raise ValueError("j_vector only acts on degrees 0 and 1")
    return Multivector(a.n, out)
