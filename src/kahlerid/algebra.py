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
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .scalars import GaussianRational, ZERO, ONE, I, gq


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


def mask_of(indices) -> int:
    m = 0
    for i in indices:
        b = 1 << (i - 1)
        if m & b:
            raise ValueError(f"repeated index {i} in blade")
        m |= b
    return m


def _cross_count(s: int, t: int) -> int:
    """Number of pairs (a in s, b in t) with a > b."""
    count = 0
    b = 0
    tt = t
    while tt:
        if tt & 1:
            count += bin(s >> (b + 1)).count("1")
        tt >>= 1
        b += 1
    return count


def wedge_sign(s: int, t: int) -> int:
    """Sign with t^S ^ t^T = sign * t^{S|T}; 0 on overlap."""
    if s & t:
        return 0
    return -1 if _cross_count(s, t) & 1 else 1


def clifford_sign(s: int, t: int) -> int:
    """Sign with e_S . e_T = sign * e_{S xor T} for v.v = -<v,v>."""
    sign = _cross_count(s, t) + blade_degree(s & t)
    return -1 if sign & 1 else 1


def contract_sign(s: int, t: int) -> int:
    """Sign with e_S _| t^T = sign * t^{T minus S}; 0 unless S subset T."""
    if s & ~t:
        return 0
    return wedge_sign(s, t & ~s)


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

    @staticmethod
    def basis(n: int, *indices, c=1) -> "Multivector":
        """Blade with the given 1-based indices, e.g. basis(3, 1, 4)."""
        if len(indices) != len(set(indices)):
            raise ValueError("repeated index in blade")
        sign = 1
        perm = list(indices)
        for i in range(len(perm)):
            for j in range(i + 1, len(perm)):
                if perm[i] > perm[j]:
                    sign = -sign
        return Multivector(n, {mask_of(sorted(indices)): _as_scalar(c) * sign})

    # -- access ----------------------------------------------------------
    def coeff(self, *indices) -> GaussianRational:
        return self.coeffs.get(mask_of(sorted(indices)), ZERO)

    def is_zero(self) -> bool:
        return not self.coeffs

    def degrees(self) -> set[int]:
        return {blade_degree(m) for m in self.coeffs}

    def degree_part(self, k: int) -> "Multivector":
        return Multivector(
            self.n, {m: c for m, c in self.coeffs.items() if blade_degree(m) == k}
        )

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

    def __mul__(self, c):
        return self.scale(c)

    __rmul__ = __mul__

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

    def __hash__(self):
        return hash((self.n, frozenset(self.coeffs.items())))

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
# products
# ---------------------------------------------------------------------------

def wedge(a: Multivector, b: Multivector) -> Multivector:
    a._check(b)
    out: dict[int, GaussianRational] = {}
    for s, cs in a.coeffs.items():
        for t, ct in b.coeffs.items():
            sg = wedge_sign(s, t)
            if not sg:
                continue
            m = s | t
            v = out.get(m, ZERO) + cs * ct * sg
            if v:
                out[m] = v
            else:
                out.pop(m, None)
    return Multivector(a.n, out)


def clifford_mul(a: Multivector, b: Multivector) -> Multivector:
    """Clifford product with v.v = -<v,v> (so e.phi = e^phi - e _| phi)."""
    a._check(b)
    out: dict[int, GaussianRational] = {}
    for s, cs in a.coeffs.items():
        for t, ct in b.coeffs.items():
            m = s ^ t
            v = out.get(m, ZERO) + cs * ct * clifford_sign(s, t)
            if v:
                out[m] = v
            else:
                out.pop(m, None)
    return Multivector(a.n, out)


def contract(a: Multivector, b: Multivector) -> Multivector:
    """Bilinear interior product: contract(e_S, t^T) = sign * t^{T-S}.

    Bilinear in both slots; the adjoint relation it satisfies is
    <contract(a, b), c> = <b, wedge(conj(a), c)>.
    """
    a._check(b)
    out: dict[int, GaussianRational] = {}
    for s, cs in a.coeffs.items():
        for t, ct in b.coeffs.items():
            sg = contract_sign(s, t)
            if not sg:
                continue
            m = t & ~s
            v = out.get(m, ZERO) + cs * ct * sg
            if v:
                out[m] = v
            else:
                out.pop(m, None)
    return Multivector(a.n, out)


def inner(a: Multivector, b: Multivector) -> GaussianRational:
    """Hermitian inner product; blades orthonormal, conjugate-linear in b."""
    a._check(b)
    if len(b.coeffs) < len(a.coeffs):
        small, big, flip = b, a, True
    else:
        small, big, flip = a, b, False
    tot = ZERO
    for m, c in small.coeffs.items():
        d = big.coeffs.get(m)
        if d is not None:
            tot = tot + (c * d.conjugate() if not flip else d * c.conjugate())
    return tot


def flat(a: Multivector) -> Multivector:
    """Musical isomorphism to forms; identity on coefficients here."""
    return a


def sharp(a: Multivector) -> Multivector:
    """Musical isomorphism to polyvectors; identity on coefficients here."""
    return a


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

    def volume(self) -> Multivector:
        return Multivector(self.n, {(1 << (2 * self.n)) - 1: ONE})

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


def _j_factor(i: int, n: int, dual: bool) -> tuple[int, int]:
    st = AdaptedStructure(n)
    return st.pair_dual(i) if dual else st.pair(i)


def j_vector(a: Multivector, picture: str = "cl") -> Multivector:
    """Apply J (cl) or J* (ext) factor-wise on the degree-1 part.

    Degree-0 parts pass through unchanged; higher degree is rejected.
    """
    dual = _dual_of(picture)
    out: dict[int, GaussianRational] = {}
    for m, c in a.coeffs.items():
        d = blade_degree(m)
        if d == 0:
            out[m] = out.get(m, ZERO) + c
        elif d == 1:
            i = blade_indices(m)[0]
            j, sg = _j_factor(i, a.n, dual)
            mm = 1 << (j - 1)
            v = out.get(mm, ZERO) + c * sg
            if v:
                out[mm] = v
            else:
                out.pop(mm, None)
        else:
            raise ValueError("j_vector only acts on degrees 0 and 1")
    return Multivector(a.n, out)


def _dual_of(picture: str) -> bool:
    if picture == "ext":
        return True
    if picture == "cl":
        return False
    raise ValueError(f"unknown picture {picture!r}; expected 'ext' or 'cl'")


def j_algebra(a: Multivector, picture: str = "ext") -> Multivector:
    """Multiplicative extension of J (or J* on forms) to the whole algebra."""
    dual = _dual_of(picture)
    n = a.n
    out: dict[int, GaussianRational] = {}
    for m, c in a.coeffs.items():
        acc_mask = 0
        sign = 1
        for i in blade_indices(m):
            j, sg = _j_factor(i, n, dual)
            b = 1 << (j - 1)
            ws = wedge_sign(acc_mask, b)
            sign *= sg * ws
            acc_mask |= b
        v = out.get(acc_mask, ZERO) + c * sign
        if v:
            out[acc_mask] = v
        else:
            out.pop(acc_mask, None)
    return Multivector(n, out)


def j_derivation(a: Multivector, picture: str = "ext") -> Multivector:
    """Derivation extension of J (or J*): acts on one factor at a time."""
    dual = _dual_of(picture)
    n = a.n
    out: dict[int, GaussianRational] = {}
    for m, c in a.coeffs.items():
        idx = blade_indices(m)
        for pos, i in enumerate(idx):
            j, sg = _j_factor(i, n, dual)
            b = 1 << (j - 1)
            rest = m & ~(1 << (i - 1))
            if rest & b:
                continue
            # move replaced factor from slot pos to its sorted slot
            before = bin(rest & (b - 1)).count("1")
            sign = sg if ((before + pos) % 2 == 0) else -sg
            mm = rest | b
            v = out.get(mm, ZERO) + c * sign
            if v:
                out[mm] = v
            else:
                out.pop(mm, None)
    return Multivector(n, out)


# ---------------------------------------------------------------------------
# bidegree
# ---------------------------------------------------------------------------

def degree_spectrum(n: int, k: int) -> list[int]:
    """Possible p-q values on degree-k elements."""
    lo = max(0, k - n)
    hi = min(k, n)
    return [2 * p - k for p in range(lo, hi + 1)]


def bidegree_project(a: Multivector, p: int, q: int, picture: str = "ext") -> Multivector:
    """Component of a in bidegree (p, q).

    The (p, q) space sits inside degree p+q as the i(p-q)-eigenspace of
    the derivation extension of J; the projector is the matching spectral
    polynomial.  (The multiplicative extension has eigenvalue i**(p-q),
    which does not separate (p, q) from (p-2, q+2); the derivation
    extension does.)
    """
    n = a.n
    if not (0 <= p <= n and 0 <= q <= n):
        raise ValueError(f"bidegree ({p},{q}) out of range for n={n}")
    k = p + q
    delta = p - q
    w = a.degree_part(k)
    if w.is_zero():
        return w
    for m in degree_spectrum(n, k):
        if m == delta:
            continue
        # w <- (Jd - i m) w / (i (delta - m))
        w = (j_derivation(w, picture) - w.scale(gq(0, m))).scale(
            ONE / gq(0, delta - m)
        )
    return w


def bidegree_components(a: Multivector, picture: str = "ext") -> dict[tuple[int, int], Multivector]:
    out = {}
    n = a.n
    for k in a.degrees():
        for m in degree_spectrum(n, k):
            p = (k + m) // 2
            q = k - p
            part = bidegree_project(a, p, q, picture)
            if not part.is_zero():
                out[(p, q)] = part
    return out


def three_form_split(psi: Multivector, picture: str = "ext") -> tuple[Multivector, Multivector]:
    """Split a 3-form into its (2,1)+(1,2) and (3,0)+(0,3) parts."""
    if psi.degrees() not in ({3}, set()):
        raise ValueError("three_form_split expects a homogeneous 3-form")
    if psi.n < 2:
        # no (2,1) or (3,0) content can exist; only possible 3-form is 0
        return Multivector.zero(psi.n), Multivector.zero(psi.n)
    plus = bidegree_project(psi, 2, 1, picture) + bidegree_project(psi, 1, 2, picture)
    if psi.n >= 3:
        minus = bidegree_project(psi, 3, 0, picture) + bidegree_project(psi, 0, 3, picture)
    else:
        minus = Multivector.zero(psi.n)
    return plus, minus


# ---------------------------------------------------------------------------
# evaluation and Hodge star
# ---------------------------------------------------------------------------

def _det(rows: list[list[GaussianRational]]) -> GaussianRational:
    k = len(rows)
    if k == 0:
        return ONE
    if k == 1:
        return rows[0][0]
    if k == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    tot = ZERO
    for c in range(k):
        if not rows[0][c]:
            continue
        minor = [[r[j] for j in range(k) if j != c] for r in rows[1:]]
        term = rows[0][c] * _det(minor)
        tot = tot + (term if c % 2 == 0 else -term)
    return tot


def form_eval(psi: Multivector, *vectors: Multivector) -> GaussianRational:
    """Evaluate a k-form on k vectors (alternating multilinear)."""
    k = len(vectors)
    for v in vectors:
        psi._check(v)
        if not v.degrees() <= {1}:
            raise ValueError("form_eval arguments must be vectors (degree 1)")
    tot = ZERO
    for m, c in psi.coeffs.items():
        idx = blade_indices(m)
        if len(idx) != k:
            continue
        rows = [
            [v.coeffs.get(1 << (i - 1), ZERO) for v in vectors]
            for i in idx
        ]
        d = _det(rows)
        if d:
            tot = tot + c * d
    return tot


def hodge_star(a: Multivector) -> Multivector:
    """Hodge star for the orthonormal coframe, volume t^1 ^ ... ^ t^2n."""
    full = (1 << (2 * a.n)) - 1
    out: dict[int, GaussianRational] = {}
    for m, c in a.coeffs.items():
        comp = full & ~m
        out[comp] = c * wedge_sign(m, comp)
    return Multivector(a.n, out)
