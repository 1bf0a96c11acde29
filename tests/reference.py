"""Blade-by-blade reference implementations: the tests' oracle.

The package builds every product, every extension of J and the (p, q)
projection as a matrix, from the 2n generator words and the complex frame.
This module computes the same maps one blade at a time, with the sign of
each blade product counted directly, so the tests can compare two
constructions that share nothing but the blade-mask convention of
`kahlerid.algebra`.  Bidegree measurement, which the package runs block by
block under blade degree, is also given here through the dense 4^n x 4^n
complex frame, J-conjugation, which the package applies as a signed
re-indexing, as the product J_a^-1 M J_a, and Betti numbers, which the
package never computes, as exact ranks of d by `Fraction` elimination.
It also defines, once for every test, the two models the tests run beyond
the built-ins, big32 and nil8.
"""
from __future__ import annotations

import random
from fractions import Fraction

from kahlerid.algebra import (
    AdaptedStructure,
    Multivector,
    blade_degree,
    blade_indices,
    frame,
)
from kahlerid.dirac import dirac
import numpy as np

from kahlerid.matrices import ExactMatrix, FloatMatrix, linear_combination
from kahlerid.models import LieModel, from_brackets, nabla
from kahlerid.operators import blade_structure, multiplication_sum
from kahlerid.scalars import GaussianRational, ONE, ZERO, gq


# ---------------------------------------------------------------------------
# models beyond the built-ins
# ---------------------------------------------------------------------------

# {name: (n, {(a, b): {c: c^c_ab}})}: big32 is nil6 with two brackets
# rescaled by 2**32 and 2**-32, an isomorphic algebra whose operators leave
# int64 for Python integers; nil8 is nil6's algebra plus R^2, at n = 4
EXTRA_MODELS = {
    "big32": (3, {(1, 2): {4: -2**32}, (1, 3): {5: -1}, (2, 3): {6: Fraction(-1, 2**32)}}),
    "nil8": (4, {(1, 2): {5: -1}, (1, 3): {6: -1}, (2, 3): {7: -1}}),
}


def extra_model(name: str) -> LieModel:
    n, brackets = EXTRA_MODELS[name]
    return from_brackets(name, n, brackets)


def model_spec(name: str, n: int, brackets: dict) -> dict:
    """The JSON model file of these brackets, as `--model FILE` reads it."""
    return {"name": name, "n": n, "brackets": [
        {"a": a, "b": b, "c": c, "v": str(v)}
        for (a, b), targets in brackets.items() for c, v in targets.items()]}


# ---------------------------------------------------------------------------
# blades and signs
# ---------------------------------------------------------------------------

def basis(n: int, *indices, c=1) -> Multivector:
    """Blade with the given 1-based indices, e.g. basis(3, 1, 4); an index
    order other than ascending contributes the sign of its sorting."""
    if len(indices) != len(set(indices)):
        raise ValueError("repeated index in blade")
    inversions = sum(a > b for k, a in enumerate(indices) for b in indices[k + 1:])
    return Multivector(n, {sum(1 << (i - 1) for i in indices): c}).scale((-1) ** inversions)


def degree_part(a: Multivector, k: int) -> Multivector:
    return Multivector(a.n, {m: c for m, c in a.coeffs.items() if blade_degree(m) == k})


def volume(n: int) -> Multivector:
    return Multivector(n, {(1 << (2 * n)) - 1: ONE})


def _cross_count(s: int, t: int) -> int:
    """Number of pairs (a in s, b in t) with a > b."""
    return sum(bin(s >> (b + 1)).count("1") for b in range(t.bit_length()) if t >> b & 1)


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
# products
# ---------------------------------------------------------------------------

def _bilinear(a: Multivector, b: Multivector, rule) -> Multivector:
    """sum of a_S b_T sign e_M over blade pairs, with (sign, M) = rule(S, T)."""
    a._check(b)
    out: dict[int, GaussianRational] = {}
    for s, cs in a.coeffs.items():
        for t, ct in b.coeffs.items():
            sign, m = rule(s, t)
            if sign:
                out[m] = out.get(m, ZERO) + cs * ct * sign
    return Multivector(a.n, out)


def wedge(a: Multivector, b: Multivector) -> Multivector:
    return _bilinear(a, b, lambda s, t: (wedge_sign(s, t), s | t))


def clifford_mul(a: Multivector, b: Multivector) -> Multivector:
    """Clifford product with v.v = -<v,v> (so e.phi = e^phi - e _| phi)."""
    return _bilinear(a, b, lambda s, t: (clifford_sign(s, t), s ^ t))


def contract(a: Multivector, b: Multivector) -> Multivector:
    """Bilinear interior product: contract(e_S, t^T) = sign * t^{T-S}.

    The adjoint relation it satisfies is <contract(a, b), c> = <b, wedge(conj(a), c)>.
    """
    return _bilinear(a, b, lambda s, t: (contract_sign(s, t), t & ~s))


def inner(a: Multivector, b: Multivector) -> GaussianRational:
    """Hermitian inner product; blades orthonormal, conjugate-linear in b."""
    a._check(b)
    tot = ZERO
    for m, c in a.coeffs.items():
        if m in b.coeffs:
            tot = tot + c * b.coeffs[m].conjugate()
    return tot


# ---------------------------------------------------------------------------
# extensions of J
# ---------------------------------------------------------------------------

def _j_pair(n: int, picture: str):
    """i -> (j, sign) with J e_i = sign e_j (cl) or J* t^i = sign t^j (ext)."""
    st = AdaptedStructure(n)
    return {"ext": st.pair_dual, "cl": st.pair}[picture]


def j_algebra(a: Multivector, picture: str = "ext") -> Multivector:
    """Multiplicative extension of J (or J* on forms) to the whole algebra."""
    pair = _j_pair(a.n, picture)
    out: dict[int, GaussianRational] = {}
    for m, c in a.coeffs.items():
        image, sign = 0, 1
        for i in blade_indices(m):
            j, sg = pair(i)
            sign *= sg * wedge_sign(image, 1 << (j - 1))
            image |= 1 << (j - 1)
        out[image] = out.get(image, ZERO) + c * sign
    return Multivector(a.n, out)


def j_derivation(a: Multivector, picture: str = "ext") -> Multivector:
    """Derivation extension of J (or J*): acts on one factor at a time."""
    pair = _j_pair(a.n, picture)
    out: dict[int, GaussianRational] = {}
    for m, c in a.coeffs.items():
        for pos, i in enumerate(blade_indices(m)):
            j, sg = pair(i)
            b = 1 << (j - 1)
            rest = m & ~(1 << (i - 1))
            if rest & b:
                continue
            # move the replaced factor from slot pos to its sorted slot
            before = bin(rest & (b - 1)).count("1")
            sign = sg if (before + pos) % 2 == 0 else -sg
            out[rest | b] = out.get(rest | b, ZERO) + c * sign
    return Multivector(a.n, out)


# ---------------------------------------------------------------------------
# bidegree by spectral projection
# ---------------------------------------------------------------------------

def degree_spectrum(n: int, k: int) -> list[int]:
    """Possible p-q values on degree-k elements."""
    return [2 * p - k for p in range(max(0, k - n), min(k, n) + 1)]


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
    k, delta = p + q, p - q
    w = degree_part(a, k)
    for m in degree_spectrum(n, k):
        if m != delta:
            # w <- (Jd - i m) w / (i (delta - m))
            w = (j_derivation(w, picture) - w.scale(gq(0, m))).scale(ONE / gq(0, delta - m))
    return w


def bidegree_components(a: Multivector, picture: str = "ext") -> dict[tuple[int, int], Multivector]:
    out = {}
    for k in {blade_degree(m) for m in a.coeffs}:
        for m in degree_spectrum(a.n, k):
            p = (k + m) // 2
            part = bidegree_project(a, p, k - p, picture)
            if not part.is_zero():
                out[(p, k - p)] = part
    return out


# ---------------------------------------------------------------------------
# bidegree through the dense complex frame
# ---------------------------------------------------------------------------

def _dense_frame(op):
    """op's complex frame and the full product U^-1 M U."""
    cf = blade_structure((op.dim.bit_length() - 1) // 2).complex_frame(op.picture)
    return cf, linear_combination([(1, (cf.u_inv, op.matrix, cf.u), None)], op.matrix.shape)


def dense_measured_bidegree(op) -> set[tuple[int, int]]:
    """The shifts of the nonzero entries of the dense U^-1 M U."""
    cf, m = _dense_frame(op)
    return {cf.shift(code) for code in set(cf.shift_code[m.nonzero_mask()].tolist())}


def dense_bidegree_components(op) -> dict[tuple[int, int], ExactMatrix]:
    """U P_(a,b) U^-1 for each shift of P = U^-1 M U, by dense products."""
    cf, m = _dense_frame(op)
    out = {}
    for code in sorted(set(cf.shift_code[m.nonzero_mask()].tolist())):
        keep = cf.shift_code == code
        part = ExactMatrix(np.where(keep, m.re, 0), np.where(keep, m.im, 0), m.den)
        out[cf.shift(code)] = linear_combination([(1, (cf.u, part, cf.u_inv), None)], m.shape)
    return out


# ---------------------------------------------------------------------------
# J-conjugation as a product, Betti numbers by elimination
# ---------------------------------------------------------------------------

def product_conjugate(m, picture: str):
    """J_a^-1 @ m @ J_a, the conjugation m^c as two matrix products, for an
    ExactMatrix m or, with J_a's float views, a FloatMatrix."""
    bs = blade_structure((m.shape[0].bit_length() - 1) // 2)
    j, jinv = getattr(bs, f"Ja_{picture}"), getattr(bs, f"Ja_{picture}_inv")
    if isinstance(m, FloatMatrix):
        j, jinv = FloatMatrix.from_exact(j), FloatMatrix.from_exact(jinv)
    return jinv @ m @ j


def rank(rows: list[list[Fraction]]) -> int:
    """The rank of a matrix given by its rows, by Gaussian elimination."""
    rows = [list(r) for r in rows]
    done = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(done, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[done], rows[pivot] = rows[pivot], rows[done]
        top = rows[done]
        for r in range(done + 1, len(rows)):
            f = rows[r][col] / top[col]
            if f:
                rows[r] = [x - f * y for x, y in zip(rows[r], top)]
        done += 1
    return done


def betti_numbers(d: ExactMatrix, n: int) -> tuple[int, ...]:
    """(b_0, ..., b_2n) of a real differential d on the forms of a
    2n-dimensional Lie algebra: b_k = dim - rank d_k - rank d_(k-1), with
    d_k the block of d from degree k to degree k + 1."""
    if d.has_im():
        raise ValueError("d of a real Lie algebra is real")
    blades = [[m for m in range(4**n) if blade_degree(m) == k] for k in range(2 * n + 1)]
    ranks = [rank([[Fraction(int(d.re[r, c]), d.den) for c in blades[k]]
                   for r in blades[k + 1]]) for k in range(2 * n)] + [0]
    return tuple(len(blades[k]) - ranks[k] - (ranks[k - 1] if k else 0)
                 for k in range(2 * n + 1))


# ---------------------------------------------------------------------------
# evaluation and Hodge star
# ---------------------------------------------------------------------------

def _det(rows: list[list[GaussianRational]]) -> GaussianRational:
    """Laplace expansion along the first row."""
    if not rows:
        return ONE
    tot = ZERO
    for c, x in enumerate(rows[0]):
        if x:
            term = x * _det([r[:c] + r[c + 1:] for r in rows[1:]])
            tot = tot + (term if c % 2 == 0 else -term)
    return tot


def form_eval(psi: Multivector, *vectors: Multivector) -> GaussianRational:
    """Evaluate a k-form on k vectors (alternating multilinear)."""
    for v in vectors:
        psi._check(v)
        if any(blade_degree(m) != 1 for m in v.coeffs):
            raise ValueError("form_eval arguments must be vectors (degree 1)")
    tot = ZERO
    for m, c in psi.coeffs.items():
        idx = blade_indices(m)
        if len(idx) == len(vectors):
            rows = [[v.coeffs.get(1 << (i - 1), ZERO) for v in vectors] for i in idx]
            tot = tot + c * _det(rows)
    return tot


def hodge_star(a: Multivector) -> Multivector:
    """Hodge star for the orthonormal coframe, volume t^1 ^ ... ^ t^2n."""
    full = (1 << (2 * a.n)) - 1
    return Multivector(a.n, {full & ~m: c * wedge_sign(m, full & ~m)
                             for m, c in a.coeffs.items()})


# ---------------------------------------------------------------------------
# operators, column by column
# ---------------------------------------------------------------------------

def matrix_from_blade_action(n, fn) -> ExactMatrix:
    """Build a matrix column by column, calling fn once per basis blade
    (a None result is the zero column)."""
    dim = 4**n
    cols = []
    for mask in range(dim):
        out = fn(Multivector(n, {mask: ONE}))
        cols.append(out.coeffs if out is not None else {})
    return ExactMatrix.from_columns(dim, cols)


def frame_rotation_check(geom, seed: int = 0) -> bool:
    """D is frame-independent: rebuild it from a random signed permutation
    of the orthonormal frame and compare."""
    rng = random.Random(seed)
    n = geom.n
    perm = list(range(1, 2 * n + 1))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in perm]
    nablas = [nabla(geom.connection, n, a) for a in range(1, 2 * n + 1)]
    # nabla is linear in the direction slot: nabla_{s e_a} = s nabla_{e_a}
    pairs = [(frame(n, a).scale(s), nablas[a - 1].matrix.scale(GaussianRational(Fraction(s))))
             for a, s in zip(perm, signs)]
    return multiplication_sum("L", pairs) == dirac(nablas).matrix
