"""Linear operators on the blade coefficient space, and the exterior zoo.

Operators are dense exact (or float) matrices indexed by blade masks,
tagged with a picture ("ext" for forms, "cl" for Clifford/polyvectors),
a parity computed from the matrix, and an optional declared bidegree.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .algebra import (
    AdaptedStructure,
    Multivector,
    blade_degree,
    blade_indices,
    contract,
    degree_spectrum,
    frame,
    hodge_star,
    j_algebra,
    j_derivation,
)
from .matrices import ExactMatrix, FloatMatrix
from .scalars import ONE, gq

PICTURES = ("ext", "cl")


class StructuralError(RuntimeError):
    """An operation was asked of operands that structurally cannot support it."""


@dataclass(frozen=True)
class LinearOperator:
    name: str
    matrix: ExactMatrix | FloatMatrix
    picture: str
    parity: str  # "even" | "odd" | "mixed"
    bidegree: tuple[int, int] | None = None

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def is_zero(self) -> bool:
        return self.matrix.is_zero()

    def renamed(self, name: str) -> "LinearOperator":
        return replace(self, name=name)


# ---------------------------------------------------------------------------
# per-dimension structure cache
# ---------------------------------------------------------------------------

class BladeStructure:
    """Shared per-n data: gradings, J matrices, projectors, conversions."""

    def __init__(self, n: int):
        self.n = n
        self.dim = 4**n
        self.structure = AdaptedStructure(n)
        degs = np.array([blade_degree(m) for m in range(self.dim)], dtype=np.int64)
        self.degrees = degs
        self.even_mask = (degs % 2) == 0
        self.odd_mask = ~self.even_mask
        self.degree_indices = {
            k: np.nonzero(degs == k)[0] for k in range(2 * n + 1)
        }
        self.identity = ExactMatrix.identity(self.dim)
        self.parity_sign = ExactMatrix.diag([(-1) ** int(k) for k in degs])
        self.degree_proj = {
            k: ExactMatrix.diag([1 if d == k else 0 for d in degs])
            for k in range(2 * n + 1)
        }
        self.Ja_ext = self._blade_matrix(lambda mv: j_algebra(mv, "ext"))
        self.Jd_ext = self._blade_matrix(lambda mv: j_derivation(mv, "ext"))
        self.Ja_cl = self._blade_matrix(lambda mv: j_algebra(mv, "cl"))
        self.Jd_cl = self._blade_matrix(lambda mv: j_derivation(mv, "cl"))
        # J_a is a real signed permutation: inverse = transpose
        self.Ja_ext_inv = self.Ja_ext.transpose()
        self.Ja_cl_inv = self.Ja_cl.transpose()
        self.hodge = self._blade_matrix(hodge_star)
        self._proj: dict[str, dict[tuple[int, int], ExactMatrix]] = {}
        self._proj_blocks: dict[str, dict[tuple[int, int], ExactMatrix]] = {}
        # Generators as row signs, (G_i M)[r] = sign[r] * M[r ^ bit_i]:
        # E_i = t^i ^ ., C_i = E_i^T = e_i _| ., L_i = E_i - C_i = e_i . (left
        # Clifford), R_i = (E_i + C_i) par = . e_i (right Clifford).
        self.rows = np.arange(self.dim)
        parity = 1 - 2 * (degs % 2)
        self.generator_signs: dict[str, list[np.ndarray]] = {k: [] for k in "ECLR"}
        for i in range(2 * n):
            bit = 1 << i
            before = parity[self.rows & (bit - 1)]
            e = np.where(self.rows & bit, before, 0)
            c = np.where(self.rows & bit, 0, before)
            for kind, sign in zip("ECLR", (e, c, e - c, -parity * (e + c))):
                self.generator_signs[kind].append(sign)

    # -- conversions -------------------------------------------------------
    def mv(self, mask: int) -> Multivector:
        return Multivector(self.n, {mask: ONE})

    def to_column(self, a: Multivector) -> ExactMatrix:
        return ExactMatrix.column(self.dim, a.coeffs)

    def to_multivector(self, col: ExactMatrix) -> Multivector:
        if col.shape != (self.dim, 1):
            raise ValueError("expected a column vector")
        return Multivector(self.n, col.column_dict(0))

    def _blade_matrix(self, fn) -> ExactMatrix:
        cols = [fn(self.mv(m)).coeffs for m in range(self.dim)]
        return ExactMatrix.from_columns(self.dim, cols)

    def word(self, kind: str, mask: int) -> np.ndarray:
        """Row signs of blade mask's generator word W: (W M)[r] = sign[r] * M[r ^ mask].

        E and L words run in ascending index order (t^S = t^s1 ^ ... ^ t^sk),
        C and R words in descending order (e_S _| = C_sk ... C_s1).
        """
        idx = blade_indices(mask)
        if kind in ("C", "R"):
            idx = idx[::-1]
        sign = np.ones(self.dim, dtype=np.int64)
        flip = 0
        for i in idx:
            sign = sign * self.generator_signs[kind][i - 1][self.rows ^ flip]
            flip |= 1 << (i - 1)
        return sign

    # -- bidegree projectors -------------------------------------------------
    def bidegree_pairs(self) -> list[tuple[int, int]]:
        out = []
        for k in range(2 * self.n + 1):
            for m in degree_spectrum(self.n, k):
                out.append(((k + m) // 2, (k - m) // 2))
        return out

    def projectors(self, picture: str) -> dict[tuple[int, int], ExactMatrix]:
        """Full-dimension projector matrices onto each bidegree."""
        if picture not in self._proj:
            jd = self.Jd_ext if picture == "ext" else self.Jd_cl
            out = {}
            for p, q in self.bidegree_pairs():
                k = p + q
                delta = p - q
                mat = self.degree_proj[k]
                for m in degree_spectrum(self.n, k):
                    if m == delta:
                        continue
                    mat = (jd @ mat - mat.scale(gq(0, m))).scale(
                        ONE / gq(0, delta - m)
                    )
                out[(p, q)] = mat
            self._proj[picture] = out
        return self._proj[picture]

    def projector_blocks(self, picture: str) -> dict[tuple[int, int], ExactMatrix]:
        """Projector restricted to its own degree block (small matrices)."""
        if picture not in self._proj_blocks:
            full = self.projectors(picture)
            out = {}
            for (p, q), mat in full.items():
                idx = self.degree_indices[p + q]
                out[(p, q)] = _submatrix(mat, idx, idx)
            self._proj_blocks[picture] = out
        return self._proj_blocks[picture]


def _submatrix(m: ExactMatrix, rows: np.ndarray, cols: np.ndarray) -> ExactMatrix:
    grid = np.ix_(rows, cols)
    return ExactMatrix(m.re[grid].copy(), m.im[grid].copy(), m.den)


@functools.lru_cache(maxsize=None)
def blade_structure(n: int) -> BladeStructure:
    return BladeStructure(n)


def _n_from_dim(dim: int) -> int:
    n = 0
    d = dim
    while d > 1:
        d //= 4
        n += 1
    if 4**n != dim:
        raise ValueError(f"dimension {dim} is not a power of 4")
    return n


# ---------------------------------------------------------------------------
# operator construction
# ---------------------------------------------------------------------------

def compute_parity(matrix, bs: BladeStructure) -> str:
    if isinstance(matrix, FloatMatrix):
        data = matrix.data
        ee = np.any(data[np.ix_(bs.even_mask, bs.even_mask)]) or np.any(
            data[np.ix_(bs.odd_mask, bs.odd_mask)]
        )
        eo = np.any(data[np.ix_(bs.even_mask, bs.odd_mask)]) or np.any(
            data[np.ix_(bs.odd_mask, bs.even_mask)]
        )
    else:
        def block_nonzero(rows, cols):
            grid = np.ix_(rows, cols)
            return bool(np.any(matrix.re[grid]) or np.any(matrix.im[grid]))

        ee = block_nonzero(bs.even_mask, bs.even_mask) or block_nonzero(
            bs.odd_mask, bs.odd_mask
        )
        eo = block_nonzero(bs.even_mask, bs.odd_mask) or block_nonzero(
            bs.odd_mask, bs.even_mask
        )
    if ee and eo:
        return "mixed"
    if eo:
        return "odd"
    return "even"


def make_operator(name, matrix, picture, bidegree=None) -> LinearOperator:
    if picture not in PICTURES:
        raise ValueError(f"unknown picture {picture!r}")
    bs = blade_structure(_n_from_dim(matrix.shape[0]))
    return LinearOperator(name, matrix, picture, compute_parity(matrix, bs), bidegree)


def operator_from_blade_action(n, fn, name, picture, bidegree=None) -> LinearOperator:
    """Build an operator column-by-column from its action on basis blades."""
    bs = blade_structure(n)
    cols = []
    for mask in range(bs.dim):
        out = fn(bs.mv(mask))
        cols.append(out.coeffs if out is not None else {})
    return make_operator(name, ExactMatrix.from_columns(bs.dim, cols), picture, bidegree)


def apply_operator(op: LinearOperator, a: Multivector) -> Multivector:
    bs = blade_structure(a.n)
    if not isinstance(op.matrix, ExactMatrix):
        raise StructuralError("apply_operator requires an exact matrix")
    return bs.to_multivector(op.matrix @ bs.to_column(a))


# ---------------------------------------------------------------------------
# operator calculus
# ---------------------------------------------------------------------------

def _parity_sign(p: str, q: str) -> int:
    return -1 if (p == "odd" and q == "odd") else 1


def supercommutator(a: LinearOperator, b: LinearOperator) -> LinearOperator:
    """Graded commutator [a, b] = ab - (-1)^{|a||b|} ba."""
    if a.picture != b.picture:
        raise StructuralError(
            f"cannot commute {a.name} ({a.picture}) with {b.name} ({b.picture})"
        )
    if a.parity == "mixed" or b.parity == "mixed":
        raise StructuralError(
            f"supercommutator needs definite parity, got"
            f" {a.name}:{a.parity}, {b.name}:{b.parity}"
        )
    sign = _parity_sign(a.parity, b.parity)
    ab = a.matrix @ b.matrix
    ba = b.matrix @ a.matrix
    mat = ab - ba if sign == 1 else ab + ba
    bid = None
    if a.bidegree is not None and b.bidegree is not None:
        bid = (a.bidegree[0] + b.bidegree[0], a.bidegree[1] + b.bidegree[1])
    return make_operator(f"[{a.name},{b.name}]", mat, a.picture, bid)


def compose(a: LinearOperator, b: LinearOperator) -> LinearOperator:
    if a.picture != b.picture:
        raise StructuralError("cannot compose operators from different pictures")
    bid = None
    if a.bidegree is not None and b.bidegree is not None:
        bid = (a.bidegree[0] + b.bidegree[0], a.bidegree[1] + b.bidegree[1])
    return make_operator(f"({a.name}.{b.name})", a.matrix @ b.matrix, a.picture, bid)


def adjoint(op: LinearOperator) -> LinearOperator:
    bid = None if op.bidegree is None else (-op.bidegree[0], -op.bidegree[1])
    return make_operator(f"{op.name}*", op.matrix.adjoint(), op.picture, bid)


def conjugate(op: LinearOperator) -> LinearOperator:
    """J-conjugation P^c: J_a^{-1} P J_a in the operator's own picture."""
    bs = blade_structure(_n_from_dim(op.dim))
    if isinstance(op.matrix, FloatMatrix):
        j = FloatMatrix.from_exact(bs.Ja_ext if op.picture == "ext" else bs.Ja_cl)
        jinv = FloatMatrix.from_exact(
            bs.Ja_ext_inv if op.picture == "ext" else bs.Ja_cl_inv
        )
    else:
        j = bs.Ja_ext if op.picture == "ext" else bs.Ja_cl
        jinv = bs.Ja_ext_inv if op.picture == "ext" else bs.Ja_cl_inv
    return make_operator(f"{op.name}^c", jinv @ (op.matrix @ j), op.picture, op.bidegree)


def bar(op: LinearOperator) -> LinearOperator:
    """Entrywise conjugation (conj . P . conj); swaps declared bidegree."""
    bid = None if op.bidegree is None else (op.bidegree[1], op.bidegree[0])
    return make_operator(f"bar({op.name})", op.matrix.bar(), op.picture, bid)


def transport(op: LinearOperator) -> LinearOperator:
    """Musical transport: same coefficient matrix, other picture."""
    other = "cl" if op.picture == "ext" else "ext"
    return LinearOperator(f"{op.name}~", op.matrix, other, op.parity, op.bidegree)


def scale_op(op: LinearOperator, c) -> LinearOperator:
    return make_operator(f"({c})*{op.name}", op.matrix.scale(c), op.picture, op.bidegree)


def add_ops(*ops: LinearOperator) -> LinearOperator:
    first = ops[0]
    mat = first.matrix
    for o in ops[1:]:
        if o.picture != first.picture:
            raise StructuralError("cannot add operators from different pictures")
        mat = mat + o.matrix
    name = "+".join(o.name for o in ops)
    return make_operator(f"({name})", mat, first.picture)


# ---------------------------------------------------------------------------
# bidegree measurement
# ---------------------------------------------------------------------------

def _block_map(matrix: ExactMatrix, bs: BladeStructure):
    """Nonzero degree blocks of a matrix: {(l, k): submatrix}."""
    out = {}
    for k, cols in bs.degree_indices.items():
        if len(cols) == 0:
            continue
        for l, rows in bs.degree_indices.items():
            grid = np.ix_(rows, cols)
            if np.any(matrix.re[grid]) or np.any(matrix.im[grid]):
                out[(l, k)] = ExactMatrix(
                    matrix.re[grid].copy(), matrix.im[grid].copy(), matrix.den
                )
    return out


def operator_bidegree_components(op: LinearOperator) -> dict[tuple[int, int], ExactMatrix]:
    """Decompose P = sum of components with pure bidegree shift (a, b).

    Keys are shifts; values are degree-block sandwiches Pi_{p+a,q+b} P Pi_{p,q}
    summed over sources and reassembled to full dimension.
    """
    if not isinstance(op.matrix, ExactMatrix):
        raise StructuralError("bidegree measurement requires an exact matrix")
    bs = blade_structure(_n_from_dim(op.dim))
    blocks = _block_map(op.matrix, bs)
    proj = bs.projector_blocks(op.picture)
    pairs_by_degree: dict[int, list[tuple[int, int]]] = {}
    for p, q in bs.bidegree_pairs():
        pairs_by_degree.setdefault(p + q, []).append((p, q))
    acc: dict[tuple[int, int], dict] = {}
    for (l, k), blk in blocks.items():
        for (p, q) in pairs_by_degree[k]:
            y = blk @ proj[(p, q)]
            if y.is_zero():
                continue
            for (r, s) in pairs_by_degree[l]:
                z = proj[(r, s)] @ y
                if z.is_zero():
                    continue
                shift = (r - p, s - q)
                slot = acc.setdefault(shift, {})
                key = (l, k)
                slot[key] = slot[key] + z if key in slot else z
    out = {}
    for shift, blockmap in acc.items():
        out[shift] = _assemble_blocks(blockmap, bs)
    return out


def _assemble_blocks(blockmap, bs: BladeStructure) -> ExactMatrix:
    den = 1
    for b in blockmap.values():
        den = math.lcm(den, b.den)
    re = np.zeros((bs.dim, bs.dim), dtype=object)
    im = np.zeros((bs.dim, bs.dim), dtype=object)
    for (l, k), b in blockmap.items():
        rows = bs.degree_indices[l]
        cols = bs.degree_indices[k]
        f = den // b.den
        grid = np.ix_(rows, cols)
        re[grid] = b.re.astype(object) * f
        im[grid] = b.im.astype(object) * f
    return ExactMatrix(re, im, den)


def measured_bidegree(op: LinearOperator) -> set[tuple[int, int]]:
    """Set of bidegree shifts (a, b) on which P has a nonzero component."""
    return set(operator_bidegree_components(op))


def bidegree_decompose(op: LinearOperator) -> dict[tuple[int, int], LinearOperator]:
    return {
        shift: make_operator(f"{op.name}[{shift[0]},{shift[1]}]", mat, op.picture, shift)
        for shift, mat in operator_bidegree_components(op).items()
    }


# ---------------------------------------------------------------------------
# multiplication operators and derivations
# ---------------------------------------------------------------------------

def multiplication(phi: Multivector, kind: str, start: ExactMatrix | None = None) -> ExactMatrix:
    """sum_S phi_S W_S @ start over phi's blades S, W_S the generator word of kind.

    kind "E" multiplies by phi ^ ., "C" by phi _| ., "L" and "R" by phi on
    the left and right in the Clifford algebra.  Each word is a signed
    permutation, applied to start as a row gather, never as a matmul.
    """
    bs = blade_structure(phi.n)
    start = bs.identity if start is None else start
    total = ExactMatrix.zeros(*start.shape)
    for mask, c in phi.coeffs.items():
        sign = bs.word(kind, mask)[:, None]
        rows = bs.rows ^ mask
        term = ExactMatrix(sign * start.re[rows], sign * start.im[rows], start.den)
        total = total + term.scale(c)
    return total


def derivation(images: dict[int, Multivector], name: str, picture: str,
               bidegree=None) -> LinearOperator:
    """The graded derivation t^i -> images[i] that kills scalars: sum_i E_{images[i]} C_i.

    C_i carries the Koszul sign of passing t^i over the factors before it;
    odd images pay it back as they move into place, so one formula gives a
    derivation for odd images and an antiderivation for even ones.
    """
    n = next(iter(images.values())).n
    total = ExactMatrix.zeros(4**n)
    for i, image in images.items():
        if image.coeffs:
            total = total + multiplication(image, "E", multiplication(frame(n, i), "C"))
    return make_operator(name, total, picture, bidegree)


def ext_mult(phi: Multivector, name: str, bidegree=None) -> LinearOperator:
    """Left exterior multiplication E_phi."""
    return make_operator(name, multiplication(phi, "E"), "ext", bidegree)


def int_mult(phi: Multivector, name: str, bidegree=None) -> LinearOperator:
    """Interior multiplication, defined as the adjoint of E_phi."""
    return make_operator(name, multiplication(phi, "E").adjoint(), "ext", bidegree)


def contract_op(phi: Multivector, name: str, bidegree=None) -> LinearOperator:
    """Bilinear contraction by phi (no conjugation of phi's coefficients)."""
    return make_operator(name, multiplication(phi, "C"), "ext", bidegree)


def r_xi(xi: Multivector, name: str, bidegree=None) -> LinearOperator:
    """r_xi(phi) = -sum_A (e_A _| xi) ^ (e_A _| phi).

    For xi of pure bidegree (r, s) this has bidegree (r-1, s-1); it is the
    cross-term operator in the Clifford multiplication expansion.
    """
    n = xi.n
    images = {a: -contract(frame(n, a), xi) for a in range(1, 2 * n + 1)}
    return derivation(images, name, "ext", bidegree)


def k_xi(xi: Multivector, name: str) -> LinearOperator:
    """K_xi(phi) = sum_C (e_C _| xi) ^ (J e_C _| phi)."""
    n = xi.n
    st = AdaptedStructure(n)
    images = {}
    for c in range(1, 2 * n + 1):
        j, s = st.pair(c)  # J e_c = s e_j
        images[j] = contract(frame(n, c), xi).scale(s)
    return derivation(images, name, "ext")


def derivation_rebuild(op: LinearOperator) -> LinearOperator:
    """Extend op's degree-<=1 action as a (graded) derivation over wedge.

    The operand must kill scalars.  Its parity decides the sign rule:
    even -> derivation, odd -> antiderivation.  Comparing the rebuild with
    the original operator verifies the derivation property as a single
    matrix identity.  The wedge rule also certifies Clifford derivations:
    a degree-0 map whose degree-1 block is skew extends identically over
    both products (the contraction corrections cancel in pairs).
    """
    if op.parity == "mixed":
        raise StructuralError("derivation rebuild needs a definite parity")
    n = _n_from_dim(op.dim)
    if not isinstance(op.matrix, ExactMatrix):
        raise StructuralError("derivation rebuild requires an exact matrix")
    if op.matrix.column_dict(0):
        raise StructuralError(f"{op.name} does not kill scalars; not a derivation")
    # definite parity makes every image's degree parity match the sign rule
    images = {
        i: Multivector(n, op.matrix.column_dict(1 << (i - 1))) for i in range(1, 2 * n + 1)
    }
    return derivation(images, f"rebuild({op.name})", op.picture)
