"""Linear operators on the blade coefficient space, and the exterior zoo.

Operators are dense exact (or float) matrices indexed by blade masks,
tagged with a picture ("ext" for forms, "cl" for Clifford/polyvectors)
and a parity, "even" or "odd": measured from the matrix of a leaf, and
carried from the operands by every operation of the calculus.  Bidegree is
never declared: it is measured in the complex frame.

The frame U and U^-1 are block-diagonal under blade degree, and each
`ComplexFrame` keeps its degree blocks and shift-code blocks, built with
the frame.  So U^-1 M U is one blockwise conjugation, V_q M_qp U_p over the
nonzero degree blocks (q, p) of M, on the tier the exact kernel's bound
rule gives.  `measured_bidegree` takes a list of operators and measures
them together: each block pair is one stacked product over the operators
nonzero on it.  `bidegree_decompose`, the one bidegree projector, splits
an operator into its pure-shift parts on the same blocks; the parts of a
form are parts of an operator applied to it (those of d omega are d's
parts applied to omega, see `models.geometry`).  Contraction applies these
matrices to a single column.  J-conjugation P^c = J_a^-1 P J_a makes no
product: J_a sends each blade to +- one blade (`BladeStructure.ja_action`),
so P^c is P re-indexed with signs, for exact and float operators alike.
"""
from __future__ import annotations

import functools
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .algebra import (
    AdaptedStructure,
    Multivector,
    blade_degree,
    blade_indices,
    coframe,
    frame,
    j_vector,
)
from .matrices import ExactMatrix, FloatMatrix, linear_combination, parts_product, product_tier
from .scalars import I

PICTURES = ("ext", "cl")


class StructuralError(RuntimeError):
    """An operation was asked of operands that structurally cannot support it."""


@dataclass(frozen=True)
class LinearOperator:
    matrix: ExactMatrix | FloatMatrix
    picture: str
    parity: str  # "even" | "odd"

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def is_zero(self) -> bool:
        return self.matrix.is_zero()


class LazyMap(Mapping):
    """Names mapped to values that are built on their first read and kept.

    The names are declared up front, so `in`, `len` and iteration build
    nothing, and reading an undeclared name raises KeyError.  A map made
    over parent maps serves their names by reading the parents, so each
    value is built once, in the map that declared it, where its builder's
    own reads resolve.  Assigning to a name replaces its value.
    """

    def __init__(self, *parents: "LazyMap"):
        self._parents = parents
        self._builders = {name: functools.partial(parent.__getitem__, name)
                          for parent in parents for name in parent}
        self._values: dict = {}

    def add(self, name: str, build) -> None:
        """Declare name, its value to be build() on the first read."""
        self._builders[name] = build

    def __setitem__(self, name: str, value) -> None:
        self._builders.setdefault(name, None)
        self._values[name] = value

    def __getitem__(self, name: str):
        if name not in self._values:
            self._values[name] = self._builders[name]()
        return self._values[name]

    def __contains__(self, name) -> bool:
        return name in self._builders

    def __iter__(self):
        return iter(self._builders)

    def __len__(self) -> int:
        return len(self._builders)

    def built(self) -> set[str]:
        """The names whose values exist so far, here or in a parent."""
        return set(self._values).union(*(parent.built() for parent in self._parents))


# ---------------------------------------------------------------------------
# per-dimension structure cache
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComplexFrame:
    """Change of frame U with U^-1 M U diagonal in bidegree.

    Entry (r, c) of U^-1 M U moves bidegree by the shift coded in
    shift_code[r, c]; `shift` decodes it.

    A zeta-wedge of degree k is a combination of real k-blades, so U and
    U^-1 are block-diagonal under blade degree.  `index[k]` lists the
    blades of degree k and `degree_mask[:, k]` marks them, `u_blocks[k]` and
    `v_blocks[k]` hold the (re, im) numerators of U and U^-1 on them
    (float64, exact; a zero part None), and `code_blocks[q][p]` is
    shift_code on the rows of degree q and the columns of degree p.  Block
    (q, p) of U^-1 M U is then V_q M_qp U_p, over u_inv.den * M.den (U has
    denominator 1).
    """

    u: ExactMatrix
    u_inv: ExactMatrix
    shift_code: np.ndarray
    n: int
    degree_mask: np.ndarray
    index: tuple
    u_blocks: tuple
    v_blocks: tuple
    code_blocks: tuple

    def shift(self, code: int) -> tuple[int, int]:
        a, b = divmod(int(code), 2 * self.n + 1)
        return a - self.n, b - self.n


class BladeStructure:
    """Shared per-n data: gradings, J matrices, complex frames, conversions."""

    def __init__(self, n: int):
        self.n = n
        self.dim = 4**n
        self.structure = AdaptedStructure(n)
        degs = np.array([blade_degree(m) for m in range(self.dim)], dtype=np.int64)
        self.degrees = degs
        even = (degs % 2) == 0
        # entries joining blades of opposite parity
        self.cross_parity = even[:, None] != even[None, :]
        self.degree_indices = {
            k: np.nonzero(degs == k)[0] for k in range(2 * n + 1)
        }
        self.identity = ExactMatrix.identity(self.dim)
        parity = 1 - 2 * (degs % 2)
        self.parity_sign = ExactMatrix(np.diag(parity), None, 1)
        # the projector onto degree 1, the only degree projector read
        self.proj1 = ExactMatrix(np.diag((degs == 1).astype(np.int64)), None, 1)
        self.rows = np.arange(self.dim)
        # J_a sends each factor t^i to +-t^{i+n} (i <= n) or +-t^{i-n} (i > n),
        # so blade m to +-blade swap[m].  With p and q the factors of m at
        # most and above n, sorting the images costs (-1)^(p q), and the
        # factor signs are (-1)^p on forms (J* t^i = -t^{i+n} for i <= n)
        # and (-1)^q on polyvectors (J e_i = -e_{i-n} for i > n)
        low, high = self.rows & ((1 << n) - 1), self.rows >> n
        swap = (low << n) | high
        p, q = degs[low], degs[high]
        # (image, sign) of J_a in each picture, J_a blade m = sign[m] blade image[m]
        self.ja_action = {"ext": (swap, 1 - 2 * ((p + p * q) % 2)),
                          "cl": (swap, 1 - 2 * ((q + p * q) % 2))}
        self.Ja_ext = self._signed_permutation(*self.ja_action["ext"])
        self.Ja_cl = self._signed_permutation(*self.ja_action["cl"])
        # J_a is a real signed permutation: inverse = transpose
        self.Ja_ext_inv = self.Ja_ext.transpose()
        self.Ja_cl_inv = self.Ja_cl.transpose()
        # J on vectors, the degree-1 block of Ja_cl: J e_b = sum_c J_vec[c, b] e_c
        vectors = np.ix_(self.degree_indices[1], self.degree_indices[1])
        self.J_vec = ExactMatrix(self.Ja_cl.re[vectors], self.Ja_cl.im[vectors], self.Ja_cl.den)
        # the Hodge star sends blade m to wedge_sign(m, c) blade c, c = ~m:
        # (-1) to the number of pairs (a in m, b in c) with a > b
        comp = (self.dim - 1) ^ self.rows
        crossings = sum(((comp >> b) & 1) * degs[self.rows >> (b + 1)] for b in range(2 * n))
        self.hodge = self._signed_permutation(comp, 1 - 2 * (crossings % 2))
        self._frames: dict[str, ComplexFrame] = {}
        # Generators as row signs, (G_i M)[r] = sign[r] * M[r ^ bit_i]:
        # E_i = t^i ^ ., C_i = E_i^T = e_i _| ., L_i = E_i - C_i = e_i . (left
        # Clifford), R_i = (E_i + C_i) par = . e_i (right Clifford).
        self.generator_signs: dict[str, list[np.ndarray]] = {k: [] for k in "ECLR"}
        for i in range(2 * n):
            bit = 1 << i
            before = parity[self.rows & (bit - 1)]
            e = np.where(self.rows & bit, before, 0)
            c = np.where(self.rows & bit, 0, before)
            for kind, sign in zip("ECLR", (e, c, e - c, -parity * (e + c))):
                self.generator_signs[kind].append(sign)

    def _signed_permutation(self, image: np.ndarray, sign: np.ndarray) -> ExactMatrix:
        """The matrix sending blade m to sign[m] * blade image[m], image an
        involution: its row r holds sign[image[r]] in column image[r]."""
        return linear_combination([(1, None, (sign[image], image))], (self.dim, self.dim))

    @functools.cached_property
    def Jd_ext(self) -> ExactMatrix:
        return self._j_derivation("ext")

    @functools.cached_property
    def Jd_cl(self) -> ExactMatrix:
        return self._j_derivation("cl")

    def _j_derivation(self, picture: str) -> ExactMatrix:
        """J_d, the derivation extending J (cl) or J* (ext) from degree 1."""
        n = self.n
        images = {i: j_vector(coframe(n, i), picture) for i in range(1, 2 * n + 1)}
        return derivation(images, picture).matrix

    # -- conversions -------------------------------------------------------
    def to_column(self, a: Multivector) -> ExactMatrix:
        return ExactMatrix.from_columns(self.dim, [a.coeffs])

    def to_multivector(self, col: ExactMatrix) -> Multivector:
        if col.shape != (self.dim, 1):
            raise ValueError("expected a column vector")
        return Multivector(self.n, col.column_dict(0))

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

    # -- complex frame -----------------------------------------------------
    def complex_frame(self, picture: str) -> ComplexFrame:
        """The frame zeta^I ^ zetabar^J, in which bidegree is diagonal.

        Column m of U wedges zeta_j for bit j-1 of m and zetabar_j for bit
        n+j-1.  Its bidegree (p, q) counts the factors in the +i and -i
        eigenspaces of the derivation J of the picture.
        """
        if picture not in self._frames:
            n, st = self.n, self.structure
            factors = ([st.zeta(j) for j in range(1, n + 1)]
                       + [st.zeta_bar(j) for j in range(1, n + 1)])
            re = np.zeros((self.dim, self.dim), dtype=np.int64)
            im = np.zeros_like(re)
            re[0, 0] = 1
            # column m = F_b ^ column(m - 2^b), F_b the factor of m's lowest bit b
            for b in reversed(range(2 * n)):
                cols = self.rows[(self.rows & -self.rows) == 1 << b]
                src = ExactMatrix(re[:, cols ^ (1 << b)], im[:, cols ^ (1 << b)], 1)
                col = multiplication(factors[b], "E", src)
                re[:, cols], im[:, cols] = col.re, col.im
            u = ExactMatrix(re, im, 1)
            # distinct zeta^I ^ zetabar^J are orthogonal: U^H U = D = diag(2^deg),
            # so U^-1 = D^-1 U^H
            w = (1 << (2 * n - self.degrees))[:, None]
            u_inv = ExactMatrix(re.T * w, -im.T * w, 1 << (2 * n))
            n_zeta = self.degrees[self.rows & ((1 << n) - 1)]
            n_bar = self.degrees - n_zeta
            z = self.to_column(st.zeta(1))
            jd = self.Jd_ext if picture == "ext" else self.Jd_cl
            p, q = (n_zeta, n_bar) if jd @ z == z.scale(I) else (n_bar, n_zeta)
            width = 2 * n + 1
            code = (p[:, None] - p[None, :] + n) * width + (q[:, None] - q[None, :] + n)
            index = tuple(self.degree_indices[k] for k in range(width))
            # in degree order every block is a slice
            at = np.ix_(*[np.concatenate(index)] * 2)
            ends = np.cumsum([len(i) for i in index])
            cuts = [slice(end - len(i), end) for end, i in zip(ends, index)]

            def blocks(m: ExactMatrix) -> tuple:
                parts = [x[at].astype(np.float64) for x in (m.re, m.im)]
                return tuple(tuple(x[c, c].copy() if x[c, c].any() else None for x in parts)
                             for c in cuts)

            by_degree = code[at]
            codes = tuple(tuple(by_degree[r, c] for c in cuts) for r in cuts)
            degree_mask = (self.degrees[:, None] == np.arange(width)).astype(np.float32)
            self._frames[picture] = ComplexFrame(u, u_inv, code, n, degree_mask, index,
                                                 blocks(u), blocks(u_inv), codes)
        return self._frames[picture]


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
    """The parity of a leaf's matrix: odd when every nonzero entry joins
    blades of opposite parity, even when none does (a zero matrix included)."""
    nz = matrix.nonzero_mask()
    if not (nz & bs.cross_parity).any():
        return "even"
    if (nz & ~bs.cross_parity).any():
        raise StructuralError("an operator must be even or odd, not both")
    return "odd"


def make_operator(matrix, picture, parity=None) -> LinearOperator:
    """An operator on matrix.  parity is the one its operands determine,
    and a zero matrix is even; a leaf gives None, and its parity is measured."""
    if picture not in PICTURES:
        raise ValueError(f"unknown picture {picture!r}")
    if parity is None:
        parity = compute_parity(matrix, blade_structure(_n_from_dim(matrix.shape[0])))
    elif matrix.is_zero():
        parity = "even"
    return LinearOperator(matrix, picture, parity)


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


def _product_parity(p: str, q: str) -> str:
    """The parity of a product of operands of parity p and q."""
    return "even" if p == q else "odd"


def supercommutator(a: LinearOperator, b: LinearOperator) -> LinearOperator:
    """Graded commutator [a, b] = ab - (-1)^{|a||b|} ba."""
    if a.picture != b.picture:
        raise StructuralError(f"cannot commute a {a.picture} operator with a {b.picture} one")
    sign = _parity_sign(a.parity, b.parity)
    x, y = a.matrix, b.matrix
    if isinstance(x, ExactMatrix):
        mat = linear_combination([(1, (x, y), None), (-sign, (y, x), None)], x.shape)
    else:
        mat = x @ y - y @ x if sign == 1 else x @ y + y @ x
    return make_operator(mat, a.picture, _product_parity(a.parity, b.parity))


def compose(a: LinearOperator, b: LinearOperator) -> LinearOperator:
    if a.picture != b.picture:
        raise StructuralError("cannot compose operators from different pictures")
    return make_operator(a.matrix @ b.matrix, a.picture, _product_parity(a.parity, b.parity))


def adjoint(op: LinearOperator) -> LinearOperator:
    return make_operator(op.matrix.adjoint(), op.picture, op.parity)


def conjugate(op: LinearOperator) -> LinearOperator:
    """J-conjugation P^c = J_a^{-1} P J_a in the operator's own picture.

    J_a sends blade m to sign[m] blade image[m], so P^c is P re-indexed:
    entry (r, c) is sign[r] sign[c] P[image[r], image[c]], with no product.
    J_a keeps the degree, so P^c has the parity of P."""
    bs = blade_structure(_n_from_dim(op.dim))
    mat = op.matrix.signed_reindex(*bs.ja_action[op.picture])
    return make_operator(mat, op.picture, op.parity)


def bar(op: LinearOperator) -> LinearOperator:
    """Entrywise conjugation (conj . P . conj); swaps bidegree."""
    return make_operator(op.matrix.bar(), op.picture, op.parity)


def transport(op: LinearOperator) -> LinearOperator:
    """Musical transport: same coefficient matrix, other picture."""
    other = "cl" if op.picture == "ext" else "ext"
    return LinearOperator(op.matrix, other, op.parity)


def scale_op(op: LinearOperator, c) -> LinearOperator:
    return make_operator(op.matrix.scale(c), op.picture, op.parity)


def add_ops(*ops: LinearOperator) -> LinearOperator:
    """The sum of operators of one picture, with the parity its nonzero
    operands share (a zero sum is even)."""
    first = ops[0]
    if any(o.picture != first.picture for o in ops):
        raise StructuralError("cannot add operators from different pictures")
    parities = {o.parity for o in ops if not o.is_zero()}
    if len(parities) > 1:
        raise StructuralError("cannot add an even operator to an odd one")
    if isinstance(first.matrix, ExactMatrix):
        mat = linear_combination([(1, o.matrix, None) for o in ops], first.matrix.shape)
    else:
        mat = first.matrix
        for o in ops[1:]:
            mat = mat + o.matrix
    return make_operator(mat, first.picture, parities.pop() if parities else "even")


# ---------------------------------------------------------------------------
# bidegree measurement
# ---------------------------------------------------------------------------

def _require_exact(op: LinearOperator) -> None:
    if not isinstance(op.matrix, ExactMatrix):
        raise StructuralError("bidegree measurement requires an exact matrix")


def _nonzero(parts) -> np.ndarray:
    """True where (re, im) has a nonzero entry; an integer is zero exactly
    when no bit is set, so re | im tests both parts at once."""
    re, im = parts if parts[0] is not None else parts[::-1]
    if im is None:
        return re != 0
    if re.dtype == np.float64:
        return (re != 0) | (im != 0)
    return (re | im) != 0


def _frame_blocks(cf: ComplexFrame, mats: list[ExactMatrix], back: bool = False):
    """U^-1 M U for each M in mats, one degree block pair at a time.

    Yields (rows, q, p, dtype, (re, im)) for every block pair (q, p) on
    which some of mats is nonzero, per tier (a zero M has none): rows
    indexes the mats of the tier that are nonzero there, and re, im are the
    stacked numerators of V_q M_qp U_p for them in the tier dtype.

    Each M's tier is the one `linear_combination` would choose for the
    product U^-1 M U, or with back for U^-1 M U U U^-1, with every inner
    dimension taken as the largest block.  The parts are stacked in their
    storage dtype, the nonzero blocks of all of them are found at once, and
    only the blocks multiplied are cast.
    """
    v, u = cf.u_inv._bounds, cf.u._bounds
    inner = [max(map(len, cf.index))] * (4 if back else 2)
    tiers: dict = {}
    for i, m in enumerate(mats):
        if not m.is_zero():
            bounds = [v, m._bounds, u, u, v] if back else [v, m._bounds, u]
            tiers.setdefault(product_tier(bounds, inner), []).append(i)
    for dtype, group in tiers.items():
        group = np.array(group)
        re = np.stack([mats[i].re for i in group])
        im = np.stack([mats[i].im for i in group]) if any(
            mats[i].has_im() for i in group) else None
        for q, iq in enumerate(cf.index):
            # the rows of degree q, and present[i, p]: M_i is nonzero on
            # block (q, p), from the columns that hold a nonzero entry
            row_re, row_im = re[:, iq], None if im is None else im[:, iq]
            present = (_nonzero((row_re, row_im)).any(axis=1).astype(np.float32)
                       @ cf.degree_mask) > 0
            for p in np.flatnonzero(present.any(axis=0)):
                rows = np.flatnonzero(present[:, p])
                x = [None if part is None else part[rows][:, :, cf.index[p]]
                     for part in (row_re, row_im)]
                yield group[rows], q, p, dtype, parts_product(
                    (cf.v_blocks[q], x, cf.u_blocks[p]), dtype)


def measured_bidegree(ops: Sequence[LinearOperator]) -> list[set[tuple[int, int]]]:
    """For each operator, the set of bidegree shifts (a, b) on which it has
    a nonzero component.

    The operators are measured together: they are stacked per complex
    frame, and each degree block pair is conjugated once, in one stacked
    product over every operator nonzero on it (see `_frame_blocks`).
    """
    ops = list(ops)
    out = [set() for _ in ops]
    frames: dict = {}
    for i, op in enumerate(ops):
        _require_exact(op)
        frames.setdefault((op.dim, op.picture), []).append(i)
    for (dim, picture), members in frames.items():
        cf = blade_structure(_n_from_dim(dim)).complex_frame(picture)
        present = np.zeros((len(members), (2 * cf.n + 1) ** 2), dtype=bool)
        for rows, q, p, _, parts in _frame_blocks(cf, [ops[i].matrix for i in members]):
            b, r, c = np.nonzero(_nonzero(parts))
            present[rows[b], cf.code_blocks[q][p][r, c]] = True
        for i, code in zip(*np.nonzero(present)):
            out[members[i]].add(cf.shift(code))
    return out


def bidegree_decompose(op: LinearOperator) -> dict[tuple[int, int], LinearOperator]:
    """Decompose P = sum of components with pure bidegree shift (a, b).

    Keys are shifts; each value is the operator U P_(a,b) U^-1, with
    P_(a,b) the entries of P = U^-1 M U that move bidegree by (a, b).  Both
    conjugations run block by block: block (q, p) of a component is
    U_q (P_(a,b))_qp V_p, one stacked product over the shifts present in the
    block.  U keeps the degree, so every component has op's parity.
    """
    _require_exact(op)
    cf = blade_structure(_n_from_dim(op.dim)).complex_frame(op.picture)
    m = op.matrix
    dense: dict[int, list] = {}
    for _, q, p, dtype, (pr, pi) in _frame_blocks(cf, [m], back=True):
        code = cf.code_blocks[q][p]
        present = np.zeros((2 * cf.n + 1) ** 2, dtype=bool)
        present[code[_nonzero((pr, pi))[0]]] = True
        codes = np.flatnonzero(present)
        keep = code == codes[:, None, None]
        masked = [None if x is None else np.where(keep, x, 0) for x in (pr, pi)]
        back = parts_product((cf.u_blocks[q], masked, cf.v_blocks[p]), dtype)
        at = np.ix_(cf.index[q], cf.index[p])
        for j, c in enumerate(map(int, codes)):
            if c not in dense:
                # exact results computed on float64 are held as int64
                dense[c] = [np.zeros(m.shape, dtype=np.int64 if dtype is np.float64 else dtype)
                            for _ in "ri"]
            for part, x in zip(dense[c], back):
                if x is not None:
                    part[at] = x[j]
    den = cf.u_inv.den ** 2 * m.den
    out = {}
    for c, (re, im) in sorted(dense.items()):
        a, b = cf.shift(c)
        out[(a, b)] = make_operator(ExactMatrix(re, im, den), op.picture, op.parity)
    return out


# ---------------------------------------------------------------------------
# multiplication operators and derivations
# ---------------------------------------------------------------------------

def multiplication_sum(kind: str, pairs) -> ExactMatrix:
    """sum_k sum_S phi_k,S W_S @ start_k over pairs (phi_k, start_k), W_S the
    generator word of kind for blade S.

    kind "E" multiplies by phi ^ ., "C" by phi _| ., "L" and "R" by phi on
    the left and right in the Clifford algebra.  Each word is a signed
    permutation, applied to start as a row gather, never as a matmul; a
    start of None is the identity, whose words are added entry by entry.
    Every term goes into one linear combination, normalized once.
    """
    terms, shape = [], None
    for phi, start in pairs:
        bs = blade_structure(phi.n)
        shape = (bs.dim, bs.dim) if start is None else start.shape
        terms += [(c, start, (bs.word(kind, mask), bs.rows ^ mask))
                  for mask, c in phi.coeffs.items()]
    return linear_combination(terms, shape)


def multiplication(phi: Multivector, kind: str, start: ExactMatrix | None = None) -> ExactMatrix:
    """sum_S phi_S W_S @ start over phi's blades S (see `multiplication_sum`)."""
    return multiplication_sum(kind, [(phi, start)])


def contract(phi: Multivector, psi: Multivector) -> Multivector:
    """Bilinear interior product phi _| psi: e_S _| t^T = sign t^{T-S} for
    t^T = sign t^S ^ t^{T-S}, and 0 unless S lies in T."""
    phi._check(psi)
    bs = blade_structure(psi.n)
    return bs.to_multivector(multiplication(phi, "C", bs.to_column(psi)))


def derivation(images: dict[int, Multivector], picture: str) -> LinearOperator:
    """The graded derivation t^i -> images[i] that kills scalars: sum_i E_{images[i]} C_i.

    C_i carries the Koszul sign of passing t^i over the factors before it;
    odd images pay it back as they move into place, so one formula gives a
    derivation for odd images and an antiderivation for even ones.  Each
    E_S C_i is a signed permutation; all of them go into one linear
    combination, normalized once.
    """
    bs = blade_structure(next(iter(images.values())).n)
    terms = []
    for i, image in images.items():
        c_sign = bs.generator_signs["C"][i - 1]
        for mask, c in image.coeffs.items():
            # row r of E_S C_i is word_S[r] * c_sign[r ^ S] times row r ^ S ^ bit_i of 1
            sign = bs.word("E", mask) * c_sign[bs.rows ^ mask]
            terms.append((c, None, (sign, bs.rows ^ mask ^ (1 << (i - 1)))))
    return make_operator(linear_combination(terms, (bs.dim, bs.dim)), picture)


def tensor_slices(n: int, entries: dict) -> list[ExactMatrix]:
    """[S_1, ..., S_2n], S_a[b-1, c-1] = entries[(a, b, c)] (1-based keys, zero if absent)."""
    cols = [[{} for _ in range(2 * n)] for _ in range(2 * n)]
    for (a, b, c), v in entries.items():
        cols[a - 1][c - 1][b - 1] = v
    return [ExactMatrix.from_columns(2 * n, slice_cols) for slice_cols in cols]


def form_slices(psi: Multivector) -> list[ExactMatrix]:
    """The slices P_a[b-1, c-1] = psi(e_a, e_b, e_c) of a 3-form psi."""
    entries = {}
    for a in range(1, 2 * psi.n + 1):
        # P_a is the matrix of the 2-form e_a _| psi
        for mask, v in contract(frame(psi.n, a), psi).coeffs.items():
            b, c = blade_indices(mask)
            entries[(a, b, c)], entries[(a, c, b)] = v, -v
    return tensor_slices(psi.n, entries)


def vector_operator(block: ExactMatrix) -> ExactMatrix:
    """The 4^n matrix sending e_b to sum_c block[c, b] e_c and every other blade to 0."""
    bs = blade_structure(block.shape[0] // 2)
    vectors = np.ix_(bs.degree_indices[1], bs.degree_indices[1])
    re = np.zeros((bs.dim, bs.dim), dtype=block.re.dtype)
    re[vectors] = block.re
    im = None
    if block.has_im():
        im = np.zeros_like(re)
        im[vectors] = block.im
    # zero padding keeps block's normal form and bounds
    return ExactMatrix(re, im, block.den, _normalized=True, _bounds=block._bounds)


def ext_mult(phi: Multivector) -> LinearOperator:
    """Left exterior multiplication E_phi."""
    return make_operator(multiplication(phi, "E"), "ext")


def int_mult(phi: Multivector) -> LinearOperator:
    """Interior multiplication, defined as the adjoint of E_phi."""
    return make_operator(multiplication(phi, "E").adjoint(), "ext")


def contract_op(phi: Multivector) -> LinearOperator:
    """Bilinear contraction by phi (no conjugation of phi's coefficients)."""
    return make_operator(multiplication(phi, "C"), "ext")


def r_xi(xi: Multivector) -> LinearOperator:
    """r_xi(phi) = -sum_A (e_A _| xi) ^ (e_A _| phi).

    For xi of pure bidegree (r, s) this has bidegree (r-1, s-1); it is the
    cross-term operator in the Clifford multiplication expansion.
    """
    n = xi.n
    images = {a: -contract(frame(n, a), xi) for a in range(1, 2 * n + 1)}
    return derivation(images, "ext")


def k_xi(xi: Multivector) -> LinearOperator:
    """K_xi(phi) = sum_C (e_C _| xi) ^ (J e_C _| phi)."""
    n = xi.n
    st = AdaptedStructure(n)
    images = {}
    for c in range(1, 2 * n + 1):
        j, s = st.pair(c)  # J e_c = s e_j
        images[j] = contract(frame(n, c), xi).scale(s)
    return derivation(images, "ext")


def derivation_rebuild(op: LinearOperator) -> LinearOperator:
    """Extend op's degree-<=1 action as a (graded) derivation over wedge.

    The operand must kill scalars.  Its parity decides the sign rule:
    even -> derivation, odd -> antiderivation.  Comparing the rebuild with
    the original operator verifies the derivation property as a single
    matrix identity.  The wedge rule also certifies Clifford derivations:
    a degree-0 map whose degree-1 block is skew extends identically over
    both products (the contraction corrections cancel in pairs).
    """
    n = _n_from_dim(op.dim)
    if not isinstance(op.matrix, ExactMatrix):
        raise StructuralError("derivation rebuild requires an exact matrix")
    if op.matrix.column_dict(0):
        raise StructuralError(f"this {op.picture} operator does not kill scalars;"
                              " not a derivation")
    # op's parity makes every image's degree parity match the sign rule
    images = {
        i: Multivector(n, op.matrix.column_dict(1 << (i - 1))) for i in range(1, 2 * n + 1)
    }
    return derivation(images, op.picture)
