"""Dense exact matrices: integer numerator pairs over a shared denominator.

An ExactMatrix holds complex entries (re + im*i)/den with re, im integer
arrays and den a single positive integer.  All arithmetic is exact.

Every matrix is built in one normal form, so two matrices are equal exactly
when their parts are, and `==` compares them directly:

- den > 0 and gcd(re, im, den) = 1, so a zero matrix has den = 1;
- re and im are stored in one dtype, the narrowest that holds +-bound for
  the larger part bound: int8, int16 or int32 up to 2**7 - 1, 2**15 - 1 or
  2**31 - 1, int64 below 2**62, and Python integers (object dtype) from
  there.  Storage is only storage: every site that computes with the parts
  casts them to its tier's dtype first, so no product or sum is ever formed
  in a narrow dtype, where it would wrap;
- re and im are read-only from construction, and a zero imaginary part is
  one zero array per shape and dtype, shared by every real matrix of that
  shape and dtype, a real sum whose imaginary parts cancel included (`im`
  None at construction says it is zero).

Each matrix carries its part bounds (max |re|, max |im|), taken by the
normal form from the same read of each part that gives the gcd, so a real
matrix is known to be real and no bound is ever scanned for again; negation,
adjoint, conjugation, transpose and `signed_reindex` pass them on unchanged:
conjugation by a signed permutation such as J_a only moves entries and flips
their signs, for exact and float matrices alike.

Exact arithmetic has two tiers, chosen by `_tier` from a bound on every
partial sum alone: float64 (BLAS for products) below 2**53, where every
integer is a float64, and Python integers (object) from there; no float
ever enters the object tier.  Zero parts and zero factors are dropped
first, so that bound is at least each live operand's, and an operand
stored as Python integers (bound >= 2**62) always takes the object tier.

Every sum, scaling and product is one call of one kernel,
`linear_combination`, which computes sum_k c_k (m_k1 @ ... @ m_kj): it
chooses the tier once from the coefficients and the carried bounds, casts
each distinct operand once, and normalizes once.  A part with bound 0 is
neither cast nor multiplied, and a term with a zero factor is dropped, so
a product with a zero operand is the shared zero of its shape at no cost.
A float64 result is cast once, to the storage dtype of the bounds read
from it.  `product_tier` and `parts_product` give the same tier rule and
part-wise product to stacked products of raw parts, such as the blockwise
conjugations of bidegree measurement.

`FrobeniusColumns` gathers a list of matrices y_c once on the union of their
supports; its `inner` returns every <x_r, y_c> = sum x_r * conj(y_c) for a
list of matrices x_r from one stacked real product, on the tier of its
bounds, summed over chunks of the support small enough (m n k <= 64**3) for
OpenBLAS to run each on the calling thread.  `ExactMatrix.frobenius_inner`
is its 1 x 1 case, and `frobenius_norms` gives <x, x> for each of a list of
matrices, one dot product per part on the same tier rule.  Each inner
product is an integer pair over den_x den_y, read into a GaussianRational,
which has that form, with no Fraction in between; `entry`, `from_columns`
and the kernel's coefficients read and build scalars the same way.

FloatMatrix is the float view that `verify --float` evaluates, made from an
exact matrix by `from_exact`: the operations the evaluator applies, over
float64 real and imaginary parts, a part known to be zero not stored.  Its
products and the exact tiers' go through one part-wise product,
`_part_product`, which skips every real product with a zero operand; no
complex128 product is ever made.
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from .scalars import GaussianRational, ZERO, from_parts

# int64 stores parts below this bound, Python integers from it
_I64_BOUND = 1 << 62
# float64 guard: every integer of magnitude below 2**53 is a float64
_F64_BOUND = 1 << 53
# storage dtypes below int64, each for entries up to its largest value
_NARROW = tuple((int(np.iinfo(t).max), np.dtype(t)) for t in (np.int8, np.int16, np.int32))
# OpenBLAS runs an m x k by k x n product with m n k at most this on the
# calling thread, and may wake its other threads above it
_SERIAL_MNK = 64 ** 3


def _storage_dtype(bound: int) -> np.dtype:
    """The narrowest dtype of parts with entries at most bound in magnitude;
    signed ranges are symmetric up to one value, so negation never wraps."""
    for top, dtype in _NARROW:
        if bound <= top:
            return dtype
    return np.dtype(np.int64 if bound < _I64_BOUND else object)


def _max_abs(arr: np.ndarray) -> int:
    if arr.size == 0:
        return 0
    if arr.dtype == object:
        return int(np.abs(arr).max())
    lo = int(arr.min())
    hi = int(arr.max())
    return max(-lo, hi, 0)


def _normal_form(re: np.ndarray, im: np.ndarray | None, den: int):
    """(re, im, den, bounds) in normal form, im None for a zero imaginary
    part, both parts in the storage dtype of their bounds.  Each part is
    read once: while gcd(den, re, im) may still exceed 1, its nonzero
    entries give both the gcd and the part bound (max |re|, max |im|);
    after that its bound alone."""
    if den == 0:
        raise ZeroDivisionError("zero denominator")
    if den < 0:
        re, im, den = -re, _part(np.negative, im), -den
    g, bounds = den, []
    for arr in (re, im):
        if arr is not None and g > 1:
            arr = arr[arr != 0]
            if arr.size:
                g = math.gcd(g, int(np.gcd.reduce(arr)))
        bounds.append(0 if arr is None else _max_abs(arr))
    if not any(bounds):
        # zero, whatever the denominator: the shared zero over 1
        return _zero_part(*re.shape, _storage_dtype(0)), None, 1, (0, 0)
    im = im if bounds[1] else None
    if g > 1:
        # g divides every nonzero entry, so it fits the dtype of a part that
        # has one; a zero part is not divided
        re = re // g if bounds[0] else re
        im, den = _part(lambda x: x // g, im), den // g
        bounds = [b // g for b in bounds]
    dtype = _storage_dtype(max(bounds))
    return (re.astype(dtype, copy=False), _part(lambda x: x.astype(dtype, copy=False), im),
            int(den), tuple(bounds))


def _product_bounds(bounds, inner) -> tuple[int, int]:
    """Part bounds (re, im) of a product m_1 @ ... @ m_j, and so of every
    partial sum in it, from each factor's part bounds and the inner
    dimension k_i that factor i >= 2 is multiplied over."""
    (b_re, b_im), *rest = bounds
    for k, (f_re, f_im) in zip(inner, rest):
        b_re, b_im = k * (b_re * f_re + b_im * f_im), k * (b_re * f_im + b_im * f_re)
    return b_re, b_im


def _tier(peak: int):
    """The dtype of exact arithmetic whose every partial sum is at most peak
    in magnitude: float64 below 2**53, Python integers from there."""
    return np.float64 if peak < _F64_BOUND else object


def _parts(c) -> tuple[int, int, int]:
    """(a, b, d) with c = (a + b i) / d, d > 0 and gcd(a, b, d) = 1."""
    if isinstance(c, int):
        return c, 0, 1
    if not isinstance(c, GaussianRational):
        c = GaussianRational(c)
    return c.parts


def _fma(acc, k, x, at=...) -> None:
    """acc[at] += k * x in place; nothing when acc or x is None or k is 0."""
    if acc is None or x is None or not k:
        return
    if k == 1:
        acc[at] += x
    elif k == -1:
        acc[at] -= x
    else:
        acc[at] += k * x


class ExactMatrix:
    __slots__ = ("re", "im", "den", "_bounds")

    def __init__(self, re: np.ndarray, im: np.ndarray | None, den: int, *,
                 _normalized=False, _bounds=None):
        """im None is a zero imaginary part.  Parts given as normalized are
        in their storage dtype and come with their bounds, or have them read
        here."""
        if not _normalized:
            re, im, den, _bounds = _normal_form(re, im, den)
        elif _bounds is None:
            _bounds = (_max_abs(re), 0 if im is None else _max_abs(im))
        if not _bounds[1]:
            im = _zero_part(*re.shape, re.dtype)
        re.flags.writeable = False
        im.flags.writeable = False
        # _bounds is (max |re|, max |im|), taken when the matrix is made
        self.re, self.im, self.den, self._bounds = re, im, den, _bounds

    # -- constructors ----------------------------------------------------
    @staticmethod
    def zeros(rows: int, cols: int | None = None) -> "ExactMatrix":
        """The zero matrix of this shape, shared: its parts are read-only."""
        return _zero(rows, rows if cols is None else cols)

    @staticmethod
    def identity(dim: int) -> "ExactMatrix":
        return ExactMatrix(np.eye(dim, dtype=_storage_dtype(1)), None, 1, _normalized=True,
                           _bounds=(1 if dim else 0, 0))

    @staticmethod
    def from_columns(rows: int, cols: list[dict[int, GaussianRational]]) -> "ExactMatrix":
        """Columns given as sparse dicts row_index -> GaussianRational, filled
        over their common denominator in the storage dtype of the largest
        numerator (the normal form narrows it once a common factor is out)."""
        den = math.lcm(*(v.parts[2] for col in cols for v in col.values()))
        idx, res, ims = [], [], []
        for j, col in enumerate(cols):
            for i, v in col.items():
                a, b, d = v.parts
                idx.append((i, j))
                res.append(a * (den // d))
                ims.append(b * (den // d))
        dtype = _storage_dtype(max(map(abs, res + ims), default=0))
        re = np.zeros((rows, len(cols)), dtype=dtype)
        im = np.zeros((rows, len(cols)), dtype=dtype) if any(ims) else None
        if idx:
            at = tuple(np.array(idx).T)
            re[at] = np.array(res, dtype=dtype)
            if im is not None:
                im[at] = np.array(ims, dtype=dtype)
        return ExactMatrix(re, im, den)

    # -- shape / access --------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return self.re.shape

    @property
    def bound(self) -> int:
        """The entry bound max(|re|, |im|) over all entries."""
        return max(self._bounds)

    def entry(self, i: int, j: int) -> GaussianRational:
        return from_parts(int(self.re[i, j]), int(self.im[i, j]), self.den)

    def column_dict(self, j: int) -> dict[int, GaussianRational]:
        rows = np.flatnonzero((self.re[:, j] != 0) | (self.im[:, j] != 0))
        return {int(i): self.entry(i, j) for i in rows}

    def is_zero(self) -> bool:
        return self._bounds == (0, 0)

    def nonzero_mask(self) -> np.ndarray:
        """True at the nonzero entries."""
        return (self.re != 0) | (self.im != 0)

    def has_im(self) -> bool:
        return self._bounds[1] > 0

    def max_norm(self) -> Fraction:
        return Fraction(self.bound, self.den)

    # -- linear ops ------------------------------------------------------
    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        return linear_combination([(1, self, None), (1, other, None)], self.shape)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return linear_combination([(1, self, None), (-1, other, None)], self.shape)

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix(-self.re, self._map_im(np.negative), self.den, _normalized=True,
                           _bounds=self._bounds)

    def scale(self, c) -> "ExactMatrix":
        return linear_combination([(c, self, None)], self.shape)

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        """The exact product, one term of `linear_combination`."""
        return linear_combination([(1, (self, other), None)], (self.shape[0], other.shape[1]))

    # -- involutions -----------------------------------------------------
    def adjoint(self) -> "ExactMatrix":
        return ExactMatrix(self.re.T.copy(),
                           self._map_im(lambda x: np.negative(x.T, order="C")), self.den,
                           _normalized=True, _bounds=self._bounds)

    def bar(self) -> "ExactMatrix":
        """Entrywise complex conjugation."""
        return ExactMatrix(self.re, self._map_im(np.negative), self.den, _normalized=True,
                           _bounds=self._bounds)

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(self.re.T.copy(), self._map_im(lambda x: x.T.copy()), self.den,
                           _normalized=True, _bounds=self._bounds)

    def signed_reindex(self, image: np.ndarray, sign: np.ndarray) -> "ExactMatrix":
        """S^-1 M S for the signed permutation S sending basis vector m to
        sign[m] times basis vector image[m]: entry (r, c) is
        sign[r] sign[c] M[image[r], image[c]].  Entries only move and change
        sign, so den, the bounds and the storage dtype carry over."""
        fn = functools.partial(_signed_take, image=image, sign=sign)
        return ExactMatrix(fn(self.re), self._map_im(fn), self.den, _normalized=True,
                           _bounds=self._bounds)

    def _map_im(self, fn):
        """fn(im), or None when im is the shared zero part."""
        return fn(self.im) if self._bounds[1] else None

    # -- comparison ------------------------------------------------------
    def __eq__(self, other):
        """Equality of values: both sides are in normal form."""
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.den == other.den
            and np.array_equal(self.re, other.re)
            and np.array_equal(self.im, other.im)
        )

    def __hash__(self):
        raise TypeError("ExactMatrix is not hashable")

    def frobenius_inner(self, other: "ExactMatrix") -> GaussianRational:
        """sum_ij self[ij] * conj(other[ij]), exact."""
        return FrobeniusColumns([other]).inner([self])[0][0]

    def __repr__(self):
        r, c = self.shape
        return f"ExactMatrix({r}x{c}, den={self.den}, max={self.max_norm()})"


def _signed_take(x: np.ndarray, image: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """sign[r] sign[c] x[image[r], image[c]] at (r, c), in x's dtype: the
    signs are cast to it, and storage ranges are symmetric, so a flip never
    wraps."""
    s = sign.astype(x.dtype, copy=False)
    out = x.take(image, axis=0).take(image, axis=1)
    out *= s[:, None]
    out *= s
    return out


def _part_product(a, b) -> tuple:
    """(re, im) of the product of a = (ar, ai) and b = (br, bi), each given
    by its real and imaginary parts, a part that is zero being None.

    re = ar @ br - ai @ bi and im = ar @ bi + ai @ br, with each of the four
    real products run only when both its operands are present; a result
    part that no product reaches is None.  The exact tiers and FloatMatrix
    both multiply through here.
    """
    (ar, ai), (br, bi) = a, b
    return (_dot_sum(((1, ar, br), (-1, ai, bi))),
            _dot_sum(((1, ar, bi), (1, ai, br))))


def _dot_sum(terms):
    """sum of sign * (x @ y) over the terms (sign, x, y) with both operands
    present, or None when no term has both."""
    out = None
    for sign, x, y in terms:
        if x is None or y is None:
            continue
        p = x @ y
        if out is None:
            out = p if sign > 0 else -p
        elif sign > 0:
            out += p
        else:
            out -= p
    return out


@functools.cache
def _zero_part(rows: int, cols: int, dtype: np.dtype) -> np.ndarray:
    """The read-only zero array of this shape and dtype (an np.dtype, the
    cache key), the imaginary part of every real matrix of that shape whose
    real part is stored in that dtype."""
    z = np.zeros((rows, cols), dtype=dtype)
    z.flags.writeable = False
    return z


@functools.cache
def _zero(rows: int, cols: int) -> ExactMatrix:
    z = _zero_part(rows, cols, _storage_dtype(0))
    return ExactMatrix(z, z, 1, _normalized=True, _bounds=(0, 0))


def _cast(arr: np.ndarray, dtype) -> np.ndarray:
    """arr as the tier dtype; a float64 array holds exact integers and goes
    through int64, so no float reaches the object tier."""
    if arr.dtype == np.float64 and dtype is not np.float64:
        arr = arr.astype(np.int64)
    return arr.astype(dtype, copy=False)


def product_tier(bounds, inner):
    """The tier `linear_combination` would choose for one product
    m_1 @ ... @ m_j of nonzero factors with part bounds `bounds`, factor
    i >= 2 multiplied over inner dimension inner[i - 2]."""
    return _tier(max(_product_bounds(bounds, inner)))


def parts_product(factors, dtype) -> tuple:
    """(re, im) of the product f_1 @ ... @ f_j of factors given by their
    (re, im) numerator parts, a zero part None, each part cast to the tier
    dtype first.  Stacked operands broadcast as in `np.matmul`."""
    out = None
    for f in factors:
        f = [_part(lambda x: _cast(x, dtype), x) for x in f]
        out = f if out is None else _part_product(out, f)
    return tuple(out)


def _gather(mats, support: np.ndarray, dtype, with_im: bool) -> np.ndarray:
    """Rows re(m) on support for each m, then im(m) when with_im, each
    widened from its storage dtype to the tier dtype as it is copied in."""
    out = np.empty(((1 + with_im) * len(mats), len(support)), dtype=dtype)
    for r, m in enumerate(mats):
        out[r] = m.re.ravel()[support]
        if with_im:
            out[len(mats) + r] = m.im.ravel()[support]
    return out


class FrobeniusColumns:
    """A non-empty list of matrices y_c of one shape, gathered once on the
    union of their supports, for the exact inner products
    <x, y_c> = sum_ij x[ij] * conj(y_c[ij]).

    Entries of x off that support meet only zeros, so each inner product is
    a dot product of length k = |support|.  The stack of the y_c is held
    once, on the tier of their bound: float64 below 2**53 (exact there),
    Python integers from there.
    """

    __slots__ = ("shape", "support", "stack", "dens", "bound", "has_im")

    def __init__(self, cols):
        cols = list(cols)
        self.shape = cols[0].shape
        if any(y.shape != self.shape for y in cols):
            raise ValueError("shape mismatch")
        mask = np.zeros(cols[0].re.size, dtype=bool)
        for y in cols:
            if not y.is_zero():
                mask |= y.nonzero_mask().ravel()
        self.support = np.flatnonzero(mask)
        self.dens = [y.den for y in cols]
        self.bound = max((y.bound for y in cols), default=0)
        self.has_im = any(y.has_im() for y in cols)
        self.stack = _gather(cols, self.support, _tier(self.bound), self.has_im)

    def inner(self, rows) -> list[list[GaussianRational]]:
        """[[<x_r, y_c> for each column c] for each row r], from one product
        of the stacked real and imaginary parts, on the tier of
        2 k max|x| max|y|, which bounds every partial sum.  It is summed over
        chunks of the support, each an m x k by k x n product with
        m n k <= 64**3, which OpenBLAS runs on the calling thread."""
        rows = list(rows)
        if any(x.shape != self.shape for x in rows):
            raise ValueError("shape mismatch")
        ncols, k = len(self.dens), len(self.support)
        x_bound = max((x.bound for x in rows), default=0)
        if not (k and x_bound and self.bound):
            return [[ZERO] * ncols for _ in rows]
        dtype = _tier(2 * k * x_bound * self.bound)
        x_im = any(x.has_im() for x in rows)
        xs, ys = _gather(rows, self.support, dtype, x_im), _cast(self.stack, dtype)
        step = max(1, _SERIAL_MNK // (len(xs) * len(ys)))
        p = _dot_sum((1, xs[:, i:i + step], ys[:, i:i + step].T) for i in range(0, k, step))
        if dtype is np.float64:
            p = p.astype(np.int64)
        # blocks of p: re x re, re x im, im x re, im x im
        nrows = len(rows)
        re = p[:nrows, :ncols]
        im = np.zeros_like(re)
        if self.has_im:
            im -= p[:nrows, ncols:]
        if x_im:
            im += p[nrows:, :ncols]
            if self.has_im:
                re = re + p[nrows:, ncols:]
        return [[from_parts(a, b, x.den * d) if a or b else ZERO
                 for a, b, d in zip(re_row, im_row, self.dens)]
                for x, re_row, im_row in zip(rows, re.tolist(), im.tolist())]


def frobenius_norms(mats) -> list[GaussianRational]:
    """[<x, x> for each x]: the sum of re**2 + im**2 over the entries of x,
    over den**2, each part one dot product on the tier `FrobeniusColumns.inner`
    would choose for <x, x>."""
    out = []
    for x in mats:
        dtype = _tier(2 * x.re.size * x.bound ** 2)
        s = 0
        for part, bound in zip((x.re, x.im), x._bounds):
            if bound:
                v = part.astype(dtype).ravel()
                s += int(v @ v)
        out.append(from_parts(s, 0, x.den * x.den) if s else ZERO)
    return out


def linear_combination(terms, shape: tuple[int, int]) -> ExactMatrix:
    """sum_k c_k T_k on one tier, normalized once: the exact kernel behind
    every sum, scaling and product of ExactMatrix.

    Each term is (c, m, gather): a scalar c (int, Fraction or
    GaussianRational); m an ExactMatrix, a tuple of ExactMatrix standing
    for their product m_1 @ ... @ m_j (taken left to right), or None; and a
    row gather.  With gather None the term T is the product.  With gather
    (sign, rows), sign[r] in {-1, 0, 1}, row r of T is sign[r] times row
    rows[r] of the product; m None stands for the identity, and T is then
    the signed permutation matrix with entry sign[r] at (r, rows[r]), added
    entry by entry.

    The sum runs over D, the least common multiple of the terms'
    denominators.  Its tier is chosen once, before any arithmetic, by
    `_tier` from the integer coefficients and the carried part bounds, which
    bound every partial sum of every product and of the sum.  Each distinct
    operand is cast to that tier once, a part with bound 0 is neither cast
    nor multiplied, and a term with a zero factor is dropped.
    """
    live, den = [], 1
    for c, m, gather in terms:
        factors = () if m is None else (m,) if isinstance(m, ExactMatrix) else tuple(m)
        a, b, d = _parts(c)
        dim = shape[0]
        for f in factors:
            k, cols = f.re.shape
            if k != dim:
                raise ValueError(f"shape mismatch {[f.shape for f in factors]} vs {tuple(shape)}")
            dim, d = cols, d * f.den
        if dim != shape[1]:
            raise ValueError(f"shape mismatch {[f.shape for f in factors]} vs {tuple(shape)}")
        b_re, b_im = _product_bounds([f._bounds for f in factors] or [(1, 0)],
                                     [f.re.shape[0] for f in factors[1:]])
        if (a or b) and (b_re or b_im):
            den = math.lcm(den, d)
            live.append((a, b, d, factors, gather, b_re, b_im))
    if not live:
        return _zero(*shape)
    scaled = []
    re_bound = im_bound = 0
    for a, b, d, factors, gather, b_re, b_im in live:
        f = den // d
        a, b = a * f, b * f
        re_bound += abs(a) * b_re + abs(b) * b_im
        im_bound += abs(b) * b_re + abs(a) * b_im
        scaled.append((a, b, factors, gather))
    dtype = _tier(max(re_bound, im_bound))
    cast = {}
    re = np.zeros(shape, dtype=dtype)
    # a sum whose imaginary bound is 0 is real: no term reaches im
    im = np.zeros(shape, dtype=dtype) if im_bound else None
    diagonal = np.arange(shape[0])
    for a, b, factors, gather in scaled:
        if gather is not None:
            sign, rows = gather
            sign = sign.astype(dtype, copy=False)
        if not factors:
            _fma(re, a, sign, (diagonal, rows))
            _fma(im, b, sign, (diagonal, rows))
            continue
        parts = None
        for f in factors:
            if id(f) not in cast:
                # each distinct operand is cast once; a part of bound 0 not at all
                cast[id(f)] = [x.astype(dtype, copy=False) if bound else None
                               for x, bound in zip((f.re, f.im), f._bounds)]
            if parts is None:
                parts = cast[id(f)]
                if gather is not None:
                    parts = [_part(lambda x: sign[:, None] * x[rows], x) for x in parts]
            else:
                parts = _part_product(parts, cast[id(f)])
        pr, pi = parts
        _fma(re, a, pr)
        _fma(re, -b, pi)
        _fma(im, b, pr)
        _fma(im, a, pi)
    if dtype is np.float64:
        return _from_float(re, im, den)
    return ExactMatrix(re, im, den)


def _from_float(re: np.ndarray, im: np.ndarray | None, den: int) -> ExactMatrix:
    """The matrix (re + im i) / den of float64 parts holding exact integers,
    cast once to the storage dtype of the bounds read from them.  Over den 1
    they are in normal form already: nothing is read again."""
    bounds = (_max_abs(re), 0 if im is None else _max_abs(im))
    if not any(bounds):
        return _zero(*re.shape)
    dtype = _storage_dtype(max(bounds))
    re, im = re.astype(dtype), _part(lambda x: x.astype(dtype), im)
    if den == 1:
        return ExactMatrix(re, im, 1, _normalized=True, _bounds=bounds)
    return ExactMatrix(re, im, den)


class FloatMatrix:
    """The float64 view of a matrix, with the ExactMatrix operations that
    float evaluation applies.

    The value is re + i im, each part a read-only float64 array, or None
    for a part known to be zero: a real matrix stores no imaginary part,
    and a matrix with no stored part is known to be zero.  A part is known
    zero when it was converted from an exact part of bound 0, or when no
    term of the operation that made it had a stored operand.  Products go
    through `_part_product`, as ExactMatrix's do, so a product of real
    matrices is one float64 BLAS call and a product with a known-zero
    operand is known zero without any.
    """

    __slots__ = ("re", "im", "shape")

    def __init__(self, re: np.ndarray | None, im: np.ndarray | None, shape):
        for x in (re, im):
            if x is not None:
                x.flags.writeable = False
        self.re, self.im, self.shape = re, im, tuple(shape)

    @staticmethod
    def from_exact(m: ExactMatrix) -> "FloatMatrix":
        re, im = (x.astype(np.float64) / m.den if b else None
                  for x, b in zip((m.re, m.im), m._bounds))
        return FloatMatrix(re, im, m.shape)

    def __add__(self, other):
        return FloatMatrix(_float_sum(((1, self.re), (1, other.re))),
                           _float_sum(((1, self.im), (1, other.im))), self.shape)

    def __sub__(self, other):
        return FloatMatrix(_float_sum(((1, self.re), (-1, other.re))),
                           _float_sum(((1, self.im), (-1, other.im))), self.shape)

    def scale(self, c):
        c = c.to_complex() if isinstance(c, GaussianRational) else complex(c)
        return FloatMatrix(_float_sum(((c.real, self.re), (-c.imag, self.im))),
                           _float_sum(((c.imag, self.re), (c.real, self.im))), self.shape)

    def __matmul__(self, other):
        if self.shape[1] != other.shape[0]:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        re, im = _part_product((self.re, self.im), (other.re, other.im))
        return FloatMatrix(re, im, (self.shape[0], other.shape[1]))

    def adjoint(self):
        return FloatMatrix(_part(np.transpose, self.re), _part(lambda x: -x.T, self.im),
                           self.shape[::-1])

    def bar(self):
        return FloatMatrix(self.re, _part(np.negative, self.im), self.shape)

    def signed_reindex(self, image: np.ndarray, sign: np.ndarray) -> "FloatMatrix":
        """S^-1 M S, as `ExactMatrix.signed_reindex`."""
        fn = functools.partial(_signed_take, image=image, sign=sign)
        return FloatMatrix(_part(fn, self.re), _part(fn, self.im), self.shape)

    def is_zero(self) -> bool:
        return not any(x is not None and x.any() for x in (self.re, self.im))

    def nonzero_mask(self) -> np.ndarray:
        """True at the nonzero entries."""
        mask = np.zeros(self.shape, dtype=bool)
        for x in (self.re, self.im):
            if x is not None:
                mask |= x != 0
        return mask

    def max_norm(self) -> float:
        """max |re + i im| over the entries."""
        parts = [x for x in (self.re, self.im) if x is not None]
        if not parts or not parts[0].size:
            return 0.0
        return float((np.abs(parts[0]) if len(parts) == 1 else np.hypot(*parts)).max())


def _float_sum(terms):
    """sum of k * x over the terms (k, x) with k nonzero and x present, or
    None when no term is; a lone term with k = 1 is x itself (read-only)."""
    out = None
    for k, x in terms:
        if x is None or not k:
            continue
        if out is None:
            out = x if k == 1 else -x if k == -1 else k * x
        elif k == 1:
            out = out + x
        elif k == -1:
            out = out - x
        else:
            out = out + k * x
    return out


def _part(fn, x):
    """fn(x) for a stored part x, None for a part known to be zero."""
    return None if x is None else fn(x)


def solve_exact(columns: list[list[GaussianRational]], targets: list[list[GaussianRational]]):
    """Solve sum_j x_j * columns[j] = t exactly for each right-hand side t in `targets`.

    Gauss-Jordan elimination over the Gaussian rationals, every right-hand
    side reduced in the same pass, on sparse rows: row i is held as
    {column: nonzero value}, the right-hand sides being columns after the
    system's.  Returns one answer per right-hand side: a coefficient list
    (free variables set to 0), or None if inconsistent.  Pivots are chosen
    from `columns` only, so each answer is exactly the one a call with that
    right-hand side alone would return.
    """
    ncols = len(columns)
    nrows = len(targets[0]) if targets else 0
    # the zeros of `FrobeniusColumns.inner` are ZERO itself: no test needed
    aug = [{k: v for k, v in enumerate([c[i] for c in columns] + [t[i] for t in targets])
            if v is not ZERO and v} for i in range(nrows)]
    pivots: list[tuple[int, int]] = []
    row = 0
    for col in range(ncols):
        if row == nrows:
            break
        sel = next((r for r in range(row, nrows) if col in aug[r]), None)
        if sel is None:
            continue
        aug[row], aug[sel] = aug[sel], aug[row]
        inv = 1 / aug[row][col]
        prow = aug[row] = {k: v * inv for k, v in aug[row].items()}
        for r, arow in enumerate(aug):
            f = arow.get(col)
            if r == row or f is None:
                continue
            for k, v in prow.items():
                x = arow[k] - f * v if k in arow else -(f * v)
                if x:
                    arow[k] = x
                else:
                    del arow[k]
        pivots.append((row, col))
        row += 1
    answers = []
    for k in range(ncols, ncols + len(targets)):
        # inconsistency: zero row with nonzero rhs
        if any(k in aug[r] for r in range(row, nrows)):
            answers.append(None)
            continue
        x = [ZERO] * ncols
        for r, c in pivots:
            x[c] = aug[r].get(k, ZERO)
        answers.append(x)
    return answers
