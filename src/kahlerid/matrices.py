"""Dense exact matrices: integer numerator pairs over a shared denominator.

An ExactMatrix holds complex entries (re + im*i)/den with re, im integer
arrays and den a single positive integer.  All arithmetic is exact.

Every matrix is built in one normal form, so two matrices are equal exactly
when their parts are, and `==` compares them directly:

- den > 0 and gcd(re, im, den) = 1, so a zero matrix has den = 1;
- re and im are int64 while every entry is below 2**62 in magnitude and
  Python integers (object dtype) above that;
- re and im are read-only from construction, and an int64 imaginary part
  that is known to be zero is one zero array per shape, shared by every
  real matrix of that shape (`im` None at construction says it is zero).

Each matrix also carries its entry bound max(|re|, |im|), computed at most
once (per part, so a real matrix is known to be real) and passed on
unchanged by negation, adjoint, conjugation and transpose.  Every operation
chooses its tier from the cached bounds of its operands: a matmul whose
partial sums stay below 2**53 runs on float64 BLAS, which holds those
integers exactly; below 2**62 it runs on int64; above that on Python big
integers.  No float ever enters the object path.  A product with a zero
operand (cached bound (0, 0)) is the shared zero of its shape and costs no
arithmetic, and a real or imaginary part with bound 0 is neither converted
nor multiplied.  Sums and scalings go through `linear_combination`, which adds
every term into one integer array over one common denominator and normalizes
once; normalization stops taking gcds as soon as the running gcd reaches 1.

`FrobeniusColumns` gathers a list of matrices y_c once on the union of their
supports; its `inner` returns every <x_r, y_c> = sum x_r * conj(y_c) for a
list of matrices x_r from one stacked real product, on the tier its bounds
allow.  `ExactMatrix.frobenius_inner` is its 1 x 1 case.

FloatMatrix is the float view that `verify --float` evaluates: the same
operation surface over float64 real and imaginary parts, a part known to be
zero not stored.  Its products and the exact tiers' go through one part-wise
product, `_part_product`, which skips every real product with a zero
operand; no complex128 product is ever made.
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from .scalars import GaussianRational, ZERO

# int64 guard: |result| of any fused multiply-add stays below 2**62
_I64_BOUND = 1 << 62
# float64 guard: every integer of magnitude below 2**53 is a float64
_F64_BOUND = 1 << 53
_I64_MAX = (1 << 63) - 1


def _max_abs(arr: np.ndarray) -> int:
    if arr.size == 0:
        return 0
    if arr.dtype == object:
        return int(np.abs(arr).max())
    lo = int(arr.min())
    hi = int(arr.max())
    return max(-lo, hi, 0)


def _gcd_reduce(arr: np.ndarray) -> int:
    if arr.size == 0:
        return 0
    return int(np.gcd.reduce(np.abs(arr).ravel()))


def _normal_form(re: np.ndarray, im: np.ndarray | None, den: int):
    """(re, im, den, bounds) in normal form, im None for a zero imaginary
    part; bounds is None unless it came for free."""
    if den == 0:
        raise ZeroDivisionError("zero denominator")
    if den < 0:
        re, im, den = -re, _part(np.negative, im), -den
    # g = gcd(den, re, im), no further reduction once it is 1
    g = den
    for arr in (re, im):
        if g == 1:
            break
        if arr is not None:
            g = math.gcd(g, _gcd_reduce(arr))
    if g > 1:
        if re.dtype != object and g > _I64_MAX:
            # an int64 array divisible by g >= 2**63 is zero; g = den then
            re, im = re.astype(object), _part(lambda x: x.astype(object), im)
        re, im, den = re // g, _part(lambda x: x // g, im), den // g
    bounds = None
    if re.dtype == object:
        bounds = (_max_abs(re), 0 if im is None else _max_abs(im))
        if max(bounds) < _I64_BOUND:
            re, im = re.astype(np.int64), _part(lambda x: x.astype(np.int64), im)
    return re, im, int(den), bounds


def _parts(c) -> tuple[int, int, int]:
    """(a, b, d) with c = (a + b i) / d and d the least common denominator."""
    if isinstance(c, int):
        return c, 0, 1
    if not isinstance(c, GaussianRational):
        c = GaussianRational(c)
    re, im = c.re, c.im
    d = math.lcm(re.denominator, im.denominator)
    return re.numerator * (d // re.denominator), im.numerator * (d // im.denominator), d


def _fma(acc: np.ndarray, k, x: np.ndarray) -> None:
    """acc += k * x in place."""
    if k == 1:
        acc += x
    elif k == -1:
        acc -= x
    elif k:
        acc += k * x


class ExactMatrix:
    __slots__ = ("re", "im", "den", "_bounds")

    def __init__(self, re: np.ndarray, im: np.ndarray | None, den: int, *,
                 _normalized=False, _bounds=None):
        """im None is a zero imaginary part."""
        if not _normalized:
            re, im, den, _bounds = _normal_form(re, im, den)
        if re.dtype == np.int64 and (im is None or (_bounds is not None and not _bounds[1])):
            im = _zero_part(*re.shape)
        elif im is None:
            im = np.zeros(re.shape, dtype=re.dtype)
        re.flags.writeable = False
        im.flags.writeable = False
        self.re, self.im, self.den, self._bounds = re, im, den, _bounds

    # -- constructors ----------------------------------------------------
    @staticmethod
    def zeros(rows: int, cols: int | None = None) -> "ExactMatrix":
        """The zero matrix of this shape, shared: its parts are read-only."""
        return _zero(rows, rows if cols is None else cols)

    @staticmethod
    def identity(dim: int) -> "ExactMatrix":
        return ExactMatrix(np.eye(dim, dtype=np.int64), None, 1, _normalized=True,
                           _bounds=(1 if dim else 0, 0))

    @staticmethod
    def from_columns(rows: int, cols: list[dict[int, GaussianRational]]) -> "ExactMatrix":
        """Columns given as sparse dicts row_index -> GaussianRational; int64
        parts whenever every entry over the common denominator fits."""
        den = 1
        for col in cols:
            for v in col.values():
                den = math.lcm(den, v.re.denominator, v.im.denominator)
        idx, res, ims = [], [], []
        for j, col in enumerate(cols):
            for i, v in col.items():
                idx.append((i, j))
                res.append(v.re.numerator * (den // v.re.denominator))
                ims.append(v.im.numerator * (den // v.im.denominator))
        big = any(abs(x) >= _I64_BOUND for x in res + ims)
        dtype = object if big else np.int64
        re = np.zeros((rows, len(cols)), dtype=dtype)
        im = np.zeros((rows, len(cols)), dtype=dtype) if any(ims) else None
        if idx:
            at = tuple(np.array(idx).T)
            re[at] = np.array(res, dtype=dtype)
            if im is not None:
                im[at] = np.array(ims, dtype=dtype)
        return ExactMatrix(re, im, den)

    @staticmethod
    def column(rows: int, entries: dict[int, GaussianRational]) -> "ExactMatrix":
        return ExactMatrix.from_columns(rows, [entries])

    # -- shape / access --------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return self.re.shape

    def _part_bounds(self) -> tuple[int, int]:
        """(max |re|, max |im|), computed on first use and kept."""
        if self._bounds is None:
            self._bounds = (_max_abs(self.re), _max_abs(self.im))
        return self._bounds

    @property
    def bound(self) -> int:
        """The entry bound max(|re|, |im|) over all entries."""
        return max(self._part_bounds())

    def entry(self, i: int, j: int) -> GaussianRational:
        return GaussianRational(
            Fraction(int(self.re[i, j]), self.den),
            Fraction(int(self.im[i, j]), self.den),
        )

    def column_dict(self, j: int) -> dict[int, GaussianRational]:
        rows = np.flatnonzero((self.re[:, j] != 0) | (self.im[:, j] != 0))
        return {int(i): self.entry(i, j) for i in rows}

    def is_zero(self) -> bool:
        return self._part_bounds() == (0, 0)

    def nonzero_mask(self) -> np.ndarray:
        """True at the nonzero entries."""
        return (self.re != 0) | (self.im != 0)

    def has_im(self) -> bool:
        return self._part_bounds()[1] > 0

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
        """Exact product on the cheapest safe tier: float64 BLAS while every
        partial sum is an integer below 2**53, then int64 below 2**62, then
        Python big integers.  A zero operand gives the shared zero at once."""
        if self.shape[1] != other.shape[0]:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        if self.is_zero() or other.is_zero():
            return _zero(self.shape[0], other.shape[1])
        k = self.shape[1]
        bound = 2 * k * self.bound * other.bound
        if self.re.dtype == np.int64 and other.re.dtype == np.int64 and bound < _I64_BOUND:
            dtype = np.float64 if bound < _F64_BOUND else np.int64
        else:
            dtype = object
        out = (self.shape[0], other.shape[1])
        # float64 products hold exact integers below 2**53 and go back to int64
        dtype_out = np.int64 if dtype is np.float64 else dtype
        re, im = (_part(lambda x: x.astype(dtype_out, copy=False), x)
                  for x in _part_product(_live_parts(self, dtype), _live_parts(other, dtype)))
        if re is None:
            re = np.zeros(out, dtype=dtype_out)
        return ExactMatrix(re, im, self.den * other.den)

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

    def _map_im(self, fn):
        """fn(im), or None when im is the shared zero part."""
        return None if self.im is _zero_part(*self.shape) else fn(self.im)

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

    def to_complex(self) -> np.ndarray:
        return (self.re.astype(np.float64) + 1j * self.im.astype(np.float64)) / self.den

    def __repr__(self):
        r, c = self.shape
        return f"ExactMatrix({r}x{c}, den={self.den}, max={self.max_norm()})"


def _live_parts(m: ExactMatrix, dtype) -> list:
    """[re, im] of m as dtype, None for a part whose cached bound is zero, so
    that a part never read is never converted."""
    return [x.astype(dtype, copy=False) if b else None
            for x, b in zip((m.re, m.im), m._part_bounds())]


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
def _zero_part(rows: int, cols: int) -> np.ndarray:
    """The read-only int64 zero array of this shape, the imaginary part of
    every real int64 matrix of that shape."""
    z = np.zeros((rows, cols), dtype=np.int64)
    z.flags.writeable = False
    return z


@functools.cache
def _zero(rows: int, cols: int) -> ExactMatrix:
    z = _zero_part(rows, cols)
    return ExactMatrix(z, z, 1, _normalized=True, _bounds=(0, 0))


def _cast(arr: np.ndarray, dtype) -> np.ndarray:
    """arr as dtype; a float64 array holds exact integers and goes through
    int64, so no float reaches the object tier."""
    if arr.dtype == np.float64 and dtype is not np.float64:
        arr = arr.astype(np.int64)
    return arr.astype(dtype, copy=False)


def _gather(mats, support: np.ndarray, dtype, with_im: bool) -> np.ndarray:
    """Rows re(m) on support for each m, then im(m) when with_im."""
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
    once, as float64 when its entries are below 2**53 (exact there), else in
    their own integer dtype.
    """

    __slots__ = ("shape", "support", "stack", "dens", "bound", "int64", "has_im")

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
        self.int64 = all(y.re.dtype == np.int64 for y in cols)
        self.has_im = any(y.has_im() for y in cols)
        dtype = np.int64 if self.int64 else object
        if self.int64 and self.bound < _F64_BOUND:
            dtype = np.float64
        self.stack = _gather(cols, self.support, dtype, self.has_im)

    def inner(self, rows) -> list[list[GaussianRational]]:
        """[[<x_r, y_c> for each column c] for each row r], from one product
        of the stacked real and imaginary parts.  Its tier follows from the
        bounds, as in `@`: float64 BLAS while 2 k max|x| max|y| < 2**53,
        int64 below 2**62, Python integers otherwise."""
        rows = list(rows)
        if any(x.shape != self.shape for x in rows):
            raise ValueError("shape mismatch")
        ncols, k = len(self.dens), len(self.support)
        x_bound = max((x.bound for x in rows), default=0)
        if not (k and x_bound and self.bound):
            return [[ZERO] * ncols for _ in rows]
        bound = 2 * k * x_bound * self.bound
        if self.int64 and all(x.re.dtype == np.int64 for x in rows) and bound < _I64_BOUND:
            dtype = np.float64 if bound < _F64_BOUND else np.int64
        else:
            dtype = object
        x_im = any(x.has_im() for x in rows)
        p = _gather(rows, self.support, dtype, x_im) @ _cast(self.stack, dtype).T
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
        out = []
        for x, re_row, im_row in zip(rows, re.tolist(), im.tolist()):
            out.append([
                GaussianRational(Fraction(a, x.den * d), Fraction(b, x.den * d)) if a or b
                else ZERO
                for a, b, d in zip(re_row, im_row, self.dens)])
        return out


def linear_combination(terms, shape: tuple[int, int]) -> ExactMatrix:
    """sum_k c_k T_k, added into one integer array and normalized once.

    Each term is (c, m, gather): a scalar c (int, Fraction or
    GaussianRational), an ExactMatrix m of the given shape or None, and a
    row gather.  With gather None the term T is m itself.  With gather
    (sign, rows), sign[r] in {-1, 0, 1}, row r of T is sign[r] * m[rows[r]];
    m None stands for the identity, and T is then the signed permutation
    matrix with entry sign[r] at (r, rows[r]), added entry by entry.

    The sum runs over D, the least common multiple of the terms'
    denominators.  Its tier is chosen before anything is added, from the
    integer coefficients and the cached entry bounds: int64 when every
    partial sum stays below 2**62, Python integers otherwise.
    """
    live = []
    den = 1
    for c, m, gather in terms:
        if m is not None and m.shape != tuple(shape):
            raise ValueError(f"shape mismatch {m.shape} vs {tuple(shape)}")
        a, b, d = _parts(c)
        b_re, b_im = (1, 0) if m is None else m._part_bounds()
        if not (a or b) or not (b_re or b_im):
            continue
        if m is not None:
            d *= m.den
        den = math.lcm(den, d)
        live.append((a, b, d, m, gather, b_re, b_im))
    scaled = []
    re_bound = im_bound = 0
    int64 = True
    for a, b, d, m, gather, b_re, b_im in live:
        f = den // d
        a, b = a * f, b * f
        re_bound += abs(a) * b_re + abs(b) * b_im
        im_bound += abs(b) * b_re + abs(a) * b_im
        int64 = int64 and (m is None or m.re.dtype == np.int64)
        scaled.append((a, b, m, gather, b_im))
    dtype = np.int64 if int64 and max(re_bound, im_bound) < _I64_BOUND else object
    re = np.zeros(shape, dtype=dtype)
    # a sum whose imaginary bound is 0 is real: no term reaches im
    im = np.zeros(shape, dtype=dtype) if im_bound else None
    diagonal = np.arange(shape[0])
    for a, b, m, gather, b_im in scaled:
        if m is None:
            sign, rows = gather
            at = (diagonal, rows)
            sign = sign.astype(dtype, copy=False)
            if a:
                re[at] += a * sign
            if b:
                im[at] += b * sign
            continue
        mr, mi = m.re.astype(dtype, copy=False), m.im.astype(dtype, copy=False)
        if gather is not None:
            sign, rows = gather
            sign = sign.astype(dtype, copy=False)[:, None]
            mr = sign * mr[rows]
            mi = sign * mi[rows] if b_im else None
        _fma(re, a, mr)
        if b_im:
            _fma(re, -b, mi)
        if im is not None:
            _fma(im, b, mr)
            if b_im:
                _fma(im, a, mi)
    return ExactMatrix(re, im, den)


class FloatMatrix:
    """The float64 view of a matrix, with ExactMatrix's operation surface.

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
                  for x, b in zip((m.re, m.im), m._part_bounds()))
        return FloatMatrix(re, im, m.shape)

    @property
    def zero(self) -> bool:
        """Known to be zero: no part is stored."""
        return self.re is None and self.im is None

    def __add__(self, other):
        return FloatMatrix(_float_sum(((1, self.re), (1, other.re))),
                           _float_sum(((1, self.im), (1, other.im))), self.shape)

    def __sub__(self, other):
        return FloatMatrix(_float_sum(((1, self.re), (-1, other.re))),
                           _float_sum(((1, self.im), (-1, other.im))), self.shape)

    def __neg__(self):
        return FloatMatrix(_part(np.negative, self.re), _part(np.negative, self.im),
                           self.shape)

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

    def transpose(self):
        return FloatMatrix(_part(np.transpose, self.re), _part(np.transpose, self.im),
                           self.shape[::-1])

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
    side reduced in the same pass.  Returns one answer per right-hand side:
    a coefficient list (free variables set to 0), or None if inconsistent.
    Pivots are chosen from `columns` only, so each answer is exactly the one
    a call with that right-hand side alone would return.
    """
    ncols = len(columns)
    nrows = len(targets[0]) if targets else 0
    aug = [[columns[j][i] for j in range(ncols)] + [t[i] for t in targets]
           for i in range(nrows)]
    pivots: list[tuple[int, int]] = []
    row = 0
    for col in range(ncols):
        if row == nrows:
            break
        sel = next((r for r in range(row, nrows) if aug[r][col]), None)
        if sel is None:
            continue
        aug[row], aug[sel] = aug[sel], aug[row]
        pv = aug[row][col]
        aug[row] = [v / pv if v else v for v in aug[row]]
        # only the pivot row's nonzero entries change the other rows
        nz = [(k, v) for k, v in enumerate(aug[row]) if v]
        for r in range(nrows):
            f = aug[r][col]
            if r != row and f:
                arow = aug[r]
                for k, v in nz:
                    arow[k] = arow[k] - f * v
        pivots.append((row, col))
        row += 1
    answers = []
    for k in range(ncols, ncols + len(targets)):
        # inconsistency: zero row with nonzero rhs
        if any(aug[r][k] for r in range(row, nrows)):
            answers.append(None)
            continue
        x = [ZERO] * ncols
        for r, c in pivots:
            x[c] = aug[r][k]
        answers.append(x)
    return answers
