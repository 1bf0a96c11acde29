"""Dense exact matrices: integer numerator pairs over a shared denominator.

An ExactMatrix holds complex entries (re + im*i)/den with re, im integer
arrays and den a single positive integer.  All arithmetic is exact; int64
storage is used while safe and silently promoted to Python big integers
(object dtype) when a bound check says int64 could overflow.

A matmul of int64 operands whose every partial sum stays below 2**53 runs
on float64 BLAS: float64 holds those integers exactly, so the result is
the exact integer product.  No float ever enters the object path.

FloatMatrix mirrors the same interface over complex128 for timing
experiments.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .scalars import GaussianRational, ZERO

# int64 guard: |result| of any fused multiply-add stays below 2**62
_I64_BOUND = 1 << 62
# float64 guard: every integer of magnitude below 2**53 is a float64
_F64_BOUND = 1 << 53


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


class ExactMatrix:
    __slots__ = ("re", "im", "den")

    def __init__(self, re: np.ndarray, im: np.ndarray, den: int, *, _normalized=False):
        if _normalized:
            self.re, self.im, self.den = re, im, den
            return
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            re, im, den = -re, -im, -den
        g = math.gcd(_gcd_reduce(re), _gcd_reduce(im))
        if g == 0:  # every entry is 0; den may exceed int64, so drop it
            den = 1
        g = math.gcd(g, den)
        if g > 1:
            re = re // g
            im = im // g
            den = den // g
        if re.dtype == object and max(_max_abs(re), _max_abs(im)) < _I64_BOUND:
            re = re.astype(np.int64)
            im = im.astype(np.int64)
        self.re, self.im, self.den = re, im, int(den)

    # -- constructors ----------------------------------------------------
    @staticmethod
    def zeros(rows: int, cols: int | None = None) -> "ExactMatrix":
        cols = rows if cols is None else cols
        z = np.zeros((rows, cols), dtype=np.int64)
        return ExactMatrix(z, z.copy(), 1, _normalized=True)

    @staticmethod
    def identity(dim: int) -> "ExactMatrix":
        return ExactMatrix(
            np.eye(dim, dtype=np.int64), np.zeros((dim, dim), dtype=np.int64), 1,
            _normalized=True,
        )

    @staticmethod
    def diag(values) -> "ExactMatrix":
        """Diagonal matrix from int/Fraction/GaussianRational values."""
        vals = [v if isinstance(v, GaussianRational) else GaussianRational(v) for v in values]
        den = 1
        for v in vals:
            den = math.lcm(den, v.re.denominator, v.im.denominator)
        dim = len(vals)
        re = np.zeros((dim, dim), dtype=object)
        im = np.zeros((dim, dim), dtype=object)
        for k, v in enumerate(vals):
            re[k, k] = int(v.re * den)
            im[k, k] = int(v.im * den)
        return ExactMatrix(re, im, den)

    @staticmethod
    def from_columns(rows: int, cols: list[dict[int, GaussianRational]]) -> "ExactMatrix":
        """Columns given as sparse dicts row_index -> GaussianRational."""
        den = 1
        for col in cols:
            for v in col.values():
                den = math.lcm(den, v.re.denominator, v.im.denominator)
        re = np.zeros((rows, len(cols)), dtype=object)
        im = np.zeros((rows, len(cols)), dtype=object)
        for j, col in enumerate(cols):
            for i, v in col.items():
                re[i, j] = int(v.re * den)
                im[i, j] = int(v.im * den)
        return ExactMatrix(re, im, den)

    @staticmethod
    def column(rows: int, entries: dict[int, GaussianRational]) -> "ExactMatrix":
        return ExactMatrix.from_columns(rows, [entries])

    # -- shape / access --------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return self.re.shape

    def entry(self, i: int, j: int) -> GaussianRational:
        return GaussianRational(
            Fraction(int(self.re[i, j]), self.den),
            Fraction(int(self.im[i, j]), self.den),
        )

    def column_dict(self, j: int) -> dict[int, GaussianRational]:
        rows = np.flatnonzero((self.re[:, j] != 0) | (self.im[:, j] != 0))
        return {int(i): self.entry(i, j) for i in rows}

    def is_zero(self) -> bool:
        return not (np.any(self.re) or np.any(self.im))

    def has_im(self) -> bool:
        return bool(np.any(self.im))

    def max_norm(self) -> Fraction:
        return Fraction(max(_max_abs(self.re), _max_abs(self.im)), self.den)

    # -- linear ops ------------------------------------------------------
    def _add_scaled(self, other: "ExactMatrix", sign: int) -> "ExactMatrix":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        den = math.lcm(self.den, other.den)
        fa = den // self.den
        fb = sign * (den // other.den)
        a_max = max(_max_abs(self.re), _max_abs(self.im)) * fa
        b_max = max(_max_abs(other.re), _max_abs(other.im)) * abs(fb)
        if (
            self.re.dtype == np.int64
            and other.re.dtype == np.int64
            and a_max + b_max < _I64_BOUND
            and max(fa, abs(fb)) < _I64_BOUND
        ):
            re = self.re * np.int64(fa) + other.re * np.int64(fb)
            im = self.im * np.int64(fa) + other.im * np.int64(fb)
        else:
            re = self.re.astype(object) * fa + other.re.astype(object) * fb
            im = self.im.astype(object) * fa + other.im.astype(object) * fb
        return ExactMatrix(re, im, den)

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._add_scaled(other, 1)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._add_scaled(other, -1)

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix(-self.re, -self.im, self.den, _normalized=True)

    def scale(self, c) -> "ExactMatrix":
        if not isinstance(c, GaussianRational):
            c = GaussianRational(c)
        d = math.lcm(c.re.denominator, c.im.denominator)
        a = int(c.re * d)
        b = int(c.im * d)
        m = max(_max_abs(self.re), _max_abs(self.im)) * max(abs(a), abs(b))
        if (
            self.re.dtype == np.int64
            and 2 * m < _I64_BOUND
            and max(abs(a), abs(b)) < _I64_BOUND
        ):
            re = self.re * np.int64(a) - self.im * np.int64(b)
            im = self.re * np.int64(b) + self.im * np.int64(a)
        else:
            ro = self.re.astype(object)
            io = self.im.astype(object)
            re = ro * a - io * b
            im = ro * b + io * a
        return ExactMatrix(re, im, self.den * d)

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        """Exact product on the cheapest safe tier: float64 BLAS while every
        partial sum is an integer below 2**53, then int64 below 2**62, then
        Python big integers."""
        if self.shape[1] != other.shape[0]:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        k = self.shape[1]
        a_max = max(_max_abs(self.re), _max_abs(self.im))
        b_max = max(_max_abs(other.re), _max_abs(other.im))
        bound = 2 * k * a_max * b_max
        if self.re.dtype == np.int64 and other.re.dtype == np.int64 and bound < _I64_BOUND:
            dtype = np.float64 if bound < _F64_BOUND else np.int64
        else:
            dtype = object
        ar, ai, br, bi = (x.astype(dtype, copy=False)
                          for x in (self.re, self.im, other.re, other.im))
        a_imz = not np.any(ai)
        b_imz = not np.any(bi)
        if a_imz and b_imz:
            re = ar @ br
            im = np.zeros_like(re)
        elif a_imz:
            re = ar @ br
            im = ar @ bi
        elif b_imz:
            re = ar @ br
            im = ai @ br
        else:
            re = ar @ br - ai @ bi
            im = ar @ bi + ai @ br
        if dtype is np.float64:
            # exact integers below 2**53: the conversion loses nothing
            re = re.astype(np.int64)
            im = im.astype(np.int64)
        return ExactMatrix(re, im, self.den * other.den)

    # -- involutions -----------------------------------------------------
    def adjoint(self) -> "ExactMatrix":
        return ExactMatrix(self.re.T.copy(), -self.im.T, self.den, _normalized=True)

    def bar(self) -> "ExactMatrix":
        """Entrywise complex conjugation."""
        return ExactMatrix(self.re, -self.im, self.den, _normalized=True)

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(self.re.T.copy(), self.im.T.copy(), self.den, _normalized=True)

    # -- comparison ------------------------------------------------------
    def __eq__(self, other):
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
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        a_max = max(_max_abs(self.re), _max_abs(self.im))
        b_max = max(_max_abs(other.re), _max_abs(other.im))
        fast = (
            self.re.dtype == np.int64
            and other.re.dtype == np.int64
            and 2 * self.re.size * a_max * b_max < _I64_BOUND
        )
        dtype = np.int64 if fast else object
        ar, ai, br, bi = (x.astype(dtype, copy=False).ravel()
                          for x in (self.re, self.im, other.re, other.im))
        re = int(np.dot(ar, br) + np.dot(ai, bi))
        im = int(np.dot(ai, br) - np.dot(ar, bi))
        d = self.den * other.den
        return GaussianRational(Fraction(re, d), Fraction(im, d))

    def to_complex(self) -> np.ndarray:
        return (self.re.astype(np.float64) + 1j * self.im.astype(np.float64)) / self.den

    def __repr__(self):
        r, c = self.shape
        return f"ExactMatrix({r}x{c}, den={self.den}, max={self.max_norm()})"


class FloatMatrix:
    """complex128 twin of ExactMatrix with the same operation surface."""

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        self.data = np.asarray(data, dtype=np.complex128)

    @staticmethod
    def from_exact(m: ExactMatrix) -> "FloatMatrix":
        return FloatMatrix(m.to_complex())

    @property
    def shape(self):
        return self.data.shape

    def __add__(self, other):
        return FloatMatrix(self.data + other.data)

    def __sub__(self, other):
        return FloatMatrix(self.data - other.data)

    def __neg__(self):
        return FloatMatrix(-self.data)

    def scale(self, c):
        if isinstance(c, GaussianRational):
            c = c.to_complex()
        return FloatMatrix(self.data * c)

    def __matmul__(self, other):
        return FloatMatrix(self.data @ other.data)

    def adjoint(self):
        return FloatMatrix(self.data.conj().T)

    def bar(self):
        return FloatMatrix(self.data.conj())

    def transpose(self):
        return FloatMatrix(self.data.T)

    def is_zero(self) -> bool:
        return not np.any(self.data)

    def max_norm(self) -> float:
        if self.data.size == 0:
            return 0.0
        return float(np.max(np.abs(self.data)))


def solve_exact(columns: list[list[GaussianRational]], target, *, many: bool = False):
    """Solve sum_j x_j * columns[j] = target exactly.

    Gauss-Jordan elimination over the Gaussian rationals.  Returns a
    coefficient list (free variables set to 0) or None if inconsistent.
    With many=True, `target` is a list of right-hand sides reduced together
    in one pass, and the result holds one such answer per right-hand side.
    Pivots are chosen from `columns` only, so each answer is exactly the one
    a separate call would return.
    """
    targets = target if many else [target]
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
    return answers if many else answers[0]
