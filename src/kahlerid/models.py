"""Finite-dimensional model spaces: unimodular Lie algebras with inner frame.

A model is a real Lie algebra of dimension 2n with orthonormal frame
e_1..e_2n and structure constants [e_A, e_B] = sum_C c^C_{AB} e_C, carrying
the adapted almost complex structure J e_i = e_{i+n}.  Invariant forms are
identified with the exterior algebra of the dual; the Chevalley-Eilenberg
differential, the Levi-Civita connection in the invariant frame, and the
Nijenhuis tensor are all exact rational computations.

The structure constants (`LieModel.constants`), the Christoffel symbols
(`levi_civita`) and the Nijenhuis tensor (`nijenhuis`) are each one sparse
table {(a, b): {c: value}} of their nonzero `Fraction` components, Gamma and
N built in one pass over the nonzero constants.  Validation, d, nabla on
polyvectors and forms, integrability and the zoo's Nijenhuis slices read
these tables.

Unimodularity (tr ad_X = 0) is required: it makes the matrix adjoint of d
coincide with the formal codifferential, which the whole operator calculus
relies on.
"""
from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .algebra import AdaptedStructure, Multivector, j_vector
from .matrices import ExactMatrix
from .operators import (
    LinearOperator,
    apply_operator,
    bidegree_decompose,
    blade_structure,
    contract,
    derivation,
    form_slices,
)


class ModelFormatError(ValueError):
    """Malformed model description (bad JSON shape, indices, or values)."""


class ModelValidationError(ValueError):
    """Structure constants violate a Lie-algebra invariant."""

    def __init__(self, report: "ValidationReport"):
        self.report = report
        super().__init__(report.summary())


class GeometryError(RuntimeError):
    """An internal cross-check failed while deriving model geometry."""


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LieModel:
    name: str
    n: int
    entries: tuple[tuple[int, int, int, Fraction], ...]

    @property
    def dim(self) -> int:
        return 2 * self.n

    @cached_property
    def constants(self) -> dict[tuple[int, int], dict[int, Fraction]]:
        """{(a, b): {c: c^c_{ab}}}, the nonzero constants, with antisymmetric
        completion over the stored entries."""
        return _table(t for (a, b, c, v) in self.entries for t in ((a, b, c, v), (b, a, c, -v)))


def _table(terms) -> dict[tuple[int, int], dict[int, Fraction]]:
    """{(a, b): {c: sum of v}} over the terms (a, b, c, v), nonzero sums only."""
    table: dict = {}
    for a, b, c, v in terms:
        row = table.setdefault((a, b), {})
        row[c] = row.get(c, 0) + v
    return {key: kept for key, row in table.items() if (kept := {c: v for c, v in row.items() if v})}


def from_brackets(name: str, n: int, brackets: dict) -> LieModel:
    """brackets: {(a, b): {c: value}} with a < b, 1-based indices."""
    entries = []
    for (a, b), targets in sorted(brackets.items()):
        for c, v in sorted(targets.items()):
            entries.append((a, b, c, Fraction(v)))
    return LieModel(name, n, tuple(entries))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidationFailure:
    invariant: str
    indices: tuple[int, ...]
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    model: str
    ok: bool
    failures: tuple[ValidationFailure, ...]

    def summary(self) -> str:
        if self.ok:
            return f"model {self.model}: all Lie-algebra invariants hold"
        lines = [f"model {self.model}: {len(self.failures)} invariant failure(s)"]
        for f in self.failures:
            lines.append(f"  {f.invariant} at {f.indices}: {f.detail}")
        return "\n".join(lines)


def validate_model(m: LieModel) -> ValidationReport:
    failures: list[ValidationFailure] = []
    dim = m.dim

    for (a, b, c, v) in m.entries:
        for idx in (a, b, c):
            if not 1 <= idx <= dim:
                failures.append(
                    ValidationFailure(
                        "index-range", (a, b, c), f"index {idx} outside 1..{dim}"
                    )
                )
        if a == b and v:
            failures.append(
                ValidationFailure(
                    "antisymmetry", (a, b, c), f"[e_{a}, e_{a}] must vanish, got {v}"
                )
            )
    if failures:
        return ValidationReport(m.name, False, tuple(failures))

    # a bracket stored again, or again in the other order with the
    # antisymmetric value, would be counted twice by `LieModel.constants`
    seen: dict[tuple[int, int, int], Fraction] = {}
    for (a, b, c, v) in m.entries:
        if (a, b, c) in seen:
            failures.append(
                ValidationFailure("duplicate-entry", (a, b, c), "entry stored twice")
            )
        elif seen.get((b, a, c)) == -v:
            failures.append(ValidationFailure(
                "duplicate-entry", (a, b, c), f"entry stored twice, also as ({b}, {a}, {c})"))
        seen[(a, b, c)] = v
    for (a, b, c), v in seen.items():
        w = seen.get((b, a, c))
        if w is not None and v != -w:
            failures.append(
                ValidationFailure(
                    "antisymmetry",
                    (a, b, c),
                    f"c^{c}_{{{a}{b}}} = {v} but c^{c}_{{{b}{a}}} = {w}",
                )
            )
    if failures:
        return ValidationReport(m.name, False, tuple(failures))

    # Jacobi: [[A,B],C] + [[B,C],A] + [[C,A],B] = 0, reporting the first
    # component left nonzero as the three terms accumulate
    const = m.constants
    for a in range(1, dim + 1):
        for b in range(a + 1, dim + 1):
            for c in range(b + 1, dim + 1):
                tot: dict[int, Fraction] = {}
                for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                    term: dict[int, Fraction] = {}
                    for k, v in const.get((x, y), {}).items():
                        _accumulate(term, ((e, v * w) for e, w in const.get((k, z), {}).items()))
                    _accumulate(tot, term.items())
                if tot:
                    e, v = next(iter(tot.items()))
                    failures.append(ValidationFailure(
                        "jacobi", (a, b, c, e), f"jacobiator component {v} along e_{e}"))

    # unimodularity: sum_A c^A_{AB} = 0 for each B
    for b in range(1, dim + 1):
        tr = sum(const.get((a, b), {}).get(a, 0) for a in range(1, dim + 1))
        if tr:
            failures.append(
                ValidationFailure(
                    "unimodularity", (b,), f"tr ad_e{b} = {-tr} must vanish"
                )
            )

    return ValidationReport(m.name, not failures, tuple(failures))


def _accumulate(acc: dict, items) -> None:
    """Add the (key, value) items into acc, dropping a key once it sums to zero."""
    for k, v in items:
        s = acc.get(k, 0) + v
        if s:
            acc[k] = s
        else:
            acc.pop(k, None)


# ---------------------------------------------------------------------------
# Chevalley-Eilenberg differential
# ---------------------------------------------------------------------------

def ce_differential(m: LieModel) -> LinearOperator:
    """d on invariant forms: d t^C = -sum_{A<B} c^C_{AB} t^A ^ t^B, extended
    as an antiderivation."""
    dtheta: dict[int, dict] = {c: {} for c in range(1, m.dim + 1)}
    for (a, b), row in m.constants.items():
        if a < b:
            for c, v in row.items():
                dtheta[c][(1 << (a - 1)) | (1 << (b - 1))] = -v
    return derivation({c: Multivector(m.n, acc) for c, acc in dtheta.items()}, "ext")


# ---------------------------------------------------------------------------
# Levi-Civita connection
# ---------------------------------------------------------------------------

def levi_civita(m: LieModel) -> dict[tuple[int, int], dict[int, Fraction]]:
    """Christoffel table {(a, b): {c: Gamma}}, nabla_{e_a} e_b = sum_c Gamma e_c,
    from the Koszul formula in an orthonormal invariant frame:
    2 <nabla_{e_A} e_B, e_C> = c^C_{AB} - c^A_{BC} + c^B_{CA}.  Each
    c^z_{xy} = v adds v/2 at (x, y, z), -v/2 at (z, x, y) and v/2 at (y, z, x).
    """
    return _table(t for (x, y), row in m.constants.items() for z, v in row.items()
                  for t in ((x, y, z, v / 2), (z, x, y, -v / 2), (y, z, x, v / 2)))


def nabla(gamma: dict, n: int, a: int) -> LinearOperator:
    """nabla_{e_a} on polyvectors/Clifford elements (derivation extension)."""
    action = {b: Multivector(n, {1 << (c - 1): v for c, v in gamma.get((a, b), {}).items()})
              for b in range(1, 2 * n + 1)}
    return derivation(action, "cl")


def nabla_forms(gamma: dict, n: int, a: int) -> LinearOperator:
    """nabla_{e_a} on forms: (nabla alpha)(Y) = -alpha(nabla Y) on invariants."""
    action: dict[int, dict] = {c: {} for c in range(1, 2 * n + 1)}
    for b in range(1, 2 * n + 1):
        for c, v in gamma.get((a, b), {}).items():
            action[c][1 << (b - 1)] = -v
    return derivation({c: Multivector(n, acc) for c, acc in action.items()}, "ext")


# ---------------------------------------------------------------------------
# Nijenhuis tensor
# ---------------------------------------------------------------------------

def nijenhuis(m: LieModel) -> dict[tuple[int, int], dict[int, Fraction]]:
    """{(a, b): {k: <N(e_a, e_b), e_k>}} for
    N(X,Y) = 1/4 ([JX,JY] - J[JX,Y] - J[X,JY] - [X,Y]).

    pre[x] = (i, s) where J(s e_i) = e_x.  A constant c^k_{xy} = v, with
    J e_k = t e_l, enters each term where its bracket is [e_x, e_y]: the
    first at X = s_i e_i, Y = s_j e_j, the second at X = s_i e_i, the third
    at Y = s_j e_j, and J[e_x, e_y] = v t e_l.
    """
    st = AdaptedStructure(m.n)
    pre = {x: (i, s) for i in range(1, m.dim + 1) for x, s in [st.pair(i)]}

    def terms():
        for (x, y), row in m.constants.items():
            (i, si), (j, sj) = pre[x], pre[y]
            for k, v in row.items():
                l, t = st.pair(k)
                q = v / 4
                yield i, j, k, si * sj * q  # [JX, JY]
                yield i, y, l, -si * t * q  # -J[JX, Y]
                yield x, j, l, -sj * t * q  # -J[X, JY]
                yield x, y, k, -q  # -[X, Y]

    return _table(terms())


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelGeometry:
    model: LieModel
    structure: AdaptedStructure
    connection: dict  # levi_civita's table
    d: LinearOperator
    # d = mu + del + delbar + mubar, keyed by (p, q) = (3, 0), (2, 1), (1, 2),
    # (0, 3): the part of bidegree shift (p - 1, q - 1), which sends omega, of
    # bidegree (1, 1), to the (p, q) part of d omega
    d_parts: dict
    omega_form: Multivector  # omega; its coefficients are the same in both pictures
    d_omega: Multivector
    d_omega_parts: dict  # (p, q) -> d_parts[(p, q)] applied to omega
    d_omega_plus: Multivector
    d_omega_minus: Multivector
    lee_form: Multivector
    jstar_lee: Multivector
    dstar_omega: Multivector
    nijenhuis: dict  # nijenhuis's table, empty exactly when J is integrable
    integrable: bool
    almost_kahler: bool
    lee_zero: bool

    @cached_property
    def d_omega_plus_slices(self) -> list:
        """The slices P_a[b-1, c-1] = (d omega)^+(e_a, e_b, e_c), taken once."""
        return form_slices(self.d_omega_plus)

    @property
    def n(self) -> int:
        return self.model.n


def geometry(m: LieModel) -> ModelGeometry:
    report = validate_model(m)
    if not report.ok:
        raise ModelValidationError(report)

    n = m.n
    bs = blade_structure(n)
    st = AdaptedStructure(n)
    d = ce_differential(m)

    d2 = d.matrix @ d.matrix
    if not d2.is_zero():
        raise GeometryError(f"model {m.name}: d^2 != 0 despite Jacobi passing")

    # matrix adjoint of d must be the formal codifferential -*d*
    codiff = -(bs.hodge @ (d.matrix @ bs.hodge))
    if d.matrix.adjoint() != codiff:
        raise GeometryError(
            f"model {m.name}: matrix adjoint of d is not -*d* (codifferential)"
        )

    # the part of shift (p - 1, q - 1) sends omega to the (p, q) part of d omega
    shifts = bidegree_decompose(d)
    zero = LinearOperator(ExactMatrix.zeros(bs.dim), "ext", "odd")
    d_parts = {(p, 3 - p): shifts.pop((p - 1, 2 - p), zero) for p in (3, 2, 1, 0)}
    if shifts:
        raise GeometryError(f"model {m.name}: d has unexpected bidegree shifts {sorted(shifts)}")

    omega = st.omega()
    d_omega = apply_operator(d, omega)
    parts = {pq: apply_operator(part, omega) for pq, part in d_parts.items()}
    plus = parts[(2, 1)] + parts[(1, 2)]
    minus = parts[(3, 0)] + parts[(0, 3)]

    lee = contract(omega, plus)
    lee_full = contract(omega, d_omega)
    dstar_omega_vec = bs.to_multivector(d.matrix.adjoint() @ bs.to_column(omega))
    lee_via_dstar = -j_vector(dstar_omega_vec, "ext")
    if lee != lee_full:
        raise GeometryError(
            f"model {m.name}: omega _| d_omega disagrees with omega _| d_omega_plus"
        )
    if lee != lee_via_dstar:
        raise GeometryError(
            f"model {m.name}: Lee form cross-check -J*(d* omega) failed"
        )

    nij = nijenhuis(m)
    return ModelGeometry(
        model=m,
        structure=st,
        connection=levi_civita(m),
        d=d,
        d_parts=d_parts,
        omega_form=omega,
        d_omega=d_omega,
        d_omega_parts=parts,
        d_omega_plus=plus,
        d_omega_minus=minus,
        lee_form=lee,
        jstar_lee=j_vector(lee, "ext"),
        dstar_omega=dstar_omega_vec,
        nijenhuis=nij,
        integrable=not nij,
        almost_kahler=d_omega.is_zero(),
        lee_zero=lee.is_zero(),
    )


# ---------------------------------------------------------------------------
# built-in models
# ---------------------------------------------------------------------------

def _builtin_defs():
    return {
        "t2": (1, {}, "abelian, n=1"),
        "t4": (2, {}, "abelian, n=2"),
        "t6": (3, {}, "abelian, n=3"),
        "kt4": (
            2,
            {(1, 2): {3: 1}},
            "nilpotent n=2: almost Kahler (d omega = 0) with N != 0",
        ),
        "hopf4": (
            2,
            {(1, 2): {3: 1}, (2, 3): {1: 1}, (1, 3): {2: -1}},
            "su(2) x R, n=2: integrable with nonzero Lee form",
        ),
        "iwa6": (
            3,
            {(1, 2): {3: 1}, (4, 5): {3: -1}, (1, 5): {6: 1}, (2, 4): {6: -1}},
            "complex Heisenberg, n=3: integrable, d omega != 0",
        ),
        "nil6": (
            3,
            {(1, 2): {4: -1}, (1, 3): {5: -1}, (2, 3): {6: -1}},
            "nilpotent n=3: all four bidegree parts of d omega nonzero",
        ),
    }


def builtin_models() -> dict[str, LieModel]:
    return {
        name: from_brackets(name, n, brackets)
        for name, (n, brackets, _) in _builtin_defs().items()
    }


def builtin_descriptions() -> dict[str, str]:
    return {name: desc for name, (_, _, desc) in _builtin_defs().items()}


def get_model(name: str) -> LieModel:
    models = builtin_models()
    if name not in models:
        raise ModelFormatError(
            f"unknown model {name!r}; built-ins: {', '.join(sorted(models))}"
        )
    return models[name]


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

# largest half-dimension a model file may declare
MAX_N = 4

# Fraction expands "me<k>" through 10**|k| in full, so an exponent of 10**8
# takes minutes.  10**k has k + 1 digits: hold it to Python's default limit
# on the digits of an integer string, which already caps plain integers.
MAX_EXPONENT = sys.int_info.default_max_str_digits - 1
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def _parse_value(v, where: str) -> Fraction:
    if isinstance(v, bool):
        raise ModelFormatError(f"{where}: value must be rational, got boolean")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        try:
            exponent = _EXPONENT.search(v)
            if exponent and abs(int(exponent[1])) > MAX_EXPONENT:
                raise ValueError(f"exponent {exponent[1]} is beyond ±{MAX_EXPONENT}")
            return Fraction(v)
        except (ValueError, ZeroDivisionError) as e:
            raise ModelFormatError(f"{where}: bad rational string {v!r}: {e}") from e
    if isinstance(v, float):
        raise ModelFormatError(
            f"{where}: floats are not accepted; use an integer or a 'p/q' string"
        )
    raise ModelFormatError(f"{where}: value must be int or 'p/q' string, got {type(v).__name__}")


def load_model_dict(data: dict) -> LieModel:
    if not isinstance(data, dict):
        raise ModelFormatError("model description must be a JSON object")
    for key in ("name", "n", "brackets"):
        if key not in data:
            raise ModelFormatError(f"missing required key {key!r}")
    name = data["name"]
    if not isinstance(name, str) or not name:
        raise ModelFormatError("'name' must be a nonempty string")
    n = data["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ModelFormatError("'n' must be a positive integer")
    if n > MAX_N:
        raise ModelFormatError(
            f"'n' = {n} exceeds the limit n <= {MAX_N}: operators are dense"
            f" 4^n x 4^n matrices ({4**MAX_N} x {4**MAX_N} at the limit)"
        )
    brackets = data["brackets"]
    if not isinstance(brackets, list):
        raise ModelFormatError("'brackets' must be a list")
    dim = 2 * n
    entries = []
    seen = set()
    for pos, row in enumerate(brackets):
        where = f"brackets[{pos}]"
        if not isinstance(row, dict):
            raise ModelFormatError(f"{where}: expected an object")
        for key in ("a", "b", "c", "v"):
            if key not in row:
                raise ModelFormatError(f"{where}: missing key {key!r}")
        a, b, c = row["a"], row["b"], row["c"]
        for label, idx in (("a", a), ("b", b), ("c", c)):
            if isinstance(idx, bool) or not isinstance(idx, int):
                raise ModelFormatError(f"{where}: index {label} must be an integer")
            if not 1 <= idx <= dim:
                raise ModelFormatError(
                    f"{where}: index {label}={idx} outside 1..{dim} (invariant: index-range)"
                )
        if a >= b:
            raise ModelFormatError(
                f"{where}: requires a < b, got a={a}, b={b} (invariant: antisymmetry;"
                " store each bracket once with a < b)"
            )
        if (a, b, c) in seen:
            raise ModelFormatError(
                f"{where}: duplicate entry for (a={a}, b={b}, c={c})"
            )
        seen.add((a, b, c))
        v = _parse_value(row["v"], where)
        if v:
            entries.append((a, b, c, v))
    return LieModel(name, n, tuple(entries))


def load_model_file(path) -> LieModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise ModelFormatError(f"cannot read model file {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise ModelFormatError(f"model file {path} is not valid UTF-8: {e}") from e
    except json.JSONDecodeError as e:
        raise ModelFormatError(f"model file {path} is not valid JSON: {e}") from e
    except RecursionError as e:
        raise ModelFormatError(f"model file {path} is nested too deeply: {e}") from e
    return load_model_dict(data)


def resolve_model(spec: str) -> LieModel:
    """A built-in name, or a path to a JSON model file."""
    if spec in builtin_models():
        return get_model(spec)
    if spec.endswith(".json") or "/" in spec:
        return load_model_file(spec)
    raise ModelFormatError(
        f"unknown model {spec!r}; use a built-in name"
        f" ({', '.join(sorted(builtin_models()))}) or a path to a JSON file"
    )
