"""Operator identities for almost complex structures, verified exactly
on finite-dimensional Lie-algebra model spaces.

The package builds the exterior and Clifford pictures of a 2n-dimensional
unimodular Lie algebra with an adapted almost complex structure, assembles
the derived operator zoo (Dirac operators, Lefschetz pair, torsion
operators), and checks every identity in the catalog with exact Gaussian
rational arithmetic.
"""
from .algebra import AdaptedStructure, Multivector, coframe, frame
from .matrices import ExactMatrix, FloatMatrix, solve_exact
from .models import (
    GeometryError,
    LieModel,
    ModelFormatError,
    ModelValidationError,
    builtin_descriptions,
    builtin_models,
    geometry,
    get_model,
    load_model_dict,
    load_model_file,
    resolve_model,
    validate_model,
)
from .operators import (
    LinearOperator,
    StructuralError,
    adjoint,
    bar,
    blade_structure,
    compose,
    conjugate,
    contract,
    derivation_rebuild,
    make_operator,
    measured_bidegree,
    supercommutator,
    transport,
)
from .scalars import GaussianRational, gq
from .verifier import (
    COVERAGE,
    SUITES,
    IdentityEntry,
    Report,
    Workspace,
    catalog,
    emit_bidegree_table,
    emit_commutator_table,
    verify,
)
from .zoo import assemble

__version__ = "0.1.0"

__all__ = [
    "AdaptedStructure",
    "COVERAGE",
    "ExactMatrix",
    "FloatMatrix",
    "GaussianRational",
    "GeometryError",
    "IdentityEntry",
    "LieModel",
    "LinearOperator",
    "ModelFormatError",
    "ModelValidationError",
    "Multivector",
    "Report",
    "StructuralError",
    "SUITES",
    "Workspace",
    "adjoint",
    "assemble",
    "bar",
    "blade_structure",
    "builtin_descriptions",
    "builtin_models",
    "catalog",
    "coframe",
    "compose",
    "conjugate",
    "contract",
    "derivation_rebuild",
    "emit_bidegree_table",
    "emit_commutator_table",
    "frame",
    "geometry",
    "get_model",
    "gq",
    "load_model_dict",
    "load_model_file",
    "make_operator",
    "measured_bidegree",
    "resolve_model",
    "solve_exact",
    "supercommutator",
    "transport",
    "validate_model",
    "verify",
]
