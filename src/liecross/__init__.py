"""Exact computational algebra for crossed modules of Lie algebras.

Validate the defining axioms, build and compare morphisms, shift morphisms
along derivations, and exhaustively enumerate the homotopy groupoid between
two crossed modules over a prime field.  All arithmetic is exact: rationals
in lowest terms or residues mod p, never floats.
"""

from . import errors
from ._kernels import BACKEND as KERNEL_BACKEND
from .algebras import (
    MAX_DIM,
    CrossedModule,
    ImageIdealResult,
    LieAction,
    LieAlgebra,
    abelian_zero_crossed_module,
    act,
    bracket,
    image_is_ideal,
    inclusion_crossed_module,
    validate_action,
    validate_crossed_module,
    validate_lie_algebra,
)
from .arrows import Arrow, ArrowTable
from .documents import (
    DerivationCertificate,
    Workspace,
    parse_workspace,
    serialize_workspace,
)
from .fields import FieldSpec, Scalar
from .groupoid import (
    DEFAULT_ARROW_BUDGET,
    DEFAULT_BUDGET,
    HomGroupoid,
    build_hom_groupoid,
    enumerate_derivations,
    enumerate_morphisms,
    homotopy_classes,
    validate_groupoid,
)
from .homotopy import (
    Derivation,
    concat_homotopies,
    connects,
    homotopy_target,
    identity_homotopy,
    inverse_homotopy,
    is_f0_derivation,
    shift_morphism,
)
from .linalg import LinearMap, Vector
from .morphisms import (
    CrossedMorphism,
    compose_morphisms,
    identity_morphism,
    is_lie_morphism,
    validate_crossed_morphism,
)
from .validation import Failure, ValidationReport

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_ARROW_BUDGET",
    "DEFAULT_BUDGET",
    "KERNEL_BACKEND",
    "MAX_DIM",
    "Arrow",
    "ArrowTable",
    "CrossedModule",
    "CrossedMorphism",
    "Derivation",
    "DerivationCertificate",
    "Failure",
    "FieldSpec",
    "HomGroupoid",
    "ImageIdealResult",
    "LieAction",
    "LieAlgebra",
    "LinearMap",
    "Scalar",
    "ValidationReport",
    "Vector",
    "Workspace",
    "abelian_zero_crossed_module",
    "act",
    "bracket",
    "build_hom_groupoid",
    "compose_morphisms",
    "concat_homotopies",
    "connects",
    "enumerate_derivations",
    "enumerate_morphisms",
    "errors",
    "homotopy_classes",
    "homotopy_target",
    "identity_homotopy",
    "identity_morphism",
    "image_is_ideal",
    "inclusion_crossed_module",
    "inverse_homotopy",
    "is_f0_derivation",
    "shift_morphism",
    "is_lie_morphism",
    "parse_workspace",
    "serialize_workspace",
    "validate_action",
    "validate_crossed_module",
    "validate_crossed_morphism",
    "validate_groupoid",
    "validate_lie_algebra",
]
