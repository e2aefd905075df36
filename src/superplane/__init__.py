"""Exact computer algebra for two-parameter deformed superplane calculi."""

from types import ModuleType as _Module

from superplane.algebra import (
    DEFAULT_FUEL,
    AlgebraError,
    ConfluenceFailure,
    ConfluenceReport,
    CriticalPair,
    Expression,
    FuelExhausted,
    GenClass,
    GeneratorDecl,
    IncompletePresentation,
    Involution,
    MissingImage,
    MixedPresentation,
    Morphism,
    NotInvolutive,
    Presentation,
    RewriteRule,
    RuleError,
    check_local_confluence,
    critical_pairs,
)
from superplane.parsing import (
    ExprSyntaxError,
    UnknownGenerator,
    fingerprint,
    parse_expression,
    render_expression,
    render_presentation,
)
from superplane.presentations import (
    AlgebraCatalog,
    ConstructionFailure,
    ContractionMap,
    DerivedRelation,
    IncompleteLocalization,
    RoundTripFailure,
    build_catalog,
    catalog_presentations,
    localize,
)
from superplane.scalars import (
    DivisionByZero,
    IndeterminateAtPoint,
    Poly,
    PoleAtPoint,
    Scalar,
    poly_gcd,
)

__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_")
                 and not isinstance(value, _Module))
