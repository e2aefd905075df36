"""Exact computer algebra for two-parameter deformed superplane calculi.

The verification suites load on first use of one of their names here, so
that a command which runs no suite does not compile them.
"""

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
    CompositeElements,
    ConstructionFailure,
    ContractionMap,
    DerivedRelation,
    IncompleteLocalization,
    RoundTripFailure,
    build_catalog,
    catalog_presentations,
    expression_parity,
    localize,
)
from superplane.scalars import (
    DivisionByZero,
    GaussianRational,
    IndeterminateAtPoint,
    Poly,
    PoleAtPoint,
    Scalar,
    poly_gcd,
)

_VERIFY_NAMES = frozenset({"CheckResult", "SuiteReport", "SUITES", "overall_ok",
                           "render_structured", "render_text", "run_all"})


def __getattr__(name: str):
    if name in _VERIFY_NAMES:
        from superplane import verify

        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = sorted(_VERIFY_NAMES.union(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _Module)))
