"""Featured team automata: build them, project them, check receptiveness."""

from .automata import Component, FeaturedComponent, Fts, Lts
from .dsl import (
    Diagnostic,
    ElaborationResult,
    ParseResult,
    SpecDocument,
    elaborate,
    elaborate_text,
    parse,
    parse_expr,
)
from .errors import (
    Budget,
    FetaError,
    InvalidProductError,
    ResourceLimitError,
    SpecificationError,
    TotalityError,
)
from .family import (
    FamilyRequirement,
    FamilyVerdict,
    check_family_compliance,
    check_family_receptiveness,
    check_family_weak_compliance,
    crosscheck_compliance_unfolding,
    crosscheck_family_vs_products,
    crosscheck_requirement_projection,
    derive_family_requirements,
    products_for_group,
    reachable_products,
)
from .features import (
    FALSE,
    TRUE,
    And,
    FeatureExpr,
    FeatureSpace,
    Iff,
    Implies,
    Not,
    Or,
    Product,
    Var,
    Xor,
    all_products,
    conj,
    disj,
    entails,
    evaluate,
    expr_mask,
    format_expr,
    is_satisfiable,
    product_expr,
    product_index,
    product_set_expr,
    products_in,
    simplified,
    valid_products,
    variables,
)
from .receptiveness import (
    ComplianceVerdict,
    ReceptivenessReport,
    Requirement,
    check_receptiveness,
    check_weak_compliance,
    derive_requirements,
)
from .synctypes import (
    STAR,
    FeaturedSyncSpec,
    Interval,
    SyncRule,
    SyncType,
    SyncTypeSpec,
)
from .system import ClosureReport, FeaturedSystem, System, SystemLabel, SystemTransition
from .team import (
    CommutationResult,
    FeaturedClasses,
    LabelClass,
    build_featured_classes,
    build_featured_team,
    build_team,
    check_projection_commutes,
    product_team,
    prune_for_display,
    reachable_featured_team,
)

__version__ = "0.1.0"
