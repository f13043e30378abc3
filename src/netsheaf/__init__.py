"""netsheaf: exact decision procedures for independence conditions and sheaf
conditions of finite nets of operator algebras.

Two engines cover the finite-dimensional world: partitions of a finite set
stand for commutative subalgebras of the function algebra on that set (the
only engine on which context posets are enumerable), and matrix *-algebras
over exact Gaussian rationals cover the noncommutative side.  Everything is
immutable, pure and exact; no floating point is used anywhere.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .contexts import (
    DEFAULT_MAX_BELL,
    AdjunctionReport,
    ContextPoset,
    Contexts,
    FinitePoset,
    MonotoneMap,
    ThickeningReport,
    dot_export,
    enumerate_contexts,
    left_adjoint,
    restrict_context,
    thickening_report,
)
from .descent import (
    MAX_FIBERED_ELEMENTS,
    MAX_STABILITY_TRIPLES,
    DescentReport,
    FiberedContextProduct,
    RingComponent,
    StabilityViolation,
    covering_stability,
    descent_map,
    fibered_context_product,
    ring_component,
    sheaf_report,
)
from .errors import (
    EngineError,
    InputError,
    InternalConsistencyError,
    NetsheafError,
    PreconditionError,
    SizeGuardError,
)
from .independence import (
    CONDITIONS,
    UNDETERMINED,
    AlgebraPair,
    HierarchyReport,
    cstar_independent,
    extended_locality,
    hierarchy_report,
    microcausality,
    product_sense,
    schlieder,
    strong_locality,
    unit_law,
)
from .net import (
    NetReport,
    NetSpec,
    NetValidation,
    PairAnalysis,
    SpacetimePoset,
    analyze_net,
    validate_net,
)
from .partitions import (
    AmbientSet,
    Partition,
    all_partitions,
    bell_number,
    coarsenings,
    common_refinement,
    is_coarser,
    overlap_join,
)
from .scalars import GaussianRational
from .staralg import (
    StarAlgebra,
    commutant,
    generated_star_algebra,
    indicator_algebra,
    intersection_algebra,
    multiplication_kernel_dim,
)
from .valuations import (
    ProductExtensionResult,
    RestrictionMap,
    Spectrum,
    Valuation,
    product_extension,
    pushforward,
    valuation_independence_test,
)

__all__ = [
    "__version__",
    "DEFAULT_MAX_BELL",
    "MAX_FIBERED_ELEMENTS",
    "MAX_STABILITY_TRIPLES",
    "AdjunctionReport",
    "ContextPoset",
    "Contexts",
    "FinitePoset",
    "MonotoneMap",
    "ThickeningReport",
    "dot_export",
    "enumerate_contexts",
    "left_adjoint",
    "restrict_context",
    "thickening_report",
    "DescentReport",
    "FiberedContextProduct",
    "RingComponent",
    "StabilityViolation",
    "covering_stability",
    "descent_map",
    "fibered_context_product",
    "ring_component",
    "sheaf_report",
    "EngineError",
    "InputError",
    "InternalConsistencyError",
    "NetsheafError",
    "PreconditionError",
    "SizeGuardError",
    "CONDITIONS",
    "UNDETERMINED",
    "AlgebraPair",
    "HierarchyReport",
    "cstar_independent",
    "extended_locality",
    "hierarchy_report",
    "microcausality",
    "product_sense",
    "schlieder",
    "strong_locality",
    "unit_law",
    "NetReport",
    "NetSpec",
    "NetValidation",
    "PairAnalysis",
    "SpacetimePoset",
    "analyze_net",
    "validate_net",
    "AmbientSet",
    "Partition",
    "all_partitions",
    "bell_number",
    "coarsenings",
    "common_refinement",
    "is_coarser",
    "overlap_join",
    "GaussianRational",
    "StarAlgebra",
    "commutant",
    "generated_star_algebra",
    "indicator_algebra",
    "intersection_algebra",
    "multiplication_kernel_dim",
    "ProductExtensionResult",
    "RestrictionMap",
    "Spectrum",
    "Valuation",
    "product_extension",
    "pushforward",
    "valuation_independence_test",
]
