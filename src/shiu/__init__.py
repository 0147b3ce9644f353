"""Tuples that force consecutive congruent primes, and tools around them."""

from .bounds import (
    BoundRow,
    LinnikConfig,
    ScalingFit,
    bound_table,
    measure_b,
    scaling_fit,
)
from .construction import (
    Construction,
    ConstructionParams,
    WindowReport,
    as_ktuple,
    build,
    choose_t,
    reverify,
    scan_windows,
    verify_admissible,
    verify_isolation,
)
from .errors import (
    DomainError,
    InternalConsistencyError,
    NotFoundError,
    ResourceError,
    ShiuError,
)
from .search import (
    DiameterStats,
    ShiuString,
    all_strings,
    diameter_stats,
    first_string,
)
from .sieve import APIndex, primes_up_to
from .tuples import (
    AdmissibilityReport,
    KTuple,
    LinearForm,
    is_admissible,
    make_tuple,
    residue_coverage,
)

__version__ = "0.1.0"

__all__ = [
    "APIndex",
    "AdmissibilityReport",
    "BoundRow",
    "Construction",
    "ConstructionParams",
    "DiameterStats",
    "DomainError",
    "InternalConsistencyError",
    "KTuple",
    "LinearForm",
    "LinnikConfig",
    "NotFoundError",
    "ResourceError",
    "ScalingFit",
    "ShiuError",
    "ShiuString",
    "WindowReport",
    "all_strings",
    "as_ktuple",
    "bound_table",
    "build",
    "choose_t",
    "diameter_stats",
    "first_string",
    "is_admissible",
    "make_tuple",
    "measure_b",
    "primes_up_to",
    "residue_coverage",
    "reverify",
    "scaling_fit",
    "scan_windows",
    "verify_admissible",
    "verify_isolation",
]
