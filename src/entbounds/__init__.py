"""Bipartite quantum-correlation measures and monogamy/polygamy bound
verification for small qubit registers."""

from .linalg import (
    ComplexMatrix,
    DensityMatrix,
    LinalgError,
    SystemSignature,
    partial_trace,
    partial_transpose,
    schmidt_coefficients,
    trace_norm,
)
from .states import (
    PureState,
    SchmidtParams,
    StateError,
    generalized_schmidt_state,
    haar_random_pure,
    reduce_pair,
    to_density,
    w_class_state,
)
from .measures import (
    Ensemble,
    MeasureError,
    RoofConfig,
    RoofResult,
    concurrence_pure,
    concurrence_wootters,
    convex_roof,
    cren,
    crenoa,
    negativity_mixed,
    negativity_pure,
    scren,
    screnoa,
)
from .bounds import (
    AdmissibilityReport,
    BoundReport,
    BoundsError,
    ChainParams,
    ChainStepError,
    MonogamyParams,
    PolygamyParams,
    PreconditionError,
    chain_monogamy_bound,
    chain_polygamy_bound,
    lemma1_check,
    lemma1_f,
    prior_monogamy_bound,
    prior_polygamy_bound,
    thm1_lower_bound,
    thm4_upper_bound,
    validate_params,
)

__version__ = "0.1.0"
