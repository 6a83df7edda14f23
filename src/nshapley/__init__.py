"""Exact order-n interaction attributions for low-dimensional models.

The package computes, for a prediction function and a choice of value
function, the full family of n-Shapley values: per-coalition
attributions that interpolate between classic per-feature Shapley
values (n = 1) and the complete functional decomposition of the model
at the explained point (n = d, the Shapley-GAM). Everything is exact
up to float64 roundoff; combinatorial coefficients are formed in
rational arithmetic.

Dimensions are capped at 24 and practical up to roughly 16.
"""

from .analysis import DegreeReport, DependenceSeries, interaction_degree, partial_dependence
from .core import (
    InteractionIndex,
    RecoveryReport,
    ShapleyGam,
    classic_shapley_oracle,
    delta_all,
    n_shapley_all_orders,
    n_shapley_explicit,
    n_shapley_from_gam,
    n_shapley_recursive,
    recovery_check,
    reduce_order,
    shapley_gam,
)
from .exactnum import bernoulli, coeff_c
from .models import (
    CheckerboardModel,
    ComponentMap,
    ConstantComponent,
    ExternalModel,
    KnnModel,
    LookupComponent,
    PolyFactor,
    PredictFn,
    ProcessFailed,
    ProductComponent,
    ProtocolTimeout,
    SineFactor,
    StepFactor,
)
from .valuefn import (
    GamInducedValueFunction,
    InterventionalValueFunction,
    NoMatchingRows,
    ObservationalExactMatchValueFunction,
    ValueFunction,
    ValueTable,
    build_value_table,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # exact coefficients
    "bernoulli",
    "coeff_c",
    # value functions
    "NoMatchingRows",
    "ValueTable",
    "ValueFunction",
    "InterventionalValueFunction",
    "ObservationalExactMatchValueFunction",
    "GamInducedValueFunction",
    "build_value_table",
    # models
    "PredictFn",
    "ComponentMap",
    "ConstantComponent",
    "ProductComponent",
    "LookupComponent",
    "PolyFactor",
    "SineFactor",
    "StepFactor",
    "CheckerboardModel",
    "KnnModel",
    "ExternalModel",
    "ProcessFailed",
    "ProtocolTimeout",
    # engine
    "InteractionIndex",
    "ShapleyGam",
    "n_shapley_from_gam",
    "n_shapley_all_orders",
    "shapley_gam",
    "reduce_order",
    # cross-check routes (``nshapley check`` and the tests)
    "RecoveryReport",
    "delta_all",
    "n_shapley_recursive",
    "n_shapley_explicit",
    "classic_shapley_oracle",
    "recovery_check",
    # analysis
    "DegreeReport",
    "interaction_degree",
    "DependenceSeries",
    "partial_dependence",
]
