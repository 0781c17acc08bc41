"""Self-tuning maximum-entropy neighbor prediction and the composite-fatigue
feature pipeline built around it."""

from .core import (
    ConvexSubset,
    Dataset,
    MaxEntParams,
    Prediction,
    PredictionFailure,
    filter_convex,
    optimize_bandwidth,
    predict_batch,
    predict_classification,
    predict_point,
    predict_regression,
)
from .errors import (
    DegenerateBaselineError,
    DegenerateNeighborhoodError,
    IngestionError,
    InvalidInputError,
    InvalidMaterialError,
    LayupParseError,
    MaxentError,
    NumericalFailureError,
    ParameterError,
)
from .laminate import (
    ABDMatrices,
    Layup,
    PlyProperties,
    T700_PLY,
    abd_matrices,
    parse_layup,
    ply_stiffness_q12,
    rotate_to_laminate_axes,
    standard_layups,
    stiffness_feature_row,
)
from .signals import (
    correlation_coefficient,
    miner_damage_index,
    power_ratio,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
