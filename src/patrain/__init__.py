"""Over-the-air PA model estimation and D-optimal pilot training design."""

from .design import (
    DesignCriterionValue,
    allocate_pilots,
    d_criterion,
    exchange_search_verify,
    legendre_derivative_roots,
    optimal_support_points,
    uniform_pilots,
)
from .errors import (
    ConvergenceError,
    CsvFormatError,
    DimensionMismatchError,
    InvalidInputError,
    InvalidNoiseError,
    InvalidPriorError,
    NonFiniteInputError,
    PatrainError,
    PilotAllocationError,
    RankDeficiencyError,
)
from .estimators import (
    EstimationResult,
    MseCurve,
    NoiseModel,
    PriorStatistics,
    generate_noisy_observations,
    lmmse_estimate,
    ls_estimate,
    max_prediction_mse,
    mse_curve,
    prediction_covariance,
    prediction_mse,
)
from .pa_model import (
    PaPolynomial,
    PilotSequence,
    RappParameters,
    build_design_matrix,
    eval_polynomial,
    rapp_response,
)
from .prior import (
    PriorConfig,
    RappDistribution,
    build_prior,
    default_fit_grid,
    draw_rapp_params,
    fit_polynomial_to_curve,
    load_prior,
    save_prior,
)

__version__ = "0.1.0"
