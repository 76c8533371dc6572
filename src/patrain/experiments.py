"""Deterministic experiment runners producing the CSV data behind the figures."""

import math

import numpy as np

from .design import allocate_pilots, uniform_pilots
from .errors import CsvFormatError, InvalidInputError
from .estimators import (
    EstimationResult,
    PriorStatistics,
    _factor,
    _require_noise_variance,
    _seeded_rng,
    ls_estimate,
    lmmse_estimate,
    mse_curve,
)
from .pa_model import PilotSequence, RappParameters, _require_integer, basis_rows, build_design_matrix, rapp_response
# perfbench's tracer wraps build_prior, draw_rapp_params and CsvTable here, so
# they stay importable from this module.
from .prior import (
    COHERENT,
    NONCOHERENT,
    CsvTable,
    PriorConfig,
    RappDistribution,
    _complex_columns,
    _covariance_header,
    build_prior,
    default_fit_grid,
    draw_rapp_params,
    fit_moments,
    fit_polynomial_to_curve,
    fit_realizations,
    prior_from_moments,
    rapp_response_blocks,
    read_complex_vector,
    read_csv_table,
)

PER_SYMBOL = "per-symbol"
TOTAL = "total"

# Amplitude sampling used when reporting maximal-MSE values: matches the
# resolution at which the reference curves were generated.
FIGURE_MSE_SAMPLES = 100

# Sampling of the reconstruction-MSE curves over the input range.
CURVE_SAMPLES = 501

DEFAULT_SNR_SWEEP_DB = tuple(i * 20.0 / 3.0 for i in range(10))


def snr_db_to_sigma2(snr_db: float, convention: str, n_pilots: int) -> float:
    """Noise variance ``1 / SNR`` at the unit amplitude cap; under ``total`` the SNR spans ``n_pilots`` pilots.

    A variance outside the float range raises :class:`InvalidNoiseError`.
    """
    if convention not in (PER_SYMBOL, TOTAL):
        raise InvalidInputError(f"unknown SNR convention: {convention!r}")
    try:
        snr = 10.0 ** (snr_db / 10.0) * (n_pilots if convention == TOTAL else 1)
    except OverflowError:
        snr = math.inf
    sigma2 = 1.0 / snr if snr > 0 else math.inf
    _require_noise_variance(sigma2)
    return sigma2


def run_fig1(order: int = 5, n_pilots: int = 5, sigma2: float = 1.0) -> CsvTable:
    """LS reconstruction-MSE curves for the uniform and optimal allocations.

    The pilot-location columns list the pilot amplitudes of both allocations in
    the first ``n_pilots`` rows and are nan-padded below to keep the table
    rectangular.
    """
    uniform = uniform_pilots(n_pilots)
    optimal = allocate_pilots(order, n_pilots)
    amplitudes = np.linspace(0.0, 1.0, CURVE_SAMPLES)
    curve_uniform = mse_curve(build_design_matrix(uniform, order), amplitudes, sigma2)
    curve_optimal = mse_curve(build_design_matrix(optimal, order), amplitudes, sigma2)
    pilot_columns = np.full((CURVE_SAMPLES, 2), np.nan)
    pilot_columns[:n_pilots] = np.column_stack([uniform.amplitudes(), optimal.amplitudes()])
    rows = np.column_stack([amplitudes, curve_uniform.mse_values, curve_optimal.mse_values, pilot_columns])
    return CsvTable(("amplitude", "mse_uniform", "mse_optimal", "pilot_uniform", "pilot_optimal"), rows)


def run_fig2(max_order: int = 8) -> CsvTable:
    """Maximal-MSE gain of the optimal over the uniform allocation for N = L."""
    _require_integer(max_order, "max_order", 1)
    grid = np.linspace(0.0, 1.0, FIGURE_MSE_SAMPLES)
    rows = []
    for order in range(1, max_order + 1):
        d_uniform, d_optimal = (
            mse_curve(build_design_matrix(pilots, order), grid, 1.0).mse_values.max()
            for pilots in (uniform_pilots(order), allocate_pilots(order, order))
        )
        rows.append([order, d_uniform / d_optimal])
    return CsvTable(("order", "gain_ratio"), rows)


def run_fig3(
    realizations: int = 100,
    order: int = 7,
    seed: int = 0,
    fit_grid: np.ndarray | None = None,
) -> CsvTable:
    """Random Rapp response statistics and the polynomial fit of the nominal response.

    The confidence band is the empirical mean of the response amplitude across
    realizations plus/minus two standard deviations.
    """
    grid = default_fit_grid() if fit_grid is None else np.asarray(fit_grid, dtype=float)
    dist = RappDistribution()
    nominal_params = RappParameters(dist.gain_mean, dist.v_sat_mean, dist.smoothness_mean)
    # The fit checks the grid, so it comes before any draw.
    fit_model = fit_polynomial_to_curve(nominal_params, order, grid)
    rng = _seeded_rng(seed)
    # The blocks are column-major; numpy sums a column-major axis 0 in another order.
    responses = np.ascontiguousarray(np.concatenate(list(rapp_response_blocks(dist, rng, realizations, grid))))
    nominal = rapp_response(nominal_params, grid)
    fitted = basis_rows(grid, order) @ fit_model.coefficients.real
    mean = responses.mean(axis=0)
    spread = 2.0 * responses.std(axis=0)
    rows = np.column_stack([grid, nominal, fitted, mean, mean - spread, mean + spread])
    return CsvTable(("amplitude", "nominal_rapp", "poly_fit", "mean", "lower_band", "upper_band"), rows)


FIG4_COLUMNS = (
    "snr_db",
    "d_uniform_ls",
    "d_uniform_lmmse_coh",
    "d_uniform_lmmse_noncoh",
    "d_optimal_ls",
    "d_optimal_lmmse_coh",
    "d_optimal_lmmse_noncoh",
)


def run_fig4(
    order: int = 7,
    n_pilots: int = 7,
    snr_db_list=DEFAULT_SNR_SWEEP_DB,
    convention: str = PER_SYMBOL,
    realizations: int = 100,
    seed: int = 0,
    fit_grid: np.ndarray | None = None,
) -> CsvTable:
    """Maximal prediction MSE against SNR for every estimator and allocation."""
    # The designs come first, so a bad pilot count fails before the prior fits.
    pilots = (uniform_pilots(n_pilots), allocate_pilots(order, n_pilots))
    designs = [build_design_matrix(sequence, order) for sequence in pilots]
    grid = default_fit_grid() if fit_grid is None else np.asarray(fit_grid, dtype=float)
    dist = RappDistribution()
    # One set of fits and one second moment serve both modes; each prior equals build_prior's.
    moments = fit_moments(fit_realizations(PriorConfig(realizations, order, grid, COHERENT, seed), dist))
    priors = [prior_from_moments(*moments, mode) for mode in (COHERENT, NONCOHERENT)]
    # One factor per (prior, design), LS first and uniform first, serves the whole
    # sweep on shared rows; the first to fail the rank or noise check raises.
    sigma2s = np.array([snr_db_to_sigma2(snr_db, convention, n_pilots) for snr_db in snr_db_list], dtype=float)
    rows = basis_rows(np.linspace(0.0, 1.0, FIGURE_MSE_SAMPLES), order).astype(complex)
    maxima = [_factor(phi, prior).rows_mse(rows, sigma2s).max(axis=0) for prior in (None, *priors) for phi in designs]
    return CsvTable(FIG4_COLUMNS, np.column_stack([snr_db_list, *maxima[0::2], *maxima[1::2]]))


def design_table(
    order: int, n_pilots: int, max_amplitude: float = 1.0, allocation: str = "optimal"
) -> CsvTable:
    """Pilot sequence (optimal by default) as an (index, amp, phase) table."""
    if allocation == "optimal":
        pilots = allocate_pilots(order, n_pilots, max_amplitude)
    elif allocation == "uniform":
        pilots = uniform_pilots(n_pilots, max_amplitude)
    else:
        raise InvalidInputError(f"unknown allocation: {allocation!r}")
    rows = np.column_stack(
        [np.arange(n_pilots), pilots.amplitudes(), np.angle(pilots.symbols)]
    )
    return CsvTable(("index", "amp", "phase"), rows)


def estimation_table(result: EstimationResult) -> CsvTable:
    """Estimate and covariance in one table: per-coefficient row with the
    matching covariance row appended as interleaved re/im columns."""
    order = result.estimate.size
    header = ("index", "beta_re", "beta_im", *(f"cov_{name}" for name in _covariance_header(order)))
    estimate_and_covariance = np.column_stack([result.estimate, result.error_covariance])
    rows = np.column_stack([np.arange(order), _complex_columns(estimate_and_covariance)])
    # Round-trip digits: 9 would perturb a nearly singular posterior covariance
    # enough to make the printed matrix indefinite.
    return CsvTable(header, rows, digits=17)


def estimate_from_files(
    pilots: PilotSequence,
    observations: np.ndarray,
    order: int,
    sigma2: float,
    prior: PriorStatistics | None = None,
) -> EstimationResult:
    """Batch estimation entry point shared by the CLI; the estimator checks the observation count."""
    design = build_design_matrix(pilots, order)
    if prior is None:
        return ls_estimate(design, observations, sigma2)
    return lmmse_estimate(design, observations, sigma2, prior)


def read_pilot_csv(path) -> PilotSequence:
    """Pilot sequence from an (index, amp, phase) CSV."""
    body = read_csv_table(path, ("index", "amp", "phase"), "pilot csv")
    amps, phases = body[:, 1], body[:, 2]
    if np.any(amps < 0):
        raise CsvFormatError("pilot csv: negative amplitude")
    max_amplitude = float(amps.max())
    if max_amplitude <= 0:
        raise CsvFormatError("pilot csv: all amplitudes are zero")
    return PilotSequence(amps * np.exp(1j * phases), max_amplitude)


def read_observation_csv(path) -> np.ndarray:
    """Complex observation vector from an (index, re, im) CSV, bit for bit."""
    return read_complex_vector(path, "observation csv")
