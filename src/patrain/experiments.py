"""Deterministic experiment runners producing the CSV data behind the figures."""

import csv
from dataclasses import dataclass

import numpy as np

from .design import allocate_pilots, uniform_pilots
from .errors import CsvFormatError, DimensionMismatchError
from .estimators import (
    EstimationResult,
    PriorStatistics,
    ls_estimate,
    lmmse_estimate,
    mse_curve,
)
from .pa_model import PilotSequence, RappParameters, build_design_matrix, rapp_response
# build_prior and draw_rapp_params are not called here any more.  They stay
# importable from this module because perfbench's tracer wraps them here.
from .prior import (
    COHERENT,
    NONCOHERENT,
    PriorConfig,
    RappDistribution,
    build_prior,
    default_fit_grid,
    draw_rapp_params,
    fit_polynomial_to_curve,
    fit_realizations,
    prior_from_fits,
    rapp_response_blocks,
)

PER_SYMBOL = "per-symbol"
TOTAL = "total"

# Amplitude sampling used when reporting maximal-MSE values: matches the
# resolution at which the reference curves were generated.
FIGURE_MSE_SAMPLES = 100

# Sampling of the reconstruction-MSE curves over the input range.
CURVE_SAMPLES = 501

DEFAULT_SNR_SWEEP_DB = tuple(i * 20.0 / 3.0 for i in range(10))


@dataclass(frozen=True)
class CsvTable:
    """Rectangular numeric table serialized with ``digits`` significant digits."""

    header: tuple
    rows: np.ndarray
    digits: int = 9

    def __post_init__(self) -> None:
        rows = np.atleast_2d(np.asarray(self.rows, dtype=float))
        if rows.shape[1] != len(self.header):
            raise DimensionMismatchError("row width must match the header")
        object.__setattr__(self, "header", tuple(self.header))
        object.__setattr__(self, "rows", rows)

    def column(self, name: str) -> np.ndarray:
        return self.rows[:, self.header.index(name)]

    def to_csv(self) -> str:
        lines = [",".join(self.header)]
        for row in self.rows:
            lines.append(",".join(format(value, f".{self.digits}g") for value in row))
        return "\n".join(lines) + "\n"

    def write(self, path) -> None:
        with open(path, "w", newline="") as handle:
            handle.write(self.to_csv())


def _figure_max_mse(design, sigma2, prior=None):
    grid = np.linspace(0.0, 1.0, FIGURE_MSE_SAMPLES)
    return float(mse_curve(design, grid, sigma2, prior).mse_values.max())


def snr_db_to_sigma2(snr_db: float, convention: str, n_pilots: int, p_max: float = 1.0) -> float:
    """Noise variance for an SNR point under the chosen convention."""
    snr = 10.0 ** (snr_db / 10.0)
    if convention == PER_SYMBOL:
        return p_max / snr
    if convention == TOTAL:
        return p_max / (n_pilots * snr)
    raise ValueError(f"unknown SNR convention: {convention!r}")


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
    pilot_uniform = np.full(CURVE_SAMPLES, np.nan)
    pilot_optimal = np.full(CURVE_SAMPLES, np.nan)
    pilot_uniform[:n_pilots] = uniform.amplitudes()
    pilot_optimal[:n_pilots] = optimal.amplitudes()
    rows = np.column_stack(
        [amplitudes, curve_uniform.mse_values, curve_optimal.mse_values, pilot_uniform, pilot_optimal]
    )
    return CsvTable(("amplitude", "mse_uniform", "mse_optimal", "pilot_uniform", "pilot_optimal"), rows)


def run_fig2(max_order: int = 8) -> CsvTable:
    """Maximal-MSE gain of the optimal over the uniform allocation for N = L."""
    rows = []
    for order in range(1, max_order + 1):
        d_uniform = _figure_max_mse(build_design_matrix(uniform_pilots(order), order), 1.0)
        d_optimal = _figure_max_mse(build_design_matrix(allocate_pilots(order, order), order), 1.0)
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
    rng = np.random.default_rng(seed)
    responses = np.concatenate(list(rapp_response_blocks(dist, rng, realizations, grid)))
    nominal_params = RappParameters(dist.gain_mean, dist.v_sat_mean, dist.smoothness_mean)
    nominal = rapp_response(nominal_params, grid)
    fit_model = fit_polynomial_to_curve(nominal_params, order, grid)
    fitted = (grid[:, None] ** np.arange(1, order + 1)) @ fit_model.coefficients.real
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
    grid = default_fit_grid() if fit_grid is None else np.asarray(fit_grid, dtype=float)
    dist = RappDistribution()
    # One set of fits serves both modes; each prior equals build_prior's for its mode.
    fits = fit_realizations(PriorConfig(realizations, order, grid, COHERENT, seed), dist)
    priors = {mode: prior_from_fits(fits, mode) for mode in (COHERENT, NONCOHERENT)}
    designs = {
        "uniform": build_design_matrix(uniform_pilots(n_pilots), order),
        "optimal": build_design_matrix(allocate_pilots(order, n_pilots), order),
    }
    rows = []
    for snr_db in snr_db_list:
        sigma2 = snr_db_to_sigma2(snr_db, convention, n_pilots)
        row = [snr_db]
        for allocation in ("uniform", "optimal"):
            row.append(_figure_max_mse(designs[allocation], sigma2))
            row.append(_figure_max_mse(designs[allocation], sigma2, priors[COHERENT]))
            row.append(_figure_max_mse(designs[allocation], sigma2, priors[NONCOHERENT]))
        rows.append(row)
    return CsvTable(FIG4_COLUMNS, rows)


def design_table(
    order: int, n_pilots: int, max_amplitude: float = 1.0, allocation: str = "optimal"
) -> CsvTable:
    """Pilot sequence (optimal by default) as an (index, amp, phase) table."""
    if allocation == "optimal":
        pilots = allocate_pilots(order, n_pilots, max_amplitude)
    elif allocation == "uniform":
        pilots = uniform_pilots(n_pilots, max_amplitude)
    else:
        raise ValueError(f"unknown allocation: {allocation!r}")
    rows = np.column_stack(
        [np.arange(n_pilots), pilots.amplitudes(), np.angle(pilots.symbols)]
    )
    return CsvTable(("index", "amp", "phase"), rows)


def estimation_table(result: EstimationResult) -> CsvTable:
    """Estimate and covariance in one table: per-coefficient row with the
    matching covariance row appended as interleaved re/im columns."""
    order = result.estimate.size
    header = ["index", "beta_re", "beta_im"]
    for j in range(order):
        header += [f"cov_re_{j}", f"cov_im_{j}"]
    rows = []
    for i in range(order):
        row = [i, result.estimate[i].real, result.estimate[i].imag]
        for value in result.error_covariance[i]:
            row += [value.real, value.imag]
        rows.append(row)
    # Round-trip digits: 9 would perturb a nearly singular posterior covariance
    # enough to make the printed matrix indefinite.
    return CsvTable(tuple(header), rows, digits=17)


def estimate_from_files(
    pilots: PilotSequence,
    observations: np.ndarray,
    order: int,
    sigma2: float,
    prior: PriorStatistics | None = None,
) -> EstimationResult:
    """Batch estimation entry point shared by the CLI."""
    if observations.shape != (len(pilots),):
        raise DimensionMismatchError("observation count must match the pilot count")
    design = build_design_matrix(pilots, order)
    if prior is None:
        return ls_estimate(design, observations, sigma2)
    return lmmse_estimate(design, observations, sigma2, prior)


def _read_csv_columns(path, expected_header: tuple, label: str) -> np.ndarray:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows or tuple(rows[0]) != expected_header:
        raise CsvFormatError(f"{label}: expected header {','.join(expected_header)}")
    try:
        body = np.array([[float(cell) for cell in row] for row in rows[1:]], dtype=float)
    except ValueError as exc:
        raise CsvFormatError(f"{label}: non-numeric cell") from exc
    if body.ndim != 2 or body.size == 0 or body.shape[1] != len(expected_header):
        raise CsvFormatError(f"{label}: malformed rows")
    return body


def read_pilot_csv(path) -> PilotSequence:
    """Pilot sequence from an (index, amp, phase) CSV."""
    body = _read_csv_columns(path, ("index", "amp", "phase"), "pilot csv")
    amps, phases = body[:, 1], body[:, 2]
    if np.any(amps < 0):
        raise CsvFormatError("pilot csv: negative amplitude")
    max_amplitude = float(amps.max())
    if max_amplitude <= 0:
        raise CsvFormatError("pilot csv: all amplitudes are zero")
    return PilotSequence(amps * np.exp(1j * phases), max_amplitude)


def read_observation_csv(path) -> np.ndarray:
    """Complex observation vector from an (index, re, im) CSV."""
    body = _read_csv_columns(path, ("index", "re", "im"), "observation csv")
    return body[:, 1] + 1j * body[:, 2]
