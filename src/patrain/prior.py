"""Monte-Carlo construction of the LMMSE coefficient prior from random Rapp amplifiers.

Each realization draws Rapp parameters, evaluates the amplifier on a fixed
amplitude grid and fits an order-L polynomial by least squares.  Realizations
are processed in blocks of array operations that reproduce the sequential
draws of :func:`draw_rapp_params` exactly.  The sample mean and covariance of
the fitted coefficient vectors form the prior, either with the channel phase
compensated (coherent) or averaged out (noncoherent).
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import CsvFormatError, RankDeficiencyError
from .estimators import PriorStatistics
from .pa_model import PaPolynomial, RappParameters, rapp_am_am, rapp_response

COHERENT = "coherent"
NONCOHERENT = "noncoherent"

# Realizations drawn, evaluated and fitted together.  A block holds a few
# (FIT_BLOCK, grid size) float arrays, so memory does not grow with the
# realization count beyond the (realizations, order) coefficient array.
FIT_BLOCK = 256

# Largest fit grid the command line accepts: a block of FIT_BLOCK responses on
# it takes about 20 MB per temporary array.
MAX_FIT_GRID_POINTS = 10_000


def default_fit_grid(max_amplitude: float = 1.5, step: float = 0.0625) -> np.ndarray:
    """Uniform fitting grid from 0 to ``max_amplitude`` in steps of ``step``."""
    count = round(max_amplitude / step)
    return np.linspace(0.0, max_amplitude, count + 1)


@dataclass(frozen=True)
class RappDistribution:
    """Independent Gaussian laws for the three Rapp parameters (mean, variance)."""

    gain_mean: float = 1.0
    gain_variance: float = 0.01
    v_sat_mean: float = 1.0
    v_sat_variance: float = 0.01
    smoothness_mean: float = 2.0
    smoothness_variance: float = 0.1

    def __post_init__(self) -> None:
        if min(self.gain_variance, self.v_sat_variance, self.smoothness_variance) < 0:
            raise ValueError("variances must be nonnegative")


@dataclass(frozen=True)
class PriorConfig:
    """Settings for one prior build: realization count, fit order, grid, mode, seed."""

    realizations: int = 100
    fit_order: int = 7
    fit_grid: np.ndarray = field(default_factory=default_fit_grid)
    mode: str = COHERENT
    seed: int = 0

    def __post_init__(self) -> None:
        if self.realizations < 1:
            raise ValueError("realizations must be >= 1")
        if self.mode not in (COHERENT, NONCOHERENT):
            raise ValueError(f"unknown prior mode: {self.mode!r}")
        grid = np.asarray(self.fit_grid, dtype=float)
        if np.unique(grid[grid > 0]).size < self.fit_order:
            raise ValueError("fit grid needs at least fit_order distinct positive points")
        object.__setattr__(self, "fit_grid", grid)


def draw_rapp_params(dist: RappDistribution, rng: np.random.Generator) -> RappParameters:
    """One parameter triple; nonpositive draws are rejected and redrawn."""
    while True:
        gain = rng.normal(dist.gain_mean, np.sqrt(dist.gain_variance))
        v_sat = rng.normal(dist.v_sat_mean, np.sqrt(dist.v_sat_variance))
        smoothness = rng.normal(dist.smoothness_mean, np.sqrt(dist.smoothness_variance))
        if gain > 0 and v_sat > 0 and smoothness > 0:
            return RappParameters(gain, v_sat, smoothness)


def _draw_accepted(loc: np.ndarray, scale: np.ndarray, rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` all-positive (gain, v_sat, smoothness) rows, rejecting as
    :func:`draw_rapp_params` does.

    Each round draws exactly as many rows as are still missing, so the stream
    is consumed row by row in the same order as the sequential loop.
    """
    kept = []
    while count:
        draws = rng.normal(loc, scale, size=(count, 3))
        draws = draws[(draws > 0).all(axis=1)]
        kept.append(draws)
        count -= len(draws)
    return np.concatenate(kept)


def rapp_response_blocks(dist: RappDistribution, rng: np.random.Generator, count: int, grid: np.ndarray):
    """Responses of ``count`` random Rapp amplifiers on ``grid``.

    Yields ``(k, grid.size)`` arrays of at most :data:`FIT_BLOCK` rows, in draw
    order.  The parameters are the ones ``count`` calls to
    :func:`draw_rapp_params` return, and each row equals :func:`rapp_response`
    for them, bit for bit.
    """
    grid = np.asarray(grid, dtype=float)
    if np.any(grid < 0):
        raise ValueError("amplitude must be nonnegative")
    loc = np.array([dist.gain_mean, dist.v_sat_mean, dist.smoothness_mean])
    scale = np.sqrt([dist.gain_variance, dist.v_sat_variance, dist.smoothness_variance])
    for start in range(0, count, FIT_BLOCK):
        params = _draw_accepted(loc, scale, rng, min(FIT_BLOCK, count - start))
        yield rapp_am_am(params[:, :1], params[:, 1:2], params[:, 2:], grid)


def _fit_basis(grid: np.ndarray, order: int) -> np.ndarray:
    """The ``G x order`` monomial basis ``grid**1 .. grid**order``."""
    if np.unique(grid[grid > 0]).size < order:
        raise RankDeficiencyError("fit grid needs at least order distinct positive points")
    return grid[:, None] ** np.arange(1, order + 1)


def fit_polynomial_to_curve(params: RappParameters, order: int, grid: np.ndarray) -> PaPolynomial:
    """Least-squares polynomial fit to the Rapp response sampled on ``grid``."""
    grid = np.asarray(grid, dtype=float)
    basis = _fit_basis(grid, order)
    coefficients, *_ = np.linalg.lstsq(basis, rapp_response(params, grid), rcond=None)
    return PaPolynomial(coefficients.astype(complex))


def fit_realizations(config: PriorConfig, dist: RappDistribution) -> np.ndarray:
    """``(realizations, fit_order)`` polynomial fits to ``config.realizations``
    Rapp draws; ``config.mode`` is not used.

    Row ``m`` fits the ``m``-th amplifier that sequential
    :func:`draw_rapp_params` calls would draw.  Each block of responses is
    fitted by one least-squares solve, which agrees with a
    :func:`fit_polynomial_to_curve` call to a few ulps.
    """
    basis = _fit_basis(config.fit_grid, config.fit_order)
    rng = np.random.default_rng(config.seed)
    # Filled in place to stay C-ordered: on an F-ordered array the moment sums
    # in prior_from_fits round differently.
    coefficients = np.empty((config.realizations, config.fit_order), dtype=complex)
    start = 0
    for responses in rapp_response_blocks(dist, rng, config.realizations, config.fit_grid):
        stop = start + len(responses)
        coefficients[start:stop] = np.linalg.lstsq(basis, responses.T, rcond=None)[0].T
        start = stop
    return coefficients


def prior_from_fits(coefficients: np.ndarray, mode: str) -> PriorStatistics:
    """Prior statistics of the rows of ``coefficients`` in the given mode.

    Coherent mode keeps the sample mean and centers the covariance with the
    Hermitian outer product of the mean.  Noncoherent mode zeroes the mean and
    uses the raw second moment, since a uniformly random phase rotation drops
    out of the outer products.
    """
    realizations, order = coefficients.shape
    second_moment = coefficients.T @ coefficients.conj() / realizations
    if mode == COHERENT:
        mean = coefficients.mean(axis=0)
        covariance = second_moment - np.outer(mean, mean.conj())
    elif mode == NONCOHERENT:
        mean = np.zeros(order, dtype=complex)
        covariance = second_moment
    else:
        raise ValueError(f"unknown prior mode: {mode!r}")
    covariance = 0.5 * (covariance + covariance.conj().T)
    return PriorStatistics(mean, covariance)


def build_prior(config: PriorConfig, dist: RappDistribution) -> PriorStatistics:
    """Prior statistics from ``config.realizations`` fitted Rapp draws, in
    ``config.mode`` (see :func:`prior_from_fits`)."""
    return prior_from_fits(fit_realizations(config, dist), config.mode)


def save_prior(prior: PriorStatistics, mean_path, cov_path) -> None:
    """Write the prior as a CSV pair: mean (index, re, im) and row-major covariance."""
    order = prior.order
    with open(mean_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["index", "re", "im"])
        for i, value in enumerate(prior.mean):
            writer.writerow([i, format(value.real, ".17g"), format(value.imag, ".17g")])
    with open(cov_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        header = []
        for j in range(order):
            header += [f"re_{j}", f"im_{j}"]
        writer.writerow(header)
        for row in prior.covariance:
            cells = []
            for value in row:
                cells += [format(value.real, ".17g"), format(value.imag, ".17g")]
            writer.writerow(cells)


def _read_rows(path, expected_width: int, label: str) -> list[list[float]]:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows:
        raise CsvFormatError(f"{label}: empty file")
    body = []
    for row in rows[1:]:
        if len(row) != expected_width:
            raise CsvFormatError(f"{label}: expected {expected_width} columns, got {len(row)}")
        try:
            body.append([float(cell) for cell in row])
        except ValueError as exc:
            raise CsvFormatError(f"{label}: non-numeric cell") from exc
    return body


def load_prior(mean_path, cov_path) -> PriorStatistics:
    """Read a prior written by :func:`save_prior`."""
    mean_rows = _read_rows(mean_path, 3, "prior mean")
    mean = np.array([complex(re, im) for _, re, im in mean_rows])
    order = mean.size
    cov_rows = _read_rows(cov_path, 2 * order, "prior covariance")
    if len(cov_rows) != order:
        raise CsvFormatError("prior covariance row count must match the mean length")
    flat = np.asarray(cov_rows, dtype=float)
    covariance = flat[:, 0::2] + 1j * flat[:, 1::2]
    return PriorStatistics(mean, covariance)
