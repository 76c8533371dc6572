"""Monte-Carlo construction of the LMMSE coefficient prior from random Rapp amplifiers.

Each realization draws Rapp parameters, evaluates the amplifier on a fixed
amplitude grid and fits an order-L polynomial by least squares, as a product
with the pseudo-inverse of the grid's basis rows, the same for every
realization.  Realizations are processed in blocks of array operations whose
draws consume the stream row by row, exactly as :func:`draw_rapp_params` would.
The sample mean and complex second moment of the fitted coefficient vectors
(:func:`fit_moments`) give the prior of either mode, with the channel phase
compensated (coherent) or averaged out (noncoherent), so one set of fits and
one moment serve both.
:class:`CsvTable` writes every CSV file of the package, :func:`read_csv_table` reads them.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CsvFormatError, DimensionMismatchError, InvalidInputError, RankDeficiencyError
from .estimators import PriorStatistics, _seeded_rng
from .pa_model import (
    PaPolynomial, RappParameters, _require_finite, _require_integer, basis_rows, rapp_am_am, rapp_response
)

COHERENT = "coherent"
NONCOHERENT = "noncoherent"

# Realizations drawn, evaluated and fitted together.  A block holds a few
# (FIT_BLOCK, grid size) float arrays, so memory does not grow with the
# realization count beyond the (realizations, order) coefficient array.
FIT_BLOCK = 256

# Largest fit grid the command line accepts: a block of FIT_BLOCK responses on
# it takes about 20 MB per temporary array.
MAX_FIT_GRID_POINTS = 10_000


def _fit_grid_size(max_amplitude: float, step: float) -> int:
    """Point count of :func:`default_fit_grid`, known before any grid is built.

    ``max_amplitude / step`` must be a whole number of steps, at least 1, within
    1e-9 relative, so that the grid spacing is the step asked for.
    """
    if not (0 < max_amplitude < math.inf and 0 < step < math.inf):
        raise InvalidInputError("fit grid bounds must be positive and finite")
    ratio = float(max_amplitude) / float(step)
    if not math.isfinite(ratio):
        raise InvalidInputError(f"fit grid from 0 to {max_amplitude} in steps of {step} has too many points")
    steps = round(ratio)
    if steps < 1 or abs(ratio - steps) > 1e-9 * ratio:
        raise InvalidInputError(
            f"fit grid step {step} does not divide the maximum {max_amplitude} into a whole number of steps"
        )
    return steps + 1


def default_fit_grid(max_amplitude: float = 1.5, step: float = 0.0625) -> np.ndarray:
    """Uniform fitting grid from 0 to ``max_amplitude`` in steps of ``step``, both positive and
    finite; a step that does not divide ``max_amplitude`` raises :class:`InvalidInputError`."""
    return np.linspace(0.0, max_amplitude, _fit_grid_size(max_amplitude, step))


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
        means = (self.gain_mean, self.v_sat_mean, self.smoothness_mean)
        variances = (self.gain_variance, self.v_sat_variance, self.smoothness_variance)
        # With every mean positive, a drawn triple is all positive with
        # probability at least 1/8, so the rejection loops end.
        if not all(0 < mean < math.inf for mean in means):
            raise InvalidInputError("means must be positive and finite")
        if not all(0 <= variance < math.inf for variance in variances):
            raise InvalidInputError("variances must be nonnegative and finite")


@dataclass(frozen=True, eq=False)
class PriorConfig:
    """Settings for one prior build: realization count, fit order, grid, mode, seed."""

    realizations: int = 100
    fit_order: int = 7
    fit_grid: np.ndarray = field(default_factory=default_fit_grid)
    mode: str = COHERENT
    seed: int = 0

    def __post_init__(self) -> None:
        _require_integer(self.realizations, "realizations", 1)
        if self.mode not in (COHERENT, NONCOHERENT):
            raise InvalidInputError(f"unknown prior mode: {self.mode!r}")
        grid = np.asarray(self.fit_grid, dtype=float)
        _check_fit_grid(grid, self.fit_order)
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

    Each round draws exactly as many rows as are still missing, as
    ``loc + scale * z``, the bits of ``rng.normal(loc, scale)``, so the stream is
    consumed row by row in the same order as the sequential loop.
    """
    kept = []
    while True:
        draws = loc + scale * rng.standard_normal((count, 3))
        if draws.min() > 0:  # nothing rejected, the usual round
            return np.concatenate([*kept, draws]) if kept else draws
        kept.append(draws[(draws > 0).all(axis=1)])
        count -= len(kept[-1])


def rapp_response_blocks(dist: RappDistribution, rng: np.random.Generator, count: int, grid: np.ndarray):
    """Responses of ``count`` random Rapp amplifiers on ``grid``.

    Yields ``(k, grid.size)`` arrays of at most :data:`FIT_BLOCK` rows, in draw
    order.  The parameters are the ones ``count`` calls to
    :func:`draw_rapp_params` return, and each row equals :func:`rapp_response`
    for them, bit for bit.  Each block is evaluated grid-major, so the
    realizations run along the long inner axis, and yielded column-major.
    """
    _require_integer(count, "realization count", 1)
    grid = np.asarray(grid, dtype=float)
    if np.any(grid < 0):
        raise InvalidInputError("amplitude must be nonnegative")
    loc = np.array([dist.gain_mean, dist.v_sat_mean, dist.smoothness_mean])
    scale = np.sqrt([dist.gain_variance, dist.v_sat_variance, dist.smoothness_variance])
    for start in range(0, count, FIT_BLOCK):
        gain, v_sat, smoothness = _draw_accepted(loc, scale, rng, min(FIT_BLOCK, count - start)).T
        yield rapp_am_am(gain, v_sat, smoothness, grid[:, None]).T


def _check_fit_grid(grid: np.ndarray, order: int) -> None:
    """Reject an order below 1, a non-finite grid, and a grid on which the fit is rank deficient."""
    _require_integer(order, "fit order", 1)
    _require_finite(grid, "fit grid", float)
    # Distinct points counted from a sorted copy: np.unique would import numpy.ma.
    positive = np.sort(grid[grid > 0])
    if np.count_nonzero(np.diff(positive) > 0) + (positive.size > 0) < order:
        raise RankDeficiencyError("fit grid needs at least order distinct positive points")


def _fit_projector(grid: np.ndarray, order: int) -> np.ndarray:
    """``G x order`` matrix ``P`` whose ``responses @ P`` fits each response row on a checked
    ``grid`` by least squares: the transposed pseudo-inverse of the grid's basis rows, with
    numpy's least-squares default cutoff ``max(G, order) eps``."""
    return np.linalg.pinv(basis_rows(grid, order), rcond=max(grid.size, order) * np.finfo(float).eps).T


def fit_polynomial_to_curve(params: RappParameters, order: int, grid: np.ndarray) -> PaPolynomial:
    """Least-squares polynomial fit to the Rapp response sampled on ``grid``."""
    grid = np.asarray(grid, dtype=float)
    _check_fit_grid(grid, order)
    return PaPolynomial(rapp_response(params, grid) @ _fit_projector(grid, order))


def fit_realizations(config: PriorConfig, dist: RappDistribution) -> np.ndarray:
    """``(realizations, fit_order)`` polynomial fits to ``config.realizations``
    Rapp draws; ``config.mode`` is not used.

    Row ``m`` fits the ``m``-th amplifier that sequential
    :func:`draw_rapp_params` calls would draw, with the projector that
    :func:`fit_polynomial_to_curve` applies to one response.
    """
    projector = _fit_projector(config.fit_grid, config.fit_order)
    blocks = rapp_response_blocks(dist, _seeded_rng(config.seed), config.realizations, config.fit_grid)
    fits = np.empty((config.realizations, config.fit_order), dtype=complex)
    for start, block in zip(range(0, config.realizations, FIT_BLOCK), blocks):
        fits[start : start + len(block)] = block @ projector
    return fits


def fit_moments(coefficients: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean and complex second moment ``sum_m b_m b_m^H / M`` of the ``M`` rows ``b_m`` of ``coefficients``."""
    return coefficients.mean(axis=0), coefficients.T @ coefficients.conj() / len(coefficients)


def prior_from_moments(mean: np.ndarray, second_moment: np.ndarray, mode: str) -> PriorStatistics:
    """Prior statistics in the given mode from the moments :func:`fit_moments` returns.

    Coherent mode keeps the sample mean and centers the covariance with the
    Hermitian outer product of the mean.  Noncoherent mode zeroes the mean and
    uses the raw second moment, since a uniformly random phase rotation drops
    out of the outer products.
    """
    if mode == COHERENT:
        covariance = second_moment - np.outer(mean, mean.conj())
    elif mode == NONCOHERENT:
        mean, covariance = np.zeros(mean.size, dtype=complex), second_moment
    else:
        raise InvalidInputError(f"unknown prior mode: {mode!r}")
    covariance = 0.5 * (covariance + covariance.conj().T)
    return PriorStatistics(mean, covariance)


def build_prior(config: PriorConfig, dist: RappDistribution) -> PriorStatistics:
    """Prior statistics from ``config.realizations`` fitted Rapp draws, in
    ``config.mode`` (see :func:`prior_from_moments`)."""
    return prior_from_moments(*fit_moments(fit_realizations(config, dist)), config.mode)


@dataclass(frozen=True, eq=False)
class CsvTable:
    """Numeric table serialized with ``digits`` significant digits and bare line-feed line ends."""

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


def _complex_columns(matrix: np.ndarray) -> np.ndarray:
    """Real columns ``re_0, im_0, re_1, im_1, ...`` of a 2-D complex matrix."""
    return np.stack([matrix.real, matrix.imag], axis=-1).reshape(len(matrix), -1)


def _columns_as_complex(columns: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_complex_columns` that keeps every bit, a -0.0 too, unlike ``re + 1j * im``."""
    return np.ascontiguousarray(columns).view(complex)


_VECTOR_HEADER = ("index", "re", "im")


def _covariance_header(order: int) -> tuple:
    """Header of an order-``order`` covariance CSV: ``re_0, im_0, ..., im_{order-1}``."""
    return tuple(f"{part}_{j}" for j in range(order) for part in ("re", "im"))


def save_prior(prior: PriorStatistics, mean_path, cov_path) -> None:
    """Write the prior as two 17-digit :class:`CsvTable` files, which :func:`load_prior` reads
    back exactly: the mean (index, re, im) and the row-major covariance (re/im interleaved)."""
    mean = np.column_stack([np.arange(prior.order), _complex_columns(prior.mean[:, None])])
    CsvTable(_VECTOR_HEADER, mean, digits=17).write(mean_path)
    CsvTable(_covariance_header(prior.order), _complex_columns(prior.covariance), digits=17).write(cov_path)


def read_csv_table(path, header: tuple, label: str) -> np.ndarray:
    """Numeric body of a CSV file whose first row is exactly ``header``.

    Each of the one or more data rows has one cell per header column, every
    cell is a finite number, and a leading ``index`` column reads 0..n-1 in
    order.  Any other content raises :class:`CsvFormatError` naming ``label``.
    """
    with open(path, newline="") as handle:
        try:
            rows = list(csv.reader(handle))
        except (UnicodeDecodeError, csv.Error) as exc:
            raise CsvFormatError(f"{label}: {exc}") from exc
    if not rows or tuple(rows[0]) != header:
        raise CsvFormatError(f"{label}: expected header {','.join(header)}")
    if len(rows) == 1:
        raise CsvFormatError(f"{label}: no data rows")
    for row in rows[1:]:
        if len(row) != len(header):
            raise CsvFormatError(f"{label}: expected {len(header)} columns, got {len(row)}")
    try:
        body = np.array([[float(cell) for cell in row] for row in rows[1:]], dtype=float)
    except ValueError as exc:
        raise CsvFormatError(f"{label}: non-numeric cell") from exc
    if not np.all(np.isfinite(body)):
        raise CsvFormatError(f"{label}: non-finite cell")
    if header[0] == "index" and not np.array_equal(body[:, 0], np.arange(len(body))):
        raise CsvFormatError(f"{label}: index column must read 0..{len(body) - 1} in order")
    return body


def read_complex_vector(path, label: str) -> np.ndarray:
    """Complex vector of an ``index,re,im`` CSV checked by :func:`read_csv_table`, bit for bit."""
    return _columns_as_complex(read_csv_table(path, _VECTOR_HEADER, label)[:, 1:])[:, 0]


def load_prior(mean_path, cov_path) -> PriorStatistics:
    """Read a prior written by :func:`save_prior`, bit for bit."""
    mean = read_complex_vector(mean_path, "prior mean")
    cov_rows = read_csv_table(cov_path, _covariance_header(mean.size), "prior covariance")
    if len(cov_rows) != mean.size:
        raise CsvFormatError("prior covariance row count must match the mean length")
    return PriorStatistics(mean, _columns_as_complex(cov_rows))
