"""Complex LS and LMMSE coefficient estimation with analytic error covariances.

Estimates are obtained through orthogonal factorizations; the explicit
normal-equation inverse is never formed for the estimate itself.  Covariance
matrices are produced by solving factorized systems against the identity.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky, qr, solve_triangular

from .errors import DimensionMismatchError, InvalidNoiseError, RankDeficiencyError
from .pa_model import CONDITION_LIMIT, PaPolynomial, PilotSequence, eval_polynomial

# Below this fraction of the average prior eigenvalue the prior covariance is
# treated as singular and the observation-space LMMSE form is used.
SINGULAR_PRIOR_THRESHOLD = 1e-12


def _require_noise_variance(sigma2: float) -> None:
    """Reject a noise variance that is not finite and strictly positive."""
    if not (math.isfinite(sigma2) and sigma2 > 0):
        raise InvalidNoiseError(f"noise variance must be finite and strictly positive, got {sigma2!r}")


@dataclass(frozen=True)
class NoiseModel:
    """Circularly symmetric complex noise: total variance ``variance`` per sample."""

    variance: float
    seed: int = 0

    def __post_init__(self) -> None:
        _require_noise_variance(self.variance)


@dataclass(frozen=True)
class PriorStatistics:
    """Prior mean and Hermitian PSD covariance of the polynomial coefficients."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self) -> None:
        mean = np.atleast_1d(np.asarray(self.mean, dtype=complex))
        cov = np.asarray(self.covariance, dtype=complex)
        if cov.shape != (mean.size, mean.size):
            raise DimensionMismatchError("covariance shape must match the mean length")
        if np.abs(cov - cov.conj().T).max(initial=0.0) > 1e-12:
            raise ValueError("covariance must be Hermitian within 1e-12")
        if mean.size and np.linalg.eigvalsh(cov).min() < -1e-10:
            raise ValueError("covariance must be positive semidefinite")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)

    @property
    def order(self) -> int:
        return self.mean.size


@dataclass(frozen=True)
class EstimationResult:
    """Coefficient estimate together with its error covariance matrix."""

    estimate: np.ndarray
    error_covariance: np.ndarray


@dataclass(frozen=True)
class MseCurve:
    """Prediction MSE sampled over a strictly increasing amplitude grid."""

    amplitudes: np.ndarray
    mse_values: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=float)
        vals = np.asarray(self.mse_values, dtype=float)
        if amps.shape != vals.shape or amps.ndim != 1:
            raise DimensionMismatchError("amplitudes and mse_values must be vectors of equal length")
        if amps.size > 1 and not np.all(np.diff(amps) > 0):
            raise ValueError("amplitudes must be strictly increasing")
        if np.any(vals < 0):
            raise ValueError("mse values must be nonnegative")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "mse_values", vals)


def _hermitize(matrix: np.ndarray) -> np.ndarray:
    return 0.5 * (matrix + matrix.conj().T)


def _full_rank_qr(design: np.ndarray):
    """Economy QR of a design matrix, rejecting rank-deficient inputs."""
    design = np.asarray(design, dtype=complex)
    n, order = design.shape
    if n < order:
        raise RankDeficiencyError(f"need at least {order} pilots, got {n}")
    cond = np.linalg.cond(design)
    if not np.isfinite(cond) or cond >= CONDITION_LIMIT:
        raise RankDeficiencyError(
            "design matrix is rank deficient; at least L pilots with distinct "
            f"magnitudes are required (condition number {cond:.3e})"
        )
    q, r = qr(design, mode="economic")
    return q, r


def _amplitude_powers(amplitudes: np.ndarray, order: int) -> np.ndarray:
    """Rows of basis values at real nonnegative amplitudes, entry (k, l) = a_k^l."""
    a = np.asarray(amplitudes, dtype=float)
    return a[:, None] ** np.arange(1, order + 1)


def _prior_is_near_singular(covariance: np.ndarray) -> bool:
    eigenvalues = np.linalg.eigvalsh(covariance)
    order = covariance.shape[0]
    return eigenvalues[0] * order <= SINGULAR_PRIOR_THRESHOLD * np.trace(covariance).real


def ls_estimate(design: np.ndarray, observations: np.ndarray, sigma2: float) -> EstimationResult:
    """Least-squares estimate with error covariance ``sigma2 * (Phi^H Phi)^-1``."""
    _require_noise_variance(sigma2)
    observations = np.asarray(observations, dtype=complex)
    design = np.asarray(design, dtype=complex)
    if observations.shape != (design.shape[0],):
        raise DimensionMismatchError("observation length must match the number of pilots")
    q, r = _full_rank_qr(design)
    estimate = solve_triangular(r, q.conj().T @ observations, lower=False)
    r_inv = solve_triangular(r, np.eye(design.shape[1], dtype=complex), lower=False)
    covariance = _hermitize(sigma2 * (r_inv @ r_inv.conj().T))
    return EstimationResult(estimate, covariance)


def _lmmse_information_form(design, observations, sigma2, prior):
    order = prior.order
    prior_chol = cholesky(prior.covariance, lower=True)
    eye = np.eye(order, dtype=complex)
    prior_precision = solve_triangular(prior_chol, eye, lower=True)
    prior_precision = prior_precision.conj().T @ prior_precision
    a = _hermitize(design.conj().T @ design + sigma2 * prior_precision)
    a_chol = cholesky(a, lower=True)

    def solve_a(rhs):
        tmp = solve_triangular(a_chol, rhs, lower=True)
        return solve_triangular(a_chol, tmp, lower=True, trans="C")

    residual = observations - design @ prior.mean
    estimate = prior.mean + solve_a(design.conj().T @ residual)
    covariance = _hermitize(sigma2 * solve_a(eye))
    return EstimationResult(estimate, covariance)


def _lmmse_observation_form(design, observations, sigma2, prior):
    # Valid for any PSD prior covariance, including exactly singular ones.
    n = design.shape[0]
    gain = prior.covariance @ design.conj().T
    innovation_cov = _hermitize(design @ gain + sigma2 * np.eye(n, dtype=complex))
    s_chol = cholesky(innovation_cov, lower=True)

    def solve_s(rhs):
        tmp = solve_triangular(s_chol, rhs, lower=True)
        return solve_triangular(s_chol, tmp, lower=True, trans="C")

    estimate = prior.mean + gain @ solve_s(observations - design @ prior.mean)
    covariance = _hermitize(prior.covariance - gain @ solve_s(gain.conj().T))
    return EstimationResult(estimate, covariance)


def lmmse_estimate(
    design: np.ndarray, observations: np.ndarray, sigma2: float, prior: PriorStatistics
) -> EstimationResult:
    """LMMSE estimate; regularized by the prior, so ``N < L`` is allowed.

    Uses the coefficient-space form with the prior precision when the prior
    covariance is invertible and switches to the algebraically equivalent
    observation-space form when it is singular or nearly so.
    """
    _require_noise_variance(sigma2)
    design = np.asarray(design, dtype=complex)
    observations = np.asarray(observations, dtype=complex)
    if design.ndim != 2 or design.shape[1] != prior.order:
        raise DimensionMismatchError("design matrix width must match the prior order")
    if observations.shape != (design.shape[0],):
        raise DimensionMismatchError("observation length must match the number of pilots")
    if design.shape[0] == 0:
        return EstimationResult(prior.mean.copy(), prior.covariance.copy())
    if _prior_is_near_singular(prior.covariance):
        return _lmmse_observation_form(design, observations, sigma2, prior)
    return _lmmse_information_form(design, observations, sigma2, prior)


def _lmmse_error_covariance(design: np.ndarray, sigma2: float, prior: PriorStatistics) -> np.ndarray:
    zero = np.zeros(design.shape[0], dtype=complex)
    return lmmse_estimate(design, zero, sigma2, prior).error_covariance


def prediction_covariance(
    design: np.ndarray,
    prediction_design: np.ndarray,
    sigma2: float,
    prior: PriorStatistics | None = None,
) -> np.ndarray:
    """Error covariance of the reconstructed PA response at the prediction inputs.

    Returns ``sigma2 * Phi_t (Phi^H Phi)^-1 Phi_t^H`` without a prior and the
    LMMSE counterpart with the prior precision added when one is given.
    """
    _require_noise_variance(sigma2)
    design = np.asarray(design, dtype=complex)
    prediction_design = np.asarray(prediction_design, dtype=complex)
    if prediction_design.ndim != 2 or prediction_design.shape[1] != design.shape[1]:
        raise DimensionMismatchError("prediction matrix width must match the design matrix")
    if prior is None:
        _, r = _full_rank_qr(design)
        z = solve_triangular(r, prediction_design.conj().T, lower=False, trans="C")
        return _hermitize(sigma2 * (z.conj().T @ z))
    error_cov = _lmmse_error_covariance(design, sigma2, prior)
    return _hermitize(prediction_design @ error_cov @ prediction_design.conj().T)


def _mse_evaluator(design: np.ndarray, sigma2: float, prior: PriorStatistics | None):
    """Callable mapping real amplitude grids to prediction MSE values.

    The MSE depends on the prediction input only through its amplitude, so the
    evaluator works on real nonnegative amplitudes and factorizes the design
    once up front.
    """
    _require_noise_variance(sigma2)
    design = np.asarray(design, dtype=complex)
    order = design.shape[1]
    if prior is None:
        _, r = _full_rank_qr(design)

        def evaluate(amplitudes):
            basis = _amplitude_powers(amplitudes, order).astype(complex)
            z = solve_triangular(r, basis.conj().T, lower=False, trans="C")
            return sigma2 * np.sum(np.abs(z) ** 2, axis=0)

        return evaluate

    if design.shape[0] and not _prior_is_near_singular(prior.covariance):
        prior_chol = cholesky(prior.covariance, lower=True)
        eye = np.eye(order, dtype=complex)
        precision = solve_triangular(prior_chol, eye, lower=True)
        precision = precision.conj().T @ precision
        a = _hermitize(design.conj().T @ design + sigma2 * precision)
        a_chol = cholesky(a, lower=True)

        def evaluate(amplitudes):
            basis = _amplitude_powers(amplitudes, order).astype(complex)
            z = solve_triangular(a_chol, basis.conj().T, lower=True)
            return sigma2 * np.sum(np.abs(z) ** 2, axis=0)

        return evaluate

    error_cov = _lmmse_error_covariance(design, sigma2, prior)

    def evaluate(amplitudes):
        basis = _amplitude_powers(amplitudes, order).astype(complex)
        values = np.einsum("ki,ij,kj->k", basis, error_cov, basis.conj()).real
        return np.maximum(values, 0.0)

    return evaluate


def prediction_mse(
    design: np.ndarray,
    s_tilde: complex,
    sigma2: float,
    prior: PriorStatistics | None = None,
) -> float:
    """Prediction MSE at one input value; a function of ``abs(s_tilde)`` only."""
    evaluate = _mse_evaluator(design, sigma2, prior)
    return float(evaluate(np.array([abs(s_tilde)]))[0])


def mse_curve(
    design: np.ndarray,
    amplitudes: np.ndarray,
    sigma2: float,
    prior: PriorStatistics | None = None,
) -> MseCurve:
    """Prediction MSE sampled on an amplitude grid."""
    evaluate = _mse_evaluator(design, sigma2, prior)
    return MseCurve(np.asarray(amplitudes, dtype=float), evaluate(amplitudes))


def _golden_section_max(evaluate, lo: float, hi: float, tol: float) -> float:
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
    f1 = evaluate(np.array([x1]))[0]
    f2 = evaluate(np.array([x2]))[0]
    best = max(f1, f2)
    while hi - lo > tol:
        if f1 > f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_phi * (hi - lo)
            f1 = evaluate(np.array([x1]))[0]
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_phi * (hi - lo)
            f2 = evaluate(np.array([x2]))[0]
        best = max(best, f1, f2)
    return best


GRID_POINTS = 2001
REFINE_TOLERANCE = 1e-10


def max_prediction_mse(
    design: np.ndarray,
    sigma2: float,
    prior: PriorStatistics | None = None,
    max_amplitude: float = 1.0,
) -> float:
    """Maximal prediction MSE over the amplitude range ``[0, max_amplitude]``.

    Dense grid search followed by golden-section refinement around the best
    grid point down to ``REFINE_TOLERANCE`` amplitude resolution.
    """
    if not max_amplitude > 0:
        raise ValueError("max_amplitude must be positive")
    evaluate = _mse_evaluator(design, sigma2, prior)
    grid = np.linspace(0.0, max_amplitude, GRID_POINTS)
    values = evaluate(grid)
    peak = int(np.argmax(values))
    lo = grid[max(peak - 1, 0)]
    hi = grid[min(peak + 1, GRID_POINTS - 1)]
    refined = _golden_section_max(evaluate, lo, hi, REFINE_TOLERANCE)
    return float(max(values[peak], refined))


def generate_noisy_observations(
    model: PaPolynomial, pilots: PilotSequence, noise: NoiseModel
) -> np.ndarray:
    """Received samples ``r_n = f(s_n) + w_n`` with seeded circular Gaussian noise.

    The total noise variance is ``noise.variance``; real and imaginary parts are
    independent draws with variance ``noise.variance / 2`` each.
    """
    rng = np.random.default_rng(noise.seed)
    draws = rng.normal(0.0, np.sqrt(noise.variance / 2.0), size=(len(pilots), 2))
    return eval_polynomial(model, pilots.symbols) + draws[:, 0] + 1j * draws[:, 1]
