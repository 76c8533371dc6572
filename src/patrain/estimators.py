"""Complex LS and LMMSE coefficient estimation with analytic error covariances.

Both estimators are one regularized least-squares problem, factored by one SVD
in :func:`_factor`: ``Phi T = U diag(s) V^H``, with ``T = I`` for LS and the
prior root ``C = T T^H`` for LMMSE, which covers singular priors and never
forms ``C^-1``.  The factor holds no noise variance: for each ``sigma2`` the
factored system has the singular values ``sqrt(s^2 + rho sigma2)`` (``rho`` 0
for LS, 1 for LMMSE), so estimates, covariances, prediction MSE and the
D-criterion all follow in closed form, and one factor serves a whole SNR sweep.

The exact maximum prediction MSE is a root-finding problem on the factor: the
MSE is a polynomial of degree ``2L`` in the amplitude, fixed by its values at
``2L + 1`` Chebyshev nodes, and one product with a constant matrix, built once
per degree, takes those values to the coefficients of its derivative, whose
roots are the eigenvalues of a colleague matrix, also cached per degree.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidInputError,
    InvalidNoiseError,
    InvalidPriorError,
    NonFiniteInputError,
    RankDeficiencyError,
)
from .pa_model import CONDITION_LIMIT, PaPolynomial, PilotSequence, basis_rows, eval_polynomial

# Prior directions whose eigenvalue is at or below this fraction of the mean
# prior eigenvalue are treated as known exactly and dropped from the whitening.
SINGULAR_PRIOR_THRESHOLD = 1e-12

_SMALLEST_NORMAL = float(np.finfo(float).tiny)


def _require_noise_variance(sigma2: float) -> None:
    """Reject a noise variance that is not finite or below the smallest normal float.

    A subnormal variance keeps only a few significant digits, and so would
    every MSE scaled by it.
    """
    if not (math.isfinite(sigma2) and sigma2 >= _SMALLEST_NORMAL):
        raise InvalidNoiseError(
            f"noise variance must be finite and at least {_SMALLEST_NORMAL:.3g}, got {sigma2!r}"
        )


def _require_finite(values: np.ndarray, label: str) -> np.ndarray:
    values = np.asarray(values, dtype=complex)
    if not np.all(np.isfinite(values)):
        raise NonFiniteInputError(f"{label} holds NaN or infinite entries")
    return values


def _require_finite_result(values: np.ndarray, label: str) -> np.ndarray:
    """``values`` unless a noise variance or amplitude too large for the design overflowed them."""
    if not np.isfinite(values).all():
        raise InvalidNoiseError(f"{label} overflows the float range")
    return values


def _require_seed(seed: int) -> None:
    if seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed}")


def _seeded_rng(seed: int) -> "np.random.Generator":
    """The random stream of ``seed``; a negative seed raises :class:`InvalidInputError`."""
    _require_seed(seed)
    return np.random.default_rng(seed)


@dataclass(frozen=True)
class NoiseModel:
    """Circularly symmetric complex noise: total variance ``variance`` per sample."""

    variance: float
    seed: int = 0

    def __post_init__(self) -> None:
        _require_noise_variance(self.variance)
        _require_seed(self.seed)


@dataclass(frozen=True, eq=False)
class PriorStatistics:
    """Prior mean and Hermitian PSD covariance of the polynomial coefficients.

    The covariance must be Hermitian within 1e-12 of its largest entry and PSD
    within 1e-10 of the largest entry of the second moment ``C + m m^H``; a
    prior that fails, or is not finite, raises :class:`InvalidPriorError`.

    The root ``T`` with ``C = T T^H`` that the LMMSE factor whitens with is
    taken from the same eigendecomposition: the eigenvectors scaled by the
    square roots of the eigenvalues above ``SINGULAR_PRIOR_THRESHOLD`` times
    their mean.  The other directions are treated as known exactly.
    """

    mean: np.ndarray
    covariance: np.ndarray
    _whiten: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        mean = np.atleast_1d(np.asarray(self.mean, dtype=complex))
        cov = np.asarray(self.covariance, dtype=complex)
        if cov.shape != (mean.size, mean.size):
            raise DimensionMismatchError("covariance shape must match the mean length")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise InvalidPriorError("prior mean and covariance must be finite")
        if np.abs(cov - cov.conj().T).max(initial=0.0) > 1e-12 * np.abs(cov).max(initial=0.0):
            raise InvalidPriorError("covariance must be Hermitian within 1e-12 of its largest entry")
        # A covariance computed as E[b b^H] - m m^H carries round-off on the
        # scale of the second moment, so that is what the PSD test compares to.
        second_moment = np.abs(cov + np.outer(mean, mean.conj())).max(initial=0.0)
        eigenvalues, eigenvectors = np.linalg.eigh(cov)
        if mean.size and eigenvalues.min() < -1e-10 * second_moment:
            raise InvalidPriorError("covariance must be positive semidefinite")
        keep = eigenvalues > SINGULAR_PRIOR_THRESHOLD * eigenvalues.mean() if mean.size else []
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)
        object.__setattr__(self, "_whiten", eigenvectors[:, keep] * np.sqrt(eigenvalues[keep]))

    @property
    def order(self) -> int:
        return self.mean.size


@dataclass(frozen=True, eq=False)
class EstimationResult:
    """Coefficient estimate together with its error covariance matrix."""

    estimate: np.ndarray
    error_covariance: np.ndarray


@dataclass(frozen=True, eq=False)
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
            raise InvalidInputError("amplitudes must be strictly increasing")
        if np.any(vals < 0):
            raise InvalidInputError("mse values must be nonnegative")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "mse_values", vals)


@dataclass(frozen=True, eq=False)
class _Factor:
    """SVD ``Phi T = U diag(s) V^H`` of the whitened design; no noise variance in it.

    ``T`` is the identity for LS and the prior root for LMMSE.  ``s`` is padded
    with zeros to the ``k`` columns of ``T`` and ``basis`` is ``T V``, so the
    factored system at noise variance ``sigma2`` has the singular values
    ``sqrt(s^2 + rho sigma2)``, with ``rho`` 0 for LS and 1 for LMMSE.
    """

    u: np.ndarray
    s: np.ndarray
    basis: np.ndarray
    regularized: bool

    def singular_values(self, sigma2: float) -> np.ndarray:
        """Singular values of the factored system at ``sigma2``, after its rank test.

        The one rank test is ``cond >= CONDITION_LIMIT``, written without
        dividing by zero; a system with no direction left passes.
        """
        _require_noise_variance(sigma2)
        sv = np.hypot(self.s, math.sqrt(sigma2)) if self.regularized else self.s
        # s comes sorted in descending order, and so does sv.
        if sv.size and not sv[-1] * CONDITION_LIMIT > sv[0]:
            cond = float(sv[0]) / float(sv[-1]) if sv[-1] > 0 else math.inf
            raise RankDeficiencyError(
                f"condition number {cond:.3e} of the factored system reaches {CONDITION_LIMIT:.0e}; "
                "LS needs at least L pilots with distinct magnitudes"
            )
        return sv

    def covariance(self, sigma2: float, rows: np.ndarray | None = None) -> np.ndarray:
        """Error covariance of ``rows @ beta`` (of ``beta`` itself by default).

        It is ``sigma2 z z^H`` with ``z = rows @ root`` and the root ``T V / sv``.
        """
        with np.errstate(all="ignore"):
            root = self.basis / self.singular_values(sigma2)
            z = root if rows is None else rows @ root
            cov = sigma2 * (z @ z.conj().T)
            return _require_finite_result(0.5 * (cov + cov.conj().T), "error covariance")

    def update(self, residual: np.ndarray, sigma2: float) -> np.ndarray:
        """``T V diag(s / sv^2) U^H residual``: the LS estimate, or the LMMSE step from the mean."""
        sv = self.singular_values(sigma2)
        m = self.u.shape[1]
        return self.basis[:, :m] @ (self.s[:m] / sv[:m] ** 2 * (self.u.conj().T @ residual))

    def weights(self, sigma2s) -> np.ndarray:
        """``sigma2 / sv^2`` per direction (rows) and noise variance (columns);
        every ``sigma2`` passes its own noise check and rank test."""
        weights = np.zeros((self.s.size, len(sigma2s)))
        with np.errstate(all="ignore"):
            for j, sigma2 in enumerate(sigma2s):
                weights[:, j] = sigma2 / self.singular_values(sigma2) ** 2
        return weights

    def weighted_mse(self, amplitudes: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """``MSE(a) = sum_i |f(a)^T T v_i|^2 w_i`` with the monomial rows ``f(a) = (a, ..., a^L)``."""
        with np.errstate(all="ignore"):
            rows = basis_rows(amplitudes, self.basis.shape[0])
            return _require_finite_result(np.abs(rows @ self.basis) ** 2 @ weights, "prediction MSE")

    def mse(self, amplitudes, sigma2s) -> np.ndarray:
        """Prediction MSE at real nonnegative amplitudes (rows) for each noise variance (columns)."""
        weights = self.weights(sigma2s)
        return self.weighted_mse(np.atleast_1d(np.asarray(amplitudes, dtype=float)), weights)

    def max_mse(self, max_amplitude: float, sigma2s) -> tuple[np.ndarray, np.ndarray]:
        """Maximal prediction MSE over ``[0, max_amplitude]`` for each noise variance,
        and the amplitude where each maximum sits.

        The node values of every ``sigma2`` come from one product and go to the
        derivative coefficients in one more (:func:`_derivative_map`); each
        column then takes its roots from a copy of the cached colleague matrix
        (:func:`_derivative_roots`), and the endpoints and the clipped roots
        are scored with the weights already taken.
        """
        weights = self.weights(sigma2s)
        nodes, slope_map = _derivative_map(2 * self.basis.shape[0])
        half = 0.5 * max_amplitude
        slopes = slope_map @ self.weighted_mse(half * (nodes + 1.0), weights)
        maxima, amplitudes = np.empty(weights.shape[1]), np.empty(weights.shape[1])
        for j in range(weights.shape[1]):
            critical = np.clip(_derivative_roots(slopes[:, j]).real, -1.0, 1.0)
            candidates = half * (np.concatenate([[-1.0, 1.0], critical]) + 1.0)
            values = self.weighted_mse(candidates, weights[:, j : j + 1])[:, 0]
            best = int(np.argmax(values))
            maxima[j], amplitudes[j] = values[best], candidates[best]
        return maxima, amplitudes


def _factor(design: np.ndarray, prior: PriorStatistics | None = None) -> _Factor:
    """Factor the LS problem (no prior) or the whitened LMMSE problem with one SVD.

    LS takes the SVD of ``Phi``.  LMMSE takes that of ``Phi T``, where ``T`` is
    the prior root kept by :class:`PriorStatistics`.  With more columns than pilots
    the full ``V`` is taken and ``s`` padded with zeros, so an LS system with too few
    pilots fails the one rank test, :meth:`_Factor.singular_values`, with cond ``inf``.
    """
    design = _require_finite(design, "design matrix")
    if design.ndim != 2 or (prior is not None and design.shape[1] != prior.order):
        raise DimensionMismatchError("design matrix must be 2-D and, with a prior, as wide as its order")
    whitened = design if prior is None else design @ prior._whiten
    k = whitened.shape[1]
    u, s, vh = np.linalg.svd(whitened, full_matrices=len(design) < k)
    basis = vh.conj().T if prior is None else prior._whiten @ vh.conj().T
    return _Factor(u, np.concatenate([s, np.zeros(k - s.size)]), basis, prior is not None)


def _monomial_factor(design: np.ndarray, prior: PriorStatistics | None) -> _Factor:
    """The factor of ``design`` if its columns are ``s |s|^(l-1)`` of the first, within 1e-12
    of its largest entry: the MSE functions build monomial prediction rows."""
    factor = _factor(design, prior)
    design = np.asarray(design, dtype=complex)
    rows = basis_rows(design[:, 0], design.shape[1]) if design.shape[1] else design
    if np.abs(design - rows).max(initial=0.0) > 1e-12 * np.abs(design).max(initial=0.0):
        raise InvalidInputError("columns are not s|s|^(l-1) of the first; other bases need prediction_covariance")
    return factor


def _check_observations(design: np.ndarray, observations: np.ndarray) -> np.ndarray:
    observations = _require_finite(observations, "observations")
    if observations.shape != np.shape(design)[:1]:
        raise DimensionMismatchError("observation length must match the number of pilots")
    return observations


def ls_estimate(design: np.ndarray, observations: np.ndarray, sigma2: float) -> EstimationResult:
    """Least-squares estimate with error covariance ``sigma2 * (Phi^H Phi)^-1``."""
    observations = _check_observations(design, observations)
    factor = _factor(design)
    covariance = factor.covariance(sigma2)
    return EstimationResult(factor.update(observations, sigma2), covariance)


def lmmse_estimate(
    design: np.ndarray, observations: np.ndarray, sigma2: float, prior: PriorStatistics
) -> EstimationResult:
    """LMMSE estimate; regularized by the prior, so ``N < L`` is allowed.

    With ``C = T T^H`` and ``Phi T = U diag(s) V^H``, the estimate is
    ``mean + T V diag(s / (s^2 + sigma2)) U^H (r - Phi mean)``.  It equals both
    textbook forms (information and observation space) and needs no ``C^-1``;
    prior directions at or below ``SINGULAR_PRIOR_THRESHOLD`` times the mean
    prior eigenvalue are taken as known.
    """
    observations = _check_observations(design, observations)
    factor = _factor(design, prior)
    covariance = factor.covariance(sigma2)
    if observations.size == 0:
        return EstimationResult(prior.mean.copy(), prior.covariance.copy())
    residual = observations - np.asarray(design, dtype=complex) @ prior.mean
    return EstimationResult(prior.mean + factor.update(residual, sigma2), covariance)


def prediction_covariance(
    design: np.ndarray,
    prediction_design: np.ndarray,
    sigma2: float,
    prior: PriorStatistics | None = None,
) -> np.ndarray:
    """Error covariance of the reconstructed PA response at the prediction inputs.

    Returns ``sigma2 * Phi_t (Phi^H Phi)^-1 Phi_t^H`` without a prior and the
    LMMSE counterpart when one is given.
    """
    factor = _factor(design, prior)
    prediction_design = np.asarray(prediction_design, dtype=complex)
    if prediction_design.ndim != 2 or prediction_design.shape[1] != factor.basis.shape[0]:
        raise DimensionMismatchError("prediction matrix width must match the design matrix")
    return factor.covariance(sigma2, prediction_design)


def prediction_mse(
    design: np.ndarray,
    s_tilde: complex,
    sigma2: float,
    prior: PriorStatistics | None = None,
) -> float:
    """Prediction MSE at one finite input value; a function of ``abs(s_tilde)`` only."""
    return float(mse_curve(design, [abs(s_tilde)], sigma2, prior).mse_values[0])


def mse_curve(
    design: np.ndarray,
    amplitudes: np.ndarray,
    sigma2: float,
    prior: PriorStatistics | None = None,
) -> MseCurve:
    """Prediction MSE sampled on a grid of finite nonnegative amplitudes."""
    amplitudes = np.asarray(amplitudes, dtype=float)
    if not np.isfinite(amplitudes).all():
        raise NonFiniteInputError("amplitudes hold NaN or infinite entries")
    if (amplitudes < 0).any():
        raise InvalidInputError("amplitudes must be nonnegative")
    return MseCurve(amplitudes, _monomial_factor(design, prior).mse(amplitudes, [sigma2])[:, 0])


@functools.lru_cache(maxsize=16)
def _derivative_map(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Chebyshev nodes on ``[-1, 1]`` and the matrix taking values there to the
    Chebyshev coefficients of the derivative of the degree-``degree`` interpolant.

    The ``n = degree + 1`` first-kind nodes are ``x_j = cos(theta_j)``,
    ``theta_j = pi (j + 1/2) / n``.  The interpolant of values ``v_j`` has the
    cosine sums ``c_k = (2/n) sum_j cos(k theta_j) v_j``, with ``c_0`` halved,
    and its derivative ``d_i = sum_{j > i, j - i odd} 2 j c_j``, with ``d_0``
    halved (Mason & Handscomb, *Chebyshev Polynomials*, 2003, §2.4).  Both maps
    are folded into one ``(n - 1, n)`` matrix.  The arrays depend on the degree
    only and are read-only, since every caller shares them; the cache is
    bounded, as each entry holds ``degree (degree + 1)`` floats.
    """
    k = np.arange(degree + 1)
    theta = np.pi * (k + 0.5) / k.size
    cosines = np.cos(np.outer(k, theta)) * (2.0 / k.size)
    cosines[0] *= 0.5
    gap = k - k[:-1, None]
    derivative = np.where((gap > 0) & (gap % 2 == 1), 2.0 * k, 0.0)
    derivative[0] *= 0.5
    nodes, slope_map = np.cos(theta), derivative @ cosines
    nodes.flags.writeable = slope_map.flags.writeable = False
    return nodes, slope_map


@functools.lru_cache(maxsize=16)
def _colleague(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """The colleague matrix of a degree-``degree`` Chebyshev series before its
    coefficients enter, and the scale of their column, as
    ``numpy.polynomial.chebyshev.chebcompanion`` builds them.

    The matrix is stored rotated by 180 degrees, as ``chebroots`` rotates it
    before its eigensolve, so the coefficients enter its first column, last
    coefficient first.  Both arrays are read-only, since every caller shares
    them; the cache is bounded, as each entry holds ``degree^2`` floats.
    """
    scl = np.array([1.0] + [np.sqrt(0.5)] * (degree - 1))
    off_diagonal = np.full(degree - 1, 1 / 2)
    off_diagonal[0] = np.sqrt(0.5)
    mat = np.diag(off_diagonal, 1) + np.diag(off_diagonal, -1)
    rotated, scale = mat[::-1, ::-1].copy(), scl / scl[-1]
    rotated.flags.writeable = scale.flags.writeable = False
    return rotated, scale


def _derivative_roots(coefficients: np.ndarray) -> np.ndarray:
    """Roots of the Chebyshev series ``coefficients``, equal to
    ``numpy.polynomial.chebyshev.chebroots`` of it.

    The last-column shift is subtracted from a copy of the cached colleague
    matrix (:func:`_colleague`) exactly as ``chebcompanion`` subtracts it, and
    one ``eigvals`` call takes the roots.  Where ``chebroots`` takes another
    branch, it is called itself: degree 1, which it solves directly, and a
    leading coefficient that is exactly 0, which it trims.
    """
    degree = coefficients.size - 1
    if degree < 2 or coefficients[-1] == 0:
        return np.polynomial.chebyshev.chebroots(coefficients)
    rotated, scale = _colleague(degree)
    matrix = rotated.copy()
    matrix[:, 0] -= ((coefficients[:-1] / coefficients[-1]) * scale * 0.5)[::-1]
    roots = np.linalg.eigvals(matrix)
    roots.sort()
    return roots


def max_prediction_mse(
    design: np.ndarray,
    sigma2: float | np.ndarray,
    prior: PriorStatistics | None = None,
    max_amplitude: float = 1.0,
) -> float | np.ndarray:
    """Maximal prediction MSE over the amplitude range ``[0, max_amplitude]``.

    ``sigma2`` is one noise variance, which returns a ``float``, or a 1-D
    array of them, which returns an array of the same length from one factor
    of the design.

    The MSE is a real polynomial of degree ``2L`` in the amplitude, so its
    values at the ``2L + 1`` first-kind Chebyshev nodes of the range fix it
    exactly.  One product with a matrix of cosines, built once per degree
    (:func:`_derivative_map`), takes the node values of every ``sigma2`` to the
    Chebyshev coefficients of their derivatives.  The maximum is taken over
    both endpoints and the real parts of the roots of that derivative, the
    eigenvalues of its colleague matrix (Boyd, 2002), clipped to the range.
    The colleague matrix is a template cached per degree (:func:`_colleague`);
    each ``sigma2``'s coefficients enter one column of a copy of it, and one
    eigensolve per ``sigma2`` takes the roots.  Every candidate is then
    evaluated by the MSE itself.
    """
    if not 0 < max_amplitude < math.inf:
        raise InvalidInputError("max_amplitude must be positive and finite")
    sigma2s = np.asarray(sigma2, dtype=float)
    if sigma2s.ndim > 1 or sigma2s.size == 0:
        raise DimensionMismatchError("sigma2 must be a number or a nonempty 1-D array")
    maxima, _ = _monomial_factor(design, prior).max_mse(max_amplitude, np.atleast_1d(sigma2s).tolist())
    return float(maxima[0]) if sigma2s.ndim == 0 else maxima


def generate_noisy_observations(
    model: PaPolynomial, pilots: PilotSequence, noise: NoiseModel
) -> np.ndarray:
    """Received samples ``r_n = f(s_n) + w_n`` with seeded circular Gaussian noise.

    The total noise variance is ``noise.variance``; real and imaginary parts are
    independent draws with variance ``noise.variance / 2`` each.
    """
    rng = _seeded_rng(noise.seed)
    draws = rng.normal(0.0, np.sqrt(noise.variance / 2.0), size=(len(pilots), 2))
    return eval_polynomial(model, pilots.symbols) + draws[:, 0] + 1j * draws[:, 1]
