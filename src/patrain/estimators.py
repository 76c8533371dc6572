"""Complex LS and LMMSE coefficient estimation with analytic error covariances.

Both estimators are one regularized least-squares problem, factored by one QR
in :func:`_posterior`: of the design ``Phi`` for LS, and of ``[Phi T; sigma I]``
for LMMSE with the prior whitened as ``C = T T^H``, which covers singular
priors and never forms ``C^-1``.  Estimates, covariances, prediction MSE and
the D-criterion all read its factor ``R`` and error-covariance root.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidNoiseError,
    InvalidPriorError,
    NonFiniteInputError,
    RankDeficiencyError,
)
from .pa_model import CONDITION_LIMIT, PaPolynomial, PilotSequence, eval_polynomial

# Prior directions whose eigenvalue is at or below this fraction of the mean
# prior eigenvalue are treated as known exactly and dropped from the whitening.
SINGULAR_PRIOR_THRESHOLD = 1e-12


def _require_noise_variance(sigma2: float) -> None:
    """Reject a noise variance that is not finite and strictly positive."""
    if not (math.isfinite(sigma2) and sigma2 > 0):
        raise InvalidNoiseError(f"noise variance must be finite and strictly positive, got {sigma2!r}")


def _require_finite(values: np.ndarray, label: str) -> np.ndarray:
    values = np.asarray(values, dtype=complex)
    if not np.all(np.isfinite(values)):
        raise NonFiniteInputError(f"{label} holds NaN or infinite entries")
    return values


@dataclass(frozen=True)
class NoiseModel:
    """Circularly symmetric complex noise: total variance ``variance`` per sample."""

    variance: float
    seed: int = 0

    def __post_init__(self) -> None:
        _require_noise_variance(self.variance)


@dataclass(frozen=True)
class PriorStatistics:
    """Prior mean and Hermitian PSD covariance of the polynomial coefficients.

    The covariance must be Hermitian within 1e-12 of its largest entry and PSD
    within 1e-10 of the largest entry of the second moment ``C + m m^H``; a
    prior that fails, or is not finite, raises :class:`InvalidPriorError`.
    """

    mean: np.ndarray
    covariance: np.ndarray

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
        if mean.size and np.linalg.eigvalsh(cov).min() < -1e-10 * second_moment:
            raise InvalidPriorError("covariance must be positive semidefinite")
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


@dataclass(frozen=True)
class _Posterior:
    """Factor ``q r`` of the (whitened) design; error covariance ``sigma2 root root^H``."""

    q: np.ndarray
    r: np.ndarray
    root: np.ndarray
    sigma2: float

    def covariance(self, rows: np.ndarray | None = None) -> np.ndarray:
        """Error covariance of ``rows @ beta`` (of ``beta`` itself by default)."""
        z = self.root if rows is None else rows @ self.root
        cov = self.sigma2 * (z @ z.conj().T)
        return 0.5 * (cov + cov.conj().T)

    def mse(self, amplitudes) -> np.ndarray:
        """Prediction MSE at real nonnegative amplitudes, where it depends on nothing else."""
        a = np.atleast_1d(np.asarray(amplitudes, dtype=float))
        z = (a[:, None] ** np.arange(1, self.root.shape[0] + 1)) @ self.root
        return self.sigma2 * np.sum(np.abs(z) ** 2, axis=1)


def _posterior(design: np.ndarray, sigma2: float, prior: PriorStatistics | None = None) -> _Posterior:
    """Factor the LS problem (no prior) or the whitened LMMSE problem with one QR.

    LS takes the QR of ``Phi``.  LMMSE writes the prior covariance as
    ``C = T T^H`` from its eigendecomposition, keeping the directions whose
    eigenvalue exceeds ``SINGULAR_PRIOR_THRESHOLD`` times the mean eigenvalue,
    and takes the QR of ``[Phi T; sigma I]``.  Either way the error covariance
    is ``sigma2 root root^H`` with ``root = R^-1`` (LS) or ``T R^-1`` (LMMSE).
    The one rank test is ``cond(R) >= CONDITION_LIMIT``; ``cond(R)`` equals the
    condition number of the factored system.
    """
    _require_noise_variance(sigma2)
    design = _require_finite(design, "design matrix")
    if design.ndim != 2 or (prior is not None and design.shape[1] != prior.order):
        raise DimensionMismatchError("design matrix must be 2-D and, with a prior, as wide as its order")
    n, order = design.shape
    if prior is None:
        if n < order:
            raise RankDeficiencyError(f"need at least {order} pilots, got {n}")
        whiten = None
        stacked = design
    else:
        eigenvalues, eigenvectors = np.linalg.eigh(prior.covariance)
        keep = eigenvalues > SINGULAR_PRIOR_THRESHOLD * eigenvalues.mean()
        whiten = eigenvectors[:, keep] * np.sqrt(eigenvalues[keep])
        stacked = np.vstack([design @ whiten, math.sqrt(sigma2) * np.eye(whiten.shape[1])])
    q, r = np.linalg.qr(stacked)
    # The one rank test, cond(R) >= CONDITION_LIMIT, written without dividing by zero.
    singular_values = np.linalg.svd(r, compute_uv=False)
    if r.size and not singular_values[-1] * CONDITION_LIMIT > singular_values[0]:
        raise RankDeficiencyError(
            f"condition number {np.linalg.cond(r):.3e} of the factored system reaches {CONDITION_LIMIT:.0e}; "
            "LS needs at least L pilots with distinct magnitudes"
        )
    root = np.linalg.inv(r)
    if whiten is not None:
        root = whiten @ root
    return _Posterior(q[:n], r, root, sigma2)


def _check_observations(design: np.ndarray, observations: np.ndarray) -> np.ndarray:
    observations = _require_finite(observations, "observations")
    if observations.shape != (np.shape(design)[0],):
        raise DimensionMismatchError("observation length must match the number of pilots")
    return observations


def ls_estimate(design: np.ndarray, observations: np.ndarray, sigma2: float) -> EstimationResult:
    """Least-squares estimate with error covariance ``sigma2 * (Phi^H Phi)^-1``."""
    post = _posterior(design, sigma2)
    observations = _check_observations(design, observations)
    estimate = post.root @ (post.q.conj().T @ observations)
    return EstimationResult(estimate, post.covariance())


def lmmse_estimate(
    design: np.ndarray, observations: np.ndarray, sigma2: float, prior: PriorStatistics
) -> EstimationResult:
    """LMMSE estimate; regularized by the prior, so ``N < L`` is allowed.

    The estimate is ``mean + T z`` with ``C = T T^H`` and ``z`` the least-squares
    solution of ``[Phi T; sigma I] z = [r - Phi mean; 0]``.  It equals both
    textbook forms (information and observation space) and needs no ``C^-1``;
    prior directions at or below ``SINGULAR_PRIOR_THRESHOLD`` times the mean
    prior eigenvalue are taken as known.
    """
    post = _posterior(design, sigma2, prior)
    observations = _check_observations(design, observations)
    if observations.size == 0:
        return EstimationResult(prior.mean.copy(), prior.covariance.copy())
    residual = observations - np.asarray(design, dtype=complex) @ prior.mean
    estimate = prior.mean + post.root @ (post.q.conj().T @ residual)
    return EstimationResult(estimate, post.covariance())


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
    post = _posterior(design, sigma2, prior)
    prediction_design = np.asarray(prediction_design, dtype=complex)
    if prediction_design.ndim != 2 or prediction_design.shape[1] != post.root.shape[0]:
        raise DimensionMismatchError("prediction matrix width must match the design matrix")
    return post.covariance(prediction_design)


def prediction_mse(
    design: np.ndarray,
    s_tilde: complex,
    sigma2: float,
    prior: PriorStatistics | None = None,
) -> float:
    """Prediction MSE at one input value; a function of ``abs(s_tilde)`` only."""
    return float(_posterior(design, sigma2, prior).mse(abs(s_tilde))[0])


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
        raise ValueError("amplitudes must be nonnegative")
    post = _posterior(design, sigma2, prior)
    return MseCurve(amplitudes, post.mse(amplitudes))


def max_prediction_mse(
    design: np.ndarray,
    sigma2: float,
    prior: PriorStatistics | None = None,
    max_amplitude: float = 1.0,
) -> float:
    """Maximal prediction MSE over the amplitude range ``[0, max_amplitude]``.

    The MSE is a real polynomial of degree ``2L`` in the amplitude, so its
    ``2L + 1``-point Chebyshev interpolant on the range is exact.  The maximum
    is taken over both endpoints and the real parts of the roots of the
    interpolant's derivative, the eigenvalues of its colleague matrix (Boyd,
    2002), clipped to the range; every candidate is evaluated by the MSE itself.
    """
    if not 0 < max_amplitude < math.inf:
        raise ValueError("max_amplitude must be positive and finite")
    post = _posterior(design, sigma2, prior)
    cheb = np.polynomial.chebyshev
    half = 0.5 * max_amplitude
    coef = cheb.chebinterpolate(lambda x: post.mse(half * (x + 1.0)), 2 * post.root.shape[0])
    critical = np.clip(cheb.chebroots(cheb.chebder(coef)).real, -1.0, 1.0)
    return float(post.mse(half * (np.concatenate([[-1.0, 1.0], critical]) + 1.0)).max())


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
