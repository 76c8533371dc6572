"""Complex LS and LMMSE coefficient estimation with analytic error covariances.

Both estimators are one regularized least-squares problem, factored by one SVD
in :func:`_factor`: ``Phi T = U diag(s) V^H``, with ``T = I`` for LS and the
prior root ``C = T T^H`` for LMMSE, which covers singular priors and never
forms ``C^-1``.  The factor holds no noise variance: for each ``sigma2`` the
factored system has the singular values ``sqrt(s^2 + rho sigma2)`` (``rho`` 0
for LS, 1 for LMMSE), so estimates, covariances, prediction MSE and the
D-criterion all follow in closed form, and one factor serves a whole SNR sweep.

The MSE functions work on scale-free rows: with ``c`` the largest pilot
amplitude (1 if all are 0), :func:`_scale_free_factor` factors the monomial rows
``f(s / c)``, ``f(a) = (a, ..., a^L)``, with the prior root scaled by ``c^l``, and
the MSE at ``a`` is read at ``t = a / c``, so no power of ``c`` costs digits.
With the weights ``w = sigma2 / sv^2``, the MSE ``sum_i |f(t) . (T V)_i|^2 w_i``
is a real polynomial of degree ``2L`` in ``t``, and its exact maximum over
``[0, cap]`` is taken on ``[0, r]``, ``r = cap / c``.

- Certificate.  On ``u = t / r`` in ``[0, 1]``, the degree-``8L`` Bernstein
  coefficients of that polynomial bound it from above, and the last one is its
  value at the cap (Farouki & Rajan, CAGD 4, 1987).  They are ``Q @ w`` for a
  map ``Q`` from the directions ``T V`` times ``r^l`` (:meth:`_NodePlan.bernstein`),
  so one product per ``sigma2`` shows whether every other coefficient lies below
  the last one; then the maximum is the MSE at the cap.  Every map in ``Q`` is
  nonnegative, so the same products over absolute values bound its round-off,
  and the test holds in floating point.  Most LMMSE maxima at the fig4 noise
  variances pass it.
- Root step.  Every other ``sigma2`` takes the derivative's roots.  The MSE's
  values at the ``2L + 1`` first-kind Chebyshev nodes fix it; one matrix product
  takes them to the Chebyshev coefficients of its derivative, and numpy's
  ``chebroots`` takes that series' roots.  The maximum is the largest MSE over
  the two endpoints and the real parts of the roots, clipped to the range.
- Plans.  What does not depend on ``sigma2`` is built once: a :class:`_NodePlan`
  per order, sixteen kept, holds the unit node rows, the node-to-derivative map
  and the Bernstein maps; a :class:`_MaxPlan` per (design, prior, cap), four kept
  by :func:`_max_plan`, applies ``r`` to them and holds the factor, the MSE's
  node values and the Bernstein bounds.  The LS MSE is ``sigma2`` times a
  polynomial free of it, so an LS maximum is ``sigma2`` times the plan's maximum
  at ``sigma2 = 1``.

Every other entry point factors its design afresh.
"""

import contextlib
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidInputError,
    InvalidNoiseError,
    InvalidPriorError,
    RankDeficiencyError,
)
from .pa_model import (
    CONDITION_LIMIT, PaPolynomial, PilotSequence, _require_finite, _require_integer, _require_real, basis_rows,
    eval_polynomial,
)

# Prior directions whose eigenvalue is at or below this fraction of the mean
# prior eigenvalue are treated as known exactly and dropped from the whitening.
SINGULAR_PRIOR_THRESHOLD = 1e-12

_SMALLEST_NORMAL = float(np.finfo(float).tiny)
_SMALLEST_SUBNORMAL = float(np.finfo(float).smallest_subnormal)


def _noise_variances(sigma2s) -> tuple[np.ndarray, tuple | np.ndarray]:
    """The one noise-variance rule: ``sigma2s``, one number or a nonempty 1-D sweep, as a float array of its shape,
    and which entries are finite and at least the smallest normal float (a subnormal one's few digits would pass
    to every MSE it scales), a one-entry tuple for one number, so a scalar call builds no mask array.  Another
    shape or a ragged list is a :class:`DimensionMismatchError`, and a complex, text or object dtype fails the check."""
    try:
        values = np.asarray(sigma2s)
    except ValueError:  # a ragged list
        values = np.empty((0, 0))
    if values.ndim > 1 or values.size == 0:
        raise DimensionMismatchError("sigma2 must be one number, or for max_prediction_mse a nonempty 1-D sweep")
    _require_noise_variance(values.item() if values.size == 1 else sigma2s, values.dtype.kind in "biuf")
    values = values.astype(float, copy=False)
    # A Python float for one entry; the comparisons are False for NaN.
    x = values.item() if values.size == 1 else values
    passed = (x >= _SMALLEST_NORMAL) & (x < math.inf)
    return values, (passed,) if values.size == 1 else passed


def _require_noise_variance(sigma2, passed: bool | None = None) -> None:
    """Raise the one :class:`InvalidNoiseError`, naming ``sigma2``, unless ``passed`` (by default, as one number)."""
    if not (all(_noise_variances([sigma2])[1]) if passed is None else passed):
        raise InvalidNoiseError(f"noise variance must be real, finite and at least {_SMALLEST_NORMAL:.3g}, "
                                f"got {sigma2!r}")


def _require_finite_result(values: np.ndarray, label: str) -> np.ndarray:
    """``values`` unless a noise variance or amplitude too large for the design overflowed them."""
    if not np.isfinite(values).all():
        raise InvalidNoiseError(f"{label} overflows the float range")
    return values


def _seeded_rng(seed: int) -> "np.random.Generator":
    """The random stream of ``seed``; a negative seed raises :class:`InvalidInputError`."""
    return np.random.default_rng(_require_integer(seed, "seed", 0))


@dataclass(frozen=True)
class NoiseModel:
    """Circularly symmetric complex noise: total variance ``variance`` per sample."""

    variance: float
    seed: int = 0

    def __post_init__(self) -> None:
        _require_noise_variance(self.variance)
        _require_integer(self.seed, "seed", 0)


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
        mean = np.atleast_1d(_require_finite(self.mean, "prior mean", error=InvalidPriorError))
        cov = _require_finite(self.covariance, "prior covariance", error=InvalidPriorError)
        if cov.shape != (mean.size, mean.size):
            raise DimensionMismatchError("covariance shape must match the mean length")
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
        whiten = eigenvectors[:, keep] * np.sqrt(eigenvalues[keep])
        # The max-MSE plans key priors by identity, so the root they factor is fixed.
        whiten.flags.writeable = False
        object.__setattr__(self, "_whiten", whiten)

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
        amps = _require_finite(self.amplitudes, "amplitudes", float, nonnegative=True)
        vals = _require_finite(self.mse_values, "mse values", float, nonnegative=True)
        if amps.shape != vals.shape or amps.ndim != 1:
            raise DimensionMismatchError("amplitudes and mse_values must be vectors of equal length")
        if amps.size > 1 and not np.all(np.diff(amps) > 0):
            raise InvalidInputError("amplitudes must be strictly increasing")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "mse_values", vals)


def _full_rank(sv: np.ndarray) -> np.ndarray:
    """The one rank test per column of ``sv``, sorted descending: ``cond < CONDITION_LIMIT``; an empty ``sv`` passes."""
    return sv[-1] * CONDITION_LIMIT > sv[0] if len(sv) else np.ones(sv.shape[1:], dtype=bool)


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

    def singular_values(self, sigma2s) -> np.ndarray:
        """Singular values of the factored system, one column per noise variance in ``sigma2s``, after each
        one's noise check (:func:`_noise_variances`) and rank test (:func:`_full_rank`); the first failure raises."""
        sigma2s, valid = _noise_variances(sigma2s)
        # The abs keeps the square root quiet on a negative sigma2, which fails the noise check anyway.
        noise = np.sqrt(np.abs(sigma2s)) if self.regularized else np.zeros(sigma2s.shape)
        # LS passes zeros, and hypot(s, 0) is s bit for bit; every column keeps the descending order of s.
        sv = np.hypot(self.s[:, None], noise)
        passed = valid & _full_rank(sv)
        if not passed.all():
            j = passed.argmin()
            _require_noise_variance(float(sigma2s[j]), valid[j])
            top, bottom = float(sv[0, j]), float(sv[-1, j])
            raise RankDeficiencyError(
                "the factored system is numerically rank deficient: condition number "
                f"{top / bottom if bottom > 0 else math.inf:.3e} reaches CONDITION_LIMIT = {CONDITION_LIMIT:.0e}"
            )
        return sv

    def covariance(self, sigma2: float, rows: np.ndarray | None = None) -> np.ndarray:
        """Error covariance ``sigma2 z z^H`` of ``rows @ beta`` (of ``beta`` by default), ``z = rows @ T V / sv``."""
        with np.errstate(all="ignore"):
            root = self.basis / self.singular_values([sigma2])[:, 0]
            z = root if rows is None else rows @ root
            cov = sigma2 * (z @ z.conj().T)
            return _require_finite_result(0.5 * (cov + cov.conj().T), "error covariance")

    def update(self, residual: np.ndarray, sigma2: float) -> np.ndarray:
        """``T V diag(s / sv^2) U^H residual``: the LS estimate, or the LMMSE step from the mean."""
        sv = self.singular_values([sigma2])[:, 0]
        m = self.u.shape[1]
        return self.basis[:, :m] @ (self.s[:m] / sv[:m] ** 2 * (self.u.conj().T @ residual))

    def weights(self, sigma2s) -> np.ndarray:
        """``sigma2 / sv^2`` per direction (rows) and noise variance (columns), checked by :meth:`singular_values`;
        one that overflows is ``inf``, so the callers take it under ``np.errstate``."""
        return sigma2s / self.singular_values(sigma2s) ** 2

    def energies(self, rows: np.ndarray) -> np.ndarray:
        """``|rows @ T V|^2`` per prediction row (rows) and factored direction (columns):
        times :meth:`weights` it is the MSE, the one evaluator of every MSE here."""
        return np.abs(rows @ self.basis) ** 2

    def rows_mse(self, rows, sigma2s) -> np.ndarray:
        """Prediction MSE ``sum_i |rows @ T v_i|^2 w_i`` per row the caller builds in the design's basis (rows)
        and noise variance (columns).  An LS MSE is ``sigma2`` times ``sum_i |rows @ T v_i / s_i|^2``, and
        the product with the weights where that sum overflows, so it raises only where the MSE overflows."""
        with np.errstate(all="ignore"):
            if self.regularized:
                values = self.energies(rows) @ self.weights(sigma2s)
            else:
                self.singular_values(sigma2s)
                energies = self.energies(rows)
                unit = (energies / self.s / self.s).sum(axis=1)
                values = unit[:, None] * sigma2s
                over = np.isinf(unit)
                if over.any():
                    values[over] = energies[over] @ self.weights(sigma2s)
        return _require_finite_result(values, "prediction MSE")


def _checked_design(design: np.ndarray, prior: PriorStatistics | None) -> np.ndarray:
    """``design`` as a finite complex 2-D matrix, as wide as the order of ``prior`` if one is given."""
    design = _require_finite(design, "design matrix")
    if design.ndim != 2 or (prior is not None and design.shape[1] != prior.order):
        raise DimensionMismatchError("design matrix must be 2-D and, with a prior, as wide as its order")
    return design


def _factor(design: np.ndarray, prior: PriorStatistics | None = None, root: np.ndarray | None = None) -> _Factor:
    """Factor the LS problem (no prior) or the whitened LMMSE problem with one SVD.

    LS takes the SVD of ``Phi``.  LMMSE takes that of ``Phi T`` for the whitening
    root ``T``, by default the one the prior keeps (:class:`PriorStatistics`).  With
    more columns than pilots the full ``V`` is taken and ``s`` padded with zeros, so
    an LS system with too few pilots fails the one rank test,
    :meth:`_Factor.singular_values`, with cond ``inf``.  ``design`` is a checked
    matrix (:func:`_checked_design`).
    """
    root = prior._whiten if root is None and prior is not None else root
    whitened = design if root is None else design @ root
    k = whitened.shape[1]
    u, s, vh = np.linalg.svd(whitened, full_matrices=design.shape[0] < k)
    basis = vh.conj().T
    if s.size < k:
        s = np.concatenate([s, np.zeros(k - s.size)])
    return _Factor(u, s, basis if root is None else root @ basis, root is not None)


def _scale_free_factor(design: np.ndarray, prior: PriorStatistics | None) -> tuple[_Factor, float]:
    """The :func:`_factor` of the scale-free rows ``basis_rows(s / c)`` of the pilots ``s``, the first
    column of ``design``, with the prior root's rows times ``c^l``, and their largest amplitude ``c``
    (1 if all are 0), if ``design`` passes :func:`_checked_design`, has a column and its columns are
    ``s |s|^(l-1)`` of the first within 1e-12 of its largest entry; the rows of ``a`` are those of ``a / c``."""
    design = _checked_design(design, prior)
    order = _require_integer(design.shape[1], "order", 1)
    pilots = design[:, 0]
    rows = basis_rows(pilots, order)
    # A design built by basis_rows matches these rows exactly, so the largest
    # entry is read only when they differ.
    excess = np.abs(design - rows).max(initial=0.0)
    if excess and excess > 1e-12 * np.abs(design).max(initial=0.0):
        raise InvalidInputError("columns are not s|s|^(l-1) of the first; other bases need prediction_covariance")
    scale = float(np.abs(pilots).max(initial=0.0)) or 1.0
    root = None if prior is None or scale == 1 else basis_rows(scale, order)[:, None] * prior._whiten
    return _factor(rows if scale == 1 else basis_rows(pilots / scale, order), prior, root), scale


def _check_observations(design: np.ndarray, observations: np.ndarray) -> np.ndarray:
    observations = _require_finite(observations, "observations")
    if observations.shape != np.shape(design)[:1]:
        raise DimensionMismatchError("observation length must match the number of pilots")
    return observations


def ls_estimate(design: np.ndarray, observations: np.ndarray, sigma2: float) -> EstimationResult:
    """Least-squares estimate with error covariance ``sigma2 * (Phi^H Phi)^-1``."""
    observations = _check_observations(design, observations)
    factor = _factor(_checked_design(design, None))
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
    factor = _factor(_checked_design(design, prior), prior)
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
    factor = _factor(_checked_design(design, prior), prior)
    prediction_design = _require_finite(prediction_design, "prediction matrix")
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
    return float(mse_curve(design, np.abs(_require_finite([s_tilde], "s_tilde")), sigma2, prior).mse_values[0])


def mse_curve(
    design: np.ndarray,
    amplitudes: np.ndarray,
    sigma2: float,
    prior: PriorStatistics | None = None,
) -> MseCurve:
    """Prediction MSE sampled on a grid of finite nonnegative amplitudes."""
    amplitudes = _require_finite(amplitudes, "amplitude grid", float, nonnegative=True)
    factor, scale = _scale_free_factor(design, prior)
    rows = basis_rows(np.atleast_1d(amplitudes / scale), factor.basis.shape[0])
    return MseCurve(amplitudes, factor.rows_mse(rows, [sigma2])[:, 0])


def _binomials(n: int) -> np.ndarray:
    """``C(n, 0), ..., C(n, n)``, exact integers each rounded once to float;
    :class:`OverflowError` once they exceed the float range, from ``n = 1030``."""
    return np.array([float(math.comb(n, i)) for i in range(n + 1)])


def _smallest_magnitude(values: np.ndarray) -> float:
    """The smallest nonzero magnitude in ``values``, ``inf`` if there is none."""
    magnitudes = np.abs(values)
    return magnitudes[magnitudes > 0].min(initial=math.inf)


class _NodePlan:
    """What :meth:`_MaxPlan.max_mse` reuses per order ``L``, on the unit range ``[0, 1]``.

    - ``node_rows``: the rows :func:`basis_rows` builds, cast to complex once, at
      the ``n = 2L + 1`` first-kind Chebyshev nodes ``(x_j + 1) / 2`` of ``[0, 1]``,
      ``x_j = cos(theta_j)``, ``theta_j = pi (j + 1/2) / n``.
    - ``slope_map``: the ``(n - 1, n)`` matrix taking values ``v_j`` at the nodes
      to the Chebyshev coefficients of the derivative of their interpolant.  The
      interpolant has the cosine sums ``c_k = (2/n) sum_j cos(k theta_j) v_j``
      and its derivative ``d_i = sum_{j > i, j - i odd} 2 j c_j``, with ``c_0``
      and ``d_0`` halved (Mason & Handscomb, *Chebyshev Polynomials*, 2003, §2.4), in one matrix.
    - ``power_map``: the ``(L + 1, L)`` binomials ``C(L - l, j - l)`` taking the
      monomial coefficients ``b_l`` (``l = 1..L``) of a direction ``f(u) . b`` to
      ``C(L, j)`` times its degree-``L`` Bernstein coefficients on ``[0, 1]``, whose
      self-convolution is ``C(2L, m)`` times those of degree ``2L`` of its square.
    - ``raise_map``: the ``(8L + 1, 2L + 1)`` map ``C(6L, n - m) / C(8L, n)``
      that takes such a self-convolution to the degree-``8L`` Bernstein
      coefficients; ``None`` from ``L = 129``, whose binomials exceed the float
      range, and then no maximum is certified.
    - ``tolerance`` and ``least_part``: the relative margin ``(8L + 16) eps`` of
      :meth:`bernstein`, and the smallest nonzero magnitude a direction's parts may
      have for every product over absolute values in it to be a normal float.

    The binomials are exact integers rounded once to float, and every entry of both
    maps is nonnegative.  The arrays are read-only, since every caller shares them.
    A plan holds about ``25 L^2`` floats, 325 KB at ``L = 40``, most of it the raise map.
    """

    __slots__ = ("node_rows", "slope_map", "power_map", "raise_map", "tolerance", "least_part")

    def __init__(self, order: int) -> None:
        k = np.arange(2 * order + 1)
        theta = np.pi * (k + 0.5) / k.size
        cosines = np.cos(np.outer(k, theta)) * (2.0 / k.size)
        cosines[0] *= 0.5
        gap = k - k[:-1, None]
        derivative = np.where((gap > 0) & (gap % 2 == 1), 2.0 * k, 0.0)
        derivative[0] *= 0.5
        self.slope_map = derivative @ cosines
        self.node_rows = basis_rows(0.5 * (np.cos(theta) + 1.0), order).astype(complex)
        self.power_map = np.zeros((order + 1, order))
        for l in range(1, order + 1):
            self.power_map[l:, l - 1] = _binomials(order - l)
        self.tolerance, self.least_part = (8 * order + 16) * np.finfo(float).eps, math.inf
        try:
            up = np.concatenate([_binomials(6 * order), np.zeros(2 * order)])
            down = _binomials(8 * order)
        except OverflowError:
            self.raise_map = None
        else:
            # The 2L zeros after C(6L, 6L) are what every n - m outside [0, 6L]
            # reads, a negative one counting from the end.
            self.raise_map = up[np.arange(down.size)[:, None] - k] / down[:, None]
            # A nonzero entry of the build over absolute values is at least
            # b x for the least entries b >= 1 of the power map and x of the parts,
            # squared and times r of the raise map and the tolerance at the end.
            self.least_part = math.sqrt(_SMALLEST_NORMAL / (self.tolerance * _smallest_magnitude(self.raise_map)))
        for array in (self.node_rows, self.slope_map, self.power_map, self.raise_map):
            if array is not None:
                array.flags.writeable = False

    def bernstein(self, basis: np.ndarray) -> np.ndarray | None:
        """Bounds on the degree-``8L`` Bernstein coefficients ``q_j`` (rows) of the
        energies ``|f(u) . b_i|^2``, ``u`` in ``[0, 1]``, of the directions
        ``b_i``, the columns of ``basis``; ``None`` where the bound below fails.

        The real and imaginary parts of each direction go through the two maps
        beside their absolute values.  Every map is nonnegative, so the same
        products over absolute values, ``|q|_j``, bound the round-off of ``q_j``
        and of ``q_j . w`` for weights ``w >= 0`` (Higham, *Accuracy and
        Stability of Numerical Algorithms*, 2002, §3.1), with ``tolerance``
        about twice their relative rounding bound: rows ``j < 8L`` are
        ``q_j + tolerance |q|_j``, upper bounds, and the last row is
        ``q_8L - tolerance |q|_8L``, a lower bound.  The bound needs the raise
        map, finite bounds and no subnormal product over absolute values
        (``least_part``); a subnormal signed product then errs by less than one
        rounding of its absolute twin.
        """
        order, k = basis.shape
        parts = np.concatenate([basis.real, np.abs(basis.real), basis.imag, np.abs(basis.imag)], axis=1)
        if self.raise_map is None or _smallest_magnitude(parts) < self.least_part:
            return None
        with np.errstate(all="ignore"):
            scaled = self.power_map @ parts
            squares = np.zeros((2 * order + 1, 4 * k))
            for j, row in enumerate(scaled):
                squares[j : j + order + 1] += row * scaled
            # |f . b|^2 is the square of its real part plus that of its imaginary part.
            coefficients = self.raise_map @ (squares[:, : 2 * k] + squares[:, 2 * k :])
            signed, margin = coefficients[:, :k], self.tolerance * coefficients[:, k:]
            bounds = signed + margin
            bounds[-1] = signed[-1] - margin[-1]
        return bounds if np.isfinite(bounds).all() else None


_node_plan = functools.lru_cache(maxsize=16)(_NodePlan)


class _MaxPlan:
    """What :func:`max_prediction_mse` reuses per (design, prior, cap); no noise variance in it.

    - ``factor``: the :class:`_Factor` of the design's scale-free rows, read-only.
      The plan works on ``t = a / c`` in ``[0, ratio]``, ``ratio = cap / c``, and
      applies ``ratio`` to the node rows, the directions the Bernstein bound
      reads and the ``t`` it reports as the amplitude of a maximum.
    - ``node_values``: :meth:`_Factor.energies` at the node rows of :func:`_node_plan`
      times ``ratio^l``, so ``node_values @ w`` are the node values of the weights ``w``.
    - ``end_points`` and ``end_values``: ``0`` and ``ratio``, and the energies at their rows.
    - ``bernstein``: :meth:`_NodePlan.bernstein` of the factor's directions
      times ``ratio^l``, ``(8L + 1, k)``, or ``None``.
    - ``unit``: the LS maximum and its ``t`` at ``sigma2 = 1``.  The LS MSE is
      ``sigma2 f^T (Phi^H Phi)^-1 f``, so the maximum at any ``sigma2`` is ``sigma2`` times
      it, at the same ``t``; ``None`` for LMMSE and an LS design that fails the rank
      test or whose unit maximum overflows.

    Besides the factor, a plan holds about ``(10 L + 4) k`` floats for ``k``
    directions, 130 KB at ``L = k = 40``; the Bernstein bounds are most of it.
    """

    __slots__ = ("factor", "ratio", "node_values", "end_points", "end_values", "bernstein", "unit")

    def __init__(self, factor: _Factor, ratio: float) -> None:
        self.factor, self.ratio, self.unit = factor, ratio, None
        order = factor.basis.shape[0]
        plan = _node_plan(order)
        self.end_points = np.array([0.0, ratio])
        self.end_values = factor.energies(basis_rows(self.end_points, order))
        with np.errstate(all="ignore"):
            powers = basis_rows(ratio, order)
            self.node_values = factor.energies(plan.node_rows * powers)
            # A part the powers flush to zero errs far below at_cap's subnormal slack.
            self.bernstein = plan.bernstein(powers[:, None] * factor.basis)
        for array in (factor.u, factor.s, factor.basis, self.node_values, self.end_points, self.end_values):
            array.flags.writeable = False
        if self.bernstein is not None:
            self.bernstein.flags.writeable = False
        if not factor.regularized:
            with contextlib.suppress(RankDeficiencyError, InvalidNoiseError):
                self.unit = tuple(column[0] for column in self.max_mse(np.ones(1), (True,)))

    def at_cap(self, weights: np.ndarray) -> np.ndarray:
        """Which columns of ``weights`` provably have their maximum MSE at the cap.

        The MSE at weights ``w`` has the Bernstein coefficients ``q @ w`` on
        ``[0, 1]``, which bound it from above, and the last of them is its value
        at the cap (Farouki & Rajan, CAGD 4, 1987).  So a column whose upper
        bounds on the others reach at most the lower bound on the last one peaks
        at the cap.  Each product that underflows adds at most half the smallest
        subnormal to a bound, so ``k`` times it separates the two sides.
        """
        if self.bernstein is None:
            return np.zeros(weights.shape[1], dtype=bool)
        # A stack of (k, 1) columns, so each takes its product alone, as in a call of its own.
        bounds = (self.bernstein @ weights.T[..., None])[..., 0]
        return bounds[:, :-1].max(axis=1) + weights.shape[0] * _SMALLEST_SUBNORMAL <= bounds[:, -1]

    def max_mse(self, sigma2s: np.ndarray, passed: tuple | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Maximal prediction MSE over ``t`` in ``[0, ratio]`` per noise variance in the 1-D float
        ``sigma2s``, whose noise check is ``passed`` (:func:`_noise_variances`), and the ``t`` of each maximum.

        LS raises for the first ``sigma2`` that fails it, else scales ``unit``, so
        it raises only where that product overflows.  Otherwise the weights run
        the noise check again with the rank test, and each of their ``(k, 1)`` columns
        takes its products alone, as in a call of its own.  A column that
        :meth:`at_cap` certifies takes the larger MSE of the two endpoints.
        Every other one takes the root step: its node values go to the
        derivative coefficients, which must not overflow, numpy's ``chebroots``
        takes the roots of that series, and the endpoints and clipped roots are
        scored with the weights already taken.
        """
        factor, order, half = self.factor, self.factor.basis.shape[0], 0.5 * self.ratio
        with np.errstate(all="ignore"):
            if self.unit is not None:
                # The rank test passed with the unit maximum and does not depend on sigma2.
                if not all(passed):
                    _require_noise_variance(float(sigma2s[np.argmin(passed)]), False)
                maxima = sigma2s * self.unit[0]
                return _require_finite_result(maxima, "prediction MSE"), np.full(sigma2s.size, self.unit[1])
            weights = _require_finite_result(factor.weights(sigma2s), "prediction MSE")
            slope_map = _node_plan(order).slope_map
            maxima, amplitudes = np.empty(weights.shape[1]), np.empty(weights.shape[1])
            for j, certified in enumerate(self.at_cap(weights)):
                w = weights[:, j : j + 1]
                if certified:
                    candidates, energies = self.end_points, self.end_values
                else:
                    slopes = _require_finite_result(slope_map @ (self.node_values @ w), "prediction MSE")
                    roots = np.polynomial.chebyshev.chebroots(slopes[:, 0]).real
                    points = np.empty(roots.size + 2)
                    points[:2] = -1.0, 1.0
                    np.minimum(np.maximum(roots, -1.0), 1.0, out=points[2:])
                    candidates = half * (points + 1.0)
                    energies = factor.energies(basis_rows(candidates, order))
                values = energies @ w
                best = int(values.argmax())
                maxima[j], amplitudes[j] = values[best, 0], candidates[best]
        return _require_finite_result(maxima, "prediction MSE"), amplitudes


@functools.lru_cache(maxsize=4)
def _max_plan(shape: tuple, data: bytes, prior: PriorStatistics | None, max_amplitude: float) -> _MaxPlan:
    """The plan of the checked design with ``shape`` and bytes ``data``, on its
    scale-free rows; the monomial check runs when it is built.  The prior is keyed
    by identity and its root is read-only.  An entry for an ``N x L`` design with
    ``k`` factored directions holds about ``32 N L + 96 L k`` bytes with its key,
    8 KB at ``L = k = 7, N = 14`` and 65 KB at ``L = k = 20, N = 40``, besides the
    prior it keeps alive."""
    factor, scale = _scale_free_factor(np.frombuffer(data, dtype=complex).reshape(shape), prior)
    return _MaxPlan(factor, max_amplitude / scale)


def max_prediction_mse(
    design: np.ndarray,
    sigma2: float | np.ndarray,
    prior: PriorStatistics | None = None,
    max_amplitude: float = 1.0,
) -> float | np.ndarray:
    """Maximal prediction MSE over the amplitude range ``[0, max_amplitude]``.

    ``sigma2`` is one noise variance, which returns a ``float``, or a 1-D
    array of them, which returns an array of the same length; one number is
    the one-entry sweep.

    The maximum is exact up to round-off, about ``cond eps`` relative for the
    condition number of the design's scale-free rows: a noise variance whose
    maximum a Bernstein certificate puts at the cap takes the MSE there, and
    every other one the largest MSE over both endpoints and the roots of the
    derivative (the module docstring has both steps).  The derivative series is
    not chopped: in the monomial basis round-off and a real leading coefficient
    reach the same size near ``L = 15``.  A noise variance inside a sweep
    returns the bits of its own call.

    Consecutive calls on one (design, prior, cap), such as a loop over ``sigma2``,
    share one plan (:func:`_max_plan`, four entries keyed by the design's shape and
    bytes, the prior object and the cap), and an LS maximum is ``sigma2`` times the
    plan's maximum at ``sigma2 = 1``.  The design checks run on every call, then the
    noise check and the rank test of every ``sigma2``; the first that fails raises.
    """
    max_amplitude = _require_real(max_amplitude, "max_amplitude")
    design = _checked_design(design, prior)
    plan = _max_plan(design.shape, design.tobytes(), prior, max_amplitude)
    sigma2s, passed = _noise_variances(sigma2)
    maxima, _ = plan.max_mse(sigma2s.reshape(-1), passed)
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
