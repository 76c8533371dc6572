"""D-optimal pilot training design and the uniform baseline.

For order ``L`` the optimal design places pilots on ``L`` support amplitudes:
``t = 1`` plus the points ``t = (x + 1) / 2`` where ``x`` runs over the roots of
the derivative of the degree-``L`` Legendre polynomial.  With ``N`` a multiple
of ``L``, each support amplitude carries ``N / L`` pilots and pilot phases are
free.  An independent Fedorov exchange over a grid of amplitudes checks that
construction: it maximizes the D-criterion in the shifted Legendre basis, and
the Kiefer-Wolfowitz equivalence theorem certifies what it finds, since at the
D-optimum the largest prediction MSE over [0, 1] is ``sigma2 L / N``.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, PilotAllocationError, RankDeficiencyError
from .estimators import _posterior
from .pa_model import PilotSequence, build_design_matrix

ROOT_BISECTION_TOL = 1e-8
ROOT_NEWTON_TOL = 1e-13

# Exchange search: a sweep that moves no pilot ends it.  A move must raise the
# determinant by more than EXCHANGE_MIN_GAIN relative, so that rounding noise
# in the determinant ratio cannot pass for progress and keep the sweeps going.
EXCHANGE_MAX_SWEEPS = 500
EXCHANGE_MIN_GAIN = 1e-9


@dataclass(frozen=True)
class OptimalDesign:
    """Support amplitudes (sorted, last entry 1) and the pilots-per-point count."""

    order: int
    support_points: np.ndarray
    multiplicity: int


@dataclass(frozen=True)
class DesignCriterionValue:
    """D-criterion: log-determinant of the LS error covariance."""

    log_det: float


def legendre_eval(order: int, x: float) -> tuple[float, float]:
    """Legendre polynomial value and derivative at ``x``.

    Values come from the three-term recurrence
    ``(n+1) P_{n+1} = (2n+1) x P_n - n P_{n-1}`` and the derivative from
    ``(x^2 - 1) P'_L = L (x P_L - P_{L-1})``, with the closed form
    ``P'_L(+-1) = (+-1)^(L+1) L (L+1) / 2`` at the endpoints.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    x = float(x)
    if order == 0:
        return 1.0, 0.0
    p_prev, p = 1.0, x
    for n in range(1, order):
        p_prev, p = p, ((2.0 * n + 1.0) * x * p - n * p_prev) / (n + 1.0)
    if x == 1.0 or x == -1.0:
        dp = x ** (order + 1) * order * (order + 1) / 2.0
    else:
        dp = order * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


def _bisect_newton(f, lo: float, hi: float) -> float:
    """Root of f in (lo, hi): bisection on the bracket, then Newton polish.

    ``f`` returns a (value, derivative) pair and must change sign on the bracket.
    """
    f_lo = f(lo)[0]
    while hi - lo > ROOT_BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)[0]
        if f_mid == 0.0:
            return mid
        if (f_lo < 0.0) != (f_mid < 0.0):
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    x = 0.5 * (lo + hi)
    for _ in range(50):
        value, derivative = f(x)
        if derivative == 0.0:
            break
        step = value / derivative
        x_next = min(max(x - step, lo), hi)
        if abs(x_next - x) <= ROOT_NEWTON_TOL:
            return x_next
        x = x_next
    return x


@lru_cache(maxsize=None)
def _legendre_roots(order: int) -> tuple[float, ...]:
    """All roots of the degree-``order`` Legendre polynomial, sorted.

    Built level by level: the roots of each degree interlace with those of the
    previous degree, which provides guaranteed sign-change brackets.  Only the
    positive roots are solved; the rest follow by symmetry.
    """
    if order == 0:
        return ()
    if order == 1:
        return (0.0,)
    brackets = (-1.0,) + _legendre_roots(order - 1) + (1.0,)
    positive = []
    for lo, hi in zip(brackets, brackets[1:]):
        if lo + hi > 1e-9:
            positive.append(_bisect_newton(lambda t: legendre_eval(order, t), lo, hi))
    mirrored = [-root for root in reversed(positive)]
    middle = [0.0] if order % 2 else []
    return tuple(mirrored + middle + positive)


def _derivative_pair(order: int, x: float) -> tuple[float, float]:
    # Second derivative from the Legendre differential equation; |x| < 1 here.
    p, dp = legendre_eval(order, x)
    ddp = (2.0 * x * dp - order * (order + 1.0) * p) / (1.0 - x * x)
    return dp, ddp


@lru_cache(maxsize=None)
def _derivative_roots(order: int) -> tuple[float, ...]:
    if order <= 1:
        return ()
    brackets = _legendre_roots(order)
    positive = []
    for lo, hi in zip(brackets, brackets[1:]):
        if lo + hi > 1e-9:
            positive.append(_bisect_newton(lambda t: _derivative_pair(order, t), lo, hi))
    mirrored = [-root for root in reversed(positive)]
    middle = [0.0] if order % 2 == 0 else []
    return tuple(mirrored + middle + positive)


def legendre_derivative_roots(order: int) -> np.ndarray:
    """The ``L - 1`` roots of the derivative of the degree-``L`` Legendre polynomial."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return np.array(_derivative_roots(order), dtype=float)


def optimal_support_points(order: int) -> np.ndarray:
    """Support amplitudes of the D-optimal design on [0, 1], sorted increasing.

    The derivative roots are mapped to [0, 1] via ``t = (x + 1) / 2`` and the
    always-optimal amplitude ``t = 1`` is appended.
    """
    roots = legendre_derivative_roots(order)
    return np.append((roots + 1.0) / 2.0, 1.0)


def optimal_design(order: int, n_pilots: int) -> OptimalDesign:
    """Support points plus multiplicity for ``n_pilots`` split evenly across them."""
    if order < 1:
        raise ValueError("order must be >= 1")
    if n_pilots < 1 or n_pilots % order != 0:
        raise PilotAllocationError(
            f"pilot count {n_pilots} must be a positive multiple of the order {order}"
        )
    return OptimalDesign(order, optimal_support_points(order), n_pilots // order)


def allocate_pilots(
    order: int,
    n_pilots: int,
    max_amplitude: float = 1.0,
    phase_policy: str = "zero",
    seed: int | None = None,
) -> PilotSequence:
    """Pilot sequence realizing the optimal design, scaled by ``max_amplitude``.

    ``phase_policy`` is ``"zero"`` (default) or ``"random"`` for uniform phases
    from ``seed``; phases never affect the estimation error covariances.
    """
    design = optimal_design(order, n_pilots)
    amplitudes = np.repeat(design.support_points * max_amplitude, design.multiplicity)
    if phase_policy == "zero":
        symbols = amplitudes.astype(complex)
    elif phase_policy == "random":
        rng = np.random.default_rng(seed)
        symbols = amplitudes * np.exp(2j * np.pi * rng.uniform(size=n_pilots))
    else:
        raise ValueError(f"unknown phase policy: {phase_policy!r}")
    return PilotSequence(symbols, max_amplitude)


def uniform_pilots(n_pilots: int, max_amplitude: float = 1.0) -> PilotSequence:
    """Baseline allocation with amplitudes ``(1/N, 2/N, ..., 1) * max_amplitude``."""
    if n_pilots < 1:
        raise ValueError("n_pilots must be >= 1")
    amplitudes = np.arange(1, n_pilots + 1) / n_pilots * max_amplitude
    return PilotSequence(amplitudes.astype(complex), max_amplitude)


def d_criterion(design: np.ndarray, sigma2: float) -> DesignCriterionValue:
    """Log-determinant of the LS error covariance, ``L log sigma2 - log det(Phi^H Phi)``.

    Read from the triangular factor of the LS estimator.  A design that fails
    its rank test, so that :func:`ls_estimate` raises, yields an infinite value.
    """
    try:
        r = _posterior(design, sigma2).r
    except RankDeficiencyError:
        return DesignCriterionValue(np.inf)
    log_det = r.shape[0] * np.log(sigma2) - 2.0 * np.sum(np.log(np.abs(np.diag(r))))
    return DesignCriterionValue(float(log_det))


def exchange_search_verify(
    order: int,
    n_pilots: int,
    grid_resolution: int = 1000,
    seed: int = 0,
) -> tuple[PilotSequence, DesignCriterionValue]:
    """Fedorov-exchange D-criterion search, an independent optimality check.

    Starting from the uniform allocation snapped to a uniform grid over [0, 1]
    (``grid_resolution`` steps, endpoints included), each pilot in turn, in a
    seeded random order, moves to the grid point that raises ``det(Phi^T Phi)``
    the most, until a sweep moves no pilot.  Returns the design found and its
    criterion value at unit noise variance.

    The search runs in the shifted Legendre basis ``t P_k(2t - 1)``, which
    changes every log-determinant by the same constant, so the same moves win.
    With ``M`` the information matrix of the current pilots and
    ``d(x, y) = f(x)^T M^-1 f(y)``, replacing pilot ``x_j`` by ``x`` scales the
    determinant by ``(1 + d(x))(1 - d(x_j)) + d(x, x_j)^2`` (Fedorov, 1972);
    all candidates are scored from one solve against the triangular factor of
    the current pilots' basis rows.  A move counts only
    if it raises the determinant by more than ``EXCHANGE_MIN_GAIN`` relative.
    At the optimum the Kiefer-Wolfowitz bound ``max_t d(t) = L / N`` holds up
    to the grid spacing, which ``max_prediction_mse`` of the result shows.

    Raises :class:`RankDeficiencyError` when the start design is singular and
    :class:`ConvergenceError` when ``EXCHANGE_MAX_SWEEPS`` sweeps all moved a
    pilot.
    """
    if grid_resolution < 100:
        raise ValueError("grid_resolution must be >= 100")
    optimal_design(order, n_pilots)  # validates the multiplicity up front
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.0, 1.0, grid_resolution + 1)
    basis = grid[:, None] * np.polynomial.legendre.legvander(2.0 * grid - 1.0, order - 1)
    index = np.rint(np.arange(1, n_pilots + 1) / n_pilots * grid_resolution).astype(int)
    # Moves only raise the determinant, so a regular start stays regular.
    if d_criterion(basis[index], 1.0).log_det == np.inf:
        raise RankDeficiencyError(
            f"exchange start on {grid_resolution + 1} grid points is singular at order {order}"
        )
    for _ in range(EXCHANGE_MAX_SWEEPS):
        moved = False
        for j in rng.permutation(n_pilots):
            r = np.linalg.qr(basis[index], mode="r")
            # Column x of z is R^-T f(x), so d(x, y) = z[:, x] . z[:, y].
            z = np.linalg.solve(r.T, basis.T)
            d = np.einsum("ij,ij->j", z, z)
            d_cross = z[:, index[j]] @ z
            ratio = (1.0 + d) * (1.0 - d[index[j]]) + d_cross**2
            choice = int(np.argmax(ratio))
            if choice != index[j] and ratio[choice] > 1.0 + EXCHANGE_MIN_GAIN:
                index[j] = choice
                moved = True
        if not moved:
            break
    else:
        raise ConvergenceError(
            f"exchange search at order {order} still moved pilots after {EXCHANGE_MAX_SWEEPS} sweeps"
        )
    pilots = PilotSequence(np.sort(grid[index]).astype(complex), 1.0)
    return pilots, d_criterion(build_design_matrix(pilots, order), 1.0)
