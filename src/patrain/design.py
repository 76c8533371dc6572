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

import numpy as np

from .errors import ConvergenceError, PilotAllocationError, RankDeficiencyError
from .estimators import _posterior
from .pa_model import PilotSequence, build_design_matrix

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


def legendre_derivative_roots(order: int) -> np.ndarray:
    """The ``L - 1`` roots of the derivative of the degree-``L`` Legendre polynomial.

    ``P'_L`` is proportional to the Jacobi polynomial ``P^(1,1)_{L-1}``, whose
    roots are the eigenvalues of its symmetric tridiagonal Jacobi matrix: zero
    diagonal and off-diagonals ``sqrt(k (k+2) / ((2k+1) (2k+3)))`` for
    ``k = 1..L-2`` (Golub & Welsch, 1969).  Averaging each root with its
    mirror makes the pairs exactly symmetric and the middle root exactly 0.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    k = np.arange(1, order - 1)
    off_diagonal = np.sqrt(k * (k + 2.0) / ((2.0 * k + 1.0) * (2.0 * k + 3.0)))
    jacobi = np.zeros((order - 1, order - 1))
    jacobi[k, k - 1] = jacobi[k - 1, k] = off_diagonal
    roots = np.linalg.eigvalsh(jacobi)
    return 0.5 * (roots - roots[::-1])


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
