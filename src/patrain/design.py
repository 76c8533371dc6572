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

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, PilotAllocationError, RankDeficiencyError
from .estimators import _checked_design, _factor, _Factor, _seeded_rng
from .pa_model import PilotSequence, _require_integer, build_design_matrix

# Exchange search: a sweep that moves no pilot ends it.  A move must raise the
# determinant by more than EXCHANGE_MIN_GAIN relative, so that rounding noise
# in the determinant ratio cannot pass for progress and keep the sweeps going.
EXCHANGE_MAX_SWEEPS = 500
EXCHANGE_MIN_GAIN = 1e-9


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
    _require_integer(order, "order", 1)
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


def _multiplicity(order: int, n_pilots: int) -> int:
    """Pilots per support point when ``n_pilots`` are split evenly across ``order`` points."""
    _require_integer(order, "order", 1)
    if _require_integer(n_pilots, "pilot count") % order or n_pilots < 1:
        raise PilotAllocationError(
            f"pilot count {n_pilots} must be a positive multiple of the order {order}"
        )
    return n_pilots // order


def allocate_pilots(order: int, n_pilots: int, max_amplitude: float = 1.0) -> PilotSequence:
    """Pilot sequence realizing the optimal design, scaled by ``max_amplitude``.

    The phases are zero; they never affect the estimation error covariances.
    """
    multiplicity = _multiplicity(order, n_pilots)
    amplitudes = np.repeat(optimal_support_points(order) * max_amplitude, multiplicity)
    return PilotSequence(amplitudes.astype(complex), max_amplitude)


def uniform_pilots(n_pilots: int, max_amplitude: float = 1.0) -> PilotSequence:
    """Baseline allocation with amplitudes ``(1/N, 2/N, ..., 1) * max_amplitude``."""
    _require_integer(n_pilots, "n_pilots", 1)
    amplitudes = np.arange(1, n_pilots + 1) / n_pilots * max_amplitude
    return PilotSequence(amplitudes.astype(complex), max_amplitude)


def d_criterion(design: np.ndarray, sigma2: float) -> DesignCriterionValue:
    """Log-determinant of the LS error covariance, ``L log sigma2 - log det(Phi^H Phi)``.

    Read from the singular values ``s`` of the LS factor as
    ``L log sigma2 - 2 sum log s``.  A design that fails its rank test, so that
    :func:`ls_estimate` raises, yields an infinite value.
    """
    try:
        s = _factor(_checked_design(design, None)).singular_values([sigma2])[:, 0]
    except RankDeficiencyError:
        return DesignCriterionValue(np.inf)
    return DesignCriterionValue(float(s.size * np.log(sigma2) - 2.0 * np.sum(np.log(s))))


@functools.lru_cache(maxsize=8)
def _grid_rows(order: int, grid_resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """The exchange grid over [0, 1] and its shifted Legendre rows ``t P_k(2t - 1)``, read-only.

    Each entry holds ``(grid_resolution + 1) (order + 1)`` floats: 168 KB at
    the default 1000-step grid and ``L = 20``, so the eight entries kept hold
    1.3 MB at such sizes.
    """
    grid = np.linspace(0.0, 1.0, grid_resolution + 1)
    basis = grid[:, None] * np.polynomial.legendre.legvander(2.0 * grid - 1.0, order - 1)
    grid.flags.writeable = basis.flags.writeable = False
    return grid, basis


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

    The search runs in the shifted Legendre basis ``f(t) = t P_k(2t - 1)``,
    which changes every log-determinant by the same constant, so the same
    moves win.  With ``M`` the information matrix of the current pilots and
    ``d(x, y) = f(x)^T M^-1 f(y)``, replacing pilot ``p`` by ``x`` scales the
    determinant by ``(1 + d(x))(1 - d(p)) + d(x, p)^2`` (Fedorov, 1972), so
    one visit scores every grid point from ``W = M^-1 F^T`` (``F`` the grid
    rows) and the dispersions ``d``.  Both come from one QR of the start
    rows, ``W = R^-1 R^-T F^T``, and the singular values of ``R`` take the
    rank test.  A move ``p -> q`` then updates them by two Sherman-Morrison
    steps, adding ``f(q)`` and then removing ``f(p)``: with
    ``c = F W[:, q]``, ``W -= W[:, q] c^T / (1 + d(q))`` and
    ``d -= c^2 / (1 + d(q))``; then with ``c = F W[:, p]``,
    ``W += W[:, p] c^T / (1 - d(p))`` and ``d += c^2 / (1 - d(p))``.  The
    second divisor is positive: removing ``f(p)`` scales the determinant by
    ``1 - d(p)``, and an accepted move ends above the positive ``det M`` it
    started from.  A move counts only if it raises the determinant by more than
    ``EXCHANGE_MIN_GAIN`` relative.  At the optimum the Kiefer-Wolfowitz bound
    ``max_t d(t) = L / N`` holds up to the grid spacing, which
    ``max_prediction_mse`` of the result shows.  The grid rows are cached per
    ``(order, grid_resolution)`` (:func:`_grid_rows`).

    Raises :class:`InvalidInputError` for a negative ``seed``,
    :class:`RankDeficiencyError` when the start design is singular and
    :class:`ConvergenceError` when ``EXCHANGE_MAX_SWEEPS`` sweeps all moved a
    pilot.
    """
    _require_integer(grid_resolution, "grid_resolution", 100)
    _multiplicity(order, n_pilots)  # validates the multiplicity up front
    rng = _seeded_rng(seed)
    grid, basis = _grid_rows(order, grid_resolution)
    index = np.rint(np.arange(1, n_pilots + 1) / n_pilots * grid_resolution).astype(int)
    r = np.linalg.qr(basis[index], mode="r")
    # R has the singular values of the start rows, so they take the one rank
    # test.  Moves only raise the determinant, so a regular start stays regular.
    try:
        _Factor(None, np.linalg.svd(r, compute_uv=False), None, False).singular_values([1.0])
    except RankDeficiencyError:
        raise RankDeficiencyError(
            f"exchange start on {grid_resolution + 1} grid points is singular at order {order}"
        ) from None
    # Column y of w is M^-1 f(y) with M = R^T R, so d(x, y) = f(x) . w[:, y].
    r_inv = np.linalg.inv(r)
    z = r_inv.T @ basis.T
    w = r_inv @ z
    d = np.einsum("ij,ij->j", z, z)
    for _ in range(EXCHANGE_MAX_SWEEPS):
        moved = False
        for j in rng.permutation(n_pilots):
            p = index[j]
            d_cross = basis @ w[:, p]
            ratio = (1.0 + d) * (1.0 - d[p]) + d_cross**2
            q = int(ratio.argmax())
            if q != p and ratio[q] > 1.0 + EXCHANGE_MIN_GAIN:
                # Add f(q), then remove f(p): two Sherman-Morrison steps on w and d.
                d_q = basis @ w[:, q]
                w -= w[:, q, None] * (d_q / (1.0 + d[q]))
                d -= d_q**2 / (1.0 + d[q])
                d_p = basis @ w[:, p]
                w += w[:, p, None] * (d_p / (1.0 - d[p]))
                d += d_p**2 / (1.0 - d[p])
                index[j] = q
                moved = True
        if not moved:
            break
    else:
        raise ConvergenceError(
            f"exchange search at order {order} still moved pilots after {EXCHANGE_MAX_SWEEPS} sweeps"
        )
    pilots = PilotSequence(np.sort(grid[index]).astype(complex), 1.0)
    return pilots, d_criterion(build_design_matrix(pilots, order), 1.0)
