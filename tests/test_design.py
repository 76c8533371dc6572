import numpy as np
import pytest
from numpy.polynomial import legendre as npleg
from numpy.testing import assert_allclose

from patrain import (
    ConvergenceError,
    PilotAllocationError,
    PilotSequence,
    RankDeficiencyError,
    allocate_pilots,
    build_design_matrix,
    d_criterion,
    exchange_search_verify,
    legendre_derivative_roots,
    ls_estimate,
    max_prediction_mse,
    optimal_design,
    optimal_support_points,
    prediction_mse,
    uniform_pilots,
)
from patrain import design


# ------------------------------------------------------------------- Legendre


def test_derivative_roots_low_orders():
    assert np.array_equal(legendre_derivative_roots(1), np.zeros(0))
    assert np.array_equal(legendre_derivative_roots(2), np.array([0.0]))
    assert_allclose(legendre_derivative_roots(3), [-1 / np.sqrt(5), 1 / np.sqrt(5)], atol=1e-12)
    assert_allclose(
        legendre_derivative_roots(4), [-np.sqrt(3.0 / 7.0), 0.0, np.sqrt(3.0 / 7.0)], atol=1e-12
    )


def _derivative_series(order):
    """Legendre-series coefficients of ``P'_order``."""
    series = np.zeros(order + 1)
    series[order] = 1.0
    return npleg.legder(series)


def test_derivative_roots_match_numpy_oracle():
    for order in range(2, 61):
        oracle = np.sort(npleg.legroots(_derivative_series(order)).real)
        assert_allclose(legendre_derivative_roots(order), oracle, atol=1e-11)


def test_derivative_roots_symmetric_and_counted():
    for order in range(1, 61):
        roots = legendre_derivative_roots(order)
        assert roots.size == order - 1
        assert np.all(np.diff(roots) > 0)
        assert np.array_equal(roots, -roots[::-1])  # exact mirror pairing
        if order <= 10:  # the P' residual grows with the order, to 3e-11 at 60
            residuals = np.abs(npleg.legval(roots, _derivative_series(order)))
            assert max(residuals, default=0.0) <= 1e-12


# ------------------------------------------------------------- support points


def test_support_points_low_orders():
    assert np.array_equal(optimal_support_points(1), np.array([1.0]))
    assert np.array_equal(optimal_support_points(2), np.array([0.5, 1.0]))


def test_support_points_order_five_quartic_oracle():
    # P_5'(x) vanishes where 315 x^4 - 210 x^2 + 15 = 0; solve as a quadratic
    # in x^2 and map through t = (x + 1) / 2.
    disc = np.sqrt(210.0**2 - 4.0 * 315.0 * 15.0)
    x_big = np.sqrt((210.0 + disc) / 630.0)
    x_small = np.sqrt((210.0 - disc) / 630.0)
    oracle = np.sort(
        [(1 - x_big) / 2, (1 - x_small) / 2, (1 + x_small) / 2, (1 + x_big) / 2, 1.0]
    )
    assert_allclose(optimal_support_points(5), oracle, atol=1e-10)
    assert_allclose(
        optimal_support_points(5),
        [0.1174724, 0.3573843, 0.6426157, 0.8825276, 1.0],
        atol=1e-7,
    )


def test_support_points_structure_all_orders():
    for order in range(1, 11):
        points = optimal_support_points(order)
        assert points.size == order
        assert points[-1] == 1.0
        assert np.unique(points).size == order
        assert np.all(np.diff(points) > 0)
        for t in points[:-1]:
            assert abs(npleg.legval(2.0 * t - 1.0, _derivative_series(order))) <= 1e-10


# ----------------------------------------------------------------- allocation


def test_allocate_pilots_multiplicity_two():
    pilots = allocate_pilots(2, 4)
    assert_allclose(np.abs(pilots.symbols), [0.5, 0.5, 1.0, 1.0])


def test_allocate_pilots_order_one():
    pilots = allocate_pilots(1, 3)
    assert_allclose(np.abs(pilots.symbols), [1.0, 1.0, 1.0])


def test_allocate_pilots_scales_with_max_amplitude():
    pilots = allocate_pilots(5, 5, max_amplitude=2.0)
    assert_allclose(np.abs(pilots.symbols), 2.0 * optimal_support_points(5), rtol=1e-14)


def test_allocate_pilots_rejects_bad_multiplicity():
    with pytest.raises(PilotAllocationError):
        allocate_pilots(3, 4)


def test_allocate_pilots_random_phases_keep_gram():
    order, n_pilots = 4, 8
    base = build_design_matrix(allocate_pilots(order, n_pilots), order)
    gram = base.conj().T @ base
    randomized = allocate_pilots(order, n_pilots, phase_policy="random", seed=99)
    assert_allclose(np.abs(randomized.symbols), np.abs(allocate_pilots(order, n_pilots).symbols), rtol=1e-14)
    rotated = build_design_matrix(randomized, order)
    assert np.abs(rotated.conj().T @ rotated - gram).max() < 1e-12


def test_optimal_design_fields():
    design = optimal_design(3, 6)
    assert design.order == 3 and design.multiplicity == 2
    assert design.support_points[-1] == 1.0


def test_uniform_pilots_examples():
    assert_allclose(np.abs(uniform_pilots(2).symbols), [0.5, 1.0])
    assert_allclose(np.abs(uniform_pilots(1).symbols), [1.0])
    assert_allclose(np.abs(uniform_pilots(4).symbols), [0.25, 0.5, 0.75, 1.0])


# ------------------------------------------------------------------ criterion


def test_d_criterion_hand_value():
    phi = build_design_matrix(uniform_pilots(2), 2)
    assert d_criterion(phi, 1.0).log_det == pytest.approx(np.log(16.0), rel=1e-10)


def test_d_criterion_noise_scaling():
    phi = build_design_matrix(uniform_pilots(3), 3)
    base = d_criterion(phi, 1.0).log_det
    scaled = d_criterion(phi, 2.5).log_det
    assert scaled - base == pytest.approx(3 * np.log(2.5), rel=1e-12)


def test_d_criterion_optimal_beats_uniform():
    order = 5
    optimal = d_criterion(build_design_matrix(allocate_pilots(order, order), order), 1.0)
    uniform = d_criterion(build_design_matrix(uniform_pilots(order), order), 1.0)
    assert optimal.log_det < uniform.log_det


def test_d_criterion_rank_deficient_is_infinite():
    phi = build_design_matrix(PilotSequence([1.0, -1.0]), 2)
    assert d_criterion(phi, 1.0).log_det == np.inf


@pytest.mark.parametrize("order", [16, 17])
def test_d_criterion_is_infinite_exactly_when_ls_fails(order):
    # The optimal L = 17 design has condition number 3.9e12, above the rank
    # test's 1e12, while its R-diagonal ratio is only 5.9e9.  L = 16 (6.6e11)
    # passes both.
    phi = build_design_matrix(allocate_pilots(order, order), order)
    try:
        ls_estimate(phi, np.zeros(order), 1.0)
        ls_fails = False
    except RankDeficiencyError:
        ls_fails = True
    assert ls_fails == (order == 17)
    assert (d_criterion(phi, 1.0).log_det == np.inf) == ls_fails


# ------------------------------------------------------------ exchange search


def test_exchange_search_order_one():
    pilots, _ = exchange_search_verify(1, 1, grid_resolution=1000, seed=0)
    assert_allclose(np.abs(pilots.symbols), [1.0])


def test_exchange_search_finds_order_two_support():
    pilots, _ = exchange_search_verify(2, 2, grid_resolution=1000, seed=0)
    assert_allclose(np.abs(pilots.symbols), [0.5, 1.0], atol=1e-3)


def test_exchange_search_confirms_support_design():
    for order in range(2, 6):
        _, found = exchange_search_verify(order, order, grid_resolution=1000, seed=1)
        analytic = d_criterion(build_design_matrix(allocate_pilots(order, order), order), 1.0)
        assert found.log_det >= analytic.log_det - 1e-6
        assert found.log_det <= analytic.log_det + 1e-4


def test_exchange_search_rejects_small_grid():
    with pytest.raises(ValueError):
        exchange_search_verify(2, 2, grid_resolution=50)


@pytest.mark.parametrize("seed", [0, 1])
def test_exchange_search_oracle_and_certificate_to_order_twelve(seed):
    for order in range(2, 13):
        n_pilots = order
        pilots, found = exchange_search_verify(order, n_pilots, grid_resolution=1000, seed=seed)
        analytic = d_criterion(build_design_matrix(allocate_pilots(order, n_pilots), order), 1.0)
        assert analytic.log_det - 1e-6 <= found.log_det <= analytic.log_det + 2e-3, order
        # Kiefer-Wolfowitz: at the D-optimum the largest prediction variance is L / N.
        found_phi = build_design_matrix(pilots, order)
        assert max_prediction_mse(found_phi, 1.0) * n_pilots / order - 1.0 <= 1e-3, order


def test_exchange_search_sweep_cap_raises(monkeypatch):
    monkeypatch.setattr(design, "EXCHANGE_MAX_SWEEPS", 1)
    with pytest.raises(ConvergenceError):
        exchange_search_verify(6, 6, grid_resolution=1000, seed=0)


def test_exchange_search_singular_start_raises():
    # 102 pilots snap onto at most 101 grid points: fewer than the 102 columns.
    with pytest.raises(RankDeficiencyError):
        exchange_search_verify(102, 102, grid_resolution=100)


# ------------------------------------------------------------------ minimax


def test_equioscillation_at_support_points():
    for order in range(1, 11):
        for factor in (1, 2):
            n_pilots = factor * order
            phi = build_design_matrix(allocate_pilots(order, n_pilots), order)
            target = order / n_pilots
            for t in optimal_support_points(order):
                assert prediction_mse(phi, t, 1.0) == pytest.approx(target, rel=1e-8)
            assert max_prediction_mse(phi, 1.0) <= target * (1 + 1e-8)


def test_gain_ratio_monotone_in_order():
    ratios = []
    for order in range(2, 9):
        d_uniform = max_prediction_mse(build_design_matrix(uniform_pilots(order), order), 1.0)
        d_optimal = max_prediction_mse(build_design_matrix(allocate_pilots(order, order), order), 1.0)
        ratios.append(d_uniform / d_optimal)
    assert all(b >= a for a, b in zip(ratios, ratios[1:]))
