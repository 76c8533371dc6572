import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from patrain import (
    DimensionMismatchError,
    InvalidInputError,
    InvalidNoiseError,
    InvalidPriorError,
    MseCurve,
    NoiseModel,
    NonFiniteInputError,
    PaPolynomial,
    PilotSequence,
    PriorStatistics,
    RankDeficiencyError,
    RappParameters,
    allocate_pilots,
    build_design_matrix,
    d_criterion,
    exchange_search_verify,
    generate_noisy_observations,
    legendre_derivative_roots,
    lmmse_estimate,
    ls_estimate,
    max_prediction_mse,
    mse_curve,
    prediction_covariance,
    prediction_mse,
    rapp_response,
    uniform_pilots,
)
from patrain.estimators import _colleague, _derivative_map, _derivative_roots, _factor
from patrain.experiments import DEFAULT_SNR_SWEEP_DB, FIGURE_MSE_SAMPLES, CsvTable, run_fig3, snr_db_to_sigma2
from patrain.pa_model import basis_rows
from patrain.prior import (
    PriorConfig,
    RappDistribution,
    build_prior,
    default_fit_grid,
    fit_polynomial_to_curve,
    prior_from_fits,
    rapp_response_blocks,
)


def _random_pilots(rng, order, n_pilots):
    amps = np.linspace(0.3, 1.0, n_pilots) + rng.uniform(-0.02, 0.02, n_pilots)
    phases = rng.uniform(0, 2 * np.pi, n_pilots)
    return PilotSequence(amps * np.exp(1j * phases), 1.1)


def _random_hpd(rng, order, scale=1.0):
    root = rng.normal(size=(order, order)) + 1j * rng.normal(size=(order, order))
    cov = scale * (root @ root.conj().T) + 0.05 * np.eye(order)
    return 0.5 * (cov + cov.conj().T)


# ---------------------------------------------------------------- LS estimator


def test_ls_single_pilot_scalar_case():
    phi = build_design_matrix(PilotSequence([1.0]), 1)
    result = ls_estimate(phi, np.array([2.0 + 0j]), sigma2=0.7)
    assert_allclose(result.estimate, [2.0 + 0j], atol=1e-14)
    assert_allclose(result.error_covariance, [[0.7]], atol=1e-14)


def test_ls_noiseless_recovery_is_exact():
    rng = np.random.default_rng(5)
    for order in (1, 2, 4):
        pilots = _random_pilots(rng, order, order + 2)
        phi = build_design_matrix(pilots, order)
        coef = rng.normal(size=order) + 1j * rng.normal(size=order)
        result = ls_estimate(phi, phi @ coef, sigma2=1.0)
        assert np.linalg.norm(result.estimate - coef) / np.linalg.norm(coef) < 1e-10


def test_ls_covariance_determinant_hand_value():
    # Phi^H Phi = [[1.25, 1.125], [1.125, 1.0625]] has determinant 0.0625.
    phi = build_design_matrix(PilotSequence([0.5, 1.0]), 2)
    result = ls_estimate(phi, np.zeros(2, dtype=complex), sigma2=1.0)
    assert np.linalg.det(result.error_covariance).real == pytest.approx(16.0, rel=1e-10)


def test_ls_rejects_repeated_magnitudes():
    phi = build_design_matrix(PilotSequence([1.0, -1.0]), 2)
    with pytest.raises(RankDeficiencyError):
        ls_estimate(phi, np.zeros(2, dtype=complex), sigma2=1.0)


def test_ls_rejects_underdetermined_system():
    # One pilot, or none, for two coefficients: the rank test sees a zero
    # singular value, so the condition number reads inf.
    for amplitudes in ([1.0], []):
        phi = build_design_matrix(PilotSequence(amplitudes), 2)
        with pytest.raises(RankDeficiencyError, match="condition number inf"):
            ls_estimate(phi, np.zeros(len(amplitudes), dtype=complex), sigma2=1.0)
        assert d_criterion(phi, 1.0).log_det == np.inf


def test_ls_matches_naive_normal_equations():
    rng = np.random.default_rng(23)
    for _ in range(30):
        order = int(rng.integers(1, 6))
        pilots = _random_pilots(rng, order, order + int(rng.integers(0, 4)))
        phi = build_design_matrix(pilots, order)
        coef = rng.normal(size=order) + 1j * rng.normal(size=order)
        noise = rng.normal(size=len(pilots)) + 1j * rng.normal(size=len(pilots))
        r = phi @ coef + 0.1 * noise
        gram = phi.conj().T @ phi
        naive = np.linalg.inv(gram) @ (phi.conj().T @ r)
        stable = ls_estimate(phi, r, 1.0).estimate
        assert np.linalg.norm(stable - naive) / np.linalg.norm(naive) < 1e-8


def test_ls_unbiasedness_monte_carlo():
    order, n_pilots, sigma2, trials = 3, 6, 0.5, 10_000
    pilots = uniform_pilots(n_pilots)
    phi = build_design_matrix(pilots, order)
    model = PaPolynomial([1.0, -0.2 + 0.1j, 0.05])
    truth = model.coefficients
    base_seed = 1234
    total = np.zeros(order, dtype=complex)
    for trial in range(trials):
        r = generate_noisy_observations(model, pilots, NoiseModel(sigma2, base_seed ^ trial))
        total += ls_estimate(phi, r, sigma2).estimate - truth
    gram_inv_trace = np.trace(np.linalg.inv(phi.conj().T @ phi)).real
    bound = 5.0 * np.sqrt(sigma2) * np.sqrt(gram_inv_trace / trials)
    assert np.linalg.norm(total / trials) <= bound


# ------------------------------------------------------------- LMMSE estimator


def test_lmmse_returns_prior_without_data():
    prior = PriorStatistics(np.array([1.0, 2.0]), np.diag([0.5, 2.0]).astype(complex))
    result = lmmse_estimate(np.zeros((0, 2), dtype=complex), np.zeros(0, dtype=complex), 1.0, prior)
    assert np.array_equal(result.estimate, prior.mean)
    assert np.array_equal(result.error_covariance, prior.covariance)


def test_lmmse_scalar_hand_value():
    prior = PriorStatistics(np.zeros(1), np.eye(1, dtype=complex))
    phi = build_design_matrix(PilotSequence([1.0]), 1)
    result = lmmse_estimate(phi, np.array([1.0 + 0j]), 1.0, prior)
    assert_allclose(result.estimate, [0.5], atol=1e-14)
    assert_allclose(result.error_covariance, [[0.5]], atol=1e-14)


def test_lmmse_approaches_ls_at_negligible_noise():
    rng = np.random.default_rng(29)
    order = 2
    pilots = PilotSequence([0.5, 1.0])
    phi = build_design_matrix(pilots, order)
    prior = PriorStatistics(rng.normal(size=order), _random_hpd(rng, order))
    coef = rng.normal(size=order) + 1j * rng.normal(size=order)
    r = phi @ coef
    ls = ls_estimate(phi, r, 1e-12).estimate
    lmmse = lmmse_estimate(phi, r, 1e-12, prior).estimate
    assert np.linalg.norm(lmmse - ls) / np.linalg.norm(ls) < 1e-6


def test_lmmse_convergence_to_ls_with_empirical_prior():
    # The empirical coefficient prior has eigenvalues down to ~1e-9 and the
    # order-7 design has squared singular values down to ~1e-10, so the
    # prior-free regime only starts once sigma2 is far below both scales.
    prior = build_prior(PriorConfig(100, 7, default_fit_grid(), "coherent", 0), RappDistribution())
    pilots = allocate_pilots(7, 7)
    phi = build_design_matrix(pilots, 7)
    rng = np.random.default_rng(42)
    from patrain.prior import draw_rapp_params

    coef = fit_polynomial_to_curve(draw_rapp_params(RappDistribution(), rng), 7, default_fit_grid()).coefficients
    ratios = []
    for sigma2 in (1e-8, 1e-10, 1e-12, 1e-14):
        w = rng.normal(0, np.sqrt(sigma2 / 2), (7, 2))
        r = phi @ coef + w[:, 0] + 1j * w[:, 1]
        ls = ls_estimate(phi, r, sigma2).estimate
        lmmse = lmmse_estimate(phi, r, sigma2, prior).estimate
        ratios.append(np.linalg.norm(lmmse - ls) / np.linalg.norm(ls))
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] <= 1e-4


def test_lmmse_rejects_nonpositive_noise():
    prior = PriorStatistics(np.zeros(1), np.eye(1, dtype=complex))
    phi = build_design_matrix(PilotSequence([1.0]), 1)
    with pytest.raises(InvalidNoiseError):
        lmmse_estimate(phi, np.array([1.0 + 0j]), 0.0, prior)


def _information_form(phi, r, sigma2, prior):
    gram = phi.conj().T @ phi + sigma2 * np.linalg.inv(prior.covariance)
    covariance = sigma2 * np.linalg.inv(gram)
    return prior.mean + np.linalg.inv(gram) @ (phi.conj().T @ (r - phi @ prior.mean)), covariance


def _observation_form(phi, r, sigma2, prior):
    gain = prior.covariance @ phi.conj().T
    innovation_inv = np.linalg.inv(phi @ gain + sigma2 * np.eye(len(phi)))
    estimate = prior.mean + gain @ innovation_inv @ (r - phi @ prior.mean)
    return estimate, prior.covariance - gain @ innovation_inv @ gain.conj().T


def test_lmmse_matches_textbook_forms():
    rng = np.random.default_rng(31)
    order = 4
    pilots = _random_pilots(rng, order, order + 1)
    phi = build_design_matrix(pilots, order)
    r = rng.normal(size=len(pilots)) + 1j * rng.normal(size=len(pilots))
    # Full rank: both textbook forms apply (Woodbury identity).
    prior = PriorStatistics(rng.normal(size=order), _random_hpd(rng, order))
    result = lmmse_estimate(phi, r, 0.4, prior)
    for estimate, covariance in (_information_form(phi, r, 0.4, prior), _observation_form(phi, r, 0.4, prior)):
        assert_allclose(result.estimate, estimate, rtol=1e-9, atol=1e-12)
        assert_allclose(result.error_covariance, covariance, rtol=1e-8, atol=1e-12)
    # Exactly singular (rank one): only the observation form exists.
    direction = rng.normal(size=order) + 1j * rng.normal(size=order)
    singular = PriorStatistics(rng.normal(size=order), np.outer(direction, direction.conj()))
    result = lmmse_estimate(phi, r, 0.4, singular)
    estimate, covariance = _observation_form(phi, r, 0.4, singular)
    assert_allclose(result.estimate, estimate, rtol=1e-9, atol=1e-12)
    assert_allclose(result.error_covariance, covariance, rtol=1e-8, atol=1e-12)


def test_lmmse_handles_exactly_singular_prior():
    order = 3
    direction = np.array([1.0, 0.5, 0.25], dtype=complex)
    prior = PriorStatistics(np.zeros(order), np.outer(direction, direction.conj()))
    phi = build_design_matrix(PilotSequence([0.4, 0.7, 1.0]), order)
    r = np.array([0.1, 0.2, 0.3], dtype=complex)
    result = lmmse_estimate(phi, r, 0.5, prior)
    eigenvalues = np.linalg.eigvalsh(result.error_covariance)
    assert eigenvalues.min() >= -1e-10
    assert np.abs(result.error_covariance - result.error_covariance.conj().T).max() < 1e-10


def test_lmmse_dimension_mismatch():
    prior = PriorStatistics(np.zeros(2), np.eye(2, dtype=complex))
    phi = build_design_matrix(PilotSequence([0.5, 1.0]), 2)
    with pytest.raises(DimensionMismatchError):
        lmmse_estimate(phi, np.zeros(3, dtype=complex), 1.0, prior)


# ----------------------------------------------------------------- prediction


def test_prediction_covariance_projector_trace():
    # With N = L and prediction at the pilots, Phi (Phi^H Phi)^-1 Phi^H is a
    # rank-L projector, so the trace equals sigma2 * L.
    for order in range(2, 8):
        pilots = allocate_pilots(order, order)
        phi = build_design_matrix(pilots, order)
        cov = prediction_covariance(phi, phi, 0.7)
        assert np.trace(cov).real == pytest.approx(0.7 * order, rel=1e-9)


def test_prediction_covariance_at_support_points_equals_noise_floor():
    for order in range(2, 8):
        pilots = allocate_pilots(order, order)
        phi = build_design_matrix(pilots, order)
        for amp in np.abs(pilots.symbols):
            row = build_design_matrix(PilotSequence([amp]), order)
            value = prediction_covariance(phi, row, 1.0)[0, 0].real
            assert value == pytest.approx(1.0, rel=1e-8)


def test_prediction_covariance_prior_never_hurts():
    rng = np.random.default_rng(37)
    for _ in range(10):
        order = int(rng.integers(1, 5))
        pilots = _random_pilots(rng, order, order + 2)
        phi = build_design_matrix(pilots, order)
        phi_pred = build_design_matrix(PilotSequence(np.linspace(0.2, 1.0, 7).astype(complex), 1.0), order)
        prior = PriorStatistics(np.zeros(order), _random_hpd(rng, order))
        no_prior = prediction_covariance(phi, phi_pred, 0.8)
        with_prior = prediction_covariance(phi, phi_pred, 0.8, prior)
        assert np.linalg.eigvalsh(no_prior - with_prior).min() >= -1e-10


def test_prediction_mse_zero_input():
    phi = build_design_matrix(PilotSequence([0.5, 1.0]), 2)
    assert prediction_mse(phi, 0.0, 1.0) == 0.0


def test_prediction_mse_hand_values_order_two():
    # (Phi^H Phi)^-1 = [[17, -18], [-18, 20]] for the {0.5, 1} design.
    phi = build_design_matrix(PilotSequence([0.5, 1.0]), 2)
    assert prediction_mse(phi, 1.0, 1.0) == pytest.approx(1.0, rel=1e-10)
    assert prediction_mse(phi, 0.5, 1.0) == pytest.approx(1.0, rel=1e-10)


def test_prediction_mse_depends_on_amplitude_only():
    phi = build_design_matrix(PilotSequence([0.5, 1.0]), 2)
    base = prediction_mse(phi, 0.77, 1.0)
    # Quarter-turn rotations keep the amplitude bit-exact, so equality is exact.
    for rotated in (0.77j, -0.77, -0.77j):
        assert prediction_mse(phi, rotated, 1.0) == base
    rng = np.random.default_rng(41)
    for _ in range(10):
        theta = rng.uniform(0, 2 * np.pi)
        assert prediction_mse(phi, 0.77 * np.exp(1j * theta), 1.0) == pytest.approx(base, rel=1e-13)


def test_phase_rotations_leave_gram_matrix_unchanged():
    rng = np.random.default_rng(43)
    pilots = allocate_pilots(5, 10)
    phi = build_design_matrix(pilots, 5)
    gram = phi.conj().T @ phi
    for _ in range(25):
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, len(pilots)))
        rotated = build_design_matrix(PilotSequence(pilots.symbols * phases, 1.0), 5)
        assert np.abs(rotated.conj().T @ rotated - gram).max() < 1e-12


def test_max_prediction_mse_reference_values():
    phi_opt = build_design_matrix(allocate_pilots(5, 5), 5)
    assert max_prediction_mse(phi_opt, 1.0) == pytest.approx(1.0, abs=1e-6)
    phi_unif5 = build_design_matrix(uniform_pilots(5), 5)
    assert max_prediction_mse(phi_unif5, 1.0) == pytest.approx(2.54202, rel=1e-3)
    phi_unif7 = build_design_matrix(uniform_pilots(7), 7)
    assert max_prediction_mse(phi_unif7, 1.0) == pytest.approx(9.10700, rel=1e-3)


def test_max_prediction_mse_minimax_bound():
    for order in range(1, 11):
        for factor in (1, 2):
            n_pilots = factor * order
            phi = build_design_matrix(allocate_pilots(order, n_pilots), order)
            for sigma2 in (1.0, 0.01):
                value = max_prediction_mse(phi, sigma2)
                assert value == pytest.approx(sigma2 * order / n_pilots, rel=1e-6)


def test_mse_curve_matches_pointwise_evaluations():
    phi = build_design_matrix(uniform_pilots(4), 3)
    amplitudes = np.linspace(0.0, 1.0, 11)
    curve = mse_curve(phi, amplitudes, 0.9)
    for amp, value in zip(curve.amplitudes, curve.mse_values):
        assert value == pytest.approx(prediction_mse(phi, amp, 0.9), rel=1e-12, abs=1e-15)


def test_mse_curve_rejects_negative_amplitudes():
    phi = build_design_matrix(uniform_pilots(6), 4)
    with pytest.raises(ValueError, match="nonnegative"):
        mse_curve(phi, [-0.5, 0.5], 1.0)
    # prediction_mse reads the magnitude of a signed or complex input.
    expected = mse_curve(phi, [0.5], 1.0).mse_values[0]
    for s_tilde in (-0.5, 0.5j, -0.5j, 0.3 + 0.4j):
        assert prediction_mse(phi, s_tilde, 1.0) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_mse_curve_rejects_nonfinite_amplitudes(bad):
    phi = build_design_matrix(uniform_pilots(6), 4)
    with pytest.raises(NonFiniteInputError):
        mse_curve(phi, [0.25, bad, 0.75], 1.0)


@pytest.mark.parametrize("cap", [0.0, -1.0, np.nan, np.inf])
def test_max_prediction_mse_rejects_invalid_amplitude_cap(cap):
    phi = build_design_matrix(allocate_pilots(3, 3), 3)
    with pytest.raises(ValueError, match="max_amplitude"):
        max_prediction_mse(phi, 1.0, max_amplitude=cap)


def test_mse_functions_reject_a_design_in_another_basis():
    # Read with monomial rows, this basis-changed optimal design gave a maximum
    # MSE of 231.68 instead of sigma2 L / N = 1.
    transform = np.triu(np.ones((4, 4)))
    phi = build_design_matrix(allocate_pilots(4, 4), 4)
    psi = phi @ transform
    for call in (
        lambda: max_prediction_mse(psi, 1.0),
        lambda: mse_curve(psi, [0.0, 0.5, 1.0], 1.0),
        lambda: prediction_mse(psi, 0.5, 1.0),
    ):
        with pytest.raises(InvalidInputError, match="prediction_covariance"):
            call()
    # Rows in the design's own basis give the same MSE through prediction_covariance.
    rows = build_design_matrix(PilotSequence(np.linspace(0.0, 1.0, 11)), 4)
    covariance = prediction_covariance(psi, rows @ transform, 1.0)
    assert_allclose(np.diag(covariance).real, mse_curve(phi, np.linspace(0.0, 1.0, 11), 1.0).mse_values, rtol=1e-10)
    assert max_prediction_mse(phi, 1.0) == pytest.approx(1.0, rel=1e-12)


def test_mse_and_covariance_beyond_the_float_range_raise_noise_errors():
    # These used to come back as inf and nan, with only a RuntimeWarning.
    phi = build_design_matrix(uniform_pilots(24), 12)
    with pytest.raises(InvalidNoiseError, match="overflow"):
        mse_curve(phi, np.linspace(0, 1, 501), 1e300)
    with pytest.raises(InvalidNoiseError, match="overflow"):
        ls_estimate(phi, np.zeros(24), 1e300)


def _grid_maxima(phi, sigma2, prior=None, max_amplitude=1.0, points=100_001):
    """Maximum of the MSE on a dense grid, and that maximum refined by a second
    grid of as many points across the two cells around the grid's best point.

    A 1e-5-spaced grid misses a sharp interior peak by up to ``f'' h^2 / 8``,
    1.5e-8 relative for uniform pilots at L = 9, N = 18; the refined maximum
    is the upper reference.
    """
    grid = np.linspace(0.0, max_amplitude, points)
    values = mse_curve(phi, grid, sigma2, prior).mse_values
    best = int(np.argmax(values))
    zoom = np.linspace(grid[max(best - 1, 0)], grid[min(best + 1, points - 1)], points)
    refined = max(values[best], mse_curve(phi, zoom, sigma2, prior).mse_values.max())
    return values[best], refined


@pytest.mark.parametrize("allocation", ["optimal", "uniform"])
@pytest.mark.parametrize("factor", [1, 2])
@pytest.mark.parametrize("order", range(2, 13))
def test_max_prediction_mse_matches_dense_grid(order, factor, allocation):
    n_pilots = factor * order
    pilots = allocate_pilots(order, n_pilots) if allocation == "optimal" else uniform_pilots(n_pilots)
    phi = build_design_matrix(pilots, order)
    value = max_prediction_mse(phi, 1.0)
    grid_max, refined_max = _grid_maxima(phi, 1.0)
    # From L = 10 on, monomial round-off in the MSE itself reaches 1e-8.
    below, above = (1e-12, 1e-8) if order <= 9 else (1e-8, 1e-8)
    assert value >= grid_max * (1 - below)
    assert value <= refined_max * (1 + above)


@pytest.mark.parametrize(
    "eigenvalues",
    [[1, 1, 1, 0], [1, 0, 0, 0], [0, 0, 0, 1e-30], np.logspace(-3, -20, 4), [0, 0, 0, 0]],
    ids=["rank-3", "rank-1", "tiny", "spread", "zero"],
)
@pytest.mark.parametrize("sigma2", [1.0, 0.01])
def test_max_prediction_mse_matches_dense_grid_for_degenerate_priors(eigenvalues, sigma2):
    phi = build_design_matrix(allocate_pilots(4, 4), 4)
    prior = PriorStatistics(np.zeros(4), np.diag(eigenvalues).astype(complex))
    value = max_prediction_mse(phi, sigma2, prior)
    grid_max, refined_max = _grid_maxima(phi, sigma2, prior)
    assert grid_max * (1 - 1e-12) <= value <= refined_max * (1 + 1e-8)


@pytest.mark.parametrize("allocation", ["optimal", "uniform"])
def test_max_prediction_mse_matches_dense_grid_on_a_wider_range(allocation):
    order, n_pilots, cap = 5, 10, 2.5
    if allocation == "optimal":
        pilots = allocate_pilots(order, n_pilots, max_amplitude=cap)
    else:
        pilots = uniform_pilots(n_pilots, max_amplitude=cap)
    phi = build_design_matrix(pilots, order)
    value = max_prediction_mse(phi, 0.1, max_amplitude=cap)
    grid_max, refined_max = _grid_maxima(phi, 0.1, max_amplitude=cap)
    assert grid_max * (1 - 1e-12) <= value <= refined_max * (1 + 1e-8)


@st.composite
def _mse_problems(draw):
    order = draw(st.integers(2, 8))
    # Amplitudes on a 1e-3 lattice in [0.05, 1], so distinct ones are at least 1e-3 apart.
    steps = draw(st.lists(st.integers(0, 950), min_size=order, max_size=2 * order, unique=True))
    amplitudes = 0.05 + 1e-3 * np.sort(steps)
    sigma2 = 10.0 ** draw(st.floats(-6.0, 0.0))
    prior_seed = draw(st.none() | st.integers(0, 2**32 - 1))
    prior = None
    if prior_seed is not None:
        rng = np.random.default_rng(prior_seed)
        prior = PriorStatistics(rng.normal(size=order), _random_hpd(rng, order))
    return build_design_matrix(PilotSequence(amplitudes.astype(complex)), order), amplitudes, sigma2, prior


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_mse_problems())
def test_max_prediction_mse_bounds_every_sampled_value(problem):
    phi, amplitudes, sigma2, prior = problem
    try:
        value = max_prediction_mse(phi, sigma2, prior)
    except RankDeficiencyError:
        reject()
    at_pilots = mse_curve(phi, amplitudes, sigma2, prior).mse_values
    on_grid = mse_curve(phi, np.linspace(0.0, 1.0, 2001), sigma2, prior).mse_values
    assert value >= at_pilots.max() * (1 - 1e-12)
    assert value >= on_grid.max() * (1 - 1e-12)


@pytest.mark.parametrize("order", range(1, 41))
def test_derivative_coefficients_match_numpy_interpolate_and_differentiate(order):
    cheb = np.polynomial.chebyshev
    series = np.random.default_rng(order).normal(size=2 * order + 1)
    reference = cheb.chebder(cheb.chebinterpolate(lambda x: cheb.chebval(x, series), 2 * order))
    nodes, slope_map = _derivative_map(2 * order)
    got = slope_map @ cheb.chebval(nodes, series)
    assert got.shape == reference.shape
    assert np.abs(got - reference).max() <= 1e-12 * np.abs(reference).max()
    # The map is built once per degree and shared by every caller.
    assert _derivative_map(2 * order)[1] is slope_map
    assert not nodes.flags.writeable and not slope_map.flags.writeable
    assert _derivative_map.cache_info().maxsize is not None


def _mse_slopes(factor, cap, sigma2s):
    """The derivative coefficients whose roots ``_Factor.max_mse`` takes."""
    nodes, slope_map = _derivative_map(2 * factor.basis.shape[0])
    return slope_map @ factor.weighted_mse(0.5 * cap * (nodes + 1.0), factor.weights(sigma2s))


@pytest.mark.parametrize("order", range(2, 41))
def test_derivative_roots_equal_chebroots(order):
    chebroots = np.polynomial.chebyshev.chebroots
    rng = np.random.default_rng(order)
    prior = PriorStatistics(rng.normal(size=order), _random_hpd(rng, order))
    factor = _factor(build_design_matrix(uniform_pilots(2 * order), order), prior)
    for slopes in (rng.normal(size=(2 * order, 3)), _mse_slopes(factor, 1.0, EQUIVALENCE_SIGMA2S)):
        # From about L = 29 the leading MSE coefficients are round-off, and
        # some come out exactly 0: those go to chebroots itself.
        for column in slopes.T:
            assert np.array_equal(_derivative_roots(column), chebroots(column))
    # The template is built once per degree and shared by every caller.
    rotated, scale = _colleague(2 * order - 1)
    assert _colleague(2 * order - 1)[0] is rotated
    assert not rotated.flags.writeable and not scale.flags.writeable
    assert _colleague.cache_info().maxsize is not None


def test_derivative_roots_leave_degree_one_and_a_zero_leading_coefficient_to_chebroots():
    chebroots = np.polynomial.chebyshev.chebroots
    rng = np.random.default_rng(0)
    trimmed = rng.normal(size=6)
    trimmed[-1] = 0.0
    for coefficients in (trimmed, rng.normal(size=2)):
        assert np.array_equal(_derivative_roots(coefficients), chebroots(coefficients))
    assert _derivative_roots(trimmed).size == 4
    # Order 1: the MSE sigma2 a^2 / sum |s_n|^2 has a degree-1 derivative, so
    # its maximum sits at the cap and comes through chebroots.
    phi = build_design_matrix(uniform_pilots(2), 1)
    sigma2s = np.array(EQUIVALENCE_SIGMA2S)
    maxima, amplitudes = _factor(phi).max_mse(2.5, sigma2s)
    assert_allclose(maxima, sigma2s * 2.5**2 / 1.25, rtol=1e-12)
    assert np.array_equal(amplitudes, [2.5] * 3)


def _interpolate_differentiate_max(phi, sigma2, prior, cap):
    """The maximum MSE through numpy's chebinterpolate and chebder, then chebroots."""
    cheb = np.polynomial.chebyshev
    factor, half = _factor(phi, prior), 0.5 * cap
    coef = cheb.chebinterpolate(lambda x: factor.mse(half * (x + 1.0), [sigma2])[:, 0], 2 * phi.shape[1])
    critical = np.clip(cheb.chebroots(cheb.chebder(coef)).real, -1.0, 1.0)
    return factor.mse(half * (np.concatenate([[-1.0, 1.0], critical]) + 1.0), [sigma2]).max()


EQUIVALENCE_SIGMA2S = (1e-3, 0.1, 1.0)


def _equivalence_cases(order):
    """(design, prior, cap, allocation) over pilots, N, prior rank and the amplitude range."""
    rng = np.random.default_rng(order)
    full_rank = PriorStatistics(rng.normal(size=order), _random_hpd(rng, order))
    draws = rng.normal(size=(order - 1, order)) + 1j * rng.normal(size=(order - 1, order))
    low_rank = PriorStatistics(draws.mean(axis=0), draws.T @ draws.conj() / (order - 1))
    for cap in (1.0, 2.5):
        for n_pilots in (order, 2 * order):
            for allocation in ("optimal", "uniform"):
                if allocation == "optimal":
                    pilots = allocate_pilots(order, n_pilots, max_amplitude=cap)
                else:
                    pilots = uniform_pilots(n_pilots, cap)
                phi = build_design_matrix(pilots, order)
                for prior in (None, full_rank, low_rank):
                    yield phi, prior, cap, allocation


@pytest.mark.parametrize("order", range(2, 9))
def test_max_prediction_mse_matches_interpolate_and_differentiate(order):
    for phi, prior, cap, _ in _equivalence_cases(order):
        swept = max_prediction_mse(phi, np.array(EQUIVALENCE_SIGMA2S), prior, cap)
        assert isinstance(swept, np.ndarray) and swept.shape == (len(EQUIVALENCE_SIGMA2S),)
        for sigma2, from_sweep in zip(EQUIVALENCE_SIGMA2S, swept):
            reference = _interpolate_differentiate_max(phi, sigma2, prior, cap)
            value = max_prediction_mse(phi, sigma2, prior, cap)
            assert type(value) is float
            assert value == pytest.approx(reference, rel=1e-10)
            assert from_sweep == pytest.approx(value, rel=1e-10)


@pytest.mark.parametrize("order", range(2, 9))
def test_max_prediction_mse_location_matches_a_dense_grid(order):
    points = 200_001
    for phi, prior, cap, allocation in _equivalence_cases(order):
        factor = _factor(phi, prior)
        maxima, amplitudes = factor.max_mse(cap, EQUIVALENCE_SIGMA2S)
        grid = np.linspace(0.0, cap, points)
        on_grid = factor.mse(grid, EQUIVALENCE_SIGMA2S)
        for j, sigma2 in enumerate(EQUIVALENCE_SIGMA2S):
            # The public MSE at the returned amplitude, within the round-off of
            # one MSE evaluation (2.6e-12 relative at L = 7 on [0, 2.5]).
            at_location = mse_curve(phi, [amplitudes[j]], sigma2, prior).mse_values[0]
            assert at_location == pytest.approx(maxima[j], rel=1e-10)
            if allocation == "optimal" and prior is None:
                # sigma2 L / N is attained at every support point, so the location is not unique.
                assert maxima[j] == pytest.approx(sigma2 * order / phi.shape[0], rel=1e-10)
                continue
            # A grid misses an interior peak by f'' h^2 / 8, up to 1.5e-9 relative
            # here, so no grid point may beat the maximum beyond rounding.
            assert on_grid[:, j].max() <= maxima[j] * (1 + 1e-12)
            if allocation == "uniform":
                assert abs(amplitudes[j] - grid[np.argmax(on_grid[:, j])]) <= 2 * cap / (points - 1)


def test_psd_ordering_ls_versus_lmmse():
    rng = np.random.default_rng(47)
    for _ in range(50):
        order = int(rng.integers(1, 5))
        pilots = _random_pilots(rng, order, order + int(rng.integers(0, 3)))
        phi = build_design_matrix(pilots, order)
        sigma2 = float(10.0 ** rng.uniform(-2, 1))
        prior = PriorStatistics(rng.normal(size=order), _random_hpd(rng, order))
        c_ls = ls_estimate(phi, np.zeros(len(pilots), dtype=complex), sigma2).error_covariance
        c_lmmse = lmmse_estimate(phi, np.zeros(len(pilots), dtype=complex), sigma2, prior).error_covariance
        assert np.linalg.eigvalsh(c_ls - c_lmmse).min() >= -1e-10


# ----------------------------------------------------------- noise generation


def test_noisy_observations_tiny_variance_recovers_model():
    model = PaPolynomial([1.0, -0.1])
    pilots = uniform_pilots(6)
    phi = build_design_matrix(pilots, 2)
    r = generate_noisy_observations(model, pilots, NoiseModel(1e-30, seed=9))
    assert np.abs(r - phi @ model.coefficients).max() < 1e-10


def test_noisy_observations_deterministic_for_fixed_seed():
    model = PaPolynomial([1.0])
    pilots = uniform_pilots(5)
    first = generate_noisy_observations(model, pilots, NoiseModel(0.3, seed=77))
    second = generate_noisy_observations(model, pilots, NoiseModel(0.3, seed=77))
    assert np.array_equal(first, second)


def test_noise_empirical_variance():
    model = PaPolynomial([0.0])  # zero response isolates the noise
    pilots = PilotSequence(np.zeros(100_000, dtype=complex), 1.0)
    sigma2 = 0.8
    r = generate_noisy_observations(model, pilots, NoiseModel(sigma2, seed=123))
    assert np.mean(np.abs(r) ** 2) == pytest.approx(sigma2, rel=0.02)


def test_noise_model_requires_positive_variance():
    with pytest.raises(InvalidNoiseError):
        NoiseModel(0.0)


@pytest.mark.parametrize("sigma2", [-1.0, 0.0, np.inf, np.nan, 1e-320, np.finfo(float).tiny / 2])
def test_every_estimator_rejects_invalid_noise(sigma2):
    phi = build_design_matrix(allocate_pilots(3, 3), 3)
    prior = PriorStatistics(np.zeros(3), np.eye(3, dtype=complex))
    calls = [
        lambda: NoiseModel(sigma2),
        lambda: ls_estimate(phi, np.zeros(3), sigma2),
        lambda: lmmse_estimate(phi, np.zeros(3), sigma2, prior),
        lambda: prediction_covariance(phi, phi, sigma2),
        lambda: prediction_mse(phi, 0.5, sigma2),
        lambda: mse_curve(phi, np.linspace(0.0, 1.0, 5), sigma2),
        lambda: max_prediction_mse(phi, sigma2),
        lambda: max_prediction_mse(phi, sigma2, prior),
        lambda: max_prediction_mse(phi, [0.1, sigma2, 1.0]),
        lambda: max_prediction_mse(phi, np.array([0.1, sigma2]), prior),
    ]
    for call in calls:
        with pytest.raises(InvalidNoiseError):
            call()


@pytest.mark.parametrize("sigma2", [[], np.ones((2, 2)), [[0.1, 1.0]]], ids=["empty", "2x2", "1x2"])
def test_max_prediction_mse_rejects_a_noise_variance_that_is_no_number_or_vector(sigma2):
    phi = build_design_matrix(allocate_pilots(3, 3), 3)
    with pytest.raises(DimensionMismatchError):
        max_prediction_mse(phi, sigma2)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_estimators_reject_nonfinite_inputs(bad):
    phi = build_design_matrix(allocate_pilots(3, 3), 3)
    prior = PriorStatistics(np.zeros(3), np.eye(3, dtype=complex))
    observations = np.ones(3, dtype=complex)
    broken_phi = phi.copy()
    broken_phi[1, 2] = bad
    broken_observations = observations.copy()
    broken_observations[0] = complex(0.0, bad)
    calls = [
        lambda: ls_estimate(broken_phi, observations, 1.0),
        lambda: ls_estimate(phi, broken_observations, 1.0),
        lambda: lmmse_estimate(broken_phi, observations, 1.0, prior),
        lambda: lmmse_estimate(phi, broken_observations, 1.0, prior),
        lambda: prediction_mse(phi, bad, 1.0),
    ]
    for call in calls:
        with pytest.raises(NonFiniteInputError):
            call()


def test_smallest_normal_noise_variance_is_accepted():
    tiny = float(np.finfo(float).tiny)
    phi = build_design_matrix(allocate_pilots(2, 2), 2)
    NoiseModel(tiny)
    assert mse_curve(phi, [0.0, 1.0], tiny).mse_values[1] == pytest.approx(tiny, rel=1e-12)


def test_domain_errors_are_invalid_input_and_value_errors():
    phi = build_design_matrix(allocate_pilots(3, 3), 3)
    calls = [
        lambda: MseCurve([0.5, 0.25], [1.0, 1.0]),
        lambda: MseCurve([0.25, 0.5], [1.0, -1.0]),
        lambda: mse_curve(phi, [-0.5, 0.5], 1.0),
        lambda: max_prediction_mse(phi, 1.0, max_amplitude=0.0),
        lambda: generate_noisy_observations(PaPolynomial([1.0]), allocate_pilots(1, 1), NoiseModel(0.1, seed=-1)),
        # pa_model
        lambda: PaPolynomial([]),
        lambda: PilotSequence(np.full((2, 2), 0.5)),
        lambda: PilotSequence([0.5], max_amplitude=0.0),
        lambda: PilotSequence([2.0]),
        lambda: RappParameters(gain=0.0),
        lambda: build_design_matrix(allocate_pilots(3, 3), 0),
        lambda: basis_rows(0.5, 0),
        lambda: rapp_response(RappParameters(), -1.0),
        # prior
        lambda: RappDistribution(gain_variance=-1.0),
        lambda: RappDistribution(gain_variance=np.nan),
        lambda: RappDistribution(gain_mean=-10.0, gain_variance=0.0),
        lambda: PriorConfig(fit_order=0),
        lambda: PriorConfig(fit_order=-1),
        lambda: default_fit_grid(1.0, 0.0),
        lambda: default_fit_grid(1.0, -0.1),
        lambda: default_fit_grid(np.nan, 0.1),
        lambda: default_fit_grid(1.0, np.inf),
        lambda: default_fit_grid(1.0, 0.3),
        lambda: default_fit_grid(0.1, 0.25),
        lambda: PriorConfig(realizations=0),
        lambda: PriorConfig(mode="partial"),
        lambda: list(rapp_response_blocks(RappDistribution(), np.random.default_rng(0), 1, [-1.0])),
        lambda: list(rapp_response_blocks(RappDistribution(), np.random.default_rng(0), 0, [1.0])),
        lambda: prior_from_fits(np.ones((3, 2), dtype=complex), "partial"),
        lambda: build_prior(PriorConfig(seed=-1), RappDistribution()),
        # design
        lambda: legendre_derivative_roots(0),
        lambda: allocate_pilots(0, 1),
        lambda: uniform_pilots(0),
        lambda: exchange_search_verify(2, 2, grid_resolution=10),
        lambda: exchange_search_verify(3, 3, seed=-1),
        # experiments
        lambda: run_fig3(realizations=0),
        lambda: run_fig3(seed=-1),
    ]
    for call in calls:
        with pytest.raises(InvalidInputError) as info:
            call()
        assert isinstance(info.value, ValueError)
    # Too few distinct grid points is a rank error, wherever it is found.
    with pytest.raises(RankDeficiencyError) as info:
        PriorConfig(fit_order=7, fit_grid=np.array([0.0, 0.5, 1.0]))
    assert isinstance(info.value, ValueError)


def test_array_holding_values_compare_by_identity_and_hash():
    phi = build_design_matrix(allocate_pilots(2, 2), 2)
    factories = [
        lambda: PriorStatistics(np.zeros(2), np.eye(2)),
        lambda: ls_estimate(phi, np.ones(2), 1.0),
        lambda: mse_curve(phi, [0.0, 1.0], 1.0),
        lambda: _factor(phi),
        lambda: PaPolynomial([1.0, 0.5]),
        lambda: PilotSequence([0.5, 1.0]),
        lambda: PriorConfig(),
        lambda: CsvTable(("a",), [[1.0], [2.0]]),
    ]
    for make in factories:
        first, second = make(), make()
        assert first == first and first != second
        assert len({first, second}) == 2


def _sweep_prior(kind, order, rng):
    if kind == "none":
        return None
    if kind == "full":
        cov = _random_hpd(rng, order, scale=0.1)
    elif kind == "rank-deficient":
        root = rng.normal(size=(order, order - 1)) + 1j * rng.normal(size=(order, order - 1))
        cov = 0.1 * (root @ root.conj().T)
        cov = 0.5 * (cov + cov.conj().T)
    else:
        cov = np.zeros((order, order), dtype=complex)
    return PriorStatistics(rng.normal(size=order) + 0j, cov)


SWEEP_CASES = [
    (order, pilots, kind)
    for order in range(2, 11)
    for pilots in ("L", "2L", "L-1")
    for kind in ("none", "full", "rank-deficient", "zero")
    if not (pilots == "L-1" and kind == "none")
]


@pytest.mark.parametrize("order, pilots, kind", SWEEP_CASES)
def test_sigma2_sweep_matches_per_sigma2_curves(order, pilots, kind):
    # One factor evaluated for the whole SNR sweep at once, as fig2 and fig4
    # do, against one public mse_curve call per noise variance.
    rng = np.random.default_rng(order)
    if pilots == "L-1":
        n_pilots = order - 1
        pilot_sequence = uniform_pilots(n_pilots)
    else:
        n_pilots = order * (2 if pilots == "2L" else 1)
        pilot_sequence = allocate_pilots(order, n_pilots)
    phi = build_design_matrix(pilot_sequence, order)
    prior = _sweep_prior(kind, order, rng)
    sigma2s = [snr_db_to_sigma2(snr_db, "per-symbol", n_pilots) for snr_db in DEFAULT_SNR_SWEEP_DB]
    grid = np.linspace(0.0, 1.0, FIGURE_MSE_SAMPLES)
    sweep = _factor(phi, prior).mse(grid, sigma2s).max(axis=0)
    single = np.array([mse_curve(phi, grid, sigma2, prior).mse_values.max() for sigma2 in sigma2s])
    assert_allclose(sweep, single, rtol=1e-12 if order <= 8 else 1e-9, atol=0)
    assert [format(v, ".9g") for v in sweep] == [format(v, ".9g") for v in single]


def test_equal_priors_have_equal_repr():
    rng = np.random.default_rng(3)
    mean = rng.normal(size=4) + 0j
    cov = _random_hpd(rng, 4)
    first, second = PriorStatistics(mean, cov), PriorStatistics(mean.copy(), cov.copy())
    assert repr(first) == repr(second)
    assert "_whiten" not in repr(first)


def test_prior_statistics_tolerances_are_relative():
    # A 1e-14-scale covariance with a 5e-13 asymmetric entry is far from
    # Hermitian relative to its own size.
    cov = 1e-14 * np.eye(2, dtype=complex)
    cov[0, 1] = 5e-13
    with pytest.raises(InvalidPriorError):
        PriorStatistics(np.zeros(2), cov)
    # A large covariance with rounding-level asymmetry and negativity passes.
    cov = 1e6 * np.array([[2.0, 1.0], [1.0, 0.5]], dtype=complex)
    cov[0, 1] += 1e-7
    PriorStatistics(np.zeros(2), cov)
    with pytest.raises(InvalidPriorError):
        PriorStatistics(np.zeros(2), np.diag([1e-6, -1e-15]).astype(complex))


@pytest.mark.parametrize(
    "mean, cov",
    [
        ([np.nan, 0.0], np.eye(2)),
        ([0.0, 0.0], [[1.0, np.inf], [np.inf, 1.0]]),
        ([0.0, 0.0], [[1.0, 0.5], [0.0, 1.0]]),
        ([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]]),
    ],
    ids=["nan-mean", "inf-cov", "non-hermitian", "indefinite"],
)
def test_prior_statistics_rejects_invalid_prior(mean, cov):
    with pytest.raises(InvalidPriorError):
        PriorStatistics(np.asarray(mean), np.asarray(cov, dtype=complex))
    # Existing callers that catch ValueError keep working.
    assert issubclass(InvalidPriorError, ValueError)
