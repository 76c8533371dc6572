import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
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
    eval_polynomial,
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
from patrain.estimators import _factor, _max_plan, _MaxPlan, _node_plan, _NodePlan, _noise_variances
from patrain.experiments import (
    DEFAULT_SNR_SWEEP_DB, FIGURE_MSE_SAMPLES, CsvTable, run_fig1, run_fig2, run_fig3, snr_db_to_sigma2
)
from patrain.pa_model import basis_rows
from patrain.prior import (
    PriorConfig,
    RappDistribution,
    build_prior,
    default_fit_grid,
    fit_moments,
    fit_polynomial_to_curve,
    prior_from_moments,
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


def test_rank_failure_names_the_condition_number_not_the_pilots():
    # The uniform N = L = 15 pilots have distinct magnitudes; it is their
    # monomial design that is too ill conditioned for the rank test.
    phi = build_design_matrix(uniform_pilots(15), 15)
    expected = r"numerically rank deficient: condition number 2\.7\d\de\+12 reaches CONDITION_LIMIT = 1e\+12"
    with pytest.raises(RankDeficiencyError, match=expected) as raised:
        ls_estimate(phi, np.zeros(15, dtype=complex), sigma2=1.0)
    assert "distinct" not in str(raised.value)
    with pytest.raises(RankDeficiencyError, match=expected):
        max_prediction_mse(phi, 1.0)
    assert d_criterion(phi, 1.0).log_det == np.inf


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


@st.composite
def _phased_designs(draw, max_order=6, max_cond=1e4):
    """``(pilots, design, cond)``: N in [L, 2L] pilots of random phase on a 1e-3 amplitude
    lattice in [0.05, 1], whose order-L design has a condition number at most ``max_cond``."""
    order = draw(st.integers(1, max_order))
    steps = draw(st.lists(st.integers(0, 950), min_size=order, max_size=2 * order, unique=True))
    phases = draw(st.lists(st.floats(0.0, 2 * np.pi), min_size=len(steps), max_size=len(steps)))
    pilots = PilotSequence((0.05 + 1e-3 * np.array(steps)) * np.exp(1j * np.array(phases)))
    design = build_design_matrix(pilots, order)
    cond = np.linalg.cond(design)
    assume(cond <= max_cond)
    return pilots, design, cond


@settings(derandomize=True, deadline=None, max_examples=100)
@given(problem=_phased_designs(), seed=st.integers(0, 2**32 - 1))
def test_ls_equals_the_normal_equations_within_the_squared_condition_number(problem, seed):
    _, phi, cond = problem
    rng = np.random.default_rng(seed)
    order, n_pilots = phi.shape[1], phi.shape[0]
    coef = rng.normal(size=order) + 1j * rng.normal(size=order)
    r = phi @ coef + 0.1 * (rng.normal(size=n_pilots) + 1j * rng.normal(size=n_pilots))
    naive = np.linalg.solve(phi.conj().T @ phi, phi.conj().T @ r)
    stable = ls_estimate(phi, r, 1.0).estimate
    # Both paths round a few times even at cond = 1 (order 1), where they
    # differ by up to 4.5 eps; from cond = 10 up the gap stays below cond^2 eps.
    bound = 10 * cond**2 * np.finfo(float).eps
    assert np.linalg.norm(stable - naive) <= bound * np.linalg.norm(naive)


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


@pytest.mark.parametrize(
    "call",
    [
        lambda: PriorStatistics(np.zeros(3), np.eye(2)),
        lambda: MseCurve([0.0, 1.0], [1.0]),
        lambda: prediction_covariance(build_design_matrix(allocate_pilots(3, 3), 3), np.ones((1, 2)), 1.0),
    ],
    ids=["prior-covariance", "mse-curve", "prediction-rows"],
)
def test_arrays_of_unequal_sizes_are_dimension_errors(call):
    with pytest.raises(DimensionMismatchError):
        call()


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


@pytest.mark.parametrize(
    "cap", [np.array([1.0, 2.0]), np.array([2.5]), "2.5", 1j, None], ids=["array", "one-entry", "text", "complex", "none"]
)
def test_max_prediction_mse_rejects_an_amplitude_cap_that_is_no_real_number(cap):
    # An array cap used to end in a bare "truth value ... is ambiguous" ValueError.
    phi = build_design_matrix(allocate_pilots(3, 3, max_amplitude=2.5), 3)
    with pytest.raises(InvalidInputError, match="max_amplitude"):
        max_prediction_mse(phi, 1.0, max_amplitude=cap)


def test_max_prediction_mse_reads_a_numpy_cap_as_the_float_it_holds():
    phi = build_design_matrix(uniform_pilots(10, 2.5), 5)
    sigma2s = np.array(EQUIVALENCE_SIGMA2S)
    for sigma2 in (0.1, sigma2s):
        expected = max_prediction_mse(phi, sigma2, max_amplitude=2.5)
        for cap in (np.float64(2.5), np.float32(2.5)):
            assert np.array_equal(max_prediction_mse(phi, sigma2, max_amplitude=cap), expected)


def test_mse_functions_reject_a_design_with_no_columns():
    # max_prediction_mse used to end in a bare IndexError here.
    phi = np.zeros((3, 0))
    for call in (
        lambda: max_prediction_mse(phi, 1.0),
        lambda: max_prediction_mse(phi, [0.1, 1.0]),
        lambda: mse_curve(phi, [0.0, 0.5, 1.0], 1.0),
        lambda: prediction_mse(phi, 0.5, 1.0),
    ):
        with pytest.raises(InvalidInputError, match="order must be >= 1"):
            call()


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
        mse_curve(phi, np.linspace(0, 1, 501), 1e308)
    with pytest.raises(InvalidNoiseError, match="overflow"):
        ls_estimate(phi, np.zeros(24), 1e300)
    with pytest.raises(InvalidNoiseError, match="overflow"):
        max_prediction_mse(phi, 1e308)


def test_an_ls_mse_inside_the_float_range_is_returned():
    # sigma2 / s^2 overflows on this design, but sigma2 times the MSE at sigma2 = 1 does not.
    phi = build_design_matrix(uniform_pilots(24), 12)
    assert max_prediction_mse(phi, 1e300) == 1e300 * max_prediction_mse(phi, 1.0)
    assert max_prediction_mse(phi, 1e300) == pytest.approx(1.9906536852687255e300, rel=1e-12)
    assert mse_curve(phi, [0.5], 1e300).mse_values[0] == pytest.approx(1e300 * prediction_mse(phi, 0.5, 1.0), rel=1e-14)
    # At a 1e-160 cap the rows of the pilots over their largest amplitude keep
    # every digit: the MSE sigma2 a^2 / sum |s_n|^2 is 0.8 sigma2 at the cap.
    tiny = build_design_matrix(uniform_pilots(2, 1e-160), 1)
    assert mse_curve(tiny, [1e-160], 1e-300).mse_values[0] == pytest.approx(8e-301, rel=1e-14)
    assert max_prediction_mse(tiny, 1.0, max_amplitude=1e-160) == pytest.approx(0.8, rel=1e-14)
    assert max_prediction_mse(tiny, 1e-300, max_amplitude=1e-160) == pytest.approx(8e-301, rel=1e-14)


def test_ls_design_whose_unit_maximum_overflows_takes_the_root_step():
    # Pilots 0.5 and 1 at order 2 with the maximum taken up to a 6e76 cap: the
    # MSE there is sigma2 (20 a^4 - 36 a^3 + 17 a^2), 2.6e308 at sigma2 = 1, so
    # the plan keeps no unit maximum, yet sigma2 = 1e-300 has a finite one.
    phi = build_design_matrix(uniform_pilots(2), 2)
    assert max_prediction_mse(phi, 1e-300, max_amplitude=6e76) == pytest.approx(2.592e8, rel=1e-12)
    assert _plan_of(phi, None, 6e76).unit is None
    with pytest.raises(InvalidNoiseError, match="overflow"):
        max_prediction_mse(phi, 1.0, max_amplitude=6e76)


def test_an_ls_mse_whose_noise_free_sum_overflows_is_returned():
    # The same design at 6e76: sum_i e_i / s_i^2 overflows there, so that row
    # takes the weights 1e-300 / s_i^2; every finite row keeps its bits, and at
    # sigma2 = 1 the MSE itself overflows.
    phi = build_design_matrix(uniform_pilots(2), 2)
    value = mse_curve(phi, [6e76], 1e-300).mse_values[0]
    assert value == pytest.approx(2.592e8, rel=1e-12)
    assert value == pytest.approx(max_prediction_mse(phi, 1e-300, max_amplitude=6e76), rel=1e-14)
    assert mse_curve(phi, [0.5, 6e76], 1e-300).mse_values[0] == mse_curve(phi, [0.5], 1e-300).mse_values[0]
    with pytest.raises(InvalidNoiseError, match="overflow"):
        mse_curve(phi, [6e76], 1.0)
    # In a sweep the finite row keeps the bits of its own call, and the
    # overflowing one takes the weights of every sigma2.
    factor, sigma2s = _factor(phi), [1e-300, 1e-299]
    values = factor.rows_mse(basis_rows([0.5, 6e76], 2).astype(complex), sigma2s)
    for j, sigma2 in enumerate(sigma2s):
        assert values[0, j] == factor.rows_mse(basis_rows([0.5], 2).astype(complex), [sigma2])[0, 0]
        assert values[1, j] == pytest.approx(max_prediction_mse(phi, sigma2, max_amplitude=6e76), rel=1e-14)


@pytest.mark.parametrize("scale", [1e-150, 1e-3, 1e3])
@pytest.mark.parametrize("order", range(1, 9))
def test_ls_mse_does_not_depend_on_the_amplitude_scale(order, scale):
    # The LS MSE at amplitude a of pilots scaled by c, up to a cap c, is the
    # MSE at a / c of the unscaled pilots.  The scaled amplitudes divided by c
    # again differ from the unscaled ones by a rounding or two, and the MSE
    # carries round-off of about cond eps, cond that of the unscaled design:
    # the tolerance is 4 cond eps (measured at most 1.5 cond eps, at cond 1).
    grid = np.linspace(0.0, 1.0, 101)
    for n_pilots in (order, 2 * order):
        for pilots in (lambda c: uniform_pilots(n_pilots, c), lambda c: allocate_pilots(order, n_pilots, c)):
            unit, scaled = (build_design_matrix(pilots(c), order) for c in (1.0, scale))
            tolerance = 4 * np.linalg.cond(unit) * np.finfo(float).eps
            expected = max_prediction_mse(unit, 1.0)
            assert max_prediction_mse(scaled, 1.0, max_amplitude=scale) == pytest.approx(expected, rel=tolerance)
            curve = mse_curve(unit, grid, 1.0).mse_values
            assert_allclose(mse_curve(scaled, grid * scale, 1.0).mse_values, curve, rtol=0, atol=tolerance * curve.max())


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


@pytest.mark.parametrize("order", range(2, 15))
def test_max_prediction_mse_finds_an_interior_maximum_on_a_subrange(order):
    # Uniform pilots on [0, 1] with the maximum taken over [0, 0.5]: N is even,
    # so 0.5 is a pilot, and from N = 4 on the maximum sits inside (0, 0.5) at
    # a root of the derivative rather than at an endpoint.
    cap = 0.5
    grid = np.linspace(0.0, cap, 400_001)
    for n_pilots in (n for n in (order, 2 * order) if n % 2 == 0):
        phi = build_design_matrix(uniform_pilots(n_pilots), order)
        value = max_prediction_mse(phi, 1.0, max_amplitude=cap)
        on_grid = mse_curve(phi, grid, 1.0).mse_values
        grid_max = on_grid.max()
        if n_pilots >= 4:
            assert 0.0 < grid[on_grid.argmax()] < cap, n_pilots
        # No case here passes the Bernstein certificate of a maximum at the cap.
        factor = _factor(phi)
        assert not _MaxPlan(factor, cap).at_cap(factor.weights([1.0]))[0], n_pilots
        assert value >= grid_max, n_pilots
        assert value <= grid_max * (1 + 1e-8), n_pilots


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


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    problem=_phased_designs(max_order=5, max_cond=1e3),
    data=st.data(),
    log_sigma2=st.floats(-6.0, 0.0),
    prior_seed=st.none() | st.integers(0, 2**32 - 1),
)
def test_pilot_phases_leave_the_prediction_mse_unchanged(problem, data, log_sigma2, prior_seed):
    # Each pilot's phase scales its design row by a unit factor, which leaves
    # Phi^H Phi as it is.  The MSE round-off is about cond(Phi) eps, hence cond <= 1e3.
    pilots, phi, _ = problem
    order, sigma2 = phi.shape[1], 10.0**log_sigma2
    turns = data.draw(st.lists(st.floats(0.0, 2 * np.pi), min_size=len(pilots), max_size=len(pilots)))
    turned = build_design_matrix(PilotSequence(pilots.symbols * np.exp(1j * np.array(turns))), order)
    prior = None
    if prior_seed is not None:
        rng = np.random.default_rng(prior_seed)
        prior = PriorStatistics(rng.normal(size=order), _random_hpd(rng, order))
    grid = np.linspace(0.0, 1.0, 51)
    curve = mse_curve(phi, grid, sigma2, prior).mse_values
    assert_allclose(mse_curve(turned, grid, sigma2, prior).mse_values, curve, rtol=0, atol=1e-12 * curve.max())
    assert_allclose(max_prediction_mse(turned, sigma2, prior), max_prediction_mse(phi, sigma2, prior), rtol=1e-12)


def _chebyshev_nodes(degree):
    """The ``degree + 1`` first-kind Chebyshev nodes on ``[-1, 1]``, as the node plan places them."""
    k = np.arange(degree + 1)
    return np.cos(np.pi * (k + 0.5) / k.size)


@pytest.mark.parametrize("order", range(1, 41))
def test_derivative_coefficients_match_numpy_interpolate_and_differentiate(order):
    cheb = np.polynomial.chebyshev
    series = np.random.default_rng(order).normal(size=2 * order + 1)
    reference = cheb.chebder(cheb.chebinterpolate(lambda x: cheb.chebval(x, series), 2 * order))
    slope_map = _node_plan(order).slope_map
    got = slope_map @ cheb.chebval(_chebyshev_nodes(2 * order), series)
    assert got.shape == reference.shape
    assert np.abs(got - reference).max() <= 1e-12 * np.abs(reference).max()
    # The map is built once per plan and shared by every caller.
    assert _node_plan(order).slope_map is slope_map
    assert not slope_map.flags.writeable
    assert _node_plan.cache_info().maxsize is not None


def _mse_slopes(factor, cap, sigma2s):
    """The derivative coefficients whose roots ``_MaxPlan.max_mse`` takes on ``[0, cap]``,
    as it computes them: the unit node rows times ``cap^l``, one column at a time."""
    order = factor.basis.shape[0]
    plan = _node_plan(order)
    node_values = factor.energies(plan.node_rows * basis_rows(cap, order))
    weights = factor.weights(sigma2s)
    return np.column_stack([plan.slope_map @ (node_values @ weights[:, j : j + 1]) for j in range(weights.shape[1])])


# From about L = 29 the leading MSE coefficients of these cases are round-off.
ROUND_OFF_LEADING_ORDERS = (29, 31)


def test_order_one_maximum_sits_at_the_cap():
    # Order 1: the MSE sigma2 a^2 / sum |s_n|^2 has a degree-1 derivative, so
    # its maximum sits at the cap, found by the degree-1 step.
    phi = build_design_matrix(uniform_pilots(2), 1)
    sigma2s = np.array(EQUIVALENCE_SIGMA2S)
    maxima, amplitudes = _MaxPlan(_factor(phi), 2.5).max_mse(*_noise_variances(sigma2s))
    assert_allclose(maxima, sigma2s * 2.5**2 / 1.25, rtol=1e-12)
    assert np.array_equal(amplitudes, [2.5] * 3)


@pytest.mark.parametrize("order", ROUND_OFF_LEADING_ORDERS)
def test_max_mse_with_a_round_off_leading_coefficient(order):
    # Uniform 2L pilots with a random full-rank prior, seeded by the order.  The
    # leading derivative coefficient is round-off, at most 3.3e-15 of the
    # series' largest one here, and every maximum sits at the cap, so the
    # certificate passes; without it the root step takes that series.
    rng = np.random.default_rng(order)
    prior = PriorStatistics(rng.normal(size=order), _random_hpd(rng, order))
    phi = build_design_matrix(uniform_pilots(2 * order), order)
    factor = _factor(phi, prior)
    sigma2s = np.array(EQUIVALENCE_SIGMA2S)
    slopes = _mse_slopes(factor, 1.0, sigma2s)
    assert (np.abs(slopes[-1]) <= 1e-14 * np.abs(slopes).max(axis=0)).all()
    # Measured at L = 29 and 31: the 200,001-point grid maximum exceeds the
    # returned maximum by at most 2.2e-16 relative, and the MSE at the
    # returned amplitude differs from it by at most 2.2e-16 relative.
    on_grid = factor.rows_mse(basis_rows(np.linspace(0.0, 1.0, 200_001), order), sigma2s).max(axis=0)
    for plan in (_fresh_plan(phi, prior, 1.0), _root_step_plan(phi, prior, 1.0)):
        maxima, amplitudes = plan.max_mse(*_noise_variances(sigma2s))
        assert (maxima >= on_grid * (1 - 1e-15)).all()
        assert_allclose(np.diag(factor.rows_mse(basis_rows(amplitudes, order), sigma2s)), maxima, rtol=1e-15, atol=0)


@pytest.mark.parametrize("order", range(2, 41))
def test_root_step_finds_an_interior_maximum_at_every_order(order):
    # Uniform 2L pilots on [0, 1] with a random full-rank prior, seeded by the
    # order, and the maximum taken over [0, 0.5]: at every order at least one
    # noise variance has its maximum inside the range, at a root of the
    # derivative, so the root step runs at every degree up to 79.
    rng = np.random.default_rng(order)
    prior = PriorStatistics(rng.normal(size=order), _random_hpd(rng, order))
    phi = build_design_matrix(uniform_pilots(2 * order), order)
    cap, sigma2s = 0.5, np.array(EQUIVALENCE_SIGMA2S)
    factor = _factor(phi, prior)
    maxima, amplitudes = _MaxPlan(factor, cap).max_mse(*_noise_variances(sigma2s))
    assert np.array_equal(max_prediction_mse(phi, sigma2s, prior, cap), maxima)
    assert ((amplitudes > 0.0) & (amplitudes < cap)).any()
    # Measured at L = 2..40: the 100,001-point grid maximum exceeds the
    # returned maximum by at most 4.4e-16 relative, the MSE at the returned
    # amplitude differs from it by at most 4.4e-16 relative, and the grid's
    # best point lies within one spacing of the returned amplitude.
    grid = np.linspace(0.0, cap, 100_001)
    on_grid = factor.rows_mse(basis_rows(grid, order), sigma2s)
    assert (maxima >= on_grid.max(axis=0) * (1 - 1e-15)).all()
    assert_allclose(np.diag(factor.rows_mse(basis_rows(amplitudes, order), sigma2s)), maxima, rtol=1e-15, atol=0)
    assert (np.abs(grid[on_grid.argmax(axis=0)] - amplitudes) <= grid[1]).all()


def _interpolate_differentiate_max(phi, sigma2, prior, cap):
    """The maximum MSE through numpy's chebinterpolate and chebder, then chebroots."""
    cheb = np.polynomial.chebyshev
    factor, half, order = _factor(phi, prior), 0.5 * cap, phi.shape[1]
    coef = cheb.chebinterpolate(lambda x: factor.rows_mse(basis_rows(half * (x + 1.0), order), [sigma2])[:, 0], 2 * order)
    critical = np.clip(cheb.chebroots(cheb.chebder(coef)).real, -1.0, 1.0)
    return factor.rows_mse(basis_rows(half * (np.concatenate([[-1.0, 1.0], critical]) + 1.0), order), [sigma2]).max()


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
def test_max_prediction_mse_of_one_noise_variance_is_the_one_column_sweep(order):
    # One code path: a scalar sigma2 is the sweep of a one-entry array, bit for bit.
    for phi, prior, cap, _ in _equivalence_cases(order):
        for sigma2 in EQUIVALENCE_SIGMA2S:
            value = max_prediction_mse(phi, sigma2, prior, cap)
            assert value == max_prediction_mse(phi, np.array([sigma2]), prior, cap)[0]


FIG4_SIGMA2S = np.array([snr_db_to_sigma2(snr_db, "per-symbol", 1) for snr_db in DEFAULT_SNR_SWEEP_DB])


def _root_step_plan(phi, prior, cap):
    """A plan without the Bernstein certificate or the LS unit maximum: every column takes the root step."""
    plan = _MaxPlan(_factor(phi, prior), cap)
    plan.bernstein = plan.unit = None
    return plan


@pytest.mark.parametrize("order", range(2, 13))
def test_certified_maxima_equal_the_root_step(order):
    # Every column the certificate passes has its maximum at the cap by the
    # root step too.  Measured over these cases at L = 2..12: 991 certified
    # columns, 918 of them bit for bit and the rest within 2.2e-16 relative,
    # the round-off of the cap's row in a product of another height.
    certified = 0
    for phi, prior, cap, _ in _equivalence_cases(order):
        plan = _MaxPlan(_factor(phi, prior), cap)
        plan.unit = None
        at_cap = plan.at_cap(plan.factor.weights(FIG4_SIGMA2S))
        maxima, amplitudes = plan.max_mse(*_noise_variances(FIG4_SIGMA2S))
        reference, located = _root_step_plan(phi, prior, cap).max_mse(*_noise_variances(FIG4_SIGMA2S))
        assert_allclose(maxima[at_cap], reference[at_cap], rtol=1e-15, atol=0)
        assert (amplitudes[at_cap] == cap).all() and (located[at_cap] == cap).all()
        # Every other column takes the root step unchanged.
        assert np.array_equal(maxima[~at_cap], reference[~at_cap])
        assert np.array_equal(amplitudes[~at_cap], located[~at_cap])
        certified += at_cap.sum()
    assert certified > 0


def test_most_lmmse_maxima_of_the_fig4_sweep_are_certified():
    # The (L, N) pairs of perfbench's estimator_sweep (L = 4..7, N = L and 2L,
    # uniform and optimal pilots) with a prior fitted to 200 Rapp amplifiers and
    # a rank-deficient one fitted to L - 1, over four prior seeds.  Measured:
    # 1126 of 1280 columns certified, 80 % to 98 % per seed, because a
    # rank-deficient prior often peaks inside the range; that is 1126 of the
    # 1164 columns whose maximum sits at the cap.
    certified = at_cap = total = 0
    for seed in range(4):
        for order in range(4, 8):
            priors = [
                build_prior(PriorConfig(count, order, seed=1000 * seed + 10 * order + (count < 200)), RappDistribution())
                for count in (200, order - 1)
            ]
            for n_pilots in (order, 2 * order):
                for pilots in (uniform_pilots(n_pilots), allocate_pilots(order, n_pilots)):
                    phi = build_design_matrix(pilots, order)
                    for prior in priors:
                        plan = _MaxPlan(_factor(phi, prior), 1.0)
                        passed = plan.at_cap(plan.factor.weights(FIG4_SIGMA2S))
                        _, amplitudes = _root_step_plan(phi, prior, 1.0).max_mse(*_noise_variances(FIG4_SIGMA2S))
                        assert (amplitudes[passed] == 1.0).all()
                        certified += passed.sum()
                        at_cap += (amplitudes == 1.0).sum()
                        total += passed.size
    assert certified >= 0.85 * total
    assert certified >= 0.95 * at_cap


@pytest.mark.parametrize("order", range(2, 13))
def test_a_noise_variance_inside_a_sweep_matches_its_scalar_call(order):
    # Every product with the weights takes one (k, 1) column at a time, so a
    # noise variance gets the same bits inside the fig4 sweep as alone,
    # certified at the cap or not.  Products of the sweep's width differed by
    # up to 2.1e-10 relative at L = 12.
    for phi, prior, cap, _ in _equivalence_cases(order):
        swept = max_prediction_mse(phi, FIG4_SIGMA2S, prior, cap)
        assert list(swept) == [max_prediction_mse(phi, sigma2, prior, cap) for sigma2 in FIG4_SIGMA2S]


def test_no_certificate_without_normal_products_or_float_binomials():
    # Pilots on [0, 1] with the maximum taken up to a 1e-160 cap: the parts of
    # T V times cap^l fall below the normal range, so the bound on round-off
    # would not hold.  The same pilots scaled to the cap have scale-free rows,
    # and their plan is certified.
    phi = build_design_matrix(uniform_pilots(2), 1)
    assert _plan_of(phi, None, 1e-160).bernstein is None
    assert _plan_of(phi, None, 1.0).bernstein is not None
    assert _plan_of(build_design_matrix(uniform_pilots(2, 1e-160), 1), None, 1e-160).bernstein is not None
    # C(8L, 4L) leaves the float range from L = 129.
    assert _NodePlan(128).raise_map is not None
    beyond = _NodePlan(129)
    assert beyond.raise_map is None and beyond.bernstein(np.eye(129)) is None


SCALING_SIGMA2S = np.geomspace(1e-3, 10, 10)


@pytest.mark.parametrize("order", range(2, 15))
def test_ls_maxima_scale_exactly_with_sigma2(order):
    # The LS MSE is sigma2 f^T (Phi^H Phi)^-1 f, so its maximum is sigma2 times
    # the one at sigma2 = 1, bit for bit, in a sweep and in scalar calls alike.
    checked = 0
    for cap in (1.0, 2.5):
        for n_pilots in (order, 2 * order):
            for pilots in (allocate_pilots(order, n_pilots, max_amplitude=cap), uniform_pilots(n_pilots, cap)):
                phi = build_design_matrix(pilots, order)
                try:
                    unit = max_prediction_mse(phi, 1.0, max_amplitude=cap)
                except RankDeficiencyError:
                    continue
                swept = max_prediction_mse(phi, SCALING_SIGMA2S, max_amplitude=cap)
                assert np.array_equal(swept, SCALING_SIGMA2S * unit)
                assert [max_prediction_mse(phi, sigma2, max_amplitude=cap) for sigma2 in SCALING_SIGMA2S] == list(swept)
                # The unit maximum is the root step that every LMMSE variance takes.
                root_step = _fresh_plan(phi, None, cap)
                root_step.unit = None
                assert root_step.max_mse(*_noise_variances(np.ones(1)))[0][0] == unit
                checked += 1
    assert checked >= 6


def test_the_first_failing_noise_variance_decides_the_error():
    # N = 2 < L = 4: the LMMSE system is rank deficient at a tiny sigma2, and
    # NaN fails the noise check; whichever comes first in the sweep raises.
    rng = np.random.default_rng(4)
    prior = PriorStatistics(rng.normal(size=4), _random_hpd(rng, 4))
    phi = build_design_matrix(uniform_pilots(2), 4)
    factor = _factor(phi, prior)
    for sigma2s, error in (([1e-30, np.nan], RankDeficiencyError), ([np.nan, 1e-30], InvalidNoiseError)):
        for call in (
            lambda: max_prediction_mse(phi, np.array(sigma2s), prior),
            lambda: factor.rows_mse(basis_rows([0.0, 0.5, 1.0], 4), sigma2s),
        ):
            with pytest.raises(error):
                call()


def test_the_first_failing_noise_variance_decides_the_ls_error():
    # A full-rank LS design whose plan is memoized takes the unit path, where
    # only the noise check can fail.  With N = 2 < L = 4 the LS system fails
    # the rank test at every sigma2, so a NaN raises only if it comes first.
    full = build_design_matrix(allocate_pilots(4, 8), 4)
    max_prediction_mse(full, 1.0)
    assert _plan_of(full, None).unit is not None
    deficient = build_design_matrix(uniform_pilots(2), 4)
    with pytest.raises(RankDeficiencyError):
        max_prediction_mse(deficient, 1.0)
    assert _plan_of(deficient, None).unit is None
    cases = [
        (full, [1.0, np.nan], InvalidNoiseError),
        (full, [np.nan, 1.0], InvalidNoiseError),
        (deficient, [1.0, np.nan], RankDeficiencyError),
        (deficient, [np.nan, 1.0], InvalidNoiseError),
    ]
    for phi, sigma2s, error in cases:
        for sweep in (sigma2s, np.array(sigma2s)):
            with pytest.raises(error):
                max_prediction_mse(phi, sweep)


@pytest.mark.parametrize("order", [2, 5, 9])
def test_node_plan_is_built_once_per_order(order):
    # Two pilot scales, each with the maximum taken up to its own cap and up to
    # another: all four plans share the one node plan of the order.
    _max_plan.cache_clear()
    _node_plan.cache_clear()
    for scale in (1.0, 2.5):
        phi = build_design_matrix(uniform_pilots(2 * order, scale), order)
        for cap in (scale, 1.0 + order / 64):
            max_prediction_mse(phi, 0.1, max_amplitude=cap)
    info = _node_plan.cache_info()
    assert info.misses == 1 and info.maxsize is not None
    plan = _node_plan(order)
    assert _node_plan(order) is plan
    arrays = (plan.node_rows, plan.slope_map, plan.power_map, plan.raise_map)
    assert not any(array.flags.writeable for array in arrays)
    assert np.array_equal(plan.node_rows, basis_rows(0.5 * (_chebyshev_nodes(2 * order) + 1.0), order))
    # The power map holds bare binomials C(L - l, j - l), no power of a cap.
    binomials = [[math.comb(order - l, j - l) if j >= l else 0 for l in range(1, order + 1)] for j in range(order + 1)]
    assert np.array_equal(plan.power_map, binomials)


def _fresh_plan(phi, prior, cap):
    """The plan ``max_prediction_mse`` builds for ``phi``, on its scale-free rows, outside the memo."""
    return _max_plan.__wrapped__(phi.shape, phi.tobytes(), prior, cap)


MEMO_KINDS = ("none", "full", "rank-deficient")
MEMO_SIGMA2S = np.geomspace(1e-3, 1.0, 10)


def _plan_of(phi, prior, cap=1.0):
    return _max_plan(phi.shape, phi.tobytes(), prior, cap)


@pytest.mark.parametrize("kind", MEMO_KINDS)
def test_svd_is_taken_once_per_design_and_prior(kind):
    order = 5
    prior = _sweep_prior(kind, order, np.random.default_rng(1))
    phi = build_design_matrix(allocate_pilots(order, 2 * order), order)
    _max_plan.cache_clear()
    for cap in (1.0, 2.5):
        for sigma2 in MEMO_SIGMA2S:
            max_prediction_mse(phi, sigma2, prior, cap)
    # One plan per (design, prior, cap): one miss, then a hit per variance.
    info = _max_plan.cache_info()
    assert (info.misses, info.hits) == (2, 18)
    assert info.maxsize is not None
    plan = _plan_of(phi, prior)
    factor = plan.factor
    assert not any(array.flags.writeable for array in (factor.u, factor.s, factor.basis, plan.node_values))
    with pytest.raises(ValueError):
        factor.s[0] = 0.0
    # The LS unit maximum is kept, an LMMSE plan takes a root step per variance.
    assert (plan.unit is None) == (prior is not None)
    # The other entry points factor afresh, to the same bits.
    fresh = _factor(phi, prior)
    assert fresh.basis is not factor.basis and np.array_equal(fresh.basis, factor.basis)
    if prior is not None:
        # The key is the prior object: an equal prior built again is a miss.
        twin = PriorStatistics(prior.mean, prior.covariance)
        max_prediction_mse(phi, 0.1, twin)
        assert _max_plan.cache_info().misses == 3


@pytest.mark.parametrize("kind", MEMO_KINDS)
def test_memoized_factor_gives_the_bits_of_a_fresh_one(kind):
    order, rng = 5, np.random.default_rng(2)
    prior = _sweep_prior(kind, order, rng)
    phi = build_design_matrix(allocate_pilots(order, 2 * order), order)
    r = rng.normal(size=2 * order) + 1j * rng.normal(size=2 * order)

    def run():
        fit = ls_estimate(phi, r, 0.1) if prior is None else lmmse_estimate(phi, r, 0.1, prior)
        return [
            *(max_prediction_mse(phi, sigma2, prior) for sigma2 in MEMO_SIGMA2S),
            max_prediction_mse(phi, MEMO_SIGMA2S, prior),
            max_prediction_mse(phi, MEMO_SIGMA2S, prior, 2.5),
            mse_curve(phi, np.linspace(0.0, 1.0, 11), 0.1, prior).mse_values,
            prediction_covariance(phi, phi, 0.1, prior),
            fit.estimate,
            fit.error_covariance,
        ]

    run()
    hits = _max_plan.cache_info().hits
    warm = run()
    assert _max_plan.cache_info().hits == hits + len(MEMO_SIGMA2S) + 2
    for j, cached in enumerate(warm):
        _max_plan.cache_clear()
        fresh = run()[j]
        assert np.asarray(cached).tobytes() == np.asarray(fresh).tobytes()


def test_a_design_edited_in_place_is_factored_again():
    order = 4
    phi = build_design_matrix(uniform_pilots(2 * order), order)
    other = build_design_matrix(allocate_pilots(order, 2 * order), order)
    _max_plan.cache_clear()
    before = max_prediction_mse(phi, 0.1)
    phi[:] = other
    after = max_prediction_mse(phi, 0.1)
    assert _max_plan.cache_info().misses == 2
    assert after != before
    _max_plan.cache_clear()
    assert after == max_prediction_mse(other.copy(), 0.1) == pytest.approx(0.1 * order / (2 * order), rel=1e-9)


def test_design_checks_and_rank_test_run_on_every_memoized_call():
    phi = build_design_matrix(allocate_pilots(3, 6), 3)
    nan_design = phi.copy()
    nan_design[0, 0] = np.nan
    skewed = phi * np.array([1.0, 2.0, 1.0])
    ls_estimate(skewed, np.ones(6), 0.1)  # LS takes any basis; the MSE functions do not
    singular = build_design_matrix(uniform_pilots(15), 15)
    _max_plan.cache_clear()
    for design, error in (
        (nan_design, NonFiniteInputError),
        (skewed, InvalidInputError),
        (singular, RankDeficiencyError),
        (phi[:2], RankDeficiencyError),  # LS with N < L
    ):
        for _ in range(3):
            with pytest.raises(error):
                max_prediction_mse(design, 0.1)
    # The NaN design fails before the lookup and the skewed one while its plan
    # is built, every time.  The rank-deficient plans are kept, and each hit
    # still runs the noise check, then the rank test.
    info = _max_plan.cache_info()
    assert (info.misses, info.hits) == (5, 4)
    for design in (singular, phi[:2]):
        with pytest.raises(InvalidNoiseError):
            max_prediction_mse(design, np.nan)
        assert _plan_of(design, None).unit is None
    info = _max_plan.cache_info()
    for _ in range(3):
        with pytest.raises(RankDeficiencyError):
            ls_estimate(singular, np.ones(15), 0.1)
    assert _max_plan.cache_info() == info


def test_prior_root_is_read_only():
    prior = PriorStatistics(np.zeros(3), np.diag([1.0, 0.5, 0.0]).astype(complex))
    with pytest.raises(ValueError):
        prior._whiten[0, 0] = 2.0


@pytest.mark.parametrize("order", range(2, 9))
def test_max_prediction_mse_location_matches_a_dense_grid(order):
    points = 200_001
    for phi, prior, cap, allocation in _equivalence_cases(order):
        factor = _factor(phi, prior)
        maxima, amplitudes = _MaxPlan(factor, cap).max_mse(*_noise_variances(EQUIVALENCE_SIGMA2S))
        grid = np.linspace(0.0, cap, points)
        on_grid = factor.rows_mse(basis_rows(grid, order), EQUIVALENCE_SIGMA2S)
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


def _high_precision_max_mse(mp, phi, sigma2, covariance):
    """The maximum over [0, 1] of the LS (no ``covariance``) or LMMSE prediction
    MSE of the real design ``phi``, and the MSE as a function, in ``mp``'s precision."""
    order, rows = phi.shape[1], mp.matrix(phi.real.tolist())
    gram, sigma2 = rows.T * rows, mp.mpf(sigma2)
    if covariance is None:
        error = gram**-1 * sigma2
    else:
        error = (gram / sigma2 + mp.matrix(covariance.tolist()) ** -1) ** -1
    # f(a)^T E f(a) with f(a) = (a, ..., a^L): the coefficient of a^i sums E[k, l] over k + l + 2 = i.
    coefficients = [mp.mpf(0)] * (2 * order + 1)
    for k in range(order):
        for l in range(order):
            coefficients[k + l + 2] += error[k, l]

    def mse(a):
        return mp.polyval(coefficients[::-1], mp.mpf(a))

    slope = [i * c for i, c in enumerate(coefficients)][1:]
    roots = mp.polyroots(slope[::-1], maxsteps=200, extraprec=200)
    critical = [r.real for r in roots if abs(r.imag) < mp.mpf(10) ** -30 and 0 <= r.real <= 1]
    return max(mse(a) for a in [0, 1, *critical]), mse


@pytest.mark.parametrize("order", [8, 12])
def test_max_prediction_mse_matches_a_50_digit_reference(order):
    # Uniform N = L pilots, where cond(Phi) reaches 1.7e6 at L = 8 and 5.8e9 at
    # L = 12.  The SVD is backward stable, so sigma2 (Phi^H Phi)^-1 and the MSE
    # carry a relative error of about cond(Phi) eps, and every tolerance here
    # is that.  Measured at L = 8 and 12: 4.2e-11 and 6.3e-8 for LS, 3.5e-16
    # and 4.2e-14 for LMMSE, and at most 1e-17 for the MSE at the returned amplitude.
    # cond(Phi)^2 eps, the bound of the normal equations, is 7.4e3 at L = 12.
    mp = pytest.importorskip("mpmath")
    phi = build_design_matrix(uniform_pilots(order), order)
    tolerance = np.linalg.cond(phi) * np.finfo(float).eps
    covariance = 100.0 * np.eye(order)
    # LS at sigma2 = 1 peaks inside the range; this prior peaks inside it at 1e-3.
    for prior, sigma2 in ((None, 1.0), (PriorStatistics(np.zeros(order), covariance), 1e-3)):
        with mp.workdps(50):
            reference, mse = _high_precision_max_mse(mp, phi, sigma2, None if prior is None else covariance)
            maxima, amplitudes = _plan_of(phi, prior).max_mse(*_noise_variances(np.array([sigma2])))
            assert 0 < amplitudes[0] < 1
            assert max_prediction_mse(phi, sigma2, prior) == maxima[0]
            assert abs(maxima[0] / reference - 1) <= tolerance
            assert abs(mse(amplitudes[0]) / reference - 1) <= tolerance


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


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    problem=_phased_designs(),
    log_sigma2=st.floats(-6.0, 1.0),
    log_scale=st.floats(-3.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_lmmse_error_covariance_is_below_the_ls_one(problem, log_sigma2, log_scale, seed):
    _, phi, _ = problem
    rng = np.random.default_rng(seed)
    order, zeros = phi.shape[1], np.zeros(phi.shape[0], dtype=complex)
    prior = PriorStatistics(rng.normal(size=order), _random_hpd(rng, order, 10.0**log_scale))
    c_ls = ls_estimate(phi, zeros, 10.0**log_sigma2).error_covariance
    c_lmmse = lmmse_estimate(phi, zeros, 10.0**log_sigma2, prior).error_covariance
    assert np.linalg.eigvalsh(c_ls - c_lmmse).min() >= -1e-10 * np.linalg.eigvalsh(c_ls).max()


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
        lambda: d_criterion(phi, sigma2),
        lambda: run_fig1(3, 3, sigma2),
    ]
    for call in calls:
        with pytest.raises(InvalidNoiseError):
            call()


# Every entry point that takes one noise variance, as a function of it.
NON_SCALAR_NOISE_CALLS = {
    "ls_estimate": lambda phi, prior, sigma2: ls_estimate(phi, np.zeros(3), sigma2),
    "lmmse_estimate": lambda phi, prior, sigma2: lmmse_estimate(phi, np.zeros(3), sigma2, prior),
    "prediction_covariance": lambda phi, prior, sigma2: prediction_covariance(phi, phi, sigma2),
    "prediction_mse": lambda phi, prior, sigma2: prediction_mse(phi, 0.5, sigma2),
    "mse_curve": lambda phi, prior, sigma2: mse_curve(phi, [0.0, 1.0], sigma2),
    "d_criterion": lambda phi, prior, sigma2: d_criterion(phi, sigma2),
    "NoiseModel": lambda phi, prior, sigma2: NoiseModel(sigma2),
    "run_fig1": lambda phi, prior, sigma2: run_fig1(3, 3, sigma2),
}


@pytest.mark.parametrize(
    "sigma2",
    [np.array([1.0, 2.0]), [1.0], np.ones((1, 1)), [[1.0], [1.0, 2.0]]],
    ids=["vector", "one-entry-list", "1x1", "ragged"],
)
@pytest.mark.parametrize("entry", NON_SCALAR_NOISE_CALLS)
def test_a_noise_variance_that_is_no_number_is_a_dimension_error(entry, sigma2):
    # An array used to be read silently (prediction_covariance mixed its entries,
    # mse_curve and run_fig1 kept the first) or to end in a bare ValueError or TypeError.
    phi = build_design_matrix(allocate_pilots(3, 3), 3)
    prior = PriorStatistics(np.zeros(3), np.eye(3, dtype=complex))
    with pytest.raises(DimensionMismatchError):
        NON_SCALAR_NOISE_CALLS[entry](phi, prior, sigma2)


COMPLEX_NOISE_CALLS = {
    "ls_estimate": lambda phi, prior, sigma2: ls_estimate(phi, np.zeros(3), sigma2),
    "lmmse_estimate": lambda phi, prior, sigma2: lmmse_estimate(phi, np.zeros(3), sigma2, prior),
    "mse_curve": lambda phi, prior, sigma2: mse_curve(phi, [0.0, 1.0], sigma2),
    "prediction_covariance": lambda phi, prior, sigma2: prediction_covariance(phi, phi, sigma2, prior),
    "d_criterion": lambda phi, prior, sigma2: d_criterion(phi, sigma2),
    "NoiseModel": lambda phi, prior, sigma2: NoiseModel(sigma2),
    "max_prediction_mse": lambda phi, prior, sigma2: max_prediction_mse(phi, sigma2),
    "max_prediction_mse-lmmse": lambda phi, prior, sigma2: max_prediction_mse(phi, sigma2, prior),
    "max_prediction_mse-sweep": lambda phi, prior, sigma2: max_prediction_mse(phi, np.array([sigma2])),
}


@pytest.mark.parametrize("entry", COMPLEX_NOISE_CALLS)
def test_a_complex_noise_variance_is_a_noise_error(entry):
    # These ended in a bare TypeError, or dropped the imaginary part with only a warning.
    phi = build_design_matrix(allocate_pilots(3, 3), 3)
    prior = PriorStatistics(np.zeros(3), np.eye(3, dtype=complex))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidNoiseError, match="real"):
            COMPLEX_NOISE_CALLS[entry](phi, prior, 0.1 + 0j)


NON_NUMERIC_NOISE_CALLS = {
    **COMPLEX_NOISE_CALLS,
    "prediction_mse": lambda phi, prior, sigma2: prediction_mse(phi, 0.5, sigma2),
    "run_fig1": lambda phi, prior, sigma2: run_fig1(3, 3, sigma2),
}


@pytest.mark.parametrize("sigma2", ["0.1", None, b"0.1", object()], ids=["text", "none", "bytes", "object"])
@pytest.mark.parametrize("entry", NON_NUMERIC_NOISE_CALLS)
def test_a_noise_variance_that_is_not_a_real_number_is_a_noise_error(entry, sigma2):
    # Text was parsed as a number by the MSE functions; the others ended in a
    # bare TypeError or a UFuncTypeError.
    phi = build_design_matrix(allocate_pilots(3, 3), 3)
    prior = PriorStatistics(np.zeros(3), np.eye(3, dtype=complex))
    with pytest.raises(InvalidNoiseError, match="real"):
        NON_NUMERIC_NOISE_CALLS[entry](phi, prior, sigma2)


@pytest.mark.parametrize(
    "sigma2", [[], np.ones((2, 2)), [[0.1, 1.0]], [[1.0], [1.0, 2.0]]], ids=["empty", "2x2", "1x2", "ragged"]
)
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
        lambda: prior_from_moments(*fit_moments(np.ones((3, 2), dtype=complex)), "partial"),
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
        lambda: snr_db_to_sigma2(0.0, "total", 0),
        # Text and ragged lists at every array input
        lambda: mse_curve(phi, "abc", 1.0),
        lambda: prediction_mse(phi, "0.5", 1.0),
        lambda: rapp_response(RappParameters(), "0.5"),
        lambda: rapp_response(RappParameters(), 0.5j),
        lambda: mse_curve(phi, [0.5 + 0.5j], 1.0),
        lambda: list(rapp_response_blocks(RappDistribution(), np.random.default_rng(0), 1, ["a"])),
        lambda: eval_polynomial(PaPolynomial([1.0]), "0.5"),
        lambda: MseCurve(["0", "1"], [1.0, 1.0]),
        lambda: MseCurve([0.0, 1.0], "ab"),
        lambda: prediction_covariance(phi, [["a", "b", "c"]], 1.0),
        lambda: PilotSequence("0.5"),
        lambda: PilotSequence([[0.5], [0.5, 0.25]]),
        lambda: PaPolynomial(["1.0"]),
        lambda: ls_estimate(phi, ["1", "2", "3"], 1.0),
        lambda: ls_estimate([["a"] * 3] * 3, np.zeros(3), 1.0),
        lambda: lmmse_estimate(phi, [None, 1.0, 1.0], 1.0, PriorStatistics(np.zeros(3), np.eye(3))),
        lambda: PriorStatistics(["0", "0"], np.eye(2)),
        lambda: PriorStatistics(np.zeros(2), "eye"),
        lambda: PriorConfig(fit_grid=["0.5"]),
        lambda: fit_polynomial_to_curve(RappParameters(), 2, "grid"),
        lambda: run_fig3(fit_grid=["0.5", "1.0"]),
    ]
    for call in calls:
        with pytest.raises(InvalidInputError) as info:
            call()
        assert isinstance(info.value, ValueError)
    nonfinite_calls = [
        lambda: mse_curve(phi, [0.5, np.nan], 1.0),
        lambda: prediction_mse(phi, np.nan, 1.0),
        lambda: rapp_response(RappParameters(), [0.0, np.nan]),
        lambda: rapp_response(RappParameters(), np.nan),
        lambda: list(rapp_response_blocks(RappDistribution(), np.random.default_rng(0), 1, [0.5, np.nan])),
        lambda: eval_polynomial(PaPolynomial([1.0]), [0.5, np.nan]),
        lambda: MseCurve([0.0, np.inf], [1.0, 1.0]),
        lambda: MseCurve([0.0, 1.0], [1.0, np.nan]),
        lambda: prediction_covariance(phi, [[np.nan, 0.0, 0.0]], 1.0),
        lambda: PilotSequence([np.nan]),
        lambda: PaPolynomial([np.nan]),
        lambda: ls_estimate(phi, [np.nan, 0.0, 0.0], 1.0),
        lambda: ls_estimate(np.full((3, 3), np.nan), np.zeros(3), 1.0),
        lambda: PriorConfig(fit_grid=[0.5, np.nan]),
        lambda: fit_polynomial_to_curve(RappParameters(), 2, [0.5, 1.0, np.inf]),
    ]
    for call in nonfinite_calls:
        with pytest.raises(NonFiniteInputError) as info:
            call()
        assert isinstance(info.value, ValueError)
    # A prior that is not finite stays a prior error.
    with pytest.raises(InvalidPriorError):
        PriorStatistics([np.nan, 0.0], np.eye(2))
    # Too few distinct grid points is a rank error, wherever it is found.
    with pytest.raises(RankDeficiencyError) as info:
        PriorConfig(fit_order=7, fit_grid=np.array([0.0, 0.5, 1.0]))
    assert isinstance(info.value, ValueError)


NON_INTEGER_COUNT_CALLS = {
    "design-order": lambda: build_design_matrix(uniform_pilots(3), 2.5),
    "basis-rows-order": lambda: basis_rows(0.5, np.float64(3.0)),
    "fit-order": lambda: fit_polynomial_to_curve(RappParameters(), 2.5, default_fit_grid()),
    "legendre-order": lambda: legendre_derivative_roots(2.5),
    "allocation-order": lambda: allocate_pilots(2.5, 5),
    "allocation-pilots": lambda: allocate_pilots(5, 5.0),
    "uniform-pilots": lambda: uniform_pilots(2.5),
    "exchange-grid": lambda: exchange_search_verify(3, 3, grid_resolution=150.5),
    "exchange-seed": lambda: exchange_search_verify(3, 3, seed=1.5),
    "prior-realizations": lambda: build_prior(PriorConfig(2.5, 3), RappDistribution()),
    "prior-order": lambda: PriorConfig(100, 2.5),
    "prior-seed": lambda: build_prior(PriorConfig(10, 3, seed=1.5), RappDistribution()),
    "noise-seed": lambda: NoiseModel(0.1, seed=1.5),
    "fig3-seed": lambda: run_fig3(seed=1.5),
    "fig3-realizations": lambda: run_fig3(realizations=2.5),
    "fig2-order": lambda: run_fig2(2.5),
    "snr-pilots": lambda: snr_db_to_sigma2(0.0, "total", 2.5),
}


@pytest.mark.parametrize("call", NON_INTEGER_COUNT_CALLS.values(), ids=NON_INTEGER_COUNT_CALLS.keys())
def test_a_count_that_is_no_integer_is_an_input_error(call):
    # Orders, counts, grid steps and seeds take integers of any kind; a float,
    # even a whole one, used to be truncated or to fail inside numpy.
    with pytest.raises(InvalidInputError, match="must be an integer"):
        call()


# Every real scalar a library function takes, as a function of that value:
# strictly positive unless NONNEGATIVE_REALS or SIGNED_REALS names it.
NON_REAL_NUMBER_CALLS = {
    "pilot-cap": lambda x: PilotSequence([0.5], max_amplitude=x),
    "rapp-gain": lambda x: RappParameters(gain=x),
    "rapp-v-sat": lambda x: RappParameters(v_sat=x),
    "rapp-smoothness": lambda x: RappParameters(smoothness=x),
    "gain-mean": lambda x: RappDistribution(gain_mean=x),
    "v-sat-mean": lambda x: RappDistribution(v_sat_mean=x),
    "smoothness-mean": lambda x: RappDistribution(smoothness_mean=x),
    "gain-variance": lambda x: RappDistribution(gain_variance=x),
    "v-sat-variance": lambda x: RappDistribution(v_sat_variance=x),
    "smoothness-variance": lambda x: RappDistribution(smoothness_variance=x),
    "fit-grid-max": lambda x: default_fit_grid(x, 0.0625),
    "fit-grid-step": lambda x: default_fit_grid(1.5, x),
    "max-mse-cap": lambda x: max_prediction_mse(build_design_matrix(uniform_pilots(3), 3), 1.0, max_amplitude=x),
    "allocation-cap": lambda x: allocate_pilots(3, 3, x),
    "uniform-cap": lambda x: uniform_pilots(3, x),
    "snr-db": lambda x: snr_db_to_sigma2(x, "per-symbol", 7),
}
NONNEGATIVE_REALS = {"gain-variance", "v-sat-variance", "smoothness-variance"}
SIGNED_REALS = {"snr-db"}


@pytest.mark.parametrize("value", ["2.5", None, 1j, np.array([1.0, 2.0])], ids=["text", "none", "complex", "array"])
@pytest.mark.parametrize("site", NON_REAL_NUMBER_CALLS)
def test_a_real_parameter_that_is_no_real_number_is_an_input_error(site, value):
    # These used to end in a bare TypeError, ValueError or UFuncTypeError.
    with pytest.raises(InvalidInputError, match="finite real number"):
        NON_REAL_NUMBER_CALLS[site](value)


@pytest.mark.parametrize("site", NON_REAL_NUMBER_CALLS)
def test_a_real_parameter_outside_its_rule_is_an_input_error(site):
    call = NON_REAL_NUMBER_CALLS[site]
    rejected = [np.nan, np.inf, -np.inf, 10**400]
    if site not in SIGNED_REALS:
        rejected.append(-1.0)
    if site in NONNEGATIVE_REALS or site in SIGNED_REALS:
        call(0.0)
    else:
        rejected.append(0.0)
    for value in rejected:
        with pytest.raises(InvalidInputError, match="finite real number") as info:
            call(value)
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
    sweep = _factor(phi, prior).rows_mse(basis_rows(grid, order), sigma2s).max(axis=0)
    single = np.array([mse_curve(phi, grid, sigma2, prior).mse_values.max() for sigma2 in sigma2s])
    assert_allclose(sweep, single, rtol=1e-12 if order <= 8 else 1e-9, atol=0)
    assert [format(v, ".9g") for v in sweep] == [format(v, ".9g") for v in single]


def _failure(call):
    """The class and message of the error ``call`` raises, or ``None``."""
    try:
        call()
    except (RankDeficiencyError, InvalidNoiseError) as error:
        return type(error), str(error)
    return None


@pytest.mark.parametrize("kind", ["none", "full", "rank-deficient", "zero"])
@pytest.mark.parametrize("order", range(1, 13))
def test_a_factors_sweep_is_its_sigma2s_one_by_one_bit_for_bit(order, kind):
    # fig4 factors each (design, prior) pair once for its whole SNR sweep: the
    # sweep's singular values are each sigma2's own, LS ones are s itself, and
    # the sweep fails as the first sigma2 that fails alone.
    rng = np.random.default_rng(100 + order)
    prior = _sweep_prior(kind, order, rng)
    sigma2s = np.array([snr_db_to_sigma2(snr_db, "per-symbol", 1) for snr_db in DEFAULT_SNR_SWEEP_DB])
    rows = basis_rows(np.linspace(0.0, 1.0, FIGURE_MSE_SAMPLES), order).astype(complex)
    for n_pilots in (order - 1, order, 2 * order):
        symbols = rng.uniform(0.05, 1.0, n_pilots) * np.exp(1j * rng.uniform(0, 2 * np.pi, n_pilots))
        uniform = np.arange(1, n_pilots + 1) / max(n_pilots, 1) + 0j
        for design in (basis_rows(uniform, order), basis_rows(symbols, order)):
            factor = _factor(design, prior)
            alone = [_failure(lambda: factor.singular_values([sigma2])) for sigma2 in sigma2s]
            expected = next(filter(None, alone), None)
            assert _failure(lambda: factor.singular_values(sigma2s)) == expected, n_pilots
            assert _failure(lambda: factor.rows_mse(rows, sigma2s)) == expected, n_pilots
            if expected is None:
                sv = factor.singular_values(sigma2s)
                for j, sigma2 in enumerate(sigma2s):
                    assert np.array_equal(sv[:, j], factor.singular_values([sigma2])[:, 0]), (n_pilots, j)
                if prior is None:
                    assert np.array_equal(sv, np.repeat(factor.s[:, None], sigma2s.size, axis=1)), n_pilots


@pytest.mark.parametrize("sigma2s", [[1.0], [1.0, np.nan], [np.nan, 1.0], [1.0, 1e-320]])
@pytest.mark.parametrize("kind", ["none", "full"])
def test_a_sweep_fails_as_its_sigma2s_do_one_by_one(kind, sigma2s):
    # The first failing sigma2 decides, whether it fails the noise check or the
    # rank test; a design that passes at every sigma2 only meets the noise check.
    prior = _sweep_prior(kind, 4, np.random.default_rng(5))
    designs = [build_design_matrix(allocate_pilots(4, 4), 4)] + [
        basis_rows(np.array(amplitudes), 4) + 0j for amplitudes in ([0.5, 0.5, 1.0, 1.0], [0.2, 0.2, 0.2, 1.0])
    ]
    rows = basis_rows(np.linspace(0.0, 1.0, 11), 4).astype(complex)
    for index, design in enumerate(designs):
        factor = _factor(design, prior)
        loop = [_failure(lambda: factor.rows_mse(rows, [sigma2])) for sigma2 in sigma2s]
        expected = next((failure for failure in loop if failure), None)
        assert _failure(lambda: factor.rows_mse(rows, sigma2s)) == expected, index
    # The optimal allocation passes the rank test, so only a bad sigma2 fails it.
    failure = _failure(lambda: _factor(designs[0], prior).rows_mse(rows, sigma2s))
    assert (failure is None) == (len(sigma2s) == 1)


@pytest.mark.parametrize(
    "call",
    [
        lambda phi, prior: ls_estimate(phi, np.zeros(len(phi)), 1.0),
        lambda phi, prior: lmmse_estimate(phi, np.zeros(len(phi)), 1.0, prior),
        lambda phi, prior: prediction_covariance(phi, phi[0], 1.0),
        lambda phi, prior: prediction_covariance(phi, phi[0], 1.0, prior),
        lambda phi, prior: prediction_mse(phi, 0.5, 1.0, prior),
        lambda phi, prior: mse_curve(phi, [0.5], 1.0),
        lambda phi, prior: max_prediction_mse(phi, 1.0),
        lambda phi, prior: max_prediction_mse(phi, 1.0, prior),
        lambda phi, prior: d_criterion(phi, 1.0),
    ],
    ids=[
        "ls_estimate",
        "lmmse_estimate",
        "prediction_covariance",
        "prediction_covariance_lmmse",
        "prediction_mse",
        "mse_curve",
        "max_prediction_mse",
        "max_prediction_mse_lmmse",
        "d_criterion",
    ],
)
def test_public_entry_points_reject_a_stack_of_designs(call):
    phi = build_design_matrix(allocate_pilots(3, 6), 3)
    with pytest.raises(DimensionMismatchError):
        call(np.stack([phi, phi]), PriorStatistics(np.zeros(3), np.eye(3)))


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
