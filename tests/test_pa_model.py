import numpy as np
import pytest
from numpy.testing import assert_allclose

from patrain import (
    PaPolynomial,
    PilotSequence,
    PriorStatistics,
    RappParameters,
    build_design_matrix,
    eval_polynomial,
    prediction_covariance,
    rapp_response,
    uniform_pilots,
)
from patrain.pa_model import basis_rows


def test_eval_polynomial_linear_identity():
    assert eval_polynomial(PaPolynomial([1.0]), 0.5) == pytest.approx(0.5)


def test_eval_polynomial_only_linear_term_active():
    model = PaPolynomial([1.0, 0.0, 0.0, 0.0])
    assert eval_polynomial(model, 0.7j) == pytest.approx(0.7j)


def test_eval_polynomial_direct_sum():
    assert eval_polynomial(PaPolynomial([1.0, -0.2]), 1.0) == pytest.approx(0.8)


def test_eval_polynomial_zero_input_is_zero():
    rng = np.random.default_rng(7)
    for order in (1, 3, 7):
        model = PaPolynomial(rng.normal(size=order) + 1j * rng.normal(size=order))
        assert eval_polynomial(model, 0.0) == 0.0


def test_eval_polynomial_phase_homogeneity():
    rng = np.random.default_rng(11)
    for _ in range(20):
        order = rng.integers(1, 8)
        model = PaPolynomial(rng.normal(size=order) + 1j * rng.normal(size=order))
        s = complex(rng.normal(), rng.normal())
        theta = rng.uniform(0, 2 * np.pi)
        rotated = eval_polynomial(model, s * np.exp(1j * theta))
        assert_allclose(rotated, np.exp(1j * theta) * eval_polynomial(model, s), rtol=1e-12)


@pytest.mark.parametrize("order", range(1, 16))
def test_eval_polynomial_equals_design_matrix_product(order):
    # The estimators model noise-free observations as Phi beta, so the model
    # evaluates to that product bit for bit, not merely within round-off.
    rng = np.random.default_rng(1)
    beta = rng.normal(size=order) + 1j * rng.normal(size=order)
    pilots = uniform_pilots(2 * order)
    expected = build_design_matrix(pilots, order) @ beta
    assert np.array_equal(eval_polynomial(PaPolynomial(beta), pilots.symbols), expected)


def test_design_matrix_single_unit_pilot():
    phi = build_design_matrix(PilotSequence([1.0]), 2)
    assert_allclose(phi, [[1.0, 1.0]])


def test_design_matrix_powers_of_half():
    phi = build_design_matrix(PilotSequence([0.5]), 3)
    assert_allclose(phi, [[0.5, 0.25, 0.125]])


def test_design_matrix_unit_amplitude_phase():
    phi = build_design_matrix(PilotSequence([1j]), 2)
    assert_allclose(phi, [[1j, 1j]])


def test_design_matrix_first_column_is_pilots():
    rng = np.random.default_rng(3)
    symbols = rng.uniform(0.1, 1.0, 6) * np.exp(1j * rng.uniform(0, 2 * np.pi, 6))
    phi = build_design_matrix(PilotSequence(symbols), 4)
    assert np.array_equal(phi[:, 0], symbols)
    for l in range(4):
        assert_allclose(np.abs(phi[:, l]), np.abs(symbols) ** (l + 1), rtol=1e-14)


def test_prediction_vector_examples():
    assert_allclose(basis_rows(1.0, 3), [1.0, 1.0, 1.0])
    assert np.array_equal(basis_rows(0.0, 4), np.zeros(4, dtype=complex))
    assert_allclose(basis_rows(0.5, 2), [0.5, 0.25])


def test_prediction_vector_matches_design_rows():
    symbols = np.array([0.3 + 0.1j, -0.9j, 1.0])
    phi = build_design_matrix(PilotSequence(symbols), 5)
    for n, s in enumerate(symbols):
        assert np.array_equal(basis_rows(complex(s), 5), phi[n])


def _random_full_rank(rng, order, cond_limit=1e4):
    while True:
        u = rng.normal(size=(order, order)) + 1j * rng.normal(size=(order, order))
        if np.linalg.cond(u) < cond_limit:
            return u


def test_basis_change_leaves_prediction_covariance_invariant():
    # Computed both ways numerically: the transformed problem must predict with
    # the same covariance as the raw-basis problem, for LS and for LMMSE.  With
    # psi = phi @ u the observation model stays the same only for alpha =
    # inv(u) @ beta, so the prior transforms with inv(u) as well.
    rng = np.random.default_rng(17)
    order = 4
    pilots = PilotSequence(np.array([0.3, 0.55, 0.8, 1.0]) * np.exp(1j * rng.uniform(0, 2 * np.pi, 4)))
    phi = build_design_matrix(pilots, order)
    phi_pred = build_design_matrix(PilotSequence(np.linspace(0.1, 1.0, 9).astype(complex)), order)
    root = rng.normal(size=(order, order)) + 1j * rng.normal(size=(order, order))
    cov = root @ root.conj().T + 0.1 * np.eye(order)
    prior = PriorStatistics(rng.normal(size=order), 0.5 * (cov + cov.conj().T))
    sigma2 = 0.3
    for _ in range(5):
        u = _random_full_rank(rng, order)
        u_inv = np.linalg.inv(u)
        psi = phi @ u
        psi_pred = phi_pred @ u
        cov_alpha = u_inv @ prior.covariance @ u_inv.conj().T
        prior_alpha = PriorStatistics(u_inv @ prior.mean, 0.5 * (cov_alpha + cov_alpha.conj().T))
        for p, p_alpha in ((None, None), (prior, prior_alpha)):
            direct = prediction_covariance(phi, phi_pred, sigma2, p)
            transformed = prediction_covariance(psi, psi_pred, sigma2, p_alpha)
            rel = np.linalg.norm(transformed - direct) / np.linalg.norm(direct)
            assert rel < 1e-8


def test_rapp_response_reference_values():
    nominal = RappParameters(1.0, 1.0, 2.0)
    assert rapp_response(nominal, 0.0) == 0.0
    assert rapp_response(nominal, 1.0) == pytest.approx(0.840896415, abs=1e-9)
    assert rapp_response(nominal, 1.5) == pytest.approx(0.955934908, abs=1e-9)


def test_rapp_response_monotone_and_bounded():
    params = RappParameters(1.2, 0.9, 1.7)
    grid = np.linspace(0.0, 5.0, 400)
    values = rapp_response(params, grid)
    assert np.all(np.diff(values) > 0)
    assert np.all(values < params.v_sat)


def test_rapp_small_signal_gain():
    params = RappParameters(1.3, 1.1, 2.5)
    assert rapp_response(params, 1e-6) / 1e-6 == pytest.approx(params.gain, rel=1e-4)


def test_rapp_rejects_negative_amplitude():
    with pytest.raises(ValueError):
        rapp_response(RappParameters(), -0.1)


def test_rapp_parameters_must_be_positive():
    with pytest.raises(ValueError):
        RappParameters(gain=0.0)


def test_pilot_sequence_enforces_amplitude_cap():
    PilotSequence([0.5, 1.0], max_amplitude=1.0)
    # The slack is relative: an amplitude one ulp above a large cap passes,
    # and one far above a tiny cap fails.
    PilotSequence([np.nextafter(32767.0, np.inf)], max_amplitude=32767.0)
    with pytest.raises(ValueError):
        PilotSequence([0.5, 1.1], max_amplitude=1.0)
    with pytest.raises(ValueError, match="exceeds max_amplitude"):
        PilotSequence([1e-13], max_amplitude=1e-160)
    for cap in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="max_amplitude"):
            PilotSequence([0.5, 1.0], max_amplitude=cap)


def test_pa_polynomial_rejects_empty():
    with pytest.raises(ValueError):
        PaPolynomial([])
