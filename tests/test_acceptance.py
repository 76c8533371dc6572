"""Acceptance gate: one test per criterion, each printing a pass/fail line."""

import time
from contextlib import contextmanager

import numpy as np
import pytest
from numpy.testing import assert_allclose

import patrain as pt
from patrain.experiments import run_fig1, run_fig2, run_fig4
from patrain.prior import default_fit_grid

REFERENCE_FIG2_RATIOS = (1.0, 1.0, 1.17576, 1.62957, 2.54202, 4.48742, 9.10700, 20.7436)

# Reference order-7 polynomial approximation of the nominal Rapp response,
# tabulated on the 0.0625-step amplitude grid up to 1.5.
FIG3_POLY_MARKERS = np.array([
    0.0, 0.0627426128547217, 0.125069703312776, 0.187320896194187,
    0.249566133611198, 0.311642868736978, 0.373198848359038, 0.433738778925072,
    0.492673170788931, 0.549367655364456, 0.603191069894869, 0.653560604545455,
    0.69998230652723, 0.742085235959329, 0.779647568177814, 0.812612937198621,
    0.841095315042363, 0.865370721628705, 0.885854059948015, 0.903059371218019,
    0.917541804733172, 0.92981959711444, 0.940274355667249, 0.949027940555268,
    0.955794240497771,
])


@contextmanager
def criterion(number, label):
    try:
        yield
    except Exception:
        print(f"[acceptance] criterion {number:2d} {label}: FAIL")
        raise
    print(f"[acceptance] criterion {number:2d} {label}: PASS")


def test_criterion_01_support_points():
    with criterion(1, "support points"):
        times = []
        for _ in range(5):
            start = time.perf_counter()
            two = pt.optimal_support_points(2)
            five = pt.optimal_support_points(5)
            times.append(time.perf_counter() - start)
        assert_allclose(two, [0.5, 1.0], atol=1e-12)
        disc = np.sqrt(210.0**2 - 4.0 * 315.0 * 15.0)
        x_big = np.sqrt((210.0 + disc) / 630.0)
        x_small = np.sqrt((210.0 - disc) / 630.0)
        oracle = np.sort([(1 - x_big) / 2, (1 - x_small) / 2, (1 + x_small) / 2, (1 + x_big) / 2, 1.0])
        assert_allclose(five, oracle, atol=1e-10)
        assert min(times) < 1e-3


def test_criterion_02_minimax_value():
    with criterion(2, "minimax value"):
        start = time.perf_counter()
        for order in range(1, 11):
            for n_pilots in (order, 2 * order):
                phi = pt.build_design_matrix(pt.allocate_pilots(order, n_pilots), order)
                for sigma2 in (1.0, 0.01):
                    value = pt.max_prediction_mse(phi, sigma2)
                    assert value == pytest.approx(sigma2 * order / n_pilots, rel=1e-6)
        assert time.perf_counter() - start < 1.0


def test_criterion_03_gain_ratio_curve():
    with criterion(3, "gain ratio curve"):
        start = time.perf_counter()
        table = run_fig2()
        for ratio, expected in zip(table.column("gain_ratio"), REFERENCE_FIG2_RATIOS):
            assert ratio == pytest.approx(expected, rel=1e-3)
        assert time.perf_counter() - start < 1.0


def test_criterion_04_reconstruction_curves():
    with criterion(4, "reconstruction curves"):
        table = run_fig1(order=5, n_pilots=5, sigma2=1.0)
        assert table.column("mse_optimal").max() == pytest.approx(1.0, abs=1e-6)
        assert table.column("mse_uniform").max() == pytest.approx(2.54202, rel=1e-3)
        phi = pt.build_design_matrix(pt.allocate_pilots(5, 5), 5)
        for support in pt.optimal_support_points(5):
            assert pt.prediction_mse(phi, support, 1.0) == pytest.approx(1.0, rel=1e-8)


def test_criterion_05_snr_sweep_ls():
    with criterion(5, "LS SNR sweep"):
        table = run_fig4(seed=0)
        snr_lin = 10.0 ** (table.column("snr_db") / 10.0)
        assert_allclose(table.column("d_optimal_ls"), 1.0 / snr_lin, rtol=1e-6)
        ratio = table.column("d_uniform_ls") / table.column("d_optimal_ls")
        assert_allclose(ratio, 9.10700, rtol=1e-3)


def test_criterion_06_lmmse_gains():
    with criterion(6, "LMMSE gains"):
        start = time.perf_counter()
        for seed in range(10):
            table = run_fig4(snr_db_list=[0.0, 60.0], seed=seed)
            low, high = table.rows[0], table.rows[1]
            d_ls, d_coh, d_noncoh = low[4], low[5], low[6]
            assert 170.0 <= d_ls / d_coh <= 340.0
            assert 3.4 <= d_ls / d_noncoh <= 6.6
            for lmmse in (high[5], high[6]):
                assert 0.65 * high[4] <= lmmse <= 1.35 * high[4]
        assert time.perf_counter() - start < 30.0


def test_criterion_07_exchange_oracle():
    with criterion(7, "exchange oracle"):
        start = time.perf_counter()
        for order in range(2, 6):
            _, found = pt.exchange_search_verify(order, order, grid_resolution=1000, seed=0)
            analytic = pt.d_criterion(
                pt.build_design_matrix(pt.allocate_pilots(order, order), order), 1.0
            )
            assert found.log_det >= analytic.log_det - 1e-6
        assert time.perf_counter() - start < 60.0


def test_criterion_08_invariance_suite():
    with criterion(8, "invariance suite"):
        rng = np.random.default_rng(2024)

        pilots = pt.allocate_pilots(5, 10)
        phi = pt.build_design_matrix(pilots, 5)
        gram = phi.conj().T @ phi
        for _ in range(100):
            phases = np.exp(1j * rng.uniform(0, 2 * np.pi, len(pilots)))
            rotated = pt.build_design_matrix(pt.PilotSequence(pilots.symbols * phases, 1.0), 5)
            assert np.abs(rotated.conj().T @ rotated - gram).max() < 1e-12

        order = 4
        base = pt.build_design_matrix(pt.allocate_pilots(order, order), order)
        pred = pt.build_design_matrix(
            pt.PilotSequence(np.linspace(0.1, 1.0, 8).astype(complex)), order
        )
        root = rng.normal(size=(order, order)) + 1j * rng.normal(size=(order, order))
        cov = root @ root.conj().T + 0.1 * np.eye(order)
        prior = pt.PriorStatistics(rng.normal(size=order), 0.5 * (cov + cov.conj().T))
        reference = pt.prediction_covariance(base, pred, 0.5, prior)
        reference_ls = pt.prediction_covariance(base, pred, 0.5)
        checked = 0
        while checked < 20:
            u = rng.normal(size=(order, order)) + 1j * rng.normal(size=(order, order))
            if np.linalg.cond(u) >= 1e4:
                continue
            checked += 1
            psi, psi_pred = pt.change_basis(base, u), pt.change_basis(pred, u)
            # psi = base @ u keeps the observations unchanged for coefficients
            # alpha = inv(u) beta, so the prior transforms with inv(u).
            u_inv = np.linalg.inv(u)
            cov_alpha = u_inv @ prior.covariance @ u_inv.conj().T
            prior_alpha = pt.PriorStatistics(u_inv @ prior.mean, 0.5 * (cov_alpha + cov_alpha.conj().T))
            for ref, transformed in (
                (reference, pt.prediction_covariance(psi, psi_pred, 0.5, prior_alpha)),
                (reference_ls, pt.prediction_covariance(psi, psi_pred, 0.5)),
            ):
                assert np.linalg.norm(transformed - ref) / np.linalg.norm(ref) < 1e-8

        for _ in range(50):
            order = int(rng.integers(1, 5))
            n_pilots = order + int(rng.integers(0, 3))
            amps = np.sort(rng.uniform(0.3, 1.0, n_pilots))
            symbols = amps * np.exp(1j * rng.uniform(0, 2 * np.pi, n_pilots))
            phi = pt.build_design_matrix(pt.PilotSequence(symbols), order)
            if np.linalg.cond(phi) >= 1e9:
                continue
            sigma2 = float(10.0 ** rng.uniform(-2, 1))
            root = rng.normal(size=(order, order)) + 1j * rng.normal(size=(order, order))
            cov = root @ root.conj().T + 0.05 * np.eye(order)
            prior = pt.PriorStatistics(rng.normal(size=order), 0.5 * (cov + cov.conj().T))
            zeros = np.zeros(n_pilots, dtype=complex)
            c_ls = pt.ls_estimate(phi, zeros, sigma2).error_covariance
            c_lmmse = pt.lmmse_estimate(phi, zeros, sigma2, prior).error_covariance
            assert np.linalg.eigvalsh(c_ls - c_lmmse).min() >= -1e-10


def test_criterion_09_rapp_prior_pipeline():
    with criterion(9, "Rapp prior pipeline"):
        nominal = pt.RappParameters()
        for amplitude, expected in ((0.5, 0.492479), (1.0, 0.840896), (1.5, 0.955935)):
            assert pt.rapp_response(nominal, amplitude) == pytest.approx(expected, abs=1e-6)
        grid = default_fit_grid()
        model = pt.fit_polynomial_to_curve(nominal, 7, grid)
        fitted = (grid[:, None] ** np.arange(1, 8)) @ model.coefficients.real
        assert np.abs(fitted - FIG3_POLY_MARKERS).max() <= 5e-3


def test_criterion_10_estimator_oracle():
    with criterion(10, "estimator oracle"):
        rng = np.random.default_rng(77)
        for _ in range(100):
            order = int(rng.integers(1, 6))
            n_pilots = order + int(rng.integers(0, 4))
            amps = np.linspace(0.3, 1.0, n_pilots) + rng.uniform(-0.02, 0.02, n_pilots)
            symbols = amps * np.exp(1j * rng.uniform(0, 2 * np.pi, n_pilots))
            phi = pt.build_design_matrix(pt.PilotSequence(symbols, 1.1), order)
            coef = rng.normal(size=order) + 1j * rng.normal(size=order)
            noise = rng.normal(size=n_pilots) + 1j * rng.normal(size=n_pilots)
            observed = phi @ coef + 0.3 * noise
            naive = np.linalg.inv(phi.conj().T @ phi) @ (phi.conj().T @ observed)
            stable = pt.ls_estimate(phi, observed, 1.0).estimate
            assert np.linalg.norm(stable - naive) / np.linalg.norm(naive) < 1e-8
            noiseless = pt.ls_estimate(phi, phi @ coef, 1.0).estimate
            assert np.linalg.norm(noiseless - coef) / np.linalg.norm(coef) < 1e-10
