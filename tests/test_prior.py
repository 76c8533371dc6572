import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from patrain import experiments
from patrain import prior as prior_module
from patrain import (
    CsvFormatError,
    InvalidInputError,
    NonFiniteInputError,
    PriorConfig,
    PriorStatistics,
    RankDeficiencyError,
    RappDistribution,
    RappParameters,
    allocate_pilots,
    build_design_matrix,
    build_prior,
    default_fit_grid,
    draw_rapp_params,
    eval_polynomial,
    fit_polynomial_to_curve,
    load_prior,
    rapp_response,
    save_prior,
    uniform_pilots,
)
from patrain.estimators import _factor
from patrain.pa_model import basis_rows

DEGENERATE = RappDistribution(
    gain_variance=0.0, v_sat_variance=0.0, smoothness_variance=0.0
)


def test_default_fit_grid_matches_marker_abscissae():
    grid = default_fit_grid()
    assert grid.size == 25
    assert grid[0] == 0.0 and grid[-1] == 1.5
    assert_allclose(np.diff(grid), 0.0625)


def test_default_fit_grid_takes_the_step_asked_for():
    grid = default_fit_grid(1.5, 0.025)
    assert grid.size == 61
    assert_allclose(np.diff(grid), 0.025)
    largest = 1.5 / (prior_module.MAX_FIT_GRID_POINTS - 1)
    assert prior_module._fit_grid_size(1.5, largest) == prior_module.MAX_FIT_GRID_POINTS
    # A step that does not divide the maximum used to be rounded to one that does.
    for bounds in ((1.0, 0.3), (0.1, 0.25), (1.5, 0.0626)):
        with pytest.raises(InvalidInputError, match="whole number of steps"):
            default_fit_grid(*bounds)
    # A point count past the float range is refused before it is rounded.
    with pytest.raises(InvalidInputError, match="too many points"):
        default_fit_grid(1e308, 1e-10)


def test_fit_grid_counts_distinct_positive_points():
    # Unsorted, repeated and zero points: three distinct positive points.
    grid = np.array([1.0, 0.0, 0.5, 0.5, 0.25, 1.0])
    fit_polynomial_to_curve(RappParameters(), 3, grid)
    for order, grid in ((4, grid), (1, np.zeros(3)), (1, np.array([]))):
        with pytest.raises(RankDeficiencyError, match="distinct positive points"):
            fit_polynomial_to_curve(RappParameters(), order, grid)


def test_draw_degenerate_distribution_returns_means():
    rng = np.random.default_rng(0)
    for _ in range(5):
        params = draw_rapp_params(DEGENERATE, rng)
        assert (params.gain, params.v_sat, params.smoothness) == (1.0, 1.0, 2.0)


def test_draw_is_deterministic_per_seed():
    first = [draw_rapp_params(RappDistribution(), np.random.default_rng(5)) for _ in range(1)][0]
    second = [draw_rapp_params(RappDistribution(), np.random.default_rng(5)) for _ in range(1)][0]
    assert first == second


def test_draw_sample_mean_of_gain():
    rng = np.random.default_rng(11)
    draws = np.array([draw_rapp_params(RappDistribution(), rng).gain for _ in range(100_000)])
    assert abs(draws.mean() - 1.0) <= 0.002


def test_draw_rejects_nonpositive_parameters():
    # Wide law centered near zero forces the rejection path.
    dist = RappDistribution(gain_mean=0.1, gain_variance=1.0)
    rng = np.random.default_rng(3)
    draws = [draw_rapp_params(dist, rng) for _ in range(500)]
    assert min(p.gain for p in draws) > 0


def test_fit_recovers_linear_amplifier():
    params = RappParameters(gain=1.3, v_sat=1e6, smoothness=2.0)
    model = fit_polynomial_to_curve(params, 5, default_fit_grid())
    expected = np.zeros(5)
    expected[0] = 1.3
    assert np.abs(model.coefficients - expected).max() < 1e-6


def test_fit_nominal_reference_value_and_residual():
    grid = default_fit_grid()
    model = fit_polynomial_to_curve(RappParameters(), 7, grid)
    assert np.abs(model.coefficients.imag).max() < 1e-10
    fitted = eval_polynomial(model, grid.astype(complex)).real
    value_at_one = fitted[np.where(grid == 1.0)[0][0]]
    assert value_at_one == pytest.approx(0.8410953, abs=5e-3)
    assert np.abs(fitted - rapp_response(RappParameters(), grid)).max() <= 1e-2


def test_fit_requires_enough_distinct_points():
    with pytest.raises(RankDeficiencyError):
        fit_polynomial_to_curve(RappParameters(), 4, np.array([0.0, 0.5, 0.5, 1.0]))


def test_prior_single_realization_collapses():
    config = PriorConfig(realizations=1, fit_order=4, mode="coherent", seed=2)
    prior = build_prior(config, RappDistribution())
    assert np.all(prior.covariance == 0)
    rng = np.random.default_rng(2)
    params = draw_rapp_params(RappDistribution(), rng)
    expected = fit_polynomial_to_curve(params, 4, config.fit_grid).coefficients
    assert_allclose(prior.mean, expected, rtol=1e-14)


def test_prior_degenerate_distribution_collapses():
    config = PriorConfig(realizations=10, fit_order=5, mode="coherent", seed=0)
    prior = build_prior(config, DEGENERATE)
    # Identical draws leave only mean-accumulation roundoff in the covariance.
    assert np.abs(prior.covariance).max() < 1e-14
    nominal = fit_polynomial_to_curve(RappParameters(), 5, config.fit_grid).coefficients
    assert_allclose(prior.mean, nominal, rtol=1e-12)


def test_prior_modes_differ_by_mean_outer_product():
    dist = RappDistribution()
    coherent = build_prior(PriorConfig(50, 6, mode="coherent", seed=8), dist)
    noncoherent = build_prior(PriorConfig(50, 6, mode="noncoherent", seed=8), dist)
    assert np.all(noncoherent.mean == 0)
    outer = np.outer(coherent.mean, coherent.mean.conj())
    assert np.abs((noncoherent.covariance - coherent.covariance) - outer).max() < 1e-12
    assert np.trace(noncoherent.covariance).real > np.trace(coherent.covariance).real


def test_prior_is_hermitian_psd_in_both_modes():
    for mode in ("coherent", "noncoherent"):
        prior = build_prior(PriorConfig(40, 7, mode=mode, seed=4), RappDistribution())
        assert np.abs(prior.covariance - prior.covariance.conj().T).max() < 1e-14
        assert np.linalg.eigvalsh(prior.covariance).min() >= -1e-10


def test_prior_build_is_bitwise_deterministic():
    config = PriorConfig(30, 7, mode="coherent", seed=21)
    first = build_prior(config, RappDistribution())
    second = build_prior(config, RappDistribution())
    assert np.array_equal(first.mean, second.mean)
    assert np.array_equal(first.covariance, second.covariance)


def test_prior_csv_round_trip(tmp_path):
    prior = build_prior(PriorConfig(25, 5, mode="coherent", seed=13), RappDistribution())
    mean_path = tmp_path / "prior_mean.csv"
    cov_path = tmp_path / "prior_cov.csv"
    save_prior(prior, mean_path, cov_path)
    assert b"\r" not in mean_path.read_bytes() + cov_path.read_bytes()
    restored = load_prior(mean_path, cov_path)
    assert np.array_equal(restored.mean, prior.mean)
    assert np.array_equal(restored.covariance, prior.covariance)


def test_prior_csv_with_crlf_line_ends_loads_the_same(tmp_path):
    # Older versions wrote the same cells with csv.writer, ending each line in \r\n.
    prior = build_prior(PriorConfig(25, 5, mode="noncoherent", seed=13), RappDistribution())
    save_prior(prior, tmp_path / "mean.csv", tmp_path / "cov.csv")
    for name in ("mean.csv", "cov.csv"):
        crlf = (tmp_path / name).read_bytes().replace(b"\n", b"\r\n")
        (tmp_path / f"crlf_{name}").write_bytes(crlf)
    restored = load_prior(tmp_path / "crlf_mean.csv", tmp_path / "crlf_cov.csv")
    assert np.array_equal(restored.mean, prior.mean)
    assert np.array_equal(restored.covariance, prior.covariance)


_EDGE_PARTS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308, 1e-300])


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    order=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    mean_parts=st.lists(st.one_of(st.floats(-1e3, 1e3), _EDGE_PARTS), min_size=24, max_size=24),
    edges=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11), _EDGE_PARTS, _EDGE_PARTS), max_size=8),
)
def test_prior_csv_round_trip_is_bit_exact(order, seed, mean_parts, edges):
    # A random Hermitian PSD covariance, diagonally dominant so that tiny or
    # signed-zero off-diagonal pairs keep it PSD, and a mean that holds them too.
    rng = np.random.default_rng(seed)
    root = rng.normal(size=(order, order)) + 1j * rng.normal(size=(order, order))
    cov = 10.0 ** rng.uniform(-3, 3) * (root @ root.conj().T)
    cov = 0.5 * (cov + cov.conj().T) + np.abs(cov).sum() * np.eye(order)
    for i, j, re, im in edges:
        i, j = i % order, j % order
        if i == j:
            cov[i, i] = complex(cov[i, i].real, np.copysign(0.0, im))
        else:
            cov[i, j], cov[j, i] = complex(re, im), complex(re, -im)
    prior = PriorStatistics(np.array(mean_parts[: 2 * order]).view(complex), cov)
    with tempfile.TemporaryDirectory() as folder:
        mean_path, cov_path = Path(folder) / "mean.csv", Path(folder) / "cov.csv"
        save_prior(prior, mean_path, cov_path)
        restored = load_prior(mean_path, cov_path)
    assert restored.mean.tobytes() == prior.mean.tobytes()
    assert restored.covariance.tobytes() == prior.covariance.tobytes()


@pytest.mark.parametrize("target", ["mean", "cov"])
def test_prior_csv_rejects_nonfinite_cells(tmp_path, target):
    mean_path = tmp_path / "prior_mean.csv"
    cov_path = tmp_path / "prior_cov.csv"
    save_prior(PriorStatistics(np.zeros(2), np.eye(2, dtype=complex)), mean_path, cov_path)
    path = mean_path if target == "mean" else cov_path
    lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[-1] = "nan"
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CsvFormatError, match="non-finite"):
        load_prior(mean_path, cov_path)


def test_prior_mean_csv_checks_the_index_column(tmp_path):
    mean_path = tmp_path / "prior_mean.csv"
    cov_path = tmp_path / "prior_cov.csv"
    save_prior(PriorStatistics(np.zeros(2), np.eye(2, dtype=complex)), mean_path, cov_path)
    mean_path.write_text("index,re,im\n1,0,0\n0,0,0\n")
    with pytest.raises(CsvFormatError, match="index"):
        load_prior(mean_path, cov_path)


def test_prior_covariance_csv_has_one_row_per_mean_entry(tmp_path):
    mean_path = tmp_path / "prior_mean.csv"
    cov_path = tmp_path / "prior_cov.csv"
    save_prior(PriorStatistics(np.zeros(2), np.eye(2, dtype=complex)), mean_path, cov_path)
    cov_path.write_text("re_0,im_0,re_1,im_1\n1,0,0,0\n")
    with pytest.raises(CsvFormatError, match="row count must match the mean length"):
        load_prior(mean_path, cov_path)


def test_prior_config_validates_grid():
    with pytest.raises(ValueError):
        PriorConfig(fit_order=7, fit_grid=np.array([0.0, 0.5, 1.0]))
    # A grid holding NaN or inf is a typed error wherever it is fitted, not a
    # LinAlgError from the pseudo-inverse.
    for bad in (np.nan, np.inf):
        grid = np.array([0.0, 0.25, 0.5, bad, 1.0])
        for call in (
            lambda: PriorConfig(fit_order=3, fit_grid=grid),
            lambda: fit_polynomial_to_curve(RappParameters(), 3, grid),
            lambda: experiments.run_fig3(realizations=2, order=3, fit_grid=grid),
        ):
            with pytest.raises(NonFiniteInputError):
                call()


REJECTION_HEAVY = RappDistribution(gain_mean=0.1, gain_variance=1.0)


@pytest.mark.parametrize("dist", [RappDistribution(), DEGENERATE, REJECTION_HEAVY])
@pytest.mark.parametrize(
    "count",
    [1, prior_module.FIT_BLOCK - 1, prior_module.FIT_BLOCK, prior_module.FIT_BLOCK + 1, 2 * prior_module.FIT_BLOCK + 1],
)
def test_block_draw_matches_sequential_stream(dist, count):
    grid = default_fit_grid()
    sequential_rng = np.random.default_rng(17)
    expected = np.array([rapp_response(draw_rapp_params(dist, sequential_rng), grid) for _ in range(count)])
    block_rng = np.random.default_rng(17)
    blocks = list(prior_module.rapp_response_blocks(dist, block_rng, count, grid))
    assert max(len(block) for block in blocks) <= prior_module.FIT_BLOCK
    assert np.array_equal(np.concatenate(blocks), expected)
    # The same number of normals was consumed, rejected draws included.
    assert block_rng.bit_generator.state == sequential_rng.bit_generator.state


def test_fit_realizations_equals_the_product_of_c_ordered_blocks():
    # The blocks are column-major views; a BLAS whose transposed-operand product
    # rounds differently from the C-ordered one fails here.
    config = PriorConfig(2 * prior_module.FIT_BLOCK + 3, 7, seed=4)
    blocks = prior_module.rapp_response_blocks(
        RappDistribution(), np.random.default_rng(4), config.realizations, config.fit_grid
    )
    projector = prior_module._fit_projector(config.fit_grid, 7)
    expected = np.concatenate([np.ascontiguousarray(block) @ projector for block in blocks])
    assert np.array_equal(prior_module.fit_realizations(config, RappDistribution()), expected)


@pytest.mark.parametrize("realizations", [1, 2, prior_module.FIT_BLOCK, prior_module.FIT_BLOCK + 44])
def test_fig3_statistics_equal_those_of_c_ordered_responses(realizations):
    # The mean and bands of row-major responses drawn one by one, bit for bit.
    grid = default_fit_grid()
    rng = np.random.default_rng(11)
    responses = np.array([rapp_response(draw_rapp_params(RappDistribution(), rng), grid) for _ in range(realizations)])
    mean, spread = responses.mean(axis=0), 2.0 * responses.std(axis=0)
    table = experiments.run_fig3(realizations, 7, seed=11)
    for name, expected in (("mean", mean), ("lower_band", mean - spread), ("upper_band", mean + spread)):
        assert np.array_equal(table.column(name), expected), name


@pytest.mark.parametrize("mode", ["coherent", "noncoherent"])
def test_prior_matches_reference_fit_loop(mode):
    config = PriorConfig(prior_module.FIT_BLOCK + 40, 7, mode=mode, seed=9)
    rng = np.random.default_rng(config.seed)
    fits = np.array(
        [
            fit_polynomial_to_curve(draw_rapp_params(RappDistribution(), rng), 7, config.fit_grid).coefficients
            for _ in range(config.realizations)
        ]
    )
    second_moment = fits.T @ fits.conj() / config.realizations
    if mode == "coherent":
        mean = fits.mean(axis=0)
        covariance = second_moment - np.outer(mean, mean.conj())
    else:
        mean = np.zeros(7)
        covariance = second_moment
    prior = build_prior(config, RappDistribution())
    scale = np.abs(covariance).max()
    assert np.abs(prior.covariance - covariance).max() <= 1e-12 * scale
    assert np.abs(prior.mean - mean).max() <= 1e-12 * np.abs(fits).max()


@pytest.mark.parametrize("grid", [default_fit_grid(), default_fit_grid(1.0, 0.1)], ids=["default", "coarse"])
@pytest.mark.parametrize("order", range(2, 11))
def test_fits_match_a_per_row_lstsq_reference(grid, order):
    config = PriorConfig(40, order, grid, seed=5)
    fits = prior_module.fit_realizations(config, RappDistribution())
    basis = grid[:, None] ** np.arange(1, order + 1)
    rng = np.random.default_rng(config.seed)
    reference = np.array(
        [
            np.linalg.lstsq(basis, rapp_response(draw_rapp_params(RappDistribution(), rng), grid), rcond=None)[0]
            for _ in range(config.realizations)
        ]
    )
    # Two backward-stable solutions of one small-residual problem differ by
    # about cond(basis) eps relative; the bound allows ten times that.
    tolerance = 10 * np.linalg.cond(basis) * np.finfo(float).eps
    assert np.abs(fits - reference).max() <= tolerance * np.abs(reference).max()


def test_fit_polynomial_to_curve_matches_its_fit_realizations_row():
    config = PriorConfig(prior_module.FIT_BLOCK + 3, 7, seed=6)
    fits = prior_module.fit_realizations(config, RappDistribution())
    projector = prior_module._fit_projector(config.fit_grid, 7)
    rng = np.random.default_rng(config.seed)
    for row in fits:
        params = draw_rapp_params(RappDistribution(), rng)
        single = fit_polynomial_to_curve(params, 7, config.fit_grid).coefficients
        # The same projector serves both, so only the summation order of the
        # products may differ: within 2 G eps |response| |P| per coefficient.
        response = rapp_response(params, config.fit_grid)
        bound = 2 * config.fit_grid.size * np.finfo(float).eps * (np.abs(response) @ np.abs(projector))
        assert np.all(np.abs(single - row) <= bound)


def test_fig4_priors_come_from_one_fit_and_equal_build_prior(monkeypatch):
    fit_calls, moment_calls, priors = [], [], {}

    def counting_fit(config, dist):
        fit_calls.append(config)
        return prior_module.fit_realizations(config, dist)

    def counting_moments(fits):
        moment_calls.append(fits)
        return prior_module.fit_moments(fits)

    def recording_prior(mean, second_moment, mode):
        priors[mode] = prior_module.prior_from_moments(mean, second_moment, mode)
        return priors[mode]

    monkeypatch.setattr(experiments, "fit_realizations", counting_fit)
    monkeypatch.setattr(experiments, "fit_moments", counting_moments)
    monkeypatch.setattr(experiments, "prior_from_moments", recording_prior)
    experiments.run_fig4(order=5, n_pilots=5, snr_db_list=[10.0], realizations=60, seed=4)
    assert len(fit_calls) == 1 and len(moment_calls) == 1
    assert set(priors) == {"coherent", "noncoherent"}
    for mode, prior in priors.items():
        expected = build_prior(PriorConfig(60, 5, mode=mode, seed=4), RappDistribution())
        assert np.array_equal(prior.mean, expected.mean)
        assert np.array_equal(prior.covariance, expected.covariance)


@pytest.mark.parametrize("realizations", [2, prior_module.FIT_BLOCK - 1, prior_module.FIT_BLOCK + 1, 2000])
def test_fig4_columns_equal_the_per_mode_path(realizations):
    # Each prior built on its own by build_prior, each factor's MSE on the
    # amplitude grid rather than on shared complex rows: the same bits.
    table = experiments.run_fig4(order=7, n_pilots=7, realizations=realizations, seed=11)
    sigma2s = [experiments.snr_db_to_sigma2(snr, "per-symbol", 7) for snr in experiments.DEFAULT_SNR_SWEEP_DB]
    grid = np.linspace(0.0, 1.0, experiments.FIGURE_MSE_SAMPLES)
    for allocation, pilots in (("uniform", uniform_pilots(7)), ("optimal", allocate_pilots(7, 7))):
        design = build_design_matrix(pilots, 7)
        for suffix, mode in (("ls", None), ("lmmse_coh", "coherent"), ("lmmse_noncoh", "noncoherent")):
            config = PriorConfig(realizations, 7, mode=mode or "coherent", seed=11)
            prior = None if mode is None else build_prior(config, RappDistribution())
            expected = _factor(design, prior).rows_mse(basis_rows(grid, 7), sigma2s).max(axis=0)
            assert np.array_equal(table.column(f"d_{allocation}_{suffix}"), expected)


def test_prior_from_moments_rejects_unknown_mode():
    with pytest.raises(ValueError):
        prior_module.prior_from_moments(*prior_module.fit_moments(np.ones((3, 2), dtype=complex)), "partial")
