import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from patrain import (
    CsvFormatError,
    DimensionMismatchError,
    InvalidInputError,
    InvalidNoiseError,
    PilotSequence,
    allocate_pilots,
    build_design_matrix,
    max_prediction_mse,
    mse_curve,
    uniform_pilots,
)
from patrain.estimators import _factor
from patrain.experiments import (
    CsvTable,
    DEFAULT_SNR_SWEEP_DB,
    FIG4_COLUMNS,
    FIGURE_MSE_SAMPLES,
    PER_SYMBOL,
    design_table,
    estimate_from_files,
    estimation_table,
    read_observation_csv,
    read_pilot_csv,
    run_fig1,
    run_fig2,
    run_fig3,
    run_fig4,
    snr_db_to_sigma2,
)
from patrain.pa_model import basis_rows
from patrain.prior import COHERENT, NONCOHERENT, PriorConfig, RappDistribution, build_prior, default_fit_grid
from test_prior import _EDGE_PARTS

REFERENCE_FIG2_RATIOS = (1.0, 1.0, 1.17576, 1.62957, 2.54202, 4.48742, 9.10700, 20.7436)


def test_csv_table_rendering():
    table = CsvTable(("a", "b"), [[1.0, 0.123456789123]])
    assert table.to_csv() == "a,b\n1,0.123456789\n"


def test_csv_table_rejects_ragged_rows():
    with pytest.raises(DimensionMismatchError):
        CsvTable(("a", "b"), [[1.0, 2.0, 3.0]])


def test_fig1_reference_values():
    table = run_fig1()
    assert table.header[:3] == ("amplitude", "mse_uniform", "mse_optimal")
    assert table.rows.shape == (501, 5)
    assert table.column("mse_optimal").max() == pytest.approx(1.0, abs=1e-6)
    assert table.column("mse_uniform").max() == pytest.approx(2.54202, rel=1e-3)
    assert table.rows[0][1] == 0.0 and table.rows[0][2] == 0.0
    assert_allclose(table.column("pilot_uniform")[:5], [0.2, 0.4, 0.6, 0.8, 1.0])
    assert np.all(np.isnan(table.column("pilot_uniform")[5:]))
    assert table.column("pilot_optimal")[4] == 1.0


def test_fig2_reproduces_reference_ratios():
    table = run_fig2()
    assert tuple(table.column("order")) == tuple(range(1, 9))
    for ratio, expected in zip(table.column("gain_ratio"), REFERENCE_FIG2_RATIOS):
        assert ratio == pytest.approx(expected, rel=1e-3)


def _below_the_exact_maximum(sampled, design, sigma2s, prior=None):
    """Whether each sampled maximum is at most the exact maximum of its sigma2,
    within cond eps of the factored system at that sigma2."""
    sv = _factor(design, prior).singular_values(sigma2s)
    exact = max_prediction_mse(design, np.asarray(sigma2s, dtype=float), prior)
    return sampled <= exact * (1 + sv[0] / sv[-1] * np.finfo(float).eps)


def test_sampled_figure_maxima_stay_below_the_exact_maxima():
    # fig2 and fig4 take each maximum over FIGURE_MSE_SAMPLES equispaced
    # amplitudes, so no default cell may exceed the exact maximum.
    grid = np.linspace(0.0, 1.0, FIGURE_MSE_SAMPLES)
    for order, ratio in run_fig2().rows:
        order = int(order)
        designs = [build_design_matrix(pilots, order) for pilots in (uniform_pilots(order), allocate_pilots(order, order))]
        sampled = [mse_curve(design, grid, 1.0).mse_values.max() for design in designs]
        assert ratio == sampled[0] / sampled[1]
        for value, design in zip(sampled, designs):
            assert _below_the_exact_maximum(value, design, [1.0]).all(), order
    table = run_fig4()
    sigma2s = [snr_db_to_sigma2(snr_db, PER_SYMBOL, 7) for snr_db in table.column("snr_db")]
    # run_fig4's priors equal these.
    priors = {
        name: build_prior(PriorConfig(100, 7, seed=0, mode=mode), RappDistribution())
        for name, mode in (("lmmse_coh", COHERENT), ("lmmse_noncoh", NONCOHERENT))
    }
    for column in FIG4_COLUMNS[1:]:
        _, allocation, estimator = column.split("_", 2)
        pilots = uniform_pilots(7) if allocation == "uniform" else allocate_pilots(7, 7)
        design = build_design_matrix(pilots, 7)
        assert _below_the_exact_maximum(table.column(column), design, sigma2s, priors.get(estimator)).all(), column


# The relative gap (exact - sampled) / exact of fig2's uniform cells, L = 1..14.
# At L = 1 and 2 the maximum sits at the cap, a grid point, so the gap is round-off.
UNIFORM_SAMPLED_GAPS = (
    0.0, 0.0, 8.33e-5, 9.58e-4, 7.90e-5, 3.71e-3, 9.02e-4, 2.32e-3, 2.19e-2, 1.58e-4, 1.79e-2, 3.29e-2, 5.46e-3, 8.70e-4
)


@pytest.mark.parametrize("order", range(1, 15))
def test_sampled_maximum_gap_of_the_fig2_designs(order):
    # fig2's designs, N = L at sigma2 = 1: the exact maximum against the one over
    # FIGURE_MSE_SAMPLES equispaced amplitudes.  The optimal design has a support
    # point at the cap, on the grid, so its gap is round-off (measured at most
    # 4.5e-8, at L = 14).
    grid = np.linspace(0.0, 1.0, FIGURE_MSE_SAMPLES)
    gaps = []
    for pilots in (uniform_pilots(order), allocate_pilots(order, order)):
        design = build_design_matrix(pilots, order)
        exact = max_prediction_mse(design, 1.0)
        gaps.append((exact - mse_curve(design, grid, 1.0).mse_values.max()) / exact)
    assert gaps[0] == pytest.approx(UNIFORM_SAMPLED_GAPS[order - 1], rel=0.01, abs=1e-15)
    assert abs(gaps[1]) < 1e-7


def test_fig3_reference_values():
    table = run_fig3(seed=0)
    grid = table.column("amplitude")
    assert grid.size == 25
    at_one = np.where(grid == 1.0)[0][0]
    assert table.column("nominal_rapp")[at_one] == pytest.approx(0.840896415, abs=1e-8)
    assert table.rows[0][4] == 0.0 and table.rows[0][5] == 0.0
    assert table.column("upper_band")[-1] == pytest.approx(1.140, abs=0.05)
    assert np.all(table.column("lower_band") <= table.column("mean"))


def test_fig3_poly_fit_tracks_nominal_curve():
    table = run_fig3(seed=1)
    assert np.abs(table.column("poly_fit") - table.column("nominal_rapp")).max() <= 1e-2


def test_fig4_ls_columns_follow_snr():
    table = run_fig4(seed=0)
    snr_lin = 10.0 ** (table.column("snr_db") / 10.0)
    assert_allclose(table.column("d_optimal_ls"), 1.0 / snr_lin, rtol=1e-6)
    ratio = table.column("d_uniform_ls") / table.column("d_optimal_ls")
    assert_allclose(ratio, 9.10700, rtol=1e-3)


def test_fig4_columns_decrease_with_snr():
    table = run_fig4(seed=0)
    for name in table.header[1:]:
        column = table.column(name)
        assert np.all(np.diff(column) < 0)


def test_fig4_lmmse_never_worse_than_ls():
    table = run_fig4(seed=3)
    for allocation in ("uniform", "optimal"):
        ls = table.column(f"d_{allocation}_ls")
        for estimator in ("lmmse_coh", "lmmse_noncoh"):
            assert np.all(table.column(f"d_{allocation}_{estimator}") <= ls + 1e-10)


def test_fig4_coherent_cells_at_0db_sit_just_below_the_prior_only_maximum():
    # With no pilots the LMMSE error covariance is the prior's, so the maximum
    # is that of f(a)^H C f(a) over [0, 1], checked on 100,001 points.  At 0 dB
    # the 7 pilots of default fig4 lower it by under 2 % for either allocation.
    rows = basis_rows(np.linspace(0.0, 1.0, 100_001), 7)
    prior_only = {}
    for mode in (COHERENT, NONCOHERENT):
        prior = build_prior(PriorConfig(100, 7, seed=0, mode=mode), RappDistribution())
        prior_only[mode] = max_prediction_mse(np.zeros((0, 7)), 1.0, prior)
        dense = np.einsum("ij,jk,ik->i", rows.conj(), prior.covariance, rows).real.max()
        assert prior_only[mode] == pytest.approx(dense, rel=1e-9, abs=0), mode
    table = run_fig4()
    at_0db = table.rows[table.column("snr_db") == 0.0][0]
    for column in ("d_uniform_lmmse_coh", "d_optimal_lmmse_coh"):
        assert 0.98 * prior_only[COHERENT] < at_0db[table.header.index(column)] <= prior_only[COHERENT], column


def test_fig4_total_convention_scales_ls_columns():
    per_symbol = run_fig4(snr_db_list=[0.0, 20.0], convention="per-symbol", seed=0)
    total = run_fig4(snr_db_list=[0.0, 20.0], convention="total", seed=0)
    for name in ("d_uniform_ls", "d_optimal_ls"):
        assert_allclose(total.column(name), per_symbol.column(name) / 7.0, rtol=5e-15)
    # LMMSE columns scale nonlinearly, so the same relation must not hold.
    coh_ratio = total.column("d_optimal_lmmse_coh") / per_symbol.column("d_optimal_lmmse_coh")
    assert np.abs(coh_ratio - 1.0 / 7.0).max() > 1e-3


@pytest.mark.parametrize("order, n_pilots, realizations", [(7, 7, 100), (4, 8, 300), (5, 10, 5), (3, 6, 2)])
def test_fig4_sweep_matches_per_sigma2_curves(order, n_pilots, realizations):
    # fig4 factors each (allocation, prior) pair once for the whole sweep; each
    # cell must equal one mse_curve call per noise variance, to every printed
    # digit.  Fewer realizations than the order give rank-deficient priors.
    table = run_fig4(order, n_pilots, realizations=realizations, seed=2)
    grid = np.linspace(0.0, 1.0, FIGURE_MSE_SAMPLES)
    priors = {"ls": None}
    for estimator, mode in (("lmmse_coh", COHERENT), ("lmmse_noncoh", NONCOHERENT)):
        config = PriorConfig(realizations, order, default_fit_grid(), mode, seed=2)
        priors[estimator] = build_prior(config, RappDistribution())
    designs = {
        "uniform": build_design_matrix(uniform_pilots(n_pilots), order),
        "optimal": build_design_matrix(allocate_pilots(order, n_pilots), order),
    }
    sigma2s = [snr_db_to_sigma2(snr_db, "per-symbol", n_pilots) for snr_db in table.column("snr_db")]
    for allocation, design in designs.items():
        for estimator, prior in priors.items():
            column = table.column(f"d_{allocation}_{estimator}")
            single = np.array([mse_curve(design, grid, sigma2, prior).mse_values.max() for sigma2 in sigma2s])
            assert_allclose(column, single, rtol=1e-12, atol=0)
            assert [format(v, ".9g") for v in column] == [format(v, ".9g") for v in single]


def test_fig4_deterministic_per_seed():
    first = run_fig4(snr_db_list=[0.0, 60.0], seed=5)
    second = run_fig4(snr_db_list=[0.0, 60.0], seed=5)
    assert first.to_csv() == second.to_csv()
    assert run_fig3(seed=5).to_csv() == run_fig3(seed=5).to_csv()


def test_unknown_convention_and_allocation_are_invalid_input():
    with pytest.raises(InvalidInputError):
        snr_db_to_sigma2(0.0, "per-pilot", 7)
    with pytest.raises(InvalidInputError):
        design_table(3, 3, allocation="random")
    # Callers that catch ValueError keep working.
    with pytest.raises(ValueError):
        design_table(3, 3, allocation="random")


def test_snr_sweep_default_matches_reference_points():
    assert len(DEFAULT_SNR_SWEEP_DB) == 10
    assert DEFAULT_SNR_SWEEP_DB[0] == 0.0 and DEFAULT_SNR_SWEEP_DB[-1] == 60.0
    assert snr_db_to_sigma2(0.0, "per-symbol", 7) == 1.0
    assert snr_db_to_sigma2(0.0, "total", 7) == pytest.approx(1.0 / 7.0)


def test_design_table_reference_rows():
    table = design_table(2, 2)
    assert_allclose(table.rows, [[0, 0.5, 0.0], [1, 1.0, 0.0]])
    assert_allclose(design_table(1, 4).column("amp"), np.ones(4))
    assert_allclose(
        design_table(5, 5).column("amp"),
        [0.1174724, 0.3573843, 0.6426157, 0.8825276, 1.0],
        atol=1e-7,
    )


def test_estimate_round_trip_noiseless(tmp_path):
    table = design_table(3, 3)
    pilot_path = tmp_path / "pilots.csv"
    table.write(pilot_path)
    pilots = read_pilot_csv(pilot_path)
    coef = np.array([1.0 + 0.2j, -0.3, 0.05j])
    observations = build_design_matrix(pilots, 3) @ coef
    result = estimate_from_files(pilots, observations, 3, 1e-6)
    assert np.abs(result.estimate - coef).max() < 1e-10
    rendered = estimation_table(result)
    assert rendered.rows.shape == (3, 3 + 6)


def test_estimate_from_files_requires_matching_lengths():
    pilots = PilotSequence([0.5, 1.0])
    with pytest.raises(DimensionMismatchError):
        estimate_from_files(pilots, np.zeros(3, dtype=complex), 2, 1.0)


def test_pilot_csv_round_trip(tmp_path):
    path = tmp_path / "pilots.csv"
    design_table(2, 4, max_amplitude=2.0).write(path)
    pilots = read_pilot_csv(path)
    assert_allclose(np.abs(pilots.symbols), [1.0, 1.0, 2.0, 2.0])


def test_observation_csv_reader(tmp_path):
    path = tmp_path / "obs.csv"
    path.write_text("index,re,im\n0,1.5,-0.5\n1,0,2\n")
    assert np.array_equal(read_observation_csv(path), np.array([1.5 - 0.5j, 2j]))


def test_observation_csv_keeps_signed_zeros(tmp_path):
    path = tmp_path / "obs.csv"
    path.write_text("index,re,im\n0,1,-0\n1,-0,2\n")
    observations = read_observation_csv(path)
    assert np.array_equal(observations, np.array([1, 2j]))
    assert list(zip(np.signbit(observations.real), np.signbit(observations.imag))) == [(False, True), (True, False)]


_PARTS = st.one_of(st.floats(-1e300, 1e300), _EDGE_PARTS)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(parts=st.lists(st.tuples(_PARTS, _PARTS), min_size=1, max_size=12))
def test_observation_csv_round_trip_is_bit_exact(parts):
    lines = [f"{i},{format(re, '.17g')},{format(im, '.17g')}\n" for i, (re, im) in enumerate(parts)]
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "obs.csv"
        path.write_text("index,re,im\n" + "".join(lines))
        observations = read_observation_csv(path)
    assert observations.tobytes() == np.array([complex(re, im) for re, im in parts]).tobytes()


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_csv_readers_reject_nonfinite_cells(tmp_path, cell):
    pilot_path = tmp_path / "pilots.csv"
    pilot_path.write_text(f"index,amp,phase\n0,0.5,{cell}\n1,1,0\n")
    with pytest.raises(CsvFormatError, match="non-finite"):
        read_pilot_csv(pilot_path)
    obs_path = tmp_path / "obs.csv"
    obs_path.write_text(f"index,re,im\n0,0.4,0\n1,{cell},0\n")
    with pytest.raises(CsvFormatError, match="non-finite"):
        read_observation_csv(obs_path)


@pytest.mark.parametrize("indices", [(5, 9, 7), (1, 2, 3), (0, 2, 1), (0, 0.5, 2)])
def test_csv_readers_check_the_index_column(tmp_path, indices):
    pilot_path = tmp_path / "pilots.csv"
    obs_path = tmp_path / "obs.csv"
    pilot_path.write_text("index,amp,phase\n" + "".join(f"{i},0.5,0\n" for i in indices))
    obs_path.write_text("index,re,im\n" + "".join(f"{i},0.4,0\n" for i in indices))
    with pytest.raises(CsvFormatError, match="index"):
        read_pilot_csv(pilot_path)
    with pytest.raises(CsvFormatError, match="index"):
        read_observation_csv(obs_path)


@pytest.mark.parametrize("snr_db", [4000.0, -4000.0])
@pytest.mark.parametrize("convention", ["per-symbol", "total"])
def test_snr_outside_float_range_is_invalid_noise(snr_db, convention):
    with pytest.raises(InvalidNoiseError):
        snr_db_to_sigma2(snr_db, convention, 7)
