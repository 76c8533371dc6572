import subprocess
import sys

import numpy as np
import pytest

from patrain import PriorConfig, RappDistribution, build_prior, cli, save_prior


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "patrain", *args], capture_output=True, text=True
    )


def test_design_command_stdout():
    proc = run_cli("design", "--order", "2", "--pilots", "2")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "index,amp,phase"
    assert lines[1] == "0,0.5,0"
    assert lines[2] == "1,1,0"


def test_design_command_rejects_bad_multiplicity():
    proc = run_cli("design", "--order", "3", "--pilots", "4")
    assert proc.returncode == 2
    assert "multiple" in proc.stderr


def test_design_command_uniform_allocation():
    proc = run_cli("design", "--order", "3", "--pilots", "4", "--allocation", "uniform")
    assert proc.returncode == 0
    amps = [line.split(",")[1] for line in proc.stdout.strip().splitlines()[1:]]
    assert amps == ["0.25", "0.5", "0.75", "1"]


def test_estimate_estimator_flag_must_match_prior(tmp_path):
    pilots_path = tmp_path / "pilots.csv"
    obs_path = tmp_path / "obs.csv"
    pilots_path.write_text("index,amp,phase\n0,0.5,0\n1,1,0\n")
    obs_path.write_text("index,re,im\n0,0.4,0\n1,0.9,0\n")
    proc = run_cli(
        "estimate", str(pilots_path), str(obs_path), "--order", "2", "--sigma2", "1",
        "--estimator", "lmmse",
    )
    assert proc.returncode == 2
    ls = run_cli(
        "estimate", str(pilots_path), str(obs_path), "--order", "2", "--sigma2", "1",
        "--estimator", "ls",
    )
    assert ls.returncode == 0


def test_fig2_output_is_deterministic(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert run_cli("fig2", "--out", str(first)).returncode == 0
    assert run_cli("fig2", "--out", str(second)).returncode == 0
    assert first.read_bytes() == second.read_bytes()


def test_fig1_writes_curves(tmp_path):
    out = tmp_path / "fig1.csv"
    proc = run_cli("fig1", "--out", str(out))
    assert proc.returncode == 0
    header = out.read_text().splitlines()[0]
    assert header == "amplitude,mse_uniform,mse_optimal,pilot_uniform,pilot_optimal"


def test_fig4_deterministic_across_runs(tmp_path):
    args = ("fig4", "--snr-db-list", "0,60", "--seed", "7")
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert run_cli(*args, "--out", str(first)).returncode == 0
    assert run_cli(*args, "--out", str(second)).returncode == 0
    assert first.read_bytes() == second.read_bytes()


def test_estimate_round_trip(tmp_path):
    pilots_path = tmp_path / "pilots.csv"
    obs_path = tmp_path / "obs.csv"
    out_path = tmp_path / "est.csv"
    assert run_cli("design", "--order", "2", "--pilots", "2", "--out", str(pilots_path)).returncode == 0
    # Noiseless observations of a linear-gain model: r_n equals phi beta.
    obs_path.write_text("index,re,im\n0,0.45,0\n1,0.8,0\n")
    proc = run_cli(
        "estimate", str(pilots_path), str(obs_path), "--order", "2", "--sigma2", "1e-8",
        "--out", str(out_path),
    )
    assert proc.returncode == 0
    rows = out_path.read_text().splitlines()
    beta = [float(cell) for cell in rows[1].split(",")[1:3]]
    # design {0.5, 1}: 0.45 = 0.5 b1 + 0.25 b2, 0.8 = b1 + b2 -> b = (1, -0.2)
    assert beta[0] == pytest.approx(1.0, abs=1e-9)


def test_estimate_underdetermined_without_prior(tmp_path):
    pilots_path = tmp_path / "pilots.csv"
    obs_path = tmp_path / "obs.csv"
    pilots_path.write_text("index,amp,phase\n0,0.5,0\n1,1,0\n2,0.75,0\n")
    obs_path.write_text("index,re,im\n0,0.4,0\n1,0.9,0\n2,0.7,0\n")
    proc = run_cli("estimate", str(pilots_path), str(obs_path), "--order", "7", "--sigma2", "1")
    assert proc.returncode == 3


def test_estimate_underdetermined_with_prior(tmp_path):
    prior = build_prior(PriorConfig(50, 7, mode="coherent", seed=0), RappDistribution())
    mean_path = tmp_path / "prior_mean.csv"
    cov_path = tmp_path / "prior_cov.csv"
    save_prior(prior, mean_path, cov_path)
    pilots_path = tmp_path / "pilots.csv"
    obs_path = tmp_path / "obs.csv"
    pilots_path.write_text("index,amp,phase\n0,0.5,0\n1,1,0\n2,0.75,0\n")
    obs_path.write_text("index,re,im\n0,0.4,0\n1,0.9,0\n2,0.7,0\n")
    out_path = tmp_path / "est.csv"
    proc = run_cli(
        "estimate", str(pilots_path), str(obs_path), "--order", "7", "--sigma2", "1",
        "--prior-mean", str(mean_path), "--prior-cov", str(cov_path), "--out", str(out_path),
    )
    assert proc.returncode == 0
    body = np.array(
        [[float(cell) for cell in line.split(",")] for line in out_path.read_text().splitlines()[1:]]
    )
    covariance = body[:, 3::2] + 1j * body[:, 4::2]
    assert np.linalg.eigvalsh(0.5 * (covariance + covariance.conj().T)).min() >= -1e-10


def test_estimate_malformed_csv(tmp_path):
    pilots_path = tmp_path / "pilots.csv"
    obs_path = tmp_path / "obs.csv"
    pilots_path.write_text("wrong,header,here\n0,0.5,0\n")
    obs_path.write_text("index,re,im\n0,0.4,0\n")
    proc = run_cli("estimate", str(pilots_path), str(obs_path), "--order", "1", "--sigma2", "1")
    assert proc.returncode == 4


def test_estimate_missing_file(tmp_path):
    obs_path = tmp_path / "obs.csv"
    obs_path.write_text("index,re,im\n0,0.4,0\n")
    proc = run_cli("estimate", str(tmp_path / "nope.csv"), str(obs_path), "--order", "1", "--sigma2", "1")
    assert proc.returncode == 4


def test_estimate_dimension_mismatch(tmp_path):
    pilots_path = tmp_path / "pilots.csv"
    obs_path = tmp_path / "obs.csv"
    pilots_path.write_text("index,amp,phase\n0,0.5,0\n1,1,0\n")
    obs_path.write_text("index,re,im\n0,0.4,0\n")
    proc = run_cli("estimate", str(pilots_path), str(obs_path), "--order", "1", "--sigma2", "1")
    assert proc.returncode == 2


def test_usage_error_exit_code():
    proc = run_cli("fig1", "--sigma2", "-1")
    assert proc.returncode == 2


def test_infinite_noise_is_numerical_error(capsys):
    assert cli.main(["fig1", "--sigma2", "inf"]) == 3
    assert "noise variance" in capsys.readouterr().err


def test_design_rejects_nonpositive_order():
    assert cli.main(["design", "--order", "0"]) == 2


@pytest.mark.parametrize("allocation", ["optimal", "uniform"])
@pytest.mark.parametrize("cap", ["0", "-1", "inf", "1e309", "nan"])
def test_design_rejects_a_nonfinite_or_nonpositive_cap(allocation, cap, capsys):
    assert cli.main(["design", f"--max-amplitude={cap}", "--allocation", allocation]) == 2
    assert "max amplitude" in capsys.readouterr().err


@pytest.mark.parametrize("snr_list", ["nan", "0,inf", "0,-inf"])
def test_fig4_rejects_nonfinite_snr(snr_list):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["fig4", "--snr-db-list", snr_list])
    assert exit_info.value.code == 2


@pytest.mark.parametrize("command", ["fig3", "fig4"])
def test_short_fit_grid_is_numerical_error(command, capsys):
    assert cli.main([command, "--fit-grid-max", "0.1", "--fit-grid-step", "0.05"]) == 3
    assert "fit grid" in capsys.readouterr().err


def test_unknown_command_is_usage_error():
    proc = run_cli("not-a-command")
    assert proc.returncode == 2


@pytest.mark.parametrize("command", ["fig3", "fig4"])
def test_oversized_fit_grid_is_usage_error(command, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("the oversized grid must not be built")

    monkeypatch.setattr(cli, "default_fit_grid", refuse)
    assert cli.main([command, "--fit-grid-step", "1e-9"]) == 2
    assert "fit grid" in capsys.readouterr().err


def _write_estimate_inputs(tmp_path):
    paths = {name: tmp_path / f"{name}.csv" for name in ("pilots", "obs", "mean", "cov")}
    paths["pilots"].write_text("index,amp,phase\n0,0.5,0\n1,1,0\n")
    paths["obs"].write_text("index,re,im\n0,0.4,0\n1,0.9,0\n")
    paths["mean"].write_text("index,re,im\n0,1,0\n1,0,0\n")
    paths["cov"].write_text("re_0,im_0,re_1,im_1\n1,0,0,0\n0,0,1,0\n")
    return paths


def _estimate_with_prior(paths):
    return cli.main([
        "estimate", str(paths["pilots"]), str(paths["obs"]), "--order", "2", "--sigma2", "0.1",
        "--prior-mean", str(paths["mean"]), "--prior-cov", str(paths["cov"]),
    ])


def test_estimate_with_valid_prior_succeeds(tmp_path, capsys):
    assert _estimate_with_prior(_write_estimate_inputs(tmp_path)) == 0
    assert capsys.readouterr().out.startswith("index,beta_re,beta_im")


@pytest.mark.parametrize("target", ["pilots", "obs", "mean", "cov"])
def test_estimate_rejects_nan_in_any_csv(tmp_path, capsys, target):
    paths = _write_estimate_inputs(tmp_path)
    lines = paths[target].read_text().splitlines()
    lines[2] = lines[2][: lines[2].rindex(",") + 1] + "nan"
    paths[target].write_text("\n".join(lines) + "\n")
    assert _estimate_with_prior(paths) == 4
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["pilots", "obs", "mean"])
def test_estimate_rejects_a_bad_index_column(tmp_path, capsys, target):
    paths = _write_estimate_inputs(tmp_path)
    lines = paths[target].read_text().splitlines()
    lines[1] = "5" + lines[1][1:]
    paths[target].write_text("\n".join(lines) + "\n")
    assert _estimate_with_prior(paths) == 4
    assert "index" in capsys.readouterr().err


@pytest.mark.parametrize(
    "cov_rows", ["1,0,0.5,0\n0,0,1,0\n", "1,0,2,0\n2,0,1,0\n"], ids=["non-hermitian", "indefinite"]
)
def test_estimate_invalid_prior_is_numerical_error(tmp_path, capsys, cov_rows):
    paths = _write_estimate_inputs(tmp_path)
    paths["cov"].write_text("re_0,im_0,re_1,im_1\n" + cov_rows)
    assert _estimate_with_prior(paths) == 3
    assert "covariance" in capsys.readouterr().err


@pytest.mark.parametrize("snr_list", ["4000", "-4000"])
def test_fig4_snr_outside_float_range_is_numerical_error(snr_list, capsys):
    assert cli.main(["fig4", f"--snr-db-list={snr_list}", "--realizations", "5"]) == 3
    assert "noise variance" in capsys.readouterr().err


def test_import_does_not_load_scipy():
    code = "import sys, patrain; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
