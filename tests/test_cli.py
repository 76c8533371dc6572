import contextlib
import io
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patrain import (
    CsvFormatError,
    DimensionMismatchError,
    InvalidInputError,
    PatrainError,
    PilotAllocationError,
    PriorConfig,
    RappDistribution,
    build_prior,
    cli,
    save_prior,
)


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


def test_outputs_end_lines_in_bare_line_feeds(tmp_path):
    prior = build_prior(PriorConfig(50, 3, mode="coherent", seed=0), RappDistribution())
    save_prior(prior, tmp_path / "mean.csv", tmp_path / "cov.csv")
    (tmp_path / "obs.csv").write_text("index,re,im\n0,0.4,0\n1,0.7,0.1\n2,0.9,-0.1\n")
    # estimate reads the pilots that the design command below writes first.
    estimate = ["estimate", str(tmp_path / "design.csv"), str(tmp_path / "obs.csv"), "--order", "3", "--sigma2", "0.1"]
    prior_files = ["--prior-mean", str(tmp_path / "mean.csv"), "--prior-cov", str(tmp_path / "cov.csv")]
    commands = {
        "fig1": ["fig1"],
        "fig2": ["fig2"],
        "fig3": ["fig3", "--realizations", "20"],
        "fig4": ["fig4", "--realizations", "20", "--snr-db-list", "0,30"],
        "design": ["design", "--order", "3", "--pilots", "3"],
        "design_uniform": ["design", "--order", "3", "--pilots", "3", "--allocation", "uniform"],
        "estimate": estimate,
        "estimate_prior": [*estimate, *prior_files],
    }
    for name, argv in commands.items():
        assert cli.main([*argv, "--out", str(tmp_path / f"{name}.csv")]) == 0
    for path in tmp_path.iterdir():
        assert b"\r" not in path.read_bytes(), path.name


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


@pytest.mark.parametrize("snr_list", ["nan", "0,inf", "0,-inf", "abc"])
def test_fig4_rejects_nonfinite_snr(snr_list):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["fig4", "--snr-db-list", snr_list])
    assert exit_info.value.code == 2


@pytest.mark.parametrize("command", ["fig3", "fig4"])
def test_short_fit_grid_is_numerical_error(command, capsys):
    assert cli.main([command, "--fit-grid-max", "0.1", "--fit-grid-step", "0.05"]) == 3
    assert "fit grid" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fig3", "fig4"])
@pytest.mark.parametrize("bounds", [("1.0", "0.3"), ("0.1", "0.25")])
def test_fit_grid_step_that_does_not_divide_the_maximum_is_usage_error(command, bounds, capsys):
    assert cli.main([command, "--fit-grid-max", bounds[0], "--fit-grid-step", bounds[1]]) == 2
    assert "whole number of steps" in capsys.readouterr().err


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


# Realization counts that fill the byte budget exactly: fig3 keeps 25 float
# responses per realization on the default grid, fig4 7 complex fits.
_REALIZATION_CAPS = {"fig3": cli.MAX_REALIZATION_BYTES // (8 * 25), "fig4": cli.MAX_REALIZATION_BYTES // (16 * 7)}


@pytest.mark.parametrize("command", ["fig3", "fig4"])
def test_oversized_realization_count_is_usage_error(command, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("nothing may be drawn past the realization cap")

    monkeypatch.setattr(cli.experiments, f"run_{command}", refuse)
    cap = _REALIZATION_CAPS[command]
    assert cli.main([command, "--realizations", str(cap + 1)]) == 2
    assert "realizations" in capsys.readouterr().err
    # The cap itself passes; the run is stubbed, so nothing is drawn.
    monkeypatch.setattr(cli.experiments, f"run_{command}", lambda *args: cli.experiments.CsvTable(("x",), [[0.0]]))
    assert cli.main([command, "--realizations", str(cap)]) == 0


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


def test_estimate_accepts_a_pilot_that_rounds_an_ulp_above_its_file_cap(tmp_path, capsys):
    # The file's cap is its largest amplitude, 32767, and amp e^(i phase) rounds
    # one ulp above it at this phase.
    paths = _write_estimate_inputs(tmp_path)
    paths["pilots"].write_text("index,amp,phase\n0,10922.333333333334,0\n1,32767.0,0.0006280314015700785\n")
    paths["obs"].write_text("index,re,im\n0,1,0\n1,2,0\n")
    assert cli.main(["estimate", str(paths["pilots"]), str(paths["obs"]), "--order", "1", "--sigma2", "1"]) == 0
    assert capsys.readouterr().out.startswith("index,beta_re,beta_im")


@pytest.mark.parametrize(
    "rows, message",
    [("0,-0.5,0\n1,1,0\n", "negative amplitude"), ("0,0,0\n1,0,1\n", "all amplitudes are zero")],
    ids=["negative", "all-zero"],
)
def test_estimate_rejects_pilot_amplitudes_outside_the_domain(tmp_path, capsys, rows, message):
    paths = _write_estimate_inputs(tmp_path)
    paths["pilots"].write_text("index,amp,phase\n" + rows)
    assert _estimate_with_prior(paths) == 4
    assert message in capsys.readouterr().err


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


@pytest.mark.parametrize("module", ["scipy", "numpy.random", "numpy.polynomial"])
def test_import_does_not_load(module):
    # numpy.random and numpy.polynomial load on first use, not on import;
    # scipy is not a dependency at all.
    code = f"import sys, patrain.cli; print({module!r} in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


GOLDEN = Path(__file__).parent / "golden"
ESTIMATE = ["estimate", *(str(GOLDEN / f"estimate_{name}.csv") for name in ("pilots", "observations"))]
ESTIMATE += ["--order", "5", "--sigma2", "0.01"]
PRIOR_FILES = ["--prior-mean", str(GOLDEN / "estimate_prior_mean.csv")]
PRIOR_FILES += ["--prior-cov", str(GOLDEN / "estimate_prior_cov.csv")]


@pytest.mark.parametrize(
    "argv",
    [["fig1"], ["fig2"], ["fig3"], ["fig4"], ["design"], ESTIMATE, [*ESTIMATE, *PRIOR_FILES]],
    ids=["fig1", "fig2", "fig3", "fig4", "design", "estimate_ls", "estimate_lmmse"],
)
def test_no_subcommand_loads_numpy_ma(argv, tmp_path):
    # np.unique imports numpy.ma, about 10 ms of a fresh run (the fit-grid
    # check counts distinct points without it), and a stray import of it was
    # seen to move the in-process fig4 time by several percent.
    argv = [*argv, "--out", str(tmp_path / "out.csv")]
    code = f"import sys, patrain.cli; assert patrain.cli.main({argv!r}) == 0; print('numpy.ma' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_subnormal_noise_is_numerical_error(capsys):
    assert cli.main(["fig1", "--sigma2", "1e-320"]) == 3
    assert "noise variance" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [
        ["fig1"],
        ["fig2"],
        ["fig3"],
        ["fig4"],
        ["design"],
        ["estimate", "pilots.csv", "obs.csv", "--sigma2", "1"],
    ],
    ids=lambda command: command[0],
)
def test_order_above_the_cap_is_usage_error(command, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("an order above the cap must not reach the experiments")

    for name in ("run_fig1", "run_fig2", "run_fig3", "run_fig4", "design_table", "read_pilot_csv"):
        monkeypatch.setattr(cli.experiments, name, refuse)
    assert cli.main([*command, "--order", str(cli.MAX_ORDER + 1)]) == 2
    assert "order" in capsys.readouterr().err


def test_invalid_input_is_usage_error(monkeypatch, capsys):
    def reject(*args, **kwargs):
        raise InvalidInputError("unknown allocation: 'random'")

    monkeypatch.setattr(cli.experiments, "design_table", reject)
    assert cli.main(["design"]) == 2
    assert "unknown allocation" in capsys.readouterr().err


def test_fig4_beyond_the_monomial_order_range_is_numerical_error(capsys):
    # fig2 at L = 15 fails on the uniform N = L design, whose pilots are
    # distinct: the message names the conditioning, not the pilots.
    for argv in (["fig4", "--order", "17", "--pilots", "17"], ["fig2", "--order", "15"]):
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert "numerically rank deficient: condition number" in err and "CONDITION_LIMIT" in err
        assert "distinct" not in err


def test_fig4_rank_failure_names_the_uniform_ls_factor(capsys):
    # fig4 factors the uniform LS design first, so the message names its cond.
    assert cli.main(["fig4", "--order", "15", "--pilots", "15"]) == 3
    assert "condition number 2.703e+12 reaches CONDITION_LIMIT" in capsys.readouterr().err


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


@pytest.mark.parametrize(
    "error", list(dict.fromkeys([PatrainError, *_subclasses(PatrainError)])), ids=lambda error: error.__name__
)
def test_every_package_error_has_an_exit_code(error, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise error("raised on purpose")

    monkeypatch.setattr(cli.experiments, "run_fig2", fail)
    if issubclass(error, (InvalidInputError, PilotAllocationError, DimensionMismatchError)):
        expected = 2
    elif issubclass(error, CsvFormatError):
        expected = 4
    else:
        expected = 3
    assert cli.main(["fig2"]) == expected
    err = capsys.readouterr().err
    assert "raised on purpose" in err and "Traceback" not in err


@pytest.mark.parametrize("target", ["pilots", "obs", "mean", "cov"])
@pytest.mark.parametrize(
    "fault, message",
    [
        ("header", "header"),
        ("ragged", "columns"),
        ("binary", "decode"),
        ("huge-cell", "field limit"),
        ("no-rows", "no data rows"),
        ("text-cell", "non-numeric cell"),
    ],
)
def test_estimate_rejects_a_malformed_line_in_any_csv(tmp_path, capsys, target, fault, message):
    paths = _write_estimate_inputs(tmp_path)
    lines = paths[target].read_text().splitlines()
    if fault == "header":
        lines[0] = "x" + lines[0]
    elif fault == "ragged":
        lines[2] = lines[2][: lines[2].rindex(",")]
    elif fault == "huge-cell":
        lines[2] = "0" * 200_000 + lines[2]
    elif fault == "no-rows":
        lines = lines[:1]
    elif fault == "text-cell":
        lines[2] = lines[2][: lines[2].rindex(",") + 1] + "x"
    text = "\n".join(lines) + "\n"
    paths[target].write_bytes(b"\xff" + text.encode() if fault == "binary" else text.encode())
    assert _estimate_with_prior(paths) == 4
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [
        ["fig1", "--order", "12", "--pilots", "24", "--sigma2", "1e308"],
        ["fig3", "--realizations", "3", "--fit-grid-max", "1e300", "--fit-grid-step", "1e298"],
        ["fig4", "--realizations", "3", "--snr-db-list=-3080"],
    ],
    ids=lambda command: command[0],
)
def test_float_overflow_is_numerical_error(command, capsys):
    # Without the check these runs write inf or nan into the table.
    assert cli.main(command) == 3
    assert "overflow" in capsys.readouterr().err


# Flag values for the CLI fuzz as (in-domain, edge) lists.  The edge values are
# the ends of each domain and values just past the caps.  Accepted sizes stay
# at order <= 12, pilots <= 24 and realizations <= 20, since the realization
# cap still admits runs far too long for a test.
_EDGE_FLOATS = ["0", "-1", "nan", "inf", "-inf", "1e309", "1e-320", "1e300"]
_FUZZ_VALUES = {
    "--order": (["1", "2", "4", "12"], ["-1", "0", str(cli.MAX_ORDER + 1), "nan"]),
    "--pilots": (["12", "24"], ["-1", "0", "5", "inf"]),
    # The last edge value is one past the byte cap for every grid and order.
    "--realizations": (["1", "20"], ["-1", "0", "nan", str(cli.MAX_REALIZATION_BYTES // 8 + 1)]),
    "--seed": (["0", "7"], ["-1", "x"]),
    "--sigma2": (["1e-3", "1"], _EDGE_FLOATS),
    "--max-amplitude": (["1", "2.5"], _EDGE_FLOATS),
    # Every in-domain step, the default 0.0625 too, divides every in-domain
    # maximum; the largest grid, at the point cap, divides only 1.5.
    "--fit-grid-max": (["0.25", "1.5"], _EDGE_FLOATS),
    "--fit-grid-step": (
        ["0.025", "0.05", "0.0625"],
        [*_EDGE_FLOATS, str(1.5 / (cli.MAX_FIT_GRID_POINTS - 1)), str(1.5 / cli.MAX_FIT_GRID_POINTS)],
    ),
    "--snr-db-list": (["0", "0,60"], ["", ",", "nan", "4000", "-4000", "-3000", "1e309", "x"]),
    "--snr-convention": (["per-symbol", "total"], ["other"]),
    "--allocation": (["optimal", "uniform"], ["other"]),
}
_FUZZ_FLAGS = {
    "fig1": ["--order", "--pilots", "--sigma2"],
    "fig2": ["--order"],
    "fig3": ["--order", "--realizations", "--seed", "--fit-grid-max", "--fit-grid-step"],
    "fig4": [
        "--order", "--pilots", "--realizations", "--seed", "--fit-grid-max", "--fit-grid-step",
        "--snr-db-list", "--snr-convention",
    ],
    "design": ["--order", "--pilots", "--max-amplitude", "--allocation"],
    "estimate": ["--order", "--sigma2", "--prior-mean", "--prior-cov"],
}
# Flags always passed: estimate requires the first two, and the realization
# default (100) is above the fuzz sizes.
_FUZZ_ALWAYS = {"--order", "--sigma2", "--realizations"}


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    texts = {
        "pilots": "index,amp,phase\n0,0.5,0\n1,1,0\n",
        "pilots3": "index,amp,phase\n0,0.5,0\n1,0.75,1\n2,1,0\n",
        "obs": "index,re,im\n0,0.4,0\n1,0.9,0\n",
        "obs1": "index,re,im\n0,0.4,0\n",
        "mean": "index,re,im\n0,1,0\n1,0,0\n",
        "cov": "re_0,im_0,re_1,im_1\n1,0,0,0\n0,0,1,0\n",
        "bad": "index,amp\n0,nan\n",
    }
    for name, text in texts.items():
        (root / f"{name}.csv").write_text(text)
    path = {name: str(root / f"{name}.csv") for name in [*texts, "missing"]}
    edge = [path["bad"], path["missing"], str(root)]
    return {
        "pilot_csv": ([path["pilots"], path["pilots3"]], edge),
        "observation_csv": ([path["obs"], path["obs1"]], edge),
        "--prior-mean": ([path["mean"]], [path["cov"], *edge]),
        "--prior-cov": ([path["cov"]], [path["mean"], *edge]),
        "--out": ([], [str(root)]),
    }


@settings(derandomize=True, deadline=None, max_examples=200)
@given(data=st.data())
def test_cli_fuzz_exits_with_a_documented_code(fuzz_files, data):
    values = {**_FUZZ_VALUES, **fuzz_files}
    command = data.draw(st.sampled_from(sorted(_FUZZ_FLAGS)))
    positional = ["pilot_csv", "observation_csv"] if command == "estimate" else []
    argv = [command]
    for name in [*positional, *_FUZZ_FLAGS[command], "--out"]:
        # Half the values are in the domain and a quarter are edge values; the
        # last quarter leaves an optional flag at its default.
        pick = data.draw(st.sampled_from(["good", "good", "default", "edge"]))
        if pick == "default" and (name in positional or name in _FUZZ_ALWAYS):
            pick = "good"
        good, edge = values[name]
        pool = {"good": good, "edge": edge, "default": []}[pick]
        if pool:
            value = data.draw(st.sampled_from(pool))
            argv.append(value if name in positional else f"{name}={value}")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exit_info:
            code = exit_info.code
    assert code in (0, 2, 3, 4), argv
