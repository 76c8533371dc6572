"""The CLI outputs held byte for byte against ``tests/golden/`` (see its README)."""

import csv
import io
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from patrain import cli

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).parents[1] / "src"

# Files the estimate runs read; every other CSV here is the output of its run.
INPUTS = (
    "estimate_pilots.csv",
    "estimate_observations.csv",
    "estimate_prior_mean.csv",
    "estimate_prior_cov.csv",
)
ESTIMATE = ["estimate", *(str(GOLDEN / name) for name in INPUTS[:2]), "--order", "5", "--sigma2", "0.01"]
PRIOR = ["--prior-mean", str(GOLDEN / INPUTS[2]), "--prior-cov", str(GOLDEN / INPUTS[3])]

RUNS = {
    "fig1.csv": ["fig1"],
    "fig2.csv": ["fig2"],
    "fig3.csv": ["fig3"],
    "fig4.csv": ["fig4"],
    "design_optimal.csv": ["design", "--allocation", "optimal"],
    "design_uniform.csv": ["design", "--allocation", "uniform"],
    "fig1_order12_pilots24.csv": ["fig1", "--order", "12", "--pilots", "24"],
    "fig4_order12_pilots12.csv": ["fig4", "--order", "12", "--pilots", "12"],
    "estimate_ls.csv": ESTIMATE,
    "estimate_lmmse.csv": [*ESTIMATE, *PRIOR],
}


def _relative_change(old: str, new: str) -> float:
    try:
        x, y = float(old), float(new)
    except ValueError:
        return math.nan
    if x == y:
        return 0.0
    return abs(y - x) / abs(x) if x != 0 else math.inf


def _changed_cells(old: str, new: str) -> str:
    """Every cell where two CSV texts differ, then the largest relative change."""
    old_rows = list(csv.reader(io.StringIO(old)))
    new_rows = list(csv.reader(io.StringIO(new)))
    header = old_rows[0] if old_rows else []
    lines, largest = [], 0.0
    for r, (old_row, new_row) in enumerate(itertools.zip_longest(old_rows, new_rows, fillvalue=[])):
        for c, (a, b) in enumerate(itertools.zip_longest(old_row, new_row, fillvalue="<missing>")):
            if a != b:
                column = header[c] if c < len(header) else f"column {c}"
                change = _relative_change(a, b)
                lines.append(f"row {r}, {column}: {a} -> {b} (relative change {change:.3e})")
                if not math.isnan(change):
                    largest = max(largest, change)
    if not lines:
        return "no cell differs: the bytes differ in line endings or quoting"
    return "\n".join([*lines, f"{len(lines)} cells changed; largest relative change {largest:.3e}"])


@pytest.mark.parametrize("name", RUNS)
def test_cli_output_matches_its_golden_file(name, tmp_path):
    out = tmp_path / name
    assert cli.main([*RUNS[name], "--out", str(out)]) == 0
    expected, actual = (GOLDEN / name).read_bytes(), out.read_bytes()
    if actual != expected:
        pytest.fail(f"{name} differs from tests/golden/{name}:\n{_changed_cells(expected.decode(), actual.decode())}")


def test_every_golden_file_has_a_run():
    assert sorted(path.name for path in GOLDEN.glob("*.csv")) == sorted([*RUNS, *INPUTS])
    read = {Path(arg).name for args in RUNS.values() for arg in args}
    assert read >= set(INPUTS)


def test_golden_files_do_not_depend_on_the_blas_thread_count(tmp_path):
    # OpenBLAS reads its thread count when numpy loads, hence the child.
    code = (
        f"import sys\nfrom patrain import cli\nRUNS = {RUNS!r}\n"
        "for name, args in RUNS.items():\n"
        "    assert cli.main([*args, '--out', sys.argv[1] + '/' + name]) == 0\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "PYTHONPATH": path}
    subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env, check=True, timeout=60)
    for name in RUNS:
        expected, actual = (GOLDEN / name).read_bytes(), (tmp_path / name).read_bytes()
        if actual != expected:
            pytest.fail(f"{name} with 2 BLAS threads:\n{_changed_cells(expected.decode(), actual.decode())}")


def test_changed_cells_names_each_cell_and_the_largest_change():
    old = "amplitude,mse\n0,1\n0.5,2\n"
    new = "amplitude,mse\n0,1.5\n0.5,2.0000001\n"
    report = _changed_cells(old, new).splitlines()
    assert report[0] == "row 1, mse: 1 -> 1.5 (relative change 5.000e-01)"
    assert report[1].startswith("row 2, mse: 2 -> 2.0000001 ")
    assert report[-1] == "2 cells changed; largest relative change 5.000e-01"
    assert _changed_cells(old, old.replace("\n", "\r\n")).startswith("no cell differs")
    assert "<missing>" in _changed_cells(old, old + "1,3\n")
