"""The README's Library example, run as it is written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    # The D-optimal allocation meets the minimax bound sigma2 * L / N.
    assert namespace["worst"] == pytest.approx(0.01 * 5 / 10)


def test_readme_names_no_private_symbol():
    # An identifier or a dotted component that starts with "_", such as
    # `_Factor` or `estimators._max_plan`, is internal and may change freely.
    private = re.findall(r"(?<!\w)_+[A-Za-z]\w*", README.read_text(encoding="utf-8"))
    assert private == []
