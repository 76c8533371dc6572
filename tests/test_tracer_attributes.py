"""The benchmark's tracer (``perfbench/spans.py``) wraps patrain attributes by
module and name, listed in its ``WRAPPED`` table.  A rename or removal that
breaks traced benchmark runs fails here first.  This test goes away together
with ``WRAPPED``."""

import importlib.util
from pathlib import Path

import patrain
import patrain.cli

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_attribute_resolves_and_is_restored():
    spans = _load_spans()
    targets = [(module, attribute) for module, attribute, _, _ in spans.WRAPPED]
    originals = [getattr(*spans._resolve(patrain, *target)) for target in targets]
    assert all(callable(original) for original in originals)
    with spans.installed(spans.Tracer(), patrain, op=0):
        wrapped = [getattr(*spans._resolve(patrain, *target)) for target in targets]
    assert all(new is not old for new, old in zip(wrapped, originals))
    assert [getattr(*spans._resolve(patrain, *target)) for target in targets] == originals
