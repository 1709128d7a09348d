"""The names the benchmark's tracer wraps must exist in logevo.

perfbench/tracing.py patches these functions and methods from outside the
program, so a rename would otherwise show up only when the benchmark runs.
"""

import functools
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, attr) for module, attr, _ in tracing.TARGETS]


@pytest.mark.parametrize("module, attr", _targets())
def test_traced_target_resolves(module, attr):
    target = functools.reduce(getattr, attr.split("."), importlib.import_module(module))
    assert callable(target)
