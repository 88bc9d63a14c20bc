"""Every entry point the benchmark's tracer wraps exists in the package.

``perfbench/spans.py`` patches package functions by module and name, and a
name it no longer finds records no span, which fails only the traced
benchmark run. This test loads that file unchanged and checks each name.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
_spec = importlib.util.spec_from_file_location("perfbench_spans", _PATH)
spans = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)  # dataclasses need it
_spec.loader.exec_module(spans)


@pytest.mark.parametrize("module, attr", sorted(
    {(module, attr) for module, attr, _, _ in spans.TREE_POINTS + spans.RAG_POINTS}))
def test_traced_entry_point_exists_and_is_callable(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))
