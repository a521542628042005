"""The benchmark tracer wraps functions by name; each must still exist."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _layers() -> dict[str, tuple[str, ...]]:
    # perfbench/ is a directory of scripts, not a package: load by path.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize(
    "module_name, fn_name",
    [(m, fn) for m, fns in _layers().items() for fn in fns],
)
def test_traced_function_exists(module_name, fn_name):
    assert callable(getattr(importlib.import_module(module_name), fn_name, None))
