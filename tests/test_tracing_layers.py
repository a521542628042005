"""The benchmark tracer wraps functions by name; each must still exist,
and the counts it reads off their arguments must still be there."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    # perfbench/ is a directory of scripts, not a package: load by path.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "module_name, fn_name",
    [(m, fn) for m, fns in _tracing().LAYERS.items() for fn in fns],
)
def test_traced_function_exists(module_name, fn_name):
    assert callable(getattr(importlib.import_module(module_name), fn_name, None))


def test_traced_run_reports_counts(tmp_path):
    # The tracer reads T_p's p and sample count by argument position, so
    # a signature change must fail here, not only in a traced benchmark.
    from qmetro import cli

    tracing = _tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main([
            "bounds", "--preset", "qubit3", "--p", "1-4", "--bounds", "cp,tp,tp_mc,fbar",
            "--mc-samples", "100", "--output", str(tmp_path / "out.csv"),
        ])
    finally:
        tracer.uninstall()
    assert code == 0
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["tensor.compute_fbar_im.calls"] > 0
    assert metrics["tensor.compute_tp_exact.occupations"] > 0
    assert metrics["tensor.compute_tp_monte_carlo.samples"] > 0
