from __future__ import annotations

import os
import runpy

import pytest

SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")


@pytest.mark.parametrize("strategy", ["holevo", "nagaoka"])
def test_descent_demo_prints_certified_interval(strategy, capsys):
    demo = runpy.run_path(os.path.join(SCRIPTS, "holevo_descent_demo.py"))
    demo["main"](["--dim", "2", "--n", "2", "--seed", "3", "--strategy", strategy])
    out = capsys.readouterr().out
    assert f"strategy        : {strategy}" in out
    interval = out.split("[h, f]          : [")[1].split("]")[0]
    h, f = (float(v) for v in interval.split(","))
    assert h <= f
    assert "gap f - h" in out
