from __future__ import annotations

import math
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


def test_descent_demo_scan_counts_every_run(capsys):
    # One seed of the robustness scan: 36 runs, none raising.
    demo = runpy.run_path(os.path.join(SCRIPTS, "holevo_descent_demo.py"))
    demo["main"](["--scan", "1"])
    out = capsys.readouterr().out
    counts = {
        key.strip(): float(value.split()[0])
        for key, value in (line.split(":", 1) for line in out.splitlines())
    }
    assert counts["runs"] == 36
    assert counts["converged"] + counts["not converged"] == 36
    assert counts["raised"] == 0
    assert counts["Newton steps"] > 0
    assert math.isfinite(counts["largest gap (not converged)"])
    assert counts["largest gap (not converged)"] >= 0.0
