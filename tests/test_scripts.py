from __future__ import annotations

import csv
import io
import json
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


def test_same_numbers_diffs_a_dump_against_itself(tmp_path, capsys):
    # One dense-ladder seed (4 sweeps) dumped, then compared with itself
    # and with a copy whose first value row is moved.
    tool = runpy.run_path(os.path.join(SCRIPTS, "same_numbers.py"))
    dump = tmp_path / "dump.json"
    assert tool["main"](["--dump", str(dump), "--workloads", "dense-ladder", "--seeds", "1"]) == 0
    calls = json.loads(dump.read_text())
    assert len(calls) == 4 and all(c["exit"] == 0 and c["csv"] for c in calls.values())
    capsys.readouterr()
    assert tool["main"](["--diff", str(dump), str(dump)]) == 0
    out = capsys.readouterr().out
    assert "4 calls compared" in out and "every column and meta key is identical" in out

    key = sorted(calls)[0]
    lines = calls[key]["csv"].splitlines()
    row = next(csv.reader([lines[1]]))
    value = float(row[4])
    row[4] = format(value * (1 + 1e-9), ".12g")
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow(row)
    calls[key]["csv"] = "\n".join([lines[0], buf.getvalue(), *lines[2:]]) + "\n"
    moved = tmp_path / "moved.json"
    moved.write_text(json.dumps(calls))
    assert tool["main"](["--diff", str(dump), str(moved)]) == 1
    out = capsys.readouterr().out
    assert "value: 1 rows differ" in out and f"{key} row 0" in out
