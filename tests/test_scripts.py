from __future__ import annotations

import csv
import io
import json
import math
import os
import re
import runpy
import sys

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
    # One seed of the robustness scan: 36 runs, none raising; the two at
    # d = 2, n = 3 (W = F_Q and W = I) end in the closed form.
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
    assert counts["closed form"] == 2
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


FAKE_RUN = """
import json, os, pathlib, sys
here = pathlib.Path.cwd()
seed = int(sys.argv[sys.argv.index("--seed") + 1])
with open(here.parent / "order.log", "a") as fh:
    fh.write(f"{here.name} {seed}\\n")
clean = os.environ.get("PYTHONDONTWRITEBYTECODE") == "1" and not any(here.rglob("__pycache__"))
metrics = {"wall_s": (0.2 if here.name == "change" else 0.25) + seed * 1e-3,
           "call_p50_ms": 1.0, "call_p90_ms": 2.0, "peak_rss_mb": 40.0,
           "passed_frac": 1.0, "setup_s": 0.3 if clean else 9.0}
print("env line")
print(json.dumps({"failed": 0, "metrics": {k: {"value": v} for k, v in metrics.items()}}))
"""


def test_ab_pairs_alternates_from_a_clean_bytecode_state(tmp_path, capsys):
    tool = runpy.run_path(os.path.join(SCRIPTS, "ab_pairs.py"))
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(FAKE_RUN)
        (tmp_path / side / "src" / "__pycache__").mkdir(parents=True)
    out = tmp_path / "runs.jsonl"
    assert tool["main"]([str(tmp_path / "parent"), str(tmp_path / "change"),
                         "--workload", "scan-small", "--seconds", "1", "--seeds", "1-3",
                         "--out", str(out)]) == 0
    order = (tmp_path / "order.log").read_text().split("\n")[:-1]
    assert order == ["parent 1", "change 1", "change 2", "parent 2", "parent 3", "change 3"]
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 6 and all(r["setup_s"] == 0.3 for r in records)
    assert not any(tmp_path.rglob("__pycache__"))
    summary = capsys.readouterr().out.splitlines()[-7:]
    assert summary[0] == "scan-small: 3 pairs"
    assert "-19.8%  change better in 3 of 3" in summary[1] and "wall_s" in summary[1]
    assert "change better in 0 of 3" in summary[2]  # ties count for neither
    assert tool["main"](["--summarize", str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == summary


def _drop_side_packages():
    for name in [m for m in sys.modules if m.split(".")[0] in ("qmetro_parent", "qmetro_change")]:
        del sys.modules[name]


def test_ab_pairs_in_process_a_a(monkeypatch, capsys):
    # The same checkout on both sides: two packages of their own in this
    # process, both timed in every round.
    tool = runpy.run_path(os.path.join(SCRIPTS, "ab_pairs.py"))
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    monkeypatch.setattr(sys, "path", list(sys.path))
    _drop_side_packages()
    try:
        assert tool["main"]([root, root, "--in-process", "--workload", "dense-ladder",
                             "--seeds", "1-3"]) == 0
        clis = [sys.modules[f"qmetro_{side}.cli"] for side in ("parent", "change")]
        assert clis[0].main is not clis[1].main
    finally:
        _drop_side_packages()
    head, line = capsys.readouterr().out.splitlines()
    assert head == "dense-ladder: 3 in-process rounds"
    match = re.fullmatch(r"  pass_s: parent \S+ \[\S+\]  change \S+ \[\S+\]  "
                         r"median ratio (\S+)  change faster in (\d) of 3", line)
    assert match and 0.5 < float(match[1]) < 2.0


def test_large_p_times_two_small_commands(capsys):
    # The same checkout on both sides: every run of a command gives the
    # same rows, and each side is timed once per round.
    tool = runpy.run_path(os.path.join(SCRIPTS, "large_p.py"))
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    commands = ["bounds --preset qubit3 --delta 0.5 --p 2 --bounds cp",
                "sweep --preset qutrit8 --delta 0.1 --p 1-2 --bounds cp,rld_cp"]
    argv = [root, root, "--runs", "2"]
    for command in commands:
        argv += ["--command", command]
    assert tool["main"](argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [lines[0], lines[2]] == commands
    assert "values agree (1 rows)" in lines[1] and "values agree (6 rows)" in lines[3]
    for line in (lines[1], lines[3]):
        assert re.match(r"  parent \d+\.\d{3} s \[[\d.]+-[\d.]+\]  change \d+\.\d{3} s", line)


FAKE_CLI = """
import os, pathlib, sys
here = pathlib.Path.cwd()
with open(here.parent / "order.log", "a") as fh:
    fh.write(here.name + "\\n")
clean = os.environ.get("PYTHONDONTWRITEBYTECODE") == "1" and not any(here.rglob("__pycache__"))
if not clean or os.environ.get("OPENBLAS_NUM_THREADS") != "1":
    sys.exit(3)
value = 2.5 * (1 + (1e-9 if here.name == "change" else 1e-13))
out = sys.argv[sys.argv.index("--output") + 1]
with open(out, "w") as fh:
    fh.write("scenario,delta,p,bound_name,value,tightest,meta\\n")
    fh.write(f"qubit3,0.5,2,cp,{value!r},true,{{}}\\n")
"""


def test_large_p_alternates_and_catches_a_moved_value(tmp_path, capsys):
    tool = runpy.run_path(os.path.join(SCRIPTS, "large_p.py"))
    for side in ("parent", "change"):
        package = tmp_path / side / "src" / "qmetro"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text("")
        (package / "__main__.py").write_text(FAKE_CLI)
        (package / "__pycache__").mkdir()
    assert tool["main"]([str(tmp_path / "parent"), str(tmp_path / "change"), "--runs", "3",
                         "--command", "bounds --p 2"]) == 1
    order = (tmp_path / "order.log").read_text().split()
    assert order == ["parent", "change", "change", "parent", "parent", "change"]
    out = capsys.readouterr().out
    # every run was clean and on one thread (the fake exits 3 otherwise),
    # and every change run is 1e-9 away from the parent's first
    assert "3 disagree" in out and out.count("change run") == 3 and "parent run" not in out
