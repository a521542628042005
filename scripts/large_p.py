#!/usr/bin/env python3
"""Time the large-p CLI commands in two checkouts, and check their values.

  python3 scripts/large_p.py PARENT CHANGE --runs 5

PARENT and CHANGE are two source checkouts.  Each command runs ``--runs``
times in each checkout as its own ``python -m qmetro`` process, with the
checkout's ``src`` first on PYTHONPATH, one BLAS thread and no bytecode
cache (every ``__pycache__`` under the checkout is removed before a run,
and PYTHONDONTWRITEBYTECODE=1).  The sides alternate: at the first,
third, ... round the parent goes first, at the others the change.  The
time of a run is the wall time of its process, start-up included.

Every run's CSV must match the parent's first run of that command: the
same rows and the same columns, with ``value`` within a relative
VALUE_RTOL.  The summary gives per command each side's median seconds
with the lowest and highest run, the change of the medians, and the
rows that disagree.  It exits 1 when any run fails or any value
disagrees, else 0.

``--command "bounds --preset qubit3 --p 2 --bounds cp"`` (repeatable)
replaces the default commands, the large-p ones of ROADMAP.md.
"""

from __future__ import annotations

import argparse
import csv
import os
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

#: The large-p commands of ROADMAP.md.
COMMANDS = (
    "bounds --preset qubit3 --delta 0.5 --p 400 --bounds cp",
    "sweep --preset qubit3 --delta 0.5 --p 1-200 --bounds cp",
    "sweep --preset qubit3 --delta 0.5 --p 1-120 --bounds rld_cp",
    "bounds --preset qutrit8 --delta 0.1 --p 16 --bounds cp",
    "bounds --preset qutrit8 --delta 0.1 --p 20 --bounds cp",
)

#: Largest relative difference of a ``value`` between two runs.
VALUE_RTOL = 1e-12

THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_once(checkout: Path, command: str, out: Path) -> float:
    """Seconds of one ``python -m qmetro`` process of ``command`` in
    ``checkout``, from a clean bytecode state, its CSV written to ``out``."""
    for cache in list(checkout.rglob("__pycache__")):
        shutil.rmtree(cache)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **dict.fromkeys(THREADS, "1"))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(checkout / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])
    argv = [sys.executable, "-m", "qmetro", *shlex.split(command), "--output", str(out)]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: exit {proc.returncode} on {command}: "
                           f"{proc.stderr.strip()}")
    return seconds


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def disagreements(ref: list[dict], rows: list[dict]) -> list[str]:
    """What differs between two CSVs of one command: the row count, any
    column other than ``value``, or a ``value`` beyond VALUE_RTOL."""
    if len(ref) != len(rows):
        return [f"{len(rows)} rows against {len(ref)}"]
    found = []
    for i, (a, b) in enumerate(zip(ref, rows)):
        other = [key for key in a if key != "value" and a[key] != b.get(key)]
        x, y = float(a["value"]), float(b["value"])
        if other or abs(x - y) > VALUE_RTOL * max(abs(x), abs(y)):
            found.append(f"row {i} ({a['bound_name']} p={a['p']}): value {x!r} against "
                         f"{y!r}" + (f", {', '.join(other)} differ" if other else ""))
    return found


def compare(checkouts: dict[str, Path], commands: list[str], runs: int) -> tuple[list[str], bool]:
    """Alternating runs of every command (see the module docstring); the
    summary lines and whether every value agreed."""
    sides = list(checkouts)
    times = {command: {side: [] for side in sides} for command in commands}
    csvs = {command: {side: [] for side in sides} for command in commands}
    with tempfile.TemporaryDirectory() as workdir:
        out = Path(workdir) / "run.csv"
        for r in range(runs):
            for command in commands:
                for side in (sides if r % 2 == 0 else sides[::-1]):
                    out.unlink(missing_ok=True)
                    times[command][side].append(run_once(checkouts[side], command, out))
                    csvs[command][side].append(read_rows(out))
    lines, agreed = [], True
    for command in commands:
        ref = csvs[command][sides[0]][0]
        bad = [f"{side} run {r + 1}: {line}"
               for side in sides for r, rows in enumerate(csvs[command][side])
               for line in disagreements(ref, rows)]
        agreed = agreed and not bad
        parts = [f"{side} {statistics.median(ts):.3f} s [{min(ts):.3f}-{max(ts):.3f}]"
                 for side, ts in times[command].items()]
        old, new = (statistics.median(times[command][side]) for side in sides)
        verdict = f"{len(bad)} disagree" if bad else f"values agree ({len(ref)} rows)"
        lines.append(f"{command}\n  {'  '.join(parts)}  {(new - old) / old:+.1%}  {verdict}")
        lines += [f"    {line}" for line in bad]
    return lines, agreed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--runs", type=int, default=5, help="runs per command and side")
    ap.add_argument("--command", action="append", dest="commands", metavar="ARGS",
                    help="one qmetro command line (repeatable); the default is COMMANDS")
    args = ap.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    lines, agreed = compare(checkouts, args.commands or list(COMMANDS), args.runs)
    print("\n".join(lines))
    return 0 if agreed else 1


if __name__ == "__main__":
    sys.exit(main())
