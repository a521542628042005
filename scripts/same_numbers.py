#!/usr/bin/env python3
"""Dump the CSV of every benchmark call, and diff two such dumps.

  python3 scripts/same_numbers.py --dump new.json
  python3 scripts/same_numbers.py --diff old.json new.json

``--dump`` runs every call of the benchmark workloads (the call lists of
``perfbench/workloads.py``, seeds 1-3 unless ``--seeds`` or
``--workloads`` narrow them) through ``qmetro.cli.main`` of this checkout
and saves each call's exit code and CSV text as one JSON file.

``--diff`` compares two dumps call by call.  It prints every call whose
exit code or row count differs, then per CSV column and per meta key the
number of rows that differ and the largest relative change among them,
and lists the differing rows of ``value`` and ``tightest``.  It exits 1
when any exit code, row count, ``value`` or ``tightest`` differs, else 0.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import tempfile
from contextlib import redirect_stderr
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

from qmetro import cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Columns whose change fails ``--diff``.
STRICT = ("value", "tightest")


def dump(path: str, workloads: list[str], seeds: list[int]) -> int:
    calls = {}
    with tempfile.TemporaryDirectory() as workdir:
        for name in workloads:
            for seed in seeds:
                for i, call in enumerate(WORKLOADS[name](np.random.default_rng(seed), workdir)):
                    out = Path(workdir) / "call.csv"
                    out.unlink(missing_ok=True)
                    with redirect_stderr(io.StringIO()):
                        code = cli.main([*call.argv, "--output", str(out)])
                    text = out.read_text(encoding="utf-8") if out.exists() else ""
                    calls[f"{name}/{seed}/{i:03d}"] = {
                        "argv": list(call.argv), "exit": code, "csv": text,
                    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(calls, fh, indent=1, sort_keys=True)
    print(f"{len(calls)} calls written to {path}")
    return 0


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _relative(a, b) -> float:
    """|a - b| / max(|a|, |b|) for two numbers, 1.0 for anything else
    that differs, 0.0 for equal values."""
    if a == b:
        return 0.0
    try:
        x, y = float(a), float(b)
    except (TypeError, ValueError):
        return 1.0
    if isinstance(a, bool) or isinstance(b, bool) or not (math.isfinite(x) and math.isfinite(y)):
        return 1.0
    scale = max(abs(x), abs(y))
    return abs(x - y) / scale if scale else 0.0


def diff(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)
    bad = 0
    for key in sorted(set(a) ^ set(b)):
        print(f"{key}: only in {'A' if key in a else 'B'}")
        bad += 1
    changed: dict[str, list[tuple]] = {}  # column -> (call, row, relative, old, new)
    for key in sorted(set(a) & set(b)):
        ca, cb = a[key], b[key]
        if ca["exit"] != cb["exit"]:
            print(f"{key}: exit code {ca['exit']} -> {cb['exit']}")
            bad += 1
        ra, rb = _rows(ca["csv"]), _rows(cb["csv"])
        if len(ra) != len(rb):
            print(f"{key}: {len(ra)} rows -> {len(rb)} rows")
            bad += 1
            continue
        for i, (x, y) in enumerate(zip(ra, rb)):
            meta_x = json.loads(x.pop("meta", "{}") or "{}")
            meta_y = json.loads(y.pop("meta", "{}") or "{}")
            fields = [(col, x.get(col), y.get(col)) for col in x.keys() | y.keys()]
            fields += [(f"meta.{k}", meta_x.get(k), meta_y.get(k))
                       for k in meta_x.keys() | meta_y.keys()]
            for col, u, v in fields:
                if u != v:
                    changed.setdefault(col, []).append((key, i, _relative(u, v), u, v))
    calls = len(set(a) & set(b))
    print(f"{calls} calls compared")
    for col in sorted(changed):
        rows = changed[col]
        largest = max(r[2] for r in rows)
        print(f"{col}: {len(rows)} rows differ, largest relative change {largest:.3e}")
        if col in STRICT:
            bad += len(rows)
            for key, i, rel, u, v in rows:
                print(f"  {key} row {i}: {u} -> {v} (relative {rel:.3e})")
    if not changed:
        print("every column and meta key is identical")
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--dump", metavar="FILE", help="run the benchmark calls, save their CSVs")
    mode.add_argument("--diff", nargs=2, metavar=("A", "B"), help="compare two dumps")
    ap.add_argument("--workloads", default=",".join(WORKLOADS),
                    help="comma list of workloads to dump (default: all)")
    ap.add_argument("--seeds", default="1,2,3", help="comma list of seeds to dump")
    args = ap.parse_args(argv)
    if args.diff:
        return diff(*args.diff)
    workloads = args.workloads.split(",")
    unknown = set(workloads) - set(WORKLOADS)
    if unknown:
        ap.error(f"unknown workloads {sorted(unknown)}")
    return dump(args.dump, workloads, [int(s) for s in args.seeds.split(",")])


if __name__ == "__main__":
    sys.exit(main())
