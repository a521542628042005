#!/usr/bin/env python3
"""Run alternating parent/change pairs of the benchmark, and summarize them.

  python3 scripts/ab_pairs.py PARENT CHANGE --workload scan-small \\
      --seconds 36 --seeds 71-80 --out runs.jsonl

PARENT and CHANGE are two source checkouts.  For each seed, one pair of
``perfbench/run.py --workload W --seed S --seconds T --trace 0`` runs is
made, one in each checkout; the parent goes first at the first, third, ...
seed and the change at the others.  Before each run every ``__pycache__``
under the checkout is removed, and the run has PYTHONDONTWRITEBYTECODE=1,
so both sides compile their sources at start-up the same way: a stale
bytecode cache on one side moves ``setup_s`` by a fifth with no code change.

Every run is appended to ``--out`` as one JSON line.  The summary gives,
per end-to-end metric of BENCHMARK.json, each side's median and quartiles,
the change of the medians, and in how many pairs the change reads better
(ties count for neither side).  ``--summarize FILE`` prints the summary of
runs already made.

  python3 scripts/ab_pairs.py PARENT CHANGE --in-process --workload dense-ladder \\
      --seeds 1-40

``--in-process`` loads each checkout's ``src/qmetro`` under a package
name of its own (``qmetro_parent``, ``qmetro_change``) into this one
process, and times whole passes of the workload's call list through each
side's ``cli.main``, with every call's CSV written to a temporary file.
After one untimed warm-up pass per side, each seed is one round: one
timed pass per side on that seed's call list, the parent first at the
first, third, ... seed and the change at the others.  It prints both
sides' median pass seconds with quartiles, the median of the per-round
change/parent ratios, and in how many rounds the change was faster.
On a shared 2-vCPU machine, 40 rounds read A/A ratios of 1.001 to
1.008 on dense-ladder, but repeats of one scan-small comparison read
0.897 to 0.972: repeats spread by several %, so this mode shows
the direction of a change, and the process-level pairs carry any claim.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(checkout: Path, workload: str, seed: int, seconds: str) -> dict:
    """One benchmark run in ``checkout`` from a clean bytecode state; the
    metrics of its result line, with the failed-call count."""
    for cache in list(checkout.rglob("__pycache__")):
        shutil.rmtree(cache)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", seconds, "--trace", "0"],
        cwd=checkout, env=env, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return dict(metrics, failed=result["failed"])


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(records: list[dict], end_to_end: list[dict]) -> list[str]:
    """One line per (workload, metric): medians, quartiles, wins."""
    lines = []
    for workload in dict.fromkeys(r["workload"] for r in records):
        runs = {side: {r["seed"]: r for r in records
                       if r["workload"] == workload and r["side"] == side}
                for side in ("parent", "change")}
        seeds = sorted(runs["parent"].keys() & runs["change"].keys())
        lines.append(f"{workload}: {len(seeds)} pairs")
        for metric in end_to_end:
            if not seeds:
                break
            name, sign = metric["name"], (1.0 if metric["better"] == "lower" else -1.0)
            old = [runs["parent"][s][name] for s in seeds]
            new = [runs["change"][s][name] for s in seeds]
            wins = sum(sign * (b - a) < 0 for a, b in zip(old, new))
            (o1, om, o3), (n1, nm, n3) = _quartiles(old), _quartiles(new)
            rel = (nm - om) / om if om else 0.0
            lines.append(
                f"  {name}: parent {om:.4g} [{o1:.4g}-{o3:.4g}]  change {nm:.4g} "
                f"[{n1:.4g}-{n3:.4g}]  {rel:+.1%}  change better in {wins} of {len(seeds)}"
            )
    return lines


def load_side(checkout: Path, side: str):
    """``qmetro.cli`` of ``checkout``, its package loaded as ``qmetro_<side>``
    (qmetro imports its own modules relatively, so the two sides share none)."""
    name = f"qmetro_{side}"
    package = checkout / "src" / "qmetro"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def timed_pass(cli, argvs: list[tuple], out: str) -> float:
    """Seconds in ``cli.main`` over one pass of the call list; a call that
    fails stops the comparison, since it would read as fast.  Each call
    writes a new file, removed untimed after it, as in the benchmark:
    truncating an existing file can cost more than the call itself."""
    total = 0.0
    for argv in argvs:
        with contextlib.redirect_stderr(io.StringIO()) as err:
            start = time.perf_counter()
            code = cli.main([*argv, "--output", out])
            total += time.perf_counter() - start
        if os.path.exists(out):
            os.remove(out)
        if code != 0:
            raise RuntimeError(f"{cli.__name__} exited {code} on {' '.join(argv)}: "
                               f"{err.getvalue().strip()}")
    return total


def in_process(checkouts: list[Path], workload: str, seeds: list[int]) -> list[str]:
    """Alternating in-process passes of both sides (see the module
    docstring); the summary lines."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import numpy as np
    from workloads import WORKLOADS

    clis = {side: load_side(checkout.resolve(), side)
            for side, checkout in zip(("parent", "change"), checkouts)}
    times: dict[str, list[float]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as workdir:
        argvs = [[call.argv for call in WORKLOADS[workload](np.random.default_rng(seed), workdir)]
                 for seed in seeds]
        out = os.path.join(workdir, "call.csv")
        for cli in clis.values():
            timed_pass(cli, argvs[0], out)
        for i, seed_argvs in enumerate(argvs):
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                times[side].append(timed_pass(clis[side], seed_argvs, out))
    (o1, om, o3), (n1, nm, n3) = _quartiles(times["parent"]), _quartiles(times["change"])
    ratios = [b / a for a, b in zip(times["parent"], times["change"])]
    wins = sum(b < a for a, b in zip(times["parent"], times["change"]))
    return [
        f"{workload}: {len(seeds)} in-process rounds",
        f"  pass_s: parent {om:.4g} [{o1:.4g}-{o3:.4g}]  change {nm:.4g} [{n1:.4g}-{n3:.4g}]  "
        f"median ratio {statistics.median(ratios):.3f}  change faster in {wins} of {len(seeds)}",
    ]


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("checkouts", nargs="*", metavar="PARENT CHANGE")
    ap.add_argument("--workload")
    ap.add_argument("--seconds", default="36")
    ap.add_argument("--seeds", default="1-10", help="a range lo-hi or a comma list")
    ap.add_argument("--out", default="ab_runs.jsonl", help="JSON lines of every run")
    ap.add_argument("--summarize", metavar="FILE", help="summarize the runs of FILE only")
    ap.add_argument("--in-process", dest="in_process", action="store_true",
                    help="alternate whole passes of both sides in this process")
    args = ap.parse_args(argv)
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    if args.summarize:
        records = [json.loads(line) for line in Path(args.summarize).read_text().splitlines()]
        print("\n".join(summarize(records, end_to_end)))
        return 0
    if len(args.checkouts) != 2 or not args.workload:
        ap.error("give PARENT and CHANGE checkouts and --workload, or --summarize FILE")
    if args.in_process:
        lines = in_process([Path(c) for c in args.checkouts], args.workload, _seeds(args.seeds))
        print("\n".join(lines))
        return 0
    sides = [("parent", Path(args.checkouts[0])), ("change", Path(args.checkouts[1]))]
    records = []
    for i, seed in enumerate(_seeds(args.seeds)):
        for side, checkout in (sides if i % 2 == 0 else sides[::-1]):
            record = dict(workload=args.workload, seed=seed, side=side,
                          **run_once(checkout.resolve(), args.workload, seed, args.seconds))
            records.append(record)
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record) + "\n")
            print(json.dumps(record), flush=True)
    print("\n".join(summarize(records, end_to_end)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
