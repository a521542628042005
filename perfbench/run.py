"""Benchmark launcher for qmetro.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Runs from the root of a source checkout.  It pins the BLAS thread pools
to one thread, starts the workload in a fresh process
(``perfbench/workload.py``), and with ``--trace 0`` also starts the
workload's set-up alone a few more times to take the median set-up time.
It prints an environment record, the count of every correctness check,
and as the last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Workloads:
dense-ladder, holevo, scan-small (see perfbench/README.md).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / ".work"
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: Set-up-only processes started besides the measured one (--trace 0).
SETUP_PROBES = 6

#: Wall-clock limit of the whole launcher.
DEADLINE_S = 170.0


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qmetro").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _run_workload(args, extra, deadline) -> tuple[float, dict]:
    """Start workload.py; return (monotonic start time, its JSON result)."""
    fd, out = tempfile.mkstemp(suffix=".json", dir=WORK)
    os.close(fd)
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out, *extra,
    ]
    env = dict(os.environ, **PINNED)
    try:
        start = time.monotonic()
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=sys.stderr,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        if proc.returncode != 0:
            raise SystemExit(f"workload process exited with code {proc.returncode}")
        with open(out, encoding="utf-8") as fh:
            return start, json.load(fh)
    finally:
        os.remove(out)


def _quantile(values, q) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(res: dict, setups: list[float]) -> dict:
    # A call's latency is its median over the passes; the percentiles run
    # over the call list.  Pooling single calls instead lets one slow
    # moment of a shared machine set p90 on a short call list.
    per_call = zip(*(rec["calls_s"] for rec in res["passes"]))
    calls_ms = [1000.0 * statistics.median(times) for times in per_call]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(rec["wall_s"] for rec in res["passes"]), "s"),
        "call_p50_ms": (_quantile(calls_ms, 50), "ms"),
        "call_p90_ms": (_quantile(calls_ms, 90), "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MiB"),
        "passed_frac": ((res["attempted"] - res["failed"]) / res["attempted"], "ratio"),
    }


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def per_layer(res: dict) -> dict:
    out = dict(res["layers"], **{"setup.import_s": res["import_s"],
                                 "setup.inputs_s": res["inputs_s"]})
    return {k: (v, _unit(k)) for k, v in out.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "qmetro" / "__init__.py").is_file():
        print(f"no qmetro sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)

    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            start, probe = _run_workload(args, ["--setup-only"], deadline)
            setups.append((probe["ready"] - start) * probe["setup_scale"])
    start, res = _run_workload(args, [], deadline)
    setups.append((res["ready"] - start) * res["setup_scale"])

    env = dict(
        res["env"], nproc=os.cpu_count(), git_sha=_git_sha(), src_sha256=_source_digest(),
        pinned=PINNED, workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=args.trace,
    )
    print(json.dumps({"env": env}))
    print(json.dumps({"checks_ran": res["checks_ran"], "checks_failed": res["checks_failed"],
                      "passes": len(res["passes"]), "trace_file": res.get("trace_file")}))
    print(json.dumps({"as_measured": {
        "wall_s": statistics.median(rec["raw_wall_s"] for rec in res["passes"]),
        "reference_kernel_s": statistics.median(rec["kernel_s"] for rec in res["passes"]),
    }}))
    for msg in res["failures"]:
        print(msg)
    metrics = per_layer(res) if args.trace else end_to_end(res, setups)
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    # On SIGTERM unwind through subprocess.run, which kills and reaps the
    # workload process instead of leaving it running.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        sys.exit(main())
    except subprocess.TimeoutExpired:
        print("workload exceeded the launcher's time limit", file=sys.stderr)
        sys.exit(3)
