"""One benchmark workload in a fresh process.

Imports qmetro from the checkout's ``src``, generates the workload's
inputs from the seed, then runs timed passes over the call list as a
closed loop with one client: each ``qmetro.cli.main`` call writes its CSV
to a temporary file, and only when it has returned is that file parsed
and checked and the next call made.  Only ``main`` itself is timed.
Passes repeat while another one, estimated by the last, fits in
``--seconds``.  The measurements go to ``--out`` as JSON for ``run.py``.

Usage: python3 perfbench/workload.py --workload W --seed N --seconds S
       --trace 0|1 --out FILE [--setup-only]
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / ".work"

# Importing qmetro is part of set-up, so it is timed here, before anything
# else the benchmark needs is loaded.
_import_start = time.perf_counter()
sys.path.insert(0, str(ROOT / "src"))
import numpy as np  # noqa: E402
import qmetro  # noqa: E402
from qmetro import cli  # noqa: E402

IMPORT_S = time.perf_counter() - _import_start

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


#: Least seconds between two samples of the reference kernel.
KERNEL_EVERY_S = 0.5

#: Median seconds of the reference kernel on the 2-core Xeon (2.0 GHz)
#: machine the benchmark was tuned on; times are reported at this speed.
REFERENCE_KERNEL_S = 0.045

_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4))
_SMALL = _SMALL + _SMALL.conj().T
_LARGE = _rng.standard_normal((384, 384)) + 1j * _rng.standard_normal((384, 384))
_LARGE = _LARGE + _LARGE.conj().T


def reference_kernel() -> float:
    """Seconds taken by fixed work that never touches qmetro.

    A shared machine runs the same code up to 1.5 times slower from one
    minute to the next.  The kernel does the two kinds of work qmetro
    spends its time on, small eigensolves and products driven from Python
    and a mid-size LAPACK eigensolve, so its time tracks the machine's
    current speed and measured times are rescaled by it.
    """
    start = time.perf_counter()
    for i in range(500):
        w, v = np.linalg.eigh(_SMALL + i * 1e-3 * np.eye(4))
        np.sum(np.abs(v @ np.diag(w) @ v.conj().T))
    np.linalg.eigvalsh(_LARGE)
    return time.perf_counter() - start


def speed_scale(samples: int) -> float:
    """REFERENCE_KERNEL_S over the median of ``samples`` kernel runs."""
    return REFERENCE_KERNEL_S / statistics.median(reference_kernel() for _ in range(samples))


def _blas_info() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


class Runner:
    """Runs and checks calls, counting attempts, failures and checks."""

    def __init__(self, calls, workdir):
        self.calls = calls
        self.workdir = workdir
        self.log = checks.CheckLog()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def call(self, call, tracer=None) -> float:
        """Run one call and check its output; return the seconds in main."""
        index = self.attempted
        self.attempted += 1
        out = os.path.join(self.workdir, f"call{index:04d}.csv")
        if tracer is not None:
            tracer.call_id = index
        start = time.perf_counter()
        try:
            code = cli.main([*call.argv, "--output", out])
        except Exception as exc:  # a crash is a failed call, not a dead benchmark
            elapsed = time.perf_counter() - start
            traceback.print_exc()
            failures = [f"exception:{type(exc).__name__}"]
        else:
            elapsed = time.perf_counter() - start
            failures = ["exit_code"] if code != 0 else self._check(call, out)
        if failures:
            self.failed += 1
            msg = f"FAIL call {index} {' '.join(call.argv)}: {','.join(failures)}"
            print(msg, file=sys.stderr)
            if len(self.failures) < 50:
                self.failures.append(msg)
        return elapsed

    def _check(self, call, out) -> list[str]:
        try:
            rows = checks.read_rows(out)
        except (OSError, KeyError, ValueError) as exc:
            return [f"unreadable_output:{type(exc).__name__}"]
        os.remove(out)
        return checks.check_call(call, rows, self.log)

    def passes(self, budget: float, tracer=None) -> list[dict]:
        """Whole passes while the next one, estimated by the last, fits in
        ``budget`` seconds; always at least one.  Between calls, at most
        every KERNEL_EVERY_S, the reference kernel samples the machine's
        speed.  A pass's times are scaled by REFERENCE_KERNEL_S over the
        median sample, so they read as at the reference speed;
        ``raw_wall_s`` keeps the pass time as measured."""
        records = []
        start = time.monotonic()
        while True:
            pass_start = time.monotonic()
            first_span = len(tracer.spans) if tracer is not None else 0
            times, kernel = [], [reference_kernel()]
            sampled = time.monotonic()
            for call in self.calls:
                times.append(self.call(call, tracer))
                if time.monotonic() - sampled >= KERNEL_EVERY_S:
                    kernel.append(reference_kernel())
                    sampled = time.monotonic()
            kernel_s = statistics.median(kernel)
            scale = REFERENCE_KERNEL_S / kernel_s
            record = {
                "wall_s": scale * sum(times),
                "calls_s": [scale * t for t in times],
                "raw_wall_s": sum(times),
                "kernel_s": kernel_s,
            }
            if tracer is not None:
                layers = tracing.layer_metrics(tracer.spans[first_span:])
                record["layers"] = {
                    k: scale * v if k.endswith("_s") else v for k, v in layers.items()
                }
            records.append(record)
            now = time.monotonic()
            if now - start + (now - pass_start) > budget:
                return records

    def traced(self, tracer, budget: float) -> list[dict]:
        tracer.install()
        try:
            return self.passes(budget, tracer)
        finally:
            tracer.uninstall()


def measure(args, runner: Runner) -> dict:
    out = {}
    if not args.trace:
        out["passes"] = runner.passes(args.seconds)
    else:
        # A third of the budget untraced, a third traced for times and
        # counts, then one pass with tracemalloc for the memory peaks (it
        # slows allocation-heavy code several times over).
        out["passes"] = runner.passes(args.seconds / 3)
        timing = tracing.Tracer()
        timed = runner.traced(timing, args.seconds / 3)
        memory = tracing.Tracer(memory=True)
        mem_pass = runner.traced(memory, 0.0)[0]
        layers = {
            k: statistics.median(rec["layers"][k] for rec in timed) for k in timed[0]["layers"]
        }
        layers.update(tracing.peak_metrics(memory.spans))
        base = statistics.median(rec["wall_s"] for rec in out["passes"])
        traced_wall = statistics.median(rec["wall_s"] for rec in timed)
        layers.update({
            "trace.untraced_wall_s": base,
            "trace.traced_wall_s": traced_wall,
            "trace.overhead_s": traced_wall - base,
            "trace.tracemalloc_overhead_s": mem_pass["wall_s"] - base,
        })
        out["layers"] = layers
        out["trace_file"] = write_spans(args, {"timing": timing.spans, "memory": memory.spans})
    out.update(
        attempted=runner.attempted, failed=runner.failed, failures=runner.failures,
        checks_ran=dict(runner.log.ran), checks_failed=dict(runner.log.failed),
    )
    return out


def write_spans(args, spans: dict) -> str:
    path = WORK / "traces" / f"{args.workload}-seed{args.seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    fields = ("id", "parent", "name", "call", "dur_s", "self_s", "peak_mb", "attrs")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": fields, **spans}, fh)
    return str(path.relative_to(ROOT))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    src = (ROOT / "src" / "qmetro").resolve()
    if Path(qmetro.__file__).resolve().parent != src:
        print(f"qmetro imported from {qmetro.__file__}, not from {src}", file=sys.stderr)
        return 2

    WORK.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        start = time.perf_counter()
        calls = WORKLOADS[args.workload](np.random.default_rng(args.seed), workdir)
        inputs_s = time.perf_counter() - start
        ready = time.monotonic()
        # Set-up is interpreter and import work, scaled like the passes.
        result = {"ready": ready, "setup_scale": speed_scale(3),
                  "import_s": IMPORT_S, "inputs_s": inputs_s}
        if not args.setup_only:
            result.update(measure(args, Runner(calls, workdir)))
            result["env"] = {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "blas": _blas_info(),
            }
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
