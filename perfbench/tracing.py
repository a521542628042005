"""Outside-in span recording around the public functions of qmetro's layers.

:class:`Tracer` replaces each listed function by a wrapper in every
``qmetro`` module namespace that holds it, which is where its callers
look it up (``qmetro.report.compute_cp``, ``qmetro.cli.build_report``,
``qmetro.linalg.eigh`` for calls inside ``linalg`` ...).  A wrapper
records one span: name, enclosing call, parent span, duration, self
time (duration minus the time of its child spans), for tensor spans the
tracemalloc peak of the memory allocated inside it, and a few counts read
off its arguments or result.  Spans stay in memory until the benchmark writes
them out.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc

import numpy as np

from qmetro.tensor import composition_count

#: Traced functions per layer module.
LAYERS = {
    "qmetro.cli": ("main",),
    "qmetro.states": ("evaluate", "family_from_dict"),
    "qmetro.logderiv": ("sld_analysis", "compute_rld", "compute_rld_fisher"),
    "qmetro.report": ("build_report", "best_fbar"),
    "qmetro.tensor": (
        "build_collective", "compute_cp", "compute_cp_rld", "compute_fbar_im",
        "compute_tp_exact", "compute_tp_monte_carlo", "limit_fim",
    ),
    "qmetro.bounds": (
        "cp_bound", "tp_bound", "fbar_bound", "rld_cp_bound", "rld_standard_bound",
        "pure_state_bound", "gamma_inf_lower", "gamma_inf_upper", "reference_bounds",
        "saturation_check",
    ),
    "qmetro.variational": ("minimize_bound",),
    "qmetro.linalg": ("eigh", "trace_norm", "sqrt_psd", "inv_sqrt_psd", "pinv_psd", "kron_power"),
}

MIB = float(1 << 20)

# Span fields, stored as tuples to keep a long holevo pass small.  A span
# is appended when it ends, so children precede their parent; ID and
# PARENT link them.
ID, PARENT, NAME, CALL, DUR, SELF, PEAK, ATTRS = range(8)


def _attrs(name: str, args: tuple, result) -> dict | None:
    """Counts taken at the span boundary."""
    if name.startswith("linalg."):
        return {"dim": int(np.shape(args[0])[0])}
    if name == "tensor.compute_cp":
        return {"p": int(args[0].p)}
    if name == "tensor.compute_tp_exact":
        return {"occupations": composition_count(int(args[2]), int(args[0].support_rank))}
    if name == "tensor.compute_tp_monte_carlo":
        n = len(args[1])
        return {"samples": int(args[3]) * n * (n - 1) // 2}
    if name == "variational.minimize_bound":
        return {"iterations": int(result.iterations), "converged": bool(result.converged)}
    return None


class Tracer:
    """Span recorder; with ``memory`` tensor spans also keep their
    tracemalloc peak, at the price of slowing every allocation in them."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[tuple] = []
        self.call_id = -1
        self._stack: list[list] = []
        self._next_id = 0
        self._patched: list[tuple] = []

    def install(self) -> None:
        """Wrap every listed function wherever a qmetro module holds it."""
        modules = [m for k, m in sorted(sys.modules.items()) if k.split(".")[0] == "qmetro"]
        for mod_name, fns in LAYERS.items():
            layer = sys.modules[mod_name]
            for fn_name in fns:
                original = getattr(layer, fn_name)
                wrapper = self._wrap(f"{mod_name.split('.')[1]}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn):
        stack = self._stack
        spans = self.spans
        measure_memory = self.memory and name.startswith("tensor.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [self._next_id, 0.0]  # span id, time in child spans
            self._next_id += 1
            stack.append(frame)
            # tracemalloc runs only inside the outermost tensor span.
            owns_memory = measure_memory and not tracemalloc.is_tracing()
            if owns_memory:
                tracemalloc.start()
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dur = time.perf_counter() - start
                peak = None
                if owns_memory:
                    peak = tracemalloc.get_traced_memory()[1] / MIB
                    tracemalloc.stop()
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                attrs = _attrs(name, args, result) if result is not None else None
                spans.append(
                    (frame[0], parent, name, self.call_id, dur, dur - frame[1], peak, attrs)
                )

        return wrapper


def _self(spans, name) -> float:
    return float(sum(s[SELF] for s in spans if s[NAME] == name))


def _attr_sum(spans, name, key) -> float:
    return float(sum(s[ATTRS][key] for s in spans if s[NAME] == name and s[ATTRS]))


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer quantities of one traced pass.

    Self times and counts are totals over the pass.  A layer the
    workload never calls reads 0.
    """
    m: dict[str, float] = {}
    for name in (
        "cli.main", "report.build_report", "report.best_fbar", "states.evaluate",
        "logderiv.sld_analysis", "tensor.compute_cp", "tensor.compute_cp_rld",
        "tensor.compute_fbar_im", "tensor.compute_tp_exact", "tensor.compute_tp_monte_carlo",
        "variational.minimize_bound", "linalg.trace_norm", "linalg.eigh",
    ):
        m[f"{name}.self_s"] = _self(spans, name)
    m["bounds.self_s"] = float(sum(s[SELF] for s in spans if s[NAME].startswith("bounds.")))
    m["logderiv.rld.self_s"] = _self(spans, "logderiv.compute_rld") + _self(
        spans, "logderiv.compute_rld_fisher"
    )

    # compute_cp time at the last p of each ladder (each call's largest p).
    top: dict[int, tuple[int, float]] = {}
    for s in spans:
        if s[NAME] == "tensor.compute_cp" and s[ATTRS]:
            p, t = top.get(s[CALL], (0, 0.0))
            if s[ATTRS]["p"] > p:
                top[s[CALL]] = (s[ATTRS]["p"], s[DUR])
            elif s[ATTRS]["p"] == p:
                top[s[CALL]] = (p, t + s[DUR])
    m["tensor.compute_cp.top_p_s"] = float(sum(t for _, t in top.values()))

    m["tensor.compute_fbar_im.calls"] = float(
        sum(1 for s in spans if s[NAME] == "tensor.compute_fbar_im")
    )
    m["tensor.compute_tp_exact.occupations"] = _attr_sum(
        spans, "tensor.compute_tp_exact", "occupations"
    )
    m["tensor.compute_tp_monte_carlo.samples"] = _attr_sum(
        spans, "tensor.compute_tp_monte_carlo", "samples"
    )
    solves = [s[ATTRS] for s in spans if s[NAME] == "variational.minimize_bound" and s[ATTRS]]
    m["variational.minimize_bound.iterations"] = float(sum(a["iterations"] for a in solves))
    m["variational.minimize_bound.converged_frac"] = (
        sum(a["converged"] for a in solves) / len(solves) if solves else 0.0
    )
    dims = [s[ATTRS]["dim"] for s in spans if s[NAME].startswith("linalg.") and s[ATTRS]]
    max_dim = max(dims, default=0)
    m["linalg.max_dim"] = float(max_dim)
    m["linalg.max_matrix_mb"] = 16.0 * max_dim * max_dim / MIB
    m["trace.spans"] = float(len(spans))
    return m


def peak_metrics(spans: list[tuple]) -> dict[str, float]:
    """Largest tracemalloc peak of each tensor function (MiB)."""
    return {
        f"{name}.peak_mb": max(
            (s[PEAK] for s in spans if s[NAME] == name and s[PEAK] is not None), default=0.0
        )
        for name in (
            "tensor.compute_cp", "tensor.compute_cp_rld", "tensor.compute_fbar_im",
            "tensor.compute_tp_exact", "tensor.compute_tp_monte_carlo",
        )
    }
