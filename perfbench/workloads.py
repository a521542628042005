"""Seeded inputs and call lists of the benchmark workloads.

Each workload turns a seed into a fixed list of :class:`Call` objects:
the argv handed to ``qmetro.cli.main`` (without ``--output``) plus what
the checker needs to know about the call.  Everything, including the
state-family files of ``holevo``, is generated here before the first
call is timed.

The seed moves the inputs, not the amount of work: each workload has a
fixed template (which presets, which p, which bounds) and the seed draws
the offsets delta, the call order and, for ``holevo``, the unitary frame
of each family.  Seeds therefore compare like with like.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from qmetro import random_instances, states

#: Monte Carlo sample count of every ``tp_mc`` call.
MC_SAMPLES = 10_000

#: Seed of the fixed panel of random families behind ``holevo``.
HOLEVO_PANEL_SEED = 20240901

#: Parameter counts of the presets.
PRESET_N = {"qubit3": 3, "qutrit:1,2,5": 3, "qutrit8": 8}
PRESET_D = {"qubit3": 2, "qutrit:1,2,5": 3, "qutrit8": 3}


@dataclass(frozen=True)
class Call:
    """One ``qmetro`` invocation and the facts the checker relies on."""

    argv: tuple[str, ...]
    label: str  # the ``scenario`` column the CSV should carry
    preset: str | None  # None for a ``--input`` family
    delta: float
    p_list: tuple[int, ...]
    bounds: tuple[str, ...]
    n: int
    d: int
    sweep: bool = False
    mc_samples: int | None = None


def _preset_call(command, preset, delta, p_list, bounds, mc_seed=None):
    p_arg = str(p_list[0]) if len(p_list) == 1 else f"{p_list[0]}-{p_list[-1]}"
    argv = (
        command, "--preset", preset, "--delta", repr(float(delta)),
        "--p", p_arg, "--bounds", ",".join(bounds),
    )
    if mc_seed is not None:
        argv += ("--mc-samples", str(MC_SAMPLES), "--seed", str(mc_seed))
    return Call(
        argv=argv, label=preset, preset=preset, delta=float(delta), p_list=tuple(p_list),
        bounds=tuple(bounds), n=PRESET_N[preset], d=PRESET_D[preset],
        sweep=command == "sweep", mc_samples=None if mc_seed is None else MC_SAMPLES,
    )


def dense_ladder(rng: np.random.Generator, workdir: str) -> list[Call]:
    """p-ladders on the dense d^p path at one seeded delta per preset."""
    dq = float(rng.uniform(0.3, 0.7))
    dt = float(rng.uniform(0.05, 0.2))
    return [
        _preset_call("sweep", "qubit3", dq, range(1, 11), ("cp", "tp", "rld_cp")),
        _preset_call("sweep", "qubit3", dq, range(1, 10), ("fbar",)),
        _preset_call("sweep", "qutrit8", dt, range(1, 6), ("cp", "tp")),
        _preset_call("sweep", "qutrit8", dt, range(1, 5), ("fbar",)),
    ]


def holevo(rng: np.random.Generator, workdir: str) -> list[Call]:
    """The variational solver on a fixed panel of 12 random families.

    The panel (d in {2, 3, 4}, n in {2, 3}, two of each) comes from
    ``random_linear_family`` at a fixed seed; the workload seed puts each
    family in a Haar-random frame.  Every bound requested is invariant
    under that change of frame, so the solver does the same work on
    every seed; redrawing the families instead makes the pass time range
    over a factor of two between seeds.
    """
    panel_rng = np.random.default_rng(HOLEVO_PANEL_SEED)
    calls = []
    for i in range(12):
        d = (2, 3, 4)[i % 3]
        n = 2 + (i // 3) % 2
        fam = random_instances.random_linear_family(d, n, panel_rng)
        u = random_instances.haar_unitary(d, rng)
        ud = u.conj().T
        rotated = states.StateFamily.linear(
            u @ fam.rho0 @ ud, [u @ g @ ud for g in fam.generators]
        )
        name = f"family{i:02d}.json"
        path = os.path.join(workdir, name)
        states.save_family(path, rotated)
        bounds = ("variational", "rld", "rld_cp", "lower", "refs")
        argv = ("bounds", "--input", path, "--p", "1", "--bounds", ",".join(bounds))
        calls.append(
            Call(argv=argv, label=name, preset=None, delta=0.0, p_list=(1,),
                 bounds=bounds, n=n, d=d)
        )
    order = rng.permutation(len(calls))
    return [calls[i] for i in order]


def scan_small(rng: np.random.Generator, workdir: str) -> list[Call]:
    """120 short ``bounds`` calls: per preset 24 at small p, 8 exact T_p at
    large p and 8 Monte Carlo T_p.  A quarter of the small-p calls and of
    the large-p calls sit at delta = 0, where the closed forms hold."""
    small_bounds = ("cp", "tp", "fbar", "lower", "refs")
    calls = []
    for preset, delta_max, small_ps in (
        ("qubit3", 0.9, (1, 2, 3)),
        ("qutrit:1,2,5", 0.5, (1, 2, 3)),
        # qutrit8 at p = 3 spends most of a second in dense F-bar, which is
        # dense-ladder's subject, not per-call overhead.
        ("qutrit8", 0.5, (1, 2)),
    ):
        def delta(at_zero):
            return 0.0 if at_zero else float(rng.uniform(0.02, delta_max))

        for i in range(24):
            p = small_ps[i % len(small_ps)]
            calls.append(_preset_call("bounds", preset, delta(i % 4 == 0), (p,), small_bounds))
        for i, p in enumerate((50, 100, 150, 200) * 2):
            calls.append(_preset_call("bounds", preset, delta(i % 4 == 0), (p,), ("tp", "lower")))
        for p in (5, 10, 20, 40) * 2:
            calls.append(_preset_call(
                "bounds", preset, delta(False), (p,), ("tp", "tp_mc", "lower"),
                mc_seed=int(rng.integers(1 << 30)),
            ))
    order = rng.permutation(len(calls))
    return [calls[i] for i in order]


WORKLOADS = {
    "dense-ladder": dense_ladder,
    "holevo": holevo,
    "scan-small": scan_small,
}
