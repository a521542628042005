"""Command-line front end.

Subcommands: ``bounds`` (bound tables for a preset or JSON family),
``sweep`` (the same tables over a delta grid or a p range, in long format
for plotting, with a reference line), ``check`` (the
acceptance suite), and ``export-scenario`` (write a preset as a state
JSON file).  Output is CSV or JSON with a fixed column order
(scenario, delta, p, bound_name, value, tightest, meta); identical
configuration and seed produce byte-identical files, and ``--output``
holds the UTF-8 bytes of the text that stdout would show.  A command's
arguments are parsed once, by that command's own parser.

Exit codes: 0 success, 1 bad configuration, 2 computation error
(e.g. an RLD bound requested for a rank-deficient state).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from typing import Iterable

import numpy as np

from . import checks as checks_mod
from .bounds import BoundEntry
from .errors import QmetroError
from .linalg import DEFAULT_DIM_CAP
from .report import ALL_BOUNDS, ReportConfig, build_report
from .scenarios import build_scenario, parse_scenario
from .states import evaluate, family_to_dict, load_family
from .tensor import DEFAULT_ENUM_CAP

CSV_COLUMNS = ("scenario", "delta", "p", "bound_name", "value", "tightest", "meta")

#: The encoder of the ``meta`` column, built once: sorted keys, no spaces.
_META_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


class _ConfigError(Exception):
    """Invalid command-line/config-file input (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise _ConfigError(message)


def _parse_p_list(text: str) -> tuple[int, ...]:
    out: list[int] = []
    try:
        for part in text.split(","):
            part = part.strip()
            if "-" in part[1:]:
                lo, hi = (int(v) for v in part.split("-", 1))
                if hi < lo:
                    raise ValueError(f"reversed range {part!r}")
                out.extend(range(lo, hi + 1))
            else:
                out.append(int(part))
    except ValueError as exc:
        raise _ConfigError(f"invalid p list {text!r}: {exc}") from exc
    if not out or any(p < 1 for p in out):
        raise _ConfigError(f"invalid p list {text!r}: need integers >= 1")
    return tuple(out)


def _parse_sweep(text: str) -> np.ndarray:
    try:
        start, stop, steps = text.split(":")
        grid = np.linspace(float(start), float(stop), int(steps))
    except ValueError as exc:
        raise _ConfigError(f"bad sweep spec {text!r}, expected start:stop:steps") from exc
    if grid.size < 2:
        raise _ConfigError("sweep needs at least 2 steps")
    if not np.all(np.isfinite(grid)):
        raise _ConfigError(f"bad sweep spec {text!r}: bounds must be finite")
    return grid


def _fmt_value(v: float) -> str:
    return format(float(v), ".12g")


def _meta_str(meta: dict) -> str:
    clean = {}
    for k, v in meta.items():
        if isinstance(v, np.ndarray):
            continue
        if isinstance(v, (np.floating, np.integer)):
            v = v.item()
        clean[k] = v
    return _META_ENCODER.encode(clean)


def _report_rows(scenario: str, delta: float, entries: Iterable[BoundEntry]) -> list[tuple]:
    """One row per entry, a tuple of strings in CSV_COLUMNS order."""
    delta_str = _fmt_value(delta)
    return [
        (
            scenario,
            delta_str,
            "" if e.p is None else str(e.p),
            e.name,
            _fmt_value(e.value),
            "true" if e.tightest else "false",
            _meta_str(dict(e.meta, kind=e.kind)),
        )
        for e in entries
    ]


def _sort_rows(rows: list[tuple]) -> list[tuple]:
    def key(row):
        _, delta, p, name = row[:4]
        if p == "":
            p_key = (2, 0)
        elif p == "inf":
            p_key = (1, 0)
        else:
            p_key = (0, int(p))
        return (float(delta), p_key, name)

    return sorted(rows, key=key)


def _write_rows(rows: list[tuple], output: str | None, fmt: str) -> None:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        records = [dict(zip(CSV_COLUMNS, row)) for row in rows]
        text = json.dumps(records, indent=2, sort_keys=True) + "\n"
    _write_text(text, output)


def _write_text(text: str, output: str | None) -> None:
    """Write to ``output`` as UTF-8 bytes, or to stdout without one; a
    path that cannot be written is a configuration error."""
    if not output:
        sys.stdout.write(text)
        return
    try:
        with open(output, "wb") as fh:
            fh.write(text.encode("utf-8"))
    except OSError as exc:
        raise _ConfigError(f"cannot write output {output}: {exc}") from exc


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise _ConfigError("config file must hold a JSON object")
    return data


def _merged(args: argparse.Namespace, cfg: dict, key: str, default=None):
    val = getattr(args, key, None)
    if val is not None:
        return val
    if key in cfg:
        return cfg[key]
    return default


def _number(args, cfg, key: str, kind: type, default, minimum=None):
    """A numeric setting from the flags, the config file or the default,
    converted by ``kind`` (int or float); a value that does not convert,
    is not finite or is below ``minimum`` is a configuration error."""
    raw = _merged(args, cfg, key, default)
    try:
        value = kind(str(raw))  # str() makes int() refuse 2.5 and True
    except ValueError as exc:
        raise _ConfigError(f"{key} must be {'an integer' if kind is int else 'a number'}, "
                           f"got {raw!r}") from exc
    if not math.isfinite(value):
        raise _ConfigError(f"{key} must be finite, got {raw!r}")
    if minimum is not None and value < minimum:
        raise _ConfigError(f"{key} must be >= {minimum}, got {value}")
    return value


def _preset_family(preset: str, delta: float):
    """The spec and family of a preset; a bad preset or delta is a
    configuration error."""
    try:
        spec = parse_scenario(preset, delta=delta)
        return spec, build_scenario(spec)
    except QmetroError as exc:
        raise _ConfigError(str(exc)) from exc


def _runs(args, cfg, sweep: bool) -> list[tuple]:
    """The ``(label, delta, family, x0)`` of each report: one for
    ``--input``, or one per delta of ``--delta-sweep`` (``sweep`` only)
    or ``--delta`` for a preset.  Delta places a preset only, so it is
    refused with ``--input``; a fixed delta and a grid are refused
    together."""
    preset = _merged(args, cfg, "preset")
    input_path = _merged(args, cfg, "input")
    delta = _merged(args, cfg, "delta")
    delta_sweep = _merged(args, cfg, "delta_sweep") if sweep else None
    if (preset is None) == (input_path is None):
        raise _ConfigError("exactly one of --preset or --input is required")
    if delta is not None and delta_sweep is not None:
        raise _ConfigError("give --delta or --delta-sweep, not both")
    if input_path is not None:
        if delta is not None or delta_sweep is not None:
            raise _ConfigError("--delta and --delta-sweep apply to --preset only")
        try:
            family, x0 = load_family(input_path)
        except (OSError, json.JSONDecodeError, QmetroError) as exc:
            raise _ConfigError(f"cannot read state JSON {input_path}: {exc}") from exc
        return [(os.path.basename(input_path), 0.0, family, x0)]
    if delta_sweep is not None:
        deltas = [float(d) for d in _parse_sweep(str(delta_sweep))]
    else:
        deltas = [_number(args, cfg, "delta", float, 0.0)]
    runs = []
    for delta in deltas:
        spec, family = _preset_family(preset, delta)
        runs.append((spec.label, delta, family, np.zeros(family.n)))
    return runs


def _cov_entry(e: BoundEntry, n: int, nu: int) -> BoundEntry:
    """Cauchy-Schwarz transform of an upper bound gamma on Gamma_p: the
    lower bound nu Tr[F_Q Cov] >= n^2 / gamma, with the per-repetition
    trace Tr[F_Q Cov] >= n^2 / (nu gamma) in the metadata."""
    value = n * n / e.value
    return BoundEntry(f"nu_fq_cov_from_{e.name}", value, "lower", e.p,
                      meta={"target": "nu_tr_fq_cov", "nu": nu, "per_repetition": value / nu})


def cmd_report(args) -> int:
    """``bounds`` and ``sweep``: one report per run, every row through
    ``_report_rows``.  ``sweep`` has its own default bounds, always
    carries a reference line and refuses a single (delta, p)."""
    sweep = args.command == "sweep"
    cfg = _load_config_file(args.config)
    runs = _runs(args, cfg, sweep)
    p_list = _parse_p_list(str(_merged(args, cfg, "p", "1")))
    bounds = tuple(str(_merged(args, cfg, "bounds", "cp,tp" if sweep else "cp,tp,fbar")).split(","))
    unknown = set(bounds) - set(ALL_BOUNDS)
    if unknown:
        raise _ConfigError(f"unknown bounds {sorted(unknown)}; valid: {','.join(ALL_BOUNDS)}")
    nu = _number(args, cfg, "nu", int, 1, minimum=1)
    cov_transforms = _merged(args, cfg, "cov_transforms", False)
    if not isinstance(cov_transforms, bool):
        raise _ConfigError(f"cov_transforms must be true or false, got {cov_transforms!r}")
    fmt = _merged(args, cfg, "format", "csv")
    if fmt not in ("csv", "json"):
        raise _ConfigError(f"format must be csv or json, got {fmt!r}")
    env_cap = os.environ.get("QMETRO_MAX_DIM") or DEFAULT_DIM_CAP
    config = ReportConfig(
        bounds=bounds + ("lower",) if sweep and "lower" not in bounds else bounds,
        p_list=p_list,
        seed=_number(args, cfg, "seed", int, 0, minimum=0),
        mc_samples=_number(args, cfg, "mc_samples", int, 100_000, minimum=1),
        dim_cap=_number(args, cfg, "max_dim", int, env_cap, minimum=1),
        enum_cap=_number(args, cfg, "enum_cap", int, DEFAULT_ENUM_CAP, minimum=1),
    )
    if sweep and len(runs) == 1 and len(config.p_list) == 1:
        raise _ConfigError("sweep needs a delta sweep or more than one p")
    rows = []
    for label, delta, family, x0 in runs:
        report = build_report(evaluate(family, x0), config)
        entries = list(report.entries)
        if sweep:
            # Reference line: every report carries the Gamma_inf sandwich
            # n^2 / (n + ||F~_Im||_1) <= Gamma_inf <= n - ||F~_Im||_F^2 / (4(n-1)).
            # It closes at n exactly when F~_Im = 0, the weak commutative
            # condition, and the line is then the QCRB/Holevo value n instead.
            lower = next(e.value for e in entries if e.name == "gamma_inf_lower")
            if report.n - lower <= 1e-8:  # n - lower ~ ||F~_Im||_1; saturation_check's tol
                if "lower" not in bounds:
                    entries = [e for e in entries if e.p != "inf"]
                entries.append(BoundEntry("qcrb_holevo", float(report.n), "reference", None))
        if cov_transforms:
            entries += [_cov_entry(e, report.n, nu) for e in entries
                        if e.kind == "upper" and e.value > 0]
        rows.extend(_report_rows(label, delta, entries))
    _write_rows(_sort_rows(rows), _merged(args, cfg, "output"), fmt)
    return 0


def cmd_check(args) -> int:
    results = checks_mod.run_checks(only=args.only)
    if not results:
        raise _ConfigError(f"no criteria match tag {args.only!r}")
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name}: {res.detail}")
        failed += 0 if res.passed else 1
    print(f"{len(results) - failed}/{len(results)} criteria passed")
    return 0 if failed == 0 else 2


def cmd_export_scenario(args) -> int:
    cfg = _load_config_file(args.config)
    preset = _merged(args, cfg, "preset")
    if preset is None:
        raise _ConfigError("export-scenario requires --preset")
    _, family = _preset_family(preset, _number(args, cfg, "delta", float, 0.0))
    payload = json.dumps(family_to_dict(family), indent=2, sort_keys=True) + "\n"
    _write_text(payload, _merged(args, cfg, "output"))
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", help="scenario id: qubit3, qutrit8, qutrit:1,2,5, ...")
    p.add_argument("--input", help="path to a state-family JSON document")
    p.add_argument("--delta", type=float, help="fixed offset of the preset state (presets only)")
    p.add_argument("--p", help="comma list / ranges of copy counts, e.g. 1,2,4 or 1-10; "
                   "a repeated p counts once")
    p.add_argument("--bounds", help=f"comma subset of: {','.join(ALL_BOUNDS)}")
    p.add_argument("--nu", type=int, help="repetition count carried as metadata")
    p.add_argument("--seed", type=int, help="seed for Monte Carlo entries")
    p.add_argument("--mc-samples", dest="mc_samples", type=int, help="Monte Carlo sample count")
    p.add_argument(
        "--max-dim",
        dest="max_dim",
        type=int,
        help="cap on the dimension of the largest irrep block (env QMETRO_MAX_DIM)",
    )
    p.add_argument("--enum-cap", dest="enum_cap", type=int, help="cap on exact T_p enumeration")
    p.add_argument("--output", help="output file (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), help="output format (default csv)")
    p.add_argument("--config", help="JSON config file; explicit flags win")
    p.add_argument(
        "--cov-transforms",
        dest="cov_transforms",
        action="store_true",
        default=None,
        help="also emit Cauchy-Schwarz lower bounds on nu Tr[F_Q Cov]",
    )
    p.add_argument(
        "--error-json",
        dest="error_json",
        action="store_true",
        help="emit machine-readable errors on stdout",
    )


def make_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: it holds no state
    between ``parse_args`` calls and its defaults read no environment."""
    return _parsers()[0]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The argument parser and the parser of each command, by name."""
    parser = _Parser(prog="qmetro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="compute bound tables at fixed delta")
    _add_common(p_bounds)
    p_bounds.set_defaults(fn=cmd_report)

    p_sweep = sub.add_parser("sweep", help="sweep over delta and/or p")
    _add_common(p_sweep)
    p_sweep.add_argument(
        "--delta-sweep", dest="delta_sweep", help="start:stop:steps grid for delta (presets only)"
    )
    p_sweep.set_defaults(fn=cmd_report)

    p_check = sub.add_parser("check", help="run the acceptance criteria")
    p_check.add_argument("--only", help="run only criteria with this tag (e.g. paper-values)")
    p_check.add_argument("--error-json", dest="error_json", action="store_true")
    p_check.set_defaults(fn=cmd_check)

    p_export = sub.add_parser("export-scenario", help="write a preset as state JSON")
    p_export.add_argument("--preset", required=False)
    p_export.add_argument("--delta", type=float)
    p_export.add_argument("--output")
    p_export.add_argument("--config")
    p_export.add_argument("--error-json", dest="error_json", action="store_true")
    p_export.set_defaults(fn=cmd_export_scenario)
    return parser, sub.choices


def _emit_error(args, code: int, exc: Exception) -> int:
    if getattr(args, "error_json", False):
        payload = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"qmetro: error: {exc}", file=sys.stderr)
    return code


def _parse_args(argv) -> argparse.Namespace:
    """``make_parser().parse_args(argv)``.  When the first word names a
    command, the rest goes straight to that command's parser, as argparse
    would pass it on, and only the command name is added to its result;
    anything else takes the whole parser and its errors."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _parsers()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args = command.parse_args(argv[1:])
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
    except _ConfigError as exc:
        print(f"qmetro: error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.fn(args)
    except _ConfigError as exc:
        return _emit_error(args, 1, exc)
    except QmetroError as exc:
        return _emit_error(args, 2, exc)


if __name__ == "__main__":
    sys.exit(main())
