"""Acceptance gate: every criterion from the checks registry must pass at
its pinned tolerance.  One pass/fail line is printed per criterion (run
pytest with -s or check the captured output on failure)."""

from __future__ import annotations

import dataclasses

import pytest

from qmetro import report
from qmetro.checks import CRITERIA, run_checks


@pytest.mark.parametrize("criterion", CRITERIA, ids=[c.name for c in CRITERIA])
def test_acceptance(criterion):
    result = criterion.fn()
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} {result.name}: {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"


def test_paper_values_read_the_report(monkeypatch):
    # Checks 01 and 02 certify the rows build_report emits: a C_p off by
    # 1e-6 relative in the report's block sweep must fail both.
    sweep = report.block_sweep

    def skewed(*args, **kwargs):
        out = sweep(*args, **kwargs)
        for p, walk in out.items():
            if walk.cp is not None:
                cp = dataclasses.replace(walk.cp, entries=walk.cp.entries * (1 + 1e-6))
                out[p] = dataclasses.replace(walk, cp=cp)
        return out

    monkeypatch.setattr(report, "block_sweep", skewed)
    failed = {r.name for r in run_checks(only="paper-values") if not r.passed}
    assert {"01-qubit-p1-values", "02-qubit-p2-delta-grid"} <= failed


def test_fbar_values_read_the_report(monkeypatch):
    # Check 05 certifies the F-bar the report's fbar rows come from: an
    # F-bar 1e-6 relative off in report.compute_fbar_im must fail it.
    fbar = report.compute_fbar_im

    def skewed(*args, **kwargs):
        out = fbar(*args, **kwargs)
        return dataclasses.replace(out, entries=out.entries * (1 + 1e-6))

    monkeypatch.setattr(report, "compute_fbar_im", skewed)
    failed = {r.name for r in run_checks(only="paper-values") if not r.passed}
    assert "05-fbar-values" in failed
