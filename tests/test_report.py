from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from qmetro import bounds as gb
from qmetro import schur
from qmetro.errors import RldUndefined
from qmetro.logderiv import sld_analysis
from qmetro.report import (
    ReportConfig,
    _mark_tightest,
    best_fbar,
    build_report,
    saturation_flags,
)
from qmetro.scenarios import SIGMA1, SIGMA2
from qmetro.schur import gt_basis
from qmetro.states import StateFamily, evaluate
from qmetro.tensor import BlockPass, TradeoffMatrix


class TestBuildReport:
    def test_repeated_p_gives_one_row_per_bound(self, qubit_state):
        config = ReportConfig(bounds=("cp", "fbar", "rld"), p_list=(2, 1, 2, 1, 1))
        assert config.p_list == (2, 1)
        report = build_report(qubit_state(0.5), config)
        keys = [(e.name, e.p) for e in report.entries]
        assert sorted(keys) == sorted({(b, p) for b in ("cp", "fbar", "rld") for p in (1, 2)})
        for p in (1, 2):
            assert sum(e.tightest for e in report.at_p(p)) == 1

    def test_one_fq_eigensolve_per_report(self, qubit_state, monkeypatch):
        # F_Q^(-1/2) is shared by the tilde SLDs and RLDs, the Gamma_inf
        # sandwich and the RLD bounds; rho's eigensystem comes with the state.
        st = qubit_state(0.5)
        seen = []
        eigh = np.linalg.eigh

        def counting(a, *args, **kwargs):
            seen.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        bounds = ("cp", "tp", "fbar", "rld", "rld_cp", "lower", "refs")
        build_report(st, ReportConfig(bounds=bounds, p_list=(1, 2, 3)))
        assert seen == [(3, 3)]

    def test_default_bounds(self, qubit_state):
        st = qubit_state(0.0)
        report = build_report(st, ReportConfig(bounds=("cp", "tp", "fbar"), p_list=(1, 2)))
        vals = report.upper_values(1)
        assert vals["cp"] == pytest.approx(9 / 4, abs=1e-10)
        assert vals["tp"] == pytest.approx(11 / 4, abs=1e-10)
        assert vals["fbar"] == pytest.approx(5 / 2, abs=1e-10)
        tight = [e for e in report.at_p(1) if e.tightest]
        assert len(tight) == 1 and tight[0].name == "cp"
        report.validate()

    def test_tp_falls_back_to_monte_carlo(self, qutrit_state):
        st, _ = qutrit_state("qutrit:1,2")
        config = ReportConfig(bounds=("tp",), p_list=(200,), enum_cap=100, seed=3,
                              mc_samples=5000)
        with pytest.warns(UserWarning, match="Monte Carlo"):
            report = build_report(st, config)
        entry = report.entries[0]
        assert entry.meta["method"] == "monte_carlo"
        assert entry.value <= 2.0
        # the row says why it is sampled and how uncertain it is
        assert entry.meta["fallback"] == "enum_cap"
        assert type(entry.meta["stderr_max"]) is float
        assert entry.meta["stderr_max"] > 0.0
        exact = build_report(st, ReportConfig(bounds=("tp",), p_list=(3,)))
        assert exact.entries[0].meta == {"method": "exact"}

    def test_lower_refs_and_variational(self, qubit_state):
        st = qubit_state(0.5)
        report = build_report(
            st,
            ReportConfig(
                bounds=("cp", "lower", "refs", "variational"),
                p_list=(1,),
                variational_iters=100,
            ),
        )
        names = {e.name for e in report.entries}
        assert {"cp", "gamma_inf_lower", "gamma_inf_upper", "gill_massar",
                "zhu_hayashi", "variational"} <= names
        var = [e for e in report.entries if e.name == "variational"][0]
        assert var.kind == "reference"
        assert var.value <= 2 * 3 + 1e-9  # canonical start is <= 2n, descent only helps
        # the value is the certified lower end of the solver's interval
        assert var.meta["certified"] is True
        assert var.meta["converged"] is True
        assert var.value <= var.meta["upper"] <= var.value + 1e-8 * var.value
        assert var.meta["gap"] == var.meta["upper"] - var.value
        report.validate()

    def test_rld_entries(self, qutrit_state):
        st, _ = qutrit_state("qutrit:1,2")
        report = build_report(st, ReportConfig(bounds=("rld", "rld_cp"), p_list=(1,)))
        vals = report.upper_values(1)
        assert vals["rld"] == pytest.approx(2.0, abs=1e-9)
        assert vals["rld_cp"] == pytest.approx(1.5, abs=1e-9)

    def test_one_table_and_one_solve_per_report(self, qubit_state, monkeypatch):
        # The T_p rows of every p read one commutator table, and both RLD
        # rows of every p one Tr(F_Q^-1 F_Re^RLD); the values are those of
        # a table and a solve per row.
        import qmetro.report as report_module
        from qmetro.logderiv import compute_rld, compute_rld_fisher
        from qmetro.tensor import compute_tp_exact, pair_commutator_table

        st = qubit_state(0.5)
        ps = tuple(range(1, 11))
        tables, solves = [], []
        monkeypatch.setattr(report_module, "pair_commutator_table",
                            lambda *a: tables.append(a) or pair_commutator_table(*a))
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda *a: solves.append(a) or solve(*a))
        report = build_report(st, ReportConfig(bounds=("tp", "rld", "rld_cp"), p_list=ps))
        monkeypatch.undo()
        assert len(tables) == 1 and len(solves) == 1
        _, fisher, tilde = sld_analysis(st)
        rf = compute_rld_fisher(st, compute_rld(st), fisher)
        trace = float(np.trace(np.linalg.solve(rf.f_q, rf.f_rld_re)).real)
        s = rf.inv_sqrt
        rld = trace - float(np.sum(np.abs(np.linalg.eigvalsh(1j * (s @ rf.f_rld_im @ s)))))
        for p in ps:
            vals = report.upper_values(p)
            assert vals["tp"] == gb.tp_bound(compute_tp_exact(st, tilde, p), 3)
            assert vals["rld"] == pytest.approx(rld, rel=1e-14)

    def test_rld_undefined_propagates(self):
        ket = np.array([1.0, 0.0])
        fam = StateFamily.linear(np.outer(ket, ket), [SIGMA1 / 2, SIGMA2 / 2])
        st = evaluate(fam, np.zeros(2))
        with pytest.raises(RldUndefined):
            build_report(st, ReportConfig(bounds=("rld",), p_list=(1,)))

    def test_pure_bound_entry(self):
        ket = np.array([1.0, 0.0])
        fam = StateFamily.linear(np.outer(ket, ket), [SIGMA1 / 2, SIGMA2 / 2])
        st = evaluate(fam, np.zeros(2))
        report = build_report(st, ReportConfig(bounds=("pure",), p_list=(1, 3)))
        vals = {(e.name, e.p): e.value for e in report.entries}
        # p-independent: same value replicated per p
        assert vals[("pure", 1)] == vals[("pure", 3)]

    def test_monte_carlo_rows_never_tightest(self):
        # A sampled T_p below the exact one is noise, not a tighter bound.
        entries = [
            gb.BoundEntry("cp", 2.5, "upper", 5),
            gb.BoundEntry("tp", 2.3, "upper", 5, meta={"method": "exact"}),
            gb.BoundEntry("tp_mc", 2.2, "upper", 5),
            gb.BoundEntry("tp", 2.1, "upper", 7, meta={"method": "monte_carlo"}),
            gb.BoundEntry("cp", 2.4, "upper", 7),
        ]
        marked = _mark_tightest(entries, (5, 7))
        tight = [(e.name, e.p) for e in marked if e.tightest]
        assert tight == [("tp", 5), ("cp", 7)]

    def test_unknown_bound_rejected(self, qubit_state):
        with pytest.raises(ValueError):
            build_report(qubit_state(0.0), ReportConfig(bounds=("nope",), p_list=(1,)))

    def test_each_reduced_shape_built_once_per_report(self, qubit_state, monkeypatch):
        # cp, fbar (AutoAlign from p = 4, 2^4 > 12) and rld_cp at p = 1..20
        # share one walk over the 21 reduced shapes (a, 0), a = 0..20; a
        # walk per p built the 120 irrep blocks of all twenty p.
        shapes = []

        def counting(shape):
            shapes.append(shape)
            return gt_basis(shape)

        monkeypatch.setattr(schur, "gt_basis", counting)
        p_list = tuple(range(1, 21))
        build_report(qubit_state(0.5), ReportConfig(bounds=("cp", "fbar", "rld_cp"), p_list=p_list))
        assert sorted(shapes) == [(a, 0) for a in range(21)]
        assert sum(len(schur.partitions(p, 2)) for p in p_list) == 120

    def test_second_report_builds_no_basis(self, qubit_state, cold_gt_cache, monkeypatch):
        # The GT bases depend on the shape alone: a report at another delta
        # reuses every basis of the first and reads the same rows as a
        # report that builds them afresh.
        config = ReportConfig(bounds=("cp", "fbar", "rld_cp"), p_list=tuple(range(1, 11)))
        build_report(qubit_state(0.5), config)
        built = []
        build = schur._build_gt_basis
        monkeypatch.setattr(schur, "_build_gt_basis",
                            lambda shape: built.append(shape) or build(shape))
        warm = build_report(qubit_state(0.3), config)
        assert built == []
        monkeypatch.setattr(schur, "_cache", {})
        cold = build_report(qubit_state(0.3), config)
        assert sorted(built) == [(a, 0) for a in range(11)]
        assert warm.entries == cold.entries

    def test_gt_cache_stays_within_budget(self, qubit_state, cold_gt_cache):
        # The 201 reduced shapes (a, 0) of p = 1..200 take about 21 MiB of
        # bases; the small ones are kept up to CACHE_BYTES, the rest not.
        build_report(qubit_state(0.5), ReportConfig(bounds=("cp",), p_list=tuple(range(1, 201))))
        kept = sum(w.nbytes + g.nbytes for w, g in schur._cache.values())
        assert (0, 0) in schur._cache and (200, 0) not in schur._cache
        assert kept <= schur.CACHE_BYTES

    def test_sweep_memory_stays_flat(self, qubit_state, cold_gt_cache):
        # A cp,fbar report over p = 1..120 keeps three 3 x 3 candidates
        # per p.  Sign labels per block eigenvector kept alongside them
        # grew as P^3: 5.2 MiB at P = 120 and 20.3 MiB at P = 200.
        st = qubit_state(0.5)
        tracemalloc.start()
        try:
            build_report(st, ReportConfig(bounds=("cp", "fbar"), p_list=tuple(range(1, 121))))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20


class TestFbarStrategy:
    def test_large_p_uses_auto_align(self, qubit_state):
        # d^p = 16 exceeds the exhaustive cap: the per-pair commutator
        # eigenbasis is used and still yields a valid single-choice matrix.
        st = qubit_state(0.0)
        _, _, tilde = sld_analysis(st)
        fb = best_fbar(st, tilde, 4)
        assert fb.meta["strategy"].startswith("auto_align")
        val = gb.fbar_bound(fb, 3)
        assert val <= 3.0 + 1e-12
        # at delta = 0 the aligned entry equals the C_p entry N_p = 3/2
        assert abs(fb.entries[0, 1]) == pytest.approx(1.5, abs=1e-9)

    @pytest.mark.parametrize("scale", [1e-6, 1e6])
    def test_candidate_ties_are_relative(self, qubit_state, monkeypatch, scale):
        # The second candidate's norm is 1e-14 relative above the first: a
        # tie at both scales, so the first is kept (an absolute 1e-15
        # margin would keep the second at 1e6 only).
        base = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        other = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])

        def tied(coll, fbar):
            return BlockPass(None, None, [
                TradeoffMatrix("FBAR_IM", coll.p, scale * m, {"strategy": name})
                for m, name in ((base, "first"), ((1 + 1e-14) * other, "second"))
            ])

        monkeypatch.setattr("qmetro.report.block_pass", tied)
        st = qubit_state(0.0)
        _, _, tilde = sld_analysis(st)
        assert best_fbar(st, tilde, 4).meta["strategy"] == "first"


class TestSaturationFlags:
    def test_qubit(self, qubit_state):
        flags = saturation_flags(qubit_state(0.0), p=1)
        assert (flags.partial_commutative, flags.weak_commutative) == (False, True)
        flags = saturation_flags(qubit_state(0.5), p=1)
        assert (flags.partial_commutative, flags.weak_commutative) == (False, False)
