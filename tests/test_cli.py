from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys

import pytest

import qmetro
from qmetro import scenarios, schur
from qmetro.cli import main, make_parser
from qmetro.scenarios import build_scenario, parse_scenario
from qmetro.states import save_family


def run_cli(args):
    return main(list(args))


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestBounds:
    def test_qubit_cp_value(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = run_cli(
            ["bounds", "--preset", "qubit3", "--delta", "0", "--p", "1", "--bounds", "cp",
             "--output", str(out)]
        )
        assert code == 0
        rows = read_rows(out)
        assert len(rows) == 1
        assert float(rows[0]["value"]) == pytest.approx(2.25, abs=1e-10)
        assert rows[0]["tightest"] == "true"

    def test_tp_over_enum_cap_sums_a_small_law_exactly(self, tmp_path):
        # 861 occupation vectors: above --enum-cap, within --mc-samples.  The
        # fallback used to print a sample mean, 7.97524, as an upper bound
        # below the exact 7.97556.
        argv = ["bounds", "--preset", "qutrit8", "--delta", "0.3", "--p", "40",
                "--bounds", "tp"]
        capped, exact = tmp_path / "capped.csv", tmp_path / "exact.csv"
        extra = ["--enum-cap", "100", "--mc-samples", "10000", "--output", str(capped)]
        assert run_cli(argv + extra) == 0
        assert run_cli(argv + ["--output", str(exact)]) == 0
        (row,), (ref,) = read_rows(capped), read_rows(exact)
        assert json.loads(row["meta"]) == {"fallback": "enum_cap", "kind": "upper",
                                           "method": "exact"}
        assert row["value"] == ref["value"] == "7.97556182243"

    def test_qutrit_subset_p2(self, tmp_path):
        out = tmp_path / "r.csv"
        assert run_cli(
            ["bounds", "--preset", "qutrit:1,2,5", "--p", "2", "--bounds", "cp",
             "--output", str(out)]
        ) == 0
        rows = read_rows(out)
        assert float(rows[0]["value"]) == pytest.approx(17 / 6, abs=1e-9)

    def test_three_bounds_tightest_flag(self, tmp_path):
        out = tmp_path / "r.csv"
        assert run_cli(
            ["bounds", "--preset", "qubit3", "--delta", "0", "--p", "1",
             "--bounds", "cp,tp,fbar", "--output", str(out)]
        ) == 0
        rows = {r["bound_name"]: r for r in read_rows(out)}
        assert float(rows["cp"]["value"]) == pytest.approx(2.25, abs=1e-10)
        assert float(rows["tp"]["value"]) == pytest.approx(2.75, abs=1e-10)
        assert float(rows["fbar"]["value"]) == pytest.approx(2.5, abs=1e-10)
        assert rows["cp"]["tightest"] == "true"
        assert rows["tp"]["tightest"] == "false"
        assert rows["fbar"]["tightest"] == "false"

    def test_csv_schema(self, tmp_path):
        out = tmp_path / "r.csv"
        run_cli(
            ["bounds", "--preset", "qubit3", "--p", "1,2", "--bounds", "cp,refs,lower",
             "--output", str(out)]
        )
        with open(out) as fh:
            header = fh.readline().strip()
        assert header == "scenario,delta,p,bound_name,value,tightest,meta"

    def test_json_format(self, tmp_path):
        out = tmp_path / "r.json"
        run_cli(
            ["bounds", "--preset", "qubit3", "--p", "1", "--bounds", "cp",
             "--format", "json", "--output", str(out)]
        )
        rows = json.loads(out.read_text())
        assert isinstance(rows, list) and rows[0]["bound_name"] == "cp"

    def test_input_json_family(self, tmp_path):
        fam = build_scenario(parse_scenario("qubit3", delta=0.0))
        path = tmp_path / "fam.json"
        save_family(str(path), fam)
        out = tmp_path / "r.csv"
        assert run_cli(
            ["bounds", "--input", str(path), "--p", "1", "--bounds", "cp",
             "--output", str(out)]
        ) == 0
        assert float(read_rows(out)[0]["value"]) == pytest.approx(2.25, abs=1e-10)

    @pytest.mark.parametrize("defect, message", [
        ([[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]], "generator 1: Hermitian symmetry"),
        ([[[1e-3, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1e-3, 0.0]]], "generator 1 has trace 2.000e-03"),
    ])
    def test_bad_generator_refused_on_reading(self, tmp_path, capsys, defect, message):
        # Every generator check runs when the family is read, so a traced
        # generator is a configuration error like an asymmetric one.
        doc = {
            "dim": 2, "n": 2,
            "rho0": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],
            "generators": [[[[0.0, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.0, 0.0]]], defect],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run_cli(["bounds", "--input", str(path), "--p", "1", "--bounds", "cp"]) == 1
        assert message in capsys.readouterr().err

    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["bounds", "--preset", "qubit3", "--delta", "0.4", "--p", "1,2",
                "--bounds", "cp,tp_mc", "--seed", "7", "--mc-samples", "2000"]
        run_cli(args + ["--output", str(a)])
        run_cli(args + ["--output", str(b)])
        assert a.read_bytes() == b.read_bytes()
        stderrs = []
        for row in read_rows(a):
            meta = json.loads(row["meta"])
            if row["bound_name"] == "tp_mc":
                assert set(meta) == {"kind", "samples", "seed", "stderr_max"}
                assert isinstance(meta["stderr_max"], float)
                stderrs.append(meta["stderr_max"])
            else:
                assert meta == {"kind": "upper"}
        # at p = 1 every draw of the qubit's |c| is the same; at p = 2 not
        assert stderrs[0] == 0.0 < stderrs[1]

    def test_parser_reuse_matches_fresh_process(self, tmp_path, capfd):
        # One process builds the parser once; a failed parse, a seeded call
        # and an unseeded call after it must each behave as in a new process.
        calls = [
            ["bounds", "--preset", "qubit3", "--nu", "x"],
            ["bounds", "--preset", "qubit3", "--p", "2", "--bounds", "cp,tp"],
            ["bounds", "--preset", "qubit3", "--delta", "0.3", "--p", "3",
             "--bounds", "tp_mc", "--mc-samples", "200", "--seed", "5"],
            ["bounds", "--preset", "qubit3", "--delta", "0.3", "--p", "3",
             "--bounds", "tp_mc", "--mc-samples", "200"],
        ]
        src = os.path.dirname(os.path.dirname(qmetro.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        codes, outputs = [], []
        for argv in calls:
            code = run_cli(argv)
            out, err = capfd.readouterr()
            fresh = subprocess.run(
                [sys.executable, "-c", "import sys, qmetro.cli; sys.exit(qmetro.cli.main())",
                 *argv],
                capture_output=True, text=True, env=env, cwd=tmp_path,
            )
            assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
            codes.append(code)
            outputs.append(out)
        assert codes == [1, 0, 0, 0]
        assert make_parser() is make_parser()
        assert outputs[2] != outputs[3]  # --seed 5 did not stick

    def test_bad_config_exit_1(self, capsys):
        assert run_cli(["bounds", "--preset", "nosuch", "--p", "1"]) == 1
        assert run_cli(["bounds", "--preset", "qubit3", "--p", "0"]) == 1
        assert run_cli(["bounds", "--preset", "qubit3", "--bounds", "bogus"]) == 1
        assert run_cli(["bounds", "--p", "1"]) == 1  # neither preset nor input

    @pytest.mark.parametrize("p_list", ["x", "1,3-1", "2-a"])
    def test_bad_p_list_exit_1(self, p_list, capsys):
        code = run_cli(["bounds", "--preset", "qubit3", "--p", p_list, "--error-json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["exit_code"] == 1 and "invalid p list" in payload["message"]

    def test_repeated_p_counts_once(self, capsys):
        # A repeated p printed its rows twice, one copy tightest and one not.
        def rows(p_list):
            args = ["bounds", "--preset", "qubit3", "--p", p_list, "--bounds", "cp"]
            assert run_cli(args) == 0
            return capsys.readouterr().out

        assert rows("1,1,2") == rows("1-2,1") == rows("1,2")
        # sweep over one p is refused however often it is named
        args = ["sweep", "--preset", "qubit3", "--p", "2,2", "--bounds", "cp"]
        assert run_cli(args) == 1

    @pytest.mark.parametrize(
        "cfg, message",
        [({"nu": "abc"}, "nu must be an integer"), ({"nu": 2.5}, "nu must be an integer"),
         ({"seed": -1}, "seed must be >= 0"), ({"delta": "x"}, "delta must be a number"),
         ({"mc_samples": "many"}, "mc_samples must be an integer"),
         ({"delta": "nan"}, "delta must be finite"),
         ({"mc_samples": 0}, "mc_samples must be >= 1"), ({"max_dim": -5}, "max_dim must be >= 1"),
         ({"enum_cap": 0}, "enum_cap must be >= 1"), ({"enum_cap": -1}, "enum_cap must be >= 1"),
         ({"format": "xml"}, "format must be csv or json"),
         ({"cov_transforms": "false"}, "cov_transforms must be true or false")],
    )
    def test_bad_config_values_exit_1(self, tmp_path, capsys, cfg, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(cfg, preset="qubit3")))
        assert run_cli(["bounds", "--config", str(path), "--bounds", "tp_mc"]) == 1
        assert message in capsys.readouterr().err

    def test_nu_below_one_exit_1(self, capsys):
        code = run_cli(["bounds", "--preset", "qubit3", "--nu", "0", "--cov-transforms"])
        assert code == 1
        assert "nu must be >= 1" in capsys.readouterr().err

    def test_bad_max_dim_env_exit_1(self, monkeypatch, capsys):
        monkeypatch.setenv("QMETRO_MAX_DIM", "lots")
        assert run_cli(["bounds", "--preset", "qubit3", "--bounds", "cp"]) == 1
        assert "max_dim must be an integer" in capsys.readouterr().err

    def test_computation_error_exit_2(self, tmp_path, capsys):
        # A pure state has no RLD: requesting the RLD bound is a
        # computation error, reported as exit code 2.
        doc = {
            "dim": 2,
            "n": 2,
            "rho0": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
            "generators": [
                [[[0.0, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.0, 0.0]]],
                [[[0.0, 0.0], [0.0, -0.5]], [[0.0, 0.5], [0.0, 0.0]]],
            ],
            "x0": [0.0, 0.0],
            "labels": ["x1", "x2"],
        }
        path = tmp_path / "pure.json"
        path.write_text(json.dumps(doc))
        assert run_cli(
            ["bounds", "--input", str(path), "--p", "1", "--bounds", "rld"]
        ) == 2

    def test_error_json(self, tmp_path, capsys):
        doc_path = tmp_path / "pure.json"
        doc_path.write_text(json.dumps({
            "dim": 2, "n": 2,
            "rho0": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
            "generators": [
                [[[0.0, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.0, 0.0]]],
                [[[0.0, 0.0], [0.0, -0.5]], [[0.0, 0.5], [0.0, 0.0]]],
            ],
        }))
        code = run_cli(
            ["bounds", "--input", str(doc_path), "--p", "1", "--bounds", "rld",
             "--error-json"]
        )
        assert code == 2
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["error"] == "RldUndefined"

    def test_config_file_flags_win(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"preset": "qubit3", "p": "1", "bounds": "cp",
                                   "delta": 0.0}))
        out1 = tmp_path / "one.csv"
        run_cli(["bounds", "--config", str(cfg), "--output", str(out1)])
        assert float(read_rows(out1)[0]["value"]) == pytest.approx(2.25, abs=1e-10)
        out2 = tmp_path / "two.csv"
        run_cli(["bounds", "--config", str(cfg), "--p", "2", "--output", str(out2)])
        assert float(read_rows(out2)[0]["value"]) == pytest.approx(45 / 16, abs=1e-9)

    def test_max_dim_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QMETRO_MAX_DIM", "3")
        code = run_cli(["bounds", "--preset", "qubit3", "--p", "3", "--bounds", "cp"])
        assert code == 2  # the p = 3 spin-3/2 block has dimension 4 > cap

    def test_large_p_on_blocks(self, tmp_path):
        # 2^100 is far beyond the cap; the largest irrep block has dimension 101.
        code = run_cli(["bounds", "--preset", "qubit3", "--p", "100",
                        "--bounds", "cp,rld_cp,fbar", "--output", str(tmp_path / "r.csv")])
        assert code == 0

    def test_cov_transforms(self, tmp_path):
        # bounds and sweep share the transform: one row per cp row, same meta.
        for command in ("bounds", "sweep"):
            out = tmp_path / f"{command}.csv"
            assert run_cli(
                [command, "--preset", "qubit3", "--delta", "0", "--p", "1-2",
                 "--bounds", "cp", "--cov-transforms", "--output", str(out)]
            ) == 0
            rows = read_rows(out)
            cov = {r["p"]: r for r in rows if r["bound_name"] == "nu_fq_cov_from_cp"}
            cp = {r["p"]: float(r["value"]) for r in rows if r["bound_name"] == "cp"}
            assert set(cov) == {"1", "2"}
            # nu Tr[F_Q Cov] >= n^2 / (9/4) = 4
            assert float(cov["1"]["value"]) == pytest.approx(4.0, abs=1e-10)
            for p, row in cov.items():
                assert float(row["value"]) == pytest.approx(9 / cp[p], rel=1e-11)
                meta = json.loads(row["meta"])
                assert meta == {"kind": "lower", "nu": 1, "target": "nu_tr_fq_cov",
                                "per_repetition": meta["per_repetition"]}
                assert meta["per_repetition"] == pytest.approx(float(row["value"]), rel=1e-11)


REGRESSION = os.path.join(os.path.dirname(__file__), "data", "bounds_regression.json")


def _regression_cases():
    with open(REGRESSION) as fh:
        return json.load(fh)["cases"]


class TestBoundsRegression:
    """``bounds`` rows against values recorded from the CLI: small p at
    commit f5ec208 (per-matrix trace norms, eigensolves and pattern loop),
    and the cases with an ``id``, where the block pass serves cp, fbar and
    rld_cp at larger p, at the ``recorded_at`` commit of each case.  The
    p = 1-10 qubit3 and p = 1-5 qutrit8 reports are sweeps in which one
    reduced shape serves several blocks with lambda_d >= 1."""

    @pytest.mark.parametrize("case", _regression_cases(), ids=lambda c: c.get("id", c["args"][2]))
    def test_same_rows(self, tmp_path, case):
        out = tmp_path / "r.json"
        assert run_cli(case["args"] + ["--format", "json", "--output", str(out)]) == 0
        rows = json.loads(out.read_text())
        assert len(rows) == len(case["rows"])
        for got, want in zip(rows, case["rows"]):
            for key in ("scenario", "delta", "p", "bound_name", "tightest", "meta"):
                assert got[key] == want[key], (key, want)
            assert float(got["value"]) == pytest.approx(float(want["value"]), rel=1e-12, abs=0.0)


def test_preset_call_validates_its_spec_once(tmp_path, monkeypatch):
    calls = []
    inner = scenarios.ScenarioSpec.validate

    def counting(spec):
        calls.append(spec)
        return inner(spec)

    monkeypatch.setattr(scenarios.ScenarioSpec, "validate", counting)
    out = tmp_path / "r.csv"
    assert run_cli(["bounds", "--preset", "qubit3", "--p", "1", "--bounds", "cp",
                    "--output", str(out)]) == 0
    assert len(calls) == 1


class TestSweep:
    def test_p_sweep_monotone(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run_cli(
            ["sweep", "--preset", "qubit3", "--delta", "0", "--p", "1-8",
             "--bounds", "cp", "--output", str(out)]
        ) == 0
        rows = [r for r in read_rows(out) if r["bound_name"] == "cp"]
        vals = [float(r["value"]) for r in sorted(rows, key=lambda r: int(r["p"]))]
        assert all(vals[i + 1] >= vals[i] - 1e-9 for i in range(len(vals) - 1))
        assert all(v < 3.0 for v in vals)
        # weak-commutative at delta = 0: the QCRB/Holevo line is emitted
        ref = [r for r in read_rows(out) if r["bound_name"] == "qcrb_holevo"]
        assert len(ref) == 1 and float(ref[0]["value"]) == 3.0

    def test_delta_sweep_matches_formula(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run_cli(
            ["sweep", "--preset", "qubit3", "--delta-sweep", "0:0.9:7", "--p", "2",
             "--bounds", "cp", "--output", str(out)]
        ) == 0
        rows = [r for r in read_rows(out) if r["bound_name"] == "cp"]
        assert len(rows) == 7
        for r in rows:
            d = float(r["delta"])
            assert float(r["value"]) == pytest.approx(
                45 / 16 - d**2 / 4 - d**4 / 16, abs=1e-9
            )

    def test_gamma_sandwich_rows_when_not_weak(self, tmp_path):
        out = tmp_path / "s.csv"
        run_cli(
            ["sweep", "--preset", "qubit3", "--delta-sweep", "0.2:0.4:2", "--p", "1",
             "--bounds", "cp", "--output", str(out)]
        )
        names = {r["bound_name"] for r in read_rows(out)}
        assert "gamma_inf_lower" in names and "gamma_inf_upper" in names
        assert "qcrb_holevo" not in names

    def test_each_row_once_with_lower(self, tmp_path):
        # The Gamma_inf sandwich requested via "lower" is also the sweep's
        # reference line; it must be written once per delta, not twice.
        out = tmp_path / "s.csv"
        assert run_cli(
            ["sweep", "--preset", "qubit3", "--delta", "0.5", "--p", "1-2",
             "--bounds", "cp,lower", "--output", str(out)]
        ) == 0
        keys = [(r["delta"], r["p"], r["bound_name"]) for r in read_rows(out)]
        assert len(keys) == len(set(keys))
        assert {k[2] for k in keys} == {"cp", "gamma_inf_lower", "gamma_inf_upper"}

    def test_mc_sweep_reproducible(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["sweep", "--preset", "qubit3", "--delta", "0.3", "--p", "1-3",
                "--bounds", "tp_mc", "--seed", "5", "--mc-samples", "1000"]
        run_cli(args + ["--output", str(a)])
        run_cli(args + ["--output", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_sweep_grid_must_be_finite(self, capsys):
        code = run_cli(["sweep", "--preset", "qubit3", "--delta-sweep", "nan:0.5:3"])
        assert code == 1
        assert "must be finite" in capsys.readouterr().err

    def test_sweep_needs_grid(self):
        assert run_cli(["sweep", "--preset", "qubit3", "--p", "1"]) == 1

    def test_whole_sweep_refused_before_any_block(self, capsys, monkeypatch):
        # The largest block of p = 40 (dimension 41) is above the cap, so
        # the sweep stops before the first block of p = 1 is built.
        built = []
        monkeypatch.setattr(schur, "gt_basis", lambda shape: built.append(shape))
        code = run_cli(["sweep", "--preset", "qubit3", "--p", "1-40", "--max-dim", "20",
                        "--error-json"])
        assert code == 2
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["error"] == "DimensionOverflow" and "p=40" in payload["message"]
        assert built == []


class TestSharedFlags:
    """A flag that ``bounds`` and ``sweep`` both take is honoured by both
    or refused by both."""

    @pytest.fixture
    def family_path(self, tmp_path):
        path = tmp_path / "fam.json"
        save_family(str(path), build_scenario(parse_scenario("qubit3", delta=0.5)))
        return str(path)

    @staticmethod
    def rows(capsys, argv):
        assert run_cli(argv) == 0
        return list(csv.DictReader(io.StringIO(capsys.readouterr().out)))

    def test_sweep_input_is_bounds_with_lower(self, capsys, family_path):
        sweep = self.rows(capsys, ["sweep", "--input", family_path, "--p", "1-3"])
        bounds = self.rows(capsys, ["bounds", "--input", family_path, "--p", "1-3",
                                    "--bounds", "cp,tp,lower"])
        assert sweep == bounds
        assert {r["scenario"] for r in sweep} == {"fam.json"} and len(sweep) == 8

    @pytest.mark.parametrize(
        "argv",
        [["bounds", "--input", "FAM", "--delta", "0.9"],
         ["sweep", "--input", "FAM", "--delta", "0.9"],
         ["sweep", "--input", "FAM", "--delta-sweep", "0:0.9:3"],
         ["sweep", "--preset", "qubit3", "--delta", "0.7", "--delta-sweep", "0:0.2:2"]],
        ids=["bounds-input-delta", "sweep-input-delta", "sweep-input-delta-sweep",
             "sweep-delta-and-delta-sweep"],
    )
    def test_conflicting_delta_exit_1(self, capsys, family_path, argv):
        # A state-family file has no delta, and a fixed delta beside a grid
        # would be dropped: rows labelled with either would lie.
        argv = [family_path if a == "FAM" else a for a in argv]
        assert run_cli(argv + ["--p", "1-2"]) == 1
        assert capsys.readouterr().out == ""

    def test_bounds_reads_no_delta_sweep(self, capsys, tmp_path):
        # bounds has no --delta-sweep, so the config key does not turn it into a sweep.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"delta_sweep": "0:0.2:2"}))
        argv = ["bounds", "--preset", "qubit3", "--delta", "0.7", "--p", "1", "--bounds", "cp"]
        rows = self.rows(capsys, argv + ["--config", str(cfg)])
        assert rows == self.rows(capsys, argv)
        assert [r["delta"] for r in rows] == ["0.7"]


@pytest.mark.parametrize(
    "args",
    [["bounds", "--preset", "qubit3", "--bounds", "cp"],
     ["sweep", "--preset", "qubit3", "--p", "1-2", "--bounds", "cp"],
     ["export-scenario", "--preset", "qubit3"]],
    ids=["bounds", "sweep", "export-scenario"],
)
def test_unwritable_output_exit_1(tmp_path, capsys, args):
    # A missing directory is a configuration error with a JSON error
    # line, not a traceback after the computation.
    output = str(tmp_path / "nodir" / "out.csv")
    assert run_cli(args + ["--output", output, "--error-json"]) == 1
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["exit_code"] == 1 and "cannot write output" in payload["message"]
    assert not (tmp_path / "nodir").exists()


class TestCheckCommand:
    def test_paper_values_pass(self, capsys):
        assert run_cli(["check", "--only", "paper-values"]) == 0
        out = capsys.readouterr().out
        assert "PASS 01-qubit-p1-values" in out
        assert "5/5 criteria passed" in out

    def test_unknown_tag(self):
        assert run_cli(["check", "--only", "bogus"]) == 1

    def test_python_m_qmetro(self, tmp_path):
        # ``python -m qmetro`` runs the CLI from a checkout without the
        # runpy warning that ``python -m qmetro.cli`` prints.
        src = os.path.dirname(os.path.dirname(qmetro.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "qmetro", "check", "--only", "paper-values"],
            capture_output=True, text=True, env=env, cwd=tmp_path,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert "5/5 criteria passed" in proc.stdout

    def test_corrupted_criterion_fails_by_name(self, capsys, monkeypatch):
        # Breaking one tolerance must surface as a named FAIL line and a
        # nonzero exit, not a silent pass.
        from qmetro import checks as checks_mod

        def broken():
            return checks_mod.CheckResult(
                name="01-qubit-p1-values", passed=False, detail="tolerance corrupted"
            )

        crit = checks_mod.CRITERIA[0]
        patched = (checks_mod.Criterion(crit.name, crit.tags, broken),) + tuple(
            checks_mod.CRITERIA[1:5]
        )
        monkeypatch.setattr(checks_mod, "CRITERIA", patched)
        assert run_cli(["check", "--only", "paper-values"]) == 2
        out = capsys.readouterr().out
        assert "FAIL 01-qubit-p1-values" in out


class TestExportScenario:
    def test_roundtrip(self, tmp_path):
        out = tmp_path / "fam.json"
        assert run_cli(
            ["export-scenario", "--preset", "qutrit:1,2,5", "--output", str(out)]
        ) == 0
        doc = json.loads(out.read_text())
        assert doc["dim"] == 3 and doc["n"] == 3
        res = tmp_path / "r.csv"
        assert run_cli(
            ["bounds", "--input", str(out), "--p", "1", "--bounds", "cp",
             "--output", str(res)]
        ) == 0
        assert float(read_rows(res)[0]["value"]) == pytest.approx(21 / 8, abs=1e-9)

    def test_requires_preset(self):
        assert run_cli(["export-scenario"]) == 1

    @pytest.mark.parametrize("preset, delta", [("bogus", "0"), ("qubit3", "2")])
    def test_bad_preset_or_delta_exit_1(self, capsys, preset, delta):
        # The same configuration error as in bounds, not a computation error.
        for command in ("export-scenario", "bounds"):
            assert run_cli([command, "--preset", preset, "--delta", delta]) == 1
