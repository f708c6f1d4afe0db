"""Sweep harness and CLI: config validation, CSV schema, determinism,
golden verification, and process exit codes."""

from __future__ import annotations

import csv
import json

import pytest

from cubeperc import harness
from cubeperc.cli import main
from cubeperc.errors import ConfigError, MissingGolden
from cubeperc.harness import (
    KIND_COLUMNS,
    SweepConfig,
    config_from_csv,
    run_sweep,
    verify_goldens,
)
from cubeperc.percolation import deserialize


def data_rows(text: str) -> list[list[str]]:
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return list(csv.reader(lines))


class TestSweepConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "nope"},
            {"n_list": (0,)},
            {"n_list": (31,)},
            {"alpha_list": (-0.1,)},
            {"model": "oriented"},
            {"seed_count": -1},
            {"kind": "neighbor_dist", "pairs": 0},
            {"trials": 0},
            {"kind": "neighbor_dist", "cutoff": -1},
            {"kind": "cycle_census", "budget": 0},
            # analytic_moments is the bond formula; site-model rows would
            # compare the MC mean against the wrong expectation
            {"model": "site"},
        ],
    )
    def test_rejects(self, kwargs):
        base = dict(kind="moments", n_list=(6,), alpha_list=(0.25,))
        base.update(kwargs)
        with pytest.raises(ConfigError):
            SweepConfig(**base)

    @pytest.mark.parametrize(
        "kwargs", [{"pairs": 7}, {"cutoff": 3}, {"routes": 2}, {"budget": 5}, {"eval_pairs": 1}]
    )
    def test_rejects_fields_the_kind_does_not_read(self, kwargs):
        with pytest.raises(ConfigError, match="moments sweeps do not read"):
            SweepConfig(kind="moments", n_list=(6,), **kwargs)

    def test_cells_are_lexicographic(self):
        cfg = SweepConfig(
            kind="moments", n_list=(8, 4), alpha_list=(0.75, 0.25), seed_count=2
        )
        assert cfg.cells() == [
            (4, 0.25, 0), (4, 0.25, 1), (4, 0.75, 0), (4, 0.75, 1),
            (8, 0.25, 0), (8, 0.25, 1), (8, 0.75, 0), (8, 0.75, 1),
        ]

    def test_coerces_list_inputs(self):
        cfg = SweepConfig(kind="moments", n_list=[6], alpha_list=[0.5])
        assert cfg.n_list == (6,) and cfg.alpha_list == (0.5,)


class TestSweepCsv:
    def test_neighbor_dist_schema(self):
        cfg = SweepConfig(
            kind="neighbor_dist", n_list=(6,), alpha_list=(0.25, 0.75),
            seed_count=2, pairs=50, cutoff=5,
        )
        text = run_sweep(cfg)
        lines = text.splitlines()
        assert lines[0] == "# schema: cubeperc/neighbor_dist/v1"
        assert lines[1].startswith("# config: ")
        assert lines[2].startswith("# tolerance: ")
        rows = data_rows(text)
        assert rows[0] == ["n", "alpha", "p", "seed",
                           *KIND_COLUMNS["neighbor_dist"], "error"]
        assert len(rows) - 1 == 1 * 2 * 2
        for row in rows[1:]:
            assert row[0] == "6"
            assert float(row[2]) == pytest.approx(6.0 ** -float(row[1]))
            assert row[-1] == ""  # no cell errors

    def test_moments_schema(self):
        cfg = SweepConfig(
            kind="moments", n_list=(6,), alpha_list=(0.25,), l=1, trials=300
        )
        rows = data_rows(run_sweep(cfg))
        assert rows[0][4:8] == ["analytic_mean", "mc_mean", "mc_trials", "z_score"]
        row = dict(zip(rows[0], rows[1]))
        assert row["mc_trials"] == "300"
        assert abs(float(row["z_score"])) < 6.0

    def test_no_cells_gives_header_only(self):
        cfg = SweepConfig(kind="moments", n_list=(6,), alpha_list=(), trials=10)
        text = run_sweep(cfg)
        assert len(text.splitlines()) == 4  # three comments plus the header

    def test_cell_error_recorded_and_run_continues(self):
        # n=2 cannot host the coordinate layout; n=10 can, but the map
        # build fails honestly (reported in-row, not as an error).
        cfg = SweepConfig(
            kind="distortion", n_list=(2, 10), alpha_list=(0.25,), eval_pairs=64
        )
        rows = data_rows(run_sweep(cfg))
        byn = {row[0]: dict(zip(rows[0], row)) for row in rows[1:]}
        assert "DimensionTooSmall" in byn["2"]["error"]
        assert byn["2"]["built"] == ""
        assert byn["10"]["error"] == ""
        assert byn["10"]["built"] == "0"
        assert float(byn["10"]["bad_frac"]) == 1.0

    def test_bug_in_a_cell_propagates(self, tmp_path, monkeypatch):
        # only CubePercError outcomes belong in the error column; a bug
        # must neither land in a CSV nor let verify bless a golden.  Two
        # cells, so that threads=2 runs them in forked workers
        cfg = SweepConfig(kind="moments", n_list=(6,), alpha_list=(0.25,), seed_count=2,
                          l=1, trials=50)
        gold = tmp_path / "goldens"
        gold.mkdir()
        (gold / "m.csv").write_text(run_sweep(cfg), encoding="utf-8")

        def buggy(*args):
            raise TypeError("unsupported operand")

        monkeypatch.setitem(harness._ROW_FNS, "moments", buggy)
        for threads in (1, 2):
            with pytest.raises(TypeError):
                run_sweep(cfg, threads=threads)
            report = verify_goldens(str(gold), threads=threads)
            assert not report.passed
            assert report.summary().startswith("FAIL m.csv")
            assert "TypeError" in report.checks[0].detail
            assert "test_harness.py:" in report.checks[0].detail

    def test_reruns_are_byte_identical(self):
        cfg = SweepConfig(
            kind="moments", n_list=(6,), alpha_list=(0.25,),
            seed_count=2, l=1, trials=200,
        )
        first = run_sweep(cfg)
        assert run_sweep(cfg) == first
        assert run_sweep(cfg, threads=2) == first

    def test_config_roundtrip(self):
        cfg = SweepConfig(
            kind="route", n_list=(5,), alpha_list=(0.25, 0.75),
            base_seed=9, seed_count=2, routes=17, query_budget=5000,
        )
        restored = config_from_csv(run_sweep(cfg))
        assert restored == cfg

    def test_config_from_csv_requires_comment(self):
        with pytest.raises(ConfigError):
            config_from_csv("n,alpha\n6,0.25\n")

    def test_tolerance_column_nan_never_matches_a_number(self):
        # a bug that turns a float column into nan must not pass verify,
        # whichever side holds the nan; equal cells, inf included, match
        tolerances = harness.TOLERANCES["distortion"]

        def compare(golden, fresh):
            table = "n,d_plus,error\n3,{},\n"
            return harness._compare_csv(table.format(golden), table.format(fresh), tolerances)

        for golden, fresh in (("2.0", "nan"), ("nan", "2.0"), ("inf", "2.0"), ("", "2.0")):
            assert "col d_plus" in compare(golden, fresh), (golden, fresh)
        for golden, fresh in (("nan", "nan"), ("inf", "inf"), ("2.0", "2.0000000000001")):
            assert compare(golden, fresh) == "", (golden, fresh)


class TestVerifyGoldens:
    CFG = dict(kind="moments", n_list=(6,), alpha_list=(0.25,), l=1, trials=200)

    def write_golden(self, directory, name="a.csv", text=None):
        directory.mkdir(exist_ok=True)
        if text is None:
            text = run_sweep(SweepConfig(**self.CFG))
        (directory / name).write_text(text, encoding="utf-8")
        return text

    def test_matching_golden_passes(self, tmp_path):
        gold = tmp_path / "goldens"
        self.write_golden(gold)
        report = verify_goldens(str(gold))
        assert report.passed
        assert "1/1 golden files match" in report.summary()
        assert report.summary().startswith("PASS a.csv")

    def test_byte_mismatch_fails_with_excerpt(self, tmp_path):
        cfg = SweepConfig(
            kind="cycle_census", n_list=(4,), alpha_list=(0.25,), max_length=4
        )
        text = run_sweep(cfg)
        lines = text.splitlines()
        row = lines[4].split(",")
        row[4] = str(int(row[4]) + 1)  # corrupt cycle_count
        lines[4] = ",".join(row)
        gold = tmp_path / "goldens"
        self.write_golden(gold, text="\n".join(lines) + "\n")
        report = verify_goldens(str(gold))
        assert not report.passed
        assert "line 5" in report.checks[0].detail

    def test_float_columns_respect_tolerance(self, tmp_path):
        text = run_sweep(SweepConfig(**self.CFG))
        lines = text.splitlines()
        header = lines[3].split(",")
        zcol = header.index("z_score")
        row = lines[4].split(",")
        within = row[:]
        within[zcol] = repr(float(row[zcol]) + 5e-7)  # inside the 1e-6 band
        beyond = row[:]
        beyond[zcol] = repr(float(row[zcol]) + 1.0)
        gold = tmp_path / "goldens"
        self.write_golden(gold, "within.csv", "\n".join(lines[:4] + [",".join(within)]) + "\n")
        self.write_golden(gold, "zbeyond.csv", "\n".join(lines[:4] + [",".join(beyond)]) + "\n")
        report = verify_goldens(str(gold))
        by_file = {c.file: c for c in report.checks}
        assert by_file["within.csv"].ok
        assert not by_file["zbeyond.csv"].ok
        assert "z_score" in by_file["zbeyond.csv"].detail

    def test_stale_schema_line_fails(self, tmp_path):
        # comment lines are compared too, so a golden from another schema
        # version cannot pass on matching rows
        lines = run_sweep(SweepConfig(**self.CFG)).splitlines()
        lines[0] = lines[0].replace(f"/{harness.SCHEMA_VERSION}", "/v0")
        gold = tmp_path / "goldens"
        self.write_golden(gold, text="\n".join(lines) + "\n")
        report = verify_goldens(str(gold))
        assert not report.passed
        assert "line 1" in report.checks[0].detail

    def test_loosened_tolerance_line_fails(self, tmp_path):
        # tolerances come from the code; a golden that widens its own
        # tolerance line cannot bless a drifted mc_mean
        lines = run_sweep(SweepConfig(**self.CFG)).splitlines()
        loose = dict(harness.TOLERANCES["moments"], mc_mean=100.0)
        lines[2] = f"# tolerance: {json.dumps(loose, sort_keys=True)}"
        col = lines[3].split(",").index("mc_mean")
        row = lines[4].split(",")
        row[col] = repr(float(row[col]) + 5.0)
        lines[4] = ",".join(row)
        gold = tmp_path / "goldens"
        self.write_golden(gold, text="\n".join(lines) + "\n")
        report = verify_goldens(str(gold))
        assert not report.passed
        assert "line 3" in report.checks[0].detail

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(MissingGolden):
            verify_goldens(str(tmp_path / "absent"))

    def test_empty_directory_raises(self, tmp_path):
        empty = tmp_path / "goldens"
        empty.mkdir()
        with pytest.raises(MissingGolden):
            verify_goldens(str(empty))

    def test_unparseable_golden_is_a_failed_check(self, tmp_path):
        gold = tmp_path / "goldens"
        self.write_golden(gold, "junk.csv", "not,a,sweep\n1,2,3\n")
        report = verify_goldens(str(gold))
        assert not report.passed
        assert "ConfigError" in report.checks[0].detail


class TestCli:
    def test_sample_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "s.bin"
        rc = main(["sample", "-n", "4", "--alpha", "0.5", "--seed", "3",
                   "--out", str(out)])
        assert rc == 0
        assert "open_edges=" in capsys.readouterr().out
        sm = deserialize(out.read_bytes())
        assert sm.shape.n == 4

    def test_seed_and_out_only_where_read(self, tmp_path, capsys):
        for argv in (["verify", str(tmp_path), "--seed", "1"], ["verify", str(tmp_path), "--out", "f"],
                     ["--seed", "5", "sample", "-n", "4"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        assert main(["sample", "-n", "4", "--seed", "5"]) == 0
        assert "seed=5" in capsys.readouterr().out

    def test_threads_only_on_sweep_and_verify(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sample", "-n", "4", "--threads", "2"])
        assert exc.value.code == 2
        sweep = ["sweep", "--kind", "moments", "-n", "6", "--seeds", "2", "-l", "1", "--trials", "50"]
        assert main(sweep + ["--threads", "1"]) == 0
        one = capsys.readouterr().out
        assert main(sweep + ["--threads", "2"]) == 0
        assert capsys.readouterr().out == one

    def test_sweep_to_file(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--kind", "moments", "-n", "6", "--alpha", "0.25",
                   "-l", "1", "--trials", "100", "--out", str(out)])
        assert rc == 0
        assert out.read_text().startswith("# schema: cubeperc/moments/v1")

    def test_sweep_flag_the_kind_does_not_read_exits_2(self, capsys):
        rc = main(["sweep", "--kind", "moments", "-n", "6", "--pairs", "7"])
        assert rc == 2
        assert "moments sweeps do not read pairs" in capsys.readouterr().err

    def test_sweep_cell_error_exits_1(self, capsys):
        rc = main(["sweep", "--kind", "distortion", "-n", "2",
                   "--alpha", "0.25", "--out", "/dev/null"])
        assert rc == 1

    @pytest.mark.parametrize(
        "flags",
        [["-n", "4", "--alpha", "-1"], ["-n", "4", "--alpha", "nan"], ["-n", "0"], ["-n", "31"]],
    )
    def test_sample_out_of_range_exits_2(self, flags, capsys):
        # the same n and alpha ranges as a sweep, with the same exit code
        assert main(["sample", *flags]) == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_n_exits_2(self, capsys):
        rc = main(["sweep", "--kind", "moments", "-n", "31", "--alpha", "0.25"])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_kind_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--kind", "bogus", "-n", "6"])
        assert exc.value.code == 2

    def test_verify_missing_dir_exits_1(self, tmp_path, capsys):
        rc = main(["verify", str(tmp_path / "absent")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_verify_pass_exits_0(self, tmp_path, capsys):
        gold = tmp_path / "goldens"
        gold.mkdir()
        text = run_sweep(
            SweepConfig(kind="moments", n_list=(6,), alpha_list=(0.25,),
                        l=1, trials=100)
        )
        (gold / "m.csv").write_text(text, encoding="utf-8")
        rc = main(["verify", str(gold)])
        assert rc == 0
        assert "1/1 golden files match" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command, kind, n, alpha, flags",
        [
            ("distort", "distortion", 10, 0.25, {"eval_pairs": 64}),
            ("distort", "distortion", 2, 0.25, {}),  # error row, exit 1
            ("cycles", "cycle_census", 6, 0.25, {"max_length": 6, "model": "site"}),
            ("route", "route", 8, 0.5, {"routes": 10, "query_budget": 5000}),
            ("moments", "moments", 10, 0.25, {"l": 1, "trials": 200}),
        ],
    )
    def test_cell_command_reprints_sweep_row(self, capsys, command, kind, n, alpha, flags):
        cfg = SweepConfig(kind=kind, n_list=(n,), alpha_list=(alpha,),
                          base_seed=7, seed_count=2, **flags)
        rows = data_rows(run_sweep(cfg))
        argv = [command, "-n", str(n), "--alpha", str(alpha)]
        for name, value in flags.items():
            argv += ["-l" if name == "l" else "--" + name.replace("_", "-"), str(value)]
        for row in rows[1:]:
            rc = main([*argv, "--seed", row[3]])
            out = capsys.readouterr().out
            assert [ln.split("=", 1) for ln in out.splitlines()] == [list(c) for c in zip(rows[0], row)]
            assert rc == (1 if row[-1] else 0)

    def test_distort_build_failure_exits_1(self, capsys):
        # a failed build is a reported value of the row, not an error
        rc = main(["distort", "-n", "10", "--alpha", "0.25"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert "built=0" in out
        assert "bad_frac=1.0" in out
        assert "error=" in out

    def test_route_reports_outcome(self, capsys):
        rc = main(["route", "-n", "4", "--alpha", "0", "--routes", "5"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert "found_frac=1.0" in out
        assert "opt_match_frac=1.0" in out

    def test_moments_reports_analytic_mean(self, capsys):
        rc = main(["moments", "-n", "10", "--alpha", "0.25", "-l", "2",
                   "--trials", "100"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "analytic_mean=" in out
        assert "mc_trials=100" in out

    def test_moments_site_model_exits_2(self, capsys):
        rc = main(["moments", "-n", "10", "--model", "site"])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_cycles_census(self, capsys):
        rc = main(["cycles", "-n", "3", "--alpha", "0", "--max-length", "4",
                   "--radius", "0"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert "cycle_count=3" in out
        assert "partial=0" in out
