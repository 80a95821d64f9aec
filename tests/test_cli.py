"""Command-line harness: subcommands, exit codes, file outputs."""

import csv
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hybridpath
from hybridpath.cli import REPORT_FIELDS, main
from hybridpath.instance import EdgeParams, Instance, save
from conftest import (FIXTURES, FIVE_NODE_COST, FIVE_NODE_SUP_LB,
                      SLD_TRAP_COST, make_chain, make_sld_trap)

FIVE = str(FIXTURES / "five_node.json")


def stats_line(capsys):
    """Parse the key=value solve report from captured stdout."""
    out = capsys.readouterr().out
    line = next(ln for ln in out.splitlines() if ln.startswith("status="))
    return dict(part.split("=", 1) for part in line.split())


def make_infeasible(path):
    save(Instance(nodes=((0.0, 0.0), (1.0, 0.0)),
                  edges=(EdgeParams(0, 1, 1.0, 9, 0),),
                  start=0, goal=1, b0=5, bmin=0, bmax=5, q0=3, v=0,
                  quantization=1.0), path)


class TestSolve:
    def test_optimal_exit_and_report(self, tmp_path, capsys):
        out = tmp_path / "sol.json"
        assert main(["solve", FIVE, "--out", str(out)]) == 0
        report = stats_line(capsys)
        assert report["status"] == "optimal"
        assert float(report["cost"]) == FIVE_NODE_COST
        assert float(report["sup_lower_bound"]) == FIVE_NODE_SUP_LB
        assert report["rounds"] == "1"
        doc = json.loads(out.read_text())
        assert doc["cost"] == FIVE_NODE_COST

    def test_default_output_location(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("HYBRIDPATH_OUT_DIR", str(tmp_path))
        assert main(["solve", FIVE]) == 0
        assert (tmp_path / "five_node.solution.json").exists()

    def test_infeasible_exit_2(self, tmp_path, capsys):
        inst = tmp_path / "dead.json"
        make_infeasible(inst)
        assert main(["solve", str(inst)]) == 2
        captured = capsys.readouterr().out
        assert "no feasible path" in captured
        assert "status=infeasible" in captured

    def test_limit_exit_3(self, tmp_path, capsys):
        assert main(["solve", FIVE, "--max-labels", "1",
                     "--out", str(tmp_path / "x.json")]) == 3
        report = stats_line(capsys)
        assert report["status"] == "limit"
        assert float(report["open_lower_bound"]) <= FIVE_NODE_COST

    def test_heuristics_agree_and_sup_treats_no_more(self, tmp_path, capsys):
        reports = {}
        for heur in ("sup", "zero"):
            main(["solve", FIVE, "--heuristic", heur,
                  "--out", str(tmp_path / f"{heur}.json")])
            reports[heur] = stats_line(capsys)
        assert reports["sup"]["cost"] == reports["zero"]["cost"]
        assert (int(reports["sup"]["labels_treated"])
                <= int(reports["zero"]["labels_treated"]))

    def test_missing_file(self, capsys):
        assert main(["solve", "/nonexistent/foo.json"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_flag_value(self, capsys):
        assert main(["solve", FIVE, "--selection", "sideways"]) == 1

    def test_inadmissible_sld_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "trap.json"
        save(make_sld_trap(), path)
        assert main(["solve", str(path), "--heuristic", "sld",
                     "--out", str(tmp_path / "x.json")]) == 1
        captured = capsys.readouterr()
        assert "status=" not in captured.out
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "inadmissible" in captured.err
        assert main(["solve", str(path),
                     "--out", str(tmp_path / "x.json")]) == 0
        assert float(stats_line(capsys)["cost"]) == SLD_TRAP_COST

    @pytest.mark.parametrize("flags", [
        ["--max-seconds", "nan"], ["--max-seconds", "-1"],
        ["--max-labels", "-3"],
    ])
    def test_bad_limit_one_line_error(self, tmp_path, capsys, flags):
        assert main(["solve", FIVE, "--out", str(tmp_path / "x.json"),
                     *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "non-negative" in captured.err

    @pytest.mark.parametrize("edit", [
        lambda doc: doc.update(b0=math.inf),
        lambda doc: doc.update(q0=math.nan),
        lambda doc: doc["edges"][0].update(c=-math.inf),
        lambda doc: doc["edges"][0].update(gen_allowed="false"),
        lambda doc: doc.update(goal=4.5),
    ])
    def test_malformed_instance_one_line_error(self, tmp_path, capsys, edit):
        doc = json.loads((FIXTURES / "five_node.json").read_text())
        edit(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))  # writes Infinity / NaN literals
        assert main(["solve", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestGenerate:
    MANIFEST = {
        "name": "smoke",
        "defaults": {"n_nodes": 9, "k_neighbors": 3, "b_frac": 0.8,
                     "seed": 4},
        "instances": [
            {"id": "a"},
            {"id": "b", "seed": 5},
            {"id": "c", "q_frac": 0.0, "b_frac": 1.3},
        ],
    }

    def write_manifest(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(self.MANIFEST))
        return str(path)

    def test_expands_manifest(self, tmp_path, capsys):
        manifest = self.write_manifest(tmp_path)
        out = tmp_path / "suite"
        assert main(["generate", manifest, str(out)]) == 0
        assert sorted(p.name for p in out.glob("*.json")) == [
            "a.json", "b.json", "c.json", "suite.json"]
        suite = json.loads((out / "suite.json").read_text())
        assert [rec["id"] for rec in suite["instances"]] == ["a", "b", "c"]
        assert suite["instances"][2]["spec"]["q_frac"] == 0.0

    def test_rerun_byte_identical(self, tmp_path, capsys):
        manifest = self.write_manifest(tmp_path)
        d1, d2 = tmp_path / "one", tmp_path / "two"
        assert main(["generate", manifest, str(d1)]) == 0
        assert main(["generate", manifest, str(d2)]) == 0
        for name in ("a.json", "b.json", "c.json", "suite.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_seed_override_changes_output(self, tmp_path, capsys):
        manifest = self.write_manifest(tmp_path)
        d1, d2 = tmp_path / "one", tmp_path / "two"
        assert main(["generate", manifest, str(d1)]) == 0
        assert main(["generate", manifest, str(d2), "--seed", "11"]) == 0
        assert (d1 / "a.json").read_bytes() != (d2 / "a.json").read_bytes()
        # per-entry seeds are not overridden
        assert (d1 / "b.json").read_bytes() == (d2 / "b.json").read_bytes()

    def test_duplicate_id_rejected(self, tmp_path, capsys):
        bad = dict(self.MANIFEST,
                   instances=[{"id": "a"}, {"id": "a", "seed": 5}])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert main(["generate", str(path), str(tmp_path / "out")]) == 1
        assert "duplicate" in capsys.readouterr().err

    def test_empty_manifest_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"instances": []}))
        assert main(["generate", str(path), str(tmp_path / "out")]) == 1

    @pytest.mark.parametrize("manifest", [
        {"instances": [5]},
        [{"id": "a"}],
        {"defaults": 3, "instances": [{"id": "a"}]},
        {"instances": {"id": "a"}},
        {"instances": [{"id": "a", "n_nodes": "9"}]},
        {"instances": [{"id": ["a"]}]},
        {"instances": [{"id": "a", "seed": 1}]},
        {"instances": [{"id": "a", "n_nodes": 9, "seed": 10 ** 400}]},
        {"instances": [{"id": "a", "n_nodes": 9, "alpha": -10 ** 400}]},
        {"defaults": {"dims": [10 ** 400, 3]},
         "instances": [{"id": "a", "n_nodes": 9, "family": "lattice"}]},
    ])
    def test_malformed_manifest_one_line_error(self, tmp_path, capsys,
                                               manifest):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(manifest))
        assert main(["generate", str(path), str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("eid", ["../evil", "sub/a", "sub\\a", ".",
                                     "..", "suite"])
    def test_id_not_a_file_stem_rejected(self, tmp_path, capsys, eid):
        # "../evil" would land beside the output directory, "suite" would
        # be overwritten by the index; nothing may be written
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"instances": [{"id": "a", "n_nodes": 9}, {"id": eid}]}))
        assert main(["generate", str(path), str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]

    def test_unknown_spec_field_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"instances": [{"id": "a", "wings": 2}]}))
        assert main(["generate", str(path), str(tmp_path / "out")]) == 1
        assert "wings" in capsys.readouterr().err


def huge_cost_file():
    """The five-node fixture with an edge cost too large for a float."""
    doc = json.loads(Path(FIVE).read_text())
    doc["edges"][0]["d"] = 10 ** 400
    return json.dumps(doc).encode()


# instance files that are not JSON, not UTF-8 text, nested past the
# parser's recursion limit, and with a number too large for a float, each
# with the start of the note it is flagged with
BAD_FILES = (
    (b"{ not json", "invalid JSON"),
    (b"\xff\xfe{}", "invalid JSON"),
    (b"[" * 100_000, "invalid JSON"),
    (huge_cost_file(), "edges[0] field 'd' must be finite"),
)


def make_suite(tmp_path):
    suite = tmp_path / "suite"
    suite.mkdir(parents=True)
    shutil.copy(FIVE, suite / "alpha.json")
    shutil.copy(FIVE, suite / "beta.json")
    return suite


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestBench:
    def test_matrix_rows_sorted(self, tmp_path, capsys):
        suite = make_suite(tmp_path)
        out = tmp_path / "bench.csv"
        assert main(["bench", str(suite), "--out", str(out),
                     "--selection", "label,node",
                     "--heuristic", "sup,zero"]) == 0
        rows = read_csv(out)
        assert len(rows) == 8
        key = [(r["selection"], r["heuristic"], r["id"]) for r in rows]
        assert key == sorted(key)
        assert all(r["cost"] == repr(FIVE_NODE_COST) for r in rows)
        assert all(r["status"] == "optimal" for r in rows)

    def test_deterministic_columns_and_jobs(self, tmp_path, capsys):
        suite = make_suite(tmp_path)
        stable = []
        for k, jobs in enumerate(("1", "1", "2")):
            out = tmp_path / f"bench{k}.csv"
            assert main(["bench", str(suite), "--out", str(out),
                         "--selection", "label,node",
                         "--heuristic", "sup", "--jobs", jobs]) == 0
            rows = read_csv(out)
            stable.append([(r["id"], r["selection"], r["heuristic"],
                            r["status"], r["cost"], r["labels_created"],
                            r["labels_treated"], r["labels_pruned"],
                            r["peak_open"], r["rounds"]) for r in rows])
        assert stable[0] == stable[1] == stable[2]

    def test_corrupt_file_flagged_run_continues(self, tmp_path, capsys):
        for i, (content, note) in enumerate(BAD_FILES):
            suite = make_suite(tmp_path / str(i))
            (suite / "broken.json").write_bytes(content)
            out = tmp_path / str(i) / "bench.csv"
            assert main(["bench", str(suite), "--out", str(out)]) == 1
            rows = read_csv(out)
            flagged = [r for r in rows if r["status"] == "error"]
            assert len(flagged) == 1, content[:10]
            assert flagged[0]["id"] == "broken"
            assert flagged[0]["note"].startswith(note)
            assert sum(1 for r in rows if r["status"] == "optimal") == 2

    def test_inadmissible_sld_rows_flagged(self, tmp_path, capsys):
        suite = tmp_path / "suite"
        suite.mkdir()
        save(make_sld_trap(), suite / "trap.json")
        out = tmp_path / "bench.csv"
        assert main(["bench", str(suite), "--out", str(out),
                     "--heuristic", "sup,sld"]) == 1
        rows = {r["heuristic"]: r for r in read_csv(out)}
        assert rows["sup"]["status"] == "optimal"
        assert float(rows["sup"]["cost"]) == SLD_TRAP_COST
        assert rows["sld"]["status"] == "error"
        assert rows["sld"]["cost"] == ""
        assert "inadmissible" in rows["sld"]["note"]

    @staticmethod
    def cost_sweeps(monkeypatch):
        """The instances of every reverse Dijkstra over the cost ``d``
        from now on; the solver's drain sweeps are not counted."""
        sweeps = []
        sweep = hybridpath.heuristics._reverse_sweep

        def counted(instance, drain):
            if not drain:
                sweeps.append(instance)
            return sweep(instance, drain)

        monkeypatch.setattr(hybridpath.heuristics, "_reverse_sweep", counted)
        return sweeps

    def test_one_sweep_per_instance(self, tmp_path, capsys, monkeypatch):
        """bench, solve and verify run one cost sweep per instance: the
        sweep that gives sup_lower_bound is the sup rows' table."""
        sweeps = self.cost_sweeps(monkeypatch)
        suite = make_suite(tmp_path)
        out = tmp_path / "bench.csv"
        assert main(["bench", str(suite), "--out", str(out),
                     "--selection", "label,node",
                     "--heuristic", "sup,zero"]) == 0
        rows = read_csv(out)
        assert len(rows) == 8
        assert len(sweeps) == 2
        assert all(float(r["sup_lower_bound"]) == FIVE_NODE_SUP_LB
                   for r in rows)
        for heuristic in ("sup", "zero"):
            sweeps.clear()
            assert main(["solve", FIVE, "--heuristic", heuristic,
                         "--out", str(tmp_path / "x.json")]) == 0
            assert len(sweeps) == 1, heuristic
        sweeps.clear()
        assert main(["verify", str(suite)]) == 0
        assert len(sweeps) == 2

    @staticmethod
    def cut_suite(tmp_path):
        """A suite of one instance whose goal is unreachable from start."""
        suite = tmp_path / "suite"
        suite.mkdir()
        save(Instance(nodes=((0.0, 0.0), (1.0, 0.0), (2.0, 0.0)),
                      edges=(EdgeParams(1, 2, 1.0, 0, 0),),
                      start=0, goal=2, b0=5, bmin=0, bmax=5, q0=3, v=0,
                      quantization=1.0), suite / "cut.json")
        return suite

    def test_unreachable_goal_rows(self, tmp_path, capsys):
        suite = self.cut_suite(tmp_path)
        out = tmp_path / "bench.csv"
        assert main(["bench", str(suite), "--out", str(out),
                     "--selection", "label,node",
                     "--heuristic", "sup,zero"]) == 0
        rows = read_csv(out)
        assert len(rows) == 4
        for row in rows:
            assert row["status"] == "infeasible"
            assert row["cost"] == row["sup_lower_bound"] == ""
            assert float(row["table_time"]) >= 0
        capsys.readouterr()
        assert main(["solve", str(suite / "cut.json"),
                     "--out", str(tmp_path / "x.json")]) == 2
        report = stats_line(capsys)
        assert report["status"] == "infeasible"
        assert "sup_lower_bound" not in report
        assert main(["verify", str(suite)]) == 0
        assert "cut: ok (infeasible)" in capsys.readouterr().out

    def test_unreachable_goal_one_sweep(self, tmp_path, capsys, monkeypatch):
        """An unreachable goal is read from the one sweep's result; no
        second sweep builds the sup rows' table."""
        sweeps = self.cost_sweeps(monkeypatch)
        suite = self.cut_suite(tmp_path)
        assert main(["bench", str(suite), "--out", str(tmp_path / "b.csv"),
                     "--heuristic", "sup,zero"]) == 0
        assert len(sweeps) == 1
        sweeps.clear()
        assert main(["solve", str(suite / "cut.json"),
                     "--out", str(tmp_path / "x.json")]) == 2
        assert len(sweeps) == 1

    def test_aggregate_output(self, tmp_path, capsys):
        suite = make_suite(tmp_path)
        agg = tmp_path / "agg.csv"
        assert main(["bench", str(suite), "--out",
                     str(tmp_path / "b.csv"), "--aggregate", str(agg),
                     "--selection", "label,node"]) == 0
        arows = read_csv(agg)
        assert [r["selection"] for r in arows] == ["label", "node"]
        assert all(r["runs"] == "2" for r in arows)
        assert all(float(r["wall_time_q1"]) <= float(r["wall_time_median"])
                   <= float(r["wall_time_q3"]) for r in arows)

    def test_default_csv_location_and_suite_json(self, tmp_path, capsys):
        suite = make_suite(tmp_path)
        listing = {"name": "s", "instances": [{"id": "alpha",
                                               "file": "alpha.json"}]}
        (suite / "suite.json").write_text(json.dumps(listing))
        assert main(["bench", str(suite)]) == 0
        rows = read_csv(suite / "bench.csv")
        assert [r["id"] for r in rows] == ["alpha"]  # suite.json wins

    def test_bad_choice_lists(self, tmp_path, capsys):
        suite = make_suite(tmp_path)
        assert main(["bench", str(suite), "--heuristic", "psychic"]) == 1
        assert "unknown heuristic" in capsys.readouterr().err
        assert main(["bench", str(tmp_path / "void")]) == 1

    @pytest.mark.parametrize("command", ["bench", "verify"])
    @pytest.mark.parametrize("listing", [
        {"instances": [5]},
        {"name": "x"},
        [{"id": "alpha", "file": "alpha.json"}],
        {"instances": {"id": "alpha", "file": "alpha.json"}},
        {"instances": [{"id": "alpha", "file": 5}]},
        {"instances": [{"id": "alpha"}]},
    ])
    def test_malformed_suite_json_one_line_error(self, tmp_path, capsys,
                                                 command, listing):
        suite = make_suite(tmp_path)
        (suite / "suite.json").write_text(json.dumps(listing))
        assert main([command, str(suite)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "suite.json" in captured.err

    @pytest.mark.parametrize("flags", [
        ["--jobs", "0"], ["--jobs", "-1"], ["--max-labels", "-3"],
        ["--max-seconds", "nan"],
    ])
    def test_bad_run_flags_fail_before_any_file(self, tmp_path, capsys,
                                                flags):
        suite = make_suite(tmp_path)
        (suite / "broken.json").write_bytes(BAD_FILES[0][0])
        out = tmp_path / "bench.csv"
        assert main(["bench", str(suite), "--out", str(out), *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_limit_rows_marked(self, tmp_path, capsys):
        suite = make_suite(tmp_path)
        out = tmp_path / "bench.csv"
        assert main(["bench", str(suite), "--out", str(out),
                     "--max-labels", "1"]) == 0
        assert all(r["status"] == "limit" and r["cost"] == ""
                   for r in read_csv(out))


class TestVerify:
    def test_all_matched(self, tmp_path, capsys):
        suite = make_suite(tmp_path)
        make_infeasible(suite / "dead.json")
        assert main(["verify", str(suite)]) == 0
        out = capsys.readouterr().out
        assert out.count(f"ok ({FIVE_NODE_COST!r})") == 2
        assert "dead: ok (infeasible)" in out
        assert "3/3 matched, 0 skipped" in out

    def test_unreadable_file_reported_run_continues(self, tmp_path, capsys):
        for i, (content, note) in enumerate(BAD_FILES):
            suite = tmp_path / str(i)
            suite.mkdir()
            shutil.copy(FIVE, suite / "a.json")
            (suite / "b.json").write_bytes(content)
            shutil.copy(FIVE, suite / "c.json")
            assert main(["verify", str(suite)]) == 1
            out = capsys.readouterr().out.splitlines()
            assert out[0].startswith(f"a: ok ({FIVE_NODE_COST!r})")
            assert out[1].startswith(f"b: error ({note}"), content[:10]
            assert out[2].startswith(f"c: ok ({FIVE_NODE_COST!r})")
            assert out[3] == "2/2 matched, 0 skipped, 1 unreadable"

    @staticmethod
    def deep_suite(tmp_path):
        """a, c: the five-node fixture; deep: a chain too deep for the
        oracle's recursive walk."""
        suite = tmp_path / "suite"
        suite.mkdir()
        shutil.copy(FIVE, suite / "a.json")
        save(make_chain(1200), suite / "deep.json")
        shutil.copy(FIVE, suite / "c.json")
        (suite / "suite.json").write_text(json.dumps({"instances": [
            {"file": "a.json"}, {"file": "deep.json"}, {"file": "c.json"}]}))
        return suite

    def test_deep_instance_skipped_run_continues(self, tmp_path, capsys):
        suite = self.deep_suite(tmp_path)
        assert main(["verify", str(suite)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith(f"a: ok ({FIVE_NODE_COST!r})")
        assert out[1] == ("deep: skipped (oracle budget exceeded: a path "
                          "deeper than the recursion limit)")
        assert out[2].startswith(f"c: ok ({FIVE_NODE_COST!r})")
        assert out[3] == "2/2 matched, 1 skipped"

    def test_skipped_file_still_exports_milp(self, tmp_path, capsys):
        suite = self.deep_suite(tmp_path)
        assert main(["verify", str(suite), "--export-milp"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[1].startswith("deep: skipped (oracle budget exceeded")
        assert out[3] == "2/2 matched, 1 skipped"
        assert (suite / "deep.lp").read_text().startswith("Minimize")

    def test_skipped_file_replay_failure_is_mismatch(self, tmp_path, capsys,
                                                     monkeypatch):
        import hybridpath.cli as cli
        suite = self.deep_suite(tmp_path)
        real = cli.check_solution

        def fail_deep(instance, solution):
            if instance.n_nodes > 5:
                return "step 7: battery below bmin"
            return real(instance, solution)

        monkeypatch.setattr(cli, "check_solution", fail_deep)
        assert main(["verify", str(suite)]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith(f"a: ok ({FIVE_NODE_COST!r})")
        assert out[1].startswith("deep: MISMATCH — label/sup: replay: "
                                 "step 7: battery below bmin")
        assert out[2].startswith(f"c: ok ({FIVE_NODE_COST!r})")
        assert out[3] == "2/3 matched, 0 skipped"

    def test_export_milp_writes_lp(self, tmp_path, capsys):
        suite = make_suite(tmp_path)
        assert main(["verify", str(suite), "--export-milp"]) == 0
        text = (suite / "alpha.lp").read_text()
        assert text.startswith("Minimize")
        assert (suite / "beta.lp").exists()

    def test_oracle_budget_skips(self, tmp_path, capsys, monkeypatch):
        import hybridpath.cli as cli
        suite = make_suite(tmp_path)

        def tiny_budget(instance, budget=500_000):
            raise cli.verify.OracleBudgetError(
                "oracle budget exceeded: more than 1 search steps")

        monkeypatch.setattr(cli.verify, "oracle_solve", tiny_budget)
        assert main(["verify", str(suite)]) == 0
        out = capsys.readouterr().out
        assert "skipped" in out
        assert "0/0 matched, 2 skipped" in out


class TestExportMilp:
    def test_writes_lp(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("HYBRIDPATH_OUT_DIR", str(tmp_path))
        assert main(["export-milp", FIVE]) == 0
        text = (tmp_path / "five_node.lp").read_text()
        assert text.startswith("Minimize")
        assert "batt_le_0_1:" in text


class TestReport:
    @pytest.mark.parametrize("limit", [[], ["--max-labels", "1"]])
    def test_solve_fields_equal_bench_row(self, tmp_path, capsys, limit):
        """solve prints the bench row's report columns, non-empty ones
        only, in CSV order, plus open_lower_bound at a limit."""
        suite = tmp_path / "suite"
        suite.mkdir()
        shutil.copy(FIVE, suite / "five_node.json")
        out = tmp_path / "bench.csv"
        assert main(["bench", str(suite), "--out", str(out),
                     "--selection", "label,node", "--heuristic", "sup,zero",
                     *limit]) == 0
        rows = read_csv(out)
        assert len(rows) == 4
        capsys.readouterr()
        for row in rows:
            main(["solve", FIVE, "--selection", row["selection"],
                  "--heuristic", row["heuristic"],
                  "--out", str(tmp_path / "x.json"), *limit])
            report = stats_line(capsys)
            keys = [k for k in REPORT_FIELDS if row[k] != ""]
            if limit:
                assert row["status"] == "limit"
                keys.insert(keys.index("sup_lower_bound") + 1,
                            "open_lower_bound")
            assert list(report) == keys
            for key in keys:
                if key not in ("wall_time", "table_time", "open_lower_bound"):
                    assert report[key] == row[key], key


class TestErrors:
    @pytest.mark.parametrize("argv", [
        ["solve", "{dir}"],
        ["export-milp", "{dir}"],
        ["solve", FIVE, "--out", "{dir}"],
        ["generate", "{manifest}", "{manifest}"],
    ], ids=["solve-dir", "export-milp-dir", "solve-out-dir",
            "generate-into-file"])
    def test_os_error_one_line(self, tmp_path, capsys, argv):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(TestGenerate.MANIFEST))
        assert main([arg.format(dir=tmp_path, manifest=manifest)
                     for arg in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_process_exit_codes(self, tmp_path):
        """The ``python -m hybridpath.cli`` entry point passes main's
        code to the process; the four solves run side by side."""
        dead = tmp_path / "dead.json"
        make_infeasible(dead)
        src = str(Path(hybridpath.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        cases = {0: [FIVE], 2: [str(dead)], 3: [FIVE, "--max-labels", "1"],
                 1: [str(tmp_path)]}
        procs = {code: subprocess.Popen(
            [sys.executable, "-m", "hybridpath.cli", "solve", *args,
             "--out", str(tmp_path / f"{code}.solution.json")],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True) for code, args in cases.items()}
        for code, proc in procs.items():
            out, err = proc.communicate(timeout=60)
            assert proc.returncode == code, err
            if code == 1:
                assert err.startswith("error: ") and err.count("\n") == 1
            else:
                assert out.startswith("status=") and err == ""


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert main(["transmogrify"]) == 1

    def test_missing_argument(self, capsys):
        assert main(["solve"]) == 1

    def test_no_arguments(self, capsys):
        assert main([]) == 1
