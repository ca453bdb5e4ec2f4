import json
from pathlib import Path

import pytest

from backlim import cli
from backlim.cli import enumerate_scan_maps, main
from backlim.corpus import build_f5, build_overlap
from backlim.plmap import map_digest, serialize_map


@pytest.fixture()
def f5_path(tmp_path):
    p = tmp_path / "f5.json"
    p.write_text(serialize_map(build_f5().map))
    return str(p)


@pytest.fixture()
def overlap_path(tmp_path):
    p = tmp_path / "overlap.json"
    p.write_text(serialize_map(build_overlap().map))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestAnalyze:
    def test_f5_report(self, capsys, f5_path):
        code, out = run(capsys, "analyze", f5_path, "--point", "0")
        assert code == 0
        report = json.loads(out)
        enc = report["result"]["enclosure"]
        for member in ("0", "1", "5", "2", "4"):
            assert member in enc["lower_points"]
        assert report["exact"] is False
        assert report["map_digest"] == map_digest(build_f5().map)

    def test_overlap_exact(self, capsys, overlap_path):
        code, out = run(capsys, "analyze", overlap_path, "--point", "1/2", "--depth", "8")
        assert code == 0
        report = json.loads(out)
        assert report["exact"] is True
        assert report["result"]["enclosure"]["upper"] == [["1/3", "2/3"]]

    def test_point_outside_domain(self, capsys, f5_path):
        code, _ = run(capsys, "analyze", f5_path, "--point", "6")
        assert code == 2

    def test_malformed_map(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code, _ = run(capsys, "analyze", str(bad), "--point", "0")
        assert code == 2

    def test_numeric_coordinates(self, capsys, tmp_path):
        bad = tmp_path / "numbers.json"
        bad.write_text('{"domain":[0,5],"dots":[[0,1],[5,0]]}')
        code = main(["analyze", str(bad), "--point", "0"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: malformed coordinates: expected a rational")

    def test_deterministic_result_section(self, capsys, f5_path):
        _, out1 = run(capsys, "analyze", f5_path, "--point", "0")
        _, out2 = run(capsys, "analyze", f5_path, "--point", "0")
        a, b = json.loads(out1), json.loads(out2)
        a.pop("wall_time_ms"), b.pop("wall_time_ms")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestReport:
    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "F5", "--point", "0"],
            ["certify", "F5", "--point", "0", "--target", "2"],
            ["exclude", "F5", "--point", "0", "--seed", "[2,4]"],
            ["periodic", "F5"],
            ["markov", "F5"],
            ["corpus", "verify", "f5"],
            ["scan", "--dots", "4", "--domain", "0..4", "--limit", "3"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_json_matches_stdout(self, capsys, f5_path, tmp_path, argv):
        out_path = tmp_path / "report.json"
        argv = [f5_path if a == "F5" else a for a in argv] + ["--json", str(out_path)]
        code, out = run(capsys, *argv)
        assert code == 0
        assert out_path.read_text() == out
        assert "wall_time_ms" in json.loads(out)


    def test_unwritable_json_path_leaves_stdout_empty(self, capsys, f5_path, tmp_path):
        code = main(["analyze", f5_path, "--point", "0",
                     "--json", str(tmp_path / "nodir" / "r.json")])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: cannot write report: ")


class TestCertify:
    def test_contraction_found(self, capsys, f5_path):
        code, out = run(capsys, "certify", f5_path, "--point", "0", "--target", "2")
        assert code == 0
        report = json.loads(out)
        assert report["result"]["found"] and report["result"]["verified"]

    def test_fixed_point_not_reachable(self, capsys, f5_path):
        code, out = run(capsys, "certify", f5_path, "--point", "0", "--target", "3")
        assert code == 1
        assert json.loads(out)["result"]["found"] is False

    def test_contraction_stats_cover_the_full_depth(self, capsys, f5_path):
        # the connector sits at level 0, yet the reported tree is the one the
        # search explores: expanded to --depth
        code, out = run(capsys, "certify", f5_path, "--point", "0", "--target", "2",
                        "--depth", "5")
        assert code == 0
        result = json.loads(out)["result"]
        assert result["certificate"]["kind"] == "contraction"
        assert result["certificate"]["connector_k"] == 0
        assert result["stats"] == {"tree_nodes": 12, "depth_explored": 5}

    def test_exact_tail_stats_cover_the_root(self, capsys, f5_path):
        code, out = run(capsys, "certify", f5_path, "--point", "0", "--target", "0")
        assert code == 0
        result = json.loads(out)["result"]
        assert result["certificate"]["kind"] == "exact-tail"
        assert result["stats"] == {"tree_nodes": 1, "depth_explored": 0}

    def test_precondition_message(self, capsys, f5_path):
        code = main(["certify", f5_path, "--point", "0", "--target", "1/3", "--period", "2"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == "precondition failed: target 1/3 is not 2-periodic\n"

    def test_nonperiodic_target(self, capsys, f5_path):
        code, _ = run(capsys, "certify", f5_path, "--point", "0", "--target", "7/2",
                      "--period", "1")
        assert code == 3


class TestExclude:
    def test_accepted(self, capsys, f5_path):
        code, out = run(capsys, "exclude", f5_path, "--point", "0", "--seed", "[2,4]")
        assert code == 0
        report = json.loads(out)
        assert report["result"]["accepted"] and report["result"]["verified"]

    def test_rejected_inside(self, capsys, f5_path):
        code, out = run(capsys, "exclude", f5_path, "--point", "3", "--seed", "[2,4]")
        assert code == 3
        assert "inside" in json.loads(out)["result"]["reason"]

    def test_parse_failure(self, capsys, f5_path):
        code, _ = run(capsys, "exclude", f5_path, "--point", "0", "--seed", "[2;4]")
        assert code == 2

    def test_bounds_out_of_order(self, capsys, f5_path):
        code = main(["exclude", f5_path, "--point", "0", "--seed", "[4,2]"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: interval bounds out of order: 4 > 2\n"


class TestMaxPeriod:
    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("command", ["analyze", "certify", "periodic", "scan"])
    def test_below_one_is_an_input_error(self, capsys, f5_path, command, value):
        argv = {
            "analyze": [command, f5_path, "--point", "0"],
            "certify": [command, f5_path, "--point", "0", "--target", "2"],
            "periodic": [command, f5_path],
            "scan": [command, "--dots", "4", "--domain", "0..4", "--limit", "5"],
        }[command] + ["--max-period", value]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert captured.err.splitlines()[-1].endswith(
            f"error: argument --max-period: must be at least 1, got {value}"
        )


class TestBudgets:
    @pytest.mark.parametrize(
        "command,option,value,least",
        [
            ("analyze", "--depth", "-1", 0),
            ("analyze", "--width", "0", 1),
            ("certify", "--depth", "-1", 0),
            ("certify", "--period", "0", 1),
            ("exclude", "--depth", "-1", 0),
            ("markov", "--cap", "-3", 1),
            ("scan", "--limit", "-1", 0),
            ("scan", "--depth", "-2", 0),
        ],
    )
    def test_below_the_least_is_an_input_error(self, capsys, f5_path, command, option,
                                                value, least):
        argv = {
            "analyze": [command, f5_path, "--point", "0"],
            "certify": [command, f5_path, "--point", "0", "--target", "2"],
            "exclude": [command, f5_path, "--point", "0", "--seed", "[2,4]"],
            "markov": [command, f5_path],
            "scan": [command, "--dots", "4", "--domain", "0..4", "--limit", "5"],
        }[command] + [option, value]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert captured.err.splitlines()[-1].endswith(
            f"error: argument {option}: must be at least {least}, got {value}"
        )

    def test_negative_plot_tree_depth(self, capsys, f5_path, tmp_path):
        code = main(["plot", f5_path, "--samples", "4", "--out", str(tmp_path / "x.tsv"),
                     "--tree", "1/2,-1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: tree depth must be at least 0, got -1\n"
        assert not (tmp_path / "x.tsv").exists()


class TestOversizedInput:
    """Inputs past Python's limits are input errors, not tracebacks."""

    @pytest.mark.parametrize("where", ["point", "target", "tree"])
    def test_point_of_too_many_digits(self, capsys, f5_path, tmp_path, where):
        long = "1" * 5000
        argv = {
            "point": ["analyze", f5_path, "--point", long],
            "target": ["certify", f5_path, "--point", "0", "--target", long],
            "tree": ["plot", f5_path, "--samples", "4", "--out", str(tmp_path / "x.tsv"),
                     "--tree", f"{long},2"],
        }[where]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: rational of 5000 characters is too long\n"

    @pytest.mark.parametrize(
        "content",
        [b"[" * 100_000,
         b'{"domain":["0","5"],"dots":[["0","1"],["5",' + b"1" * 5000 + b"]]}",
         b"\xff\xfe"],
        ids=["deep-nesting", "long-integer", "not-utf8"],
    )
    def test_unreadable_map_file(self, capsys, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code = main(["analyze", str(path), "--point", "0"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")


class TestPeriodicMarkov:
    def test_periodic(self, capsys, f5_path):
        code, out = run(capsys, "periodic", f5_path, "--max-period", "3")
        assert code == 0
        report = json.loads(out)
        assert {"period": 2, "set": [["2", "4"]]} in report["result"]["fixed_intervals"]

    def test_markov(self, capsys, f5_path):
        code, out = run(capsys, "markov", f5_path)
        assert code == 0
        report = json.loads(out)
        assert report["result"]["cuts"] == ["0", "1", "2", "4", "5"]
        assert report["result"]["expanding"] is False


class TestCorpus:
    def test_verify_f5(self, capsys):
        code, out = run(capsys, "corpus", "verify", "f5")
        assert code == 0
        assert json.loads(out)["result"]["all_ok"]

    def test_unknown(self, capsys):
        code, _ = run(capsys, "corpus", "verify", "nosuch")
        assert code == 2

    def test_export(self, capsys, tmp_path):
        code, _ = run(capsys, "corpus", "export", "f5", "--dir", str(tmp_path))
        assert code == 0
        assert (tmp_path / "f5.json").exists()
        assert (tmp_path / "f5.expectations.json").exists()

    @pytest.mark.parametrize(
        "argv",
        [["export", "f5", "--dir", "EX", "--json", "EX/r.json"],
         ["verify", "f5", "--dir", "EX"]],
        ids=lambda argv: argv[0],
    )
    def test_options_of_the_other_action_are_rejected(self, capsys, tmp_path, argv):
        argv = [a.replace("EX", str(tmp_path / "ex")) for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(["corpus", *argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: ")
        assert "unrecognized arguments" in captured.err.splitlines()[-1]
        assert not (tmp_path / "ex").exists()


class TestScan:
    def test_empty_limit(self, capsys):
        code, out = run(capsys, "scan", "--dots", "4", "--domain", "0..5",
                        "--limit", "0")
        assert code == 0
        assert json.loads(out)["result"]["maps_scanned"] == 0

    def test_budget_exhaustion_skips_the_point(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise cli.PieceBudgetExceeded("too many pieces")

        monkeypatch.setattr(cli, "certified_period_set", exhausted)
        code, out = run(capsys, "scan", "--dots", "4", "--domain", "0..4", "--limit", "3")
        assert code == 0
        assert json.loads(out)["result"]["reports"] == []

    def test_other_errors_are_not_swallowed(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("broken")

        monkeypatch.setattr(cli, "certified_period_set", broken)
        with pytest.raises(ValueError, match="broken"):
            main(["scan", "--dots", "4", "--domain", "0..4", "--limit", "3"])

    def test_enumeration_deterministic(self):
        a = [map_digest(f) for f in enumerate_scan_maps(4, 5, 40)]
        b = [map_digest(f) for f in enumerate_scan_maps(4, 5, 40)]
        assert a == b

    def test_f5_inside_limit(self):
        digests = {map_digest(f) for f in enumerate_scan_maps(4, 5, 500)}
        assert map_digest(build_f5().map) in digests

    def test_full_scan_reports_f5_consistent(self, capsys):
        outputs = []
        for _ in range(2):
            code = main(["scan", "--dots", "4", "--domain", "0..5",
                         "--max-period", "6", "--limit", "500"])
            out = capsys.readouterr().out
            assert code == 0
            outputs.append(json.loads(out))
        a, b = outputs
        assert a["result"] == b["result"]  # identical across two runs
        d5 = map_digest(build_f5().map)
        hits = [r for r in a["result"]["reports"] if r["digest"] == d5]
        assert hits and hits[0]["verdict"] == "consistent"
        assert a["result"]["note"].startswith("a certification gap")


class TestPlot:
    def test_row_count(self, capsys, f5_path, tmp_path):
        out_file = tmp_path / "plot.tsv"
        code, _ = run(capsys, "plot", f5_path, "--samples", "11", "--out", str(out_file))
        assert code == 0
        rows = out_file.read_text().strip().split("\n")
        assert len(rows) == 15  # 11 interior samples + 4 dots

    def test_tree_section(self, capsys, overlap_path, tmp_path):
        out_file = tmp_path / "plot.tsv"
        code, _ = run(capsys, "plot", overlap_path, "--samples", "4",
                      "--out", str(out_file), "--tree", "1/2,4")
        assert code == 0
        sections = out_file.read_text().split("\n\n")
        assert len(sections) == 2
        assert sections[1].startswith("0\t1/2")

    def test_too_few_samples(self, capsys, f5_path, tmp_path):
        code, _ = run(capsys, "plot", f5_path, "--samples", "1",
                      "--out", str(tmp_path / "x.tsv"))
        assert code == 2
