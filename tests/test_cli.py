import hashlib
import json
import re
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

from backlim import backlimits, cli, plmap
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

    @pytest.mark.parametrize(
        "text",
        [
            # two-character strings would unpack as pairs: the tent map on [0,4]
            '{"domain":"04","dots":["00","24","40"]}',
            '{"domain":["0","4"],"dots":[["0","0"],"24",["4","0"]]}',
            '{"domain":["0","4","5"],"dots":[["0","0"],["4","0"]]}',
            '{"domain":{"0":0,"4":0},"dots":[["0","0"],["4","0"]]}',
        ],
        ids=["strings", "a string dot", "three items", "an object"],
    )
    def test_a_pair_is_an_array_of_two_rationals(self, capsys, tmp_path, text):
        bad = tmp_path / "pairs.json"
        bad.write_text(text)
        code = main(["periodic", str(bad)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: malformed coordinates: expected an array")
        assert captured.err.count("\n") == 1

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

    @pytest.mark.parametrize("depth", ["5", "100000"])
    def test_contraction_stats_report_the_search_tree(self, capsys, f5_path, depth):
        # the connector sits at level 0, so the search builds the root alone,
        # however deep --depth would let it go
        started = time.monotonic()
        code, out = run(capsys, "certify", f5_path, "--point", "0", "--target", "2",
                        "--depth", depth)
        assert time.monotonic() - started < 1
        assert code == 0
        result = json.loads(out)["result"]
        assert result["certificate"]["kind"] == "contraction"
        assert result["certificate"]["connector_k"] == 0
        assert result["verified"] is True
        assert result["stats"] == {"tree_nodes": 1, "depth_explored": 0}

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

    @pytest.mark.parametrize("target,want,err", [
        ("3", 1, ""),
        ("1/2", 3, f"precondition failed: target 1/2 is not {10**12}-periodic\n"),
    ])
    def test_huge_period_is_settled_by_cycle_detection(self, capsys, f5_path, target,
                                                       want, err):
        started = time.monotonic()
        code = main(["certify", f5_path, "--point", "0", "--target", target,
                     "--period", str(10**12)])
        assert time.monotonic() - started < 0.5
        assert code == want
        assert capsys.readouterr().err == err

    def test_target_without_a_repeat_is_a_precondition_failure(self, capsys, tmp_path):
        # x -> x/2 on [0,1]: the orbit of 1 never repeats
        halving = tmp_path / "halving.json"
        halving.write_text('{"domain":["0","1"],"dots":[["0","0"],["1","1/2"]]}')
        code = main(["certify", str(halving), "--point", "0", "--target", "1",
                     "--period", "5000"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == "precondition failed: target 1 does not repeat " \
            "within 4096 steps\n"


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
    @pytest.mark.parametrize("command", ["analyze", "periodic", "scan"])
    def test_below_one_is_an_input_error(self, capsys, f5_path, command, value):
        argv = {
            "analyze": [command, f5_path, "--point", "0"],
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

    def test_at_the_most_is_accepted(self, capsys, tmp_path):
        identity = tmp_path / "id.json"
        identity.write_text('{"domain":["0","1"],"dots":[["0","0"],["1","1"]]}')
        code, out = run(capsys, "periodic", str(identity), "--max-period", "4096")
        assert code == 0 and json.loads(out)["inputs"]["max_period"] == 4096

    def test_certify_takes_none(self, capsys, f5_path):
        with pytest.raises(SystemExit) as exc:
            main(["certify", f5_path, "--point", "0", "--target", "2", "--max-period", "3"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].endswith(
            "error: unrecognized arguments: --max-period 3"
        )


class TestInputErrors:
    """Malformed arguments end with one line on stderr and nothing on stdout."""

    @pytest.mark.parametrize(
        "argv,code,message",
        [
            (["scan", "--dots", "7", "--domain", "0..5", "--limit", "3"], 2,
             "error: dots must be between 2 and 6"),
            (["scan", "--dots", "4", "--domain", "0..x", "--limit", "3"], 2,
             "error: malformed domain '0..x'"),
            (["scan", "--dots", "4", "--domain", "1..4", "--limit", "3"], 2,
             "error: domain must be 0..D with 1 <= D <= 10"),
            (["plot", "F5", "--samples", "4", "--out", "OUT", "--tree", "1/2,x"], 2,
             "error: malformed tree argument '1/2,x'"),
            (["exclude", "F5", "--point", "0", "--seed", "[1,2"], 2,
             "error: malformed interval '[1,2'"),
            (["certify", "F5", "--point", "0", "--target", "1/3"], 3,
             "precondition failed: target 1/3 is not periodic within 64 steps"),
        ],
        ids=["scan-dots", "scan-domain-text", "scan-domain-start", "plot-tree",
             "exclude-seed", "certify-target"],
    )
    def test_one_line_and_no_output(self, capsys, f5_path, tmp_path, argv, code, message):
        out = tmp_path / "x.tsv"
        argv = [{"F5": f5_path, "OUT": str(out)}.get(a, a) for a in argv]
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == message + "\n"
        assert not out.exists()

    def test_plot_into_a_missing_directory(self, capsys, f5_path, tmp_path):
        out = tmp_path / "missing" / "x.tsv"
        code = main(["plot", f5_path, "--samples", "4", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"error: cannot write {out}: ")

    def test_markov_without_a_partition(self, capsys, tmp_path):
        # the orbit of the dot 1/2 never repeats: 2/3, 7/9, ...
        path = tmp_path / "m.json"
        path.write_text('{"domain":["0","1"],"dots":[["0","0"],["1/2","2/3"],["1","1"]]}')
        code, out = run(capsys, "markov", str(path))
        assert code == 0
        assert json.loads(out)["result"] == {"markov": False}


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

    @pytest.mark.parametrize(
        "command,option,value,message",
        [
            ("markov", "--cap", "4097", "--cap must be at most 4096, got 4097"),
            ("plot", "--samples", "1000001", "--samples must be from 2 to 1000000, got 1000001"),
            *((command, "--max-period", "100000000",
               "--max-period must be at most 4096, got 100000000")
              for command in ("analyze", "periodic", "scan")),
        ],
    )
    def test_above_the_most_is_an_input_error(self, capsys, f5_path, tmp_path, command,
                                              option, value, message):
        out = tmp_path / "x.tsv"
        argv = {
            "analyze": [command, f5_path, "--point", "0"],
            "plot": [command, f5_path, "--out", str(out)],
            "scan": [command, "--dots", "4", "--domain", "0..4", "--limit", "5"],
        }.get(command, [command, f5_path])
        code = main([*argv, option, value])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and not out.exists()
        assert captured.err == f"error: {message}\n"

    def test_cap_at_the_most_is_accepted(self, capsys, f5_path):
        code, out = run(capsys, "markov", f5_path, "--cap", "4096")
        assert code == 0 and json.loads(out)["result"]["markov"] is True

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

    def test_export_into_an_unwritable_dir_is_an_input_error(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(["corpus", "export", "f5", "--dir", str(blocker / "sub")])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(f"error: cannot export to {blocker / 'sub'}: ")
        assert len(captured.err.splitlines()) == 1

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


class TestPieceBudget:
    @pytest.mark.parametrize("argv", [["periodic"], ["analyze", "--point", "0"]],
                             ids=lambda argv: argv[0])
    def test_exhausted_budget_is_an_input_error(self, capsys, f5_path, monkeypatch, argv):
        monkeypatch.setattr(plmap, "PIECE_CAP", 4)
        code = main([argv[0], f5_path, *argv[1:]])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: more than 4 pieces in f^")
        assert len(captured.err.splitlines()) == 1


class TestTreeBudget:
    @pytest.mark.parametrize(
        "argv, point",
        [
            (["analyze", "OVERLAP", "--point", "1/2", "--depth", "100000"], "1/2"),
            (["certify", "OVERLAP", "--point", "1/2", "--target", "1/9", "--depth", "1000000"],
             "1/2"),
            (["plot", "F5", "--samples", "3", "--tree", "3,1000000", "--out", "OUT"], "3"),
        ],
        ids=["analyze", "certify", "plot"],
    )
    def test_exhausted_budget_is_an_input_error(
        self, capsys, f5_path, overlap_path, tmp_path, monkeypatch, argv, point
    ):
        monkeypatch.setattr(backlimits, "TREE_CAP", 50)
        paths = {"F5": f5_path, "OVERLAP": overlap_path, "OUT": str(tmp_path / "plot.tsv")}
        code = main([paths.get(a, a) for a in argv])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert re.fullmatch(rf"error: backward tree of {point} passes 50 values at level \d+\n",
                            captured.err)
        assert not (tmp_path / "plot.tsv").exists()

    def test_scan_skips_the_points_past_the_budget(self, capsys, monkeypatch):
        argv = ["scan", "--dots", "3", "--domain", "0..3", "--limit", "20"]
        _, full = run(capsys, *argv)
        monkeypatch.setattr(backlimits, "TREE_CAP", 3)
        code, out = run(capsys, *argv)
        assert code == 0
        assert json.loads(full)["skipped"] == []
        skipped = json.loads(out)["skipped"]
        assert skipped
        for s in skipped:
            assert re.fullmatch(rf"backward tree of {s['point']} passes 3 values at level \d+",
                                s["reason"])


class TestRegionBudget:
    def test_exhausted_budget_is_an_input_error(self, capsys, f5_path, monkeypatch):
        # the regions grown from [2,4] at 0 hold 1, 2, 3, 5, 8, ... parts, so
        # 8 layers stay small even without the cap
        monkeypatch.setattr(backlimits, "AVOID_CAP", 4)
        code = main(["exclude", f5_path, "--point", "0", "--seed", "[2,4]", "--depth", "8"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: avoidance region of seed {[2,4]} passes 4 parts at layer 3\n"


class TestScan:
    def test_empty_limit(self, capsys):
        code, out = run(capsys, "scan", "--dots", "4", "--domain", "0..5",
                        "--limit", "0")
        assert code == 0
        assert json.loads(out)["result"]["maps_scanned"] == 0

    _NO_PERIOD3 = {
        "maps_scanned": 3,
        "period3_maps": 0,
        "candidates": 0,
        "reports": [],
        "note": "a certification gap is not a counterexample; absence of a "
        "certificate does not witness absence of an orbit",
    }

    @staticmethod
    def skipped(digests, points, reason):
        return [{"digest": d, "point": p, "reason": reason} for d in digests for p in points]

    def test_budget_exhaustion_skips_the_point(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise cli.PieceBudgetExceeded("too many pieces")

        monkeypatch.setattr(cli, "certified_period_set", exhausted)
        code, out = run(capsys, "scan", "--dots", "4", "--domain", "0..4", "--limit", "3")
        assert code == 0
        report = json.loads(out)
        assert report["result"] == self._NO_PERIOD3
        digests = [map_digest(f) for f in enumerate_scan_maps(4, 4, 3)]
        points = ["0", "1", "2", "3", "4"]
        assert report["skipped"] == self.skipped(digests, points, "too many pieces")

    def test_exhausted_budget_skips_the_rest_of_the_map(self, capsys, monkeypatch):
        monkeypatch.setattr(plmap, "PIECE_CAP", 4)
        calls = mock.Mock(wraps=backlimits.periodic_orbits)
        monkeypatch.setattr(backlimits, "periodic_orbits", calls)
        code, out = run(capsys, "scan", "--dots", "4", "--domain", "0..4", "--limit", "3")
        assert code == 0
        report = json.loads(out)
        assert report["result"] == self._NO_PERIOD3
        assert calls.call_count == 3
        # the first map is the identity; the other two pass 4 pieces in f^3
        # at their first point
        digests = [map_digest(f) for f in enumerate_scan_maps(4, 4, 3)[1:]]
        points = ["0", "1", "2", "3", "4"]
        assert report["skipped"] == self.skipped(digests, points, "more than 4 pieces in f^3")

    def test_precondition_failure_skips_only_its_point(self, capsys, monkeypatch):
        def fails_at_two(f, y, *args, **kwargs):
            if y == 2:
                raise backlimits.PreconditionError("no tree at 2")
            return set()

        monkeypatch.setattr(cli, "certified_period_set", fails_at_two)
        code, out = run(capsys, "scan", "--dots", "4", "--domain", "0..4", "--limit", "3")
        assert code == 0
        report = json.loads(out)
        assert report["result"] == self._NO_PERIOD3
        digests = [map_digest(f) for f in enumerate_scan_maps(4, 4, 3)]
        assert report["skipped"] == self.skipped(digests, ["2"], "no tree at 2")

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
        # the answers themselves are pinned: a new search must certify the same facts
        digest = hashlib.sha256(json.dumps(a["result"], sort_keys=True).encode()).hexdigest()
        assert digest[:16] == "c71f59bf8614688d"
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

    def test_tree_section_writes_each_value_once(self, capsys, tmp_path):
        flat = tmp_path / "flat.json"
        flat.write_text('{"domain":["0","3"],"dots":[["0","0"],["1","1"],["2","1"],["3","3"]]}')
        out_file = tmp_path / "plot.tsv"
        code, _ = run(capsys, "plot", str(flat), "--samples", "4",
                      "--out", str(out_file), "--tree", "1,12")
        rows = out_file.read_text().split("\n\n")[1].splitlines()
        assert code == 0 and len(rows) == len(set(rows)) == 169

    @pytest.mark.parametrize("samples", [2, 4, 9, 11, 100])
    def test_rows_match_the_sorted_set_of_samples_and_dots(self, capsys, f5_path, tmp_path,
                                                           samples):
        # with 4 (and 9) samples on [0,5], the samples 1 and 4 land on dots
        f = build_f5().map
        xs = {x for x, _ in f.dots}
        xs.update(Fraction(k, samples + 1) * 5 for k in range(1, samples + 1))
        want = "".join(f"{x}\t{f.eval_at(x)}\n" for x in sorted(xs))
        out_file = tmp_path / "plot.tsv"
        code, _ = run(capsys, "plot", f5_path, "--samples", str(samples), "--out", str(out_file))
        assert code == 0 and out_file.read_text() == want

    def test_too_few_samples(self, capsys, f5_path, tmp_path):
        code, _ = run(capsys, "plot", f5_path, "--samples", "1",
                      "--out", str(tmp_path / "x.tsv"))
        assert code == 2
