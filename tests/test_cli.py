import json
import random
from fractions import Fraction as F

import pytest

from exactmdp import cli, docio
from exactmdp.corpus import build_example
from exactmdp.partition import canonical_partition

from conftest import random_mdp

def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_mdp(tmp_path, example_id, name="model.json"):
    mdp = build_example(example_id).mdp
    path = tmp_path / name
    path.write_text(docio.dumps_document(docio.document_from_mdp(mdp)))
    return str(path)


def ex1_document() -> dict:
    """The document ``exactmdp corpus --id ex1`` prints, parsed as JSON."""
    return json.loads(docio.dumps_document(docio.document_from_mdp(build_example("ex1").mdp)))


class TestParsing:
    def test_alpha_fraction(self):
        assert cli.parse_alpha("1/4") == F(1, 4)

    def test_alpha_decimal_exact(self):
        assert cli.parse_alpha("0.5") == F(1, 2)
        assert cli.parse_alpha("0.125") == F(1, 8)

    def test_alpha_bad(self):
        with pytest.raises(cli.InputError):
            cli.parse_alpha("1e-3x")

    def test_discount_range(self):
        with pytest.raises(cli.InputError):
            cli.parse_discount("5/4")

    def test_floats_rejected_in_documents(self, tmp_path):
        doc = ex1_document()
        doc["terminal"] = [2.0, 0]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(docio.DocumentError):
            docio.loads_document(path.read_text())


class TestCommands:
    def test_validate_ok(self, capsys, tmp_path):
        path = write_mdp(tmp_path, "ex1")
        code, out, _ = run(capsys, "validate", path)
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_validate_reports_bad_row(self, capsys, tmp_path):
        doc = ex1_document()
        doc["transitions"]["x1/a1"] = ["99/100", "0"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["ok"] is False
        assert report["violations"][0]["code"] == "row-sum-not-one"

    def test_solve_trivial(self, capsys, tmp_path):
        doc = {
            "format_version": 1,
            "states": ["s"],
            "actions": {"s": ["a"]},
            "transitions": {"s/a": ["1"]},
            "rewards": {"s/a": "7/2"},
            "terminal": ["0"],
        }
        path = tmp_path / "one.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "solve", str(path), "--alpha", "0")
        assert code == 0
        assert json.loads(out)["value"]["s"] == "7/2"

    def test_turnpike_point(self, capsys, tmp_path):
        path = write_mdp(tmp_path, "ex1")
        code, out, _ = run(capsys, "turnpike", path, "--alpha", "1/4")
        assert code == 0
        report = json.loads(out)
        assert report["N"] == 2
        assert "certificate_horizon" in report

    def test_turnpike_interval(self, capsys, tmp_path):
        path = write_mdp(tmp_path, "ex2")
        code, out, _ = run(
            capsys, "turnpike", path, "--interval", "0,9/10", "--ncap", "8"
        )
        assert code == 0
        report = json.loads(out)
        assert report["discontinuities"]["all"] == ["1/4", "1/2"]
        assert report["discontinuities"]["both"] == ["1/2"]

    def test_partition_report(self, capsys, tmp_path):
        path = write_mdp(tmp_path, "ex4")
        code, out, _ = run(capsys, "partition", path)
        assert code == 0
        report = json.loads(out)
        assert report["irregular_points"][0]["point"] == "1/2"
        assert report["irregular_points"][0]["class"] == "break"

    def test_small_discount(self, capsys, tmp_path):
        path = write_mdp(tmp_path, "ex6")
        code, out, _ = run(capsys, "small-discount", path)
        assert code == 0
        report = json.loads(out)
        assert report["l_value"] == 0
        assert report["delta"] == "1/2"
        assert all(c["passed"] for c in report["checks"])

    def test_conditions(self, capsys, tmp_path):
        path = write_mdp(tmp_path, "ex5")
        code, out, _ = run(capsys, "conditions", path, "--point", "2/3")
        assert code == 0
        report = json.loads(out)
        assert report["left"] == report["right"] == "bounded"
        assert report["B_plus"]["extrema"][0]["value"] == "3/2"

    def test_conditions_regular_point_is_input_error(self, capsys, tmp_path):
        path = write_mdp(tmp_path, "ex5")
        code, _, err = run(capsys, "conditions", path, "--point", "1/4")
        assert code == 2
        assert "regular" in err

    def test_sweep_csv(self, capsys, tmp_path):
        path = write_mdp(tmp_path, "ex1")
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run(
            capsys,
            "sweep",
            path,
            "--interval",
            "0,9/10",
            "--steps",
            "8",
            "--out",
            str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "alpha,N,num_optimal_rules,in_interval_id"
        assert len(lines) == 9
        first = lines[1].split(",")
        assert first[0] == "1/10"
        assert first[1] == "2"

    def test_turnpike_interval_partial_emits_report_with_cap_exit(
        self, capsys, tmp_path
    ):
        # across a blow-up point a small horizon cap cannot certify the map:
        # the report is still emitted, flagged partial, with exit code 3
        path = write_mdp(tmp_path, "ex4")
        code, out, _ = run(
            capsys, "turnpike", path, "--interval", "2/5,3/5", "--ncap", "6"
        )
        assert code == 3
        report = json.loads(out)
        assert report["partial"] is True
        assert report["spans"]

    @pytest.mark.parametrize("interval", ["9/10,1/100", "1/2,1/2"])
    def test_turnpike_interval_needs_lo_below_hi(self, capsys, tmp_path, interval):
        path = write_mdp(tmp_path, "ex5")
        code, out, err = run(capsys, "turnpike", path, "--interval", interval)
        assert code == 2
        assert out == ""
        assert "lo < hi" in err

    @pytest.mark.parametrize("ncap", ["0", "-3"])
    def test_turnpike_ncap_below_one_is_input_error(self, capsys, tmp_path, ncap):
        path = write_mdp(tmp_path, "ex5")
        code, out, err = run(
            capsys, "turnpike", path, "--interval", "1/100,9/10", "--ncap", ncap
        )
        assert code == 2
        assert out == ""
        assert err == "error: --ncap must be a positive integer\n"

    def test_turnpike_ncap_one_is_a_partial_map(self, capsys, tmp_path):
        path = write_mdp(tmp_path, "ex5")
        code, out, _ = run(
            capsys, "turnpike", path, "--interval", "1/100,9/10", "--ncap", "1"
        )
        assert code == 3
        report = json.loads(out)
        assert report["partial"] is True
        assert [s["N"] for s in report["spans"]] == [1]

    def test_parser_is_built_once(self, capsys, tmp_path):
        assert cli.build_parser() is cli.build_parser()
        path = write_mdp(tmp_path, "ex1")
        first = run(capsys, "turnpike", path, "--alpha", "1/4")
        assert run(capsys, "turnpike", path, "--alpha", "1/4") == first

    def test_sweep_to_stdout(self, capsys, tmp_path):
        path = write_mdp(tmp_path, "ex5")
        code, out, _ = run(capsys, "sweep", path, "--interval", "0,1/2", "--steps", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "alpha,N,num_optimal_rules,in_interval_id"
        assert all(line.endswith(",1,1,0") for line in lines[1:])

    def test_sweep_interval_id_inside_a_bracket(self, capsys, tmp_path):
        # one break, at an irrational root bracketed by (1705/4096, 853/2048);
        # the sample 152/365 lies in that bracket, right of the root
        mdp = random_mdp(random.Random(35), max_states=3, max_actions=2)
        part = canonical_partition(mdp)
        (ip,) = part.irregular_points
        assert (ip.point.lo, ip.point.hi) == (F(1705, 4096), F(853, 2048))
        alpha = F(152, 365)
        assert part.intervals.index(part.interval_containing(alpha)) == 1
        path = tmp_path / "model.json"
        path.write_text(docio.dumps_document(docio.document_from_mdp(mdp)))
        code, out, _ = run(
            capsys, "sweep", str(path), "--interval", "0,304/365", "--steps", "1"
        )
        assert code == 0
        assert out.splitlines()[1] == "152/365,6,1,1"

    def test_corpus_emission_round_trip(self, capsys):
        code, out, _ = run(capsys, "corpus", "--id", "ex3", "--m", "5")
        assert code == 0
        mdp = docio.mdp_from_document(docio.loads_document(out))
        assert mdp == build_example("ex3", m=5).mdp

    def test_corpus_unknown_id(self, capsys):
        code, _, err = run(capsys, "corpus", "--id", "nope")
        assert code == 2

    @pytest.mark.parametrize("m", ["1", "0", "-1"])
    def test_corpus_chain_below_two_states_is_input_error(self, capsys, m):
        code, out, err = run(capsys, "corpus", "--id", "ex3", "--m", m)
        assert code == 2
        assert out == ""
        assert err == "error: the chain example needs at least two states\n"

    @pytest.mark.parametrize("command", ["turnpike", "sweep"])
    def test_interval_needs_lo_below_hi_message(self, capsys, tmp_path, command):
        path = write_mdp(tmp_path, "ex1")
        argv = [command, path, "--interval", "1/2,1/4"]
        if command == "sweep":
            argv += ["--steps", "1"]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {command} interval must have lo < hi\n"

    def test_missing_file_is_input_error(self, capsys):
        code, _, err = run(capsys, "solve", "/nonexistent.json", "--alpha", "0")
        assert code == 2

    def test_validate_missing_file_matches_solve(self, capsys, tmp_path):
        path = str(tmp_path / "absent.json")
        solve = run(capsys, "solve", path, "--alpha", "0")
        validate = run(capsys, "validate", path)
        assert solve[0] == validate[0] == 2
        assert validate[1] == ""
        assert validate[2] == solve[2]
        assert validate[2].startswith(f"error: cannot read {path}: ")

    def test_validate_float_literal_matches_solve(self, capsys, tmp_path):
        doc = ex1_document()
        doc["terminal"] = [2.0, 0]
        path = tmp_path / "float.json"
        path.write_text(json.dumps(doc))
        solve = run(capsys, "solve", str(path), "--alpha", "0")
        validate = run(capsys, "validate", str(path))
        assert solve[0] == validate[0] == 2
        assert validate[1] == ""
        assert validate[2] == solve[2]
        assert validate[2].startswith(f"error: {path}: ")

    def test_reports_are_byte_deterministic(self, capsys, tmp_path):
        path = write_mdp(tmp_path, "ex4")
        _, out1, _ = run(capsys, "partition", path)
        _, out2, _ = run(capsys, "partition", path)
        assert out1 == out2
