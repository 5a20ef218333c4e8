import hashlib
import json

import pytest

from mdim.cli import (
    EXIT_ABORTED,
    EXIT_BAD_GRAPH,
    EXIT_OK,
    EXIT_USAGE,
    ParseError,
    main,
    parse_edge_list,
)
from mdim import DuplicateEdge, LoopEdge, VertexOutOfRange
from mdim.families import FamilySpec, generate
from helpers import path_graph


class TestParseEdgeList:
    def test_declared_count(self):
        assert parse_edge_list("n=3\n0 1\n1 2\n") == path_graph(3)

    def test_inferred_count_with_comment(self):
        g = parse_edge_list("# cycle\n0 1\n1 2\n2 0\n")
        assert (g.n, g.edge_count) == (3, 3)

    def test_loop_reports_line(self):
        with pytest.raises(LoopEdge, match="line 2"):
            parse_edge_list("0 1\n1 1\n")

    def test_duplicate_reports_line(self):
        with pytest.raises(DuplicateEdge, match="line 3"):
            parse_edge_list("0 1\n1 2\n1 0\n")

    def test_out_of_range_reports_line(self):
        with pytest.raises(VertexOutOfRange, match="line 3"):
            parse_edge_list("n=2\n0 1\n0 2\n")

    def test_negative_ids_report_line(self):
        with pytest.raises(VertexOutOfRange, match="line 1"):
            parse_edge_list("-2 -3\n")

    def test_malformed_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_edge_list("0 1\n0 1 2\n")
        with pytest.raises(ParseError, match="line 1"):
            parse_edge_list("a b\n")

    def test_count_line_only_first(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_edge_list("0 1\nn=4\n")

    def test_isolated_vertices_via_count(self):
        g = parse_edge_list("n=4\n0 1\n")
        assert g.n == 4

    def test_no_trailing_newline(self):
        assert parse_edge_list("0 1").n == 2


class TestCommands:
    def test_md_family(self, capsys):
        assert main(["md", "--family", "cycle:6"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "md = 3, witness = {0, 1, 3}"

    def test_md_json(self, capsys):
        assert main(["md", "--family", "cycle:6", "--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "command": "md", "kind": "finite", "n": 6, "value": 3, "witness": [0, 1, 3]
        }

    def test_md_infinite_is_success(self, capsys):
        assert main(["md", "--family", "petersen"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "infinite" in out and "diameter-2-non-path" in out

    def test_md_file_input(self, tmp_path, capsys):
        p = tmp_path / "p4.edges"
        p.write_text("# path\n0 1\n1 2\n2 3\n")
        assert main(["md", str(p)]) == EXIT_OK
        assert "md = 1" in capsys.readouterr().out

    def test_md_twin_class_in_json(self, capsys):
        assert main(["md", "--family", "karytree:3x2", "--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["certificate"] == "large-twin-class"
        assert payload["twin_class"] == [4, 5, 6]

    def test_dim(self, capsys):
        assert main(["dim", "--family", "cycle:7"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "dim = 2, witness = {0, 1}"

    def test_verify(self, capsys):
        assert main(["verify", "--family", "grid:3x4", "--set", "0,1,8"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "m-resolving: yes" in out
        assert "metric-resolving: yes" in out

    def test_verify_collision_report(self, capsys):
        assert main(["verify", "--family", "grid:4x5", "--set", "0,1,10", "--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["m_resolving"] is False
        assert "multiset_collision" in payload

    def test_bounds(self, capsys):
        assert main(["bounds", "--family", "karytree:2x3", "--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["lower_bound"] == 4
        assert payload["bounds"]["twin-pairs"] == 4

    def test_family_emit_round_trips(self, capsys):
        assert main(["family", "path:4"]) == EXIT_OK
        text = capsys.readouterr().out
        assert parse_edge_list(text) == generate(FamilySpec.path(4))

    def test_family_expected_md(self, capsys):
        assert main(["family", "cycle:6", "--action", "md"]) == EXIT_OK
        assert "expected md = 3" in capsys.readouterr().out

    def test_family_witness(self, capsys):
        assert main(["family", "substar:4x3", "--action", "witness"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "witness = {1, 5, 9}"

    def test_family_no_witness(self, capsys):
        assert main(["family", "petersen", "--action", "witness"]) == EXIT_OK
        assert "no explicit witness" in capsys.readouterr().out

    def test_tables(self, capsys):
        assert main(["tables", "grid:4x5", "--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["mismatches"] == 0
        assert len(payload["rows"]) == 20

    def test_scan_json(self, capsys):
        assert main(["scan", "--n", "3", "--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["md_histogram"] == {"1": 3, "infinite": 1}
        assert payload["violations"] == []

    def test_suite_small(self, capsys):
        assert main(["suite", "--scan-n", "3", "--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        statuses = {c["status"] for c in payload["checks"]}
        assert "violation" not in statuses


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert main([]) == EXIT_USAGE
        assert main(["md", "--family"]) == EXIT_USAGE
        assert main(["nonsense"]) == EXIT_USAGE

    def test_bad_graph(self, tmp_path, capsys):
        p = tmp_path / "dis.edges"
        p.write_text("0 1\n2 3\n")
        assert main(["md", str(p)]) == EXIT_BAD_GRAPH
        p2 = tmp_path / "loop.edges"
        p2.write_text("0 0\n")
        assert main(["md", str(p2)]) == EXIT_BAD_GRAPH
        assert main(["md", "--family", "cycle:2"]) == EXIT_BAD_GRAPH
        assert main(["md", "--family", "wat:3"]) == EXIT_BAD_GRAPH
        assert main(["md", str(tmp_path / "missing.edges")]) == EXIT_BAD_GRAPH

    def test_no_input(self, capsys):
        assert main(["md"]) == EXIT_BAD_GRAPH

    def test_aborted(self, capsys):
        assert main(["md", "--family", "cycle:9", "--max-vertices", "4"]) == EXIT_ABORTED
        assert main(["dim", "--family", "cycle:9", "--max-vertices", "4"]) == EXIT_ABORTED
        assert main(["scan", "--n", "9"]) == EXIT_ABORTED


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["md", "--family", "cycle:8", "--json"],
            ["verify", "--family", "grid:3x3", "--set", "0,1,6", "--json"],
            ["scan", "--n", "4", "--json"],
        ],
    )
    def test_byte_identical_reruns(self, argv, capsys):
        assert main(argv) == EXIT_OK
        first = capsys.readouterr().out
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize(
        "argv,digest",
        [
            (["suite", "--scan-n", "4", "--json"],
             "2de60989ea01a2e12adcaaa8d08fbc0a6e18467de2e79bcb04fa421faf290ea6"),
            (["scan", "--n", "5", "--json"],
             "58899cbe1efbb06f6fa122ef2acaeb11095e1ad6073038bc1676ef6821c1abfe"),
        ],
    )
    def test_pinned_json_digest(self, argv, digest, capsys):
        assert main(argv) == EXIT_OK
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_parallel_flag_same_output(self, capsys):
        main(["md", "--family", "karytree:2x2", "--json"])
        serial = capsys.readouterr().out
        main(["md", "--family", "karytree:2x2", "--json", "--parallel", "3"])
        assert capsys.readouterr().out == serial
