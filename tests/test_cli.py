import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mdim
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
        # the two halves under the root need non-isomorphic asymmetric
        # markings: 3 + 4 = 7 landmarks, against 4 from the twin pairs
        assert payload["lower_bound"] == 7
        assert payload["bounds"]["twin-pairs"] == 4
        assert payload["achieved_by"] == ["subtree-patterns"]

    def test_bounds_reports_leg_patterns(self, capsys):
        # the seven legs of three vertices at substar:7x3's hub carry
        # distinct landmark patterns: 0 + 1 + 1 + 1 + 2 + 2 + 2 = 9, which
        # is md, against 6 from the terminals.  The legs are the hanging
        # subtrees of the hub, so the subtree patterns count the same 9
        assert main(["bounds", "--family", "substar:7x3", "--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["bounds"]["leg-patterns"] == payload["lower_bound"] == 9
        assert payload["achieved_by"] == ["leg-patterns", "subtree-patterns"]

    def test_bounds_names_certificate(self, capsys):
        assert main(["bounds", "--family", "petersen"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "infinite: yes (non-path graph of diameter at most 2)" in out

    def test_bounds_names_twin_class_certificate(self, capsys):
        # karytree:3x2 has diameter 4, so only its twin class {4, 5, 6}
        # certifies it
        assert main(["bounds", "--family", "karytree:3x2", "--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert (payload["diameter"], payload["infinite_certificate"]) == (
            4, "large-twin-class"
        )
        assert main(["bounds", "--family", "karytree:3x2"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.splitlines()[-1] == (
            "infinite: yes (twin class {4, 5, 6} has 3 or more vertices)"
        )

    def test_bounds_reports_dim(self, capsys):
        assert main(["bounds", "--family", "karytree:2x3", "--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["dim_lower_bound"] == 4
        assert payload["dim_bounds"] == {
            "trivial": 1,
            "non-path": 2,
            "terminal-count": 4,
            "twin-classes": 4,
            "order-diameter": 2,
        }
        assert payload["dim_achieved_by"] == ["terminal-count", "twin-classes"]
        assert main(["bounds", "--family", "karytree:2x3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "dim lower bound = 4 (via terminal-count, twin-classes)" in out

    def test_dim_progress_names_levels_walked(self, capsys):
        # substar:8x2 has order 17, so the legs are walked before any
        # distance: their count sigma - ex = 7 is the size of the least leg
        # cover, which resolves, so no size is searched and no table is
        # built
        assert main(["dim", "--family", "substar:8x2", "--progress"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == "dim search: least leg cover resolves (7 landmarks)\n"
        assert captured.out.strip() == "dim = 7, witness = {1, 3, 5, 7, 9, 11, 13}"

    def test_md_progress_below_order_8(self, tmp_path, capsys):
        # an order-6 graph with no resolving set at any size: with no
        # table, md searches each size from its lower bound, 3 from the
        # non-path rule, to 6, one at a time
        p = tmp_path / "none.edges"
        p.write_text("0 1\n0 2\n0 4\n0 5\n1 2\n1 3\n2 3\n")
        assert main(["md", str(p), "--progress"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out.strip() == "md = infinite (exhaustive-search certificate)"
        assert captured.err == (
            "md search: lower bound 3 (non-path)\n"
            "md search: size 3 of up to 6\n"
            "md search: size 4 of up to 6\n"
            "md search: size 5 of up to 6\n"
            "md search: size 6 of up to 6\n"
        )

    def test_md_progress_notes_symmetry_rule(self, capsys):
        # substar:7x3 has order 22, so the swap and leg tables are built
        # before its lower bound, size 9: the 18 vertices outside
        # substar:7x3's first leg have a smaller image, and its hub has 7
        # legs.  The leg patterns, and the subtree patterns that count the
        # same legs, set the bound at md, so size 9 resolves and is the
        # one size searched
        assert main(["md", "--family", "substar:7x3", "--progress"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == (
            "md search: symmetry rule on (18 vertices have a smaller image)\n"
            "md search: leg rule on (7 legs at 1 major)\n"
            "md search: lower bound 9 (leg-patterns, subtree-patterns)\n"
            "md search: size 9 of up to 22\n"
        )
        assert captured.out.strip() == "md = 9, witness = {1, 2, 4, 6, 7, 11, 12, 14, 18}"
        # tools that time the levels read "size <k>" from each note, so the
        # rule and bound notes name none
        sizes = [re.findall(r"size (\d+)", line) for line in captured.err.splitlines()]
        assert sizes == [[], [], [], ["9"]]

    def test_progress_notes_twin_rule(self, tmp_path, capsys):
        # karytree:2x3 (15 vertices) has four pairs of twin leaves, so md
        # fixes the smaller leaf of each pair; the 4-cycle 0, 1, 2, 3 with
        # four pendants at 0, whose least leg cover fails, has the twin
        # pair {1, 3} and the twin class {4, 5, 6, 7}, so dim fixes 1, 4,
        # 5 and 6
        assert main(["md", "--family", "karytree:2x3", "--progress"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == (
            "md search: symmetry rule on (11 vertices have a smaller image)\n"
            "md search: leg rule on (8 legs at 4 majors)\n"
            "md search: twin rule on (4 landmarks fixed)\n"
            "md search: lower bound 7 (subtree-patterns)\n"
            "md search: size 7 of up to 15\n"
        )
        assert captured.out.strip() == "md = 7, witness = {1, 3, 5, 7, 9, 11, 13}"
        p = tmp_path / "c4-pendants.edges"
        p.write_text("0 1\n1 2\n2 3\n0 3\n0 4\n0 5\n0 6\n0 7\n")
        assert main(["dim", str(p), "--progress"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == (
            "dim search: symmetry rule on (4 vertices have a smaller image)\n"
            "dim search: leg rule on (4 legs at 1 major)\n"
            "dim search: twin rule on (4 landmarks fixed)\n"
            "dim search: size 4 of up to 8\n"
            "dim search: size 5 of up to 8\n"
        )
        assert captured.out.strip() == "dim = 5, witness = {1, 2, 4, 5, 6}"

    def test_md_progress_bound_past_n(self, capsys):
        # cextree's subtree-pattern bound is n + 1 = 11: md notes the
        # bound and answers from it, with no table, so no rule note
        assert main(["md", "--family", "cextree", "--progress"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == "md search: lower bound 11 (subtree-patterns)\n"
        assert captured.out.strip() == "md = infinite (exhaustive-search certificate)"

    def test_family_emit_round_trips(self, capsys):
        assert main(["family", "path:4"]) == EXIT_OK
        text = capsys.readouterr().out
        assert parse_edge_list(text) == generate(FamilySpec.path(4))

    def test_family_expected_md(self, capsys):
        assert main(["family", "cycle:6", "--action", "md"]) == EXIT_OK
        assert "expected md = 3" in capsys.readouterr().out

    def test_family_expected_md_infinite(self, capsys):
        assert main(["family", "cycle:4", "--action", "md"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "expected md = infinite"

    def test_family_expected_md_unspecified(self, capsys):
        assert main(["family", "substar:3x2", "--action", "md"]) == EXIT_OK
        assert capsys.readouterr().out.startswith(
            "expected md unspecified: claimed value n-1 = 2 is impossible"
        )

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

    @pytest.mark.parametrize("spec", ["karytree:2x0", "cycle:2"])
    @pytest.mark.parametrize("action", ["emit", "md", "witness"])
    def test_family_out_of_range_params(self, spec, action, capsys):
        assert main(["family", spec, "--action", action]) == EXIT_BAD_GRAPH
        assert "requires" in capsys.readouterr().err

    def test_no_input(self, capsys):
        assert main(["md"]) == EXIT_BAD_GRAPH

    @pytest.mark.parametrize(
        "selector,message",
        [
            ("grid:3", "family 'grid' takes 2 parameter(s), got 1"),
            ("cycle:x", "unparseable family spec 'cycle:x'"),
            ("path:4", "selector must be cycle:N or grid:MxN, got 'path:4'"),
            ("cycle:5", "cycle table needs n >= 6, got 5"),
        ],
    )
    def test_tables_bad_selector(self, selector, message, capsys):
        assert main(["tables", selector]) == EXIT_BAD_GRAPH
        assert capsys.readouterr().err == f"mdim: {message}\n"

    @pytest.mark.parametrize(
        "ids,message",
        [
            ("0,9", "vertex id 9 outside 0..5"),
            ("0,x", "bad vertex set '0,x'; expected comma-separated ids"),
        ],
    )
    def test_verify_bad_set(self, ids, message, capsys):
        assert main(["verify", "--family", "cycle:6", "--set", ids]) == EXIT_BAD_GRAPH
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"mdim: {message}\n")

    @pytest.mark.parametrize(
        "count,message",
        [("n=abc", "bad vertex count 'n=abc'"), ("n=-1", "negative vertex count")],
    )
    def test_bad_vertex_count_line(self, count, message, tmp_path, capsys):
        p = tmp_path / "bad.edges"
        p.write_text(f"{count}\n0 1\n")
        assert main(["md", str(p)]) == EXIT_BAD_GRAPH
        assert capsys.readouterr().err == f"mdim: line 1: {message}\n"

    def test_md_aborts_like_dim(self, capsys):
        for command in ("md", "dim"):
            argv = [command, "--family", "cycle:9", "--max-vertices", "4", "--json"]
            assert main(argv) == EXIT_ABORTED
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                "mdim: aborted: 9 vertices exceeds the exhaustive-search cap of 4\n"
            )

    def test_dim_errors_keep_their_order(self, tmp_path, capsys):
        # dim reads the least leg cover's BFS rows before any other
        # distance: a disconnected legged graph (substar:4x2 and an isolated
        # vertex) is still a bad graph under any cap, and a connected tree
        # above the cap still aborts
        p = tmp_path / "dis.edges"
        edges = generate(FamilySpec.subdivided_star(4, 2)).edges()
        p.write_text("n=10\n" + "".join(f"{u} {v}\n" for u, v in edges))
        for cap in ("24", "5"):
            assert main(["dim", str(p), "--max-vertices", cap]) == EXIT_BAD_GRAPH
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == (
                "", "mdim: vertices 0 and 9 are in different components\n"
            )
        argv = ["dim", "--family", "karytree:2x5", "--max-vertices", "40"]
        assert main(argv) == EXIT_ABORTED
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "mdim: aborted: 63 vertices exceeds the exhaustive-search cap of 40\n"
        )

    @pytest.mark.parametrize("command", ["md", "dim", "suite"])
    @pytest.mark.parametrize("cap", ["0", "-1", "x"])
    def test_cap_below_one_is_usage_error(self, command, cap, capsys):
        # argparse rejects the cap before any graph is built or solved
        argv = [command, "--max-vertices", cap]
        if command != "suite":
            argv += ["--family", "cycle:9"]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--max-vertices" in captured.err

    def test_cap_of_one_still_answers_paths_and_certificates(self, capsys):
        assert main(["md", "--family", "path:5", "--max-vertices", "1"]) == EXIT_OK
        assert main(["md", "--family", "complete:5", "--max-vertices", "1"]) == EXIT_OK
        assert capsys.readouterr().out == (
            "md = 1, witness = {0}\nmd = infinite (diameter-2-non-path certificate)\n"
        )
        assert main(["md", "--family", "cycle:9", "--max-vertices", "1"]) == EXIT_ABORTED

    @pytest.mark.parametrize(
        "argv",
        [
            ["tables", "cycle:8", "--parallel", "2"],
            ["verify", "--family", "cycle:8", "--set", "0,1", "--progress"],
            ["scan", "--n", "4", "--max-vertices", "10"],
            ["md", "--family", "cycle:8", "--parallel", "3"],
            ["dim", "--family", "cycle:8", "--parallel", "3"],
            ["scan", "--n", "4", "--parallel", "2"],
            ["suite", "--scan-n", "4", "--parallel", "2"],
            ["scan", "--n", "4", "--progress"],
        ],
    )
    def test_unread_option_is_usage_error(self, argv, capsys):
        # a subcommand takes only the options it reads
        assert main(argv) == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["md", "g.edges", "--family", "cycle:6"],
            ["dim", "--family", "cycle:6", "g.edges"],
            ["verify", "g.edges", "--family", "cycle:6", "--set", "0,1"],
            ["bounds", "g.edges", "--family", "cycle:6"],
        ],
    )
    def test_file_and_family_together_is_usage_error(self, argv, tmp_path, capsys):
        # two graph sources: argparse refuses the pair before either is read
        (tmp_path / "g.edges").write_text("0 1\n")
        argv = [str(tmp_path / a) if a == "g.edges" else a for a in argv]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not allowed with argument" in captured.err

    def test_aborted(self, capsys):
        assert main(["md", "--family", "cycle:9", "--max-vertices", "4"]) == EXIT_ABORTED
        assert main(["dim", "--family", "cycle:9", "--max-vertices", "4"]) == EXIT_ABORTED
        assert main(["scan", "--n", "9"]) == EXIT_USAGE


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
             "c701597a417f276841d02f6b2c5a78dcac87483a0b49396f94d3ac2011140792"),
            (["scan", "--n", "5", "--json"],
             "58899cbe1efbb06f6fa122ef2acaeb11095e1ad6073038bc1676ef6821c1abfe"),
        ],
    )
    def test_pinned_json_digest(self, argv, digest, capsys):
        assert main(argv) == EXIT_OK
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_python_dash_m_runs_the_cli():
    # the package runs as a module from a source checkout, with no install
    src = str(Path(mdim.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-m", "mdim", "md", "--family", "cycle:6"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert (out.returncode, out.stdout, out.stderr) == (
        EXIT_OK, "md = 3, witness = {0, 1, 3}\n", ""
    )


class TestClosedStdout:
    """A reader that stops early ends the command with 0 and nothing on
    stderr: the answer was computed, and the reader chose to stop.  Each
    case runs with stdout buffered, where a failed write would be retried
    by the interpreter's last flush, and unbuffered, where it is not."""

    def spawn(self, argv: list[str], stdout, buffered: bool) -> subprocess.Popen:
        env = {**os.environ, "PYTHONPATH": str(Path(mdim.__file__).resolve().parents[1])}
        env.pop("PYTHONUNBUFFERED", None)
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        return subprocess.Popen(
            [sys.executable, "-m", "mdim.cli", *argv],
            stdout=stdout,
            stderr=subprocess.PIPE,
            env=env,
            bufsize=0,
        )

    @pytest.mark.parametrize("buffered", [True, False])
    def test_reader_stops_inside_a_large_payload(self, buffered):
        # about 270 kB of edges, several times a pipe's buffer, so the
        # write is still going on when the reader closes after 20 bytes
        argv = ["family", "grid:100x100", "--json"]
        with self.spawn(argv, subprocess.PIPE, buffered) as proc:
            assert len(proc.stdout.read(20)) == 20
            proc.stdout.close()
            err = proc.stderr.read()
        assert (proc.returncode, err) == (EXIT_OK, b"")

    @pytest.mark.parametrize("buffered", [True, False])
    def test_reader_gone_before_a_short_payload(self, buffered):
        # the pipe has no reader at all, so the first write of a one-line
        # answer meets a broken pipe
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            with self.spawn(["md", "--family", "cycle:6"], write_end, buffered) as proc:
                err = proc.stderr.read()
        finally:
            os.close(write_end)
        assert (proc.returncode, err) == (EXIT_OK, b"")
