import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import mdim
from mdim import SearchConfig, build_graph, compute_md, is_connected
from mdim.harness import (
    STATUS_ABORTED,
    Check,
    STATUS_FINDING,
    STATUS_PASS,
    STATUS_VIOLATION,
    cycle_table,
    edge_pairs,
    grid_table,
    mask_to_edges,
    run_reproduction_suite,
    render_checks,
    scan_small_graphs,
    spider_probe,
    table_mismatches,
)

from helpers import labelled_scan, least_relabelling


class TestTables:
    @pytest.mark.parametrize("n", range(6, 14))
    def test_cycle_table_matches_bfs(self, n):
        rows = cycle_table(n)
        assert len(rows) == n
        assert table_mismatches(rows) == []

    def test_cycle_table_frozen_rows(self):
        rows = {r.vertex: r for r in cycle_table(8)}
        assert rows[6].closed_form == (2, 3, 3)
        assert rows[0].closed_form == (0, 1, 3)
        rows9 = {r.vertex: r for r in cycle_table(9)}
        assert rows9[5].closed_form == (2, 4, 4)
        assert rows9[5].computed == (2, 4, 4)

    def test_cycle_table_rejects_small(self):
        with pytest.raises(ValueError):
            cycle_table(5)

    @pytest.mark.parametrize("m", [3, 4, 5])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_grid_table_matches_bfs(self, m, n):
        rows = grid_table(m, n)
        assert len(rows) == m * n
        assert table_mismatches(rows) == []

    def test_grid_table_frozen_rows(self):
        rows = {r.vertex: r for r in grid_table(4, 5)}
        assert rows[0].closed_form == (0, 1, 2)       # corner v11
        assert rows[10].closed_form == (0, 2, 3)      # v31, third row head
        assert rows[19].closed_form == (5, 6, 7)      # v45, deep interior
        # interior anti-diagonal repeats: v34 and v43 share a closed form,
        # so the published set cannot resolve here even though every row
        # matches its own formula
        assert rows[13].closed_form == rows[17].closed_form == (3, 4, 5)

    def test_grid_table_rejects_out_of_zone(self):
        with pytest.raises(ValueError):
            grid_table(2, 4)


class TestScan:
    def test_n2(self):
        report = scan_small_graphs(2)
        assert report.graphs_connected == 1
        assert report.md_histogram == {1: 1}

    def test_n3_labeled_and_dedup(self):
        report = scan_small_graphs(3)
        assert report.graphs_total == 8
        assert report.graphs_connected == 4
        assert report.md_histogram == {1: 3, "infinite": 1}
        dedup = scan_small_graphs(3, dedup=True)
        assert dedup.md_histogram == {1: 1, "infinite": 1}

    def test_n4_clean(self):
        report = scan_small_graphs(4)
        assert report.violations == []
        assert sum(report.md_histogram.values()) == report.graphs_connected
        assert 2 not in report.md_histogram
        conj = [c for c in report.conjecture_findings if c.check_id == "conjecture-md-le-n-1"]
        assert conj and conj[0].status == STATUS_PASS
        spectrum = [c for c in report.conjecture_findings if c.check_id == "md-spectrum"]
        assert spectrum and "achieved" in spectrum[0].details

    def test_n5_histogram(self):
        report = scan_small_graphs(5)
        assert report.md_histogram == {1: 60, 3: 240, "infinite": 428}
        assert report.violations == []

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            scan_small_graphs(8)
        with pytest.raises(ValueError):
            scan_small_graphs(1)

    def test_claim_checks_can_fail(self, monkeypatch):
        # overstate both lower bounds by one, then let the detectors
        # certify every graph: the matching checks must report graphs
        from mdim import harness
        from mdim.resolving import CertificateKind, InfiniteCertificate, LowerBoundReport

        def overstated(bound):
            return lambda *args: LowerBoundReport(bound(*args).value + 1, {})

        monkeypatch.setattr(harness, "md_lower_bound", overstated(harness.md_lower_bound))
        monkeypatch.setattr(harness, "dim_lower_bound", overstated(harness.dim_lower_bound))
        claims = {claim for claim, _ in scan_small_graphs(4).violations}
        assert claims == {"md-lower-bound", "dim-lower-bound"}
        monkeypatch.undo()
        certify = InfiniteCertificate(CertificateKind.DIAMETER_TWO_NON_PATH)
        monkeypatch.setattr(harness, "detect_infinite", lambda *args: certify)
        claims = {claim for claim, _ in scan_small_graphs(4).violations}
        assert claims == {"detector-soundness"}

    def test_md_ge_dim_can_fail(self, monkeypatch):
        # an ordered search that first resolves at the whole vertex set
        # overstates dim above every finite md of order 4
        from mdim import harness

        build = harness.level_search

        def overstated(dm, ordered=False):
            if not ordered:
                return build(dm)
            return lambda k: tuple(range(dm.n)) if k == dm.n else None

        monkeypatch.setattr(harness, "level_search", overstated)
        claims = {claim for claim, _ in scan_small_graphs(4).violations}
        assert claims == {"md-ge-dim"}

    def test_md_le_n_1_finding_can_fire(self, monkeypatch):
        # a multiset search that first resolves at the whole vertex set
        # gives each path of order 3 md 3 > n - 1; the triangle stays
        # certified, and the whole set holds both ends of each path, a twin
        # pair, so only that flag fires alongside the finding
        from mdim import harness

        build = harness.level_search

        def overstated(dm, ordered=False):
            if ordered:
                return build(dm, True)
            return lambda k: tuple(range(dm.n)) if k == dm.n else None

        monkeypatch.setattr(harness, "level_search", overstated)
        report = scan_small_graphs(3)
        paths = [((0, 1), (0, 2)), ((0, 1), (1, 2)), ((0, 2), (1, 2))]
        assert report.conjecture_findings[:3] == [
            Check(
                "conjecture-md-le-n-1",
                STATUS_FINDING,
                graph=edges,
                details={"n": 3, "md": 3, "note": "exceeds n-1"},
            )
            for edges in paths
        ]
        assert report.conjecture_findings[3].check_id == "md-spectrum"
        assert report.violations == [("twin-pair-membership", e) for e in paths]

    def test_twin_pair_membership_can_fail(self, monkeypatch):
        # a made-up pair class {0, 1}: a least witness that holds both or
        # neither of them must be reported
        from mdim import harness
        from mdim.graph import TwinPartition

        partition = harness.twin_partition

        def with_pair(g):
            return TwinPartition(partition(g).classes + ((0, 1),))

        monkeypatch.setattr(harness, "twin_partition", with_pair)
        claims = {claim for claim, _ in scan_small_graphs(4).violations}
        assert claims == {"twin-pair-membership"}

    @pytest.mark.parametrize("n,classes", [(2, 2), (3, 4), (4, 11), (5, 34), (6, 156)])
    def test_orbit_weights_count_every_labelled_graph(self, n, classes):
        # one leader per class of all graphs (OEIS A000088), and the orbit
        # sizes n!/|Aut| add up to all 2^C(n,2) labelled graphs
        from mdim import harness

        pairs = edge_pairs(n)
        leaders = list(harness._orbit_leaders(n, pairs, True))
        assert len(leaders) == classes
        assert sum(w for _, w in leaders) == 1 << len(pairs)
        assert {w for _, w in harness._orbit_leaders(n, pairs, False)} == {1}

    @pytest.mark.parametrize("n", range(2, 7))
    def test_weighted_classes_equal_labelled_scan(self, n):
        # one solve per class, counted n!/|Aut| times, gives the labelled
        # report in every field; the spectrum agrees because the least
        # labelled graph with an md is the least class leader with it
        from mdim import harness

        pairs = edge_pairs(n)
        weighted = harness._scan(n, False, pairs, harness._orbit_leaders(n, pairs, True))
        assert weighted == labelled_scan(n)

    def test_weighted_scan_names_each_class_once(self, monkeypatch):
        # the overstated bounds of test_claim_checks_can_fail on the scan
        # by classes: the same claims, each named once per class, by the
        # least bitmask of its orbit
        from mdim import harness
        from mdim.resolving import LowerBoundReport

        def overstated(bound):
            return lambda *args: LowerBoundReport(bound(*args).value + 1, {})

        monkeypatch.setattr(harness, "md_lower_bound", overstated(harness.md_lower_bound))
        monkeypatch.setattr(harness, "dim_lower_bound", overstated(harness.dim_lower_bound))
        n = 5
        pairs = edge_pairs(n)
        bit = {p: 1 << b for b, p in enumerate(pairs)}

        def leader(edges):
            return mask_to_edges(least_relabelling(n, sum(bit[e] for e in edges)), pairs)

        labelled = scan_small_graphs(n).violations
        weighted = harness._scan(n, False, pairs, harness._orbit_leaders(n, pairs, True))
        claims = {claim for claim, _ in weighted.violations}
        assert claims == {claim for claim, _ in labelled} == {"md-lower-bound", "dim-lower-bound"}
        assert all(leader(edges) == edges for _, edges in weighted.violations)
        assert weighted.violations == sorted({(c, leader(e)) for c, e in labelled})

    def test_serial_import_loads_no_multiprocessing(self):
        # mdim solves and scans in one process and starts no other, so
        # importing the package, the harness or the CLI must not pay for
        # multiprocessing
        src = str(Path(mdim.__file__).resolve().parents[1])
        code = (
            "import sys, mdim, mdim.harness, mdim.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "[]"

    def test_import_loads_no_code_generation(self):
        # the records are named tuples, so importing the package, the
        # harness or the CLI loads neither dataclasses nor its inspect
        # and ast imports
        src = str(Path(mdim.__file__).resolve().parents[1])
        code = (
            "import sys, mdim, mdim.harness, mdim.cli; "
            "print(sorted({'dataclasses', 'inspect', 'ast'} & set(sys.modules)))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "[]"

    def test_dedup_preserves_md_per_class(self):
        # isomorphic labelled graphs all get the same dimension, and the
        # dedup scan sees exactly one representative per class
        n = 4
        pairs = edge_pairs(n)
        class_md: dict[int, object] = {}
        for mask in range(1 << len(pairs)):
            g = build_graph(n, list(mask_to_edges(mask, pairs)))
            if not is_connected(g):
                continue
            canon = least_relabelling(n, mask)
            outcome = compute_md(g)
            key = outcome.value if outcome.is_finite else "infinite"
            assert class_md.setdefault(canon, key) == key
        dedup = scan_small_graphs(n, dedup=True)
        assert dedup.graphs_connected == len(class_md)
        hist: dict = {}
        for key in class_md.values():
            hist[key] = hist.get(key, 0) + 1
        assert dedup.md_histogram == hist


class TestSuite:
    def test_spider_probe(self):
        check = spider_probe()
        assert check.status == STATUS_FINDING
        assert check.details["claimed"] == 2
        assert check.details["computed"] == 3
        assert check.details["witness"] is not None

    def test_full_suite_small_scan(self):
        checks = run_reproduction_suite(SearchConfig(), scan_n=4)
        by_id = {c.check_id: c for c in checks}
        assert not [c for c in checks if c.status == STATUS_VIOLATION]
        assert by_id["petersen-infinite"].status == STATUS_PASS
        assert by_id["detector-incompleteness"].status == STATUS_PASS
        assert by_id["spider-n3-discrepancy"].status == STATUS_FINDING
        assert by_id["family-witness:grid:4x3"].status == STATUS_FINDING
        assert by_id["family-witness:grid:3x4"].status == STATUS_PASS
        assert by_id["family-md:substar:3x2"].status == STATUS_FINDING
        # the n = 5, p = 4 boundary counterexample: value finding plus a
        # failing published witness
        assert by_id["family-md:substar:5x4"].status == STATUS_FINDING
        assert by_id["family-md:substar:5x4"].details["computed"] == 5
        assert by_id["family-witness:substar:5x4"].status == STATUS_FINDING
        assert by_id["cycle-table:13"].status == STATUS_PASS
        assert by_id["grid-table:5x5"].status == STATUS_PASS
        assert by_id["scan:4"].status == STATUS_PASS
        text = render_checks(checks)
        assert "petersen-infinite" in text
        assert "checks:" in text.splitlines()[-1]  # summary line present

    def test_table_mismatch_is_a_finding(self, monkeypatch):
        # a wrong closed form for vertex 0 of C6: the suite lists that row,
        # and no other table check changes
        from mdim import harness

        forms = harness._cycle_closed_forms
        monkeypatch.setattr(
            harness,
            "_cycle_closed_forms",
            lambda n: [(9, 9, 9)] + forms(n)[1:] if n == 6 else forms(n),
        )
        checks = run_reproduction_suite(SearchConfig(), scan_n=2)
        tables = [c for c in checks if "-table:" in c.check_id]
        assert len(tables) == 20
        assert [c for c in tables if c.status != STATUS_PASS] == [
            Check(
                "cycle-table:6",
                STATUS_FINDING,
                details={
                    "mismatches": [
                        {"vertex": 0, "computed": [0, 1, 3], "closed_form": [9, 9, 9]}
                    ]
                },
            )
        ]

    def test_capped_items_recorded_as_aborted(self):
        checks = run_reproduction_suite(SearchConfig(max_vertices=10), scan_n=4)
        by_id = {c.check_id: c for c in checks}
        grid = by_id["family-md:grid:4x5"]
        assert grid.status == STATUS_ABORTED
        assert "20 vertices exceeds the exhaustive-search cap of 10" in grid.details["reason"]
        assert by_id["family-md:petersen"].status == STATUS_PASS
        assert by_id["detector-incompleteness"].status == STATUS_PASS
        assert by_id["scan:4"].status == STATUS_PASS
        # the 10-vertex pendant-pair tree needs the search, so a cap of 9
        # aborts that check instead of calling it a violation
        checks = run_reproduction_suite(SearchConfig(max_vertices=9), scan_n=4)
        by_id = {c.check_id: c for c in checks}
        assert by_id["detector-incompleteness"].status == STATUS_ABORTED
        assert not [c for c in checks if c.status == STATUS_VIOLATION]

    def test_checks_serialize(self):
        import json

        checks = run_reproduction_suite(SearchConfig(), scan_n=3)
        payload = json.dumps([c.to_dict() for c in checks], sort_keys=True)
        parsed = json.loads(payload)
        assert {c["check_id"] for c in parsed} >= {"spider-n3-discrepancy", "scan:3"}
        for c in parsed:
            assert set(c) == {"check_id", "status", "graph", "details"}
