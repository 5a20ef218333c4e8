"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a single `criterion NN PASS` line on success (visible with
pytest -s or in the captured output section); a failing criterion shows up
as a regular pytest failure naming the criterion.
"""

import time

import pytest

from mdim import (
    CertificateKind,
    SearchConfig,
    all_pairs_distances,
    brute_force_md,
    compute_dim,
    compute_md,
    detect_infinite,
    is_m_resolving,
    twin_partition,
    verify_witness,
)
from mdim.families import FamilySpec, expected_md, generate, parse_family_spec, witness_for
from mdim.harness import (
    STATUS_FINDING,
    cycle_table,
    grid_table,
    scan_small_graphs,
    spider_probe,
    table_mismatches,
)

from helpers import labelled_scan


def report(num: int, desc: str) -> None:
    print(f"criterion {num:>2} PASS: {desc}")


@pytest.fixture(scope="session")
def scan_reports():
    return {n: labelled_scan(n) for n in (4, 5, 6)}


def test_criterion_01_paths():
    start = time.perf_counter()
    for n in range(1, 13):
        g = generate(FamilySpec.path(n))
        outcome = compute_md(g)
        assert outcome.is_finite and outcome.value == 1, f"P_{n}"
        (w,) = outcome.witness
        assert g.degree(w) <= 1, f"witness of P_{n} must be a pendant vertex"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"path batch took {elapsed:.2f}s"
    report(1, f"md(P_n) = 1 with pendant witness for n = 1..12 ({elapsed:.2f}s)")


def test_criterion_02_no_dimension_two(scan_reports):
    for n in (4, 5, 6):
        hist = scan_reports[n].md_histogram
        assert hist.get(2, 0) == 0, f"md = 2 occurred at order {n}"
        assert sum(hist.values()) == scan_reports[n].graphs_connected
    report(2, "no connected graph of order 4, 5 or 6 has dimension 2")


def test_criterion_03_cycles():
    for n in (3, 4, 5):
        start = time.perf_counter()
        outcome = compute_md(generate(FamilySpec.cycle(n)))
        assert outcome.is_infinite, f"C_{n}"
        assert outcome.certificate.kind is CertificateKind.DIAMETER_TWO_NON_PATH
        assert time.perf_counter() - start < 1.0
    for n in range(6, 13):
        start = time.perf_counter()
        g = generate(FamilySpec.cycle(n))
        outcome = compute_md(g)
        assert outcome.is_finite and outcome.value == 3, f"C_{n}"
        assert is_m_resolving(all_pairs_distances(g), (0, 1, 3)).resolving
        assert time.perf_counter() - start < 1.0
    report(3, "cycles: infinite for n = 3..5 (diameter-2), md = 3 for n = 6..12")


def test_criterion_04_cycle_tables():
    for n in range(6, 14):
        rows = cycle_table(n)
        bad = table_mismatches(rows)
        assert bad == [], f"C_{n} closed form differs at vertices {[r.vertex for r in bad]}"
    report(4, "cycle closed forms match BFS at every vertex for n = 6..13")


def test_criterion_05_grids():
    start = time.perf_counter()
    cfg = SearchConfig(max_vertices=25)  # the 5x5 grid sits just over the default cap
    for m in range(3, 6):
        for n in range(2, 6):
            outcome = compute_md(generate(FamilySpec.grid(m, n)), cfg)
            assert outcome.is_finite and outcome.value == 3, f"grid {m}x{n}"
            assert table_mismatches(grid_table(m, n)) == [], f"grid {m}x{n} table"
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"grid batch took {elapsed:.2f}s"
    report(5, f"md = 3 and formulas match on all grids 3..5 x 2..5 ({elapsed:.2f}s)")


def test_criterion_06_binary_trees():
    for h, value in ((2, 3), (3, 7)):
        start = time.perf_counter()
        spec = FamilySpec.kary_tree(2, h)
        g = generate(spec)
        assert g.n == 2 ** (h + 1) - 1
        outcome = compute_md(g)
        assert outcome.is_finite and outcome.value == value, f"height {h}"
        w = witness_for(spec)
        assert len(w) == 2**h - 1
        assert verify_witness(g, w).multiset.resolving
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"height {h} took {elapsed:.2f}s"
    report(6, "complete binary trees: md = 2^h - 1 for h = 2, 3 with verified witnesses")


def test_criterion_07_ternary_tree():
    start = time.perf_counter()
    g = generate(FamilySpec.kary_tree(3, 2))
    assert g.n == 13
    outcome = compute_md(g)
    assert outcome.is_infinite
    assert outcome.certificate.kind is CertificateKind.LARGE_TWIN_CLASS
    assert brute_force_md(g).is_infinite  # full 2^13 cross-check
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"cross-check took {elapsed:.2f}s"
    report(7, f"3-ary tree of height 2: twin certificate confirmed by exhaustion ({elapsed:.2f}s)")


def test_criterion_08_pendant_pair_tree():
    start = time.perf_counter()
    g = generate(FamilySpec.counterexample_tree())
    assert g.n == 10
    assert detect_infinite(g, all_pairs_distances(g), twin_partition(g)) is None
    outcome = compute_md(g)
    assert outcome.is_infinite
    assert outcome.certificate.kind is CertificateKind.EXHAUSTIVE_SEARCH
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    report(8, "pendant-pair tree: detectors silent, infiniteness only by exhaustion")


def test_criterion_09_subdivided_stars():
    for (n, p), value in (((3, 2), 2), ((4, 3), 3), ((4, 4), 3), ((5, 4), 4)):
        dim_value, _ = compute_dim(generate(FamilySpec.subdivided_star(n, p)))
        assert dim_value == value == n - 1, f"dim of substar {n}x{p}"
    spec = FamilySpec.subdivided_star(4, 3)
    outcome = compute_md(generate(spec))
    assert outcome.is_finite and outcome.value == 3
    w = witness_for(spec)
    assert w == (1, 5, 9)  # depth b on branch b
    assert verify_witness(generate(spec), w).multiset.resolving
    probe = spider_probe()
    assert probe.status == STATUS_FINDING
    assert probe.details["claimed"] == 2
    assert probe.details["computed"] == 3
    assert probe.details["computed"] >= 3
    report(9, "subdivided stars: dim = n-1, md(4x3) = 3 verified, 3-branch probe flagged")


def test_criterion_10_bound_suite(scan_reports):
    for n in (4, 5, 6):
        rep = scan_reports[n]
        # in-scan hard assertions: md >= dim, md >= order/diameter bound,
        # dim >= terminal count bound, detector verdicts confirmed by
        # exhaustion, witnesses meet every twin pair exactly once
        assert rep.violations == [], f"order {n}: {rep.violations}"
        conjecture = [
            c for c in rep.conjecture_findings if c.check_id == "conjecture-md-le-n-1"
        ]
        assert len(conjecture) == 1 and conjecture[0].status == "pass"
        finite = [k for k in rep.md_histogram if isinstance(k, int)]
        assert all(v <= n - 1 for v in finite)
    report(10, "bound suite clean at n = 4, 5, 6; md <= n-1 holds at this scale")


def test_criterion_10b_bound_suite_order_7():
    rep = scan_small_graphs(7)
    assert rep.violations == []
    # frozen survey numbers from a verified full run; 2520 = 7!/2 labelled
    # paths, and the connected count matches the published enumeration
    assert rep.graphs_connected == 1_866_256
    assert rep.md_histogram == {
        1: 2_520, 3: 546_780, 4: 270_480, 5: 47_880, "infinite": 998_596
    }
    conjecture = [
        c for c in rep.conjecture_findings if c.check_id == "conjecture-md-le-n-1"
    ]
    assert len(conjecture) == 1 and conjecture[0].status == "pass"
    report(10, f"order-7 scan clean: histogram {rep.md_histogram}")


def test_criterion_11_determinism():
    specs = (
        [f"path:{n}" for n in (1, 5, 12)]
        + [f"cycle:{n}" for n in range(3, 13)]
        + [f"grid:{m}x{n}" for m in range(3, 6) for n in range(2, 6)]
        + ["karytree:2x2", "karytree:2x3", "karytree:3x2"]
        + ["substar:3x2", "substar:4x3", "substar:4x4", "substar:5x4"]
        + ["petersen", "cextree"]
    )
    for text in specs:
        g = generate(parse_family_spec(text))
        serial = compute_md(g, SearchConfig(max_vertices=25, workers=1))
        parallel = compute_md(g, SearchConfig(max_vertices=25, workers=4))
        assert serial == parallel, f"worker count changed the outcome on {text}"
    report(11, f"1 worker and 4 workers agree on all {len(specs)} family instances")


def test_criterion_12_nonmonotonicity():
    dm = all_pairs_distances(generate(FamilySpec.path(4)))
    assert is_m_resolving(dm, (0,)).resolving
    assert not is_m_resolving(dm, (0, 3)).resolving
    report(12, "on P4 the set {0} resolves while its superset {0, 3} does not")
