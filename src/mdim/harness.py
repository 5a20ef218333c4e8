"""Claim-checking harness: closed-form tables, small-graph scans, full suite.

The harness separates three verdict levels.  A *violation* means one of the
proved bounds failed on a concrete graph, which can only be a solver bug.
A *finding* is reportable but not a bug: a published closed form or witness
that disagrees with ground truth, a conjecture counterexample, or plain
survey data (which dimensions occur at a given order).  Everything else is
a *pass*.
"""

from __future__ import annotations

from itertools import combinations, permutations
from operator import itemgetter
from typing import NamedTuple

from . import families
from .families import ExpectedMd, FamilySpec, MdKind, NoKnownWitness
from .graph import Graph, build_graph, is_connected
from .graph import all_pairs_distances, major_vertex_report, twin_partition
from .resolving import (
    CertificateKind,
    Multiset,
    detect_infinite,
    dim_lower_bound,
    least_resolving_set,
    md_lower_bound,
    representation,
)
from .search import (
    ResolveOutcome,
    SearchAborted,
    SearchConfig,
    brute_force_md,
    compute_md,
    level_search,
    verify_witness,
)

STATUS_PASS = "pass"
STATUS_FINDING = "finding"
STATUS_VIOLATION = "violation"
STATUS_ABORTED = "aborted"


def _jsonable(x):
    # a record is a tuple too: write its fields as an object, not a list
    if hasattr(x, "_asdict"):
        x = x._asdict()
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


class Check(NamedTuple):
    """One harness verdict: what was checked, how it went, on which graph.

    ``details`` has no default, so no two checks share one dict.
    """

    check_id: str
    status: str
    details: dict
    graph: tuple[tuple[int, int], ...] | None = None

    def to_dict(self) -> dict:
        return _jsonable(self._asdict())

    def render(self) -> str:
        extra = ""
        if self.details:
            extra = ": " + ", ".join(f"{k}={v}" for k, v in self.details.items())
        return f"[{self.status.upper():9}] {self.check_id}{extra}"


# ---------------------------------------------------------------------------
# Closed-form representation tables
# ---------------------------------------------------------------------------

class TableRow(NamedTuple):
    vertex: int
    computed: Multiset
    closed_form: Multiset

    @property
    def match(self) -> bool:
        return self.computed == self.closed_form


def _cycle_closed_forms(n: int) -> list[Multiset]:
    """Expected representations on the n-cycle with landmarks {0, 1, 3}.

    The case split follows the half-length t; for n of 6 or 7 some cases
    land on the same vertex index mod n and must agree, which is checked.
    """
    t = n // 2
    forms: dict[int, Multiset] = {}

    def put(i: int, values: tuple[int, int, int]) -> None:
        i %= n
        ms = tuple(sorted(values))
        if i in forms and forms[i] != ms:
            raise RuntimeError(
                f"closed-form cases overlap inconsistently at vertex {i} of C{n}: "
                f"{forms[i]} vs {ms}"
            )
        forms[i] = ms

    put(0, (0, 1, 3))
    put(1, (0, 1, 2))
    put(2, (1, 1, 2))
    put(3, (0, 2, 3))
    for i in range(4, t):
        put(i, (i - 3, i - 1, i))
    put(t, (t - 3, t - 1, t))
    if n % 2 == 0:
        put(t + 1, (t - 2, t - 1, t))
        put(t + 2, (t - 2, t - 1, t - 1))
        put(t + 3, (t - 3, t - 2, t))
        for i in range(4, t):
            put(i + t, (t - i, t - i + 1, t - i + 3))
    else:
        put(t + 1, (t - 2, t, t))
        put(t + 2, (t - 1, t - 1, t))
        put(t + 3, (t - 2, t - 1, t))
        put(t + 4, (t - 3, t - 2, t))
        for i in range(4, t):
            put(i + t + 1, (t - i, t - i + 1, t - i + 3))
    return [forms[i] for i in range(n)]


def cycle_table(n: int) -> list[TableRow]:
    """Computed vs closed-form representations on C_n, landmarks {0, 1, 3}.

    BFS distances are ground truth; a mismatching row flags a defect in the
    published closed form, not in the solver.
    """
    if n < 6:
        raise ValueError(f"cycle table needs n >= 6, got {n}")
    dm = all_pairs_distances(families.generate(FamilySpec.cycle(n)))
    closed = _cycle_closed_forms(n)
    return [
        TableRow(v, representation(dm, v, (0, 1, 3)), closed[v]) for v in range(n)
    ]


def _grid_closed_form(i: int, j: int) -> Multiset:
    # coordinates are 1-based; landmarks are v11, v12, v31
    if j == 1:
        if i == 1:
            return (0, 1, 2)
        if i == 2:
            return (1, 1, 2)
        return tuple(sorted((i - 3, i - 1, i)))
    if i == 1:
        return tuple(sorted((j - 2, j - 1, j + 1)))
    if i == 2:
        return tuple(sorted((j - 1, j, j)))
    return (i + j - 4, i + j - 3, i + j - 2)


def grid_table(m: int, n: int) -> list[TableRow]:
    """Computed vs closed-form representations on the m-by-n grid with
    landmarks {v11, v12, v31}; one row per vertex in id order."""
    if m < 3 or n < 2:
        raise ValueError(f"grid table needs m >= 3 and n >= 2, got {m}x{n}")
    dm = all_pairs_distances(families.generate(FamilySpec.grid(m, n)))
    w = (0, 1, 2 * n)
    rows = []
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            v = (i - 1) * n + (j - 1)
            rows.append(TableRow(v, representation(dm, v, w), _grid_closed_form(i, j)))
    return rows


def table_mismatches(rows: list[TableRow]) -> list[TableRow]:
    return [r for r in rows if not r.match]


# ---------------------------------------------------------------------------
# Exhaustive scan of all small connected graphs
# ---------------------------------------------------------------------------

class ScanReport(NamedTuple):
    """Aggregate of solving every (connected) graph of one order.

    ``graphs_total`` counts all 2^C(n,2) labelled graphs.  Without dedup,
    ``graphs_connected``, the histogram and the diameter-2 fraction count
    labelled graphs; with dedup on they count isomorphism classes.  An
    order-7 scan solves one graph per class and weights it by the
    class's number of labellings, n!/|Aut|, so its counts equal the
    labelled ones; there, and in every dedup scan, each violation or
    conjecture hit names the least edge bitmask of its class once, and
    each md in the spectrum the least labelled graph that has it.
    """

    n: int
    dedup: bool
    graphs_total: int
    graphs_connected: int
    md_histogram: dict
    violations: list
    conjecture_findings: list[Check]
    diameter2_fraction: float

    def to_dict(self) -> dict:
        return _jsonable(self._asdict())


# the orders scan_small_graphs enumerates; up to _LABELLED_MAX a scan
# without dedup solves every labelled graph, above it one per class
SCAN_ORDERS = range(2, 8)
_LABELLED_MAX = 6


def edge_pairs(n: int) -> list[tuple[int, int]]:
    """Bit order for encoding an n-vertex graph as an edge bitmask."""
    return list(combinations(range(n), 2))


def mask_to_edges(mask: int, pairs: list[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    return tuple(p for b, p in enumerate(pairs) if mask >> b & 1)


def _orbit_leaders(n: int, pairs: list[tuple[int, int]], weighted: bool):
    """The least edge bitmask of each relabelling orbit, ascending, with
    the orbit's size n!/|Aut| as its weight, or 1 when not ``weighted``.

    One ascending walk meets each orbit first at its least mask, and
    listing the orbit there marks the rest of it seen.  Each vertex
    permutation is a table whose entry b is the bit value of the image of
    edge bit b, so a mask's image is the sum of the entries at its bits."""
    bit = {p: 1 << b for b, p in enumerate(pairs)}
    # the two trailing zeros make itemgetter return a tuple for any mask
    tables = [
        [bit[(p[u], p[v]) if p[u] < p[v] else (p[v], p[u])] for u, v in pairs] + [0, 0]
        for p in permutations(range(n))
    ]
    seen = bytearray(1 << len(pairs))
    for mask in range(len(seen)):
        if not seen[mask]:
            pick = itemgetter(-2, -1, *(b for b in range(mask.bit_length()) if mask >> b & 1))
            orbit = {sum(pick(table)) for table in tables}
            for image in orbit:
                seen[image] = 1
            yield mask, len(orbit) if weighted else 1


def scan_small_graphs(n: int, dedup: bool = False) -> ScanReport:
    """Solve every connected graph on n vertices and check each claim.

    n runs over 2..7 (else ValueError).  Up to order 6 a scan solves each
    of the 2^C(n,2) labelled graphs.  At order 7 it solves the least edge
    bitmask of each isomorphism class and counts it n!/|Aut| times, the
    size of its relabelling orbit: the labelled counts from 853 solves
    instead of 1,866,256.  With ``dedup`` it solves the same
    representatives and counts each once.  md is walked from size 1 and
    dim from one below ``dim_lower_bound``, so every bound rule is
    checked rather than assumed.  Violations land in the report, tagged
    md-lower-bound, md-ge-dim, twin-pair-membership, detector-soundness
    or dim-lower-bound; an empty violation list is the expected outcome
    for every proved bound.  A scan by classes names each offending
    graph once, by its class's least bitmask (see ``ScanReport``).
    """
    if n not in SCAN_ORDERS:
        raise ValueError(f"scan supports n in 2..7, got {n}")
    pairs = edge_pairs(n)
    if dedup or n > _LABELLED_MAX:
        source = _orbit_leaders(n, pairs, weighted=not dedup)
    else:
        source = ((mask, 1) for mask in range(1 << len(pairs)))
    return _scan(n, dedup, pairs, source)


def _scan(n: int, dedup: bool, pairs: list[tuple[int, int]], source) -> ScanReport:
    """Solve and claim-check each connected graph of ``source``, a run of
    ascending (edge bitmask, labelled graphs it stands for) pairs."""
    hist: dict = {}
    violations: list = []
    conjecture_hits: list = []
    spectrum: dict = {}
    connected = diam2 = 0

    for mask, weight in source:
        edges = mask_to_edges(mask, pairs)
        g = build_graph(n, list(edges))
        if not is_connected(g):
            continue
        dm = all_pairs_distances(g)
        tp = twin_partition(g)
        mr = major_vertex_report(g, dm)
        connected += weight
        if dm.diameter <= 2:
            diam2 += weight

        # metric resolving is monotone under supersets, so a resolving set
        # below the bound would show at size lb - 1, where the search starts
        dim_lb = dim_lower_bound(g, dm, tp, mr).value
        least = level_search(dm, True)
        dim_value = next(k for k in range(max(1, dim_lb - 1), n + 1) if least(k))

        def flag(claim: str) -> None:
            violations.append((claim, edges))

        cert = detect_infinite(g, dm, tp)
        # md is searched at every size from 1, so a set below any rule of
        # md_lower_bound (a 2-set, or a 1-set on a non-path) is flagged
        witness = None
        if cert is None:
            witness = next(filter(None, map(level_search(dm), range(1, n + 1))), None)
        if witness is not None:
            md = key = len(witness)
            if md < md_lower_bound(g, dm, tp, mr).value:
                flag("md-lower-bound")
            if md < dim_value:
                flag("md-ge-dim")
            for cls in tp.pair_classes:
                if len(set(witness) & set(cls)) != 1:
                    flag("twin-pair-membership")
                    break
            if md > n - 1:
                conjecture_hits.append((md, edges))
            # masks ascend, so the first graph met with an md is the least
            if md not in spectrum:
                spectrum[md] = edges
        else:
            key = "infinite"
            # detector soundness: the shortcut verdict must agree with
            # full exhaustion
            if cert is not None and least_resolving_set(dm) is not None:
                flag("detector-soundness")
        if dim_value < dim_lb:
            flag("dim-lower-bound")
        hist[key] = hist.get(key, 0) + weight
    violations.sort()

    findings = []
    if conjecture_hits:
        for value, edges in sorted(conjecture_hits):
            findings.append(
                Check(
                    "conjecture-md-le-n-1",
                    STATUS_FINDING,
                    graph=edges,
                    details={"n": n, "md": value, "note": "exceeds n-1"},
                )
            )
    else:
        findings.append(
            Check(
                "conjecture-md-le-n-1",
                STATUS_PASS,
                details={"n": n, "note": "holds for every scanned graph"},
            )
        )
    findings.append(
        Check(
            "md-spectrum",
            STATUS_FINDING,
            details={
                "n": n,
                "achieved": {v: list(map(list, e)) for v, e in sorted(spectrum.items())},
            },
        )
    )

    return ScanReport(
        n=n,
        dedup=dedup,
        graphs_total=1 << len(pairs),
        graphs_connected=connected,
        md_histogram=dict(
            sorted(hist.items(), key=lambda kv: (isinstance(kv[0], str), kv[0]))
        ),
        violations=violations,
        conjecture_findings=findings,
        diameter2_fraction=diam2 / connected if connected else 0.0,
    )


# ---------------------------------------------------------------------------
# Full suite
# ---------------------------------------------------------------------------

# family instances exercised by the suite: every family, both finite and
# infinite zones, all within the exhaustive cap
_SUITE_FAMILIES = (
    [FamilySpec.path(n) for n in (1, 2, 5, 9)]
    + [FamilySpec.cycle(n) for n in (3, 4, 5, 6, 9, 12)]
    + [FamilySpec.complete(n) for n in (2, 4)]
    + [FamilySpec.star(n) for n in (2, 4)]
    + [
        FamilySpec.subdivided_star(3, 2),
        FamilySpec.subdivided_star(4, 1),
        FamilySpec.subdivided_star(4, 3),
        FamilySpec.subdivided_star(4, 4),
        FamilySpec.subdivided_star(5, 4),
    ]
    + [
        FamilySpec.grid(1, 5),
        FamilySpec.grid(2, 2),
        FamilySpec.grid(3, 2),
        FamilySpec.grid(3, 4),
        FamilySpec.grid(4, 3),
        FamilySpec.grid(4, 5),
    ]
    + [
        FamilySpec.kary_tree(1, 4),
        FamilySpec.kary_tree(2, 1),
        FamilySpec.kary_tree(2, 2),
        FamilySpec.kary_tree(2, 3),
        FamilySpec.kary_tree(3, 2),
    ]
    + [FamilySpec.petersen(), FamilySpec.counterexample_tree()]
)


def _run_family_checks(cfg: SearchConfig) -> list[Check]:
    checks = []
    for spec in _SUITE_FAMILIES:
        g = families.generate(spec)
        expected = families.expected_md(spec)
        try:
            outcome = compute_md(g, cfg)
        except SearchAborted as exc:
            checks.append(
                Check(f"family-md:{spec}", STATUS_ABORTED, graph=tuple(g.edges()),
                      details={"reason": str(exc)})
            )
        else:
            checks.append(_family_md_check(spec, g, expected, outcome))
        checks.append(_family_witness_check(spec, g, expected))
    return [c for c in checks if c is not None]


def _family_md_check(
    spec: FamilySpec, g: Graph, expected: ExpectedMd, outcome: ResolveOutcome
) -> Check:
    cid = f"family-md:{spec}"
    edges = tuple(g.edges())
    got = outcome.value if outcome.is_finite else "infinite"
    if expected.kind is MdKind.FINITE:
        ok = outcome.is_finite and outcome.value == expected.value
        return Check(
            cid,
            STATUS_PASS if ok else STATUS_VIOLATION,
            graph=None if ok else edges,
            details={"expected": expected.value, "computed": got},
        )
    if expected.kind is MdKind.INFINITE:
        ok = outcome.is_infinite
        details = {"expected": "infinite", "computed": got}
        if ok:
            details["certificate"] = outcome.certificate.kind.value
        return Check(
            cid, STATUS_PASS if ok else STATUS_VIOLATION,
            graph=None if ok else edges, details=details,
        )
    return Check(
        cid,
        STATUS_FINDING,
        details={"expected": "unspecified", "computed": got, "note": expected.note},
    )


def _family_witness_check(spec, g: Graph, expected: ExpectedMd) -> Check | None:
    try:
        w = families.witness_for(spec)
    except NoKnownWitness:
        return None
    cid = f"family-witness:{spec}"
    report = verify_witness(g, w)
    details = {"witness": list(w), "size": len(w)}
    if report.multiset.resolving:
        ok = expected.kind is not MdKind.FINITE or len(w) == expected.value
        return Check(cid, STATUS_PASS if ok else STATUS_VIOLATION, details=details)
    # two published constructions genuinely fail in parts of their stated
    # zones: the grid triple off m == 3 / n == 2, and the subdivided-star
    # depth assignment for odd branch counts; anywhere else a failing
    # construction is a bug
    u, v, rep = report.multiset.first_collision
    details["collision"] = {"vertices": [u, v], "representation": list(rep)}
    flawed_zone = (
        spec.kind is families.FamilyKind.GRID
        and spec.params[0] >= 4
        and spec.params[1] >= 3
    ) or (
        spec.kind is families.FamilyKind.SUBDIVIDED_STAR and spec.params[0] % 2 == 1
    )
    return Check(
        cid,
        STATUS_FINDING if flawed_zone else STATUS_VIOLATION,
        graph=tuple(g.edges()),
        details=details,
    )


def _table_check(check_id: str, rows: list[TableRow]) -> Check:
    """Pass when every row matches its closed form; otherwise a finding
    listing each mismatching row."""
    bad = table_mismatches(rows)
    if not bad:
        return Check(check_id, STATUS_PASS, details={})
    mismatches = [
        {"vertex": r.vertex, "computed": list(r.computed), "closed_form": list(r.closed_form)}
        for r in bad
    ]
    return Check(check_id, STATUS_FINDING, details={"mismatches": mismatches})


def _run_table_checks() -> list[Check]:
    checks = [_table_check(f"cycle-table:{n}", cycle_table(n)) for n in range(6, 14)]
    for m in range(3, 6):
        for n in range(2, 6):
            checks.append(_table_check(f"grid-table:{m}x{n}", grid_table(m, n)))
    return checks


def spider_probe() -> Check:
    """Settle the 3-branch, doubly-subdivided star by brute force.

    Its claimed dimension n-1 = 2 is impossible (no graph has multiset
    dimension 2), so the true value is of record interest: exhaustive
    search reports it and the discrepancy is flagged.
    """
    spec = FamilySpec.subdivided_star(3, 2)
    g = families.generate(spec)
    w = least_resolving_set(all_pairs_distances(g))
    return Check(
        "spider-n3-discrepancy",
        STATUS_FINDING,
        graph=tuple(g.edges()),
        details={
            "claimed": 2,
            "computed": len(w) if w else "infinite",
            "witness": list(w) if w else None,
            "note": "claimed n-1 = 2 is impossible since no graph has "
            "multiset dimension 2; brute force gives the value above",
        },
    )


def _detector_incompleteness_check(cfg: SearchConfig) -> Check:
    g = families.generate(FamilySpec.counterexample_tree())
    cert = detect_infinite(g, all_pairs_distances(g), twin_partition(g))
    try:
        outcome = compute_md(g, cfg)
    except SearchAborted as exc:
        return Check("detector-incompleteness", STATUS_ABORTED, details={"reason": str(exc)})
    ok = (
        cert is None
        and outcome.is_infinite
        and outcome.certificate.kind is CertificateKind.EXHAUSTIVE_SEARCH
        and brute_force_md(g).is_infinite
    )
    return Check(
        "detector-incompleteness",
        STATUS_PASS if ok else STATUS_VIOLATION,
        details={
            "detectors": "silent" if cert is None else cert.kind.value,
            "computed": "infinite" if outcome.is_infinite else outcome.value,
            "note": "both detectors stay silent yet exhaustion proves "
            "infiniteness: the cheap certificates are incomplete",
        },
    )


def _petersen_check(cfg: SearchConfig) -> Check:
    g = families.generate(FamilySpec.petersen())
    outcome = compute_md(g, cfg)
    ok = (
        outcome.is_infinite
        and outcome.certificate.kind is CertificateKind.DIAMETER_TWO_NON_PATH
    )
    return Check(
        "petersen-infinite",
        STATUS_PASS if ok else STATUS_VIOLATION,
        details={"computed": outcome.describe()},
    )


def run_reproduction_suite(
    cfg: SearchConfig = SearchConfig(), scan_n: int = 6
) -> list[Check]:
    """Run every reproduction check and return one verdict per item.

    Aborted items (cap exceeded) are recorded and do not halt the suite.
    """
    checks: list[Check] = []
    checks.extend(_run_family_checks(cfg))
    checks.extend(_run_table_checks())
    checks.append(spider_probe())
    checks.append(_detector_incompleteness_check(cfg))
    checks.append(_petersen_check(cfg))
    report = scan_small_graphs(scan_n)
    checks.append(
        Check(
            f"scan:{scan_n}",
            STATUS_PASS if not report.violations else STATUS_VIOLATION,
            details={
                "graphs_connected": report.graphs_connected,
                "md_histogram": report.md_histogram,
                "diameter2_fraction": round(report.diameter2_fraction, 4),
                "violations": report.violations,
            },
        )
    )
    checks.extend(report.conjecture_findings)
    return checks


def render_checks(checks: list[Check]) -> str:
    lines = [c.render() for c in checks]
    counts: dict[str, int] = {}
    for c in checks:
        counts[c.status] = counts.get(c.status, 0) + 1
    summary = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
    lines.append(f"-- {len(checks)} checks: {summary}")
    return "\n".join(lines)
