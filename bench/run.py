#!/usr/bin/env python3
"""Benchmark runner for mdim: closed-loop workloads over the public API.

Run from the repository root (standard library only, mdim imported from
./src):

    python3 bench/run.py --workload md_hard --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all      # every workload, untraced then traced
    python3 bench/run.py --workload scan6 --smoke --seconds 1

Each call starts when the previous one returns (one client, closed loop).
A run repeats whole passes over the workload's inputs while the next pass
is expected to end within --seconds; at least one pass always runs.  Every
answer is checked, untimed, after the passes.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  --trace 0 reports the end-to-end metrics, --trace 1
the per-layer metrics of a traced run (see bench/README.md).  Both also
write a record with the machine and commit to .bench_out/.
"""

import time

T0 = time.perf_counter()

import argparse
import json
import math
import os
import platform
import random
import re
import resource
import statistics
import subprocess
import sys
import threading
from bisect import bisect_left, bisect_right
from contextlib import contextmanager, nullcontext
from itertools import combinations
from typing import NamedTuple

clock = time.perf_counter
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("md_hard", "md_hard_w2", "md_random", "scan6")

END_TO_END_UNITS = {
    "wall_s": "s",
    "graphs_per_s": "1/s",
    "md_p50_ms": "ms",
    "md_p99_ms": "ms",
    "dim_p50_ms": "ms",
    "dim_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "inputs.generate_s": "s",
    "graph.build_s": "s",
    "graph.build.calls": "count",
    "graph.apsp_s": "s",
    "graph.apsp.calls": "count",
    "graph.twins_s": "s",
    "graph.twins.calls": "count",
    "graph.major_s": "s",
    "graph.major.calls": "count",
    "resolving.detect_s": "s",
    "resolving.bounds_s": "s",
    "resolving.cert.diameter-2-non-path": "count",
    "resolving.cert.large-twin-class": "count",
    "resolving.cert.none": "count",
    "resolving.levels_walked": "count",
    "resolving.m_checks_per_s": "1/s",
    "resolving.metric_checks_per_s": "1/s",
    "search.md_s": "s",
    "search.md_max_s": "s",
    "search.dim_s": "s",
    "search.brute_s": "s",
    "trace.overhead_s": "s",
}

# md_hard: family spec, least md witness (None: infinite by exhaustion, no
# detector fires), least metric-dimension witness.
HARD = (
    ("substar:6x4", (1, 2, 5, 10, 15, 20), (1, 5, 9, 13, 17)),
    ("substar:8x2", None, (1, 3, 5, 7, 9, 11, 13)),
    ("substar:7x3", (1, 2, 4, 6, 7, 11, 12, 14, 18), (1, 4, 7, 10, 13, 16)),
    ("karytree:2x3", (1, 3, 5, 7, 9, 11, 13), (7, 9, 11, 13)),
    ("cextree", None, (4, 6, 8)),
)
HARD_SMOKE = (
    ("substar:5x4", (0, 1, 6, 11, 16), (1, 5, 9, 13)),
    ("cextree", None, (4, 6, 8)),
)
# scan order -> (connected labelled graphs, md histogram)
SCAN_EXPECTED = {
    6: (26704, {1: 360, 3: 9540, 4: 1620, "infinite": 15184}),
    4: (38, {1: 12, "infinite": 26}),
}
# md_random draws one fixed population of graphs from this seed and lets
# --seed relabel their vertices: fresh graphs per seed would make the slow
# tail (searches that exhaust every size) vary in size from seed to seed.
POPULATION_SEED = 1711_00225
RANDOM_GRAPHS, RANDOM_GRAPHS_SMOKE = 2000, 50
BRUTE_MAX_ORDER = 12
SETUP_PROBES, SETUP_PROBES_SMOKE = 2, 1
KERNEL_MIN_S = 0.3
# the speed gauge: one reference unit of REFERENCE_SUBSETS checks takes
# about REFERENCE_UNIT_S on an undisturbed 2.1 GHz Xeon sandbox core
REFERENCE_SUBSETS = 100
REFERENCE_UNIT_S = 0.001
GAUGE_PERIOD_S = 0.02
GAUGE_MARGIN_S = 0.5
GAUGE_MIN_UNITS = 8
MAX_VERTICES = 25


def _reference_case():
    """Distance matrix of a subdivided star (4 branches of length 4) and
    4-subsets of its vertices, built here so the reference work never
    changes with mdim."""
    # the hub is (None, 0); depth t on branch b is (b, t)
    where = [(None, 0)] + [(b, t) for b in range(4) for t in range(1, 5)]
    dist = tuple(
        tuple(abs(t - u) if b == c else t + u for c, u in where) for b, t in where
    )
    return dist, list(combinations(range(len(where)), 4))[:REFERENCE_SUBSETS]


def reference_work(case):
    """The gauge's unit of work: multiset-resolving checks, the same kind of
    pure-Python tuple/sort/set work as mdim's search."""
    dist, subsets = case
    hits = 0
    for w in subsets:
        seen = set()
        for row in dist:
            rep = tuple(sorted(row[x] for x in w))
            if rep in seen:
                break
            seen.add(rep)
        else:
            hits += 1
    return hits


class SpeedGauge:
    """Tracks how fast this machine runs Python right now.

    On a shared host the same work can take up to twice as long when other
    tenants are busy.  A thread runs a fixed unit of reference work every
    GAUGE_PERIOD_S and records the CPU time it took (CPU time, so that
    waiting behind this run's own pool workers does not count as a slow
    machine).  An interval's time is then reported at the reference speed:
    raw seconds x REFERENCE_UNIT_S / mean duration of the units run during
    it or within GAUGE_MARGIN_S of it (the GAUGE_MIN_UNITS nearest ones if
    those are fewer).  The gauge's own turns, a few percent of the time,
    stay inside every interval.
    """

    def __init__(self):
        self.case = _reference_case()
        self.starts, self.durations = [], []
        # The gauge must read the CPUs the work runs on, as host load can
        # slow one CPU and not the other: serial work and the gauge share
        # one CPU, and pool workers and the gauge share every CPU.
        self.cpus = os.sched_getaffinity(0)
        self.work_cpus = {min(self.cpus)}
        os.sched_setaffinity(0, self.work_cpus)
        self.stop = threading.Event()
        self.thread = threading.Thread(target=self._sample, daemon=True)
        self.thread.start()

    @contextmanager
    def all_cpus(self):
        """Let the calling thread, pool workers it starts, and the gauge use
        every CPU."""
        pinned = self.work_cpus
        self.work_cpus = self.cpus
        os.sched_setaffinity(0, self.cpus)
        try:
            yield
        finally:
            self.work_cpus = pinned
            os.sched_setaffinity(0, pinned)

    def _sample(self):
        while not self.stop.wait(GAUGE_PERIOD_S):
            os.sched_setaffinity(0, self.work_cpus)
            t0, cpu0 = clock(), time.thread_time()
            reference_work(self.case)
            self.durations.append(time.thread_time() - cpu0)
            self.starts.append(t0)

    def close(self):
        self.stop.set()
        self.thread.join()

    def seconds(self, a, b):
        """Duration of [a, b) at the reference speed."""
        starts = self.starts
        i = bisect_left(starts, a - GAUGE_MARGIN_S)
        j = bisect_right(starts, b + GAUGE_MARGIN_S)
        while j - i < GAUGE_MIN_UNITS and (i > 0 or j < len(starts)):
            if j == len(starts) or (i > 0 and a - starts[i - 1] <= starts[j] - b):
                i -= 1
            else:
                j += 1
        return (b - a) * REFERENCE_UNIT_S * (j - i) / sum(self.durations[i:j])

    def mean_unit_s(self):
        return statistics.fmean(self.durations)


def load_mdim():
    """Import mdim from ./src of this checkout, and nothing else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import mdim
        from mdim import harness
    except ImportError as exc:
        sys.exit(f"bench: cannot import mdim from {src}: {exc}")
    if not os.path.abspath(mdim.__file__).startswith(src + os.sep):
        sys.exit(f"bench: imported mdim from {mdim.__file__}, not from {src}")
    return mdim, harness


class Item(NamedTuple):
    label: str
    n: int
    edges: tuple
    graph: object


class Solve(NamedTuple):
    md_call: tuple    # (start, end) of compute_md
    dim_calls: tuple  # (start, end) of each compute_dim call on the graph
    md: object
    dim: tuple        # None if the dim calls disagreed

    @property
    def md_s(self):
        return self.md_call[1] - self.md_call[0]

    @property
    def dim_s(self):
        return statistics.fmean(b - a for a, b in self.dim_calls)


class Pass(NamedTuple):
    start: float
    end: float
    timed: list      # (start, end) of the calls that wall_s adds up
    graphs: int      # graphs settled by the timed calls
    solves: list     # per-graph Solve, in item order
    report: object = None

    @property
    def wall(self):
        return sum(b - a for a, b in self.timed)


def percentile(values, p):
    """Nearest-rank percentile: the smallest value with p% of values at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def answer_key(s):
    return (s.md.kind.value, s.md.value, s.md.witness, s.dim)


class Tracer:
    """Spans (name, start, end, parent index) recorded in memory."""

    def __init__(self):
        self.spans = []
        self.stack = []

    def call(self, name, fn, *args):
        idx = len(self.spans)
        self.spans.append([name, clock(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        try:
            return fn(*args)
        finally:
            self.stack.pop()
            self.spans[idx][2] = clock()

    def self_times(self):
        """name -> (self seconds, span count); self time excludes child spans."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        agg = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            total, count = agg.get(name, (0.0, 0))
            agg[name] = (total + end - start - covered[i], count + 1)
        return agg

    def dump(self):
        names = sorted({s[0] for s in self.spans})
        ids = {name: i for i, name in enumerate(names)}
        return {
            "names": names,
            "columns": ["name", "start_ns", "end_ns", "parent"],
            "spans": [
                [ids[n], round((s - T0) * 1e9), round((e - T0) * 1e9), p]
                for n, s, e, p in self.spans
            ],
        }


class ProgressClock:
    """Stands in for sys.stderr during one compute_md call with progress on,
    timestamping each per-level note as it arrives."""

    LEVEL = re.compile(r"size (\d+)")

    def __init__(self):
        self.notes = []

    def write(self, text):
        m = self.LEVEL.search(text)
        if m:
            self.notes.append((clock(), int(m.group(1))))
        return len(text)

    def flush(self):
        pass

    def levels(self, end):
        """(k, seconds) per size level walked, the last one ending at `end`."""
        stamps = [t for t, _ in self.notes[1:]] + [end]
        return [(k, stop - t) for (t, k), stop in zip(self.notes, stamps)]


class Workload:
    """Inputs, one timed pass, the traced replay and the answer checks."""

    # untraced runs compare order <= BRUTE_MAX_ORDER answers with brute force
    brute_checked = True
    # rounds of compute_dim calls per pass
    dim_rounds = 1

    def __init__(self, mdim, harness, name, seed, smoke):
        self.m, self.harness = mdim, harness
        self.name, self.seed, self.smoke = name, seed, smoke
        self.cfg = mdim.SearchConfig(
            max_vertices=MAX_VERTICES, workers=2 if name == "md_hard_w2" else 1
        )
        self.items = []
        self.gauge = None

    def item(self, label, n, edges):
        edges = tuple(sorted(edges))
        return Item(label, n, edges, self.m.build_graph(n, list(edges)))

    def solve_items(self, items):
        """compute_md on every item, and dim_rounds rounds of compute_dim on
        every item: one after the md calls, the others spread evenly before
        and between them.  The dim calls of a run with pool workers then run
        in serial stretches."""
        m, cfg = self.m, self.cfg

        def dim_round():
            out = []
            for it in items:
                t0 = clock()
                answer = m.compute_dim(it.graph, cfg)
                out.append(((t0, clock()), answer))
            return out

        before = {len(items) * r // (self.dim_rounds - 1) for r in range(self.dim_rounds - 1)}
        rounds, mds = [], []
        pooled = cfg.workers > 1 and self.gauge is not None
        for i, it in enumerate(items):
            if i in before:
                rounds.append(dim_round())
            with self.gauge.all_cpus() if pooled else nullcontext():
                t0 = clock()
                md = m.compute_md(it.graph, cfg)
                mds.append(((t0, clock()), md))
        rounds.append(dim_round())
        out = []
        for i, (md_call, md) in enumerate(mds):
            answers = {r[i][1] for r in rounds}
            dim = answers.pop() if len(answers) == 1 else None
            out.append(Solve(md_call, tuple(r[i][0] for r in rounds), md, dim))
        return out

    def run_pass(self):
        t0 = clock()
        solves = self.solve_items(self.items)
        calls = [c for s in solves for c in (s.md_call, *s.dim_calls)]
        return Pass(t0, clock(), calls, len(self.items), solves)

    def warm_up(self):
        self.solve_items(self.items[-2:])

    def traced_pass(self, tracer, baseline):
        """Traced counterpart of the untraced pass `baseline`: (traced
        seconds, untraced seconds of the same calls, replay rows)."""
        t0 = clock()
        rows = replay(self, tracer, self.items)
        untraced = sum(s.md_s + s.dim_s for s in baseline.solves)
        return clock() - t0, untraced, rows

    def expected_problems(self, items, solves):
        return []

    def pass_problems(self, p):
        return []


class HardWorkload(Workload):
    # five dim calls would each fall in one phase of the host's load; each
    # graph's dim latency is the mean of calls spread over the pass
    dim_rounds = 3

    def prepare(self):
        m = self.m
        self.expected = HARD_SMOKE if self.smoke else HARD
        for spec, _, _ in self.expected:
            g = m.generate(m.parse_family_spec(spec))
            self.items.append(self.item(spec, g.n, g.edges()))

    def expected_problems(self, items, solves):
        problems = []
        by_label = {it.label: s for it, s in zip(items, solves)}
        for spec, md_w, dim_w in self.expected:
            s = by_label[spec]
            if md_w is None:
                ok = (s.md.is_infinite and s.md.certificate.kind
                      is self.m.CertificateKind.EXHAUSTIVE_SEARCH)
            else:
                ok = s.md.is_finite and (s.md.value, s.md.witness) == (len(md_w), md_w)
            if not ok:
                problems.append(f"{spec}: md {s.md.describe()}, expected {md_w or 'infinite by exhaustion'}")
            if s.dim != (len(dim_w), dim_w):
                problems.append(f"{spec}: dim {s.dim}, expected {(len(dim_w), dim_w)}")
        return problems


def random_sparse_edges(rng, n, chords):
    """A random recursive tree on n vertices plus `chords` extra edges."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while chords:
        u, v = sorted(rng.sample(range(n), 2))
        if (u, v) not in edges:
            edges.add((u, v))
            chords -= 1
    return sorted(edges)


class RandomWorkload(Workload):
    def prepare(self):
        count = RANDOM_GRAPHS_SMOKE if self.smoke else RANDOM_GRAPHS
        base = random.Random(POPULATION_SEED)
        relabel = random.Random(self.seed)
        for i in range(count):
            n = base.randint(10, 14)
            edges = random_sparse_edges(base, n, base.randint(0, 3))
            perm = list(range(n))
            relabel.shuffle(perm)
            moved = [tuple(sorted((perm[u], perm[v]))) for u, v in edges]
            self.items.append(self.item(f"random-{i}", n, moved))

    def warm_up(self):
        self.solve_items(self.items[:20])


class ScanWorkload(Workload):
    """The order-n labelled scan.  md/dim latency comes from solving every
    graph of the scan one by one after the scan call, each relabelled by
    --seed; their md histogram must match the scan's."""

    # the histogram check and the scan's own soundness check stand in for
    # brute force on all 26,704 graphs in untraced runs
    brute_checked = False

    def prepare(self):
        self.order = 4 if self.smoke else 6
        pairs = list(combinations(range(self.order), 2))
        relabel = random.Random(self.seed)
        for mask in range(1 << len(pairs)):
            edges = [p for b, p in enumerate(pairs) if mask >> b & 1]
            if not self.m.is_connected(self.m.build_graph(self.order, edges)):
                continue
            perm = list(range(self.order))
            relabel.shuffle(perm)
            moved = [tuple(sorted((perm[u], perm[v]))) for u, v in edges]
            self.items.append(self.item(f"mask-{mask}", self.order, moved))

    def warm_up(self):
        self.harness.scan_small_graphs(4)
        self.solve_items(self.items[:20])

    def run_pass(self):
        t0 = clock()
        report = self.harness.scan_small_graphs(self.order)
        t1 = clock()
        solves = self.solve_items(self.items)
        return Pass(t0, clock(), [(t0, t1)], report.graphs_connected, solves, report)

    def traced_pass(self, tracer, baseline):
        t0 = clock()
        self.traced_report = tracer.call(
            "harness.scan", self.harness.scan_small_graphs, self.order
        )
        wall = clock() - t0
        return wall, baseline.wall, replay(self, tracer, self.items)

    def expected_problems(self, items, solves):
        hist = {}
        for s in solves:
            key = s.md.value if s.md.is_finite else "infinite"
            hist[key] = hist.get(key, 0) + 1
        if hist != SCAN_EXPECTED[self.order][1]:
            return [f"md histogram of the solved graphs {hist} differs from "
                    f"{SCAN_EXPECTED[self.order][1]}"]
        return []

    def pass_problems(self, p):
        connected, hist = SCAN_EXPECTED[self.order]
        r = p.report
        got = (r.graphs_connected, dict(r.md_histogram), len(r.violations))
        if got != (connected, hist, 0):
            return [f"scan n={self.order}: got (connected, histogram, violations) {got}, "
                    f"expected {(connected, hist, 0)}"]
        return []


WORKLOAD_CLASSES = {
    "md_hard": HardWorkload,
    "md_hard_w2": HardWorkload,
    "md_random": RandomWorkload,
    "scan6": ScanWorkload,
}


class Row(NamedTuple):
    item: Item
    lower_bound: int
    certificate: object
    solve: Solve
    levels: list


def replay(w, tracer, items):
    """Each graph's public calls, one span per layer call."""
    m = w.m
    cfg = m.SearchConfig(max_vertices=MAX_VERTICES, workers=w.cfg.workers, progress=True)
    rows = []
    for it in items:
        def one():
            g = tracer.call("graph.build", m.build_graph, it.n, list(it.edges))
            dm = tracer.call("graph.apsp", m.all_pairs_distances, g)
            tp = tracer.call("graph.twins", m.twin_partition, g)
            mr = tracer.call("graph.major", m.major_vertex_report, g, dm)
            cert = tracer.call("resolving.detect", m.detect_infinite, g, dm, tp)
            lb = tracer.call("resolving.bounds", m.md_lower_bound, g, dm, tp, mr)
            notes, saved = ProgressClock(), sys.stderr
            sys.stderr = notes
            try:
                t0 = clock()
                md = tracer.call("search.md", m.compute_md, g, cfg)
                t1 = clock()
            finally:
                sys.stderr = saved
            t2 = clock()
            dim = tracer.call("search.dim", m.compute_dim, g, w.cfg)
            return Row(it, lb.value, cert, Solve((t0, t1), ((t2, clock()),), md, dim),
                       notes.levels(t1))
        rows.append(tracer.call("graph", one))
    return rows


def solve_problems(m, item, s, lower_bound=None):
    """Checks every answer must pass, whatever the graph."""
    if s.dim is None:
        return [f"{item.label}: compute_dim answered differently on the same graph"]
    problems = []
    dm = m.all_pairs_distances(item.graph)
    md, (dim, dim_w) = s.md, s.dim
    if lower_bound is None:
        tp = m.twin_partition(item.graph)
        lower_bound = m.md_lower_bound(item.graph, dm, tp, m.major_vertex_report(item.graph, dm)).value
    if md.is_finite:
        if len(md.witness) != md.value or not m.is_m_resolving(dm, md.witness).resolving:
            problems.append(f"{item.label}: md witness {md.witness} does not resolve")
        if md.value < lower_bound:
            problems.append(f"{item.label}: md {md.value} below lower bound {lower_bound}")
        if dim > md.value:
            problems.append(f"{item.label}: dim {dim} exceeds md {md.value}")
    elif not md.is_infinite:
        problems.append(f"{item.label}: {md.describe()}")
    if len(dim_w) != dim or not m.is_metric_resolving(dm, dim_w).resolving:
        problems.append(f"{item.label}: dim witness {dim_w} does not resolve")
    return problems


def brute_problems(m, item, s, tracer=None):
    """Order <= BRUTE_MAX_ORDER: the unpruned search must agree exactly."""
    if item.n > BRUTE_MAX_ORDER:
        return []
    ref = tracer.call("search.brute", m.brute_force_md, item.graph) if tracer else m.brute_force_md(item.graph)
    if (ref.is_finite, ref.value, ref.witness) != (s.md.is_finite, s.md.value, s.md.witness):
        return [f"{item.label}: brute force {ref.describe()}, solver {s.md.describe()}"]
    return []


def check_passes(w, passes):
    """(attempted, failed, problems) over every answer of every pass."""
    m, items, first = w.m, w.items, passes[0]
    problems, attempted, failed = [], 0, 0
    for p in passes:
        attempted += 2 * len(p.solves) + (p.report is not None)
        bad = w.pass_problems(p)
        for it, s, s0 in zip(items, p.solves, first.solves):
            if answer_key(s) != answer_key(s0):
                bad.append(f"{it.label}: answer changed between passes")
        failed += len(bad)
        problems += bad
    for it, s in zip(items, first.solves):
        bad = solve_problems(m, it, s)
        if w.brute_checked:
            bad += brute_problems(m, it, s)
        failed += len(bad)
        problems += bad
    bad = w.expected_problems(items, first.solves)
    return attempted, failed + len(bad), problems + bad


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def probe_setups(args, count):
    """Set-up time of `count` fresh runner processes, run one after another."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    values = []
    for _ in range(count):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        values.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return values


def kernel_rates(m, smoke):
    """is_m_resolving / is_metric_resolving calls per second over every
    3-subset of each md_hard graph, repeated for at least KERNEL_MIN_S."""
    cases = []
    for spec, _, _ in (HARD_SMOKE if smoke else HARD):
        dm = m.all_pairs_distances(m.generate(m.parse_family_spec(spec)))
        cases.append((dm, list(combinations(range(dm.n), 3))))
    rates = []
    for check in (m.is_m_resolving, m.is_metric_resolving):
        calls, t0 = 0, clock()
        while clock() - t0 < KERNEL_MIN_S:
            for dm, triples in cases:
                for w in triples:
                    check(dm, w)
                calls += len(triples)
        rates.append(calls / (clock() - t0))
    return rates


def machine():
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform(), "commit": commit}


def write_record(args, record):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f)
    return os.path.relpath(path, ROOT)


def run_untraced(w, args, gauge):
    passes, start = [], clock()
    while True:
        p = w.run_pass()
        passes.append(p)
        if p.end - start + p.end - p.start > args.seconds:
            break
    gauge.close()
    rss = peak_rss_mb()
    attempted, failed, problems = check_passes(w, passes)
    setups = [gauge.seconds(T0, start)]
    setups += probe_setups(args, SETUP_PROBES_SMOKE if args.smoke else SETUP_PROBES)
    walls = [sum(gauge.seconds(*c) for c in p.timed) for p in passes]
    md_lat = [gauge.seconds(*s.md_call) for p in passes for s in p.solves]
    dim_lat = [statistics.fmean(gauge.seconds(*c) for c in s.dim_calls)
               for p in passes for s in p.solves]
    values = {
        "wall_s": statistics.median(walls),
        "graphs_per_s": sum(p.graphs for p in passes) / sum(walls),
        "md_p50_ms": percentile(md_lat, 50) * 1e3,
        "md_p99_ms": percentile(md_lat, 99) * 1e3,
        "dim_p50_ms": percentile(dim_lat, 50) * 1e3,
        "dim_p99_ms": percentile(dim_lat, 99) * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
    }
    raw_md = [s.md_s for p in passes for s in p.solves]
    raw_dim = [s.dim_s for p in passes for s in p.solves]
    info = {
        "raw_pass_walls_s": [p.wall for p in passes],
        "pass_walls_s": walls,
        "gauge_unit_ms": gauge.mean_unit_s() * 1e3,
        "latency_samples": len(md_lat),
        "raw_ms": {f"{name}_p{q}": percentile(lat, q) * 1e3
                   for name, lat in (("md", raw_md), ("dim", raw_dim)) for q in (50, 99)},
        "setup_samples_s": setups,
    }
    return attempted, failed, problems, values, END_TO_END_UNITS, info


def run_traced(w, args, generate_s):
    m = w.m
    tracer = Tracer()
    baseline = w.run_pass()
    traced_wall, untraced_wall, rows = w.traced_pass(tracer, baseline)
    problems = w.pass_problems(baseline)
    attempted = 2 * len(rows)
    if isinstance(w, ScanWorkload):
        problems += w.pass_problems(baseline._replace(report=w.traced_report))
        attempted += 2
    for r, s in zip(rows, baseline.solves):
        if answer_key(r.solve) != answer_key(s):
            problems.append(f"{r.item.label}: traced answer differs from untraced")
    problems += w.expected_problems([r.item for r in rows], [r.solve for r in rows])
    attempted += 2 * len(baseline.solves)
    for r in rows:
        problems += solve_problems(m, r.item, r.solve, r.lower_bound)
        problems += brute_problems(m, r.item, r.solve, tracer)

    m_rate, metric_rate = kernel_rates(m, args.smoke)
    st = tracer.self_times()
    kinds = {"diameter-2-non-path": 0, "large-twin-class": 0, "none": 0}
    levels_walked = 0
    for r in rows:
        kinds[r.certificate.kind.value if r.certificate else "none"] += 1
        md = r.solve.md
        if r.certificate is None and not m.is_path(r.item.graph):
            levels_walked += (md.value if md.is_finite else r.item.n) - r.lower_bound + 1
    values = {"inputs.generate_s": generate_s}
    for layer in ("graph.build", "graph.apsp", "graph.twins", "graph.major"):
        values[layer + "_s"], values[layer + ".calls"] = st.get(layer, (0.0, 0))
    values.update({
        "resolving.detect_s": st.get("resolving.detect", (0.0, 0))[0],
        "resolving.bounds_s": st.get("resolving.bounds", (0.0, 0))[0],
        **{f"resolving.cert.{k}": v for k, v in kinds.items()},
        "resolving.levels_walked": levels_walked,
        "resolving.m_checks_per_s": m_rate,
        "resolving.metric_checks_per_s": metric_rate,
        "search.md_s": st.get("search.md", (0.0, 0))[0],
        "search.md_max_s": max(r.solve.md_s for r in rows),
        "search.dim_s": st.get("search.dim", (0.0, 0))[0],
        "search.brute_s": st.get("search.brute", (0.0, 0))[0],
        "trace.overhead_s": traced_wall - untraced_wall,
    })
    info = {
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "self_time_s": {name: t for name, (t, _) in sorted(st.items())},
        "md_s_per_graph": {r.item.label: r.solve.md_s for r in rows}
        if isinstance(w, HardWorkload) else {},
        "level_s": [[r.item.label, k, t] for r in rows for k, t in r.levels],
        "trace": tracer.dump(),
    }
    return attempted, len(problems), problems, values, PER_LAYER_UNITS, info


def print_trace_detail(w, info):
    scan = info["self_time_s"].get("harness.scan")
    if scan is not None:
        print(f"harness.scan_s = {scan:.6f} s")
    if isinstance(w, HardWorkload):
        tag = "md_w2_s" if w.cfg.workers > 1 else "md_s"
        for label, t in info["md_s_per_graph"].items():
            print(f"search.{tag}.{label.replace(':', '-')} = {t:.6f} s")
        for label, k, t in info["level_s"]:
            print(f"search.level_s.{label.replace(':', '-')}.k{k} = {t:.6f} s")
    else:
        by_k = {}
        for _, k, t in info["level_s"]:
            by_k[k] = by_k.get(k, 0.0) + t
        for k in sorted(by_k):
            print(f"search.level_s.k{k} = {by_k[k]:.6f} s")
    print(f"tracing overhead = {info['traced_wall_s'] - info['untraced_wall_s']:.6f} s "
          f"(traced {info['traced_wall_s']:.6f} s, untraced {info['untraced_wall_s']:.6f} s)")


def run_all(args):
    """Every workload, untraced then traced, each in its own process."""
    results = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.smoke:
                cmd.append("--smoke")
            print(f"== {name} trace={trace}", flush=True)
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            sys.stdout.write(out.stdout)
            sys.stderr.write(out.stderr)
            if out.returncode != 0:
                sys.exit(f"bench: {name} trace={trace} exited with {out.returncode}")
            results[f"{name}/trace{trace}"] = json.loads(out.stdout.strip().splitlines()[-1])
    ok = all(r["correct"] for r in results.values())
    print(json.dumps({"correct": ok, "results": results}))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the runner's own tests")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.workload == "all":
        return run_all(args)

    gauge = None if args.trace else SpeedGauge()
    mdim, harness = load_mdim()
    w = WORKLOAD_CLASSES[args.workload](mdim, harness, args.workload, args.seed, args.smoke)
    w.gauge = gauge
    t0 = clock()
    w.prepare()
    generate_s = clock() - t0
    w.warm_up()
    if args.setup_probe:
        end = clock()
        while len(gauge.starts) < GAUGE_MIN_UNITS:
            time.sleep(GAUGE_PERIOD_S)
        gauge.close()
        print(json.dumps({"setup_s": gauge.seconds(T0, end)}))
        return

    if args.trace:
        attempted, failed, problems, values, units, info = run_traced(w, args, generate_s)
    else:
        attempted, failed, problems, values, units, info = run_untraced(w, args, gauge)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "machine": machine(),
        "attempted": attempted, "failed": failed, "problems": problems[:50],
        "metrics": values, **info,
    }
    path = write_record(args, record)
    m = record["machine"]
    print(f"# {args.workload} seed={args.seed} python={m['python']} nproc={m['nproc']} "
          f"commit={m['commit'][:12]} record={path}")
    for line in problems[:20]:
        print(f"WRONG {line}")
    for name, value in values.items():
        print(f"{name} = {value:.6f} {units[name]}" if isinstance(value, float) else f"{name} = {value} {units[name]}")
    print(f"error_rate = {failed / attempted:.6f} ({failed} of {attempted} answers)")
    if args.trace:
        print_trace_detail(w, info)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }))


if __name__ == "__main__":
    main()
