"""Exact computation of the multiset dimension and metric dimension.

The solver enumerates candidate vertex subsets in ascending size and, within
each size, in lexicographic order of the ascending id tuple.  Multiset
resolvability is NOT monotone under supersets (a resolving set can have
non-resolving supersets), so minimality genuinely requires visiting sizes in
order, and an infiniteness verdict requires exhausting every size.

Two prunes cut the space without affecting the answer:

  * twin constraint: for any twin pair {u, v}, a candidate containing both
    or neither cannot resolve (u and v are equidistant from every other
    vertex, so their representations agree in both cases).  Candidates
    therefore contain exactly one member of every size-2 twin class.
    Classes of size >= 3 are hopeless outright and are certified before the
    search starts.
  * distance-2 skip: a candidate whose members are pairwise within
    distance 2 can never resolve and is not verified.

Both prunes only discard sets that provably fail, so "every size exhausted"
remains a valid infiniteness certificate.

Every candidate is checked by the one resolve kernel,
``resolving.first_collision``.  The metric dimension and the reference
``brute_force_md`` take no prunes: both are the unpruned walk
``resolving.least_resolving_set``, in ordered and multiset mode.
"""

from __future__ import annotations

import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import Iterable, Iterator

from .graph import (
    DistanceMatrix,
    Graph,
    MajorVertexReport,
    TwinPartition,
    all_pairs_distances,
    is_path,
    major_vertex_report,
    path_endpoints,
    twin_partition,
)
from .resolving import (
    CertificateKind,
    CollisionReport,
    InfiniteCertificate,
    Multiset,
    all_within_distance_two,
    detect_infinite,
    first_collision,
    is_m_resolving,
    is_metric_resolving,
    least_resolving_set,
    md_lower_bound,
)

_PARALLEL_CHUNK = 4096


class OutcomeKind(Enum):
    FINITE = "finite"
    INFINITE = "infinite"
    ABORTED = "aborted"


class SearchAborted(RuntimeError):
    """Raised when a graph exceeds the configured exhaustive-search cap."""


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the exact search.

    ``max_vertices`` caps the subset-search phase (path recognition and the
    infiniteness detectors still answer above it).  ``workers`` > 1 shards
    each size level across processes; the result is identical to a serial
    run.  ``progress`` prints per-level notes to stderr.
    """

    max_vertices: int = 24
    workers: int = 1
    progress: bool = False

    @property
    def parallel(self) -> bool:
        return self.workers > 1


@dataclass(frozen=True)
class ResolveOutcome:
    """Result of a multiset-dimension computation.

    Finite(k, witness): witness is the lexicographically least resolving
    set among those of minimum size k.  Infinite carries the certificate.
    Aborted means the size cap was hit before the search could start.
    """

    kind: OutcomeKind
    value: int | None = None
    witness: tuple[int, ...] | None = None
    certificate: InfiniteCertificate | None = None
    reason: str | None = None

    @property
    def is_finite(self) -> bool:
        return self.kind is OutcomeKind.FINITE

    @property
    def is_infinite(self) -> bool:
        return self.kind is OutcomeKind.INFINITE

    def describe(self) -> str:
        if self.kind is OutcomeKind.FINITE:
            return f"md = {self.value}, witness = {{{', '.join(map(str, self.witness))}}}"
        if self.kind is OutcomeKind.INFINITE:
            return f"md = infinite ({self.certificate.kind.value} certificate)"
        return f"aborted: {self.reason}"


@dataclass(frozen=True)
class WitnessReport:
    """Full verification of one candidate set: both resolving checks plus
    every vertex's representation, for diffing against published tables."""

    witness: tuple[int, ...]
    multiset: CollisionReport
    metric: CollisionReport
    representations: tuple[Multiset, ...]
    vectors: tuple[tuple[int, ...], ...]


def constrained_subsets(
    n: int, k: int, pair_classes: tuple[tuple[int, ...], ...]
) -> Iterator[tuple[int, ...]]:
    """Size-k subsets of 0..n-1 taking exactly one vertex from every pair
    class, yielded in lexicographic order of the ascending id tuple."""
    class_of = [-1] * n
    for ci, (u, v) in enumerate(pair_classes):
        class_of[u] = class_of[v] = ci
    npairs = len(pair_classes)
    if k < npairs or k > n - npairs:
        return
    chosen: list[int] = []

    def extend(start: int, hit: int) -> Iterator[tuple[int, ...]]:
        # hit = bitmask of pair classes already represented in `chosen`
        if len(chosen) == k:
            if hit == (1 << npairs) - 1:
                yield tuple(chosen)
            return
        need = k - len(chosen)
        missing = npairs - bin(hit).count("1")
        if need < missing or n - start < need:
            return
        # a missing class both of whose members lie before `start` is dead
        for ci, (u, v) in enumerate(pair_classes):
            if not hit >> ci & 1 and v < start:
                return
        for x in range(start, n):
            ci = class_of[x]
            if ci >= 0 and hit >> ci & 1:
                continue
            chosen.append(x)
            yield from extend(x + 1, hit | (1 << ci) if ci >= 0 else hit)
            chosen.pop()

    yield from extend(0, 0)


def _scan_chunk(args) -> tuple[int, ...] | None:
    """First candidate in the chunk that resolves, after the distance-2 skip.

    Top-level so process pools can pickle it; chunks preserve lexicographic
    order, hence the first hit is the least hit within the chunk.
    """
    dm, chunk = args
    d = dm.d
    for w in chunk:
        if all_within_distance_two(dm, w):
            continue
        if first_collision(d, w) is None:
            return w
    return None


def _search_level(
    dm: DistanceMatrix,
    candidates: Iterator[tuple[int, ...]],
    cfg: SearchConfig,
    pool: ProcessPoolExecutor | None,
) -> tuple[int, ...] | None:
    """Least resolving candidate at one size level, or None.

    Serial mode stops at the first hit (enumeration is lexicographic).
    Parallel mode consumes the stream in rounds of worker-sized chunks:
    every candidate in a round precedes every candidate of later rounds,
    so the minimum over the first hitting round is the global least.
    """
    if pool is None:
        return _scan_chunk((dm, candidates))
    while True:
        round_chunks = []
        for _ in range(cfg.workers):
            chunk = list(islice(candidates, _PARALLEL_CHUNK))
            if not chunk:
                break
            round_chunks.append(chunk)
        if not round_chunks:
            return None
        hits = [
            w
            for w in pool.map(_scan_chunk, [(dm, c) for c in round_chunks])
            if w is not None
        ]
        if hits:
            return min(hits)


def _md_search(
    g: Graph,
    dm: DistanceMatrix,
    tp: TwinPartition,
    mr: MajorVertexReport,
    cfg: SearchConfig,
) -> ResolveOutcome:
    """Full pipeline below the connectivity check; see compute_md."""
    if is_path(g):
        return ResolveOutcome(
            OutcomeKind.FINITE, value=1, witness=(min(path_endpoints(g)),)
        )
    cert = detect_infinite(g, dm, tp)
    if cert is not None:
        return ResolveOutcome(OutcomeKind.INFINITE, certificate=cert)
    if g.n > cfg.max_vertices:
        return ResolveOutcome(
            OutcomeKind.ABORTED,
            reason=f"{g.n} vertices exceeds the exhaustive-search cap "
            f"of {cfg.max_vertices}",
        )
    lb = md_lower_bound(g, dm, tp, mr)
    pairs = tp.pair_classes

    pool = ProcessPoolExecutor(max_workers=cfg.workers) if cfg.parallel else None
    try:
        for k in range(lb.value, g.n + 1):
            if cfg.progress:
                print(f"md search: size {k} of up to {g.n}", file=sys.stderr)
            witness = _search_level(dm, constrained_subsets(g.n, k, pairs), cfg, pool)
            if witness is not None:
                if k == 2:
                    raise RuntimeError(
                        f"found a 2-element resolving set {witness}; "
                        "no graph admits one, this is a solver bug"
                    )
                return ResolveOutcome(OutcomeKind.FINITE, value=k, witness=witness)
    finally:
        if pool is not None:
            pool.shutdown()
    return ResolveOutcome(
        OutcomeKind.INFINITE,
        certificate=InfiniteCertificate(CertificateKind.EXHAUSTIVE_SEARCH),
    )


def compute_md(g: Graph, cfg: SearchConfig = SearchConfig()) -> ResolveOutcome:
    """Exact multiset dimension of a connected graph.

    Pipeline: path fast-path (dimension 1, least pendant as witness), the
    two infiniteness detectors, then pruned exhaustive search upward from
    the structural lower bound.  Reaching size n with no witness proves
    infiniteness because the prunes only drop provably failing sets.
    """
    dm = all_pairs_distances(g)
    return _md_search(g, dm, twin_partition(g), major_vertex_report(g, dm), cfg)


def compute_dim(
    g: Graph, cfg: SearchConfig = SearchConfig()
) -> tuple[int, tuple[int, ...]]:
    """Exact metric dimension with its lexicographically least witness.

    Ordered distance vectors ARE monotone under supersets, but the minimum
    is still established by visiting sizes in ascending order.
    """
    dm = all_pairs_distances(g)
    return _dim_search(dm, cfg)


def _dim_search(dm: DistanceMatrix, cfg: SearchConfig) -> tuple[int, tuple[int, ...]]:
    if dm.n > cfg.max_vertices:
        raise SearchAborted(
            f"{dm.n} vertices exceeds the exhaustive-search cap of {cfg.max_vertices}"
        )
    w = least_resolving_set(dm, ordered=True)
    if w is None:
        raise AssertionError("a connected graph is always metric-resolved by V itself")
    return len(w), w


def verify_witness(g: Graph, w: Iterable[int]) -> WitnessReport:
    """Check one candidate set both ways and list every representation."""
    dm = all_pairs_distances(g)
    w = tuple(sorted(set(w)))
    multiset = is_m_resolving(dm, w)
    metric = is_metric_resolving(dm, w)
    reps = tuple(tuple(sorted(dm.d[v][x] for x in w)) for v in range(g.n))
    vecs = tuple(tuple(dm.d[v][x] for x in w) for v in range(g.n))
    return WitnessReport(
        witness=w, multiset=multiset, metric=metric, representations=reps, vectors=vecs
    )


def brute_force_md(g: Graph) -> ResolveOutcome:
    """Unpruned reference search: every subset of every size, no shortcuts.

    Independent cross-check for the pruned solver and for the infiniteness
    detectors; intended for small graphs only (2^n subsets).
    """
    w = least_resolving_set(all_pairs_distances(g))
    if w is not None:
        return ResolveOutcome(OutcomeKind.FINITE, value=len(w), witness=w)
    return ResolveOutcome(
        OutcomeKind.INFINITE,
        certificate=InfiniteCertificate(CertificateKind.EXHAUSTIVE_SEARCH),
    )
