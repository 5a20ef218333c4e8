"""Distance multisets, resolving-set checks, lower bounds and infiniteness tests.

A vertex set W multiset-resolves a graph when the multisets of distances
{d(v, w) : w in W} are pairwise distinct over all vertices v.  The minimum
size of such a set is the multiset dimension md(G); some graphs admit no
such set at all, and two cheap certificates for that are implemented here
alongside the lower bounds that seed the exact search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Iterable

from .graph import (
    DistanceMatrix,
    Graph,
    MajorVertexReport,
    TwinPartition,
    VertexOutOfRange,
    diameter,
    is_path,
)

# A distance multiset is stored as its ascending sorted tuple: equality of
# tuples is multiset equality and the tuples hash canonically.
Multiset = tuple[int, ...]


@dataclass(frozen=True)
class CollisionReport:
    """Outcome of a resolving check.

    ``resolving`` is True iff no two vertices share a representation;
    otherwise ``first_collision`` holds (u, v, shared representation) for
    the first colliding pair in vertex order.
    """

    resolving: bool
    first_collision: tuple[int, int, Multiset] | None = None


class CertificateKind(Enum):
    DIAMETER_TWO_NON_PATH = "diameter-2-non-path"
    LARGE_TWIN_CLASS = "large-twin-class"
    EXHAUSTIVE_SEARCH = "exhaustive-search"


@dataclass(frozen=True)
class InfiniteCertificate:
    """Machine-checkable reason why no multiset-resolving set exists."""

    kind: CertificateKind
    twin_class: tuple[int, ...] | None = None

    def describe(self) -> str:
        if self.kind is CertificateKind.LARGE_TWIN_CLASS:
            return f"twin class {set(self.twin_class)} has 3 or more vertices"
        if self.kind is CertificateKind.DIAMETER_TWO_NON_PATH:
            return "non-path graph of diameter at most 2"
        return "all vertex subsets exhausted without finding a resolving set"


@dataclass(frozen=True)
class LowerBoundReport:
    """Best known lower bound on md(G), with per-rule attribution."""

    value: int
    bounds: dict[str, int]

    @property
    def achieved_by(self) -> tuple[str, ...]:
        return tuple(tag for tag, v in self.bounds.items() if v == self.value)


def _check_ids(n: int, ids: Iterable[int]) -> None:
    for x in ids:
        if not 0 <= x < n:
            raise VertexOutOfRange(f"vertex id {x} outside 0..{n - 1}")


def representation(dm: DistanceMatrix, v: int, w: Iterable[int]) -> Multiset:
    """Multiset of distances from v to the vertices of w, sorted ascending."""
    w = tuple(w)
    _check_ids(dm.n, (v, *w))
    return tuple(sorted(dm.d[v][x] for x in w))


def first_collision(
    d: tuple[tuple[int, ...], ...], w: tuple[int, ...], ordered: bool = False
) -> tuple[int, int, tuple[int, ...]] | None:
    """First pair of vertices u < v sharing a representation w.r.t. w, as
    (u, v, shared representation), or None when w resolves.

    The one resolve kernel behind every resolving check.  A representation
    is the ascending distance multiset, or with ``ordered`` the distance
    vector in the order of w.  ``d`` is the rows of a DistanceMatrix and w
    holds valid vertex ids; callers check ids once, not per candidate.
    """
    seen: dict[tuple[int, ...], int] = {}
    for v, row in enumerate(d):
        rep = [row[x] for x in w]
        if not ordered:
            rep.sort()
        rep = tuple(rep)
        prev = seen.get(rep)
        if prev is not None:
            return prev, v, rep
        seen[rep] = v
    return None


def least_resolving_set(
    dm: DistanceMatrix, ordered: bool = False
) -> tuple[int, ...] | None:
    """Unpruned reference walk: the first resolving set over sizes 1..n
    ascending and, within a size, lexicographic id tuples; None if no
    subset resolves.

    Multiset resolvability is not monotone under supersets, so only this
    full walk certifies that no set exists; every pruned search and
    infiniteness detector is cross-checked against it.  With ``ordered``
    it finds the least metric-resolving set instead.  Cost is up to 2^n
    kernel calls, so it is meant for small graphs.
    """
    d, n = dm.d, dm.n
    for k in range(1, n + 1):
        for w in combinations(range(n), k):
            if first_collision(d, w, ordered) is None:
                return w
    return None


def is_m_resolving(dm: DistanceMatrix, w: Iterable[int]) -> CollisionReport:
    """Does w multiset-resolve the graph behind dm?

    The empty set resolves only the one-vertex graph: with no landmarks
    every vertex represents as the empty multiset.
    """
    w = tuple(sorted(set(w)))
    _check_ids(dm.n, w)
    collision = first_collision(dm.d, w)
    return CollisionReport(resolving=collision is None, first_collision=collision)


def is_metric_resolving(dm: DistanceMatrix, w: Iterable[int]) -> CollisionReport:
    """Does the ordered distance vector to w distinguish all vertices?"""
    w = tuple(w)
    _check_ids(dm.n, w)
    collision = first_collision(dm.d, w, ordered=True)
    return CollisionReport(resolving=collision is None, first_collision=collision)


def order_diameter_lower_bound(n: int, d: int) -> int:
    """Least k >= 1 with C(k+d-1, d-1) + k >= n.

    Any k landmarks give each outside vertex a multiset of k distances in
    1..d, and there are only C(k+d-1, d-1) such multisets, so k must be
    large enough for n - k distinct outside representations.  Exact integer
    arithmetic throughout; the binomial never overflows.
    """
    if n < 1 or d < 1:
        raise ValueError(f"order and diameter must be positive, got n={n}, d={d}")
    k = 1
    while math.comb(k + d - 1, d - 1) + k < n:
        k += 1
    return k


def md_lower_bound(
    g: Graph, dm: DistanceMatrix, tp: TwinPartition, mr: MajorVertexReport
) -> LowerBoundReport:
    """Best lower bound on md(G) from the cheap structural rules.

    Rules combined (max wins):
      - every graph needs at least 1 landmark;
      - a non-path needs at least 3 (no graph has multiset dimension 2,
        and dimension 1 characterizes paths);
      - md >= dim >= sigma - ex (terminal pendants vs exterior majors);
      - md >= the order/diameter counting bound;
      - every resolving set takes exactly one vertex from each twin pair,
        so md is at least the number of size-2 twin classes.
    """
    bounds = {"trivial": 1}
    if not is_path(g):
        bounds["non-path"] = 3
    bounds["terminal-count"] = mr.sigma - mr.ex
    d = diameter(dm)
    if d >= 1:
        bounds["order-diameter"] = order_diameter_lower_bound(g.n, d)
    bounds["twin-pairs"] = len(tp.pair_classes)
    return LowerBoundReport(value=max(bounds.values()), bounds=bounds)


def detect_infinite(
    g: Graph, dm: DistanceMatrix, tp: TwinPartition
) -> InfiniteCertificate | None:
    """Cheap certificates that no multiset-resolving set can exist.

    Checked in order: a non-path of diameter <= 2 (all pairwise distances
    fit in {1, 2}, so landmark representations cannot all differ), then a
    twin class of 3+ vertices (two of them always end up on the same side
    of any candidate set and collide).  Absence of a certificate does NOT
    imply the dimension is finite; only exhaustive search settles that.
    """
    if diameter(dm) <= 2 and not is_path(g):
        return InfiniteCertificate(CertificateKind.DIAMETER_TWO_NON_PATH)
    for cls in tp.large_classes:
        return InfiniteCertificate(CertificateKind.LARGE_TWIN_CLASS, twin_class=cls)
    return None


def all_within_distance_two(dm: DistanceMatrix, w: Iterable[int]) -> bool:
    """True iff |w| >= 2 and every pair inside w is at distance <= 2.

    Such a set can never multiset-resolve: its own members would need the
    p distinct representations {0,1^(p-1)} .. {0,2^(p-1)}, forcing both a
    distance-1 and a distance-2 relation between the two extreme members.
    Search uses this as a sound skip (flagged sets are never resolving).
    """
    w = tuple(w)
    if len(w) < 2:
        return False
    d = dm.d
    return all(d[u][v] <= 2 for i, u in enumerate(w) for v in w[i + 1:])
