"""Distance multisets, resolving-set checks, lower bounds and infiniteness tests.

A vertex set W multiset-resolves a graph when the multisets of distances
{d(v, w) : w in W} are pairwise distinct over all vertices v.  The minimum
size of such a set is the multiset dimension md(G); some graphs admit no
such set at all, and two cheap certificates for that are implemented here
alongside the lower bounds that seed the exact search.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import cache
from itertools import combinations, groupby
from typing import Iterable, NamedTuple

from .graph import (
    DistanceMatrix,
    Graph,
    HangingForest,
    MajorVertexReport,
    TwinPartition,
    VertexOutOfRange,
    hanging_forest,
)

# A distance multiset is stored as its ascending sorted tuple: equality of
# tuples is multiset equality and the tuples hash canonically.
Multiset = tuple[int, ...]

# the least order at which md_lower_bound walks the hanging forest for its
# subtree-patterns rule, md and dim build the swap and leg table, and dim
# first tries the least leg cover (see search): 8 is the least order with a
# size of more than n^2 candidate sets (comb(8, 4) = 70 > 8^2), and on
# smaller graphs those inputs cost more than the whole search.  Below it
# the rule exceeds the other rules of md_lower_bound only where it reads
# n + 1 and detect_infinite fires, as the tests check on every connected
# graph of order 7 or less.
TABLE_ORDER = 8

# a polynomial in x, as {degree: coefficient} with no zero coefficient
Poly = dict[int, int]


class CollisionReport(NamedTuple):
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


class InfiniteCertificate(NamedTuple):
    """Machine-checkable reason why no multiset-resolving set exists."""

    kind: CertificateKind
    twin_class: tuple[int, ...] | None = None

    def describe(self) -> str:
        if self.kind is CertificateKind.LARGE_TWIN_CLASS:
            return f"twin class {set(self.twin_class)} has 3 or more vertices"
        if self.kind is CertificateKind.DIAMETER_TWO_NON_PATH:
            return "non-path graph of diameter at most 2"
        return "all vertex subsets exhausted without finding a resolving set"


class LowerBoundReport(NamedTuple):
    """Best known lower bound on md(G) or dim(G), with per-rule attribution."""

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
    every vertex represents as the empty multiset.  The searches still
    count sizes from 1, so md(K1) is 1 with witness (0,), not 0.
    """
    w = tuple(sorted(set(w)))
    _check_ids(dm.n, w)
    collision = first_collision(dm.d, w)
    return CollisionReport(resolving=collision is None, first_collision=collision)


def is_metric_resolving(dm: DistanceMatrix, w: Iterable[int]) -> CollisionReport:
    """Does the ordered distance vector to w distinguish all vertices?

    As with is_m_resolving, the empty set resolves only the one-vertex
    graph, and the searches count sizes from 1: dim(K1) is 1 with witness
    (0,), not 0.
    """
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


def _smallest(c: int, counts: Poly) -> int:
    """Sum of the c smallest sizes of the classes that ``counts`` counts
    by size, or of all of them when there are fewer than c."""
    total = 0
    for s in sorted(counts):
        if counts[s] >= c:
            return total + c * s
        total += counts[s] * s
        c -= counts[s]
    return total


@cache
def _pattern_floor(c: int, length: int) -> int:
    """Least total size of c distinct subsets of a set of ``length``
    elements, or of all 2^length subsets when c is larger.  Cached, since
    few (c, length) pairs occur."""
    return _smallest(c, {s: math.comb(length, s) for s in range(length + 1)})


def _times(p: Poly, q: Poly) -> Poly:
    """p * q."""
    out: Poly = {}
    for i, a in p.items():
        for j, b in q.items():
            out[i + j] = out.get(i + j, 0) + a * b
    return out


def _choose(c: int, p: Poly) -> Poly:
    """E_c[p]: p counts classes by size, and E_c counts the sets of c
    distinct classes by their total size."""
    # ways[j] counts the sets of j classes of the sizes seen so far
    ways: list[Poly] = [{0: 1}] + [{} for _ in range(c)]
    for s, a in p.items():
        for j in range(c, 0, -1):
            row = ways[j]
            for i in range(1, min(a, j) + 1):
                pick = math.comb(a, i)
                for d, w in ways[j - i].items():
                    row[d + i * s] = row.get(d + i * s, 0) + w * pick
    return ways[c]


def _markings(taus: set[int], shape: list[tuple[int, ...]]) -> dict[int, Poly]:
    """N_t for each AHU code t of ``taus`` and each code below them: the
    asymmetric markings of a rooted subtree of code t, up to isomorphism,
    counted by their size.  ``shape[t]`` holds the ascending child codes
    of code t, each less than t, so ascending codes are counted bottom-up,
    each once and with no recursion, however deep the subtree."""
    below, stack = set(), list(taus)
    while stack:
        t = stack.pop()
        if t not in below:
            below.add(t)
            stack += shape[t]
    memo: dict[int, Poly] = {}
    for t in sorted(below):
        # the root, in the marking or not, times each group of c
        # isomorphic children, which take c distinct classes
        poly = {0: 1, 1: 1}
        for child, run in groupby(shape[t]):
            c = len(list(run))
            poly = _times(poly, memo[child] if c == 1 else _choose(c, memo[child]))
        memo[t] = poly
    return memo


def subtree_patterns(forest: HangingForest) -> int:
    """The ``subtree-patterns`` rule of md_lower_bound (see there), read
    from the hanging forest of ``graph.hanging_forest``: n + 1 when some
    sibling group has fewer asymmetric-marking classes than members."""
    parent, key, code, groups = forest.parent, forest.key, forest.code, forest.groups
    # a group inside two isomorphic sibling subtrees is counted with them
    top = [m for m in groups.values() if key[parent[m[0]]] not in groups]
    # code t is numbered after its children, so shape[t] is its child tuple
    memo = _markings({code[m[0]] for m in top}, list(forest.shapes))
    # a group deeper down with too few classes leaves its top group none
    if any(sum(memo[code[m[0]]].values()) < len(m) for m in top):
        return len(code) + 1
    return sum(_smallest(len(m), memo[code[m[0]]]) for m in top)


def md_lower_bound(
    g: Graph,
    dm: DistanceMatrix,
    tp: TwinPartition,
    mr: MajorVertexReport,
    forest: HangingForest | None = None,
) -> LowerBoundReport:
    """Best lower bound on md(G) from the cheap structural rules.

    Rules combined (max wins):
      - every graph needs at least 1 landmark;
      - a non-path needs at least 3 (no graph has multiset dimension 2,
        and dimension 1 characterizes paths);
      - md >= dim >= sigma - ex (terminal pendants vs exterior majors,
        with the terminals from the leg walk of ``major_vertex_report``);
      - md >= the order/diameter counting bound;
      - every resolving set takes exactly one vertex from each twin pair,
        so md is at least the number of size-2 twin classes;
      - ``leg-patterns``: take the c legs of one length L at one major
        (the legs of ``mr.legs``).  Swapping two of them position by
        position is an automorphism that fixes every other vertex.  If W
        has the same landmark pattern, the set of positions 1..L it holds,
        on both legs, the swap maps W to itself, so a leg vertex and its
        image have equal distance multisets and W does not m-resolve.  The
        c legs therefore carry pairwise distinct subsets of 1..L, which
        hold at least the sum of the c smallest subset sizes of an L-set
        (0 once, 1 L times, 2 C(L, 2) times, ...; all 2^L subsets when c
        is larger, where no W resolves at all).  Legs are disjoint, so
        the lengths at one major add up; per major the larger of that sum
        and ``legs - 1`` (the terminal-count argument: a vertex on every
        leg but one) counts, and the majors add up;
      - ``subtree-patterns``, from order ``TABLE_ORDER`` on: md is at
        least the cost of 2-distinguishing (Boutin, "Small label classes
        in 2-distinguishing labelings", Ars Math. Contemp. 1, 2008),
        counted over the hanging forest of ``graph.hanging_forest``.  If
        an automorphism s other than the identity maps W onto itself,
        then v and s(v) have equal distance multisets to W for every v,
        and s moves some v, so W does not m-resolve.  Two kinds of
        automorphism fix every vertex outside their support (see
        ``graph.symmetry_swap_masks``): the swap of two isomorphic sibling
        subtrees of the forest, and any automorphism of one hanging
        subtree that fixes its root.  So in an m-resolving W each hanging
        subtree T carries an asymmetric marking W & T, and isomorphic
        siblings carry non-isomorphic markings.  Counted bottom-up over
        the AHU codes, the classes of asymmetric markings of the subtree
        of v, by size, are N_v(x) = (1 + x) * prod E_c[N_t](x) over each
        group of c isomorphic children of code t, where E_c chooses c
        distinct classes and their sizes add: a leaf is 1 + x, and a
        rooted path of L vertices goes through the same recursion, where
        the count is sum C(L, s) x^s, as ``_pattern_floor`` counts the
        legs.  Nothing is truncated: each N_t is counted in full, once per
        code of the forest.  The rule is the sum over the roots of the
        forest (each 2-core vertex, the virtual root of a tree, the
        virtual parent of each twin class in the 2-core) of the least size
        with a non-zero count, and a group of c siblings under a root, or
        under a chain of vertices with no isomorphic sibling, takes its c
        smallest sizes.  The groups lie in disjoint subtrees, so their
        sizes add.  When a group has fewer than c classes, its c siblings
        cannot all carry distinct asymmetric markings, so no set
        m-resolves and the rule reads n + 1, which leaves md's search no
        size; a group with too few classes deeper down makes its subtree
        count no class at all, so it shows at the group on top of it.
        This holds for md alone: an automorphism permutes the coordinates
        of distance vectors, and a spider's dim is its legs - 1.  Below
        ``TABLE_ORDER`` the rule exceeds the others only where it reads
        n + 1 and ``detect_infinite`` already answers, and is left out;
        ``forest`` is ``hanging_forest(g, tp)``, walked here from that
        order on when the caller does not hold it.
    """
    bounds = {"trivial": 1}
    d = dm.diameter
    # the diameter is n - 1 exactly on the path (see DistanceMatrix)
    if d != dm.n - 1:
        bounds["non-path"] = 3
    bounds["terminal-count"] = mr.sigma - mr.ex
    if d >= 1:
        bounds["order-diameter"] = order_diameter_lower_bound(g.n, d)
    bounds["twin-pairs"] = len(tp.pair_classes)
    # sigma - ex sums legs - 1 over the majors of mr.legs (see
    # major_vertex_report); two legs carry at most one landmark's worth
    # of patterns, so only majors with three or more legs can add to it
    patterns = mr.sigma - mr.ex
    for legs in mr.legs.values():
        if len(legs) > 2:
            lengths = list(map(len, legs))
            floor = 0
            for L in set(lengths):
                floor += _pattern_floor(lengths.count(L), L)
            if floor >= len(legs):
                patterns += floor - len(legs) + 1
    bounds["leg-patterns"] = patterns
    if g.n >= TABLE_ORDER:
        bounds["subtree-patterns"] = subtree_patterns(forest or hanging_forest(g, tp))
    return LowerBoundReport(value=max(bounds.values()), bounds=bounds)


def dim_lower_bound(
    g: Graph, dm: DistanceMatrix, tp: TwinPartition, mr: MajorVertexReport
) -> LowerBoundReport:
    """Best lower bound on the metric dimension from the cheap structural
    rules; no set smaller than its value metric-resolves the graph.

    Rules combined (max wins), each sound for every connected graph:
      - ``trivial``: the search counts sizes from 1;
      - ``non-path``: one landmark x gives n distinct distances only when
        d(x, v) takes every value 0..n-1, and then an edge can only join
        vertices whose distances differ by 1, so G is a path; any other
        graph needs 2;
      - ``order-diameter``: with k landmarks the n - k other vertices need
        distinct vectors in {1..D}^k, so D^k + k >= n (Khuller,
        Raghavachari and Rosenfeld, 1996);
      - ``terminal-count``: dim >= sigma - ex (Chartrand, Eroh, Johnson and
        Oellermann, 2000): the legs from a major v to its terminals are
        paths of degree-2 vertices, and the neighbours of v on two legs
        with no landmark collide, since every landmark reaches both
        through v; so v needs a landmark on every leg but one (the
        terminals and legs come from the walk of ``major_vertex_report``);
      - ``twin-classes``: twins are equidistant from every other vertex,
        so two twins outside W collide and W leaves out at most one vertex
        of each class, which makes dim >= sum(|c| - 1).
    """
    bounds = {
        **dim_distance_rules(g, dm),
        "terminal-count": mr.sigma - mr.ex,
        # sum(|c| - 1) over the classes, which partition the n vertices
        "twin-classes": g.n - len(tp.classes),
    }
    return LowerBoundReport(value=max(bounds.values()), bounds=bounds)


def dim_distance_rules(g: Graph, dm: DistanceMatrix) -> dict[str, int]:
    """The rules of dim_lower_bound that read only the graph and its
    distances (trivial, non-path, order-diameter); see there for why each
    is sound.  The diameter is n - 1 exactly on the path (see
    DistanceMatrix)."""
    bounds = {"trivial": 1}
    d = dm.diameter
    if d != dm.n - 1:
        bounds["non-path"] = 2
    if d >= 1:
        # k = n always qualifies, so the loop stops at the least k
        for k in range(1, g.n + 1):
            if d**k + k >= g.n:
                break
        bounds["order-diameter"] = k
    return bounds


def detect_infinite(
    g: Graph, dm: DistanceMatrix, tp: TwinPartition
) -> InfiniteCertificate | None:
    """Cheap certificates that no multiset-resolving set can exist.

    Checked in order: a non-path of diameter <= 2 (all pairwise distances
    fit in {1, 2}, so landmark representations cannot all differ), then a
    twin class of 3+ vertices (two of them always end up on the same side
    of any candidate set and collide).  Absence of a certificate does NOT
    imply the dimension is finite; only exhaustive search settles that.
    The diameter is n - 1 exactly on the path (see DistanceMatrix).
    """
    if dm.diameter <= 2 and dm.diameter != dm.n - 1:
        return InfiniteCertificate(CertificateKind.DIAMETER_TWO_NON_PATH)
    for cls in tp.large_classes:
        return InfiniteCertificate(CertificateKind.LARGE_TWIN_CLASS, twin_class=cls)
    return None
