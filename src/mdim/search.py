"""Exact computation of the multiset dimension and metric dimension.

Multiset resolvability is NOT monotone under supersets, so md visits the
sizes in ascending order, and only a search that exhausts every size
proves md infinite.  The map of this module:

- ``level_search`` builds one graph's search ``least(k)``, with the
  solve's table, if any, fixed when it is built: a depth-first search of
  the one size k over ascending landmark ids with one cut, the lex-leader
  rule, the twin rule and the leg rule.  Its docstring states why each of
  them drops only sets that are not the least one of their size.
- ``_settle_twins`` settles the table's twin classes before any size is
  searched: the forced ids go into the root code, and the search walks
  only the free ids that are left.
- ``_bound`` is its one recursion, over positions in the free ids.  It
  takes the state of one frame and the one context of the search;
  ``_table_bits`` turns the table into bitsets once, when the search is
  built.
- ``compute_md`` and ``compute_dim`` search each size upward from their
  lower bounds, one size at a time (``_first_hit``).  From order
  ``TABLE_ORDER`` on they build the table before the search, and
  compute_dim first answers with the least leg cover (``_leg_cover``)
  when one resolve check, on the BFS rows of the cover's own vertices,
  shows it resolves at the size the legs force.
  Above ``SearchConfig.max_vertices`` they raise ``SearchAborted``, the
  one abort signal, before any table is built (``_check_cap``).
- ``brute_force_md`` is the unpruned reference walk
  ``resolving.least_resolving_set``, which the tests hold the search
  to.
"""

from __future__ import annotations

import sys
from enum import Enum
from itertools import count, repeat
from operator import add, mul
from typing import Callable, Iterable, NamedTuple, Sequence

from .graph import (
    DistanceMatrix,
    Graph,
    all_pairs_distances,
    bfs_distances,
    hanging_forest,
    major_vertex_report,
    path_endpoints,
    symmetry_swap_masks,
    twin_partition,
)
from .resolving import (
    TABLE_ORDER,
    CertificateKind,
    CollisionReport,
    InfiniteCertificate,
    Multiset,
    detect_infinite,
    dim_distance_rules,
    dim_lower_bound,
    is_m_resolving,
    is_metric_resolving,
    least_resolving_set,
    md_lower_bound,
)


class OutcomeKind(Enum):
    FINITE = "finite"
    INFINITE = "infinite"


class SearchAborted(RuntimeError):
    """The one abort signal: md, dim and the scan raise it when a graph
    exceeds the exhaustive-search cap, and the CLI maps it to exit 3."""


class SearchConfig(NamedTuple):
    """Knobs for the exact search.

    ``max_vertices`` caps the subset search: above it the walk raises
    SearchAborted (path recognition and the infiniteness detectors still
    answer md above it).  No solver or scan reads ``workers``: every
    solve and every scan runs in one process, so it never changes an
    answer; it stays for callers that still pass it.  ``progress`` prints
    per-level notes to stderr.
    """

    max_vertices: int = 24
    workers: int = 1
    progress: bool = False


class ResolveOutcome(NamedTuple):
    """Result of a multiset-dimension computation.

    Finite(k, witness): witness is the lexicographically least resolving
    set among those of minimum size k.  Infinite carries the certificate.
    There is no aborted outcome: a capped search raises SearchAborted.
    A tuple has no per-instance dict, which matters to callers that keep
    every answer of a long run and pay this object's size once per solve.
    """

    kind: OutcomeKind
    value: int | None = None
    witness: tuple[int, ...] | None = None
    certificate: InfiniteCertificate | None = None

    @property
    def is_finite(self) -> bool:
        return self.kind is OutcomeKind.FINITE

    @property
    def is_infinite(self) -> bool:
        return self.kind is OutcomeKind.INFINITE

    def describe(self) -> str:
        if self.kind is OutcomeKind.FINITE:
            return f"md = {self.value}, witness = {{{', '.join(map(str, self.witness))}}}"
        return f"md = infinite ({self.certificate.kind.value} certificate)"


# The two infinite verdicts that name nothing of their graph, one record
# each for every solve that reaches them, so a caller that keeps every
# answer of a long run holds no copies of them.
_EXHAUSTED = ResolveOutcome(
    OutcomeKind.INFINITE,
    certificate=InfiniteCertificate(CertificateKind.EXHAUSTIVE_SEARCH),
)
_DIAMETER_TWO = ResolveOutcome(
    OutcomeKind.INFINITE,
    certificate=InfiniteCertificate(CertificateKind.DIAMETER_TWO_NON_PATH),
)


class WitnessReport(NamedTuple):
    """Full verification of one candidate set: both resolving checks plus
    every vertex's representation, for diffing against published tables."""

    witness: tuple[int, ...]
    multiset: CollisionReport
    metric: CollisionReport
    representations: tuple[Multiset, ...]
    vectors: tuple[tuple[int, ...], ...]


# the symmetry_swap_masks table: per vertex, its swap masks
SwapTable = tuple[tuple[int, ...], ...]
# MajorVertexReport.legs: per major with two or more terminals, its legs
LegTable = dict[int, tuple[tuple[int, ...], ...]]


class Table(NamedTuple):
    """What lets the search skip candidates (see level_search): the swap
    masks of the hanging sibling subtrees, twins among them, the legs of
    the majors with two or more terminals, and the twin classes, each
    ascending, which level_search settles before any size is searched:
    every member but the largest is a landmark of every least resolving
    set, and in multiset mode the larger twin of a pair is in none."""

    swaps: SwapTable
    legs: LegTable
    twins: tuple[tuple[int, ...], ...] = ()


# what level_search returns: least(k), a resolving set of size k or None
Least = Callable[[int], tuple[int, ...] | None]


def _table_bits(
    table: Table, n: int
) -> tuple[list[int], list[int], list[int], list[int], int]:
    """The table as bitsets ``need, hitby, own, rest`` and the count
    ``owed``.  Swaps: over the distinct swap masks S_0, S_1, ..., bit j of
    ``need[x]`` is set when S_j is a swap mask of x that holds no forced
    id below x, and bit j of ``hitby[y]`` when y lies in S_j.  Legs: each
    leg gets one bit above those of the swap masks; ``hitby[y]`` and
    ``own[y]`` hold the bit of y's leg, and ``rest[y]`` the bits of the
    other legs of its major.  If ``hit`` is the union of ``hitby`` over
    the chosen landmarks, they miss one of those swap masks of x exactly
    when ``need[x] & ~hit`` is non-zero, and adding x lowers by one the
    landmarks the unhit legs are owed (one on every unhit leg but one of
    each major) exactly when ``own[x] & ~hit`` and ``rest[x] & ~hit`` are
    both non-zero.  ``owed`` is that count before any landmark is chosen,
    the sum of ``len(legs) - 1`` over the majors.

    The forced ids are the members of each twin class but the largest
    (see level_search).  Every prefix that reaches x holds the forced ids
    below x, so a swap mask of x that holds one of them is always hit at
    x and is left out of ``need[x]`` here, once; of a forced id's bits
    the search sets only its leg's in ``hit``.

    A swap mask of x that contains another swap mask of x changes no
    skip: landmarks that miss the larger mask miss the smaller one too,
    so x is skipped whether or not the larger bit is set in ``need[x]``.
    The table keeps such masks.  Each of them, the mask of two sibling
    subtrees, is also a mask of the larger of their two roots, where no
    other mask lies inside it, so, but for the drop above, the distinct
    masks, and with them the bits, are those of a table without the
    containing masks."""
    forced = sum(1 << x for cls in table.twins for x in cls[:-1])
    index: dict[int, int] = {}
    need = [0] * n
    for x, masks in enumerate(table.swaps):
        below = forced & ((1 << x) - 1)
        for s in masks:
            if not s & below:
                need[x] |= 1 << index.setdefault(s, len(index))
    hitby = [0] * n
    for s, j in index.items():
        while s:
            low = s & -s
            hitby[low.bit_length() - 1] |= 1 << j
            s ^= low
    own, rest = [0] * n, [0] * n
    bit, owed = len(index), 0
    for group in table.legs.values():
        every = ((1 << len(group)) - 1) << bit
        for j, leg in enumerate(group):
            b = 1 << (bit + j)
            for y in leg:
                own[y] = b
                rest[y] = every ^ b
                hitby[y] |= b
        bit += len(group)
        owed += len(group) - 1
    return need, hitby, own, rest, owed


def _settle_twins(
    twins: tuple[tuple[int, ...], ...], ordered: bool, n: int
) -> tuple[tuple[int, ...], list[int]]:
    """The twin classes settled before the search (see level_search): the
    ascending forced ids, every member of a class but the largest, and the
    free ids the search walks, ascending.  In multiset mode no member of a
    class is free: the larger twin of a pair is in no resolving set, and
    a class of three or more puts two twins among the forced ids, whose
    codes then agree in every set, so no size resolves."""
    forced = tuple(sorted(x for cls in twins for x in cls[:-1]))
    if ordered:
        out = set(forced)
    else:
        out = {x for cls in twins if len(cls) > 1 for x in cls}
    return forced, [x for x in range(n) if x not in out]


# what stays fixed for one search: the order n, the count m of free ids
# and the ascending free ids themselves, and, by the position of each
# free id, the code ``weights`` and cut labels ``tails`` of level_search
# and the table's bitsets ``need, hitby, own, rest`` (see _table_bits),
# all 0 with no table
Context = tuple[
    int, int, Sequence[int], list, list, list[int], list[int], list[int], list[int]
]


def _bound(
    code: tuple[int, ...],
    start: int,
    size: int,
    k: int,
    hit: int,
    owed: int,
    ctx: Context,
) -> tuple[int, ...]:
    """The search of ``k`` free picks: extend the ``size - 1`` free ids
    chosen, whose vertex codes, with the forced ids', are ``code``, by free
    ids from position ``start`` on; return the ids added to the least
    resolving set, or () if none resolves.  ``hit`` is the union of
    ``hitby`` over the chosen landmarks (only the leg bits of the forced
    ones), ``owed`` the landmarks their unhit legs are still owed, and
    ``ctx`` the search's context.  Every loop runs over positions in the
    free ids, and a found id is read from them.

    Candidate x is skipped, before any test, when ``need[x] & ~hit`` is
    non-zero (see _table_bits): the chosen landmarks miss a swap mask S of
    x, that automorphism fixes every chosen landmark and maps x to a
    smaller id, so by the lex-leader rule no least resolving set continues
    with x (see level_search).  The test reads ``need[x]`` first: with no
    table every entry is 0, and that graph pays one falsy int per
    candidate.

    Each candidate x makes a child of ``size`` free picks, skipped by the
    leg rule when its unhit legs are owed more than the ``k - size`` picks
    it may still take.  If the first frame's ``owed`` is at most k, every
    frame is entered owing at most the ``k - size + 1`` it may take, and
    only when it owes exactly that (``tight``) does a candidate that pays
    none off get skipped; every other frame pays one falsy local per
    candidate for the rule.  The legs of the forced ids are paid before
    the first frame, so it may owe more than its k picks: every set it
    could try is still owed a landmark and cannot resolve, and
    level_search returns None for that size with no frame at all.

    Below the last pick the cut runs first, and a child is expanded only
    while k - size free ids are left after it; the last pick gets the
    resolve test alone, in a loop of its own.
    """
    n, m, free, weights, tails, need, hitby, own, rest = ctx
    miss = ~hit
    tight = owed > k - size
    if size < k:
        for x in range(start, m - k + size):
            if need[x] and need[x] & miss:
                continue
            if tight and not (own[x] & miss and rest[x] & miss):
                continue
            if len(set(zip(code, tails[x]))) < n:
                return ()
            after = owed and owed - ((own[x] & miss and rest[x] & miss) > 0)
            child = tuple(map(add, code, weights[x]))
            found = _bound(child, x + 1, size + 1, k, hit | hitby[x], after, ctx)
            if found:
                return (free[x], *found)
        return ()
    for x in range(start, m):
        if need[x] and need[x] & miss:
            continue
        if tight and not (own[x] & miss and rest[x] & miss):
            continue
        if len(set(map(add, code, weights[x]))) == n:
            return (free[x],)
    return ()


def level_search(
    dm: DistanceMatrix, ordered: bool = False, table: Table | None = None
) -> Least:
    """Build the landmark tables of one graph; return ``least(k)``, the
    lexicographically least resolving set of size k (1 <= k <= n), or
    None.  Sets resolve by distance multisets, or with ``ordered`` by
    distance vectors (metric resolving).  ``table``, if given, holds the
    ``graph.symmetry_swap_masks`` table, the legs of the
    ``graph.major_vertex_report`` and the ``graph.twin_partition``
    classes of the same graph; it changes no answer, only how many sets
    are visited.  It is settled and turned into bitsets once, here, and
    every call of ``least`` searches with it.

    ``least`` is a depth-first search over the ascending free ids: every
    id with no table, and with one, those the twin rule below neither
    forces nor leaves out.  A vertex's code is the sum of ``weights[x][v]``
    over the landmarks x, the forced ones' summed once into the root code,
    and adding a landmark is one vector add with no sort.  In multiset
    mode ``weights[x][v] = (n + 1) ** d(v, x)``: no distance occurs more
    than n times, so equal codes mean equal distance multisets.  In
    ordered mode ``weights[x][v] = d(v, x) * n ** x``: every distance is
    below n, so the code is a base-n number whose digit x is d(v, x), and
    equal codes mean equal distance vectors.  ``tails[s][v]`` labels v's
    distances to the free ids from position s on, equal labels meaning
    equal distances.

    The one cut, the same in both modes: a prefix whose next free id is at
    position s is dropped when two vertices share both their code and
    their label in ``tails[s]``.  Every id that can still be added is a
    free id from position s on, so those two vertices are equidistant from
    it and collide in every extension, as multisets and as vectors alike.
    The cut therefore drops only failing sets, the first hit is the least
    one, and a None at every size proves that no resolving set exists.
    Since ``tails[s]`` only gets coarser as s grows, a cut prefix stays
    cut for every later next id, which ends the loop over siblings.  The
    last landmark of a set is tried with the plain resolve test alone,
    where the cut would cost as much as the test it saves.

    The lex-leader rule (Crawford, Ginsberg, Luks & Roy, KR 1996), with
    the swap masks of ``table``: candidate x is skipped when the chosen
    landmarks miss some swap mask S of x.  Let W be the least resolving
    set of size k.  Every automorphism s maps W to a set s(W) that
    resolves too, by the same distances, as multisets and as vectors
    alike.  If s fixes landmarks w_1..w_{i-1} and maps w_i to y < w_i,
    then y is not in W and every element of W that s(W) lacks is at least
    w_i, so s(W) < W, which is impossible.  The swap of S fixes every
    vertex outside S, hence every chosen landmark, and maps x to a
    smaller id, so x is never the next landmark of W.  Each mask of
    ``graph.symmetry_swap_masks`` is the support of such a swap, held by
    the larger id of each pair it exchanges: two isomorphic sibling
    subtrees hanging from the centre of a tree or from the 2-core of any
    other graph, exchanged by the isomorphism that maps x to y.  Each
    meets the rest of the graph only through its edge to their common
    parent (or, for the two halves of a tree with a central edge, that
    edge), so every edge goes to an edge and every vertex off the two
    subtrees stays put.  Two legs of equal length at one major are two
    such subtrees, and so are two twins u < v, which hang as sibling
    leaves from a common or a virtual parent: N(u) - {v} equals
    N(v) - {u}, so their transposition keeps every edge.  The chosen
    landmarks of the argument are those of W below x, and W holds every
    forced id below x, so a mask of x that holds one is hit and is left
    out of ``need[x]`` (see _table_bits).  A forced id above x is not
    among them: counting it as hit would keep x where the argument drops
    it, and on ``karytree``, whose forced leaves have the largest ids,
    would switch the rule off.  The rule drops only sets that are not the
    least one, so each size still returns its least witness or None, and
    a None at every size still proves that no resolving set exists.  The
    test is one AND of two bitsets per candidate (see _table_bits).

    The twin rule, settled before any size is searched
    (``_settle_twins``), with the twin classes of ``table``.  Twins u < x
    are equidistant from every vertex but themselves.  In multiset mode a
    resolving set holds exactly one twin of a pair: with neither, u and x
    have equal codes, and with both, each is at 0 from itself and at
    d(u, x) from the other.  A class of three or more holds a pair left
    out or a pair taken both, so no set m-resolves, and every ``least(k)``
    is None: two of its members are forced and the others left out, and
    the cut ends every size at its first frame.  In ordered mode a metric-resolving set misses at most one
    member of a class, since two members it misses have equal vectors.  If
    the least W of size k missed a member u of a class and held a larger
    member x, then W - x + u, its image under the automorphism (u x),
    would resolve too and be smaller, since u takes x's place.  So in
    multiset mode W holds the smaller twin of each pair and not the
    larger, and in ordered mode, where a member u it misses other than the
    largest would leave the largest in W, it holds every member but the
    largest.  Those forced ids are summed into the root code and leave the
    search, and in multiset mode so do the larger twins, which no
    resolving set beside the smaller one holds.  ``least(k)`` searches
    ``k - len(forced)`` picks among the free ids and merges the forced ids
    back; below that many it is None, and at exactly that many it is the
    forced set if that resolves.  All sets of one size are compared by
    the least element of their symmetric difference, and the forced ids
    are in both, so the least set of free picks gives the least witness.
    The cut labels run over the free ids only, as only they can still be
    added; the legs the forced ids lie on are paid off the first frame's
    ``owed`` and set in its ``hit``, leg bits only (see the other rules).
    The rule drops only sets that are not the least one or do not
    resolve, so each size still returns its least witness or None, and a
    None at every size still proves that no resolving set exists.

    The leg rule (Khuller, Raghavachari & Rosenfeld 1996; Chartrand,
    Eroh, Johnson & Oellermann 2000), with the legs of ``table``: a leg
    is a path of degree-2 vertices from a pendant to its major v, found by
    the walk of ``graph.major_vertex_report`` that also gives the
    terminals of the ``terminal-count`` bound, so every
    path from a leg vertex to a vertex off the leg runs through v.  If two
    legs of v hold no landmark, v's neighbours on them are both one step
    further than v from every landmark and collide, as multisets and as
    vectors alike.  A resolving set therefore holds a vertex on every leg
    but one of each major, and since the legs are disjoint, a prefix is
    owed ``sum(unhit legs - 1)`` over the majors more landmarks, which
    goes down by at most one per landmark added.  The forced ids pay
    theirs before the first frame, and when more is still owed than the
    free picks of a size, ``least`` is None there with no frame.
    Candidate x is skipped when the landmarks still owed after x exceed
    those still allowed (``k - size`` in _bound).  The rule drops only
    sets that do not resolve, so each size still returns its least
    witness or None, and a None at every size still proves that no
    resolving set exists.  At the size ``sigma - ex`` itself, the sum of
    ``len(legs) - 1``, a resolving set holds exactly one vertex on each
    leg it covers and nothing else, so the least leg cover
    (``_leg_cover``: the least id of every leg but the one with the
    largest least id, per major), as an ascending tuple, is componentwise
    no larger than any resolving set of that size, and if it resolves it
    is the least one; compute_dim tries it before it builds this search.

    The recursion is the module-level ``_bound``, which returns the ids
    it adds.  Each frame takes only its own state (the codes, the next
    position, the size, the ``hit`` bitset of both rules and the count
    ``owed``) and the one ``Context`` tuple built here: a nested function
    that calls itself is a reference cycle, which would leave every
    solve's tables to the cycle collector, whose pauses showed in
    per-graph scan latencies.
    """
    d, n = dm.d, dm.n
    if ordered:
        weights = [tuple(map(mul, row, repeat(n**x))) for x, row in enumerate(d)]
    else:
        power = list(map(pow, repeat(n + 1), range(n)))
        weights = [tuple(map(power.__getitem__, row)) for row in d]
    forced: tuple[int, ...] = ()
    free: Sequence[int] = range(n)
    rows = d
    need = hitby = own = rest = [0] * n
    root, hit, owed = (0,) * n, 0, 0
    if table is not None:
        forced, free = _settle_twins(table.twins, ordered, n)
        need, hitby, own, rest, owed = _table_bits(table, n)
        # each forced id pays its leg and sets its leg bit, never a swap
        # bit, and is summed into the root code; every table is then read
        # by position in the free ids
        for x in forced:
            if own[x] & ~hit and rest[x] & ~hit:
                owed -= 1
            hit |= own[x]
            root = tuple(map(add, root, weights[x]))
        need, hitby, own, rest, weights, rows = (
            [bits[x] for x in free] for bits in (need, hitby, own, rest, weights, d)
        )
    # one counter for all levels, so a new (distance, tail) key never
    # receives a label that an earlier key already holds
    ids: dict[tuple[int, int], int] = {}
    fresh = count()
    m = len(free)
    tails = [(0,) * n] * (m + 1)
    for s in range(m - 1, -1, -1):
        tails[s] = tuple(map(ids.setdefault, zip(rows[s], tails[s + 1]), fresh))
    ctx: Context = (n, m, free, weights, tails, need, hitby, own, rest)
    fixed = len(forced)

    def least(k: int) -> tuple[int, ...] | None:
        picks = k - fixed
        if picks < owed:
            return None
        if not picks:
            return forced if len(set(root)) == n else None
        found = _bound(root, 0, 1, picks, hit, owed, ctx)
        if found and forced:
            return tuple(sorted(forced + found))
        return found or None

    return least


def _check_cap(n: int, cfg: SearchConfig) -> None:
    """Raise SearchAborted for a graph of n vertices above
    ``cfg.max_vertices``; the solves call it before they build any table."""
    if n > cfg.max_vertices:
        raise SearchAborted(
            f"{n} vertices exceeds the exhaustive-search cap of {cfg.max_vertices}"
        )


def _leg_cover(legs: LegTable) -> tuple[int, ...]:
    """The least leg cover, ascending: for each major, the least id of
    every leg but the one whose least id is largest.  It holds one
    landmark on every leg but one of each major, so ``sigma - ex`` of
    them, and no metric-resolving set of that size is lexicographically
    smaller (see compute_dim)."""
    cover = (x for group in legs.values() for x in sorted(map(min, group))[:-1])
    return tuple(sorted(cover))


def _first_hit(
    least: Least, mode: str, sizes: range, n: int, cfg: SearchConfig
) -> tuple[int, ...] | None:
    """The first set ``least(k)`` finds over the ascending ``sizes``, with
    the table the search was built with, or None, with one ``--progress``
    note per size searched."""
    for k in sizes:
        if cfg.progress:
            print(f"{mode} search: size {k} of up to {n}", file=sys.stderr)
        w = least(k)
        if w is not None:
            return w
    return None


def _note_rules(table: Table, mode: str) -> None:
    """The ``--progress`` notes of the rules the table turns on.  They name
    no "size <k>", which tools that time the levels read from the notes."""
    swaps, legs, twins = table
    if any(swaps):
        print(
            f"{mode} search: symmetry rule on ({sum(map(bool, swaps))} "
            "vertices have a smaller image)",
            file=sys.stderr,
        )
    if legs:
        count = sum(map(len, legs.values()))
        majors = f"{len(legs)} major" + "s" * (len(legs) > 1)
        print(f"{mode} search: leg rule on ({count} legs at {majors})", file=sys.stderr)
    fixed = sum(map(len, twins)) - len(twins)
    if fixed:
        landmarks = f"{fixed} landmark" + "s" * (fixed > 1)
        print(f"{mode} search: twin rule on ({landmarks} fixed)", file=sys.stderr)


def compute_md(g: Graph, cfg: SearchConfig = SearchConfig()) -> ResolveOutcome:
    """Exact multiset dimension of a connected graph.

    Pipeline: path fast-path (dimension 1, least pendant as witness; the
    graph is a path exactly when its diameter is n - 1, see
    DistanceMatrix), the two infiniteness detectors, the cap, then the
    cut depth-first search from ``md_lower_bound``.  From order
    ``TABLE_ORDER`` on, ``graph.hanging_forest`` is walked once, for the
    bound's subtree-patterns rule and for the swap table, and the swap
    and leg tables and the twin classes are put in the table before the
    search; smaller graphs are searched with no table.  With
    ``cfg.progress`` a note names the bound and the rules that reach it.
    Each size from the lower bound up to n is then searched in turn, as
    dim searches its sizes.  Multiset resolvability is not monotone, so
    no size may be skipped; reaching
    size n with no witness proves infiniteness because the cut, the swap
    rule, the twin rule and the leg rule only drop sets that are not the
    least one of their size.  A bound above n, which the subtree-patterns
    rule gives when isomorphic siblings have too few asymmetric markings
    to tell apart, leaves no size to search and proves infiniteness with
    no table and no walk.
    Sizes count from 1: the one-vertex graph, which the empty set
    vacuously resolves, is a path and answers 1 with witness (0,).  Each
    graph fact is computed once, and only when a step needs it.  Every
    solve that ends in the exhaustive-search or the diameter-2 verdict
    returns the same shared record for it.  Raises SearchAborted, before
    any bound or table, when the search is needed and the graph exceeds
    ``cfg.max_vertices``.
    """
    dm = all_pairs_distances(g)
    n = dm.n
    if dm.diameter == n - 1:
        return ResolveOutcome(
            OutcomeKind.FINITE, value=1, witness=(min(path_endpoints(g)),)
        )
    tp = twin_partition(g)
    cert = detect_infinite(g, dm, tp)
    if cert is not None:
        if cert.kind is CertificateKind.DIAMETER_TWO_NON_PATH:
            return _DIAMETER_TWO
        return ResolveOutcome(OutcomeKind.INFINITE, certificate=cert)
    _check_cap(n, cfg)
    mr = major_vertex_report(g, dm)
    table = None
    if n < TABLE_ORDER:
        report = md_lower_bound(g, dm, tp, mr)
    else:
        forest = hanging_forest(g, tp)
        report = md_lower_bound(g, dm, tp, mr, forest)
        if report.value <= n:
            table = Table(symmetry_swap_masks(g, tp, forest), mr.legs, tp.classes)
            if cfg.progress:
                _note_rules(table, "md")
    lb = report.value
    if cfg.progress:
        print(f"md search: lower bound {lb} ({', '.join(report.achieved_by)})",
              file=sys.stderr)
    if lb > n:
        return _EXHAUSTED
    witness = _first_hit(level_search(dm, False, table), "md", range(lb, n + 1), n, cfg)
    if witness is None:
        return _EXHAUSTED
    return ResolveOutcome(OutcomeKind.FINITE, value=len(witness), witness=witness)


def compute_dim(
    g: Graph, cfg: SearchConfig = SearchConfig()
) -> tuple[int, tuple[int, ...]]:
    """Exact metric dimension with its lexicographically least witness.

    Searches sizes upward in ordered mode from a proved lower bound and
    returns the first hit.  Ordered distance vectors ARE monotone under
    supersets, so V itself always resolves and the search ends by size n;
    the minimum comes from visiting sizes in ascending order, and no size
    below a ``dim_lower_bound`` rule can hold a hit.  Sizes count from 1:
    the empty set resolves the one-vertex graph, whose answer is still
    1 with witness (0,).

    From order ``TABLE_ORDER`` on, ``graph.major_vertex_report`` is taken
    first: it reads no distances, and finds the terminals and their legs
    by walking from each pendant.  When their count ``sigma - ex``, the
    terminal-count rule of ``dim_lower_bound``, is 2 or more (one
    landmark resolves only a path, which has no legs), the least leg
    cover (see _leg_cover), which holds that many vertices, gets one BFS
    per vertex and no other distances.  A row with an unreached vertex
    hands the graph to ``all_pairs_distances``, which raises the same
    Disconnected as below, and the cap is checked before the cover's one
    resolve check, a set of the cover's distance vectors.  If the cover
    resolves, it is the answer.  dim >= sigma - ex on every graph, so a
    resolving cover proves dim = sigma - ex.  By the leg rule (see
    level_search) a resolving set of ``sigma - ex`` landmarks holds
    exactly one vertex on each leg it covers and nothing else.  Moving
    each landmark to the least id of its leg, and then, at each major
    whose leg with the largest least id holds a landmark, moving that one
    to the least id of the leg left uncovered, only lowers its ascending
    tuple componentwise and ends at the least leg cover; so a cover that
    resolves is the least witness.  The distance rules cannot contradict
    it: one that exceeded sigma - ex would bound dim above the cover's
    size, and the cover could not resolve, so trying the cover before the
    rules changes no answer.  Every tree that is not a path is answered
    so: its dimension is sigma - ex, and one vertex on every leg but one
    of each major resolves it (Chartrand, Eroh, Johnson & Oellermann
    2000).

    Otherwise all distances are computed.  From order ``TABLE_ORDER`` on,
    the twin partition (about n^2 steps), the full ``dim_lower_bound`` and
    the swap table, from the same twin partition and report, are
    computed, the ordered search is built with the swap table, the
    report's legs and the twin classes, and it searches the sizes from
    that bound.  Below that
    order those inputs cost more than the whole search, so the ordered
    search is built with no table and searches from
    ``dim_distance_rules``, which read only the distances, and the cover
    is never tried.  Raises SearchAborted above
    ``cfg.max_vertices``, before any table is built.
    """
    n = g.n
    if n >= TABLE_ORDER:
        mr = major_vertex_report(g)
        k = mr.sigma - mr.ex
        if k >= 2:
            cover = _leg_cover(mr.legs)
            rows = [bfs_distances(g, x) for x in cover]
            # a row misses a vertex exactly when the graph is disconnected,
            # and all_pairs_distances then raises Disconnected
            if -1 in rows[0]:
                all_pairs_distances(g)
            _check_cap(n, cfg)
            if len(set(zip(*rows))) == n:
                if cfg.progress:
                    print(f"dim search: least leg cover resolves ({k} landmarks)",
                          file=sys.stderr)
                return k, cover
    dm = all_pairs_distances(g)
    _check_cap(n, cfg)
    table = None
    if n < TABLE_ORDER:
        k = max(dim_distance_rules(g, dm).values())
    else:
        tp = twin_partition(g)
        k = dim_lower_bound(g, dm, tp, mr).value
        table = Table(symmetry_swap_masks(g, tp), mr.legs, tp.classes)
        if cfg.progress:
            _note_rules(table, "dim")
    w = _first_hit(level_search(dm, True, table), "dim", range(k, n + 1), n, cfg)
    if w is None:
        raise AssertionError("a connected graph is always metric-resolved by V itself")
    return len(w), w


def verify_witness(g: Graph, w: Iterable[int]) -> WitnessReport:
    """Check one candidate set both ways and list every representation."""
    dm = all_pairs_distances(g)
    w = tuple(sorted(set(w)))
    multiset = is_m_resolving(dm, w)
    metric = is_metric_resolving(dm, w)
    vecs = tuple(tuple(row[x] for x in w) for row in dm.d)
    reps = tuple(tuple(sorted(vec)) for vec in vecs)
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
    return _EXHAUSTED
