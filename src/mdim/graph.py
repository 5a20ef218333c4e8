"""Simple undirected graphs over dense integer ids 0..n-1.

Everything downstream (distance multisets, subset search, family
generators) works on immutable named tuples: the graph itself, its
all-pairs hop-count matrix, the partition of vertices into twin classes
and the major-vertex report.  Vertices are dense ints so that vertex
subsets stay cheap to enumerate, compare and hash.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple


class GraphError(ValueError):
    """Base class for invalid graph input.

    ``edge_index`` is the position of the offending edge in the list given
    to build_graph, or None when no single edge is at fault.
    """

    edge_index: int | None = None


class LoopEdge(GraphError):
    """An edge joins a vertex to itself."""


class DuplicateEdge(GraphError):
    """The same unordered vertex pair appears twice in the edge list."""


class VertexOutOfRange(GraphError):
    """An edge endpoint is outside 0..n-1."""


class Disconnected(GraphError):
    """Two vertices lie in different components; distances are undefined."""


class RelationNotTransitive(RuntimeError):
    """The computed twin relation failed its transitivity self-check.

    This indicates a bug in the twin computation, never a property of the
    input graph, so it is surfaced instead of being repaired.
    """


class Graph(NamedTuple):
    """Simple undirected graph: ``adjacency[v]`` is the ascending neighbor list.

    Instances are immutable and hashable; two graphs are equal iff they
    have the same vertex count and identical sorted adjacency, which makes
    equality a canonical comparison for identically-labelled graphs.
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def edges(self) -> list[tuple[int, int]]:
        """All edges as ascending (u, v) pairs with u < v, sorted."""
        return [(u, v) for u, nbrs in enumerate(self.adjacency) for v in nbrs if u < v]

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2


class DistanceMatrix(NamedTuple):
    """All-pairs hop counts of a connected graph; ``d[u][v]`` is the distance.

    ``diameter`` is the largest entry, stored when the matrix is built so
    that no caller scans it again.  ``diameter == n - 1`` exactly when the
    graph is the path P_n: a geodesic of length n - 1 visits every vertex,
    and any edge off it would join two of its vertices and shorten it.
    """

    n: int
    d: tuple[tuple[int, ...], ...]
    diameter: int


class TwinPartition(NamedTuple):
    """Partition of the vertices into twin classes.

    Two distinct vertices u, v are twins when ``N(u) - {v} == N(v) - {u}``;
    the partition groups each vertex with all of its twins.  Classes are
    sorted by least member, members ascending.
    """

    classes: tuple[tuple[int, ...], ...]

    @property
    def pair_classes(self) -> tuple[tuple[int, ...], ...]:
        """Classes of exactly two vertices."""
        return tuple(c for c in self.classes if len(c) == 2)

    @property
    def large_classes(self) -> tuple[tuple[int, ...], ...]:
        """Classes of three or more vertices."""
        return tuple(c for c in self.classes if len(c) >= 3)


class MajorVertexReport(NamedTuple):
    """Major vertices (degree >= 3) and the pendant vertices they own.

    A pendant u is a terminal of major v when u is strictly closer to v
    than to every other major vertex.  ``terminals`` maps every major to
    its terminals, ascending; ``sigma`` counts all terminals, ``ex`` the
    majors owning at least one.  ``legs`` maps each major with two or
    more terminals, ascending, to one leg per terminal u, ascending: the
    vertices on the path from u towards the major, which the leg stops
    short of.
    """

    majors: tuple[int, ...]
    terminals: dict[int, tuple[int, ...]]
    sigma: int
    ex: int
    legs: dict[int, tuple[tuple[int, ...], ...]]


def build_graph(n: int, edges: list[tuple[int, int]]) -> Graph:
    """Build a validated Graph from unordered vertex-id pairs.

    Raises LoopEdge, DuplicateEdge or VertexOutOfRange naming the
    offending edge, with its list position as ``edge_index``.  Adjacency
    lists come out sorted ascending.
    """
    if n < 0:
        raise GraphError(f"vertex count must be non-negative, got {n}")
    adjacency: list[list[int]] = [[] for _ in range(n)]
    seen: set[tuple[int, int]] = set()
    for i, (u, v) in enumerate(edges):
        try:
            if not (0 <= u < n and 0 <= v < n):
                raise VertexOutOfRange(f"edge ({u}, {v}) outside vertex range 0..{n - 1}")
            if u == v:
                raise LoopEdge(f"edge ({u}, {v}) is a self-loop")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise DuplicateEdge(f"edge ({u}, {v}) listed twice")
        except GraphError as exc:
            exc.edge_index = i
            raise
        seen.add(key)
        adjacency[u].append(v)
        adjacency[v].append(u)
    return Graph(n, tuple(tuple(sorted(nbrs)) for nbrs in adjacency))


def bfs_distances(g: Graph, source: int) -> list[int]:
    """Hop counts from ``source`` to every vertex; -1 for unreachable ones."""
    adj = g.adjacency
    dist = [-1] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = du + 1
                queue.append(v)
    return dist


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return False
    return min(bfs_distances(g, 0)) >= 0


def all_pairs_distances(g: Graph) -> DistanceMatrix:
    """BFS hop counts between every vertex pair.

    Raises Disconnected naming a vertex pair in different components.
    """
    if g.n == 0:
        raise GraphError("the empty graph has no distances")
    rows: list[tuple[int, ...]] = []
    for s in range(g.n):
        dist = bfs_distances(g, s)
        if -1 in dist:
            raise Disconnected(
                f"vertices {s} and {dist.index(-1)} are in different components"
            )
        rows.append(tuple(dist))
    return DistanceMatrix(g.n, tuple(rows), max(map(max, rows)))


def is_path(g: Graph) -> bool:
    """True when g is a path graph P_n (n >= 1), under any labelling."""
    if g.n == 0:
        return False
    if g.n == 1:
        return True
    degs = list(map(len, g.adjacency))
    if degs.count(1) != 2 or degs.count(2) != g.n - 2:
        return False
    return is_connected(g)


def path_endpoints(g: Graph) -> tuple[int, ...]:
    """Ascending ids of the degree-1 vertices (the single vertex for n=1)."""
    if g.n == 1:
        return (0,)
    return tuple(v for v, nbrs in enumerate(g.adjacency) if len(nbrs) == 1)


def major_vertex_report(
    g: Graph, dm: DistanceMatrix | None = None
) -> MajorVertexReport:
    """Classify majors (degree >= 3) and assign each pendant to its owner
    by walking from it along degree-2 vertices.  ``dm`` is not read and
    may be left out: ``search.compute_dim`` takes the report before any
    distance is computed, and callers that hold the matrix may still pass
    it.

    The walk from a pendant along degree-2 vertices ends at the first
    vertex of degree 3 or more, and every path from the pendant to a
    vertex past it runs through it, so that major is strictly the closest
    one and owns the pendant.  A walk that ends at a second pendant makes
    the graph a path, which has no majors, so no pendant has a strictly
    closest major that its walk misses.  Every leg vertex but the pendant
    has degree 2 and lies on exactly one such walk, so the legs are
    disjoint, and ``sum(len(legs) - 1)`` over the majors is ``sigma - ex``.
    """
    adj = g.adjacency
    majors = tuple(v for v, nbrs in enumerate(adj) if len(nbrs) >= 3)
    groups: dict[int, list[tuple[int, ...]]] = {v: [] for v in majors}
    sigma = ex = 0
    for u, nbrs in enumerate(adj):
        if len(nbrs) != 1:
            continue
        leg, prev, cur = [u], u, nbrs[0]
        while len(adj[cur]) == 2:
            leg.append(cur)
            a, b = adj[cur]
            prev, cur = cur, b if a == prev else a
        if len(adj[cur]) > 2:
            sigma += 1
            ex += not groups[cur]
            groups[cur].append(tuple(leg))
    terminals = {v: tuple(leg[0] for leg in group) for v, group in groups.items()}
    legs = {v: tuple(group) for v, group in groups.items() if len(group) > 1}
    return MajorVertexReport(majors, terminals, sigma, ex, legs)


class HangingForest(NamedTuple):
    """The hanging forest of a connected graph, from ``hanging_forest``.

    ``parent[v]`` is the vertex v hangs from, or v itself for a vertex of
    the 2-core that is a root of its own; indices from n on are virtual
    parents.  ``code[v]`` is the AHU code of the subtree v roots, and
    ``shapes`` maps each ascending tuple of child codes to its code, so a
    leaf's code is ``shapes[()] == 0``.  A code is numbered when its child
    tuple is first seen, after the codes of the children, so
    ``list(shapes)[t]`` holds the child codes of code t, each less than
    t.  ``mask[v]`` is the vertex mask of that subtree.  ``key[v]`` names
    the sequence of codes on the path from v's root: it is the first
    vertex, from the roots down, given that sequence, and a root or
    virtual parent i has the key -i - 1, which no other vertex shares.
    ``groups`` maps each key that two or more vertices share to those
    vertices, ascending.
    """

    parent: list[int]
    key: list[int]
    code: list[int]
    shapes: dict[tuple[int, ...], int]
    groups: dict[int, list[int]]
    mask: list[int]


def hanging_forest(g: Graph, tp: TwinPartition) -> HangingForest:
    """The one walk behind ``symmetry_swap_masks`` and the
    ``subtree-patterns`` rule of ``resolving.md_lower_bound``.

    Leaves are stripped layer by layer until none are left, which leaves
    the 2-core of a graph with a cycle, or until at most two vertices
    remain, the centre of a tree.  Each stripped vertex hangs from its
    last neighbour, so the subtree it roots meets the rest of the graph
    only through that parent edge.  The one or two central vertices of a
    tree hang from one virtual root n, each twin class of ``tp`` left in
    the 2-core from a virtual parent of its own, and every other vertex
    left there is a root of its own.  Every vertex gets the AHU code of
    its rooted subtree (Aho, Hopcroft & Ullman 1974) and a key for the
    sequence of codes on its path from its root, so two vertices share a
    key exactly when they share their root and the codes along both paths
    are equal.

    Two twins u < v of degree 2 or more lie on a 4-cycle through both
    when N(u) = N(v), or on a triangle through both when N[u] = N[v], and
    so does every neighbour of either.  Both are therefore left in the
    2-core and nothing hangs from them, so under their virtual parent they
    are sibling leaves with one key.  Twins of degree 1 (pendants at one
    vertex) and the two vertices of K2 are sibling leaves already.
    """
    n, adj = g.n, g.adjacency
    # A vertex is stripped after its children, which hang from it, and
    # hangs from its one neighbour left; a vertex not stripped is its own
    # parent.  The vertices of a cycle never become leaves, and the last
    # layer of a tree, its one or two central vertices, hangs from n.
    degree = list(map(len, adj))
    layer = [v for v in range(n) if degree[v] == 1]
    parent = list(range(n + 1))
    # a leaf has code 0
    codes: dict[tuple[int, ...], int] = {(): 0}
    code = [0] * n
    mask = [0] * n
    order: list[int] = []
    left = n
    while layer:
        if left <= 2:
            for c in layer:
                parent[c] = n
        left -= len(layer)
        inner = []
        for v in layer:
            below, m = [], 1 << v
            for u in adj[v]:
                if parent[u] == v:
                    below.append(code[u])
                    m |= mask[u]
                elif parent[u] == u:
                    parent[v] = u
                    degree[u] -= 1
                    if degree[u] == 1:
                        inner.append(u)
            mask[v] = m
            if below:
                code[v] = codes.setdefault(tuple(sorted(below)), len(codes))
        order += layer
        layer = inner
    # past n, one virtual parent per twin class left in the 2-core, whose
    # members become leaves
    key = list(range(-1, -n - 2, -1))
    for cls in tp.classes:
        if len(cls) > 1 and parent[cls[0]] == cls[0]:
            for v in cls:
                parent[v] = len(key)
                mask[v] = 1 << v
            key.append(-len(key) - 1)
            order += cls
    # a key is the first vertex given it, from the roots down
    keys: dict[tuple[int, int], int] = {}
    groups: dict[int, list[int]] = {}
    for v in reversed(order):
        k = key[v] = keys.setdefault((key[parent[v]], code[v]), v)
        if k != v:
            if k in groups:
                groups[k].append(v)
            else:
                groups[k] = [k, v]
    for members in groups.values():
        members.sort()
    return HangingForest(parent, key, code, codes, groups, mask)


def symmetry_swap_masks(
    g: Graph, tp: TwinPartition, forest: HangingForest | None = None
) -> tuple[tuple[int, ...], ...]:
    """Swaps that move a vertex to a smaller id, on any connected graph.

    Entry x holds vertex masks S, each once, each the support of an
    automorphism of g that fixes every vertex outside S and maps x to some
    y < x.  A mask may contain another mask of the same entry; both are
    kept, since the search skips the same candidates with or without the
    larger one (see ``search._table_bits``).  Graphs with no two
    isomorphic hanging subtrees and no twins get an empty tuple for every
    vertex.  ``forest`` is ``hanging_forest(g, tp)``, walked here when the
    caller does not hold it.

    For y < x with equal keys in the hanging forest, which share their
    root, let a and b be the children of their lowest common ancestor on
    the paths to x and to y.  Equal codes along both paths give an
    isomorphism of the subtrees of a and b that maps x to y.  Both
    subtrees meet the rest of the graph only through their edges to the
    common parent (and, for two central vertices, the edge between them),
    so exchanging them keeps every edge, and S is the mask of those two
    subtrees.  On a tree any root would make the swaps automorphisms; the
    centre, which every automorphism fixes, makes equal keys mean the same
    orbit.  Two twins u < v share a virtual parent or are pendants at one
    vertex (see hanging_forest), and v gets ``{u, v}``: their
    transposition keeps every edge, since N(u) - {v} = N(v) - {u}.
    """
    if forest is None:
        forest = hanging_forest(g, tp)
    parent, mask = forest.parent, forest.mask
    swaps: list[tuple[int, ...]] = [()] * g.n
    for members in forest.groups.values():
        for i in range(1, len(members)):
            x = members[i]
            found: dict[int, None] = {}
            for y in members[:i]:
                a, b = x, y
                while parent[a] != parent[b]:
                    a, b = parent[a], parent[b]
                found[mask[a] | mask[b]] = None
            swaps[x] = tuple(found)
    return tuple(swaps)


def _are_twins(nbr_sets: dict[int, set[int]], u: int, v: int) -> bool:
    return nbr_sets[u] - {v} == nbr_sets[v] - {u}


def twin_partition(g: Graph) -> TwinPartition:
    """Group the vertices into twin classes.

    Non-adjacent twins share their open neighbourhood N(v), adjacent twins
    their closed one N[v], so the classes are the groups of vertices with
    equal sorted adjacency, or with equal adjacency plus the vertex itself.
    No vertex has twins of both kinds: if N(u) = N(v) and N[v] = N[w], then
    w is in N(v) = N(u), so u is in N[w] = N[v] and u ~ v, a contradiction.
    Every intra-class pair is then re-verified by the pairwise relation so
    that a non-transitive outcome (impossible for a correct implementation)
    raises RelationNotTransitive instead of producing a silently wrong
    partition.
    """
    # label[v] is the least member of v's class: the first vertex seen
    # with v's open neighbourhood or, failing that, with its closed one
    adj = g.adjacency
    label = list(range(g.n))
    first_open: dict[tuple[int, ...], int] = {}
    first_closed: dict[tuple[int, ...], int] = {}
    for v, nbrs in enumerate(adj):
        u = first_open.setdefault(nbrs, v)
        if u == v:
            u = first_closed.setdefault(tuple(sorted((v, *nbrs))), v)
        label[v] = u
    members: dict[int, list[int]] = {}
    for v, least in enumerate(label):
        members.setdefault(least, []).append(v)
    classes = tuple(map(tuple, members.values()))

    nbr_sets = {v: set(adj[v]) for cls in classes if len(cls) > 1 for v in cls}
    for cls in classes:
        for i, u in enumerate(cls):
            for v in cls[i + 1:]:
                if not _are_twins(nbr_sets, u, v):
                    raise RelationNotTransitive(
                        f"vertices {u} and {v} share class {cls} but are not twins"
                    )
    return TwinPartition(classes)


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product: (a, b) ~ (a', b') iff equal in one coordinate and
    adjacent in the other.  Vertex (a, b) gets id ``a * h.n + b``."""
    hn = h.n
    edges: list[tuple[int, int]] = []
    for a, g_nbrs in enumerate(g.adjacency):
        for b, h_nbrs in enumerate(h.adjacency):
            vid = a * hn + b
            for b2 in h_nbrs:
                if b2 > b:
                    edges.append((vid, a * hn + b2))
            for a2 in g_nbrs:
                if a2 > a:
                    edges.append((vid, a2 * hn + b))
    return build_graph(g.n * hn, edges)
