"""Simple undirected graphs over dense integer ids 0..n-1.

Everything downstream (distance multisets, subset search, family
generators) works on these three immutable structures: the graph itself,
its all-pairs hop-count matrix, and the partition of vertices into twin
classes.  Vertices are dense ints so that vertex subsets stay cheap to
enumerate, compare and hash.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field


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


@dataclass(frozen=True)
class Graph:
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
        return [(u, v) for u in range(self.n) for v in self.adjacency[u] if u < v]

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2


@dataclass(frozen=True)
class DistanceMatrix:
    """All-pairs hop counts of a connected graph; ``d[u][v]`` is the distance."""

    n: int
    d: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class TwinPartition:
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


@dataclass(frozen=True)
class MajorVertexReport:
    """Major vertices (degree >= 3) and the pendant vertices they own.

    A pendant u is a terminal of major v when u is strictly closer to v
    than to every other major vertex.  ``sigma`` counts all terminals,
    ``ex`` counts majors owning at least one.
    """

    majors: tuple[int, ...]
    terminals: dict[int, tuple[int, ...]] = field(compare=False)
    sigma: int = 0
    ex: int = 0


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
    dist = [-1] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        for v in g.adjacency[u]:
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
    return DistanceMatrix(g.n, tuple(rows))


def diameter(dm: DistanceMatrix) -> int:
    """Largest entry of the distance matrix (0 for the one-vertex graph)."""
    return max((max(row) for row in dm.d), default=0)


def is_path(g: Graph) -> bool:
    """True when g is a path graph P_n (n >= 1), under any labelling."""
    if g.n == 0:
        return False
    if g.n == 1:
        return True
    degs = [g.degree(v) for v in range(g.n)]
    if degs.count(1) != 2 or degs.count(2) != g.n - 2:
        return False
    return is_connected(g)


def path_endpoints(g: Graph) -> tuple[int, ...]:
    """Ascending ids of the degree-1 vertices (the single vertex for n=1)."""
    if g.n == 1:
        return (0,)
    return tuple(v for v in range(g.n) if g.degree(v) == 1)


def major_vertex_report(g: Graph, dm: DistanceMatrix) -> MajorVertexReport:
    """Classify majors (degree >= 3) and assign each pendant to its owner.

    A pendant with no strictly-closest major (tie, or no majors at all) is
    a terminal of nobody and does not count toward sigma.
    """
    majors = tuple(v for v in range(g.n) if g.degree(v) >= 3)
    terminals: dict[int, list[int]] = {v: [] for v in majors}
    if majors:
        pendants = [v for v in range(g.n) if g.degree(v) == 1]
        for u in pendants:
            best = min(majors, key=lambda w: dm.d[u][w])
            if all(dm.d[u][best] < dm.d[u][w] for w in majors if w != best):
                terminals[best].append(u)
    terms = {v: tuple(sorted(us)) for v, us in terminals.items()}
    sigma = sum(len(us) for us in terms.values())
    ex = sum(1 for us in terms.values() if us)
    return MajorVertexReport(majors=majors, terminals=terms, sigma=sigma, ex=ex)


def _are_twins(g: Graph, nbr_sets: list[set[int]], u: int, v: int) -> bool:
    return nbr_sets[u] - {v} == nbr_sets[v] - {u}


def twin_partition(g: Graph) -> TwinPartition:
    """Group the vertices into twin classes.

    The pairwise relation is checked directly on every vertex pair, the
    classes are the connected components of that relation, and every
    intra-class pair is then re-verified so that a non-transitive outcome
    (impossible for a correct implementation) raises RelationNotTransitive
    instead of producing a silently wrong partition.
    """
    n = g.n
    nbr_sets = [set(g.adjacency[v]) for v in range(n)]
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u in range(n):
        for v in range(u + 1, n):
            if _are_twins(g, nbr_sets, u, v):
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[max(ru, rv)] = min(ru, rv)

    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    classes = tuple(tuple(sorted(c)) for c in sorted(groups.values()))

    for cls in classes:
        for i, u in enumerate(cls):
            for v in cls[i + 1:]:
                if not _are_twins(g, nbr_sets, u, v):
                    raise RelationNotTransitive(
                        f"vertices {u} and {v} share class {cls} but are not twins"
                    )
    return TwinPartition(classes)


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product: (a, b) ~ (a', b') iff equal in one coordinate and
    adjacent in the other.  Vertex (a, b) gets id ``a * h.n + b``."""
    edges: list[tuple[int, int]] = []
    for a in range(g.n):
        for b in range(h.n):
            vid = a * h.n + b
            for b2 in h.adjacency[b]:
                if b2 > b:
                    edges.append((vid, a * h.n + b2))
            for a2 in g.adjacency[a]:
                if a2 > a:
                    edges.append((vid, a2 * h.n + b))
    return build_graph(g.n * h.n, edges)
