"""Shared builders for tests: independent of the families module so they can
serve as oracles for it."""

from functools import cache
from itertools import combinations, permutations
from random import Random

from mdim import (
    DistanceMatrix,
    Graph,
    all_pairs_distances,
    build_graph,
    major_vertex_report,
    twin_partition,
)
from mdim.harness import ScanReport, scan_small_graphs


def path_graph(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return build_graph(n, list(combinations(range(n), 2)))


def star_graph(leaves: int) -> Graph:
    return build_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def binary_tree(height: int) -> Graph:
    n = 2 ** (height + 1) - 1
    return build_graph(n, [((v - 1) // 2, v) for v in range(1, n)])


def random_connected_graph(rng: Random, n: int, extra: float = 0.25) -> Graph:
    """Random spanning tree plus independent extra edges."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < extra:
                edges.add((u, v))
    return build_graph(n, sorted(edges))


def all_connected_graphs(n: int):
    """Every connected labelled graph on n vertices, ascending edge-mask order."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        edges = [p for b, p in enumerate(pairs) if mask >> b & 1]
        adj = {v: set() for v in range(n)}
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        seen, stack = {0}, [0]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) == n:
            yield build_graph(n, edges)


def terminals_by_distance(g: Graph, dm: DistanceMatrix) -> dict[int, tuple[int, ...]]:
    """The terminals of each major (degree >= 3) by their definition, read
    from the distance matrix ``dm``: the pendants strictly closer to it than
    to every other major, ascending."""
    majors = [v for v, nbrs in enumerate(g.adjacency) if len(nbrs) >= 3]
    return {
        v: tuple(
            u
            for u, row in enumerate(dm.d)
            if len(g.adjacency[u]) == 1 and all(row[v] < row[w] for w in majors if w != v)
        )
        for v in majors
    }


@cache
def connected_graphs_up_to(n: int) -> tuple[Graph, ...]:
    """Every connected labelled graph of order 1..n, built once per test run
    because several exhaustive tests walk the same set."""
    return tuple(g for k in range(1, n + 1) for g in all_connected_graphs(k))


@cache
def labelled_scan(n: int) -> ScanReport:
    """``scan_small_graphs(n)``, run once per test run because the order-6
    scan takes seconds.  Only for tests that patch nothing, since a report
    taken under a patch would be cached for every later caller, and that
    leave the report as they found it, since every caller shares it."""
    return scan_small_graphs(n)


def least_relabelling(n: int, mask: int) -> int:
    """The least edge bitmask of any vertex relabelling of the n-vertex
    graph ``mask``, whose bit b is the b-th pair of combinations(range(n),
    2), by trying all n! permutations."""
    pairs = list(combinations(range(n), 2))
    bit = {p: 1 << b for b, p in enumerate(pairs)}
    edges = [p for b, p in enumerate(pairs) if mask >> b & 1]
    return min(
        sum(bit[(min(p[u], p[v]), max(p[u], p[v]))] for u, v in edges)
        for p in permutations(range(n))
    )


def orbit_leaders(n: int) -> list[int]:
    """The least edge bitmask of the relabelling orbit of each n-vertex
    graph, indexed by its edge bitmask (bits as in ``least_relabelling``).
    One ascending walk meets each orbit first at its least mask and lists
    the orbit there, as ``harness.scan_small_graphs`` does by classes, so
    the n! permutations are tried once per orbit, not once per graph."""
    pairs = list(combinations(range(n), 2))
    bit = {p: 1 << b for b, p in enumerate(pairs)}
    # entry b of a table is the bit value of the image of edge bit b
    tables = [
        [bit[(min(p[u], p[v]), max(p[u], p[v]))] for u, v in pairs]
        for p in permutations(range(n))
    ]
    leader = [-1] * (1 << len(pairs))
    for mask, least in enumerate(leader):
        if least < 0:
            bits = [b for b in range(len(pairs)) if mask >> b & 1]
            for table in tables:
                leader[sum(table[b] for b in bits)] = mask
    return leader


def shuffled(rng: Random, g: Graph) -> Graph:
    """g with its vertex ids permuted at random."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def random_symmetric_tree(rng: Random, n: int) -> Graph:
    """Random tree of order n (n >= 3) built around copies of one random
    rooted tree, so that most have automorphisms: two or three copies hang
    from a hub, or two copies are joined at their roots (a central edge
    when nothing else is added).  The remaining vertices each join a random
    earlier vertex, and the ids are shuffled."""
    copies = 3 if n >= 4 and rng.random() < 0.5 else 2
    joined = copies == 2 and rng.random() < 0.5
    size = rng.randint(1, (n - (not joined)) // copies)
    shape = [rng.randrange(v) for v in range(1, size)]
    hub = 0 if joined else 1
    edges = [] if joined else [(0, 1 + c * size) for c in range(copies)]
    for c in range(copies):
        root = hub + c * size
        edges += [(root + p, root + v) for v, p in enumerate(shape, start=1)]
    if joined:
        edges.append((0, size))
    for v in range(len(edges) + 1, n):
        edges.append((rng.randrange(v), v))
    return shuffled(rng, build_graph(n, edges))


def random_legged_graph(rng: Random, n: int, extra: float = 0.0) -> Graph:
    """Random connected graph of order n whose majors carry pendant paths: a
    core of a third to a half of the vertices (a random spanning tree plus
    independent extra edges, so cycles when ``extra`` > 0), then groups of
    2 to 4 legs of 1 to 3 vertices, each group hung from one random core
    vertex, until the order is reached.  The ids are shuffled."""
    core = rng.randint(max(2, n // 3), n // 2)
    edges = {(rng.randrange(v), v) for v in range(1, core)}
    for u in range(core):
        for v in range(u + 1, core):
            if (u, v) not in edges and rng.random() < extra:
                edges.add((u, v))
    end = core
    while end < n:
        hub = rng.randrange(core)
        for _ in range(rng.randint(2, 4)):
            prev, stop = hub, min(end + rng.randint(1, 3), n)
            for v in range(end, stop):
                edges.add((prev, v))
                prev = v
            end = stop
    return shuffled(rng, build_graph(n, sorted(edges)))


def random_twinned_graph(rng: Random, n: int, extra: float = 0.1) -> Graph:
    """Random connected graph of order n with twins and legs: a
    ``random_legged_graph`` of order n - t, t from 1 to n // 3, then t
    clones, each a new vertex given the neighbours of a random earlier
    vertex (a false twin of it) and, half the time, that vertex too (a
    true twin).  A clone of a vertex that has twins joins its class.  The
    ids are shuffled."""
    t = rng.randint(1, n // 3)
    adj = [set(nbrs) for nbrs in random_legged_graph(rng, n - t, extra).adjacency]
    for w in range(n - t, n):
        v = rng.randrange(w)
        adj.append(adj[v] | {v} if rng.random() < 0.5 else set(adj[v]))
        for u in adj[w]:
            adj[u].add(w)
    edges = [(u, v) for u, nbrs in enumerate(adj) for v in nbrs if u < v]
    return shuffled(rng, build_graph(n, edges))


def random_hanging_graph(rng: Random, n: int, extra: float = 0.2) -> Graph:
    """Random connected graph of order n (n >= 9) with a cycle and two or
    three copies of one random rooted tree whose root has two or more
    children, so no copy is a path, each copy joined by its root to the
    same vertex of the core.  The core is a triangle 0, 1, 2 grown by a
    random spanning tree to the order left over, plus independent extra
    edges; the ids are shuffled."""
    copies = 3 if n >= 12 and rng.random() < 0.5 else 2
    size = rng.randint(3, (n - 3) // copies)
    # shape[v - 1] is the parent of vertex v of the copy, whose root is 0
    shape = [0, 0, *(rng.randrange(v) for v in range(3, size))]
    core = n - copies * size
    edges = {(0, 1), (1, 2), (0, 2)} | {(rng.randrange(v), v) for v in range(3, core)}
    for u in range(core):
        for v in range(u + 1, core):
            if (u, v) not in edges and rng.random() < extra:
                edges.add((u, v))
    hub = rng.randrange(core)
    for c in range(copies):
        root = core + c * size
        edges.add((hub, root))
        edges |= {(root + p, root + v) for v, p in enumerate(shape, start=1)}
    return shuffled(rng, build_graph(n, sorted(edges)))


def twin_and_leg_masks(g: Graph) -> set[int]:
    """The vertex masks of every twin pair and of every two legs of equal
    length at one major of ``major_vertex_report``: the swaps that do not
    need a hanging subtree other than a path."""
    legs = major_vertex_report(g, all_pairs_distances(g)).legs.values()
    twins = {1 << u | 1 << v for c in twin_partition(g).classes for u in c for v in c if u < v}
    return twins | {
        sum(1 << v for v in (*a, *b))
        for group in legs
        for a in group
        for b in group
        if a < b and len(a) == len(b)
    }
