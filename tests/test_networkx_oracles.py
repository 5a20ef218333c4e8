"""Distances, twin classes and connected-class counts against networkx,
an independent implementation.  Skipped when networkx is not installed;
mdim itself does not depend on it."""

from random import Random

import pytest

nx = pytest.importorskip("networkx")

from networkx.algorithms.isomorphism import GraphMatcher, categorical_node_match

from mdim import (
    all_pairs_distances,
    build_graph,
    detect_infinite,
    major_vertex_report,
    md_lower_bound,
    twin_partition,
)
from mdim.graph import hanging_forest, symmetry_swap_masks
from mdim.resolving import TABLE_ORDER, subtree_patterns
from mdim.harness import scan_small_graphs
from helpers import (
    random_connected_graph,
    random_hanging_graph,
    random_symmetric_tree,
    random_twinned_graph,
    shuffled,
    twin_and_leg_masks,
)


def random_graphs():
    rng = Random(2024)
    for _ in range(60):
        n = rng.randint(2, 12)
        yield random_connected_graph(rng, n, extra=rng.choice([0.0, 0.1, 0.3, 0.6]))


def to_networkx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def test_distances_match_networkx():
    for g in random_graphs():
        expected = dict(nx.all_pairs_shortest_path_length(to_networkx(g)))
        d = all_pairs_distances(g).d
        assert [[expected[u][v] for v in range(g.n)] for u in range(g.n)] == [
            list(row) for row in d
        ], g.edges()


def test_twin_classes_match_neighbourhood_comparison():
    # u, v are twins when N(u) - {v} == N(v) - {u}; twinhood is an
    # equivalence relation, so each vertex's class is its twins plus itself
    for g in random_graphs():
        h = to_networkx(g)
        classes = {
            tuple(u for u in h if u == v or set(h[u]) - {v} == set(h[v]) - {u})
            for v in h
        }
        assert twin_partition(g).classes == tuple(sorted(classes)), g.edges()


def moves_below(h, fixed, x):
    """True when some automorphism of h fixes every vertex in ``fixed``
    and maps x to a smaller id: a search for an isomorphism from h with x
    marked to h with y marked, for each y < x, the fixed vertices marked
    by themselves."""
    match = categorical_node_match("mark", None)
    src = h.copy()
    for p in fixed:
        src.nodes[p]["mark"] = p
    src.nodes[x]["mark"] = "x"
    for y in range(x):
        if y in fixed:
            continue
        dst = h.copy()
        for p in fixed:
            dst.nodes[p]["mark"] = p
        dst.nodes[y]["mark"] = "x"
        if GraphMatcher(src, dst, node_match=match).is_isomorphic():
            return True
    return False


def test_swap_masks_are_automorphisms():
    # every stored mask S of x: with any landmarks P outside S fixed, some
    # automorphism still moves x to a smaller id, which is what lets the
    # landmark search skip x; P = all of V - S is the hardest case
    rng = Random(6)
    centres = set()
    for i in range(150):
        n = rng.randint(3, 9)
        t = (
            random_symmetric_tree(rng, n)
            if i % 2
            else shuffled(rng, random_connected_graph(rng, n, extra=0.0))
        )
        h = to_networkx(t)
        swaps = symmetry_swap_masks(t, twin_partition(t))
        if any(swaps):
            centres.add(len(nx.center(h)))
        for x, masks in enumerate(swaps):
            for s in masks:
                outside = [v for v in range(n) if not s >> v & 1]
                prefixes = [outside] + [
                    rng.sample(outside, rng.randint(0, len(outside))) for _ in range(3)
                ]
                for fixed in prefixes:
                    assert moves_below(h, set(fixed), x), (t.edges(), x, s, fixed)
    assert centres == {1, 2}


def core_twin_graph(rng):
    """K_{a,b} (a from 3 to 4, b from 2 to 4) or K_a (a from 4 to 5), whose
    twin classes of three or more lie in the 2-core, with one or two legs
    of 1 to 3 vertices hung from random vertices; the ids are shuffled."""
    if rng.random() < 0.5:
        a, b = rng.randint(3, 4), rng.randint(2, 4)
        edges = [(u, a + v) for u in range(a) for v in range(b)]
    else:
        a, b = rng.randint(4, 5), 0
        edges = [(u, v) for u in range(a) for v in range(u + 1, a)]
    n = a + b
    for _ in range(rng.randint(1, 2)):
        prev = rng.randrange(a + b)
        for _ in range(rng.randint(1, 3)):
            edges.append((prev, n))
            prev, n = n, n + 1
    return shuffled(rng, build_graph(n, edges))


def test_hanging_and_twin_masks_are_automorphisms():
    # the same oracle for the swaps of symmetry_swap_masks on graphs with
    # cycles: isomorphic subtrees hanging from one parent, or two twins;
    # the hanging graphs hang trees that are not paths, whose masks are
    # neither a twin pair nor two equal legs of one major, and the core
    # twin graphs hold twin classes of three or more in their 2-core
    rng = Random(18)
    masks_seen = hanging = in_core = 0
    for i in range(160):
        if i >= 120:
            g = core_twin_graph(rng)
        elif i % 3:
            g = random_twinned_graph(rng, rng.randint(6, 9), extra=rng.choice([0.1, 0.3]))
        else:
            g = random_hanging_graph(rng, rng.randint(9, 11), extra=rng.choice([0.1, 0.3]))
        if g.edge_count < g.n:
            continue
        h = to_networkx(g)
        tp, known = twin_partition(g), twin_and_leg_masks(g)
        for x, masks in enumerate(symmetry_swap_masks(g, tp)):
            for s in masks:
                masks_seen += 1
                hanging += s not in known
                in_core += i >= 120 and s.bit_count() == 2 and h.degree(x) >= 2
                outside = {v for v in range(g.n) if not s >> v & 1}
                assert moves_below(h, outside, x), (g.edges(), x, s)
    # 600 masks: on the first 120 graphs 449, 152 of them neither twins
    # nor equal legs, and on the 40 core twin graphs 151, 149 of them a
    # transposition of two twins in the 2-core
    assert masks_seen >= 450
    assert hanging >= 110
    assert in_core >= 110


def test_swap_masks_empty_off_symmetric_trees():
    g = random_connected_graph(Random(1), 8, extra=0.5)
    assert g.edge_count > g.n - 1
    assert twin_partition(g).classes == tuple((v,) for v in range(8))
    assert symmetry_swap_masks(g, twin_partition(g)) == ((),) * 8
    # n - 1 edges but no tree: a 5-cycle and an isolated vertex, with no
    # twins
    c5 = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert symmetry_swap_masks(c5, twin_partition(c5)) == ((),) * 6
    # the spider with legs of length 1, 2 and 3 has no automorphism
    spider = build_graph(7, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6)])
    h = to_networkx(spider)
    assert sum(1 for _ in GraphMatcher(h, h).isomorphisms_iter()) == 1
    assert symmetry_swap_masks(spider, twin_partition(spider)) == ((),) * 7


def test_subtree_patterns_never_above_other_rules_below_table_order():
    # md_lower_bound leaves its subtree-patterns rule out below order
    # TABLE_ORDER; this is why.  On each of the 996 connected classes of
    # order 7 or less the rule, taken on its own, is at most the bound of
    # the other rules and meets it on 53 of them, except on the 140
    # classes where it reads n + 1, each of which detect_infinite already
    # answers
    assert TABLE_ORDER <= 8
    classes = met = over = 0
    for h in nx.graph_atlas_g()[1:]:
        if not nx.is_connected(h):
            continue
        g = build_graph(len(h), list(h.edges()))
        dm, tp = all_pairs_distances(g), twin_partition(g)
        lb = md_lower_bound(g, dm, tp, major_vertex_report(g, dm))
        assert "subtree-patterns" not in lb.bounds
        rule = subtree_patterns(hanging_forest(g, tp))
        if rule > lb.value:
            assert rule == g.n + 1, (g.edges(), rule, lb.bounds)
            assert detect_infinite(g, dm, tp) is not None, g.edges()
            over += 1
        classes += 1
        met += rule == lb.value
    assert classes == 996
    assert met >= 45
    assert over >= 120


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_dedup_scan_counts_connected_classes(n):
    atlas = [h for h in nx.graph_atlas_g() if len(h) == n and nx.is_connected(h)]
    assert scan_small_graphs(n, dedup=True).graphs_connected == len(atlas)
