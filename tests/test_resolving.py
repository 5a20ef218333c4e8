import math
from itertools import combinations
from random import Random

import pytest

from mdim import (
    CertificateKind,
    all_pairs_distances,
    brute_force_md,
    build_graph,
    detect_infinite,
    dim_lower_bound,
    is_m_resolving,
    is_metric_resolving,
    major_vertex_report,
    md_lower_bound,
    order_diameter_lower_bound,
    representation,
    twin_partition,
)
from mdim.families import FamilySpec, generate, parse_family_spec
from mdim.graph import hanging_forest
from mdim.resolving import least_resolving_set, subtree_patterns
from helpers import (
    binary_tree,
    complete_graph,
    connected_graphs_up_to,
    cycle_graph,
    orbit_leaders,
    path_graph,
    random_connected_graph,
    random_hanging_graph,
    random_legged_graph,
    random_symmetric_tree,
    star_graph,
)


def dm_of(g):
    return all_pairs_distances(g)


class TestRepresentation:
    def test_cycle8(self):
        assert representation(dm_of(cycle_graph(8)), 2, (0, 1, 3)) == (1, 1, 2)

    def test_grid_3x3_inner(self):
        dm = dm_of(generate(FamilySpec.grid(3, 3)))
        # vertex in row 2, column 1 against the corner landmarks
        assert representation(dm, 3, (0, 1, 6)) == (1, 1, 2)

    @pytest.mark.parametrize("seed", range(5))
    def test_zero_membership(self, seed):
        rng = Random(seed)
        g = random_connected_graph(rng, rng.randint(2, 8))
        dm = dm_of(g)
        w = tuple(sorted(rng.sample(range(g.n), rng.randint(1, g.n))))
        for v in range(g.n):
            rep = representation(dm, v, w)
            assert len(rep) == len(w)
            assert rep.count(0) == (1 if v in w else 0)


class TestMultisetResolving:
    def test_cycle6_landmarks(self):
        assert is_m_resolving(dm_of(cycle_graph(6)), (0, 1, 3)).resolving

    def test_k4_pairs_always_collide(self):
        dm = dm_of(complete_graph(4))
        report = is_m_resolving(dm, (0, 1))
        assert not report.resolving
        u, v, rep = report.first_collision
        assert (u, v) == (0, 1) and rep == (0, 1)

    def test_p4_endpoints_collide(self):
        dm = dm_of(path_graph(4))
        report = is_m_resolving(dm, (0, 3))
        assert not report.resolving
        # scan order finds the middle pair first; the endpoints collide too
        assert report.first_collision == (1, 2, (1, 2))
        assert representation(dm, 0, (0, 3)) == representation(dm, 3, (0, 3)) == (0, 3)

    def test_empty_set(self):
        assert is_m_resolving(dm_of(path_graph(1)), ()).resolving
        assert not is_m_resolving(dm_of(path_graph(2)), ()).resolving


class TestMetricResolving:
    def test_path_endpoint(self):
        assert is_metric_resolving(dm_of(path_graph(5)), (0,)).resolving

    def test_cycle6(self):
        dm = dm_of(cycle_graph(6))
        assert is_metric_resolving(dm, (0, 1)).resolving
        report = is_metric_resolving(dm, (0, 3))
        assert not report.resolving

    @pytest.mark.parametrize("seed", range(8))
    def test_multiset_implies_metric(self, seed):
        rng = Random(seed)
        g = random_connected_graph(rng, rng.randint(2, 8))
        dm = dm_of(g)
        w = sorted(rng.sample(range(g.n), rng.randint(1, g.n)))
        if is_m_resolving(dm, w).resolving:
            assert is_metric_resolving(dm, w).resolving
            shuffled = list(w)
            rng.shuffle(shuffled)
            assert is_metric_resolving(dm, shuffled).resolving


class TestOrderDiameterBound:
    def oracle(self, n, d):
        k = 1
        while math.factorial(k + d - 1) // (math.factorial(k) * math.factorial(d - 1)) + k < n:
            k += 1
        return k

    @pytest.mark.parametrize("n", range(2, 40))
    def test_path_zone_is_one(self, n):
        assert order_diameter_lower_bound(n, n - 1) == 1

    def test_known_values(self):
        assert order_diameter_lower_bound(13, 2) == 6
        assert all(order_diameter_lower_bound(1, d) == 1 for d in range(1, 11))

    def test_against_factorial_oracle(self):
        for n in range(1, 101):
            for d in range(1, 21):
                assert order_diameter_lower_bound(n, d) == self.oracle(n, d)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            order_diameter_lower_bound(0, 3)
        with pytest.raises(ValueError):
            order_diameter_lower_bound(5, 0)


def lower_bound_of(g):
    dm = dm_of(g)
    return md_lower_bound(g, dm, twin_partition(g), major_vertex_report(g, dm))


def hubs_on_triangle(copies, legs, length):
    """The triangle 0-1-2 with ``copies`` new vertices joined to 0, each
    the hub of ``legs`` legs of ``length`` vertices."""
    edges, n = [(0, 1), (1, 2), (0, 2)], 3
    for _ in range(copies):
        hub, n = n, n + 1
        edges.append((0, hub))
        for _ in range(legs):
            edges += zip([hub, *range(n, n + length - 1)], range(n, n + length))
            n += length
    return build_graph(n, edges)


class TestMdLowerBound:
    def test_path(self):
        assert lower_bound_of(path_graph(7)).value == 1

    def test_binary_tree_h3(self):
        lb = lower_bound_of(binary_tree(3))
        assert lb.value == 7
        assert lb.bounds["terminal-count"] == 4
        assert lb.bounds["twin-pairs"] == 4
        assert lb.bounds["order-diameter"] == 2
        # each major of the lowest level carries two legs of one leaf, so
        # the leg patterns ask for one landmark each, as the terminals do
        assert lb.bounds["leg-patterns"] == 4
        # the two halves under the root carry non-isomorphic asymmetric
        # markings; a half's least ones hold 3 and 4 landmarks
        assert lb.bounds["subtree-patterns"] == 7
        assert lb.achieved_by == ("subtree-patterns",)

    def test_binary_trees_need_all_but_one_per_level(self):
        # md(binary_tree(h)) = 2^h - 1 is reached by the bounds alone, with
        # no search: below order 8 (h = 2) by the non-path rule, from h = 3
        # on by the subtree patterns, through h = 9 (1,023 vertices)
        for h in range(2, 10):
            lb = lower_bound_of(binary_tree(h))
            assert lb.value == 2**h - 1, h
            assert lb.bounds.get("subtree-patterns", 2**h - 1) == 2**h - 1, h

    @pytest.mark.parametrize(
        "graph, value",
        [
            # more siblings than marking classes, so no set m-resolves and
            # the rule reads n + 1: on karytree:3x3 (n = 40) three leaves
            # share a parent and two classes cannot tell them apart, the
            # eight legs of substar:8x2 (n = 17) have four subsets of 1..2,
            # and in cextree (n = 10) two leaves under one vertex already
            # take both leaf classes, so three such cherries have too few
            ("karytree:3x3", 41),
            ("substar:8x2", 18),
            ("cextree", 11),
            ("substar:9x4", 12),
            ("substar:7x6", 6),
            ("karytree:2x5", 31),
            # the legs at each hub are a group nested in the group of
            # hubs, and count within the hubs' markings
            pytest.param((2, 5, 10), 9, id="hubs:2x5x10"),
            pytest.param((3, 6, 30), 16, id="hubs:3x6x30"),
        ],
    )
    def test_subtree_patterns_pinned(self, graph, value):
        if isinstance(graph, str):
            g = generate(parse_family_spec(graph))
        else:
            g = hubs_on_triangle(*graph)
        assert subtree_patterns(hanging_forest(g, twin_partition(g))) == value

    def test_subtree_patterns_past_n_only_without_resolving_set(self):
        # the rule reads n + 1 when a group of c isomorphic siblings has
        # fewer than c classes of asymmetric markings; on each graph where
        # it does, the unpruned walk finds no resolving set.  Of the 200
        # seeded graphs with copies of one tree hung from the 2-core, 49
        # read n + 1, 35 of them with no detector certificate; counting
        # every marking instead of the asymmetric ones leaves one of those
        rng = Random(31)
        graphs = [
            random_hanging_graph(rng, rng.randint(10, 12), rng.choice([0.0, 0.1, 0.25]))
            for _ in range(200)
        ]
        graphs.append(generate(parse_family_spec("substar:5x2")))
        proved = 0
        for g in graphs:
            dm, tp = dm_of(g), twin_partition(g)
            rule = subtree_patterns(hanging_forest(g, tp))
            assert rule <= g.n or rule == g.n + 1, g.edges()
            if rule > g.n:
                assert brute_force_md(g).is_infinite, g.edges()
                proved += detect_infinite(g, dm, tp) is None
        # substar:5x2, the last graph: five legs of two vertices, which
        # have four landmark patterns
        assert rule == 12
        assert proved >= 30

    def test_subtree_patterns_on_deep_subtrees(self):
        # two paths of 1,200 vertices hung from a 5-cycle, each ending in a
        # vertex with two leaves: far deeper than Python's recursion limit.
        # The end with its leaves has markings x + x^2, each path vertex
        # above it multiplies them by 1 + x, and the two copies take the
        # least sizes 1 and 2
        edges, n = [(i, (i + 1) % 5) for i in range(5)], 5
        for _ in range(2):
            edges += zip([0, *range(n, n + 1199)], range(n, n + 1200))
            edges += [(n + 1199, n + 1200), (n + 1199, n + 1201)]
            n += 1202
        g = build_graph(n, edges)
        assert subtree_patterns(hanging_forest(g, twin_partition(g))) == 3

    def test_cycle9(self):
        lb = lower_bound_of(cycle_graph(9))
        assert lb.value == 3
        assert lb.achieved_by == ("non-path",)

    def test_every_rule_below_md(self):
        # every connected graph of order <= 6, seeded legged graphs of
        # order 10-12, small spiders, and seeded trees built around copies
        # of one subtree and graphs with copies of one tree hung from the
        # 2-core, of order 10-12.  A pattern rule that is never above
        # every other rule could count wrong and stay below md, so the
        # check must see a graph with a finite md where each one is (the
        # subtree patterns read n + 1 where no set resolves).  On the
        # spiders the subtree patterns count the legs as leg-patterns
        # does, so leg-patterns is above every other rule on the graph with four
        # legs of two vertices at one major and legs of one and two
        # vertices at a second: the terminals ask for a landmark on one of
        # the unequal legs, and md is 5.  The patterns are counted per
        # major: two joined majors with two legs of two vertices each have
        # md 3, and the four legs taken as one group would ask for four
        # landmarks
        rng = Random(29)
        legged = [
            random_legged_graph(rng, rng.randint(10, 12), extra=rng.choice([0.0, 0.1, 0.25]))
            for _ in range(200)
        ]
        rng = Random(30)
        hanging = [random_symmetric_tree(rng, rng.randint(10, 12)) for _ in range(50)]
        hanging += [random_hanging_graph(rng, rng.randint(10, 12)) for _ in range(50)]
        named = [
            generate(FamilySpec.subdivided_star(n, p))
            for n, p in ((4, 2), (3, 3), (4, 3), (5, 2), (6, 2))
        ]
        named.append(
            build_graph(
                10, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (1, 6), (6, 7), (1, 8), (8, 9)]
            )
        )
        named.append(
            build_graph(
                13,
                [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6), (0, 7), (7, 8), (0, 9),
                 (9, 10), (9, 11), (11, 12)],
            )
        )
        # md and every rule are invariant under relabelling, so md is taken
        # once per isomorphism class of order <= 6, keyed by the least edge
        # bitmask of the class, and the rules on every labelled graph
        leaders = {n: orbit_leaders(n) for n in range(1, 7)}
        bits = {n: {p: 1 << b for b, p in enumerate(combinations(range(n), 2))} for n in leaders}
        mds = {}
        above = dict.fromkeys(("leg-patterns", "subtree-patterns"), 0)
        for g in (*connected_graphs_up_to(6), *legged, *hanging, *named):
            bounds = lower_bound_of(g).bounds
            if g.n in leaders:
                key = g.n, leaders[g.n][sum(bits[g.n][e] for e in g.edges())]
                if key not in mds:
                    mds[key] = brute_force_md(g)
                md = mds[key]
            else:
                md = brute_force_md(g)
            if md.is_finite:
                for rule, value in bounds.items():
                    assert value <= md.value, (rule, value, md.value, g.edges())
                for rule in above:
                    others = [value for other, value in bounds.items() if other != rule]
                    above[rule] += bounds.get(rule, 0) > max(others)
        assert min(above.values()) >= 1, above


def bound_graphs():
    """Every connected graph of order <= 6, then seeded random graphs of
    order 7-10 at densities 0.2-0.8."""
    yield from connected_graphs_up_to(6)
    rng = Random(5)
    for _ in range(150):
        yield random_connected_graph(
            rng, rng.randint(7, 10), extra=rng.choice([0.2, 0.4, 0.6, 0.8])
        )


class TestDimLowerBound:
    RULES = {"trivial", "non-path", "terminal-count", "twin-classes", "order-diameter"}

    def test_every_rule_below_dim_and_each_tight_somewhere(self):
        tight = set()
        for g in bound_graphs():
            dm = dm_of(g)
            lb = dim_lower_bound(g, dm, twin_partition(g), major_vertex_report(g, dm))
            dim = len(least_resolving_set(dm, ordered=True))
            for rule, value in lb.bounds.items():
                assert value <= dim, (rule, value, dim, g.edges())
                if value == dim:
                    tight.add(rule)
        assert tight == self.RULES

    def test_binary_tree_h3(self):
        g = binary_tree(3)
        dm = dm_of(g)
        lb = dim_lower_bound(g, dm, twin_partition(g), major_vertex_report(g, dm))
        assert lb.bounds == {
            "trivial": 1,
            "non-path": 2,
            "terminal-count": 4,
            "twin-classes": 4,
            "order-diameter": 2,
        }
        assert lb.achieved_by == ("terminal-count", "twin-classes")

    def test_complete_graph_twin_classes(self):
        g = complete_graph(5)
        dm = dm_of(g)
        lb = dim_lower_bound(g, dm, twin_partition(g), major_vertex_report(g, dm))
        # one class of 5: all but one vertex is a landmark; D = 1 gives the same
        assert (lb.bounds["twin-classes"], lb.bounds["order-diameter"]) == (4, 4)


class TestDetectInfinite:
    def detect(self, g):
        return detect_infinite(g, dm_of(g), twin_partition(g))

    def test_c5_diameter_certificate(self):
        cert = self.detect(cycle_graph(5))
        assert cert.kind is CertificateKind.DIAMETER_TWO_NON_PATH

    def test_star_with_tail_twin_certificate(self):
        # three pendants on one vertex, diameter pushed past 2 by a tail
        g = build_graph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (4, 5)])
        cert = self.detect(g)
        assert cert.kind is CertificateKind.LARGE_TWIN_CLASS
        assert cert.twin_class == (1, 2, 3)

    def test_star_k14(self):
        # both conditions hold here; the diameter test answers first
        cert = self.detect(star_graph(4))
        assert cert is not None
        assert cert.kind is CertificateKind.DIAMETER_TWO_NON_PATH

    def test_kary_tree_3_2(self):
        cert = self.detect(generate(FamilySpec.kary_tree(3, 2)))
        assert cert.kind is CertificateKind.LARGE_TWIN_CLASS

    def test_path_no_certificate(self):
        assert self.detect(path_graph(2)) is None

    def test_pendant_pair_tree_slips_through(self):
        g = generate(FamilySpec.counterexample_tree())
        assert self.detect(g) is None

    @pytest.mark.parametrize("seed", range(12))
    def test_sound_against_exhaustion(self, seed):
        rng = Random(seed)
        g = random_connected_graph(rng, rng.randint(2, 8), extra=0.5)
        if self.detect(g) is not None:
            assert brute_force_md(g).is_infinite


class TestWithinDistanceTwo:
    @pytest.mark.parametrize("seed", range(10))
    def test_flagged_sets_never_resolve(self, seed):
        # p >= 2 landmarks pairwise within distance 2 never multiset-resolve:
        # they would need the p distinct representations {0, 1^(p-1)} ..
        # {0, 2^(p-1)}, so one landmark would be at distance 1 and another
        # at distance 2 from all the rest, each other included
        rng = Random(seed)
        g = random_connected_graph(rng, rng.randint(2, 8), extra=0.4)
        dm = dm_of(g)
        for _ in range(20):
            w = rng.sample(range(g.n), rng.randint(2, g.n))
            if all(dm.d[u][v] <= 2 for u in w for v in w):
                assert not is_m_resolving(dm, w).resolving


@pytest.mark.parametrize("seed", range(10))
def test_resolving_sets_hit_twin_pairs_once(seed):
    rng = Random(seed)
    g = random_connected_graph(rng, rng.randint(3, 8), extra=0.35)
    dm = dm_of(g)
    pairs = twin_partition(g).pair_classes
    for _ in range(30):
        w = rng.sample(range(g.n), rng.randint(1, g.n))
        if is_m_resolving(dm, w).resolving:
            for cls in pairs:
                assert len(set(w) & set(cls)) == 1
