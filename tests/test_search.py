import gc
from itertools import combinations, product
from random import Random

import pytest

from mdim import (
    CertificateKind,
    Disconnected,
    OutcomeKind,
    SearchAborted,
    SearchConfig,
    all_pairs_distances,
    brute_force_md,
    build_graph,
    compute_dim,
    compute_md,
    detect_infinite,
    dim_lower_bound,
    is_m_resolving,
    is_metric_resolving,
    is_path,
    major_vertex_report,
    md_lower_bound,
    twin_partition,
    verify_witness,
)
from mdim.families import FamilySpec, generate, parse_family_spec
from mdim.graph import TwinPartition, symmetry_swap_masks
from mdim.harness import scan_small_graphs
from mdim.resolving import dim_distance_rules, first_collision, least_resolving_set
from mdim import graph, resolving, search
from mdim.search import Table, level_search
from helpers import (
    all_connected_graphs,
    complete_graph,
    connected_graphs_up_to,
    cycle_graph,
    path_graph,
    random_connected_graph,
    random_hanging_graph,
    random_legged_graph,
    random_symmetric_tree,
    random_twinned_graph,
    shuffled,
    terminals_by_distance,
    twin_and_leg_masks,
)


class TestComputeMd:
    def test_infinite_verdicts_are_shared(self):
        # every solve that exhausts its sizes, or that the diameter-2
        # detector answers, returns one shared record, not a copy per graph
        exhausted = [compute_md(generate(parse_family_spec(s))) for s in ("substar:8x2", "cextree")]
        assert exhausted[0] is exhausted[1]
        assert exhausted[0].certificate.kind is CertificateKind.EXHAUSTIVE_SEARCH
        diameter_two = [compute_md(g) for g in (cycle_graph(5), complete_graph(4))]
        assert diameter_two[0] is diameter_two[1]
        assert diameter_two[0].certificate.kind is CertificateKind.DIAMETER_TWO_NON_PATH

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_paths(self, n):
        outcome = compute_md(path_graph(n))
        assert outcome.is_finite
        assert (outcome.value, outcome.witness) == (1, (0,))

    def test_relabeled_path_takes_least_pendant(self):
        # path 1 - 0 - 2: pendants are 1 and 2
        outcome = compute_md(build_graph(3, [(0, 1), (0, 2)]))
        assert (outcome.value, outcome.witness) == (1, (1,))

    @pytest.mark.parametrize("n", range(6, 10))
    def test_cycles(self, n):
        outcome = compute_md(cycle_graph(n))
        assert (outcome.value, outcome.witness) == (3, (0, 1, 3))

    def test_small_cycles_infinite(self):
        for n in (3, 4, 5):
            outcome = compute_md(cycle_graph(n))
            assert outcome.is_infinite
            assert outcome.certificate.kind is CertificateKind.DIAMETER_TWO_NON_PATH

    def test_pendant_pair_tree_needs_exhaustion(self):
        # no detector fires; the subtree-patterns bound, 11, leaves the
        # search no size, and the verdict is the exhaustive-search one
        g = generate(FamilySpec.counterexample_tree())
        assert detect_infinite(g, all_pairs_distances(g), twin_partition(g)) is None
        outcome = compute_md(g)
        assert outcome.is_infinite
        assert outcome.certificate.kind is CertificateKind.EXHAUSTIVE_SEARCH

    @pytest.mark.parametrize("legs", range(9, 13))
    def test_subdivided_stars_of_three_vertex_legs_infinite(self, legs):
        # nine or more legs of three vertices at one hub, which have only
        # eight landmark patterns: the subtree-pattern bound is n + 1, so
        # no size is searched, under any labelling
        g = generate(FamilySpec.subdivided_star(legs, 3))
        rng = Random(legs)
        for h in (g, *(shuffled(rng, g) for _ in range(3))):
            dm, tp = all_pairs_distances(h), twin_partition(h)
            lb = md_lower_bound(h, dm, tp, major_vertex_report(h, dm))
            assert lb.bounds["subtree-patterns"] == lb.value == h.n + 1
            outcome = compute_md(h, SearchConfig(max_vertices=h.n))
            assert outcome.certificate.kind is CertificateKind.EXHAUSTIVE_SEARCH

    def test_binary_tree_h2(self):
        outcome = compute_md(generate(FamilySpec.kary_tree(2, 2)))
        assert (outcome.value, outcome.witness) == (3, (1, 3, 5))

    def test_substar_7x4(self):
        # 29 vertices, past the default cap; the leg-pattern bound is 8,
        # which is md, so size 8 is searched alone, in about 0.15 s with
        # the tree symmetry rule and the leg rule
        outcome = compute_md(
            generate(FamilySpec.subdivided_star(7, 4)), SearchConfig(max_vertices=29)
        )
        assert (outcome.value, outcome.witness) == (8, (1, 2, 5, 7, 9, 14, 19, 24))

    def test_nonmonotonicity_regression(self):
        dm = all_pairs_distances(path_graph(4))
        assert is_m_resolving(dm, (0,)).resolving
        assert not is_m_resolving(dm, (0, 3)).resolving

    def test_cap_aborts(self):
        with pytest.raises(SearchAborted, match="cap"):
            compute_md(cycle_graph(9), SearchConfig(max_vertices=4))

    def test_detectors_answer_above_cap(self):
        # certificates need no subset search, so the cap does not gag them
        outcome = compute_md(complete_graph(8), SearchConfig(max_vertices=4))
        assert outcome.is_infinite
        outcome = compute_md(path_graph(30), SearchConfig(max_vertices=4))
        assert (outcome.value, outcome.witness) == (1, (0,))


class TestComputeDim:
    @pytest.mark.parametrize("n", [1, 2, 4, 7])
    def test_paths(self, n):
        assert compute_dim(path_graph(n)) == (1, (0,))

    def test_c7(self):
        assert compute_dim(cycle_graph(7)) == (2, (0, 1))

    def test_spider_4_legs_length_2(self):
        value, _ = compute_dim(generate(FamilySpec.subdivided_star(4, 2)))
        assert value == 3

    def test_cap_raises(self):
        with pytest.raises(SearchAborted):
            compute_dim(cycle_graph(9), SearchConfig(max_vertices=4))


def test_one_vertex_graph_counts_sizes_from_one():
    # the empty set vacuously resolves K1 both ways, but every search
    # counts sizes from 1
    g = build_graph(1, [])
    dm = all_pairs_distances(g)
    assert is_m_resolving(dm, ()).resolving
    assert is_metric_resolving(dm, ()).resolving
    for md in (compute_md(g), brute_force_md(g)):
        assert (md.kind, md.value, md.witness) == (OutcomeKind.FINITE, 1, (0,))
    assert compute_dim(g) == (1, (0,))
    assert least_resolving_set(dm, ordered=True) == (0,)


def prufer_tree(rng: Random, n: int):
    """Uniform random labelled tree on n >= 2 vertices, decoded from a
    random Prufer sequence."""
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    for x in seq:
        leaf = degree.index(1)
        edges.append((leaf, x))
        degree[leaf] -= 1
        degree[x] -= 1
    edges.append(tuple(v for v in range(n) if degree[v] == 1))
    return build_graph(n, edges)


class TestTreeFormula:
    """Khuller, Raghavachari & Rosenfeld (1996): every tree T that is not a
    path has dim(T) = sigma(T) - ex(T), an oracle independent of the search.
    The terminals come from their distance definition, not from the walk
    of ``major_vertex_report`` that compute_dim starts from."""

    @staticmethod
    def assert_formula(t):
        terminals = terminals_by_distance(t, all_pairs_distances(t)).values()
        sigma, ex = sum(map(len, terminals)), sum(map(bool, terminals))
        assert compute_dim(t)[0] == sigma - ex, t.edges()

    @pytest.mark.parametrize("n", range(4, 13))
    def test_random_trees(self, n):
        rng = Random(n)
        for _ in range(40):
            t = prufer_tree(rng, n)
            if not is_path(t):
                self.assert_formula(t)

    @pytest.mark.parametrize(
        "spec",
        ["substar:4x2", "substar:5x3", "substar:7x3", "karytree:2x3",
         "karytree:3x2", "cextree", "star:5"],
    )
    def test_tree_families(self, spec):
        from mdim import parse_family_spec

        self.assert_formula(generate(parse_family_spec(spec)))


class TestVerifyWitness:
    def test_cycle9(self):
        report = verify_witness(cycle_graph(9), (0, 1, 3))
        assert report.multiset.resolving and report.metric.resolving
        assert report.representations[4] == (1, 3, 4)
        assert report.representations[5] == (2, 4, 4)
        assert report.vectors[5] == (4, 4, 2)

    def test_grid_3x4_corner_triple_resolves(self):
        report = verify_witness(generate(FamilySpec.grid(3, 4)), (0, 1, 8))
        assert report.multiset.resolving

    def test_grid_4x5_corner_triple_fails(self):
        # the published construction breaks once both sides exceed the
        # narrow zones: two interior vertices share an anti-diagonal
        report = verify_witness(generate(FamilySpec.grid(4, 5)), (0, 1, 10))
        assert not report.multiset.resolving
        u, v, rep = report.multiset.first_collision
        assert report.representations[u] == report.representations[v] == rep

    def test_k4_all_but_one(self):
        report = verify_witness(complete_graph(4), (0, 1, 2))
        assert not report.multiset.resolving


class TestLevelSearch:
    """The cut depth-first search of one size level against the plain walk
    over combinations, including the levels where nothing resolves, which
    an "infinite by exhaustion" verdict rests on."""

    @staticmethod
    def oracle(dm, k, ordered):
        return next(
            (
                w
                for w in combinations(range(dm.n), k)
                if first_collision(dm.d, w, ordered) is None
            ),
            None,
        )

    def assert_every_level(self, g):
        dm = all_pairs_distances(g)
        for ordered in (False, True):
            least = level_search(dm, ordered)
            for k in range(1, g.n + 1):
                assert least(k) == self.oracle(dm, k, ordered), (g.edges(), k, ordered)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_combinations_oracle(self, seed):
        rng = Random(seed)
        for _ in range(25):
            n = rng.randint(4, 9)
            self.assert_every_level(
                random_connected_graph(rng, n, extra=rng.choice([0.0, 0.15, 0.4]))
            )

    def test_twin_pairs_take_one_member_each(self):
        # pendant pairs {4, 5}, {6, 7}, {8, 9} leave no size resolvable
        g = generate(FamilySpec.counterexample_tree())
        least = level_search(all_pairs_distances(g))
        assert [least(k) for k in range(1, g.n + 1)] == [None] * g.n
        # twin pairs {3, 4} and {5, 6}: the least set takes one of each
        g = generate(FamilySpec.kary_tree(2, 2))
        self.assert_every_level(g)
        w = level_search(all_pairs_distances(g))(3)
        assert w is not None
        assert all(len(set(w) & pair) == 1 for pair in ({3, 4}, {5, 6}))


class TestWalk:
    """The size schedules of md and dim: which sizes each searches, with
    or without the swap table, and where the table is built."""

    def test_cap_raises_before_any_table(self, monkeypatch):
        monkeypatch.setattr(search, "level_search", lambda *a: pytest.fail("table built"))
        for solve in (compute_md, compute_dim):
            with pytest.raises(SearchAborted, match="cap of 4"):
                solve(cycle_graph(9), SearchConfig(max_vertices=4))

    @staticmethod
    def record(monkeypatch):
        """Spy on one solve: one entry per ``least`` call, (k, whether a
        table was passed), "table" where the swap table is built and
        "report" where the major-vertex report, which carries the legs, is
        taken."""
        seen, build = [], search.level_search
        swap_masks, report = search.symmetry_swap_masks, search.major_vertex_report

        def recording(dm, ordered=False, table=None):
            least = build(dm, ordered, table)

            def wrapped(k):
                seen.append((k, table is not None))
                return least(k)

            return wrapped

        def table(g, tp, forest=None):
            seen.append("table")
            return swap_masks(g, tp, forest)

        def major_report(g, dm=None):
            seen.append("report")
            return report(g, dm)

        monkeypatch.setattr(search, "level_search", recording)
        monkeypatch.setattr(search, "symmetry_swap_masks", table)
        monkeypatch.setattr(search, "major_vertex_report", major_report)
        return seen

    def test_table_before_lower_bound_then_one_pass(self, monkeypatch):
        # an order-8 graph with no resolving set at any size: md starts at
        # its lower bound, 3, and from order 8 on the swap table is built
        # before that size, with the legs of the report taken for the
        # lower bound; then each size up to 8 is searched in turn
        g = build_graph(
            8, [(0, 1), (0, 6), (1, 2), (1, 5), (1, 7), (2, 3), (2, 4), (3, 4), (6, 7)]
        )
        assert brute_force_md(g).is_infinite
        seen = self.record(monkeypatch)
        outcome = compute_md(g)
        assert outcome.certificate.kind is CertificateKind.EXHAUSTIVE_SEARCH
        assert seen == ["report", "table", *((k, True) for k in range(3, 9))]

    def test_one_md_schedule_below_order_8(self, monkeypatch):
        # below order 8 md builds no table but keeps the schedule of every
        # order: each size from its lower bound on, one at a time.  The
        # first graph first resolves at size 4; the second has no
        # resolving set at any size, and no detector fires
        found = build_graph(6, [(0, 1), (0, 2), (0, 3), (0, 5), (1, 2), (1, 3), (1, 4)])
        none = build_graph(6, [(0, 1), (0, 2), (0, 4), (0, 5), (1, 2), (1, 3), (2, 3)])
        seen = self.record(monkeypatch)
        outcome = compute_md(found)
        assert outcome == brute_force_md(found)
        assert (outcome.value, outcome.witness) == (4, (0, 2, 4, 5))
        assert seen == ["report", (3, False), (4, False)]
        del seen[:]
        outcome = compute_md(none)
        assert outcome == brute_force_md(none)
        assert outcome.certificate.kind is CertificateKind.EXHAUSTIVE_SEARCH
        assert seen == ["report", *((k, False) for k in range(3, 7))]

    def test_dim_bound_and_table_from_order_8(self, monkeypatch):
        # substar:8x2 (17 vertices): of order 8 or more, so the report is
        # taken before any distance: its count sigma - ex = 7 is the size
        # of the least leg cover, which resolves, so no search is built
        seen = self.record(monkeypatch)
        built, build = [], search.level_search

        def building(dm, ordered=False, table=None):
            built.append(dm.n)
            return build(dm, ordered, table)

        monkeypatch.setattr(search, "level_search", building)
        assert compute_dim(generate(FamilySpec.subdivided_star(8, 2))) == (
            7, (1, 3, 5, 7, 9, 11, 13)
        )
        assert (seen, built) == (["report"], [])
        # a 4-cycle 0, 1, 2, 3 with four pendants at 0 (8 vertices): the
        # report is taken first, and the cover (4, 5, 6) of its count
        # sigma - ex = 3 leaves the twins 1 and 3 unresolved, so the full
        # bound (4, twin-classes) and the swap table are computed and the
        # search starts at 4
        g = build_graph(8, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7)])
        assert compute_dim(g) == (5, (1, 2, 4, 5, 6))
        assert seen == [
            "report", "report", "table", (4, True), (5, True)
        ]
        assert built == [8]

    def test_each_table_converted_once(self, monkeypatch):
        # md and dim search every size from their lower bounds on with one
        # table; each search turns its table into bitsets once, when it is
        # built
        seen = self.record(monkeypatch)
        converted, bits = [], search._table_bits

        def recording(table, n):
            converted.append(table)
            return bits(table, n)

        monkeypatch.setattr(search, "_table_bits", recording)
        rng = Random(10)
        reused = 0
        for _ in range(60):
            g = random_legged_graph(rng, rng.randint(10, 12), rng.choice([0.0, 0.2]))
            for solve in (compute_md, compute_dim):
                del seen[:], converted[:]
                solve(g)
                calls = [entry for entry in seen if entry not in ("report", "table")]
                handed = sum(table for _, table in calls)
                assert len(converted) == min(handed, 1), g.edges()
                reused += handed > 1
        # 32 of the 120 solves search with one table in two or more calls
        assert reused >= 15

    def test_no_table_up_to_order_7(self, monkeypatch):
        # below order search.TABLE_ORDER = 8, md and dim never build the
        # swap table or pass a table to least, dim never takes the
        # major-vertex report, no solve, bound or scan walks the hanging
        # forest for the subtree-patterns rule, and the scan never builds
        # a table at all: that work keeps its cost of one falsy int per
        # candidate
        def refuse(g, *rest):
            raise AssertionError(f"table built for {g.edges()}")

        seen = self.record(monkeypatch)
        monkeypatch.setattr(search, "symmetry_swap_masks", refuse)
        monkeypatch.setattr(search, "hanging_forest", refuse)
        monkeypatch.setattr(resolving, "hanging_forest", refuse)
        graphs = connected_graphs_up_to(6)
        rng = Random(7)
        sample = [random_connected_graph(rng, 7, rng.random()) for _ in range(100)]
        for g in (
            *(g for g in graphs if g.n <= 5),
            *[g for g in graphs if g.n == 6][::40],
            *sample,
        ):
            compute_md(g)
            start = len(seen)
            compute_dim(g)
            assert "report" not in seen[start:], g.edges()
        assert not any(entry[1] for entry in seen if entry != "report")
        assert scan_small_graphs(5).violations == []


def random_symmetric_non_tree(rng, n):
    """A random ``random_twinned_graph`` of order n with a cycle."""
    while True:
        g = random_twinned_graph(rng, n, extra=rng.choice([0.0, 0.1, 0.25]))
        if g.edge_count >= g.n:
            return g


def same_least_sets_with_and_without_swaps(g):
    """Assert that ``least(k)`` with g's swap table, with and without
    its legs, equals ``least(k)`` without a table at every size, in both
    modes; return whether the table holds a swap."""
    dm = all_pairs_distances(g)
    mr = major_vertex_report(g, dm)
    swaps = symmetry_swap_masks(g, twin_partition(g))
    for table in (Table(swaps, {}), Table(swaps, mr.legs)):
        for ordered in (False, True):
            least = level_search(dm, ordered)
            sizes = [least(k) for k in range(1, g.n + 1)]
            cut = level_search(dm, ordered, table)
            assert [cut(k) for k in range(1, g.n + 1)] == sizes, (
                g.edges(), ordered
            )
    return any(swaps)


class TestSwapRule:
    """The lex-leader rule on trees, whose table swaps subtrees hanging
    from the centre, changes no answer, including at the sizes where
    nothing resolves."""

    @pytest.mark.parametrize("seed", range(5))
    def test_same_least_sets_with_and_without_swaps(self, seed):
        rng = Random(seed)
        symmetric = sum(
            same_least_sets_with_and_without_swaps(
                random_symmetric_tree(rng, rng.randint(3, rng.choice([11, 16])))
            )
            for _ in range(200)
        )
        # most of the trees built around copies of one rooted tree have
        # a swap
        assert symmetric >= 150


class TestSymmetryRule:
    """The lex-leader rule with the swaps of subtrees hanging from the
    2-core of a graph with a cycle, twins among them, changes no answer,
    including at the sizes where nothing resolves."""

    @pytest.mark.parametrize("seed", range(4))
    def test_same_least_sets_with_and_without_swaps(self, seed):
        rng = Random(seed)
        masked = sum(
            same_least_sets_with_and_without_swaps(
                random_symmetric_non_tree(rng, rng.randint(6, 10))
            )
            for _ in range(40)
        )
        # every twinned graph has a twin pair, hence a swap
        assert masked == 40

    def test_matches_brute_force_on_orders_10_to_12(self, monkeypatch):
        # graphs of order 10 to 12 build the table whenever md reaches
        # the search, and whenever dim does unless the leg cover answers
        tables, build = [], search.symmetry_swap_masks

        def recording(g, tp, forest=None):
            swaps = build(g, tp, forest)
            tables.append(swaps)
            return swaps

        def masks_of(g):
            """Solve g both ways against the reference walks; return the
            masks of the tables the solves built."""
            seen = len(tables)
            fast, slow = compute_md(g), brute_force_md(g)
            assert (fast.kind, fast.value, fast.witness) == (
                slow.kind, slow.value, slow.witness
            ), g.edges()
            w = least_resolving_set(all_pairs_distances(g), ordered=True)
            assert compute_dim(g) == (len(w), w), g.edges()
            return {s for swaps in tables[seen:] for masks in swaps for s in masks}

        monkeypatch.setattr(search, "symmetry_swap_masks", recording)
        rng = Random(18)
        reached = 0
        for i in range(240):
            n = rng.randint(10, 12)
            if i % 2:
                g = random_symmetric_non_tree(rng, n)
            else:
                g = random_legged_graph(rng, n, extra=rng.choice([0.1, 0.25]))
            reached += g.edge_count >= g.n and bool(masks_of(g))
        # 171 of the 181 graphs with a cycle build a table that holds a
        # swap
        assert reached >= 150
        # graphs with non-path trees hung from one core vertex: all 120
        # build a table with a mask that is neither twins nor equal legs
        rng = Random(22)
        hanging = 0
        for _ in range(120):
            g = random_hanging_graph(rng, rng.randint(10, 12), rng.choice([0.1, 0.25]))
            hanging += bool(masks_of(g) - twin_and_leg_masks(g))
        assert hanging >= 100

    def test_trees_take_their_subtree_swaps(self):
        # a tree has no twin class in a 2-core: two twins of a tree are
        # sibling leaves already, so a partition into singletons gives the
        # same table as the twin classes
        rng = Random(3)
        for _ in range(300):
            t = random_symmetric_tree(rng, rng.randint(3, 16))
            singletons = TwinPartition(tuple((v,) for v in range(t.n)))
            assert symmetry_swap_masks(t, singletons) == symmetry_swap_masks(
                t, twin_partition(t)
            ), t.edges()

    def test_legs_and_twins_of_a_triangle(self):
        # triangle 0, 1, 2 with legs 3-4 and 5-6 of equal length at 0: the
        # legs swap position by position, 4 with 6 and 3 with 5, and the
        # twins 1 and 2 swap with each other
        g = build_graph(7, [(0, 1), (0, 2), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
        legs = 1 << 3 | 1 << 4 | 1 << 5 | 1 << 6
        assert symmetry_swap_masks(g, twin_partition(g)) == (
            (), (), (1 << 1 | 1 << 2,), (), (), (legs,), (legs,)
        )
        # cherries 3 (leaves 4, 5) and 6 (leaves 7, 8) hung from 0 instead:
        # 6 and 7 move into the other cherry, which needs both cherries,
        # and the leaves 5 and 8 move to their sibling leaf; 8 also moves
        # into the other cherry, a mask that contains its sibling swap
        g = build_graph(
            9, [(0, 1), (0, 2), (1, 2), (0, 3), (3, 4), (3, 5), (0, 6), (6, 7), (6, 8)]
        )
        both = sum(1 << v for v in range(3, 9))
        assert symmetry_swap_masks(g, twin_partition(g)) == (
            (), (), (1 << 1 | 1 << 2,), (), (), (1 << 4 | 1 << 5,), (both,), (both,),
            (both, 1 << 7 | 1 << 8),
        )


class TestBoundPass:
    """The one-size search ``_bound`` under md's schedule, each size from
    the lower bound on in turn: against the unpruned reference walk and
    the search from size 1 with no table, including graphs where no size
    resolves, which an "infinite by exhaustion" verdict rests on."""

    @staticmethod
    def record(monkeypatch):
        """Spy on ``search._bound``: one entry per frame, the frame's
        child size, the size k it searches and the size of the set it
        returns (0 for none).  It fails a frame entered with a child size
        above k."""
        frames, bound = [], search._bound

        def recording(code, start, size, k, *rest):
            assert size <= k, (size, k)
            ids = bound(code, start, size, k, *rest)
            frames.append((size, k, size - 1 + len(ids) if ids else 0))
            return ids

        monkeypatch.setattr(search, "_bound", recording)
        return frames

    def test_matches_brute_force_on_orders_10_to_12(self, monkeypatch):
        frames = self.record(monkeypatch)
        rng = Random(12)
        walks = 0
        for i in range(400):
            n = rng.randint(10, 12)
            if i % 2:
                g = random_symmetric_tree(rng, n)
            else:
                g = random_connected_graph(rng, n, extra=rng.choice([0.0, 0.05, 0.1]))
            del frames[:]
            fast, slow = compute_md(g), brute_force_md(g)
            assert fast.kind == slow.kind, g.edges()
            assert (fast.value, fast.witness) == (slow.value, slow.witness), g.edges()
            # every size searched opens one first frame, of child size 1,
            # recorded last: md searches each size from its lower bound up
            # to its answer, or to n, one at a time
            dm, tp = all_pairs_distances(g), twin_partition(g)
            sizes = [k for size, k, _ in frames if size == 1]
            if is_path(g) or detect_infinite(g, dm, tp):
                assert sizes == [], g.edges()
            else:
                lb = md_lower_bound(g, dm, tp, major_vertex_report(g, dm)).value
                assert sizes == list(range(lb, (fast.value or g.n) + 1)), g.edges()
                walks += len(sizes) > 1
        # 99 of the solves search two sizes or more
        assert walks >= 80

    @pytest.mark.parametrize(
        "spec,owed,witness",
        [
            ("substar:5x3", 4, (1, 2, 4, 8, 12)),
            ("substar:7x3", 6, (1, 2, 4, 6, 7, 11, 12, 14, 18)),
            ("karytree:2x3", 4, (1, 3, 5, 7, 9, 11, 13)),
            ("substar:8x3", 7, (1, 2, 3, 4, 5, 7, 9, 10, 14, 15, 17, 21)),
        ],
    )
    def test_no_set_below_what_the_legs_are_owed(self, spec, owed, witness):
        # a size below the count the legs are owed before any landmark is
        # chosen holds no set, since every set of that size leaves two
        # legs of one major unhit; searched from size 1 upward, one size
        # at a time, the search first finds md's witness
        g = generate(parse_family_spec(spec))
        dm = all_pairs_distances(g)
        mr = major_vertex_report(g, dm)
        table = Table(symmetry_swap_masks(g, twin_partition(g)), mr.legs)
        assert search._table_bits(table, g.n)[-1] == owed
        least = level_search(dm, table=table)
        for k in range(1, owed):
            assert least(k) is None, (spec, k)
        cfg = SearchConfig(max_vertices=g.n)
        assert search._first_hit(least, "md", range(1, g.n + 1), g.n, cfg) == witness
        assert compute_md(g, cfg).witness == witness

    @pytest.mark.parametrize(
        "spec,md_frames,dim_frames",
        [
            ("substar:7x3", 2339, 6),
            ("substar:6x4", 174, 5),
            ("substar:8x2", 0, 7),
            ("karytree:2x3", 57, 4),
            ("cextree", 0, 3),
        ],
    )
    def test_frames_per_solve(self, spec, md_frames, dim_frames, monkeypatch):
        # the search's work on the md_hard graphs of the benchmark: the
        # frames of every size searched.  The spiders substar:7x3 and 6x4
        # start at their leg-pattern bound, md itself, so they search that
        # one size, and so does karytree:2x3 from its subtree-pattern
        # bound, 7.  substar:8x2 and cextree have sibling groups with too
        # few asymmetric markings, so the subtree-pattern bound is n + 1
        # and no size is searched.
        # Each is a tree, so the least leg cover answers dim with no frame;
        # dim_frames is what the search makes once the cover is refused,
        # here by cover rows that give every vertex the same vector
        frames = self.record(monkeypatch)
        g = generate(parse_family_spec(spec))
        cfg = SearchConfig(max_vertices=40)
        compute_md(g, cfg)
        md = len(frames)
        answer = compute_dim(g, cfg)
        assert (md, len(frames) - md) == (md_frames, 0)
        monkeypatch.setattr(search, "bfs_distances", lambda g, x: [0] * g.n)
        assert compute_dim(g, cfg) == answer
        assert len(frames) - md == dim_frames

    @pytest.mark.parametrize(
        "spec,witness",
        [
            ("substar:4x2", (1, 2, 3, 6)),
            ("substar:5x3", (1, 2, 4, 8, 12)),
            ("substar:6x3", (1, 2, 4, 6, 7, 11, 15)),
            ("substar:7x3", (1, 2, 4, 6, 7, 11, 12, 14, 18)),
            ("substar:6x4", (1, 2, 5, 10, 15, 20)),
            ("substar:7x4", (1, 2, 5, 7, 9, 14, 19, 24)),
            ("substar:8x3", (1, 2, 3, 4, 5, 7, 9, 10, 14, 15, 17, 21)),
            ("substar:6x5", (1, 7, 13, 19, 25)),
        ],
    )
    def test_spiders_search_their_leg_pattern_size_alone(self, spec, witness, monkeypatch):
        # on these spiders the leg-pattern bound is md itself, so md
        # searches least(lb) alone and finds its witness there: every frame
        # searches that one size.  This pins md 12 on substar:8x3 and md 8
        # on substar:7x4 with their witnesses
        g = generate(parse_family_spec(spec))
        dm = all_pairs_distances(g)
        lb = md_lower_bound(g, dm, twin_partition(g), major_vertex_report(g, dm))
        assert lb.bounds["leg-patterns"] == lb.value == len(witness)
        frames = self.record(monkeypatch)
        outcome = compute_md(g, SearchConfig(max_vertices=g.n))
        assert (outcome.value, outcome.witness) == (len(witness), witness)
        assert frames and {k for _, k, _ in frames} == {lb.value}

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_per_size_search_on_swap_rule_trees(self, seed):
        # the trees of TestSwapRule: md's schedule, which starts at the
        # lower bound and searches with the swap and leg tables, answers
        # as the search of every size from 1 with no table does
        rng = Random(seed)
        for _ in range(200):
            t = random_symmetric_tree(rng, rng.randint(3, rng.choice([11, 16])))
            least = level_search(all_pairs_distances(t))
            first = next(filter(None, map(least, range(1, t.n + 1))), None)
            assert compute_md(t).witness == first, t.edges()


class TestLegRule:
    """The leg rule changes no answer: against the unpruned reference walks
    on graphs whose majors carry pendant paths, and against the search
    without the leg table at every size, in both modes, including the
    sizes where nothing resolves, which an "infinite by exhaustion"
    verdict rests on."""

    @staticmethod
    def record(monkeypatch):
        """Spy on ``search._table_bits``: one entry per search built with a
        table, the landmarks its legs are owed before any is chosen."""
        owed, bits = [], search._table_bits

        def recording(table, n):
            out = bits(table, n)
            owed.append(out[-1])
            return out

        monkeypatch.setattr(search, "_table_bits", recording)
        return owed

    def test_matches_brute_force_on_orders_10_to_12(self, monkeypatch):
        owed = self.record(monkeypatch)
        rng = Random(15)
        reached = dim_reached = 0
        for _ in range(360):
            g = random_legged_graph(
                rng, rng.randint(10, 12), extra=rng.choice([0.0, 0.0, 0.1, 0.25])
            )
            seen = len(owed)
            fast, slow = compute_md(g), brute_force_md(g)
            assert fast.kind == slow.kind, g.edges()
            assert (fast.value, fast.witness) == (slow.value, slow.witness), g.edges()
            reached += any(owed[seen:])
            seen = len(owed)
            w = least_resolving_set(all_pairs_distances(g), ordered=True)
            assert compute_dim(g) == (len(w), w), g.edges()
            dim_reached += any(owed[seen:])
        # 267 of the 360 md solves reach the table with legs owed a
        # landmark; dim reaches it only when the least leg cover fails or
        # is not tried, 69 times
        assert reached >= 230
        assert dim_reached >= 40

    @pytest.mark.parametrize("seed", range(3))
    def test_same_least_sets_with_and_without_legs(self, seed):
        rng = Random(seed)
        for _ in range(40):
            g = random_legged_graph(rng, rng.randint(6, 10), rng.choice([0.0, 0.2]))
            dm = all_pairs_distances(g)
            table = Table(((),) * g.n, major_vertex_report(g, dm).legs)
            for ordered in (False, True):
                least = level_search(dm, ordered)
                sizes = [least(k) for k in range(1, g.n + 1)]
                cut = level_search(dm, ordered, table)
                assert [cut(k) for k in range(1, g.n + 1)] == sizes, g.edges()


def random_recursive_tree(rng: Random, n: int):
    """Random recursive tree of order n: each vertex joins a uniformly
    random earlier one; the ids are shuffled."""
    return shuffled(rng, build_graph(n, [(rng.randrange(v), v) for v in range(1, n)]))


def random_hub_legged_graph(rng: Random, n: int):
    """Random graph of order n (8 <= n <= 14) and diameter 2 whose only
    legs hang from a hub joined to every other vertex: three pendants, or
    four from order 12 on, so sigma - ex is 2 or 3, and a core in which
    every vertex has a neighbour besides the hub (a random spanning tree
    plus extra edges).  The order-diameter rule, the least k with
    2^k + k >= n, exceeds sigma - ex.  The ids are shuffled."""
    legs = rng.choice([3, 4]) if n >= 12 else 3
    edges = {(0, v) for v in range(1, n)}
    first = 1 + legs
    edges |= {(rng.randrange(first, v), v) for v in range(first + 1, n)}
    for u in range(first, n):
        for v in range(u + 1, n):
            if rng.random() < 0.2:
                edges.add((u, v))
    return shuffled(rng, build_graph(n, sorted(edges)))


class TestLegCover:
    """dim's one resolve check before any search: on a graph of order 8
    or more whose terminal count sigma - ex is 2 or more, the least leg
    cover, if it resolves, is the answer (see compute_dim)."""

    @staticmethod
    def record(monkeypatch):
        """Spy on one solve: "cover" where the least leg cover is taken,
        "search" where the ordered search is built."""
        seen, cover, build = [], search._leg_cover, search.level_search

        def covering(legs):
            seen.append("cover")
            return cover(legs)

        def building(dm, ordered=False, table=None):
            seen.append("search")
            return build(dm, ordered, table)

        monkeypatch.setattr(search, "_leg_cover", covering)
        monkeypatch.setattr(search, "level_search", building)
        return seen

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_brute_force_on_orders_8_to_14(self, seed, monkeypatch):
        # relabelled trees, which the cover answers unless they are paths,
        # and legged graphs with a cycle, where it may fail or not be tried
        seen = self.record(monkeypatch)
        rng = Random(seed)
        answered = failed = 0
        for i in range(180):
            n = rng.randint(8, 14)
            if i < 20:
                g = prufer_tree(rng, n)
            elif i < 40:
                g = random_recursive_tree(rng, n)
            elif i < 160:
                g = random_legged_graph(rng, n, extra=rng.choice([0.15, 0.3, 0.45]))
                while g.edge_count < g.n:
                    g = random_legged_graph(rng, n, extra=0.45)
            else:
                g = random_hub_legged_graph(rng, n)
            g = shuffled(rng, g)
            del seen[:]
            dm = all_pairs_distances(g)
            w = least_resolving_set(dm, ordered=True)
            assert compute_dim(g) == (len(w), w), g.edges()
            if i < 40:
                assert seen == (["search"] if is_path(g) else ["cover"]), g.edges()
            elif i < 160:
                answered += seen == ["cover"]
                failed += seen == ["cover", "search"]
            else:
                # a distance rule exceeds sigma - ex, so the cover, tried
                # before the rules are read, cannot resolve
                mr = major_vertex_report(g)
                assert max(dim_distance_rules(g, dm).values()) > mr.sigma - mr.ex >= 2
                assert seen == ["cover", "search"], g.edges()
        # of the 120 legged graphs with a cycle per seed, the cover answers
        # 8 to 10 and fails on 86 to 94
        assert answered >= 6
        assert failed >= 60

    def test_answers_every_tree_with_no_search(self, monkeypatch):
        seen = self.record(monkeypatch)
        rng = Random(4)
        trees = 0
        for i in range(300):
            n = rng.randint(8, 60)
            t = (random_symmetric_tree if i % 2 else random_recursive_tree)(rng, n)
            if is_path(t):
                continue
            del seen[:]
            value, w = compute_dim(t, SearchConfig(max_vertices=n))
            assert seen == ["cover"], t.edges()
            terminals = terminals_by_distance(t, all_pairs_distances(t)).values()
            assert value == len(w) == sum(map(len, terminals)) - sum(map(bool, terminals))
            assert is_metric_resolving(all_pairs_distances(t), w).resolving
            trees += 1
        # 300 here: no tree drawn is a path
        assert trees >= 290

    def test_is_the_least_leg_cover(self):
        # every choice of one leg to leave out per major and one vertex on
        # each other leg: the least leg cover is the least of them, and
        # every metric-resolving set of sigma - ex landmarks is one of them
        # (the leg rule), so none is smaller than the cover, and a cover
        # that resolves is the least of them all
        rng = Random(6)
        resolved = 0
        for _ in range(60):
            g = random_legged_graph(rng, rng.randint(6, 10), rng.choice([0.0, 0.2]))
            dm = all_pairs_distances(g)
            mr = major_vertex_report(g, dm)
            covers = set()
            for outs in product(*(range(len(group)) for group in mr.legs.values())):
                legs = [
                    leg
                    for group, out in zip(mr.legs.values(), outs)
                    for j, leg in enumerate(group)
                    if j != out
                ]
                covers |= {tuple(sorted(choice)) for choice in product(*legs)}
            cover = search._leg_cover(mr.legs)
            assert len(cover) == mr.sigma - mr.ex
            assert cover == min(covers), g.edges()
            resolving = [
                w
                for w in combinations(range(g.n), len(cover))
                if first_collision(dm.d, w, True) is None
            ]
            assert set(resolving) <= covers, g.edges()
            if first_collision(dm.d, cover, True) is None:
                assert resolving[0] == cover, g.edges()
                resolved += 1
        # the cover resolves 54 of the 60
        assert resolved >= 40


class TestDimDistanceWork:
    """The distances each dim solve computes: the BFS rows of the least
    leg cover's own vertices when the cover is tried, and the all-pairs
    matrix only once it fails or when it is not tried (see compute_dim)."""

    @staticmethod
    def record(monkeypatch):
        """Spy on the distances of one solve: ("bfs", s) per BFS from s
        that compute_dim runs itself, "apsp" per ``all_pairs_distances``
        call and ("row", s) per BFS from s that it runs."""
        seen, bfs, apsp = [], graph.bfs_distances, search.all_pairs_distances

        def spy(kind):
            def recording(g, s):
                seen.append((kind, s))
                return bfs(g, s)

            return recording

        def pairs(g):
            seen.append("apsp")
            return apsp(g)

        monkeypatch.setattr(graph, "bfs_distances", spy("row"))
        monkeypatch.setattr(search, "bfs_distances", spy("bfs"))
        monkeypatch.setattr(search, "all_pairs_distances", pairs)
        return seen

    @pytest.mark.parametrize(
        "spec,cover",
        [
            ("substar:7x3", (1, 4, 7, 10, 13, 16)),
            ("substar:6x4", (1, 5, 9, 13, 17)),
            ("substar:8x2", (1, 3, 5, 7, 9, 11, 13)),
            ("karytree:2x3", (7, 9, 11, 13)),
            ("cextree", (4, 6, 8)),
        ],
    )
    def test_cover_rows_alone_answer_md_hard(self, spec, cover, monkeypatch):
        # the md_hard graphs of the benchmark: one BFS per cover vertex,
        # and no all-pairs matrix
        g = generate(parse_family_spec(spec))
        seen = self.record(monkeypatch)
        assert compute_dim(g, SearchConfig(max_vertices=40)) == (len(cover), cover)
        assert seen == [("bfs", x) for x in cover]

    def test_order_7_takes_all_pairs_and_no_cover(self, monkeypatch):
        # substar:3x2 has legs, but compute_dim tries the cover only from
        # order search.TABLE_ORDER = 8 on: n BFS through
        # all_pairs_distances, as before the cover existed
        seen = self.record(monkeypatch)
        monkeypatch.setattr(search, "_leg_cover", lambda legs: pytest.fail("cover taken"))
        assert compute_dim(generate(parse_family_spec("substar:3x2"))) == (2, (1, 3))
        assert seen == ["apsp", *(("row", s) for s in range(7))]

    def test_failed_cover_then_all_pairs(self, monkeypatch):
        # the 4-cycle with four pendants at 0 of TestWalk: the cover
        # (4, 5, 6) leaves the twins 1 and 3 unresolved, and its rows are
        # computed again with the rest of the matrix
        g = build_graph(8, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7)])
        seen = self.record(monkeypatch)
        assert compute_dim(g) == (5, (1, 2, 4, 5, 6))
        assert seen == [("bfs", 4), ("bfs", 5), ("bfs", 6), "apsp",
                        *(("row", s) for s in range(8))]

    @pytest.mark.parametrize("cap", [24, 5])
    def test_disconnected_before_cap(self, cap, monkeypatch):
        # substar:4x2 and an isolated vertex 9: the first cover row misses
        # 9, and all_pairs_distances raises the Disconnected it always
        # raised, under any cap
        g = build_graph(10, generate(parse_family_spec("substar:4x2")).edges())
        seen = self.record(monkeypatch)
        with pytest.raises(
            Disconnected, match="^vertices 0 and 9 are in different components$"
        ):
            compute_dim(g, SearchConfig(max_vertices=cap))
        assert seen == [("bfs", 1), ("bfs", 3), ("bfs", 5), "apsp", ("row", 0)]

    def test_cap_before_any_other_distance(self, monkeypatch):
        # karytree:2x4 (31 vertices) above a cap of 20 aborts once the
        # cover rows show it connected
        g = generate(parse_family_spec("karytree:2x4"))
        seen = self.record(monkeypatch)
        with pytest.raises(SearchAborted, match="31 vertices exceeds the .* cap of 20"):
            compute_dim(g, SearchConfig(max_vertices=20))
        assert seen == [("bfs", x) for x in range(15, 30, 2)]


class TestAgainstBruteForce:
    @staticmethod
    def assert_matches_reference(g):
        fast = compute_md(g)
        slow = brute_force_md(g)
        assert fast.kind == slow.kind, g.edges()
        if fast.is_finite:
            assert (fast.value, fast.witness) == (slow.value, slow.witness)
        w = least_resolving_set(all_pairs_distances(g), ordered=True)
        assert compute_dim(g) == (len(w), w), g.edges()

    def test_all_connected_graphs_up_to_5(self):
        for n in range(1, 6):
            for g in all_connected_graphs(n):
                self.assert_matches_reference(g)

    @pytest.mark.parametrize(
        "n,seed", [(6, 0), (6, 1), (7, 2), (7, 3), (8, 4), (8, 5), (9, 6)]
    )
    def test_random_graphs(self, n, seed):
        rng = Random(seed)
        for _ in range(30):
            self.assert_matches_reference(
                random_connected_graph(rng, n, extra=rng.choice([0.1, 0.3, 0.6]))
            )

    def test_dim_from_full_lower_bound(self):
        # trees and near-trees of order 9-12 have many pendants and twins,
        # so the full dim_lower_bound, where dim's search starts from order
        # 8 on, often skips sizes that are never searched
        rng = Random(9)
        skipped = 0
        for _ in range(60):
            g = random_connected_graph(rng, rng.randint(9, 12), extra=rng.choice([0.0, 0.05]))
            dm = all_pairs_distances(g)
            w = least_resolving_set(dm, ordered=True)
            assert compute_dim(g) == (len(w), w), g.edges()
            lb = dim_lower_bound(g, dm, twin_partition(g), major_vertex_report(g, dm))
            skipped += lb.value >= 4
        assert skipped >= 5

    def test_petersen_brute_force_infinite(self):
        assert brute_force_md(build_graph(10, generate(FamilySpec.petersen()).edges())).is_infinite


class TestNoReferenceCycles:
    def test_solves_leave_no_cyclic_garbage(self):
        # a solve whose tables sit in a reference cycle leaves them to the
        # cycle collector, whose pauses show in per-graph latencies
        g = generate(FamilySpec.kary_tree(2, 2))
        gc.collect()
        gc.disable()
        try:
            level_search(all_pairs_distances(g))(3)
            compute_md(g)
            compute_dim(g)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestDeterminism:
    SPECS = ["cycle:8", "karytree:2x2", "grid:3x3", "cextree", "substar:4x3"]

    @pytest.mark.parametrize("spec", SPECS)
    def test_parallel_matches_serial(self, spec):
        from mdim import parse_family_spec

        g = generate(parse_family_spec(spec))
        serial = compute_md(g, SearchConfig(workers=1))
        parallel = compute_md(g, SearchConfig(workers=3))
        assert serial == parallel
