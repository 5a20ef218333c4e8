import pytest
from random import Random

from mdim import (
    Disconnected,
    DuplicateEdge,
    GraphError,
    LoopEdge,
    RelationNotTransitive,
    VertexOutOfRange,
    all_pairs_distances,
    build_graph,
    cartesian_product,
    diameter,
    is_connected,
    is_path,
    major_vertex_report,
    twin_partition,
)
from helpers import (
    binary_tree,
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected_graph,
    star_graph,
)

PETERSEN_EDGES = [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
    (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
]


class TestBuildGraph:
    def test_triangle(self):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        assert [g.degree(v) for v in range(3)] == [2, 2, 2]
        assert g.edges() == [(0, 1), (0, 2), (1, 2)]

    def test_loop_rejected(self):
        with pytest.raises(LoopEdge, match=r"\(0, 0\)") as info:
            build_graph(2, [(0, 0)])
        assert info.value.edge_index == 0

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateEdge, match=r"\(1, 0\)") as info:
            build_graph(3, [(0, 1), (1, 2), (1, 0)])
        assert info.value.edge_index == 2

    def test_out_of_range_rejected(self):
        with pytest.raises(VertexOutOfRange, match=r"\(1, 3\)") as info:
            build_graph(3, [(0, 1), (1, 3)])
        assert info.value.edge_index == 1

    def test_petersen_is_cubic(self):
        g = build_graph(10, PETERSEN_EDGES)
        assert all(g.degree(v) == 3 for v in range(10))
        assert g.edge_count == 15

    def test_adjacency_sorted_and_hashable(self):
        g = build_graph(4, [(2, 0), (3, 1), (1, 0), (3, 2)])
        assert all(list(nbrs) == sorted(nbrs) for nbrs in g.adjacency)
        same = build_graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert g == same and hash(g) == hash(same)


class TestDistances:
    def test_path_distances(self):
        dm = all_pairs_distances(path_graph(4))
        assert dm.d[0][3] == 3
        assert dm.d[1][2] == 1

    def test_petersen_diameter_two(self):
        dm = all_pairs_distances(build_graph(10, PETERSEN_EDGES))
        assert diameter(dm) == 2

    def test_disconnected_names_vertices(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        with pytest.raises(Disconnected, match="0 and 2"):
            all_pairs_distances(g)

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphError):
            all_pairs_distances(build_graph(0, []))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_path_diameter(self, n):
        assert diameter(all_pairs_distances(path_graph(n))) == n - 1

    def test_k4_and_c6_diameter(self):
        assert diameter(all_pairs_distances(complete_graph(4))) == 1
        assert diameter(all_pairs_distances(cycle_graph(6))) == 3

    @pytest.mark.parametrize("seed", range(6))
    def test_matrix_invariants_random(self, seed):
        rng = Random(seed)
        g = random_connected_graph(rng, rng.randint(2, 9))
        dm = all_pairs_distances(g)
        nbrs = [set(a) for a in g.adjacency]
        for u in range(g.n):
            assert dm.d[u][u] == 0
            for v in range(g.n):
                assert dm.d[u][v] == dm.d[v][u]
                assert (dm.d[u][v] == 1) == (v in nbrs[u])
                for w in range(g.n):
                    assert dm.d[u][w] <= dm.d[u][v] + dm.d[v][w]


class TestStructure:
    def test_is_path(self):
        assert is_path(path_graph(1))
        assert is_path(path_graph(2))
        assert is_path(path_graph(6))
        assert not is_path(cycle_graph(4))
        assert not is_path(star_graph(3))
        assert not is_path(build_graph(4, [(0, 1), (2, 3)]))  # two components

    def test_is_connected(self):
        assert is_connected(path_graph(3))
        assert not is_connected(build_graph(3, [(0, 1)]))

    def test_major_report_star(self):
        g = star_graph(3)
        mr = major_vertex_report(g, all_pairs_distances(g))
        assert mr.majors == (0,)
        assert mr.terminals[0] == (1, 2, 3)
        assert (mr.sigma, mr.ex) == (3, 1)

    def test_major_report_path(self):
        g = path_graph(5)
        mr = major_vertex_report(g, all_pairs_distances(g))
        assert mr.majors == ()
        assert (mr.sigma, mr.ex) == (0, 0)

    def test_major_report_binary_tree_h3(self):
        g = binary_tree(3)
        mr = major_vertex_report(g, all_pairs_distances(g))
        # level-2 vertices each own their two leaf children; the root has
        # degree 2 and is no major
        assert (mr.sigma, mr.ex) == (8, 4)
        assert 0 not in mr.majors
        assert mr.terminals[3] == (7, 8)

    def test_twins_star(self):
        assert twin_partition(star_graph(3)).classes == ((0,), (1, 2, 3))

    def test_twins_path_all_singletons(self):
        assert twin_partition(path_graph(4)).classes == ((0,), (1,), (2,), (3,))

    def test_twins_complete_graph(self):
        # adjacent twins: every pair of K3 vertices
        assert twin_partition(complete_graph(3)).classes == ((0, 1, 2),)

    def test_twins_pendant_pair_tree(self):
        g = build_graph(
            10,
            [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 6), (2, 7), (3, 8), (3, 9)],
        )
        tp = twin_partition(g)
        assert tp.pair_classes == ((4, 5), (6, 7), (8, 9))
        assert len(tp.classes) == 7

    def test_non_transitive_relation_fails_loudly(self, monkeypatch):
        # a broken pairwise relation must be surfaced, never silently repaired
        import mdim.graph as graph_mod

        fake = {(0, 1): True, (1, 2): True, (0, 2): False}

        def broken(g, nbr_sets, u, v):
            return fake.get((u, v), False)

        monkeypatch.setattr(graph_mod, "_are_twins", broken)
        with pytest.raises(RelationNotTransitive):
            twin_partition(path_graph(3))

    @pytest.mark.parametrize("seed", range(8))
    def test_twins_equidistant_property(self, seed):
        rng = Random(seed)
        g = random_connected_graph(rng, rng.randint(3, 9), extra=0.4)
        dm = all_pairs_distances(g)
        for cls in twin_partition(g).classes:
            for i, u in enumerate(cls):
                for v in cls[i + 1:]:
                    for x in range(g.n):
                        if x not in (u, v):
                            assert dm.d[u][x] == dm.d[v][x]


class TestCartesianProduct:
    def test_p2_square_is_c4(self):
        g = cartesian_product(path_graph(2), path_graph(2))
        assert g.edges() == [(0, 1), (0, 2), (1, 3), (2, 3)]

    def test_p3_p2_counts(self):
        g = cartesian_product(path_graph(3), path_graph(2))
        assert (g.n, g.edge_count) == (6, 7)

    def test_distance_law_grid(self):
        g = cartesian_product(path_graph(3), path_graph(4))
        dm = all_pairs_distances(g)
        for a in range(3):
            for b in range(4):
                for a2 in range(3):
                    for b2 in range(4):
                        assert dm.d[a * 4 + b][a2 * 4 + b2] == abs(a - a2) + abs(b - b2)

    def test_distance_law_general_factors(self):
        g, h = cycle_graph(5), path_graph(3)
        dg = all_pairs_distances(g)
        dh = all_pairs_distances(h)
        dm = all_pairs_distances(cartesian_product(g, h))
        for a in range(g.n):
            for b in range(h.n):
                for a2 in range(g.n):
                    for b2 in range(h.n):
                        assert (
                            dm.d[a * h.n + b][a2 * h.n + b2]
                            == dg.d[a][a2] + dh.d[b][b2]
                        )
