"""Distances, twin classes and connected-class counts against networkx,
an independent implementation.  Skipped when networkx is not installed;
mdim itself does not depend on it."""

from random import Random

import pytest

nx = pytest.importorskip("networkx")

from mdim import all_pairs_distances, twin_partition
from mdim.harness import scan_small_graphs
from helpers import random_connected_graph


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


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_dedup_scan_counts_connected_classes(n):
    atlas = [h for h in nx.graph_atlas_g() if len(h) == n and nx.is_connected(h)]
    assert scan_small_graphs(n, dedup=True).graphs_connected == len(atlas)
