"""md and dim do not depend on vertex labels: relabelling a graph keeps the
answer, and the relabelled witness still resolves."""

from random import Random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from mdim import (
    all_pairs_distances,
    brute_force_md,
    build_graph,
    compute_dim,
    compute_md,
    generate,
    is_m_resolving,
    is_metric_resolving,
    parse_family_spec,
)
from mdim.resolving import least_resolving_set
from mdim.search import SearchConfig
from helpers import random_connected_graph, random_legged_graph, random_twinned_graph


@st.composite
def relabelled_pairs(draw):
    n = draw(st.integers(5, 10))
    g = random_connected_graph(
        Random(draw(st.integers(0, 2**32 - 1))), n, extra=draw(st.sampled_from([0.1, 0.3, 0.6]))
    )
    perm = draw(st.permutations(range(n)))
    h = build_graph(n, [(perm[u], perm[v]) for u, v in g.edges()])
    return g, h, perm


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(relabelled_pairs())
def test_md_and_dim_survive_relabelling(pair):
    g, h, perm = pair
    before, after = compute_md(g), compute_md(h)
    assert (after.kind, after.value) == (before.kind, before.value)
    if before.is_infinite:
        assert after.certificate.kind is before.certificate.kind
    if before.is_finite:
        moved = [perm[v] for v in before.witness]
        assert is_m_resolving(all_pairs_distances(h), moved).resolving
    assert compute_dim(h)[0] == compute_dim(g)[0]


# Graphs of order 10 and up reach the swap and leg tables of md and dim
# (comb(10, 3) = 120 > 10^2), whose swap rule keeps only the least set of
# each orbit, an order that moves with the vertex ids: the md_hard graphs
# of the benchmark, then random legged graphs, then graphs with cycles
# and many twins, whose swaps are their equal legs and twin pairs.
HARD = ("substar:7x3", "substar:6x4", "substar:8x2", "karytree:2x3", "cextree")
CAP = SearchConfig(max_vertices=25)


def assert_relabelling_keeps_answers(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    h = build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    dm = all_pairs_distances(h)
    before, after = compute_md(g, CAP), compute_md(h, CAP)
    assert (after.kind, after.value) == (before.kind, before.value), g.edges()
    if before.is_infinite:
        assert after.certificate.kind is before.certificate.kind
    else:
        moved = [perm[v] for v in before.witness]
        assert is_m_resolving(dm, moved).resolving, (g.edges(), perm)
    (dim, w), (dim_after, w_after) = compute_dim(g, CAP), compute_dim(h, CAP)
    assert dim_after == dim, (g.edges(), perm)
    assert is_metric_resolving(dm, [perm[v] for v in w]).resolving, (g.edges(), perm)
    if h.n <= 12:
        slow = brute_force_md(h)
        assert (after.kind, after.value, after.witness) == (
            slow.kind, slow.value, slow.witness
        ), h.edges()
        least = least_resolving_set(dm, ordered=True)
        assert (dim_after, w_after) == (len(least), least), h.edges()


@pytest.mark.parametrize("spec", HARD)
def test_hard_graphs_survive_relabelling(spec):
    g = generate(parse_family_spec(spec))
    rng = Random(spec)
    for _ in range(4):
        assert_relabelling_keeps_answers(g, rng)


def test_legged_graphs_survive_relabelling():
    rng = Random(16)
    for _ in range(160):
        g = random_legged_graph(
            rng, rng.randint(10, 12), extra=rng.choice([0.0, 0.0, 0.1, 0.25])
        )
        assert_relabelling_keeps_answers(g, rng)


def test_twinned_graphs_survive_relabelling():
    rng = Random(18)
    done = 0
    while done < 80:
        g = random_twinned_graph(rng, rng.randint(10, 12), extra=rng.choice([0.1, 0.25]))
        if g.edge_count >= g.n:
            assert_relabelling_keeps_answers(g, rng)
            done += 1
