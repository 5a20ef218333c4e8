"""md and dim do not depend on vertex labels: relabelling a graph keeps the
answer, and the relabelled witness still resolves."""

from random import Random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from mdim import (
    all_pairs_distances,
    build_graph,
    compute_dim,
    compute_md,
    is_m_resolving,
)
from helpers import random_connected_graph


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
