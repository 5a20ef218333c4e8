from itertools import combinations
from random import Random

import pytest

from mdim import (
    CertificateKind,
    OutcomeKind,
    SearchAborted,
    SearchConfig,
    all_pairs_distances,
    brute_force_md,
    build_graph,
    compute_dim,
    compute_md,
    detect_infinite,
    is_m_resolving,
    is_path,
    major_vertex_report,
    twin_partition,
    verify_witness,
)
from mdim.search import constrained_subsets
from mdim.families import FamilySpec, generate
from helpers import (
    all_connected_graphs,
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected_graph,
)


class TestComputeMd:
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
        g = generate(FamilySpec.counterexample_tree())
        assert detect_infinite(g, all_pairs_distances(g), twin_partition(g)) is None
        outcome = compute_md(g)
        assert outcome.is_infinite
        assert outcome.certificate.kind is CertificateKind.EXHAUSTIVE_SEARCH

    def test_binary_tree_h2(self):
        outcome = compute_md(generate(FamilySpec.kary_tree(2, 2)))
        assert (outcome.value, outcome.witness) == (3, (1, 3, 5))

    def test_nonmonotonicity_regression(self):
        dm = all_pairs_distances(path_graph(4))
        assert is_m_resolving(dm, (0,)).resolving
        assert not is_m_resolving(dm, (0, 3)).resolving

    def test_cap_aborts(self):
        outcome = compute_md(cycle_graph(9), SearchConfig(max_vertices=4))
        assert outcome.kind is OutcomeKind.ABORTED
        assert "cap" in outcome.reason

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
    path has dim(T) = sigma(T) - ex(T), an oracle independent of the search."""

    @staticmethod
    def assert_formula(t):
        mr = major_vertex_report(t, all_pairs_distances(t))
        assert compute_dim(t)[0] == mr.sigma - mr.ex, t.edges()

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


class TestConstrainedSubsets:
    def subsets_oracle(self, n, k, pairs):
        return [
            w
            for w in combinations(range(n), k)
            if all(len(set(w) & set(c)) == 1 for c in pairs)
        ]

    def test_two_pairs(self):
        pairs = ((0, 1), (4, 5))
        got = list(constrained_subsets(6, 2, pairs))
        assert got == [(0, 4), (0, 5), (1, 4), (1, 5)]
        assert got == self.subsets_oracle(6, 2, pairs)

    def test_sizes_out_of_reach_are_empty(self):
        pairs = ((0, 1), (2, 3))
        assert list(constrained_subsets(5, 1, pairs)) == []
        assert list(constrained_subsets(5, 4, pairs)) == []  # max is n - npairs = 3

    def test_no_pairs_is_plain_combinations(self):
        assert list(constrained_subsets(5, 2, ())) == list(combinations(range(5), 2))

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_filter_oracle(self, seed):
        rng = Random(seed)
        n = rng.randint(4, 9)
        ids = list(range(n))
        rng.shuffle(ids)
        npairs = rng.randint(0, n // 2 - 1) if n >= 4 else 0
        pairs = tuple(
            tuple(sorted(ids[2 * i: 2 * i + 2])) for i in range(npairs)
        )
        for k in range(0, n + 1):
            got = list(constrained_subsets(n, k, pairs))
            assert got == self.subsets_oracle(n, k, pairs)
            assert got == sorted(got)


class TestAgainstBruteForce:
    def test_all_connected_graphs_up_to_5(self):
        for n in range(1, 6):
            for g in all_connected_graphs(n):
                fast = compute_md(g)
                slow = brute_force_md(g)
                assert fast.kind == slow.kind, g.edges()
                if fast.is_finite:
                    assert (fast.value, fast.witness) == (slow.value, slow.witness)

    @pytest.mark.parametrize("n,seed", [(6, 0), (6, 1), (7, 2), (7, 3), (8, 4)])
    def test_random_graphs(self, n, seed):
        rng = Random(seed)
        for _ in range(30):
            g = random_connected_graph(rng, n, extra=rng.choice([0.1, 0.3, 0.6]))
            fast = compute_md(g)
            slow = brute_force_md(g)
            assert fast.kind == slow.kind, g.edges()
            if fast.is_finite:
                assert (fast.value, fast.witness) == (slow.value, slow.witness)

    def test_petersen_brute_force_infinite(self):
        assert brute_force_md(build_graph(10, generate(FamilySpec.petersen()).edges())).is_infinite


class TestDeterminism:
    SPECS = ["cycle:8", "karytree:2x2", "grid:3x3", "cextree", "substar:4x3"]

    @pytest.mark.parametrize("spec", SPECS)
    def test_parallel_matches_serial(self, spec):
        from mdim import parse_family_spec

        g = generate(parse_family_spec(spec))
        serial = compute_md(g, SearchConfig(workers=1))
        parallel = compute_md(g, SearchConfig(workers=3))
        assert serial == parallel
