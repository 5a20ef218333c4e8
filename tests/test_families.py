import math

import pytest

from mdim import (
    SearchConfig,
    all_pairs_distances,
    brute_force_md,
    cartesian_product,
    compute_md,
    verify_witness,
)
from mdim.families import (
    ExpectedMd,
    FamilyKind,
    FamilySpec,
    InvalidParameter,
    MdKind,
    NoKnownWitness,
    expected_md,
    generate,
    parse_family_spec,
    witness_for,
)
from helpers import complete_graph, cycle_graph, path_graph, star_graph


class TestSpecParsing:
    ROUND_TRIPS = [
        "path:7", "cycle:9", "complete:5", "star:4", "substar:4x3",
        "grid:4x5", "karytree:2x3", "petersen", "cextree",
    ]

    @pytest.mark.parametrize("text", ROUND_TRIPS)
    def test_round_trip(self, text):
        assert str(parse_family_spec(text)) == text

    @pytest.mark.parametrize(
        "bad", ["", "path", "path:2x3", "grid:4", "foo:3", "cycle:", "grid:4x-1", "petersen:2"]
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(InvalidParameter):
            parse_family_spec(bad)

    @pytest.mark.parametrize(
        "spec,message",
        [
            (FamilySpec(FamilyKind.GRID, (3,)), "family 'grid' takes 2 parameter(s), got 1"),
            (
                FamilySpec(FamilyKind.PETERSEN, (3,)),
                "family 'petersen' takes 0 parameter(s), got 1",
            ),
        ],
    )
    @pytest.mark.parametrize("use", [generate, expected_md, witness_for])
    def test_wrong_parameter_count_outside_the_parser(self, spec, message, use):
        # a spec built without parse_family_spec gets the parser's message
        with pytest.raises(InvalidParameter) as err:
            use(spec)
        assert str(err.value) == message

    def test_out_of_range_params_fail_at_generate(self):
        with pytest.raises(InvalidParameter, match="n >= 3"):
            generate(FamilySpec.cycle(2))
        with pytest.raises(InvalidParameter, match="n >= 1"):
            generate(FamilySpec.path(0))
        with pytest.raises(InvalidParameter):
            generate(FamilySpec.kary_tree(0, 2))


class TestGenerate:
    def test_path_cycle_star_complete_counts(self):
        for n in range(1, 8):
            assert generate(FamilySpec.path(n)) == path_graph(n)
        for n in range(3, 8):
            assert generate(FamilySpec.cycle(n)) == cycle_graph(n)
        for n in range(1, 6):
            g = generate(FamilySpec.star(n))
            assert (g.n, g.edge_count) == (n + 1, n)
            assert g == star_graph(n)
        for n in range(1, 6):
            g = generate(FamilySpec.complete(n))
            assert (g.n, g.edge_count) == (n, math.comb(n, 2))
            assert g == complete_graph(n)

    def test_unsubdivided_star_is_star(self):
        assert generate(FamilySpec.subdivided_star(3, 1)) == generate(FamilySpec.star(3))

    def test_subdivided_star_branch_layout(self):
        g = generate(FamilySpec.subdivided_star(4, 3))
        dm = all_pairs_distances(g)
        assert g.n == 13
        # branch b occupies ids 1+(b-1)p .. bp at distances 1..p from the hub
        for b in range(1, 5):
            ids = [1 + (b - 1) * 3 + t for t in range(3)]
            assert [dm.d[0][v] for v in ids] == [1, 2, 3]

    def test_kary_tree_counts(self):
        g = generate(FamilySpec.kary_tree(2, 2))
        assert (g.n, g.edge_count) == (7, 6)
        assert g.adjacency[0] == (1, 2)
        g = generate(FamilySpec.kary_tree(3, 2))
        assert (g.n, g.edge_count) == (13, 12)

    def test_grid_equals_path_product(self):
        g = generate(FamilySpec.grid(3, 2))
        assert (g.n, g.edge_count) == (6, 7)
        assert g == cartesian_product(path_graph(3), path_graph(2))
        # independent hand-built oracle for the 3x2 labelling
        expected = [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 5), (4, 5)]
        assert g.edges() == expected

    def test_grid_labelling(self):
        g = generate(FamilySpec.grid(3, 4))
        # row-major: vertex in row 3, column 1 has id 8 and two neighbors
        assert g.adjacency[8] == (4, 9)

    def test_petersen(self):
        g = generate(FamilySpec.petersen())
        assert (g.n, g.edge_count) == (10, 15)
        assert all(g.degree(v) == 3 for v in range(10))
        assert g.adjacency[5] == (0, 7, 8)

    def test_counterexample_tree(self):
        g = generate(FamilySpec.counterexample_tree())
        assert (g.n, g.edge_count) == (10, 9)
        assert g.adjacency[0] == (1, 2, 3)
        assert g.adjacency[1] == (0, 4, 5)


EXPECTED_TABLE = [
    ("path:1", MdKind.FINITE, 1),
    ("path:9", MdKind.FINITE, 1),
    ("cycle:3", MdKind.INFINITE, None),
    ("cycle:5", MdKind.INFINITE, None),
    ("cycle:6", MdKind.FINITE, 3),
    ("cycle:12", MdKind.FINITE, 3),
    ("complete:1", MdKind.FINITE, 1),
    ("complete:2", MdKind.FINITE, 1),
    ("complete:3", MdKind.INFINITE, None),
    ("star:1", MdKind.FINITE, 1),
    ("star:2", MdKind.FINITE, 1),
    ("star:3", MdKind.INFINITE, None),
    ("substar:1x3", MdKind.FINITE, 1),
    ("substar:2x4", MdKind.FINITE, 1),
    ("substar:4x1", MdKind.INFINITE, None),
    ("substar:3x2", MdKind.UNSPECIFIED, None),
    ("substar:3x5", MdKind.UNSPECIFIED, None),
    ("substar:4x2", MdKind.UNSPECIFIED, None),
    ("substar:4x3", MdKind.FINITE, 3),
    ("substar:4x4", MdKind.FINITE, 3),
    ("substar:4x5", MdKind.FINITE, 3),
    ("substar:5x4", MdKind.UNSPECIFIED, None),
    ("substar:5x5", MdKind.FINITE, 4),
    ("substar:6x5", MdKind.FINITE, 5),
    ("substar:7x6", MdKind.UNSPECIFIED, None),
    ("substar:7x7", MdKind.FINITE, 6),
    ("grid:1x7", MdKind.FINITE, 1),
    ("grid:7x1", MdKind.FINITE, 1),
    ("grid:2x2", MdKind.INFINITE, None),
    ("grid:2x3", MdKind.UNSPECIFIED, None),
    ("grid:3x2", MdKind.FINITE, 3),
    ("grid:5x5", MdKind.FINITE, 3),
    ("karytree:1x5", MdKind.FINITE, 1),
    ("karytree:2x1", MdKind.FINITE, 1),
    ("karytree:2x2", MdKind.FINITE, 3),
    ("karytree:2x4", MdKind.FINITE, 15),
    ("karytree:3x2", MdKind.INFINITE, None),
    ("petersen", MdKind.INFINITE, None),
    ("cextree", MdKind.INFINITE, None),
]


class TestExpectedMd:
    @pytest.mark.parametrize("text,kind,value", EXPECTED_TABLE)
    def test_table(self, text, kind, value):
        got = expected_md(parse_family_spec(text))
        assert got.kind is kind
        assert got.value == value
        if kind is MdKind.UNSPECIFIED:
            assert got.note

    def test_constructors(self):
        assert ExpectedMd.finite(3).value == 3
        assert ExpectedMd.infinite().kind is MdKind.INFINITE


class TestWitnessFor:
    def test_known_witnesses(self):
        assert witness_for(parse_family_spec("cycle:8")) == (0, 1, 3)
        assert witness_for(parse_family_spec("grid:3x4")) == (0, 1, 8)
        assert witness_for(parse_family_spec("grid:4x5")) == (0, 1, 10)
        assert witness_for(parse_family_spec("karytree:2x3")) == (1, 3, 5, 7, 9, 11, 13)
        assert witness_for(parse_family_spec("substar:4x3")) == (1, 5, 9)
        assert witness_for(parse_family_spec("substar:5x4")) == (1, 6, 11, 16)
        assert witness_for(parse_family_spec("path:6")) == (0,)
        assert witness_for(parse_family_spec("karytree:1x4")) == (0,)

    @pytest.mark.parametrize(
        "text", ["petersen", "complete:4", "cycle:5", "substar:3x2", "grid:2x5", "karytree:3x2", "cextree"]
    )
    def test_no_witness_zones(self, text):
        with pytest.raises(NoKnownWitness):
            witness_for(parse_family_spec(text))

    VERIFIABLE = [
        "path:1", "path:5",
        "cycle:6", "cycle:7", "cycle:10",
        "grid:3x2", "grid:3x5", "grid:4x2", "grid:5x2",
        "karytree:2x1", "karytree:2x2", "karytree:2x3",
        "substar:4x3", "substar:4x4", "substar:6x5", "substar:8x7",
    ]

    @pytest.mark.parametrize("text", VERIFIABLE)
    def test_witness_verifies_and_matches_value(self, text):
        spec = parse_family_spec(text)
        w = witness_for(spec)
        assert verify_witness(generate(spec), w).multiset.resolving
        expected = expected_md(spec)
        assert expected.kind is MdKind.FINITE
        assert len(w) == expected.value

    @pytest.mark.parametrize("text", ["grid:4x3", "grid:4x4", "grid:5x3"])
    def test_grid_witness_fails_off_the_narrow_zones(self, text):
        # documented defect of the published corner-triple construction
        spec = parse_family_spec(text)
        report = verify_witness(generate(spec), witness_for(spec))
        assert not report.multiset.resolving

    @pytest.mark.parametrize("text", ["substar:5x4", "substar:5x5", "substar:7x6"])
    def test_substar_witness_fails_for_odd_branch_counts(self, text):
        # documented defect of the published depth assignment: a depth-2
        # vertex on the shallowest witness branch mirrors a vertex beside
        # the deepest witness when the branch count is odd
        spec = parse_family_spec(text)
        report = verify_witness(generate(spec), witness_for(spec))
        assert not report.multiset.resolving


class TestExpectedAgainstSolver:
    FINITE = ["path:8", "cycle:7", "grid:3x3", "grid:4x4", "karytree:2x2", "substar:4x3"]
    INFINITE = ["cycle:4", "complete:5", "star:4", "substar:4x1", "grid:2x2",
                "karytree:3x2", "petersen", "cextree"]

    @pytest.mark.parametrize("text", FINITE)
    def test_finite_values(self, text):
        spec = parse_family_spec(text)
        outcome = compute_md(generate(spec))
        assert outcome.is_finite
        assert outcome.value == expected_md(spec).value

    @pytest.mark.parametrize("text", INFINITE)
    def test_infinite_zones(self, text):
        spec = parse_family_spec(text)
        assert compute_md(generate(spec)).is_infinite

    def test_unspecified_zone_probe(self):
        # the 3-branch doubly subdivided star: claimed 2 is impossible,
        # brute force settles it at 3
        outcome = brute_force_md(generate(parse_family_spec("substar:3x2")))
        assert outcome.is_finite and outcome.value == 3

    def test_five_branch_boundary_counterexample(self):
        # the published value n-1 = 4 fails at n = 5, p = 4: the minimum
        # resolving set has five vertices and includes the hub
        outcome = compute_md(generate(parse_family_spec("substar:5x4")))
        assert outcome.is_finite
        assert outcome.value == 5
        assert outcome.witness == (0, 1, 6, 11, 16)

    def test_odd_branch_recovery_above_boundary(self):
        # one step past the boundary the claimed value holds again; the
        # working depth set swaps n-1 for n (frozen from exhaustion)
        g = generate(parse_family_spec("substar:5x5"))
        assert verify_witness(g, (1, 7, 13, 20)).multiset.resolving
        outcome = compute_md(g, SearchConfig(max_vertices=26))
        assert (outcome.value, outcome.witness) == (4, (1, 7, 13, 20))
