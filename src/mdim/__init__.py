"""Exact multiset-dimension and metric-dimension toolkit for small graphs."""

from .graph import (
    DistanceMatrix,
    Disconnected,
    DuplicateEdge,
    Graph,
    GraphError,
    LoopEdge,
    MajorVertexReport,
    RelationNotTransitive,
    TwinPartition,
    VertexOutOfRange,
    all_pairs_distances,
    build_graph,
    cartesian_product,
    is_connected,
    is_path,
    major_vertex_report,
    twin_partition,
)
from .resolving import (
    CertificateKind,
    CollisionReport,
    InfiniteCertificate,
    LowerBoundReport,
    detect_infinite,
    dim_lower_bound,
    is_m_resolving,
    is_metric_resolving,
    md_lower_bound,
    order_diameter_lower_bound,
    representation,
)
from .search import (
    OutcomeKind,
    ResolveOutcome,
    SearchAborted,
    SearchConfig,
    WitnessReport,
    brute_force_md,
    compute_dim,
    compute_md,
    verify_witness,
)
from .families import (
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

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
