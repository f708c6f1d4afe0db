"""Percolation and metric-distortion laboratory for the hypercube.

The cube on n coordinates is percolated edge by edge (and optionally
vertex by vertex) with counter-based draws, so a (model, seed) pair
names one sample forever.  On top of that sit exact metric tools
(components, BFS, distortion of vertex maps), the good-vertex embedding
construction, path-family moment estimates, short-cycle censuses with
an analytic count bound, local routing, and a sweep harness with
golden-file verification.
"""

from .cycles import (
    ClosedWalk,
    CycleSearchResult,
    ExtractionResult,
    SimpleCycle,
    cycle_count_bound,
    double_factorial,
    extract_simple_cycle,
    find_cycles_near,
    image_walk,
)
from .embedding import (
    FailureReport,
    MomentEstimate,
    NeighborDistanceStats,
    analytic_moments,
    build_good_map,
    mc_open_path_count,
    neighbor_distance_stats,
)
from .errors import (
    ConfigError,
    CubePercError,
    GiantTooSmall,
    MissingGolden,
    NotAdjacent,
    SourceAbsent,
)
from .harness import GoldenReport, SweepConfig, run_sweep, verify_goldens
from .hypercube import (
    CoordinatePartition,
    CubeShape,
    NeighborRetraceSpec,
    edge_index,
    enumerate_paths,
    hamming,
    make_partition,
)
from .metrics import (
    ComponentLabeling,
    DistortionReport,
    VertexMap,
    bfs,
    bounded_distance,
    brute_force_min_distortion,
    components,
    evaluate_distortion,
)
from .percolation import (
    CounterStream,
    PercModel,
    PercolationSample,
    deserialize,
    mix64,
    sample,
)
from .routing import RouteTrace, audit_locality, local_route

__version__ = "0.1.0"

__all__ = [
    "ClosedWalk",
    "ComponentLabeling",
    "ConfigError",
    "CoordinatePartition",
    "CounterStream",
    "CubePercError",
    "CubeShape",
    "CycleSearchResult",
    "DistortionReport",
    "ExtractionResult",
    "FailureReport",
    "GiantTooSmall",
    "GoldenReport",
    "MissingGolden",
    "MomentEstimate",
    "NeighborDistanceStats",
    "NeighborRetraceSpec",
    "NotAdjacent",
    "PercModel",
    "PercolationSample",
    "RouteTrace",
    "SimpleCycle",
    "SourceAbsent",
    "SweepConfig",
    "VertexMap",
    "analytic_moments",
    "audit_locality",
    "bfs",
    "bounded_distance",
    "brute_force_min_distortion",
    "build_good_map",
    "components",
    "cycle_count_bound",
    "deserialize",
    "double_factorial",
    "edge_index",
    "enumerate_paths",
    "evaluate_distortion",
    "extract_simple_cycle",
    "find_cycles_near",
    "hamming",
    "image_walk",
    "local_route",
    "make_partition",
    "mc_open_path_count",
    "mix64",
    "neighbor_distance_stats",
    "run_sweep",
    "sample",
    "verify_goldens",
]
