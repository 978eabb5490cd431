"""Random hyperbolic graphs: subquadratic generation via a polar quadtree
over the Poincare disk, a brute-force reference, and structural analysis."""

from .analysis import (
    AnalysisReport,
    analyze,
    bfs_distances,
    connected_component_sizes,
    core_numbers,
    degree_assortativity,
    diameter_bounds,
    global_clustering,
    local_clustering,
    mean_local_clustering,
    power_law_exponent,
    triangle_count,
)
from .errors import (
    InfeasibleParametersError,
    InsufficientDataError,
    OutOfBoundsError,
    ParameterDomainError,
)
from .generator import (
    GenerationStats,
    GeneratorParams,
    VertexCoordinates,
    add_long_range_edges,
    generate,
    generate_brute_force,
    generate_with_stats,
    sample_points,
)
from .geometry import (
    EuclideanCircle,
    ModelParams,
    NativePoint,
    PoincarePoint,
    alpha_from_gamma,
    expected_avg_degree,
    hyperbolic_circle_to_euclidean,
    normalize_angle,
    poincare_distance,
    radial_inverse_cdf,
    target_radius,
    to_native_radius,
    to_poincare_radius,
)
from .graph import Graph
from .graphio import EdgeListHeader, read_edgelist, write_edgelist, write_metis
from .quadtree import PolarQuadtree

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "EdgeListHeader",
    "EuclideanCircle",
    "GenerationStats",
    "GeneratorParams",
    "Graph",
    "InfeasibleParametersError",
    "InsufficientDataError",
    "ModelParams",
    "NativePoint",
    "OutOfBoundsError",
    "ParameterDomainError",
    "PoincarePoint",
    "PolarQuadtree",
    "VertexCoordinates",
    "add_long_range_edges",
    "alpha_from_gamma",
    "analyze",
    "bfs_distances",
    "connected_component_sizes",
    "core_numbers",
    "degree_assortativity",
    "diameter_bounds",
    "expected_avg_degree",
    "generate",
    "generate_brute_force",
    "generate_with_stats",
    "global_clustering",
    "hyperbolic_circle_to_euclidean",
    "local_clustering",
    "mean_local_clustering",
    "normalize_angle",
    "poincare_distance",
    "power_law_exponent",
    "radial_inverse_cdf",
    "read_edgelist",
    "sample_points",
    "target_radius",
    "to_native_radius",
    "to_poincare_radius",
    "triangle_count",
    "write_edgelist",
    "write_metis",
]
