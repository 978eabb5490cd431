"""Random hyperbolic graphs: subquadratic generation via a polar quadtree
over the Poincare disk, a brute-force reference, and structural analysis.

The public names load lazily (PEP 562): `import hrgen` imports no submodule
and so no numpy, which lets `python -m hrgen` choose numpy's BLAS threading
in `hrgen.cli` before numpy starts. `hrgen.generate` or `from hrgen import *`
imports the submodule that defines the name.
"""

import importlib

_EXPORTS = {
    "analysis": (
        "AnalysisReport", "analyze", "bfs_distances", "connected_component_sizes",
        "core_numbers", "degree_assortativity", "diameter_bounds", "global_clustering",
        "local_clustering", "mean_local_clustering", "power_law_exponent", "triangle_count",
    ),
    "errors": (
        "InfeasibleParametersError", "InsufficientDataError", "OutOfBoundsError",
        "ParameterDomainError",
    ),
    "generator": (
        "GenerationStats", "GeneratorParams", "VertexCoordinates", "add_long_range_edges",
        "generate", "generate_brute_force", "generate_with_stats", "sample_points",
    ),
    "geometry": (
        "alpha_from_gamma", "expected_avg_degree", "poincare_image", "radial_inverse_cdf",
        "target_radius", "to_poincare_radius",
    ),
    "graph": ("Graph",),
    "graphio": ("EdgeListHeader", "read_edgelist", "write_edgelist", "write_metis"),
    "quadtree": ("PolarQuadtree",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted([*globals(), *__all__])
