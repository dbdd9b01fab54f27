"""Simultaneous straight-line grid embeddings of layered graphs.

With a given vertex mapping: two paths on an n x n grid, a path plus a
caterpillar on at most (2n-k) x n, two caterpillars on pn x pn for p the
smallest prime >= n.  Without a mapping, one pipeline: a point set with no
three points collinear, then every outerplanar layer mapped onto it.  Any
number of outerplanar graphs share a near-n x n grid; one plane graph plus
any number of outerplanar graphs share an O(n^2) x O(n^3) grid, under
2n^2 x 16n^3.  General position comes in closed form from a mod-p
quadratic: Erdős's parabola for the point set alone, and a sheared lift of
the plane layer's shift-method drawing.  Every output can be certified
independently with exact integer predicates, and the bundled five-path
family comes with an exhaustive impossibility check.
"""

from .certify import (
    CertificateReport,
    Violation,
    certify_embedding,
    certify_general_position,
)
from .errors import (
    CoordinateBudgetError,
    DuplicatePointError,
    InternalInvariantError,
    InvalidInstanceError,
    ParseError,
    SearchBudgetError,
    SimembedError,
    UnsupportedInstanceError,
)
from .generate import generate
from .geometry import (
    COORD_LIMIT,
    GridPoint,
    convex_hull,
    find_collinear_triple,
    orient,
)
from .graphs import (
    Caterpillar,
    Layer,
    LayeredInstance,
    PathOrder,
    SimultaneousEmbedding,
    as_path,
    caterpillar_decompose,
    caterpillar_to_path,
    check_plane_embedding,
    maximalize_outerplanar,
    triangulate_plane,
    validate_instance,
    validate_layer,
)
from .mapped import (
    embed_path_caterpillar,
    embed_two_caterpillars,
    embed_two_paths,
    refine_general_position,
)
from .smallcases import (
    FIVE_PATHS,
    FivePointSearchResult,
    PairCoverage,
    exhaustive_five_point_check,
    five_path_pair_coverage,
    path_from_digits,
)
from .documents import (
    parse_instance,
    parse_result,
    serialize_instance,
    serialize_result,
)
from .svg import render_svg
from .unmapped import (
    embed_outerplanar_on_points,
    general_position_bounds,
    parabola_pointset,
    planar_general_position_draw,
    planar_grid_draw,
    simul_embed_free,
)

__version__ = "0.1.0"

__all__ = [
    "COORD_LIMIT",
    "Caterpillar",
    "CertificateReport",
    "CoordinateBudgetError",
    "DuplicatePointError",
    "FIVE_PATHS",
    "FivePointSearchResult",
    "GridPoint",
    "InternalInvariantError",
    "InvalidInstanceError",
    "Layer",
    "LayeredInstance",
    "PairCoverage",
    "ParseError",
    "PathOrder",
    "SearchBudgetError",
    "SimembedError",
    "SimultaneousEmbedding",
    "UnsupportedInstanceError",
    "Violation",
    "as_path",
    "caterpillar_decompose",
    "caterpillar_to_path",
    "certify_embedding",
    "certify_general_position",
    "check_plane_embedding",
    "cli_main",
    "convex_hull",
    "embed_outerplanar_on_points",
    "embed_path_caterpillar",
    "embed_two_caterpillars",
    "embed_two_paths",
    "exhaustive_five_point_check",
    "find_collinear_triple",
    "five_path_pair_coverage",
    "general_position_bounds",
    "generate",
    "maximalize_outerplanar",
    "orient",
    "parabola_pointset",
    "parse_instance",
    "parse_result",
    "path_from_digits",
    "planar_general_position_draw",
    "planar_grid_draw",
    "refine_general_position",
    "render_svg",
    "serialize_instance",
    "serialize_result",
    "simul_embed_free",
    "triangulate_plane",
    "validate_instance",
    "validate_layer",
]


def __getattr__(name: str):
    # The command line is imported on first use (PEP 562): imported eagerly,
    # ``python -m simembed.cli`` would find the module loaded before running it.
    if name == "cli_main":
        from .cli import cli_main

        return cli_main
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
