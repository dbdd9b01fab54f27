import simembed

# The package's public names.  A name joins or leaves this list on purpose,
# with a pipeline, a CLI command or an acceptance criterion that needs it.
PUBLIC_NAMES = [
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

# Removed because they duplicated what the pipelines already use:
# _conflict_raw, a plain point list, _next_prime, certify_embedding's bounds.
REMOVED_NAMES = [
    "DegenerateSegmentError",
    "ParabolaSet",
    "Segment",
    "certify_bounds",
    "disjoint_edge_pairs",
    "segments_conflict",
]


def test_public_surface_is_pinned():
    assert len(PUBLIC_NAMES) == 53
    assert sorted(simembed.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(simembed, name), name
    for name in REMOVED_NAMES:
        assert not hasattr(simembed, name), name
