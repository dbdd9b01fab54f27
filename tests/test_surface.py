import re

import pytest

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


# Library refusals that the CLI never reaches, because its parser or its
# dispatch refuses the input first: each public entry point names its own
# precondition.
_TRIANGLE = [(0, 1), (1, 2), (0, 2)]
REFUSALS = [
    (lambda: simembed.Caterpillar([0, 1], [[2]]), "one leg list per spine vertex required"),
    (lambda: simembed.validate_layer(simembed.Layer("tree", []), 1), "unknown layer class 'tree'"),
    (
        lambda: simembed.validate_layer(simembed.Layer("outerplanar", [(0, 1)]), 2),
        "outerplanar layer requires its outer cycle",
    ),
    (
        lambda: simembed.validate_instance(
            simembed.LayeredInstance(2, [simembed.Layer("path", [(0, 1)])], "partial")
        ),
        "mapping must be 'given' or 'free', got 'partial'",
    ),
    (
        lambda: simembed.check_plane_embedding(simembed.Layer("path", [(0, 1)]), 2),
        "plane embedding check requires a rotation system",
    ),
    (
        lambda: simembed.check_plane_embedding(
            simembed.Layer(
                "outerplanar", _TRIANGLE, rotation=[[1, 2], [0], [0, 1]], outer_cycle=[0, 1, 2]
            ),
            3,
        ),
        "rotation at vertex 1 is not a permutation of its neighbors",
    ),
    (
        lambda: simembed.maximalize_outerplanar(simembed.Layer("path", [(0, 1), (1, 2)]), 3),
        "maximalization requires the outer cycle",
    ),
    (
        lambda: simembed.embed_two_caterpillars(
            simembed.Caterpillar([0], [[1]]), simembed.Caterpillar([0], [[1, 2]])
        ),
        "caterpillars must share one vertex set",
    ),
    (
        lambda: simembed.embed_path_caterpillar(
            simembed.PathOrder([0, 1]), simembed.Caterpillar([0], [[1, 2]])
        ),
        "path and caterpillar must share one vertex set",
    ),
    (
        lambda: simembed.five_path_pair_coverage([simembed.PathOrder([0, 1, 2, 3])]),
        "pair coverage is defined for 5-vertex paths",
    ),
    (lambda: simembed.parabola_pointset(0), "point set needs at least one point"),
    (
        lambda: simembed.embed_outerplanar_on_points(
            simembed.Layer("path", [(0, 1)]), simembed.parabola_pointset(2)
        ),
        "point-set embedding expects an outerplanar layer",
    ),
    (lambda: simembed.simul_embed_free([], 3), "need at least one layer"),
    (lambda: simembed.generate("nosuch", 3, 0), "unknown generator kind 'nosuch'"),
    (lambda: simembed.generate("plane-triangulation", 2, 0), "triangulation needs n >= 3"),
]


@pytest.mark.parametrize("call, words", REFUSALS, ids=[words for _, words in REFUSALS])
def test_library_refusal_names_its_precondition(call, words):
    with pytest.raises(simembed.InvalidInstanceError, match=re.escape(words)):
        call()
