import dataclasses
import random

import pytest

from simembed import (
    Caterpillar,
    GridPoint,
    InvalidInstanceError,
    Layer,
    PathOrder,
    SimultaneousEmbedding,
    as_path,
    caterpillar_decompose,
    caterpillar_to_path,
    check_plane_embedding,
    generate,
    maximalize_outerplanar,
    path_from_digits,
    triangulate_plane,
)
from simembed.graphs import _trace_faces, rotation_system_from_faces

TRIANGLE = Layer("planar", [(0, 1), (1, 2), (2, 0)], rotation=[[1, 2], [2, 0], [0, 1]])


def test_embedding_reads_its_extent_off_its_points():
    assert [f.name for f in dataclasses.fields(SimultaneousEmbedding)] == ["coords", "assignments"]
    emb = SimultaneousEmbedding(coords=[GridPoint(1, 1), GridPoint(3, 2)])
    assert (emb.width, emb.height) == (3, 2)
    with pytest.raises(AttributeError):
        emb.width = 9
    with pytest.raises(TypeError):
        SimultaneousEmbedding(coords=emb.coords, width=9, height=9)
    moved = dataclasses.replace(emb, coords=[GridPoint(-4, 7), GridPoint(3, 2), GridPoint(0, 0)])
    assert (moved.width, moved.height) == (8, 8)
    empty = SimultaneousEmbedding(coords=[])
    assert (empty.width, empty.height) == (0, 0)


def test_as_path_basic():
    order = as_path(Layer("path", [(0, 1), (1, 2)]), 3)
    assert order.order == [0, 1, 2]


def test_as_path_rejects_cycle():
    with pytest.raises(InvalidInstanceError):
        as_path(Layer("path", [(0, 1), (1, 2), (2, 0)]), 3)


def test_as_path_rejects_branch_and_disconnection():
    with pytest.raises(InvalidInstanceError):
        as_path(Layer("path", [(0, 1), (0, 2), (0, 3)]), 4)
    # triangle plus isolated path: right edge count, wrong shape
    with pytest.raises(InvalidInstanceError):
        as_path(Layer("path", [(0, 1), (1, 2), (2, 0), (3, 4)]), 5)


def test_as_path_recovers_scrambled_order():
    # v2, v5, v1, v4, v3, v6, v7 as 0-based [1, 4, 0, 3, 2, 5, 6]
    want = [1, 4, 0, 3, 2, 5, 6]
    edges = [(want[i], want[i + 1]) for i in range(6)]
    random.Random(0).shuffle(edges)
    got = as_path(Layer("path", edges), 7)
    assert got.order == want or got.order == want[::-1]
    # deterministic orientation: starts at the lower endpoint index
    assert got.order[0] < got.order[-1]


def test_as_path_roundtrip_random():
    rng = random.Random(1)
    for n in (1, 2, 5, 17, 40):
        for _ in range(20):
            layer = generate("path", n, rng.randrange(10**6))
            order = as_path(layer, n)
            assert sorted(map(tuple, map(sorted, order.edges()))) == sorted(
                map(tuple, map(sorted, layer.edges))
            )


# Error texts of as_path and caterpillar_decompose, by case: the CLI prints
# them as its one error line.
PATH_ERRORS = {
    "branch vertex": (4, [(3, 2), (2, 0), (2, 1)], "not a path: branch vertex 2"),
    "cycle": (3, [(0, 1), (1, 2), (2, 0)], "path on 3 vertices needs 2 edges"),
    "cycle plus isolated vertex": (
        4, [(0, 1), (1, 2), (2, 0)], "not a path: contains a cycle or is disconnected"
    ),
    "path plus separate cycle": (
        6, [(4, 5), (0, 1), (1, 2), (2, 0), (3, 4)], "not a path: disconnected"
    ),
    "n = 1 with an edge": (1, [(0, 0)], "loop at vertex 0"),
    "n = 2 without edges": (2, [], "path on 2 vertices needs 1 edges"),
}
CATERPILLAR_ERRORS = {
    "branch vertex": (
        7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)],
        "not a caterpillar: pruned tree branches at vertex 0",
    ),
    "cycle": (3, [(0, 1), (1, 2), (2, 0)], "tree on 3 vertices needs 2 edges"),
    "path plus separate cycle": (
        6, [(4, 5), (0, 1), (1, 2), (2, 0), (3, 4)], "not a tree: disconnected"
    ),
    "cycle with legs plus separate edge": (
        7, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 4), (5, 6)], "not a tree: disconnected"
    ),
    "branching cycle plus isolated vertex": (
        7, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5)], "not a tree: disconnected"
    ),
    "n = 1 with an edge": (1, [(0, 0)], "loop at vertex 0"),
    "n = 2 without edges": (2, [], "tree on 2 vertices needs 1 edges"),
}


@pytest.mark.parametrize("case", sorted(PATH_ERRORS))
def test_as_path_error_texts(case):
    n, edges, text = PATH_ERRORS[case]
    with pytest.raises(InvalidInstanceError) as exc:
        as_path(Layer("path", edges), n)
    assert str(exc.value) == text


@pytest.mark.parametrize("case", sorted(CATERPILLAR_ERRORS))
def test_caterpillar_decompose_error_texts(case):
    n, edges, text = CATERPILLAR_ERRORS[case]
    with pytest.raises(InvalidInstanceError) as exc:
        caterpillar_decompose(Layer("caterpillar", edges), n)
    assert str(exc.value) == text


def test_one_and_two_vertices():
    assert as_path(Layer("path", []), 1).order == [0]
    assert caterpillar_decompose(Layer("caterpillar", []), 1) == Caterpillar([0], [[]])
    for edge in ((0, 1), (1, 0)):
        assert as_path(Layer("path", [edge]), 2).order == [0, 1]
        assert caterpillar_decompose(Layer("caterpillar", [edge]), 2) == Caterpillar([0], [[1]])


def test_caterpillar_star():
    cat = caterpillar_decompose(Layer("caterpillar", [(0, 1), (0, 2), (0, 3)]), 4)
    assert cat.spine == [0]
    assert cat.legs == [[1, 2, 3]]


def test_caterpillar_spine_with_legs():
    # top row a-b-c is the spine once every spine vertex keeps a leg
    a, b, c, x, y, z = 0, 1, 2, 3, 4, 5
    cat = caterpillar_decompose(
        Layer("caterpillar", [(a, b), (b, c), (a, x), (b, y), (c, z)]), 6
    )
    assert cat.spine == [a, b, c]
    assert cat.legs == [[x], [y], [z]]


def test_caterpillar_legless_end_becomes_leg():
    # leaf pruning absorbs a legless spine end into the neighbor's legs
    a, b, c, x, y = 0, 1, 2, 3, 4
    cat = caterpillar_decompose(
        Layer("caterpillar", [(a, b), (b, c), (a, x), (b, y)]), 5
    )
    assert cat.spine == [a, b]
    # leg order follows input edge order: (b, c) precedes (b, y)
    assert cat.legs == [[x], [c, y]]


def test_caterpillar_two_vertices():
    cat = caterpillar_decompose(Layer("caterpillar", [(1, 0)]), 2)
    assert cat.spine == [0] and cat.legs == [[1]]


def test_caterpillar_rejects_spider():
    # three length-2 legs from a center: pruning leaves a 3-star
    spider = Layer("caterpillar", [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
    with pytest.raises(InvalidInstanceError):
        caterpillar_decompose(spider, 7)


def test_caterpillar_rejects_deep_binary_tree():
    # complete binary tree with 15 vertices: pruning leaves a branching tree
    edges = [(i, 2 * i + 1) for i in range(7)] + [(i, 2 * i + 2) for i in range(7)]
    with pytest.raises(InvalidInstanceError):
        caterpillar_decompose(Layer("caterpillar", edges), 15)


def test_caterpillar_depth2_binary_tree_is_a_caterpillar():
    # pruning the 7-vertex complete binary tree leaves the path 1-0-2
    edges = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]
    cat = caterpillar_decompose(Layer("caterpillar", edges), 7)
    assert cat.spine == [1, 0, 2]


def test_caterpillar_to_path_rule():
    cat = Caterpillar([0, 1, 2], [[3], [4, 5], []])
    assert caterpillar_to_path(cat).order == [0, 3, 1, 4, 5, 2]
    bare = Caterpillar([2, 0, 1], [[], [], []])
    assert caterpillar_to_path(bare).order == [2, 0, 1]


# Five labels that are not a permutation of 0..4, each as an order and in
# path_from_digits' 1-based digits.
NOT_PERMUTATIONS = {
    "repeated vertex": ([0, 1, 1, 3, 4], "11345"),
    "label out of range": ([0, 1, 2, 3, 8], "12349"),
    "missing label": ([1, 2, 3, 4, 5], "23456"),
}


@pytest.mark.parametrize("order, digits", NOT_PERMUTATIONS.values(), ids=NOT_PERMUTATIONS)
def test_paths_and_caterpillars_refuse_a_non_permutation(order, digits):
    with pytest.raises(InvalidInstanceError, match="path must be a permutation of 0..4"):
        PathOrder(order)
    with pytest.raises(InvalidInstanceError, match="path must be a permutation of 0..4"):
        path_from_digits(digits)
    # the bad label in the spine, in a leg, and as a leg of another spine vertex
    for spine, legs in [
        (order[:3], [[], order[3:], []]),
        (order[:1], [order[1:]]),
        (order[3:], [order[:3], []]),
    ]:
        with pytest.raises(InvalidInstanceError, match="caterpillar must be a permutation"):
            Caterpillar(spine, legs)


def test_caterpillar_to_path_properties_random():
    for n in (1, 2, 8, 25, 60):
        for seed in range(15):
            layer = generate("caterpillar", n, seed)
            cat = caterpillar_decompose(layer, n)
            order = caterpillar_to_path(cat).order
            assert sorted(order) == list(range(n))
            adj = {v: set() for v in range(n)}
            for u, v in layer.edges:
                adj[u].add(v)
                adj[v].add(u)
            for a, b in zip(order, order[1:]):
                # consecutive entries are at graph distance <= 2
                assert b in adj[a] or adj[a] & adj[b]


def test_check_plane_embedding_counts():
    assert check_plane_embedding(TRIANGLE, 3) == 2
    k4 = generate("plane-triangulation", 4, 0)
    assert check_plane_embedding(k4, 4) == 4
    # a lone vertex traces no face walk, yet the plane around it is a face
    assert check_plane_embedding(Layer("planar", [], rotation=[[]]), 1) == 1
    assert check_plane_embedding(Layer("planar", [(0, 1)], rotation=[[1], [0]]), 2) == 1


def test_check_plane_embedding_rejects_broken_rotation():
    k4 = generate("plane-triangulation", 4, 0)
    rot = [list(r) for r in k4.rotation]
    bad = next(v for v in range(4) if len(rot[v]) == 3)
    rot[bad] = [rot[bad][1], rot[bad][0], rot[bad][2]]
    broken = Layer("planar", k4.edges, rotation=rot)
    with pytest.raises(InvalidInstanceError):
        check_plane_embedding(broken, 4)


def test_triangulate_plane_triangle_unchanged():
    aug, dummies = triangulate_plane(TRIANGLE, 3)
    assert dummies == []
    assert sorted(map(tuple, map(sorted, aug.edges))) == [(0, 1), (0, 2), (1, 2)]


def test_triangulate_plane_square():
    sq = Layer(
        "planar",
        [(0, 1), (1, 2), (2, 3), (3, 0)],
        rotation=[[1, 3], [2, 0], [3, 1], [0, 2]],
    )
    aug, dummies = triangulate_plane(sq, 4)
    # both quadrilateral faces get a diagonal
    assert len(dummies) == 2
    assert check_plane_embedding(aug, 4) == 4


def test_triangulate_plane_tree_and_star():
    p3 = Layer("planar", [(0, 1), (1, 2)], rotation=[[1], [0, 2], [1]])
    aug, _ = triangulate_plane(p3, 3)
    assert len(aug.edges) == 3
    star = Layer("planar", [(0, 1), (0, 2), (0, 3)], rotation=[[1, 2, 3], [0], [0], [0]])
    aug, _ = triangulate_plane(star, 4)
    assert len(aug.edges) == 6
    assert check_plane_embedding(aug, 4) == 4


def test_triangulate_plane_random_all_faces_triangles():
    rng = random.Random(5)
    for n in (5, 8, 12):
        for _ in range(10):
            lay = generate("plane-triangulation", n, rng.randrange(10**6))
            # knock out some dummy-able edges by taking a plane subgraph:
            # remove a random non-cut edge via faces is fiddly, so instead
            # triangulate squares built from the generator's output faces.
            aug, dummies = triangulate_plane(lay, n)
            assert dummies == []
            assert len(aug.edges) == 3 * n - 6
            faces = _trace_faces(n, aug.edges, aug.rotation)
            assert all(len(f) == 3 for f in faces)


def test_triangulate_plane_cycle_with_chord():
    # hexagon with one chord; all faces must become triangles
    edges = [(i, (i + 1) % 6) for i in range(6)] + [(0, 3)]
    faces = [(0, 1, 2, 3), (3, 4, 5, 0), (0, 5, 4, 3, 2, 1)]
    rotation = rotation_system_from_faces(6, faces)
    lay = Layer("planar", edges, rotation=rotation)
    assert check_plane_embedding(lay, 6) == 3
    aug, dummies = triangulate_plane(lay, 6)
    assert len(aug.edges) == 12
    assert all(len(f) == 3 for f in _trace_faces(6, aug.edges, aug.rotation))


def test_maximalize_outerplanar_examples():
    tri = Layer("outerplanar", [(0, 1), (1, 2), (2, 0)], outer_cycle=[0, 1, 2])
    aug, dummies = maximalize_outerplanar(tri, 3)
    assert dummies == []

    five = Layer("outerplanar", [(i, (i + 1) % 5) for i in range(5)], outer_cycle=list(range(5)))
    aug, dummies = maximalize_outerplanar(five, 5)
    assert len(dummies) == 2
    assert len(aug.edges) == 7

    hexa = Layer(
        "outerplanar",
        [(i, (i + 1) % 6) for i in range(6)] + [(0, 3)],
        outer_cycle=list(range(6)),
    )
    aug, dummies = maximalize_outerplanar(hexa, 6)
    assert len(dummies) == 2
    # one new chord inside each half of the split hexagon
    for u, v in dummies:
        assert (set((u, v)) <= {0, 1, 2, 3}) or (set((u, v)) <= {0, 3, 4, 5})
    assert len(aug.edges) == 2 * 6 - 3


def test_maximalize_adds_missing_cycle_edges():
    # a path declared outerplanar: cycle edges are mostly absent
    path = Layer("outerplanar", [(0, 1), (1, 2), (2, 3)], outer_cycle=[0, 1, 2, 3])
    aug, dummies = maximalize_outerplanar(path, 4)
    assert len(aug.edges) == 5
    assert (0, 3) in dummies or (3, 0) in dummies


def test_maximalize_rejects_crossing_chords():
    bad = Layer(
        "outerplanar",
        [(i, (i + 1) % 6) for i in range(6)] + [(0, 3), (1, 4)],
        outer_cycle=list(range(6)),
    )
    with pytest.raises(InvalidInstanceError):
        maximalize_outerplanar(bad, 6)


def test_maximalize_random_edge_count():
    for n in (3, 5, 9, 20, 41):
        for seed in range(10):
            lay = generate("maximal-outerplanar", n, seed)
            aug, dummies = maximalize_outerplanar(lay, n)
            assert dummies == []
            assert len(aug.edges) == 2 * n - 3
