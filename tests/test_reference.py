"""The optimized routines against their plain references.

The package's outerplanar completion read off the chord nesting,
one-pass chord check, flip
generator that updates its dart map in place, path + caterpillar layout
with a running shift, bounding-box scan of the certifier and bucketed
full collinearity scan must return exactly what the fan over the traced
faces, the chord pair scan, the rebuild-per-flip generator, the shift pass
over all vertices, the all-pairs edge loop and the cubic triple loop in
``reference.py`` return, on inputs chosen so that faces of every size get
completed, chords nest, cross and share endpoints, and edges overlap,
touch and tie in every way a grid allows; the plane face completion,
which fixes no chord order, must keep the input and give a simple
triangulation whose rotations extend the input's; the certifier's Shamos–Hoey
decision must say yes exactly when the exact predicate finds some
conflicting pair among all pairs, its rules for a monotone path
and for fans in disjoint slabs may accept only layers in which the
all-pairs loop finds no conflict, and
that predicate, which stops at the
first separating line, must answer as the one that computes all four
orientations first.  The five-point search on candidate
bitmasks must report what the conflict-table search and the
per-placement search reported, and with its shadows hoisted and looked
up in one table what the loop that recomputed them per candidate
reported, and when the order types prove the paths impossible it must
count without placing vertex 3 what it counts when it places it; its
shadow masks must hold exactly the points whose segment properly
crosses.  Above grid 8 it must report what the separate sampled loop
reported for paths that no order type carries, and for the others the
first labeling of an order type's points that the per-placement checks
accept, transposed on a grid less than 7 high.  The
outerplanar point-set embedder, with lazy angular orders, interval
chains and float-keyed sorts, must assign what the eager slicing loop with comparator sorts
assigns, its split, which builds no rank table, must return what the
split on full rank dicts returned, and the heap-driven peeling of the
shift-method drawing must draw what the walk over the whole outer path
drew.  The Miller-Rabin prime search must find the primes that trial
division finds.  The brute-force
assignment search that the point-set tests use as an oracle is checked
here on hand-made cases.
"""

import itertools
import random
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    bare_cycle,
    columns,
    flip_and_shuffle,
    general_position_points,
    random_general_position,
    thin_outerplanar,
    thin_plane,
)
from reference import (
    angular_sort_comparator,
    as_path_neighbour_lists,
    brute_force_point_assignment,
    caterpillar_decompose_neighbour_lists,
    certifier_pair_tests,
    chords_cross,
    collinear_triples_cubic,
    conflict_four_orientations,
    crossing_chords_pair_scan,
    draw_triangulation_path_walk,
    embed_on_general_position_eager,
    five_point_check_dfs,
    five_point_witness_scan,
    layer_crossings_all_pairs,
    maximalize_outerplanar_fans,
    next_prime_trial_division,
    path_caterpillar_rescan,
    plane_triangulation_rebuild,
    plane_triangulation_sorted_flips,
    sampled_five_point_check,
    same_ray,
    select_split_rank_dicts,
)
from simembed import (
    FIVE_PATHS,
    GridPoint,
    InvalidInstanceError,
    Layer,
    PathOrder,
    SearchBudgetError,
    as_path,
    caterpillar_decompose,
    certify_general_position,
    check_plane_embedding,
    convex_hull,
    embed_outerplanar_on_points,
    embed_path_caterpillar,
    exhaustive_five_point_check,
    generate,
    maximalize_outerplanar,
    orient,
    parabola_pointset,
    path_from_digits,
    planar_general_position_draw,
    simul_embed_free,
    triangulate_plane,
)
from simembed import certify, graphs, smallcases, unmapped
from simembed.graphs import _trace_faces
from simembed.certify import (
    _any_conflict,
    _disjoint_slabs,
    _layer_crossings,
    _listed_crossings,
    _monotone_chain,
)
from simembed.geometry import COORD_LIMIT, _conflict_raw, _is_prime, _next_prime
from simembed.smallcases import (
    _grid_points,
    _grid_tables,
    _shadow_table,
    _side_masks,
)


# How a case reshapes its thinned layer: not at all, by reversing and
# shuffling edges (so face walks start elsewhere and chords come in
# another order), or by replacing it with a bare cycle, whose faces are
# single long walks.
_SHAPES = ("thinned", "flipped", "bare cycle")


def _cyclic_subsequence(short, long):
    # short is long with some entries removed, read from some start
    if not short:
        return True
    start = long.index(short[0])
    it = iter(long[start:] + long[:start])
    return all(v in it for v in short)


@settings(max_examples=150, deadline=None)
@given(st.integers(3, 30), st.integers(0, 10**6), st.floats(0, 1), st.sampled_from(_SHAPES))
@example(5, 0, 0.0, "bare cycle")
def test_triangulate_plane_completes_every_face(n, seed, share, shape):
    # share 1.0 thins the triangulation down to a spanning tree
    rng = random.Random(seed)
    layer = thin_plane(generate("plane-triangulation", n, seed), n, share, rng)
    if shape == "flipped":
        layer = flip_and_shuffle(layer, rng)
    elif shape == "bare cycle":
        layer = bare_cycle("planar", n, rng)
    tri, dummies = triangulate_plane(layer, n)
    m = len(layer.edges)
    assert tri.edges[:m] == layer.edges and tri.edges[m:] == dummies
    assert len(tri.edges) == len({frozenset(e) for e in tri.edges}) == 3 * n - 6
    assert check_plane_embedding(tri, n) == 2 * n - 4
    assert all(len(face) == 3 for face in _trace_faces(n, tri.edges, tri.rotation))
    for old, new in zip(layer.rotation, tri.rotation):
        assert _cyclic_subsequence(old, new)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(3, 30),
    st.integers(0, 10**6),
    st.floats(0, 1),
    st.floats(0, 1),
    st.sampled_from(_SHAPES),
)
@example(8, 0, 0.0, 0.0, "bare cycle")
@example(4, 0, 0.0, 0.0, "bare cycle")
@example(11, 5, 0.7, 1.0, "flipped")
@example(8, 4, 0.5, 1.0, "flipped")
# three chords from one cycle position, nested in each other
@example(11, 39, 0.5, 1.0, "flipped")
def test_maximalize_outerplanar_matches_fans(n, seed, density, cycle_keep, shape):
    rng = random.Random(seed)
    thinned = thin_outerplanar(generate("maximal-outerplanar", n, seed), density, rng)
    cyc = thinned.outer_cycle
    cycle = {frozenset((cyc[i], cyc[(i + 1) % n])) for i in range(n)}
    edges = [e for e in thinned.edges if frozenset(e) not in cycle or rng.random() < cycle_keep]
    layer = Layer("outerplanar", edges, outer_cycle=cyc)
    if shape == "flipped":
        layer = flip_and_shuffle(layer, rng)
    elif shape == "bare cycle":
        layer = bare_cycle("outerplanar", n, rng)
    assert maximalize_outerplanar(layer, n) == maximalize_outerplanar_fans(layer, n)


def test_maximalize_outerplanar_reads_faces_off_the_chord_nesting(monkeypatch):
    # The inner faces come from the chord stack, not from a face trace, and
    # their chords from the fan rule, not from the generic completion.
    rng = random.Random(3)
    layers = []
    for n in (3, 4, 9, 30, 61):
        layers.append(generate("maximal-outerplanar", n, n))
        layers.append(thin_outerplanar(layers[-1], rng.random(), rng))
        layers.append(flip_and_shuffle(layers[-1], rng))
        layers.append(bare_cycle("outerplanar", n, rng))
    expected = [maximalize_outerplanar_fans(layer, len(layer.outer_cycle)) for layer in layers]

    def forbidden(*args):
        raise AssertionError("maximalize_outerplanar traced or completed faces")

    monkeypatch.setattr(graphs, "_trace_faces", forbidden)
    monkeypatch.setattr(graphs, "_complete_faces", forbidden)
    for layer, want in zip(layers, expected):
        assert maximalize_outerplanar(layer, len(layer.outer_cycle)) == want


def test_maximalize_small_cycles_match_fans():
    for n in (1, 2, 3):
        for edges in ([], [(0, 1)]):
            if n == 1 and edges:
                continue
            layer = Layer("outerplanar", edges, outer_cycle=list(range(n)))
            assert maximalize_outerplanar(layer, n) == maximalize_outerplanar_fans(layer, n)


_CROSSING = re.compile(
    r"chords \((\d+),(\d+)\) and \((\d+),(\d+)\) cross in the declared outer cycle"
)


def test_chord_stack_matches_pair_scan():
    # Random edge sets on small cycles: chords share endpoints, nest and
    # cross, and cycle edges in the set must be ignored.
    rng = random.Random(7)
    verdicts = set()
    for n in range(3, 11):
        pairs = list(itertools.combinations(range(n), 2))
        for _ in range(300):
            cycle = rng.sample(range(n), n)
            chosen = rng.sample(pairs, rng.randint(0, min(len(pairs), 2 * n)))
            edges = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in chosen]
            layer = Layer("outerplanar", edges, outer_cycle=cycle)
            expected = crossing_chords_pair_scan(cycle, edges)
            try:
                maximalize_outerplanar(layer, n)
            except InvalidInstanceError as exc:
                named = _CROSSING.fullmatch(str(exc))
                assert expected is not None and named, str(exc)
                a, b, c, d = map(int, named.groups())
                assert {(a, b), (c, d)} <= set(edges)
                assert chords_cross(cycle, (a, b), (c, d))
                verdicts.add("cross")
            else:
                assert expected is None
                verdicts.add("plane")
    assert verdicts == {"cross", "plane"}


def test_next_prime_matches_trial_division():
    rng = random.Random(11)
    for m in [*range(-3, 3000), *(rng.randrange(10**6, 10**11) for _ in range(30))]:
        assert _next_prime(m) == next_prime_trial_division(m), m
    # the largest prime below 2^40 and the Mersenne primes 2^31 - 1, 2^61 - 1
    assert [_next_prime(m) for m in (2**40 - 87, 2**31 - 1, 2**61 - 1)] == [
        2**40 - 87, 2**31 - 1, 2**61 - 1
    ]
    # strong pseudoprimes to the bases up to 7, 11, 13, 17 and 23
    for composite in (3215031751, 2152302898747, 3474749660383, 341550071728321,
                      3825123056546413051):
        assert not _is_prime(composite)


@pytest.mark.parametrize("seed", range(3))
def test_plane_triangulation_matches_rebuild_per_flip(seed):
    for n in range(3, 61):
        assert generate("plane-triangulation", n, seed) == plane_triangulation_rebuild(n, seed)


@pytest.mark.parametrize("n", [61, 500, 5159])
@pytest.mark.parametrize("seed", [0, 1])
def test_plane_triangulation_matches_sorted_flips(n, seed):
    # Past the rebuild oracle's reach, up to gen's planar-outerplanar cap.
    assert generate("plane-triangulation", n, seed) == plane_triangulation_sorted_flips(n, seed)


def _outcome(fn, layer, n):
    # The returned value, or the type and text of the error raised.
    try:
        return fn(layer, n)
    except InvalidInstanceError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "kind, recover, reference",
    [
        ("path", as_path, as_path_neighbour_lists),
        ("caterpillar", caterpillar_decompose, caterpillar_decompose_neighbour_lists),
    ],
)
def test_linear_walks_match_neighbour_lists(kind, recover, reference):
    # Generated layers with edges shuffled and flipped, and random simple
    # graphs with n - 1 edges: cycles, spiders, forests with a cycle, and
    # isolated vertices, where the error raised must match as well.
    rng = random.Random(13)
    errors = set()
    for trial in range(600):
        n = rng.randrange(1, 60)
        layer = flip_and_shuffle(generate(kind, n, trial), rng)
        result = recover(layer, n)
        assert result == reference(layer, n)
        assert result.n == n
    for trial in range(3000):
        n = rng.randrange(2, 10)
        pairs = list(itertools.combinations(range(n), 2))
        edges = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in rng.sample(pairs, n - 1)]
        layer = Layer(kind, edges)
        got = _outcome(recover, layer, n)
        assert got == _outcome(reference, layer, n), edges
        if isinstance(got, tuple):
            errors.add(re.sub(r"\d+", "#", got[1]))
    assert errors == {
        "path": {
            "not a path: branch vertex #",
            "not a path: contains a cycle or is disconnected",
            "not a path: disconnected",
        },
        "caterpillar": {
            "not a tree: disconnected",
            "not a caterpillar: pruned tree branches at vertex #",
        },
    }[kind]


def test_path_caterpillar_matches_shift_pass_over_all_vertices():
    rng = random.Random(11)
    total_shifts = 0
    for trial in range(400):
        n = rng.randrange(1, 40)
        cat = caterpillar_decompose(generate("caterpillar", n, trial), n)
        p = PathOrder(rng.sample(range(n), n))
        emb, shifts = embed_path_caterpillar(p, cat)
        old, old_shifts = path_caterpillar_rescan(p, cat)
        assert shifts == old_shifts
        # the old layout began in column 2, one right of the drawing's width
        assert emb.coords == [GridPoint(q.x - 1, q.y) for q in old]
        total_shifts += shifts
    assert total_shifts > 0


def spans(xs, ys):
    # the extents less one that the certifier takes once per drawing
    return max(xs) - min(xs), max(ys) - min(ys)


def _with_conflict_count(fn, *args):
    # Both versions look the exact predicate up on the certify module, so
    # patching it there counts the pairs each one tests.
    real = certify._conflict_raw
    calls = 0

    def counting(*coords):
        nonlocal calls
        calls += 1
        return real(*coords)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(certify, "_conflict_raw", counting)
        out = fn(*args)
    return out, calls


@st.composite
def grid_layers(draw):
    # Up to 9 points on a 5 x 5 grid, coincident ones included: edges are
    # often horizontal or vertical, overlap collinearly, end inside one
    # another (T-junctions) and share their low ends on both axes.
    n = draw(st.integers(2, 9))
    xs = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    ys = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(ends.filter(lambda e: e[0] != e[1]), max_size=16))
    if draw(st.booleans()):
        # Add the mirror image of every point and edge across the diagonal,
        # so as many edge pairs overlap on x as on y and the axes tie.
        xs, ys = xs + ys, ys + xs
        edges = edges + [(u + n, v + n) for u, v in edges]
    return xs, ys, edges


@settings(max_examples=400, deadline=None)
@given(grid_layers(), st.integers(0, 3))
def test_layer_crossings_sweep_matches_all_pairs(layer, layer_idx):
    xs, ys, edges = layer
    out, calls = _with_conflict_count(_listed_crossings, xs, ys, edges, layer_idx, *spans(xs, ys))
    assert out == layer_crossings_all_pairs(xs, ys, edges, layer_idx)
    assert calls == certifier_pair_tests(xs, ys, edges)
    assert _layer_crossings(xs, ys, edges, layer_idx, *spans(xs, ys)) == out


@pytest.mark.parametrize("seed", range(6))
def test_layer_crossings_sweep_matches_all_pairs_on_larger_layers(seed):
    rng = random.Random(seed)
    n, side = 120, 40
    xs = [rng.randrange(side) for _ in range(n)]
    ys = [rng.randrange(side // (1 + seed % 3)) for _ in range(n)]
    edges = []
    while len(edges) < 250:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            edges.append((u, v))
    out, calls = _with_conflict_count(_listed_crossings, xs, ys, edges, 0, *spans(xs, ys))
    assert out == layer_crossings_all_pairs(xs, ys, edges, 0)
    assert out and calls == certifier_pair_tests(xs, ys, edges)
    assert _layer_crossings(xs, ys, edges, 0, *spans(xs, ys)) == out


def test_layer_crossings_hand_example_on_both_axes():
    # Edge 0 runs along y = 0; edge 1 stands on its middle point (a
    # T-junction); edge 2 overlaps edge 0 collinearly and shares an
    # endpoint with edge 1; edge 3 shares only an endpoint with edge 0;
    # edge 4 crosses edge 1 properly; edge 5 only touches edge 1's end.
    xs = [0, 2, 1, 1, 0, 2]
    ys = [0, 0, 0, 2, 2, 2]
    edges = [(0, 1), (2, 3), (2, 1), (0, 4), (4, 1), (3, 5)]
    got = [v.witness for v in _listed_crossings(xs, ys, edges, 5, *spans(xs, ys))]
    assert got == [(5, 0, 1), (5, 0, 2), (5, 1, 4)]
    # The same outputs and call counts on the layer, on its mirror image
    # across the diagonal, and on the two together, whose axes tie.
    both = (xs + ys, ys + xs, edges + [(u + 6, v + 6) for u, v in edges])
    for lx, ly, le in [(xs, ys, edges), (ys, xs, edges), both]:
        out, calls = _with_conflict_count(_listed_crossings, lx, ly, le, 5, *spans(lx, ly))
        assert out == layer_crossings_all_pairs(lx, ly, le, 5)
        assert calls == certifier_pair_tests(lx, ly, le)
        assert _layer_crossings(lx, ly, le, 5, *spans(lx, ly)) == out

    # A collinear chain (0, 0)-(1, 0)-(2, 0): its edges meet end to start,
    # so they never conflict and reach no predicate.  An edge from (2, 0)
    # back to (0, 0) shares an L with the first and an R with the second
    # and runs along both, and the parallel test reports both pairs.
    xs, ys, edges = [0, 1, 2], [0, 0, 0], [(0, 1), (1, 2)]
    for lx, ly in [(xs, ys), (ys, xs)]:
        frame = spans(lx, ly)
        assert _with_conflict_count(_listed_crossings, lx, ly, edges, 0, *frame) == ([], 0)
        assert certifier_pair_tests(lx, ly, edges) == 0
        out, calls = _with_conflict_count(_listed_crossings, lx, ly, edges + [(2, 0)], 0, *frame)
        assert [v.witness for v in out] == [(0, 0, 2), (0, 1, 2)] and calls == 0
        assert out == layer_crossings_all_pairs(lx, ly, edges + [(2, 0)], 0)
        assert _layer_crossings(lx, ly, edges + [(2, 0)], 0, *frame) == out


@settings(max_examples=500, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=3, max_size=3),
    st.booleans(),
    st.booleans(),
)
def test_edges_leaving_a_shared_endpoint_apart_never_conflict(pts, flip_a, flip_b):
    # Point 0 is the shared endpoint.  The exact predicate says yes iff
    # points 1 and 2 lie on one ray from it, whichever way round the two
    # segments are given; coincident points included.
    xs = [x for x, _ in pts]
    ys = [y for _, y in pts]
    (vx, vy), (px, py), (qx, qy) = pts
    s1 = (px, py, vx, vy) if flip_a else (vx, vy, px, py)
    s2 = (qx, qy, vx, vy) if flip_b else (vx, vy, qx, qy)
    if same_ray(xs, ys, 0, 1, 2):
        assert certify._conflict_raw(*s1, *s2) and certify._conflict_raw(*s2, *s1)
    else:
        assert not certify._conflict_raw(*s1, *s2)
        assert not certify._conflict_raw(*s2, *s1)


def test_layer_crossings_around_hubs():
    # Two caterpillar-like stars in a strip 4 wide: every pair of edges at
    # a hub has overlapping boxes, and none of them conflicts.  Then a leaf
    # edge that runs along another from its hub, and a spine edge across
    # the strip that crosses leaf edges.
    xs, ys, edges = [0, 0], [100, 300], [(0, 1)]
    for y in range(400):
        if y in (100, 300):
            continue
        xs.append(1 + y % 3)
        ys.append(y)
        edges.append((0 if y < 200 else 1, len(xs) - 1))
    out, calls = _with_conflict_count(_listed_crossings, xs, ys, edges, 0, *spans(xs, ys))
    assert out == [] and calls == 0
    assert certifier_pair_tests(xs, ys, edges) == 0
    # The decision calls the predicate only on neighbours that share no
    # endpoint.  The two stars span disjoint ranges of y, so every two
    # edges that are neighbours in the sweep share a hub, and those pairs
    # are decided by direction.
    out, calls = _with_conflict_count(_layer_crossings, xs, ys, edges, 0, *spans(xs, ys))
    assert out == [] and calls == 0

    # A new leaf of the second hub, twice as far out along the ray to its
    # last leaf, and a vertical edge at x = 3 across the first star.
    xs.append(2 * xs[-1])
    ys.append(300 + 2 * (ys[-1] - 300))
    edges.append((1, len(xs) - 1))
    xs += [3, 3]
    ys += [50, 150]
    edges.append((len(xs) - 2, len(xs) - 1))
    out, calls = _with_conflict_count(_listed_crossings, xs, ys, edges, 0, *spans(xs, ys))
    assert out == layer_crossings_all_pairs(xs, ys, edges, 0)
    assert calls == certifier_pair_tests(xs, ys, edges)
    assert _layer_crossings(xs, ys, edges, 0, *spans(xs, ys)) == out
    assert (0, len(edges) - 3, len(edges) - 2) in [v.witness for v in out]
    assert any(v.witness[2] == len(edges) - 1 for v in out)


@st.composite
def distinct_grid_layers(draw):
    # Distinct points on a g x g grid, g = 2..7, and random edges: on so
    # small a grid edges are often vertical, collinear, touching end to
    # end or at a T, and share endpoints.  Sometimes one point is joined
    # to every other, a star.
    g = draw(st.integers(2, 7))
    cell = st.tuples(st.integers(0, g - 1), st.integers(0, g - 1))
    cells = draw(st.lists(cell, min_size=2, max_size=min(10, g * g), unique=True))
    n = len(cells)
    ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(ends.filter(lambda e: e[0] != e[1]), max_size=12))
    if draw(st.booleans()):
        hub = draw(st.integers(0, n - 1))
        edges += [(hub, v) for v in range(n) if v != hub]
    return [x for x, _ in cells], [y for _, y in cells], edges


# Hand layers for the sweep's event-point rule, along x.  Edge a runs
# along y = 0 and edge b along y = 10, across the whole sweep; r1 and r2
# end at p = (5, 5), from below and from above, and s1 and s2 start there.
_EVENT_XS = [0, 10, 0, 10, 2, 5, 2, 8, 8, 0, 10]
_EVENT_YS = [0, 0, 10, 10, 3, 5, 7, 3, 7, 5, 5]
_A, _B, _R1, _R2, _S1, _S2 = (0, 1), (2, 3), (4, 5), (6, 5), (5, 7), (5, 8)
# two edges end and two edges start at p
LEAVE_AND_ENTER = (_EVENT_XS, _EVENT_YS, [_A, _B, _R1, _R2, _S1, _S2])
# two edges end at p, where nothing starts
LEAVE_ONLY = (_EVENT_XS, _EVENT_YS, [_A, _B, _R1, _R2])
# a kept edge along y = 5 passes through p, between r1 and r2 in the list
KEPT_THROUGH = (_EVENT_XS, _EVENT_YS, [_A, _B, _R1, _R2, (9, 10)])


@settings(max_examples=600, deadline=None)
@given(st.one_of(distinct_grid_layers(), grid_layers()))
@example(LEAVE_AND_ENTER)
@example(LEAVE_ONLY)
@example(KEPT_THROUGH)
def test_conflict_decision_matches_all_pairs(layer):
    # The sweep decides exactly whether some pair conflicts, along either
    # axis, coincident points and edges of length zero included, with at
    # most three exact tests per edge.
    xs, ys, edges = layer
    segments = [(xs[u], ys[u], xs[w], ys[w]) for u, w in edges]
    want = any(
        certify._conflict_raw(*s, *t) for s, t in itertools.combinations(segments, 2)
    )
    for lx, ly in [(xs, ys), (ys, xs)]:
        got, calls = _with_conflict_count(_any_conflict, lx, ly, edges)
        assert got == want
        assert calls <= 3 * len(edges)
    out = _layer_crossings(xs, ys, edges, 0, *spans(xs, ys))
    assert out == layer_crossings_all_pairs(xs, ys, edges, 0)


@st.composite
def path_shaped_layers(draw):
    # Up to 9 points on a small grid, coincident ones and collinear runs
    # included, and the edges of a walk through all of them: often in
    # order along x or y, so that the chain rule fires, with edges given
    # either way round and in any order; sometimes with an edge left out
    # (two chains), one repeated, or one more between any two points.
    g = draw(st.integers(1, 6))
    n = draw(st.integers(1, 9))
    cols = [draw(st.lists(st.integers(0, g), min_size=n, max_size=n)) for _ in "xy"]
    walk = draw(st.permutations(range(n)))
    axis = draw(st.sampled_from([None, 0, 1]))
    if axis is not None:
        if draw(st.booleans()):
            # distinct values on the axis, so that the walk is a chain along it
            cols[axis] = draw(st.permutations(range(n)))
        walk.sort(key=cols[axis].__getitem__, reverse=draw(st.booleans()))
    xs, ys = cols
    edges = [(u, w) if draw(st.booleans()) else (w, u) for u, w in zip(walk, walk[1:])]
    edges = draw(st.permutations(edges))
    change = draw(st.sampled_from([None, None, None, "drop", "repeat", "extra"]))
    if change == "drop" and edges:
        del edges[draw(st.integers(0, len(edges) - 1))]
    elif change == "repeat" and edges:
        u, w = draw(st.sampled_from(edges))
        edges.insert(draw(st.integers(0, len(edges))), draw(st.sampled_from([(u, w), (w, u)])))
    elif change == "extra" and n > 1:
        ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        edges.append(draw(ends.filter(lambda e: e[0] != e[1])))
    return xs, ys, edges


@settings(max_examples=800, deadline=None)
@given(path_shaped_layers())
def test_chain_rule_accepts_only_layers_without_a_conflict(layer):
    # Whenever the edges form one path strictly monotone along x or y, the
    # all-pairs oracle finds no conflict; and whether the rule fires or the
    # sweep runs, the layer's list is the oracle's.
    xs, ys, edges = layer
    out = layer_crossings_all_pairs(xs, ys, edges, 0)
    if _monotone_chain(xs, edges) or _monotone_chain(ys, edges):
        assert out == []
    assert _layer_crossings(xs, ys, edges, 0, *spans(xs, ys)) == out


# Hand layers that the chain rule must hand on to the sweep, each as
# (xs, ys, edges), and the conflicts the oracle finds in them.
_NOT_CHAINS = {
    # Two x-monotone chains, (0, 0)-(2, 1)-(4, 4) and (1, 4)-(3, 3)-(5, 0):
    # every vertex has at most one edge up and one down on both axes, but
    # four edges touch six vertices, and the chains cross.
    "two-crossing-chains": (
        [0, 2, 4, 1, 3, 5], [0, 1, 4, 4, 3, 0], [(0, 1), (1, 2), (3, 4), (4, 5)], [(0, 1, 3)],
    ),
    # A "V": vertex 1 at (0, 0) is the low end of both edges on both axes,
    # and the arms run along one ray, so they overlap.
    "v": ([2, 0, 1], [2, 0, 1], [(1, 0), (1, 2)], [(0, 0, 1)]),
    # Its mirror image: vertex 2 at (2, 2) is the high end of both edges.
    "inverted-v": ([0, 1, 2], [0, 1, 2], [(0, 2), (2, 1)], [(0, 0, 1)]),
    # An x-monotone chain but for one vertical edge, which makes vertex 1
    # the high end of two edges along y; no conflict.
    "flat-edge": ([0, 1, 1, 3], [0, 3, 1, 2], [(0, 1), (1, 2), (2, 3)], []),
    # A chain monotone along both axes with its middle edge given twice,
    # the second time reversed: the two copies overlap.
    "repeated-edge": ([0, 1, 2, 3], [0, 2, 3, 5], [(0, 1), (1, 2), (3, 2), (2, 1)], [(0, 1, 3)]),
}


@pytest.mark.parametrize("name", sorted(_NOT_CHAINS))
def test_chain_rule_hands_other_layers_to_the_sweep(name, monkeypatch):
    xs, ys, edges, want = _NOT_CHAINS[name]
    assert not _monotone_chain(xs, edges) and not _monotone_chain(ys, edges)
    swept = []
    monkeypatch.setattr(certify, "_any_conflict", lambda *args: swept.append(1) or _any_conflict(*args))
    out = _layer_crossings(xs, ys, edges, 0, *spans(xs, ys))
    assert swept == [1]
    assert out == layer_crossings_all_pairs(xs, ys, edges, 0)
    assert [v.witness for v in out] == want


@st.composite
def fan_shaped_layers(draw):
    # Caterpillar-like layers on a small grid: spine vertices in columns
    # that never decrease, each mostly joined to the next one, and legs that
    # mostly end in the columns up to the next spine vertex's, so that the
    # slab rule fires along x.  Drawn often: a leg ending on a point that is
    # already there (coincident points), a leg in its spine vertex's column
    # (flat, or of length zero), a leg twice as long as another along its
    # ray (parallel legs) and a leg past the next spine vertex's column.
    # Edges come either way round and in any order, and half the layers
    # are mirrored across the diagonal, so that the rule fires along y.
    g = draw(st.integers(1, 5))
    k = draw(st.integers(1, 4))
    xs = sorted(draw(st.lists(st.integers(0, 2 * g), min_size=k, max_size=k)))
    ys = draw(st.lists(st.integers(0, g), min_size=k, max_size=k))
    edges = [(i, i + 1) for i in range(k - 1) if draw(st.integers(0, 5))]
    ends = st.sampled_from(["slab", "slab", "slab", "coincident", "flat", "parallel", "past"])
    for i in range(k):
        start = xs[i]
        stop = xs[i + 1] if i + 1 < k else start + 2
        legs = []
        for _ in range(draw(st.integers(0, 3))):
            end = draw(ends)
            if end == "coincident":
                v = draw(st.integers(0, len(xs) - 1))
                x, y = xs[v], ys[v]
            elif end == "flat":
                x, y = start, draw(st.integers(0, g))
            elif end == "parallel" and legs:
                v = draw(st.sampled_from(legs))
                x, y = 2 * xs[v] - start, 2 * ys[v] - ys[i]
            elif end == "past":
                x, y = draw(st.integers(stop + 1, stop + 2)), draw(st.integers(0, g))
            else:
                x, y = draw(st.integers(start + 1, max(start + 1, stop))), draw(st.integers(0, g))
            legs.append(len(xs))
            xs.append(x)
            ys.append(y)
            edges.append((i, legs[-1]))
    edges = [(u, w) if draw(st.booleans()) else (w, u) for u, w in draw(st.permutations(edges))]
    if draw(st.booleans()):
        xs, ys = ys, xs
    return xs, ys, edges


@settings(max_examples=800, deadline=None)
@given(fan_shaped_layers())
def test_slab_rule_accepts_only_layers_without_a_conflict(layer):
    # Whenever the edges fall into fans in disjoint slabs along x or y, the
    # all-pairs oracle finds no conflict; and whichever rule fires or the
    # sweep runs, the layer's list is the oracle's.
    xs, ys, edges = layer
    out = layer_crossings_all_pairs(xs, ys, edges, 0)
    if _disjoint_slabs(xs, ys, edges) or _disjoint_slabs(ys, xs, edges):
        assert out == []
    assert _layer_crossings(xs, ys, edges, 0, *spans(xs, ys)) == out


# Hand layers that the slab rule must hand on to the sweep along both
# axes, each as (xs, ys, edges), and the conflicts the oracle finds in them.
_NOT_SLABS = {
    # Fan (0, 1) reaches x = 3 with its leg to (3, 4), past x = 1, where
    # fan (1, 4) starts; that fan's leg to (2, 1) crosses the long leg.
    "overlapping-slabs": (
        [0, 3, 1, 1, 2, 3], [1, 4, 0, 4, 1, 5], [(0, 1), (0, 2), (3, 4), (3, 5)], [(0, 0, 2)],
    ),
    # Two legs of (0, 0) along one ray: equal slopes, and they overlap.
    "collinear-legs": ([0, 1, 2], [0, 1, 2], [(0, 1), (0, 2)], [(0, 0, 1)]),
    # Fans (0, 0) and (0, 1) start in one column, and along y the first
    # reaches y = 3, past the second's start; no conflict.
    "two-low-ends-in-one-column": ([0, 0, 2, 1], [0, 1, 3, 3], [(0, 2), (1, 3)], []),
    # A triangle with a vertical edge, flat along x; along y its top is
    # the high end of two edges.  No conflict.
    "vertical-edge": ([0, 1, 1], [0, 1, 2], [(0, 1), (0, 2), (1, 2)], []),
    # A leg whose slope along x is too large for a float, and a flat edge
    # along y: a document may hold any integer coordinates.  No conflict.
    "slope-beyond-floats": ([0, 1, 2], [0, 10**400, 0], [(0, 1), (0, 2)], []),
}


@pytest.mark.parametrize("name", sorted(_NOT_SLABS))
def test_slab_rule_hands_other_layers_to_the_sweep(name, monkeypatch):
    xs, ys, edges, want = _NOT_SLABS[name]
    for cs, ds in [(xs, ys), (ys, xs)]:
        assert not _monotone_chain(cs, edges) and not _disjoint_slabs(cs, ds, edges)
    swept = []
    monkeypatch.setattr(certify, "_any_conflict", lambda *args: swept.append(1) or _any_conflict(*args))
    out = _layer_crossings(xs, ys, edges, 0, *spans(xs, ys))
    assert swept == [1]
    assert out == layer_crossings_all_pairs(xs, ys, edges, 0)
    assert [v.witness for v in out] == want


# Hand layers that the slab rule must prove along x, the sweep untouched.
_SLABS = {
    # Fan (0, 0) has a leg to (2, 3) and its spine edge to (2, 1), where
    # the next fan starts: its reach is the next fan's column.
    "leg-ends-in-the-next-column": ([0, 2, 2, 3], [0, 3, 1, 0], [(0, 1), (0, 2), (2, 3)]),
    # The same with no spine edge, and the leg ends on a point of its own
    # at (2, 1), where the next fan starts: the two edges share only that
    # point, an endpoint of both.
    "leg-ends-on-the-next-low-end": ([0, 2, 2, 3], [0, 1, 1, 0], [(0, 1), (2, 3)]),
}


@pytest.mark.parametrize("name", sorted(_SLABS))
def test_slab_rule_proves_fans_that_meet_on_a_slab_boundary(name, monkeypatch):
    xs, ys, edges = _SLABS[name]
    assert not _monotone_chain(xs, edges) and not _monotone_chain(ys, edges)
    assert _disjoint_slabs(xs, ys, edges)
    assert layer_crossings_all_pairs(xs, ys, edges, 0) == []
    monkeypatch.setattr(certify, "_any_conflict", None)
    assert _layer_crossings(xs, ys, edges, 0, *spans(xs, ys)) == []


@settings(max_examples=400, deadline=None)
@given(grid_layers())
@example(([0, 0, 3, 3], [0, 0, 1, 1], [(0, 2), (1, 3)]))  # identical segments
@example(([0, 1, 2, 4], [0, 2, 4, 8], [(0, 2), (0, 3), (3, 1)]))  # overlaps from L, from R
@example(([1, 1, 0, 2], [1, 1, 0, 2], [(0, 2), (1, 3), (2, 3)]))  # coincident, end to start
def test_conflict_decision_decides_shared_endpoints_by_direction(layer):
    # Alone in a layer, two edges that share an endpoint are the only pair
    # the sweep or the listing can test.  Both decide them without the
    # exact predicate and agree with it, along either axis.
    xs, ys, edges = layer
    for e, f in itertools.combinations(edges, 2):
        s = (xs[e[0]], ys[e[0]], xs[e[1]], ys[e[1]])
        t = (xs[f[0]], ys[f[0]], xs[f[1]], ys[f[1]])
        if not {s[:2], s[2:]} & {t[:2], t[2:]}:
            continue
        want = certify._conflict_raw(*s, *t)
        for lx, ly in [(xs, ys), (ys, xs)]:
            assert _with_conflict_count(_any_conflict, lx, ly, [e, f]) == (want, 0)
            out, calls = _with_conflict_count(_listed_crossings, lx, ly, [e, f], 0, *spans(lx, ly))
            assert ([v.witness for v in out], calls) == ([(0, 0, 1)] if want else [], 0)


def test_conflict_decision_tests_the_pair_a_removal_joins():
    # Edges 0 and 2 cross at (5, 5), but in a sweep along x edge 1 lies
    # between them from the moment edge 2 enters until it leaves at (2, 5);
    # only then do 0 and 2 become neighbours.
    xs = [0, 10, 1, 2, 1, 10]
    ys = [0, 10, 5, 5, 9, 0]
    edges = [(0, 1), (2, 3), (4, 5)]
    assert _any_conflict(xs, ys, edges)
    assert not _any_conflict(xs, ys, edges[:2]) and not _any_conflict(xs, ys, edges[1:])
    assert [v.witness for v in _layer_crossings(xs, ys, edges, 0, *spans(xs, ys))] == [(0, 0, 2)]


def test_conflict_decision_tests_each_gap_once_per_event_point():
    # Up to p: b is tested against a, r1 against a and b, r2 against b
    # (against r1 by direction), 4 exact tests.  At p, r1 and r2 leave and
    # s1 and s2 enter: the gap between a and b is not tested, since s1
    # lands in it and tests both sides, and s2 tests b (s1 by direction),
    # 7.  Then s1 leaves, opening the gap (a, s2), and s2 leaves, opening
    # (a, b): 9.  Testing after every removal would also test (a, r2) and
    # (a, b) at p, 11.
    assert _with_conflict_count(_any_conflict, *LEAVE_AND_ENTER) == (False, 9)
    # With nothing starting at p, the gap (a, b) is tested once, after the
    # last removal there, not (a, r2) first: 5 instead of 6.
    assert _with_conflict_count(_any_conflict, *LEAVE_ONLY) == (False, 5)
    # The kept edge contains p in its interior, so it conflicts with both
    # r1 and r2; the sweep finds that when r1 enters next to it.
    assert _with_conflict_count(_any_conflict, *KEPT_THROUGH) == (True, 4)
    out = _layer_crossings(*KEPT_THROUGH, 0, *spans(*KEPT_THROUGH[:2]))
    assert [v.witness for v in out] == [(0, 2, 4), (0, 3, 4)]


@st.composite
def segment_pairs(draw):
    # Two segments on up to four points of a 5 x 5 grid, so that they are
    # often collinear, overlap, touch at a T, meet end to end or coincide.
    # Mapped onto {-L, -L/2, 0, L/2, L} for L = COORD_LIMIT, every such
    # incidence stays and the orientations reach their largest sizes; or
    # each coordinate is drawn near ±L.
    mode = draw(st.sampled_from(["grid", "scaled", "extreme"]))
    if mode == "extreme":
        near = st.sampled_from([-COORD_LIMIT, 1 - COORD_LIMIT, -1, 0, 1, COORD_LIMIT - 1, COORD_LIMIT])
        point = st.tuples(near, near)
    else:
        point = st.tuples(st.integers(0, 4), st.integers(0, 4))
    pts = draw(st.lists(point, min_size=2, max_size=4, unique=True))
    pick = st.sampled_from(pts)
    a, c = draw(pick), draw(pick)
    b = draw(pick.filter(lambda q: q != a))
    d = draw(pick.filter(lambda q: q != c))
    if mode == "scaled":
        half = COORD_LIMIT // 2
        a, b, c, d = ((x * half - COORD_LIMIT, y * half - COORD_LIMIT) for x, y in (a, b, c, d))
    return (*a, *b), (*c, *d)


_L = COORD_LIMIT


@settings(max_examples=1500, deadline=None)
@given(segment_pairs())
@example(((0, 0, 2, 0), (1, 0, 3, 0)))  # collinear overlap
@example(((0, 0, 2, 0), (2, 0, 4, 0)))  # collinear, end to end
@example(((0, 0, 2, 0), (1, 0, 1, 2)))  # an endpoint inside the other: a T
@example(((0, 0, 2, 2), (2, 2, 0, 0)))  # identical, given both ways round
@example(((0, 0, 2, 2), (2, 2, 4, 0)))  # end to end at an angle
@example(((-_L, -_L, _L, _L), (-_L, _L, _L, -_L)))  # proper crossing across the budget
@example(((-_L, -_L, _L, _L), (0, 0, _L, -_L)))  # a T at the centre
def test_conflict_predicate_matches_four_orientations(pair):
    # The predicate that stops at the first separating line answers as the
    # one that computes all four orientations first, both ways round.
    s, t = pair
    assert _conflict_raw(*s, *t) == conflict_four_orientations(*s, *t)
    assert _conflict_raw(*t, *s) == conflict_four_orientations(*t, *s)


def test_conflict_decision_work_bound_on_a_maximal_outerplanar_layer():
    n = 1500
    layer = generate("maximal-outerplanar", n, 1)
    emb = simul_embed_free([layer], n)
    phi = emb.assignments[0]
    xs = [p.x for p in emb.coords]
    ys = [p.y for p in emb.coords]
    edges = [(phi[u], phi[v]) for u, v in layer.edges]
    out, calls = _with_conflict_count(_layer_crossings, xs, ys, edges, 0, *spans(xs, ys))
    assert out == [] and 0 < calls <= 3 * len(edges)


@pytest.mark.parametrize("kind", ["fan", "maximal-outerplanar"])
def test_listing_on_a_broken_parabola_set_layer(kind):
    # An embedder's output with two assignment entries swapped: long edges
    # across the parabola set, and in the fan a hub of degree n - 1.
    n = 300
    if kind == "fan":
        edges = [(i, (i + 1) % n) for i in range(n)] + [(0, i) for i in range(2, n - 1)]
        layer = Layer("outerplanar", edges, outer_cycle=list(range(n)))
    else:
        layer = generate(kind, n, 1)
    emb = simul_embed_free([layer], n)
    phi = list(emb.assignments[0])
    phi[1], phi[n // 2] = phi[n // 2], phi[1]
    xs = [p.x for p in emb.coords]
    ys = [p.y for p in emb.coords]
    edges = [(phi[u], phi[v]) for u, v in layer.edges]
    out = _layer_crossings(xs, ys, edges, 0, *spans(xs, ys))
    assert out and out == layer_crossings_all_pairs(xs, ys, edges, 0)
    listed, calls = _with_conflict_count(_listed_crossings, xs, ys, edges, 0, *spans(xs, ys))
    assert listed == out
    assert calls == certifier_pair_tests(xs, ys, edges)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), unique=True, max_size=14))
def test_full_collinearity_scan_matches_cubic_loop(coords):
    points = [GridPoint(x, y) for x, y in coords]
    report = certify_general_position(points)
    assert [(v.kind, v.witness) for v in report.violations] == [
        ("collinear-triple", t) for t in collinear_triples_cubic(points)[:1]
    ]


def _search_outcome(res):
    return res.counterexample, res.placements_checked, res.exhaustive


_FIVE = [path_from_digits(d) for d in FIVE_PATHS]
# the other five-path set with 12345 that no point set carries
_SECOND_FAILING = [path_from_digits(d) for d in ("12345", "15243", "23514", "25413", "42135")]
_RANDOM_PATH_SETS = [
    [PathOrder(random.Random(seed * 10 + k).sample(range(5), 5)) for k in range(1 + seed % 4)]
    for seed in range(6)
]


_SMALL_GRIDS = [1, 2, 3, 4, (1, 5), (2, 3), (4, 3)]


def _grid_id(grid):
    return "x".join(map(str, grid)) if isinstance(grid, tuple) else str(grid)


def _grid_sides(grid):
    return grid if isinstance(grid, tuple) else (grid, grid)


_SEARCH_GRIDS = _SMALL_GRIDS + [5, (5, 3), (3, 5), (6, 2)]


def _path_sets(grid):
    # Every subset of the five paths on the small grids; on the larger ones
    # the five paths and each four-path subset (which has a witness at
    # grid 5, so a partial count is compared).  The second failing set and
    # random path sets on both.
    if grid in _SMALL_GRIDS:
        subsets = [list(c) for k in range(1, 6) for c in itertools.combinations(_FIVE, k)]
    else:
        subsets = [_FIVE] + [list(c) for c in itertools.combinations(_FIVE, 4)]
    return subsets + [_SECOND_FAILING] + _RANDOM_PATH_SETS


@pytest.mark.parametrize("grid", _SEARCH_GRIDS, ids=_grid_id)
def test_five_point_search_matches_dfs_search(grid):
    # The mask search and the public check against the search that places
    # every vertex on coordinates and tests it with _conflict_raw.  A grid
    # with a side below 3 holds no five points in general position: both
    # searches find no placement there, and the check refuses the grid
    # instead of claiming that verdict.
    w, h = _grid_sides(grid)
    pts = _grid_points(w, h)
    for paths in _path_sets(grid):
        want = five_point_check_dfs(grid, paths)
        placement, checked = smallcases._search_grid(w, h, smallcases._covered_pairs(paths))
        witness = None if placement is None else [GridPoint(*pts[pt]) for pt in placement]
        assert (witness, checked) == (want.counterexample, want.placements_checked)
        if min(w, h) < 3:
            assert want.counterexample is None
            with pytest.raises(InvalidInstanceError, match=f"grid {w}x{h} holds no five points"):
                exhaustive_five_point_check(grid, paths)
        else:
            got = exhaustive_five_point_check(grid, paths)
            assert _search_outcome(got) == _search_outcome(want)


@pytest.mark.parametrize("grid", [3, 4, 5, 6, (3, 5), (5, 3), (4, 6)], ids=_grid_id)
def test_order_type_pruned_search_matches_full_depth_search(grid, monkeypatch):
    # Both sets fail on every order type, so the search counts the vertex-3
    # candidates at level 2; with the verdict patched to a fit it places
    # vertex 3 and tries vertex 4 as before.
    w, h = _grid_sides(grid)
    for paths in (_FIVE, _SECOND_FAILING):
        need = smallcases._covered_pairs(paths)
        assert smallcases._order_type_witness(need) is None
        pruned = smallcases._search_grid(w, h, need)
        with monkeypatch.context() as patch:
            patch.setattr(smallcases, "_order_type_witness", lambda need: [(0, 0)] * 5)
            assert smallcases._search_grid(w, h, need) == pruned
        assert pruned[0] is None


@pytest.mark.parametrize("grid", [(4, 4), (5, 3), (6, 2)], ids=_grid_id)
def test_shadow_mask_is_the_proper_crossing_region(grid):
    # For a, c, d not collinear and x on none of the lines through two of
    # them, x is in the shadow of cd seen from a exactly when segment a-x
    # meets segment c-d; the table the search reads holds that shadow.
    w, h = grid
    pts = _grid_points(w, h)
    _, col, table = _grid_tables(w, h)
    crossings = 0
    for a, c, d in itertools.permutations(range(len(pts)), 3):
        if col[a][c] >> d & 1:
            continue
        shadow = table[a][c][d]
        lines = col[a][c] | col[a][d] | col[c][d] | 1 << a | 1 << c | 1 << d
        for x in range(len(pts)):
            if lines >> x & 1:
                continue
            meets = _conflict_raw(*pts[a], *pts[x], *pts[c], *pts[d])
            assert bool(shadow >> x & 1) == meets, (pts[a], pts[c], pts[d], pts[x])
            crossings += meets
    assert crossings > 0


@pytest.mark.parametrize("grid", [(4, 3), (3, 5), 5, (1, 4), (4, 1), 2, 1], ids=_grid_id)
def test_side_masks_match_orientation(grid):
    # one orientation test per point and directed pair, against the masks
    # that are computed once per line
    w, h = _grid_sides(grid)
    pts = [GridPoint(x, y) for x, y in _grid_points(w, h)]
    left, col = _side_masks(w, h)
    for i, j, k in itertools.product(range(len(pts)), repeat=3):
        if i == j:
            assert left[i][j] == col[i][j] == 0
            continue
        o = orient(pts[i], pts[j], pts[k])
        assert bool(left[i][j] >> k & 1) == (o > 0)
        assert bool(col[i][j] >> k & 1) == (o == 0 and k not in (i, j))


def _only_tuples(value):
    return isinstance(value, int) or (
        type(value) is tuple and all(_only_tuples(v) for v in value)
    )


@pytest.mark.parametrize("grid", [3, 4, 5, 6, 7, 8, (3, 5), (5, 3), (4, 6)], ids=_grid_id)
def test_grid_tables_are_fresh_builds_as_tuples(grid):
    w, h = _grid_sides(grid)
    left, col = _side_masks(w, h)
    tables = _grid_tables(w, h)
    assert tables == (
        tuple(map(tuple, left)),
        tuple(map(tuple, col)),
        tuple(tuple(map(tuple, rows)) for rows in _shadow_table(left, w * h)),
    )
    assert _only_tuples(tables)
    assert _grid_tables(w, h) is tables


# grids 5, 3, 3x5 and 4 fill the cache; 5 is a hit; 5x3 evicts 3, and 3
# and 3x5 are rebuilt after their eviction
_INTERLEAVED_GRIDS = [5, 3, (3, 5), 4, 5, (5, 3), 3, (3, 5)]


def test_searches_interleaved_across_grids_match_fresh_searches():
    path_sets = [_FIVE, _SECOND_FAILING, _FIVE[:4], _FIVE[1:3]]

    def search(grid, paths):
        return smallcases._search_grid(*_grid_sides(grid), smallcases._covered_pairs(paths))

    fresh = {}
    for grid in _INTERLEAVED_GRIDS:
        for k, paths in enumerate(path_sets):
            _grid_tables.cache_clear()
            fresh[grid, k] = search(grid, paths)
    assert any(fresh[grid, k][0] is not None for grid in _INTERLEAVED_GRIDS for k in (2, 3))
    _grid_tables.cache_clear()
    for grid in _INTERLEAVED_GRIDS:
        for k, paths in enumerate(path_sets):
            assert search(grid, paths) == fresh[grid, k], (grid, k)
    info = _grid_tables.cache_info()
    assert (info.misses, info.currsize) == (7, 4)


def test_five_point_search_from_threads_matches_serial_runs():
    runs = [(grid, paths) for grid in (3, 4, 5) for paths in (_FIVE, _SECOND_FAILING)] * 4
    serial = [_search_outcome(exhaustive_five_point_check(g, p)) for g, p in runs]
    _grid_tables.cache_clear()
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-5)
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(exhaustive_five_point_check, g, p) for g, p in runs]
            threaded = [_search_outcome(f.result(timeout=60)) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


_SAMPLED_PATH_SETS = [_FIVE[:2], _FIVE[1:4], _FIVE] + _RANDOM_PATH_SETS


@pytest.mark.parametrize(
    "grid",
    [9, 10, 11, 12, (9, 12), (12, 10), (12, 3)],
    ids=["9", "10", "11", "12", "9x12", "12x10", "12x3"],
)
def test_sampled_five_point_search_matches_old_sampler(grid):
    # All five paths never embed, so nothing is drawn and the old sampler's
    # 200 failed draws are reported, whatever its seed.  Two or three paths
    # and the random sets leave room for a witness, and the first labeling
    # of an order type's points that carries them is placed.
    witnesses = 0
    for paths in _SAMPLED_PATH_SETS:
        new = exhaustive_five_point_check(grid, paths, samples=200)
        assert not new.exhaustive and new.grid == _grid_sides(grid)
        if smallcases._order_type_witness(smallcases._covered_pairs(paths)) is None:
            for seed in range(10):
                old = sampled_five_point_check(grid, paths, seed, 200)
                assert _search_outcome(new) == _search_outcome(old)
        else:
            old = five_point_witness_scan(grid, paths, 200)
            assert _search_outcome(new) == _search_outcome(old)
            witnesses += new.counterexample is not None
    assert witnesses >= 5


@st.composite
def half_plane_points(draw):
    # A pivot, a reference point and points strictly on one side of the
    # line through them, no two on one ray from the pivot.  Far clusters
    # near the diagonal put angles closer than a double can tell apart.
    if draw(st.booleans()):
        coord = st.integers(-60, 60)
        raw = draw(st.lists(st.tuples(coord, coord), min_size=3, max_size=40, unique=True))
    else:
        base = draw(st.integers(2**30, 2**39))
        step = st.tuples(st.integers(-50, 50), st.integers(-3, 3))
        raw = [(0, 0), (1, 0)] + [
            (base + t, base + t + c)
            for t, c in draw(st.lists(step, min_size=1, max_size=40, unique=True))
        ]
    pts = [GridPoint(x, y) for x, y in raw]
    pivot, ref = 0, 1
    side = draw(st.sampled_from([1, -1]))
    others: list[int] = []
    for s in range(2, len(pts)):
        if orient(pts[pivot], pts[ref], pts[s]) == side and all(
            orient(pts[pivot], pts[s], pts[t]) != 0 for t in others
        ):
            others.append(s)
    draw(st.randoms()).shuffle(others)
    return pts, pivot, ref, others


@settings(max_examples=300, deadline=None)
@given(half_plane_points())
def test_float_key_sort_matches_comparator(case):
    pts, pivot, ref, others = case
    xs, ys = columns(pts)
    side = orient(pts[pivot], pts[ref], pts[others[0]]) if others else 1
    assert unmapped._angular_sort(xs, ys, pivot, ref, others) == angular_sort_comparator(
        xs, ys, pivot, others, side
    )


def test_float_key_ties_are_ordered_exactly():
    # All four keys -x/y round to one double; only the repair orders them.
    b = 2**39
    xs = [0, 1] + [b + d for d in (0, 2, 4, -2)]
    ys = [0, 0] + [b + d + 1 for d in (0, 2, 4, -2)]
    others = [2, 3, 4, 5]
    assert len({-x / y for x, y in zip(xs[2:], ys[2:])}) == 1
    expected = angular_sort_comparator(xs, ys, 0, others, 1)
    assert expected == [4, 3, 2, 5]  # the steeper the slope, the later
    assert unmapped._angular_sort(xs, ys, 0, 1, others) == expected
    assert unmapped._angular_sort(xs, ys, 0, 1, others[::-1]) == expected


@st.composite
def parabola_subsets(draw):
    # Any subset of a parabola set is again in general position.
    pts = parabola_pointset(draw(st.integers(3, 60)))
    keep = draw(st.sets(st.integers(0, len(pts) - 1), min_size=3))
    return [pts[i] for i in sorted(keep)]


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(general_position_points(max_size=24, coord_max=10**4), parabola_subsets()),
    st.integers(0, 10**6),
)
def test_split_without_rank_dicts_matches_rank_dicts(pts, edge):
    # On any hull edge (p, q), every split n_a + n_b + 1 = m of the other
    # m points picks the same r, sides and orders as the rank-dict body.
    xs, ys = columns(pts)
    hull = convex_hull(pts)
    p, q = hull[edge % len(hull)], hull[(edge + 1) % len(hull)]
    others = [i for i in range(len(pts)) if i not in (p, q)]
    by_p = unmapped._angular_sort(xs, ys, p, q, others)
    by_q = unmapped._angular_sort(xs, ys, q, p, others)
    m = len(others)
    for n_a in range(m):
        args = (xs, ys, p, q, by_p, by_q, n_a, m - 1 - n_a)
        assert unmapped._select_split(*args) == select_split_rank_dicts(*args)


def _relabelled(k: int, edges, rng: random.Random) -> Layer:
    # The outerplanar layer with outer cycle 0..k-1 and these edges, under
    # a random labelling and a random start of its outer cycle.
    label = list(range(k))
    rng.shuffle(label)
    start = rng.randrange(k)
    return Layer(
        "outerplanar",
        [(label[u], label[v]) for u, v in edges],
        outer_cycle=[label[(start + i) % k] for i in range(k)],
    )


def _cycle(k: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % k) for i in range(k)]


def fan_layer(k: int, rng: random.Random) -> Layer:
    return _relabelled(k, _cycle(k) + [(0, i) for i in range(2, k - 1)], rng)


def zigzag_layer(k: int, rng: random.Random) -> Layer:
    # Chords alternate between the two ends, so the splits alternate
    # between an empty p side and an empty q side.
    edges = _cycle(k)
    lo, hi = 0, k - 1
    while hi - lo > 2:
        if len(edges) % 2:
            lo += 1
        else:
            hi -= 1
        edges.append((lo, hi))
    return _relabelled(k, edges, rng)


def _layers(k: int, seed: int) -> list[Layer]:
    rng = random.Random(seed)
    maximal = generate("maximal-outerplanar", k, seed)
    return [
        maximal,
        maximalize_outerplanar(thin_outerplanar(maximal, rng.random(), rng), k)[0],
        fan_layer(k, rng),
        zigzag_layer(k, rng),
    ]


@settings(max_examples=150, deadline=None)
@given(general_position_points(max_size=30, coord_max=10**4), st.integers(0, 10**6))
def test_lazy_split_driver_matches_eager_on_random_points(pts, seed):
    xs, ys = columns(pts)
    for layer in _layers(len(pts), seed):
        assert embed_outerplanar_on_points(layer, pts) == embed_on_general_position_eager(
            layer, xs, ys
        )


@pytest.mark.parametrize("seed", range(4))
def test_lazy_split_driver_matches_eager_on_planar_drawings(seed):
    for k in (3, 4, 7, 12, 25, 60, 120):
        pts = planar_general_position_draw(generate("plane-triangulation", k, seed), k)
        xs, ys = columns(pts)
        for layer in _layers(k, seed):
            assert unmapped._embed_on_general_position(
                layer, xs, ys, unmapped._hull_root(xs, ys)
            ) == embed_on_general_position_eager(layer, xs, ys)


@pytest.mark.parametrize("seed", range(3))
def test_heap_peeling_matches_path_walk(seed):
    for n in range(3, 81):
        lay = generate("plane-triangulation", n, seed)
        for rotation in (lay.rotation, [r[::-1] for r in lay.rotation]):
            faces = _trace_faces(n, lay.edges, rotation)
            assert unmapped._draw_triangulation(
                rotation, n
            ) == draw_triangulation_path_walk(rotation, faces, n)


# ---------------------------------------------------------------------------
# brute-force assignment
# ---------------------------------------------------------------------------


def test_bruteforce_triangle_identity():
    tri = Layer("outerplanar", [(0, 1), (1, 2), (2, 0)], outer_cycle=[0, 1, 2])
    pts = [GridPoint(0, 0), GridPoint(4, 1), GridPoint(1, 3)]
    assert brute_force_point_assignment(tri, pts) == [0, 1, 2]


def test_bruteforce_path_always_embeds():
    rng = random.Random(6)
    path = Layer("path", [(0, 1), (1, 2), (2, 3)])
    for _ in range(20):
        pts = random_general_position(4, rng)
        assert brute_force_point_assignment(path, pts) is not None


def test_bruteforce_k4_needs_interior_point():
    k4 = Layer("planar", [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
               rotation=[[1, 2, 3], [2, 0, 3], [0, 1, 3], [0, 2, 1]])
    # one point inside the triangle of the others: embeddable
    inside = [GridPoint(0, 0), GridPoint(10, 0), GridPoint(5, 8), GridPoint(5, 3)]
    assert brute_force_point_assignment(
        Layer("path", k4.edges), inside
    ) is not None
    # convex position: the two diagonals must cross
    convex = [GridPoint(0, 0), GridPoint(10, 1), GridPoint(9, 9), GridPoint(1, 8)]
    assert brute_force_point_assignment(Layer("path", k4.edges), convex) is None


def test_bruteforce_budget():
    path = Layer("path", [(i, i + 1) for i in range(9)])
    with pytest.raises(SearchBudgetError):
        brute_force_point_assignment(path, [GridPoint(i, i * i) for i in range(10)])
