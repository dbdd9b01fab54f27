import json
import random
import time
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    embedding_of,
    general_position_points,
    random_general_position,
    thin_plane,
)
from reference import brute_force_point_assignment
from simembed import (
    COORD_LIMIT,
    CoordinateBudgetError,
    GridPoint,
    InvalidInstanceError,
    Layer,
    LayeredInstance,
    certify_embedding,
    certify_general_position,
    check_plane_embedding,
    cli_main,
    embed_outerplanar_on_points,
    find_collinear_triple,
    general_position_bounds,
    generate,
    maximalize_outerplanar,
    orient,
    parabola_pointset,
    planar_general_position_draw,
    planar_grid_draw,
    serialize_instance,
    simul_embed_free,
)
from simembed import unmapped
from simembed.geometry import _next_prime as next_prime, _parabola_lift
from simembed.graphs import rotation_system_from_faces

P = GridPoint

TRIANGLE = Layer("planar", [(0, 1), (1, 2), (2, 0)], rotation=[[1, 2], [2, 0], [0, 1]])


def octahedron():
    faces = [
        (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 1),
        (5, 2, 1), (5, 3, 2), (5, 4, 3), (5, 1, 4),
    ]
    edges = [
        (0, 1), (0, 2), (0, 3), (0, 4),
        (1, 2), (2, 3), (3, 4), (4, 1),
        (5, 1), (5, 2), (5, 3), (5, 4),
    ]
    return Layer("planar", edges, rotation=rotation_system_from_faces(6, faces))


def drawing_certified(layer, n, pts, bounds=None):
    emb = embedding_of(pts)
    inst = LayeredInstance(n=n, layers=[layer])
    return certify_embedding(emb, inst, bounds=bounds).ok


# ---------------------------------------------------------------------------
# grid drawing
# ---------------------------------------------------------------------------


def test_grid_draw_triangle_base_case():
    # The outer face walk is (0, 1, 2) however the rotation lists start, and
    # the general drawing, peeling no vertex, puts it on the base triangle.
    for flips in range(8):
        rotation = [r[::-1] if flips >> v & 1 else r for v, r in enumerate(TRIANGLE.rotation)]
        pts = planar_grid_draw(Layer("planar", TRIANGLE.edges, rotation=rotation), 3)
        assert [(p.x, p.y) for p in pts] == [(0, 0), (2, 0), (1, 1)]


def test_grid_draw_k4():
    k4 = generate("plane-triangulation", 4, 3)
    pts = planar_grid_draw(k4, 4)
    assert max(p.x for p in pts) <= 4 and max(p.y for p in pts) <= 2
    assert drawing_certified(k4, 4, pts)


def test_grid_draw_octahedron():
    octa = octahedron()
    assert check_plane_embedding(octa, 6) == 8
    pts = planar_grid_draw(octa, 6)
    assert drawing_certified(octa, 6, pts)


def test_grid_draw_random_triangulations():
    for n in (5, 9, 14, 22, 30):
        for seed in range(6):
            lay = generate("plane-triangulation", n, seed)
            pts = planar_grid_draw(lay, n)
            assert 0 <= min(p.x for p in pts) and max(p.x for p in pts) <= 2 * n - 4
            assert 0 <= min(p.y for p in pts) and max(p.y for p in pts) <= n - 2
            assert drawing_certified(lay, n, pts)


def test_grid_draw_rejects_non_triangulation():
    sq = Layer(
        "planar",
        [(0, 1), (1, 2), (2, 3), (3, 0)],
        rotation=[[1, 3], [2, 0], [3, 1], [0, 2]],
    )
    with pytest.raises(InvalidInstanceError):
        planar_grid_draw(sq, 4)


# ---------------------------------------------------------------------------
# general-position drawing
# ---------------------------------------------------------------------------


def test_general_position_draw_triangle():
    pts = planar_general_position_draw(TRIANGLE, 3)
    assert certify_general_position(pts).ok


def test_general_position_draw_octahedron():
    octa = octahedron()
    pts = planar_general_position_draw(octa, 6)
    assert certify_general_position(pts).ok
    assert drawing_certified(octa, 6, pts)


def test_general_position_draw_random_within_bounds():
    for n in (5, 10, 18, 25):
        for seed in range(3):
            lay = generate("plane-triangulation", n, seed + 11)
            pts = planar_general_position_draw(lay, n)
            assert certify_general_position(pts).ok
            w_bound, h_bound = general_position_bounds(n)
            emb = embedding_of(pts)
            assert emb.width <= w_bound and emb.height <= h_bound
            assert drawing_certified(lay, n, pts)


def test_general_position_draw_plane_graph_with_big_faces():
    # hexagon plus one chord: triangulation dummies must not leak out
    edges = [(i, (i + 1) % 6) for i in range(6)] + [(0, 3)]
    faces = [(0, 1, 2, 3), (3, 4, 5, 0), (0, 5, 4, 3, 2, 1)]
    lay = Layer("planar", edges, rotation=rotation_system_from_faces(6, faces))
    pts = planar_general_position_draw(lay, 6)
    assert certify_general_position(pts).ok
    assert drawing_certified(lay, 6, pts)


def path_plane_layer(n):
    return Layer(
        "planar",
        [(i, i + 1) for i in range(n - 1)],
        rotation=[[w for w in (v - 1, v + 1) if 0 <= w < n] for v in range(n)],
    )


def test_general_position_draw_checks_budget_up_front(monkeypatch):
    assert max(general_position_bounds(4507)) <= COORD_LIMIT < max(general_position_bounds(4508))

    class PassedTheCheck(Exception):
        pass

    def no_work(*args):
        raise PassedTheCheck

    monkeypatch.setattr(unmapped, "triangulate_plane", no_work)
    with pytest.raises(CoordinateBudgetError, match="at most 4507 vertices fit"):
        planar_general_position_draw(path_plane_layer(4508), 4508)
    with pytest.raises(PassedTheCheck):
        planar_general_position_draw(path_plane_layer(4507), 4507)


def test_free_outerplanar_embed_checks_the_parabola_budget_first(monkeypatch):
    # the parabola set's coordinates stay below its prime p >= n, and the
    # largest prime below 2^40 is 2^40 - 87; nothing is maximalized first,
    # and the refusal leaves out n, which CPython will not format past 4300
    # digits
    fits = 2**40 - 87
    assert next_prime(fits) == fits and next_prime(fits + 1) > COORD_LIMIT

    class PassedTheCheck(Exception):
        pass

    def no_work(*args):
        raise PassedTheCheck

    monkeypatch.setattr(unmapped, "maximalize_outerplanar", no_work)
    layer = generate("maximal-outerplanar", 5, 0)
    for n in (fits + 1, 2**40 + 1, 10**20, 10**5000):
        with pytest.raises(CoordinateBudgetError, match=f"at most {fits} vertices fit"):
            simul_embed_free([layer], n)
    with pytest.raises(PassedTheCheck):
        simul_embed_free([layer], fits)


def test_free_planar_embed_checks_the_plane_budget_before_maximalizing(monkeypatch):
    # the plane drawing's budget is checked before any outerplanar layer is
    # maximalized, as the parabola set's is without a plane layer
    class PassedTheCheck(Exception):
        pass

    calls = []

    def record(*args):
        calls.append(args)
        raise PassedTheCheck

    monkeypatch.setattr(unmapped, "maximalize_outerplanar", record)

    def layers(n):
        cycle = [(i, (i + 1) % n) for i in range(n)]
        return [path_plane_layer(n), Layer("outerplanar", cycle, outer_cycle=list(range(n)))]

    with pytest.raises(CoordinateBudgetError, match="at most 4507 vertices fit"):
        simul_embed_free(layers(4508), 4508)
    assert calls == []
    with pytest.raises(PassedTheCheck):
        simul_embed_free(layers(4507), 4507)
    assert len(calls) == 1


def _refused_within_a_second(call, n):
    # a prime search near such an n would not end; the budget check comes first
    start = time.perf_counter()
    with pytest.raises(CoordinateBudgetError, match="over the coordinate budget 2\\^40"):
        call(n)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("n", [10**5000, 2**40 + 1], ids=["10^5000", "2^40+1"])
def test_parabola_pointset_refuses_a_huge_n_quickly(n):
    _refused_within_a_second(parabola_pointset, n)


@pytest.mark.parametrize("n", [10**5000, 2**40 + 1], ids=["10^5000", "2^40+1"])
def test_general_position_bounds_refuses_a_huge_n_quickly(n):
    _refused_within_a_second(general_position_bounds, n)


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 25), st.integers(0, 10**6), st.sampled_from([0.0, 0.5, 1.0]))
def test_general_position_draw_keeps_base_orientations(n, seed, share):
    # lam = p(6n + 1): the parabola offsets are too small against the
    # scaled base drawing to flip any strict orientation of it, and the
    # drawing is exactly the lift of the public grid drawing
    lay = thin_plane(generate("plane-triangulation", n, seed), n, share, random.Random(seed))
    base = planar_grid_draw(unmapped.triangulate_plane(lay, n)[0], n)
    pts = planar_general_position_draw(lay, n)
    p, lam = unmapped._planar_lift(n)
    assert (p, lam) == (next_prime(n), next_prime(n) * (6 * n + 1))
    assert pts == [P(lam * b.x + i, lam * b.y + i * i % p) for i, b in enumerate(base)]
    for a, b, c in combinations(range(n), 3):
        o = orient(base[a], base[b], base[c])
        if o != 0:
            assert orient(pts[a], pts[b], pts[c]) == o


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(3, 30), st.booleans())
def test_planar_lift_keeps_every_nonzero_base_orientation(data, n, one_row):
    # Any n base points in the (2n-4) x (n-2) box, a drawing or not, with
    # repeats allowed; with one_row they all lie on one row.  The lift at
    # the planar lam keeps every nonzero orientation and breaks every zero.
    xs = st.integers(0, 2 * n - 4)
    ys = st.just(data.draw(st.integers(0, n - 2))) if one_row else st.integers(0, n - 2)
    base = [P(*c) for c in data.draw(st.lists(st.tuples(xs, ys), min_size=n, max_size=n))]
    p, lam = unmapped._planar_lift(n)
    pts = list(map(P, *_parabola_lift([b.x for b in base], [b.y for b in base], lam, p)))
    for a, b, c in combinations(range(n), 3):
        o = orient(base[a], base[b], base[c])
        assert orient(pts[a], pts[b], pts[c]) == o or o == 0
        assert orient(pts[a], pts[b], pts[c]) != 0


# ---------------------------------------------------------------------------
# parabola point sets
# ---------------------------------------------------------------------------


def test_parabola_small_fixture():
    assert next_prime(5) == 5
    assert [(p.x, p.y) for p in parabola_pointset(5)] == [(1, 1), (2, 4), (3, 4), (4, 1), (5, 0)]


def test_parabola_prime_choice():
    assert next_prime(6) == 7
    assert next_prime(14) == 17
    assert next_prime(1) == 2


def test_parabola_general_position_n100():
    assert find_collinear_triple(parabola_pointset(100)) is None


@pytest.mark.parametrize(
    "n",
    list(range(1, 151)) + [q + d for q in (97, 101, 211) for d in (-1, 0, 1)],
)
def test_parabola_pointset_has_no_collinear_triple(n):
    # parabola_pointset does not re-check its points at run time; this is
    # the check of its Vandermonde argument, also where n meets a prime.
    assert find_collinear_triple(parabola_pointset(n)) is None


def test_parabola_modular_reason():
    # an integer collinearity would force equal parameters mod p
    p = next_prime(60)
    for t1, t2, t3 in ((1, 7, 31), (2, 9, 44), (5, 20, 59)):
        det = (t2 - t1) * ((t3 * t3) % p - (t1 * t1) % p) - (t3 - t1) * (
            (t2 * t2) % p - (t1 * t1) % p
        )
        assert det % p == ((t2 - t1) * (t3 - t1) * (t3 - t2)) % p
        assert det != 0


# ---------------------------------------------------------------------------
# outerplanar onto points
# ---------------------------------------------------------------------------


def assignment_certified(layer, pts, phi):
    emb = embedding_of(pts, assignments=[phi])
    inst = LayeredInstance(n=len(pts), layers=[layer], mapping="free")
    return certify_embedding(emb, inst).ok


def test_embed_triangle_any_points():
    tri = Layer("outerplanar", [(0, 1), (1, 2), (2, 0)], outer_cycle=[0, 1, 2])
    phi = embed_outerplanar_on_points(tri, [P(0, 0), P(5, 1), P(2, 4)])
    assert sorted(phi) == [0, 1, 2]


def test_embed_square_with_chord_matches_bruteforce_solvability():
    quad = Layer(
        "outerplanar", [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], outer_cycle=[0, 1, 2, 3]
    )
    rng = random.Random(0)
    for _ in range(30):
        pts = random_general_position(4, rng)
        phi = embed_outerplanar_on_points(quad, pts)
        assert assignment_certified(quad, pts, phi)
        assert brute_force_point_assignment(quad, pts) is not None


def test_embed_fan_on_parabola():
    n = 12
    edges = [(0, i) for i in range(1, n)] + [(i, i + 1) for i in range(1, n - 1)]
    fan = Layer("outerplanar", edges, outer_cycle=list(range(n)))
    pts = parabola_pointset(n)
    phi = embed_outerplanar_on_points(fan, pts)
    assert assignment_certified(fan, pts, phi)


def test_embed_random_k7_agrees_with_bruteforce():
    rng = random.Random(5)
    for trial in range(40):
        k = rng.randrange(3, 8)
        lay = generate("maximal-outerplanar", k, trial)
        pts = random_general_position(k, rng)
        phi = embed_outerplanar_on_points(lay, pts)
        assert assignment_certified(lay, pts, phi)
        assert brute_force_point_assignment(lay, pts) is not None


@st.composite
def cycles_with_chords(draw):
    # a shuffled k-cycle plus k - 3 distinct chords: the edge count and
    # the cycle edges of a maximal outerplanar layer, whose chords may cross
    k = draw(st.integers(4, 9))
    cycle = draw(st.permutations(range(k)))
    sides = {tuple(sorted((cycle[i], cycle[(i + 1) % k]))) for i in range(k)}
    others = [e for e in combinations(range(k), 2) if e not in sides]
    chords = draw(st.lists(st.sampled_from(others), min_size=k - 3, max_size=k - 3, unique=True))
    return Layer("outerplanar", sorted(sides) + chords, outer_cycle=cycle)


@settings(max_examples=200, deadline=None)
@given(cycles_with_chords())
def test_embed_refuses_crossing_chords_or_draws_a_certified_layer(layer):
    k = len(layer.outer_cycle)
    pts = parabola_pointset(k)
    try:
        phi = embed_outerplanar_on_points(layer, pts)
    except InvalidInstanceError as exc:
        # maximalize_outerplanar is the one check of nesting chords
        assert "cross in the declared outer cycle" in str(exc)
    else:
        assert assignment_certified(layer, pts, phi)


def test_embed_refuses_a_hexagon_with_three_crossing_diagonals():
    hexagon = Layer(
        "outerplanar",
        [(i, (i + 1) % 6) for i in range(6)] + [(0, 3), (1, 4), (2, 5)],
        outer_cycle=list(range(6)),
    )
    with pytest.raises(InvalidInstanceError, match="cross in the declared outer cycle"):
        embed_outerplanar_on_points(hexagon, parabola_pointset(6))


def test_embed_requires_general_position():
    tri = Layer("outerplanar", [(0, 1), (1, 2), (2, 0)], outer_cycle=[0, 1, 2])
    with pytest.raises(InvalidInstanceError):
        embed_outerplanar_on_points(tri, [P(0, 0), P(1, 1), P(2, 2)])


def test_embed_requires_maximal():
    # the layer need not be maximal: it is maximalized first, so the bare
    # square maps as its maximalization does
    square = Layer("outerplanar", [(0, 1), (1, 2), (2, 3), (3, 0)], outer_cycle=[0, 1, 2, 3])
    pts = [P(0, 0), P(7, 1), P(5, 6), P(1, 5)]
    phi = embed_outerplanar_on_points(square, pts)
    assert assignment_certified(square, pts, phi)
    assert phi == embed_outerplanar_on_points(maximalize_outerplanar(square, 4)[0], pts)


@settings(max_examples=150, deadline=None)
@given(general_position_points(max_size=11), st.integers(0, 10**6), st.data())
def test_embed_thinned_layer_maps_as_its_maximalization(pts, seed, data):
    # any subset of a maximal layer's edges, cycle edges too, on any points
    k = len(pts)
    maximal = generate("maximal-outerplanar", k, seed)
    kept = data.draw(st.sets(st.sampled_from(range(len(maximal.edges)))))
    thinned = Layer(
        "outerplanar", [maximal.edges[i] for i in sorted(kept)], outer_cycle=maximal.outer_cycle
    )
    phi = embed_outerplanar_on_points(thinned, pts)
    assert assignment_certified(thinned, pts, phi)
    assert phi == embed_outerplanar_on_points(maximalize_outerplanar(thinned, k)[0], pts)


# ---------------------------------------------------------------------------
# composition pipelines
# ---------------------------------------------------------------------------


def free_instance(layers, n):
    return LayeredInstance(n=n, layers=layers, mapping="free")


def test_simul_planar_outerplanar_triangle_path():
    g2 = Layer("outerplanar", [(0, 1), (1, 2)], outer_cycle=[0, 1, 2])
    emb = simul_embed_free([TRIANGLE, g2], 3)
    assert certify_embedding(emb, free_instance([TRIANGLE, g2], 3)).ok


def test_simul_planar_outerplanar_octahedron_cycle():
    octa = octahedron()
    cyc = Layer("outerplanar", [(i, (i + 1) % 6) for i in range(6)], outer_cycle=list(range(6)))
    emb = simul_embed_free([octa, cyc], 6)
    assert certify_embedding(emb, free_instance([octa, cyc], 6)).ok


def test_simul_planar_outerplanar_random():
    for seed in range(6):
        n = 15
        g1 = generate("plane-triangulation", n, seed)
        g2 = generate("maximal-outerplanar", n, seed + 77)
        emb = simul_embed_free([g1, g2], n)
        assert certify_embedding(emb, free_instance([g1, g2], n)).ok
        assert emb.assignments is not None and len(emb.assignments) == 2


def test_simul_outerplanars_three_kinds():
    n = 8
    path = Layer("outerplanar", [(i, i + 1) for i in range(n - 1)], outer_cycle=list(range(n)))
    star = Layer("outerplanar", [(0, i) for i in range(1, n)],
                 outer_cycle=[0] + list(range(1, n)))
    cycle = Layer("outerplanar", [(i, (i + 1) % n) for i in range(n)], outer_cycle=list(range(n)))
    emb = simul_embed_free([path, star, cycle], n)
    assert certify_embedding(emb, free_instance([path, star, cycle], n)).ok
    assert len(emb.assignments) == 3


def test_simul_outerplanars_single_layer():
    tri = Layer("outerplanar", [(0, 1), (1, 2), (2, 0)], outer_cycle=[0, 1, 2])
    emb = simul_embed_free([tri], 3)
    assert certify_embedding(emb, free_instance([tri], 3)).ok


@pytest.mark.parametrize(
    "n, edges, xs, ys",
    [(1, [], [1], [1]), (2, [(0, 1)], [1, 2], [2, 1])],
    ids=["n1", "n2"],
)
def test_simul_outerplanars_on_one_and_two_points(n, edges, xs, ys, tmp_path):
    # below three points there is no hull edge to root a split at: each
    # layer is mapped by the identity
    layers = [
        Layer("outerplanar", edges, outer_cycle=list(range(n))),
        Layer("outerplanar", [], outer_cycle=list(range(n))),
    ]
    inst = free_instance(layers, n)
    emb = simul_embed_free(layers, n)
    assert (emb.xs, emb.ys, emb.assignments) == (xs, ys, [list(range(n))] * 2)
    assert certify_embedding(emb, inst).ok
    src, out = tmp_path / "inst.json", tmp_path / "result.json"
    src.write_text(serialize_instance(inst), encoding="utf-8")
    assert cli_main(["embed", "--in", str(src), "--out", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["coords"] == [list(p) for p in zip(xs, ys)]
    assert doc["assignments"] == [list(range(n))] * 2
    assert doc["certificate"] == {"ok": True, "violations": []}


def test_crossing_chords_are_refused_before_the_plane_drawing(monkeypatch):
    # Maximalizing validates every outerplanar layer, so a layer whose
    # chords cross is refused before the plane layer is triangulated and drawn.
    drawn = []
    monkeypatch.setattr(unmapped, "_general_position_columns", lambda *args: drawn.append(args))
    n = 6
    crossing = Layer(
        "outerplanar",
        [(i, (i + 1) % n) for i in range(n)] + [(0, 3), (1, 4)],
        outer_cycle=list(range(n)),
    )
    with pytest.raises(InvalidInstanceError, match="cross"):
        simul_embed_free([octahedron(), crossing], n)
    assert drawn == []


def test_free_pipelines_check_their_point_set_once(monkeypatch):
    calls = []
    real = unmapped._first_collinear_triple
    monkeypatch.setattr(
        unmapped, "_first_collinear_triple", lambda xs, ys: calls.append(len(xs)) or real(xs, ys)
    )
    # Both point sources leave no three points collinear by construction,
    # so neither the parabola set nor the planar lift runs the kernel;
    # direct callers of embed_outerplanar_on_points still get one check.
    n = 12
    layers = [generate("maximal-outerplanar", n, s) for s in range(3)]
    emb = simul_embed_free(layers, n)
    assert calls == []
    assert certify_embedding(emb, free_instance(layers, n)).ok
    g1, g2 = generate("plane-triangulation", n, 1), generate("maximal-outerplanar", n, 2)
    emb = simul_embed_free([g1, g2], n)
    assert calls == []
    assert certify_embedding(emb, free_instance([g1, g2], n)).ok
    embed_outerplanar_on_points(layers[0], parabola_pointset(n))
    assert calls == [n]


def test_free_pipelines_build_no_grid_point(monkeypatch):
    # Both free pipelines read their points as int columns from first to
    # last; GridPoint lists are built only by the public point functions.
    n = 80
    outerplanars = [generate("maximal-outerplanar", n, seed) for seed in (3, 4, 5)]
    planar_outerplanar = [
        generate("plane-triangulation", n, 3),
        generate("maximal-outerplanar", n, 3),
    ]
    built = []
    init = GridPoint.__init__

    def counting_init(self, x, y):
        built.append((x, y))
        init(self, x, y)

    monkeypatch.setattr(GridPoint, "__init__", counting_init)
    for layers in (outerplanars, planar_outerplanar):
        emb = simul_embed_free(layers, n)
        assert built == []
        assert certify_embedding(emb, free_instance(layers, n)).ok
    # the count sees every point that the public function builds
    pts = parabola_pointset(n)
    assert built == [(p.x, p.y) for p in pts]


def test_embedders_are_pure_under_concurrency():
    # pure functions: concurrent calls give the same results as serial ones
    from concurrent.futures import ThreadPoolExecutor

    from simembed import Caterpillar, embed_two_caterpillars

    cats = [
        (Caterpillar([0, 1, 2], [[3], [4], []]), Caterpillar([4, 0], [[1, 2], [3]]))
        for _ in range(16)
    ]
    serial = [embed_two_caterpillars(c1, c2).coords for c1, c2 in cats]
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(lambda cc: embed_two_caterpillars(*cc).coords, cats))
    assert parallel == serial


def test_simul_outerplanars_bounds():
    n = 25
    layers = [generate("maximal-outerplanar", n, s) for s in range(5)]
    emb = simul_embed_free(layers, n)
    assert certify_embedding(emb, free_instance(layers, n), bounds=(29, 29)).ok
    assert emb.width <= 29 and emb.height <= 29
