import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import embedding_of
from simembed import (
    COORD_LIMIT,
    CoordinateBudgetError,
    FIVE_PATHS,
    Caterpillar,
    DuplicatePointError,
    GridPoint,
    InvalidInstanceError,
    Layer,
    LayeredInstance,
    PairCoverage,
    PathOrder,
    SearchBudgetError,
    caterpillar_decompose,
    certify_embedding,
    certify_general_position,
    convex_hull,
    embed_path_caterpillar,
    embed_two_caterpillars,
    embed_two_paths,
    exhaustive_five_point_check,
    find_collinear_triple,
    five_path_pair_coverage,
    generate,
    orient,
    path_from_digits,
    refine_general_position,
)
from simembed import mapped
from simembed.geometry import _largest_within_budget, _next_prime as next_prime

P = GridPoint


def instance_for(layers_edges, n, kinds=None):
    kinds = kinds or ["path"] * len(layers_edges)
    return LayeredInstance(
        n=n, layers=[Layer(k, e) for k, e in zip(kinds, layers_edges)]
    )


# ---------------------------------------------------------------------------
# two paths
# ---------------------------------------------------------------------------


def test_two_paths_scrambled_fixture():
    p1 = PathOrder([0, 1, 2, 3, 4, 5, 6])
    p2 = PathOrder([1, 4, 0, 3, 2, 5, 6])
    emb = embed_two_paths(p1, p2)
    assert [(q.x, q.y) for q in emb.coords] == [
        (1, 3), (2, 1), (3, 5), (4, 4), (5, 2), (6, 6), (7, 7),
    ]
    assert emb.width == emb.height == 7


def test_two_paths_identity_diagonal():
    p = PathOrder([0, 1, 2])
    emb = embed_two_paths(p, PathOrder([0, 1, 2]))
    assert [(q.x, q.y) for q in emb.coords] == [(1, 1), (2, 2), (3, 3)]


def test_two_paths_mismatch_rejected():
    with pytest.raises(InvalidInstanceError):
        embed_two_paths(PathOrder([0, 1, 2]), PathOrder([0, 1]))


def test_two_paths_random_certified():
    rng = random.Random(0)
    for _ in range(25):
        n = rng.randrange(2, 51)
        o1, o2 = list(range(n)), list(range(n))
        rng.shuffle(o1)
        rng.shuffle(o2)
        p1, p2 = PathOrder(o1), PathOrder(o2)
        emb = embed_two_paths(p1, p2)
        inst = instance_for([p1.edges(), p2.edges()], n)
        assert certify_embedding(emb, inst, bounds=(n, n)).ok


def test_two_paths_monotone_layers():
    rng = random.Random(1)
    n = 30
    o1, o2 = list(range(n)), list(range(n))
    rng.shuffle(o1)
    rng.shuffle(o2)
    emb = embed_two_paths(PathOrder(o1), PathOrder(o2))
    xs = [emb.coords[v].x for v in o1]
    ys = [emb.coords[v].y for v in o2]
    assert xs == sorted(xs) and ys == sorted(ys)


# ---------------------------------------------------------------------------
# general-position refinement
# ---------------------------------------------------------------------------


def lifted(base, p):
    # The parabola lift: point i goes to p * base_i + (i, i^2 mod p).
    return [P(p * b.x + i, p * b.y + i * i % p) for i, b in enumerate(base)]


def test_refine_two_points_unchanged_up_to_scaling():
    out = refine_general_position([P(1, 2), P(3, 1)], 4)
    # p = 2, the smallest prime >= 2 points
    assert [(q.x, q.y) for q in out] == [(2 * 1 + 0, 2 * 2 + 0), (2 * 3 + 1, 2 * 1 + 1)]


def test_refine_breaks_diagonal():
    base = [P(0, 0), P(1, 1), P(2, 2)]
    out = refine_general_position(base, 3)
    assert find_collinear_triple(out) is None
    assert out == lifted(base, 3)


def assert_refined(base, out):
    # exact formula, no three collinear, strict x and y order kept
    assert out == lifted(base, next_prime(len(base)))
    assert find_collinear_triple(out) is None
    for i in range(len(base)):
        for j in range(len(base)):
            if base[i].x < base[j].x:
                assert out[i].x < out[j].x
            if base[i].y < base[j].y:
                assert out[i].y < out[j].y


def test_refine_random_properties():
    rng = random.Random(2)
    for trial in range(20):
        extent = rng.randrange(5, 31)
        count = rng.randrange(3, extent + 1)
        base = []
        seen = set()
        while len(base) < count:
            c = (rng.randrange(extent + 1), rng.randrange(extent + 1))
            if c not in seen:
                seen.add(c)
                base.append(P(*c))
        out = refine_general_position(base, extent)
        assert certify_general_position(out).ok
        assert_refined(base, out)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), unique=True, max_size=40),
    st.integers(-9, 9),
    st.integers(0, 19),
    st.booleans(),
)
def test_refine_is_the_order_keeping_lift(coords, row, row_len, column):
    # a fully collinear row (one y value, distinct x), or column, rides
    # along with the arbitrary points; the lift breaks it while keeping
    # both axis orders
    line = [(x, row) for x in range(-9, -9 + row_len)]
    if column:
        line = [(y, x) for x, y in line]
    base = [P(x, y) for x, y in coords + [c for c in line if c not in coords]]
    assert_refined(base, refine_general_position(base, 9))


def test_refine_checks_budget_up_front():
    # p points at base extent e reach p * e + p - 1; with 2 points, p = 2
    # and 2e + 1 <= 2^40 exactly for e up to (2^40 - 1) // 2
    fits = (COORD_LIMIT - 1) // 2
    out = refine_general_position([P(0, 0), P(fits, fits)], fits)
    assert out == [P(0, 0), P(2 * fits + 1, 2 * fits + 1)]
    with pytest.raises(CoordinateBudgetError, match=f"up to {fits} fit"):
        refine_general_position([P(0, 0), P(fits + 1, fits + 1)], fits + 1)
    # five points: p = 5
    fits = (COORD_LIMIT - 4) // 5
    base = [P(0, 0), P(fits, 1), P(1, fits), P(2, 2), P(fits, fits)]
    assert max(q.x for q in refine_general_position(base, fits)) <= COORD_LIMIT
    with pytest.raises(CoordinateBudgetError, match=f"of 5 points .* up to {fits} fit"):
        refine_general_position(base, fits + 1)


def test_refine_rejects_bad_input():
    with pytest.raises(DuplicatePointError):
        refine_general_position([P(0, 0), P(0, 0)], 5)
    with pytest.raises(InvalidInstanceError):
        refine_general_position([P(99, 0)], 5)


def test_refine_refuses_duplicate_base_points_as_the_geometry_kernel_does():
    # the same error and words as convex_hull and find_collinear_triple,
    # after the extent check and before the budget check
    base = [P(0, 0), P(2, 2), P(1, 3), P(2, 2), P(1, 3)]
    with pytest.raises(DuplicatePointError) as hull_err:
        convex_hull(base)
    with pytest.raises(DuplicatePointError) as err:
        refine_general_position(base, 3)
    assert str(err.value) == str(hull_err.value) == "points 1 and 3 coincide at (2, 2)"
    assert not isinstance(err.value, InvalidInstanceError)
    with pytest.raises(DuplicatePointError, match="points 1 and 3 coincide"):
        refine_general_position(base, COORD_LIMIT)
    with pytest.raises(InvalidInstanceError, match="outside the declared base extent 1"):
        refine_general_position(base, 1)


# ---------------------------------------------------------------------------
# caterpillars
# ---------------------------------------------------------------------------


def caterpillar_instance(c1, c2, n):
    return LayeredInstance(
        n=n,
        layers=[
            Layer("caterpillar", c1.edges()),
            Layer("caterpillar", c2.edges()),
        ],
    )


def test_two_caterpillars_legless_reduces_to_paths():
    c1 = Caterpillar([0, 1, 2], [[], [], []])
    c2 = Caterpillar([2, 0, 1], [[], [], []])
    emb = embed_two_caterpillars(c1, c2)
    assert certify_embedding(emb, caterpillar_instance(c1, c2, 3)).ok
    n = 3
    assert emb.width <= 3 * n and emb.height <= 3 * n  # p = 3


def test_two_caterpillars_star_and_path():
    c1 = Caterpillar([0], [[1, 2, 3, 4]])
    c2 = Caterpillar([3, 1, 0, 4, 2], [[], [], [], [], []])
    emb = embed_two_caterpillars(c1, c2)
    assert certify_embedding(emb, caterpillar_instance(c1, c2, 5)).ok


def test_two_caterpillars_random_certified_within_bounds():
    for seed in range(12):
        n = 40
        c1 = caterpillar_decompose(generate("caterpillar", n, seed), n)
        c2 = caterpillar_decompose(generate("caterpillar", n, seed + 500), n)
        emb = embed_two_caterpillars(c1, c2)
        assert certify_embedding(emb, caterpillar_instance(c1, c2, n)).ok
        assert emb.width <= 41 * n and emb.height <= 41 * n  # p = 41
        assert certify_general_position(emb.coords).ok


def test_two_caterpillars_lift_their_two_path_grid_directly(monkeypatch):
    # The two-path layout is a permutation grid inside [1, n]^2, so it needs
    # none of refine_general_position's checks; the drawing is the one that
    # refine_general_position's lift gives, translated to the origin.
    def refuse(points, base_extent):
        raise AssertionError("refine_general_position was called")

    for seed in range(4):
        n = 30
        c1 = caterpillar_decompose(generate("caterpillar", n, seed), n)
        c2 = caterpillar_decompose(generate("caterpillar", n, seed + 500), n)
        base = embed_two_paths(mapped.caterpillar_to_path(c1), mapped.caterpillar_to_path(c2))
        refined = refine_general_position(base.coords, n)
        min_x, min_y = min(q.x for q in refined), min(q.y for q in refined)
        with monkeypatch.context() as mp:
            mp.setattr(mapped, "refine_general_position", refuse)
            emb = embed_two_caterpillars(c1, c2)
        assert emb.coords == [P(q.x - min_x + 1, q.y - min_y + 1) for q in refined]


def test_two_caterpillars_check_budget_up_front(monkeypatch):
    # refine_general_position gives n points of base extent n coordinates
    # up to p*n + p - 1, p the smallest prime >= n
    fits = _largest_within_budget(lambda n: next_prime(n) * n + next_prime(n) - 1)
    assert 1_000_000 < fits < 1_100_000

    class Linearized(Exception):
        pass

    def linearize(cat):
        raise Linearized

    def embed_stars(n):
        star = Caterpillar([0], [list(range(1, n))])
        embed_two_caterpillars(star, star)

    monkeypatch.setattr(mapped, "caterpillar_to_path", linearize)
    with pytest.raises(Linearized):
        embed_stars(fits)
    with pytest.raises(CoordinateBudgetError, match=f"at most {fits} vertices fit"):
        embed_stars(fits + 1)


def test_path_embedders_check_budget_up_front():
    # the n x n grid of two paths and the width below 2n of a path and a
    # caterpillar are refused before either order is read
    class Huge:
        n = 2**40 + 1

    with pytest.raises(CoordinateBudgetError, match=f"at most {2**40} vertices fit"):
        embed_two_paths(Huge(), Huge())
    with pytest.raises(CoordinateBudgetError, match=f"at most {2**39} vertices fit"):
        embed_path_caterpillar(Huge(), Huge())


@pytest.mark.parametrize(
    "embed, first, second",
    [
        (embed_two_paths, PathOrder([]), PathOrder([])),
        (embed_two_caterpillars, Caterpillar([], []), Caterpillar([], [])),
        (embed_path_caterpillar, PathOrder([]), Caterpillar([], [])),
    ],
    ids=["two-paths", "two-caterpillars", "path-caterpillar"],
)
def test_path_embedders_refuse_an_empty_vertex_set(embed, first, second):
    # no empty drawing, whose 0 x 0 grid parse_result refuses, and no bare
    # ValueError from the extent of no points
    with pytest.raises(InvalidInstanceError, match="at least one vertex"):
        embed(first, second)


# ---------------------------------------------------------------------------
# path + caterpillar
# ---------------------------------------------------------------------------


def pc_instance(p, cat, n):
    return LayeredInstance(
        n=n,
        layers=[Layer("path", p.edges()), Layer("caterpillar", cat.edges())],
    )


def test_path_caterpillar_fixture():
    p = PathOrder([0, 1, 2, 3])
    cat = Caterpillar([0, 1, 2], [[], [3], []])
    assert orient(P(3, 2), P(5, 3), P(4, 4)) != 0
    emb, shifts = embed_path_caterpillar(p, cat)
    assert [(q.x, q.y) for q in emb.coords] == [(1, 1), (3, 2), (5, 3), (4, 4)]
    assert shifts == 0
    assert certify_embedding(emb, pc_instance(p, cat, 4)).ok


def test_path_caterpillar_no_legs():
    p = PathOrder([2, 0, 1])
    cat = Caterpillar([1, 0, 2], [[], [], []])
    emb, shifts = embed_path_caterpillar(p, cat)
    assert shifts == 0
    assert all(q.x % 2 == 1 for q in emb.coords)
    assert certify_embedding(emb, pc_instance(p, cat, 3)).ok


def test_path_caterpillar_forced_shift():
    # leg of the first spine vertex sits exactly on the segment to the next:
    # spine s0, s1 with one leg under s0 placed at the midpoint row
    p = PathOrder([0, 2, 1])  # y: s0=1, leg=2, s1=3
    cat = Caterpillar([0, 1], [[2], []])
    emb, shifts = embed_path_caterpillar(p, cat)
    assert shifts == 1
    assert certify_embedding(emb, pc_instance(p, cat, 3)).ok
    # width grows by exactly the shift count
    assert emb.width == 3 + shifts


def test_path_caterpillar_random_certified_with_bounds():
    rng = random.Random(3)
    for seed in range(25):
        n = rng.randrange(2, 61)
        lay = generate("caterpillar", n, seed)
        cat = caterpillar_decompose(lay, n)
        order = list(range(n))
        rng.shuffle(order)
        p = PathOrder(order)
        emb, shifts = embed_path_caterpillar(p, cat)
        k = cat.leg_count()
        assert shifts <= k
        assert emb.width <= 2 * n - k
        assert emb.height == n
        # the drawing starts in column 1, so its width is its largest x
        assert min(q.x for q in emb.coords) == 1
        assert emb.width == max(q.x for q in emb.coords)
        assert certify_embedding(emb, pc_instance(p, cat, n)).ok
        # path layer stays y-monotone after shifting
        ys = [emb.coords[v].y for v in order]
        assert ys == sorted(ys)


# ---------------------------------------------------------------------------
# five paths
# ---------------------------------------------------------------------------


def test_pair_coverage_of_the_five_paths():
    paths = [path_from_digits(d) for d in FIVE_PATHS]
    cov = five_path_pair_coverage(paths)
    assert len(cov.pairs) == 15
    assert cov.all_covered
    assert cov.per_path_counts(5) == [3, 3, 3, 3, 3]
    assert all(len(c) == 1 for c in cov.covered_by)


@pytest.mark.parametrize("digits", ["12a45", "1234x", "02345", "12 45"])
def test_path_from_digits_rejects_anything_but_digits_one_to_nine(digits):
    with pytest.raises(InvalidInstanceError, match="path digits"):
        path_from_digits(digits)


def test_single_path_eliminates_three_pairs():
    cov = five_path_pair_coverage([path_from_digits("12345")])
    covered = {
        PairCoverage.label(pair)
        for pair, paths in zip(cov.pairs, cov.covered_by)
        if paths
    }
    assert covered == {"12-34", "12-45", "23-45"}


def test_dropping_any_path_loses_coverage():
    paths = [path_from_digits(d) for d in FIVE_PATHS]
    for drop in range(5):
        cov = five_path_pair_coverage([p for i, p in enumerate(paths) if i != drop])
        assert not cov.all_covered


def test_exhaustive_check_small_grid():
    paths = [path_from_digits(d) for d in FIVE_PATHS]
    res = exhaustive_five_point_check(4, paths)
    assert res.counterexample is None
    assert res.exhaustive
    assert res.placements_checked == 13680
    assert exhaustive_five_point_check(3, paths).placements_checked == 420


def test_exhaustive_check_grid_six():
    paths = [path_from_digits(d) for d in FIVE_PATHS]
    res = exhaustive_five_point_check(6, paths)
    assert res.counterexample is None
    assert res.exhaustive
    assert res.placements_checked == 1528704


def test_exhaustive_check_grid_seven():
    paths = [path_from_digits(d) for d in FIVE_PATHS]
    res = exhaustive_five_point_check(7, paths)
    assert res.counterexample is None
    assert res.exhaustive
    assert res.placements_checked == 10365570


def test_exhaustive_check_four_paths_find_witness():
    paths = [path_from_digits(d) for d in FIVE_PATHS[:4]]
    res = exhaustive_five_point_check(5, paths)
    assert res.counterexample is not None
    pts = res.counterexample
    assert find_collinear_triple(pts) is None
    layers = [p.edges() for p in paths]
    emb = embedding_of(pts)
    assert certify_embedding(emb, instance_for(layers, 5)).ok


def test_exhaustive_check_degenerate_column():
    # A side below 3 holds no five points with no three collinear: the
    # search is refused, sampled or not, rather than claiming a verdict
    # after checking no placement.
    paths = [path_from_digits(d) for d in FIVE_PATHS]
    # a side of magnitude 2^40 + 1 passes the budget check and keeps this text
    for (w, h), samples in [((1, 5), None), ((2, 8), None), ((8, 2), None), ((2, 12), 50),
                            ((-(2**40 + 1), 5), None)]:
        with pytest.raises(InvalidInstanceError, match=f"grid {w}x{h} holds no five points"):
            exhaustive_five_point_check((w, h), paths, samples=samples)


def test_exhaustive_check_refuses_a_grid_over_the_coordinate_budget():
    # Points of a side-s grid run from 0 to s - 1: a side of COORD_LIMIT + 1
    # fits, one more is refused before any placement is drawn.  The refusal
    # leaves the side out, which CPython will not format past 4300 digits.
    paths = [path_from_digits(d) for d in FIVE_PATHS]
    side = COORD_LIMIT + 1
    # The last three would also fail the side-below-3 check, whose message
    # formats the sides: the budget is checked first, on the magnitude.
    for grid in [(2**41, 2**41), side + 1, (3, side + 1), (side + 1, 3), 10**5000,
                 (10**5000, 2), (2, 10**5000), -10**5000]:
        with pytest.raises(CoordinateBudgetError, match=f"sides up to {side} fit"):
            exhaustive_five_point_check(grid, paths, samples=3)
    res = exhaustive_five_point_check(side, paths, samples=3)
    assert res.grid == (side, side) and res.placements_checked == 3


def test_search_budget_and_sampling():
    paths = [path_from_digits(d) for d in FIVE_PATHS]
    with pytest.raises(SearchBudgetError):
        exhaustive_five_point_check(9, paths)
    res = exhaustive_five_point_check(9, paths, samples=200)
    assert not res.exhaustive
    assert res.placements_checked == 200  # five paths never embed
