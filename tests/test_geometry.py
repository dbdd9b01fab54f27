import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from simembed import (
    COORD_LIMIT,
    CoordinateBudgetError,
    DuplicatePointError,
    GridPoint,
    InvalidInstanceError,
    convex_hull,
    find_collinear_triple,
    orient,
    parabola_pointset,
)
from simembed.geometry import _conflict_raw, _next_prime, _parabola_lift

P = GridPoint


def conflict(s1, s2):
    """_conflict_raw on two segments given as pairs of points."""
    (a, b), (c, d) = s1, s2
    return _conflict_raw(a.x, a.y, b.x, b.y, c.x, c.y, d.x, d.y)


def brute_collinear_triple(points):
    """Independent cubic-scan oracle for find_collinear_triple."""
    n = len(points)
    for i in range(n - 2):
        for j in range(i + 1, n - 1):
            for k in range(j + 1, n):
                if orient(points[i], points[j], points[k]) == 0:
                    return (i, j, k)
    return None


def test_orient_basic():
    assert orient(P(0, 0), P(1, 0), P(0, 1)) == 1
    assert orient(P(0, 0), P(1, 1), P(2, 2)) == 0
    assert orient(P(0, 0), P(2, 0), P(1, -5)) == -1


def test_orient_antisymmetric_random():
    rng = random.Random(0)
    for _ in range(300):
        a, b, c = (P(rng.randrange(-50, 50), rng.randrange(-50, 50)) for _ in range(3))
        s = orient(a, b, c)
        assert orient(b, a, c) == -s
        assert orient(a, c, b) == -s
        assert orient(c, b, a) == -s


def test_orient_matches_exact_fraction_reeval():
    rng = random.Random(1)
    lim = COORD_LIMIT
    for _ in range(10_000):
        a, b, c = (P(rng.randrange(-lim, lim), rng.randrange(-lim, lim)) for _ in range(3))
        det = (Fraction(b.x) - a.x) * (Fraction(c.y) - a.y) - (
            Fraction(b.y) - a.y
        ) * (Fraction(c.x) - a.x)
        expect = 0 if det == 0 else (1 if det > 0 else -1)
        assert orient(a, b, c) == expect


def test_coordinate_budget_enforced():
    P(COORD_LIMIT, -COORD_LIMIT)
    with pytest.raises(CoordinateBudgetError):
        P(COORD_LIMIT + 1, 0)
    with pytest.raises(CoordinateBudgetError):
        P(0.5, 0)
    # bool is an int subclass; serialized as JSON true/false it would not parse back
    for x, y in ((True, 1), (1, False), (False, True)):
        with pytest.raises(CoordinateBudgetError):
            P(x, y)


def test_grid_point_semantics():
    p = P(3, -4)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.x = 5
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.z = 5
    assert (p.x, p.y) == (3, -4)
    assert repr(p) == "GridPoint(x=3, y=-4)"
    assert P(x=3, y=-4) == p and hash(P(3, -4)) == hash(p)
    assert len({P(1, 2), P(1, 2), P(2, 1)}) == 2
    # ordered as the tuple (x, y), yet never equal to one
    assert sorted([P(2, 0), P(1, 5), P(1, -5)]) == [P(1, -5), P(1, 5), P(2, 0)]
    assert P(1, 5) < P(2, 0) and P(1, 5) >= P(1, 5)
    assert p != (3, -4)
    with pytest.raises(TypeError):
        p < (3, -4)
    assert dataclasses.astuple(p) == (3, -4)
    assert [f.name for f in dataclasses.fields(P)] == ["x", "y"]
    assert dataclasses.replace(p, y=7) == P(3, 7)
    with pytest.raises(CoordinateBudgetError):
        dataclasses.replace(p, x=True)


def test_grid_point_rejects_what_is_not_an_exact_int():
    for x, y in ((True, 1), (1, False), (1.0, 1), (1, 2.5), ("1", 1), (None, 0)):
        with pytest.raises(CoordinateBudgetError) as exc:
            P(x, y)
        assert str(exc.value) == f"coordinates must be integers, got ({x!r}, {y!r})"


@pytest.mark.parametrize("sign", [1, -1])
def test_grid_point_budget_edges(sign):
    lim = sign * COORD_LIMIT
    assert COORD_LIMIT == 2**40
    assert P(lim, lim) == P(lim, lim)
    assert P(lim, 0).x == lim and P(0, lim).y == lim
    over = sign * (COORD_LIMIT + 1)
    for x, y in ((over, 0), (0, over), (over, over)):
        with pytest.raises(CoordinateBudgetError) as exc:
            P(x, y)
        assert str(exc.value) == f"coordinate magnitude exceeds budget 2^40: ({x}, {y})"


def test_predicates_exact_at_budget_extremes():
    lim = COORD_LIMIT
    # near-collinear at full magnitude: off by one unit must be detected
    assert orient(P(-lim, -lim), P(lim, lim), P(0, 0)) == 0
    assert orient(P(-lim, -lim), P(lim, lim), P(0, 1)) == 1
    assert orient(P(-lim, -lim), P(lim, lim), P(0, -1)) == -1
    s1 = (P(-lim, 0), P(lim, 1))
    s2 = (P(-lim, 1), P(lim, 0))
    assert conflict(s1, s2)


def test_segments_conflict_cases():
    assert conflict((P(0, 0), P(2, 2)), (P(0, 2), P(2, 0)))
    assert not conflict((P(0, 0), P(1, 1)), (P(1, 1), P(2, 0)))
    assert conflict((P(0, 0), P(3, 0)), (P(1, 0), P(2, 0)))
    # endpoint in the interior of the other segment
    assert conflict((P(0, 0), P(4, 0)), (P(2, 0), P(2, 5)))
    # collinear, sharing exactly one endpoint
    assert not conflict((P(0, 0), P(1, 1)), (P(1, 1), P(2, 2)))
    # identical segments overlap everywhere
    assert conflict((P(0, 0), P(2, 2)), (P(0, 0), P(2, 2)))
    # disjoint collinear
    assert not conflict((P(0, 0), P(1, 0)), (P(2, 0), P(3, 0)))


def test_segments_conflict_symmetric_random():
    rng = random.Random(2)
    for _ in range(500):
        coords = [rng.randrange(-6, 7) for _ in range(8)]
        s1 = (P(coords[0], coords[1]), P(coords[2], coords[3]))
        s2 = (P(coords[4], coords[5]), P(coords[6], coords[7]))
        if s1[0] == s1[1] or s2[0] == s2[1]:
            continue  # _conflict_raw takes segments with distinct endpoints
        assert conflict(s1, s2) == conflict(s2, s1)


def test_find_collinear_triple_examples():
    assert find_collinear_triple([P(0, 0), P(1, 1), P(2, 2)]) == (0, 1, 2)
    assert find_collinear_triple([P(0, 0), P(1, 0), P(0, 1)]) is None
    assert find_collinear_triple(parabola_pointset(7)) is None


def test_find_collinear_triple_matches_bruteforce():
    rng = random.Random(3)
    for _ in range(200):
        pts = []
        seen = set()
        while len(pts) < 9:
            cand = (rng.randrange(7), rng.randrange(7))
            if cand not in seen:
                seen.add(cand)
                pts.append(P(*cand))
        assert find_collinear_triple(pts) == brute_collinear_triple(pts)


def test_find_collinear_triple_rejects_duplicates():
    with pytest.raises(DuplicatePointError):
        find_collinear_triple([P(0, 0), P(1, 1), P(0, 0)])


def test_orient_zero_iff_triple_reported():
    rng = random.Random(7)
    for _ in range(300):
        a, b, c = (P(rng.randrange(-5, 6), rng.randrange(-5, 6)) for _ in range(3))
        if len({(p.x, p.y) for p in (a, b, c)}) < 3:
            continue
        zero = orient(a, b, c) == 0
        assert zero == (find_collinear_triple([a, b, c]) == (0, 1, 2))


def hull_bruteforce_membership(points):
    """A point is on the hull iff some closed halfplane through it contains
    every other point (cubic check over directions from the point)."""
    n = len(points)
    on_hull = set()
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            side = [orient(points[i], points[j], points[k]) for k in range(n) if k not in (i, j)]
            if all(s >= 0 for s in side) or all(s <= 0 for s in side):
                on_hull.add(i)
                break
    return on_hull


def test_convex_hull_square():
    hull = convex_hull([P(0, 0), P(1, 0), P(1, 1), P(0, 1)])
    assert len(hull) == 4
    # counterclockwise: every consecutive triple turns left
    pts = [P(0, 0), P(1, 0), P(1, 1), P(0, 1)]
    for i in range(4):
        assert orient(pts[hull[i]], pts[hull[(i + 1) % 4]], pts[hull[(i + 2) % 4]]) == 1


def test_convex_hull_drops_interior():
    assert sorted(convex_hull([P(0, 0), P(4, 0), P(0, 4), P(1, 1)])) == [0, 1, 2]


@pytest.mark.parametrize("k", [0, 1, 2])
def test_convex_hull_of_fewer_than_three_points_is_a_package_error(k):
    with pytest.raises(InvalidInstanceError, match="at least 3 points"):
        convex_hull([P(i, i * i) for i in range(k)])


def test_convex_hull_matches_halfplane_oracle():
    pts = parabola_pointset(5)
    assert set(convex_hull(pts)) == hull_bruteforce_membership(pts)
    rng = random.Random(4)
    for _ in range(50):
        pts = []
        seen = set()
        while len(pts) < 10:
            cand = (rng.randrange(30), rng.randrange(30))
            if cand not in seen:
                seen.add(cand)
                pts.append(P(*cand))
        if find_collinear_triple(pts) is not None:
            continue
        assert set(convex_hull(pts)) == hull_bruteforce_membership(pts)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-20, 20), st.integers(-20, 20)), max_size=30),
    st.integers(-20, 20),
    st.integers(0, 30),
    st.integers(0, 3),
    st.integers(0, 2),
)
def test_parabola_lift_leaves_no_collinear_triple(coords, row, row_len, mult, extra):
    # Any base points, repeats allowed, plus a fully collinear row; any
    # prime p >= the point count and any scale that p divides.
    xs = [x for x, _ in coords] + list(range(row_len))
    ys = [y for _, y in coords] + [row] * row_len
    p = _next_prime(len(xs))
    for _ in range(extra):
        p = _next_prime(p + 1)
    scale = mult * p
    lifted = list(map(P, *_parabola_lift(xs, ys, scale, p)))
    assert find_collinear_triple(lifted) is None
    assert lifted == [P(scale * x + i, scale * y + i * i % p) for i, (x, y) in enumerate(zip(xs, ys))]


def test_next_prime():
    assert [_next_prime(m) for m in (0, 1, 2, 3, 4, 14, 4507, 4508)] == [2, 2, 2, 3, 5, 17, 4507, 4513]
