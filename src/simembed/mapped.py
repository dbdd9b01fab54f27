"""Embedders for instances whose vertex mapping is given.

Two paths go straight onto an n x n grid, caterpillars go through the
two-path layout plus a mod-p parabola lift that breaks all collinearities,
and a path/caterpillar pair uses the doubled-column layout with right
shifts.
"""

from __future__ import annotations

from .errors import (
    CoordinateBudgetError,
    InternalInvariantError,
    InvalidInstanceError,
)
from .geometry import (
    COORD_LIMIT,
    GridPoint,
    _check_coord_budget,
    _check_distinct,
    _next_prime,
    _parabola_lift,
    _translate_to_origin,
)
from .graphs import Caterpillar, PathOrder, SimultaneousEmbedding, caterpillar_to_path


def embed_two_paths(p1: PathOrder, p2: PathOrder) -> SimultaneousEmbedding:
    """Place vertex v at (position in p1, position in p2), 1-based.

    Each layer is monotone in one axis, so neither path can self-cross;
    the grid is exactly n x n, checked against COORD_LIMIT before any work.
    """
    n = p1.n
    if p2.n != n:
        raise InvalidInstanceError("paths must share one vertex set")
    if n < 1:
        raise InvalidInstanceError("instance needs at least one vertex")
    _check_two_path_budget(n)
    pos1 = [0] * n
    pos2 = [0] * n
    for i, v in enumerate(p1.order):
        pos1[v] = i + 1
    for i, v in enumerate(p2.order):
        pos2[v] = i + 1
    return SimultaneousEmbedding(xs=pos1, ys=pos2)


def _check_two_path_budget(n: int) -> None:
    # the CLI's gen runs it too, so it writes no instance that embed refuses
    _check_coord_budget(n, lambda k: k, "a two-path drawing")


def refine_general_position(
    points: list[GridPoint], base_extent: int
) -> list[GridPoint]:
    """Rescale a small-grid point set so no three points are collinear.

    Point i goes to p * base_i + (i, i^2 mod p), with p the smallest prime
    >= the point count: the mod-p parabola lift of
    :func:`geometry._parabola_lift`, so no three outputs are collinear.
    Every offset lies in [0, p - 1], so base x values a < b give
    p*a + (p - 1) < p*b and points keep their strict x order, and likewise
    their strict y order.  Coordinates reach p * base extent + p - 1,
    which is checked against COORD_LIMIT before any work.  A base point
    outside the extent raises InvalidInstanceError and two that coincide
    raise DuplicatePointError, as in :func:`geometry.convex_hull`.
    """
    xs, ys = [p.x for p in points], [p.y for p in points]
    for i, (x, y) in enumerate(zip(xs, ys)):
        if abs(x) > base_extent or abs(y) > base_extent:
            raise InvalidInstanceError(
                f"point {points[i]} lies outside the declared base extent {base_extent}"
            )
    _check_distinct(xs, ys)
    prime = _next_prime(len(points))
    extent = prime * base_extent + prime - 1
    if extent > COORD_LIMIT:
        raise CoordinateBudgetError(
            f"general-position refinement of {len(points)} points needs coordinates "
            f"up to {extent}, over the budget 2^40; base extents up to "
            f"{(COORD_LIMIT - prime + 1) // prime} fit"
        )
    return list(map(GridPoint, *_parabola_lift(xs, ys, prime, prime)))


def _two_caterpillar_extent(n: int) -> int:
    # the largest coordinate refine_general_position gives n points of
    # base extent n
    prime = _next_prime(n)
    return prime * n + prime - 1


def _check_two_caterpillar_budget(n: int) -> None:
    # the CLI's gen runs it too, so it writes no instance that embed refuses
    _check_coord_budget(n, _two_caterpillar_extent, "a two-caterpillar drawing")


def embed_two_caterpillars(c1: Caterpillar, c2: Caterpillar) -> SimultaneousEmbedding:
    """Linearize both caterpillars, lay the two paths out on n x n, then
    lift that permutation grid onto the mod-p parabola as
    :func:`refine_general_position` would (its base points are distinct and
    inside [1, n]^2); the caterpillar edges are drawn on those points.
    Fits p*n x p*n for p the smallest prime >= n, and p < 2n for n >= 2
    (Bertrand's postulate).  The extent p*n + p - 1 is checked against
    COORD_LIMIT before the caterpillars are linearized."""
    n = c1.n
    if c2.n != n:
        raise InvalidInstanceError("caterpillars must share one vertex set")
    _check_two_caterpillar_budget(n)
    p1 = caterpillar_to_path(c1)
    p2 = caterpillar_to_path(c2)
    base = embed_two_paths(p1, p2)
    prime = _next_prime(n)
    xs, ys = _translate_to_origin(*_parabola_lift(base.xs, base.ys, prime, prime))
    return SimultaneousEmbedding(xs=xs, ys=ys)


def _check_path_caterpillar_budget(n: int) -> None:
    # the CLI's gen runs it too, so it writes no instance that embed refuses
    _check_coord_budget(n, lambda k: 2 * k, "a path-caterpillar drawing")


def embed_path_caterpillar(
    p: PathOrder, cat: Caterpillar
) -> tuple[SimultaneousEmbedding, int]:
    """Embed a path and a caterpillar on at most (2n - k) x n, k = leg count.

    Spine vertex number i starts in column 2i - 1, its legs in column 2i;
    rows follow the path order.  Marching along the spine, whenever a leg
    of the current spine vertex is collinear with the spine edge ahead,
    that edge's far endpoint and everything right of it shift one column
    right.  Returns the embedding and the number of shifts performed.
    The width stays below 2n, which is checked against COORD_LIMIT before
    any work.
    """
    n = p.n
    if cat.n != n:
        raise InvalidInstanceError("path and caterpillar must share one vertex set")
    if n < 1:
        raise InvalidInstanceError("instance needs at least one vertex")
    _check_path_caterpillar_budget(n)
    ys = [0] * n
    for i, v in enumerate(p.order):
        ys[v] = i + 1
    # A shift moves b and everything right of it, which is every later
    # spine vertex with its legs, so a running column places each spine
    # vertex once, after all the shifts made before it.
    xs = [0] * n
    total_legs = cat.leg_count()
    shifts = 0
    x = 1
    for i, a in enumerate(cat.spine):
        xs[a] = x
        for leg in cat.legs[i]:
            xs[leg] = x + 1
        x += 2
        if i + 1 == len(cat.spine):
            break
        b = cat.spine[i + 1]
        while any(
            (x - xs[a]) * (ys[leg] - ys[a]) == (ys[b] - ys[a]) * (xs[leg] - xs[a])
            for leg in cat.legs[i]
        ):
            x += 1
            shifts += 1
            if shifts > total_legs:
                raise InternalInvariantError("shift count exceeded the leg count")

    return SimultaneousEmbedding(xs=xs, ys=ys), shifts
