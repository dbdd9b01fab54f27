"""Embedders for instances whose vertex mapping is given.

Two paths go straight onto an n x n grid, caterpillars go through the
two-path layout plus a mod-p parabola lift that breaks all collinearities,
and a path/caterpillar pair uses the doubled-column layout with right
shifts.  The five-path machinery provides the impossibility certificate:
pair coverage plus an exhaustive search over small grids.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import (
    CoordinateBudgetError,
    InternalInvariantError,
    InvalidInstanceError,
    SearchBudgetError,
)
from .geometry import (
    COORD_LIMIT,
    GridPoint,
    _check_coord_budget,
    _conflict_raw,
    _next_prime,
    _parabola_lift,
    _translate_to_origin,
)
from .graphs import Caterpillar, PathOrder, SimultaneousEmbedding, caterpillar_to_path

#: Largest square grid the five-point search will exhaust.
EXHAUSTIVE_GRID_LIMIT = 8


def embed_two_paths(p1: PathOrder, p2: PathOrder) -> SimultaneousEmbedding:
    """Place vertex v at (position in p1, position in p2), 1-based.

    Each layer is monotone in one axis, so neither path can self-cross;
    the grid is exactly n x n, checked against COORD_LIMIT before any work.
    """
    n = p1.n
    if p2.n != n:
        raise InvalidInstanceError("paths must share one vertex set")
    _check_two_path_budget(n)
    pos1 = [0] * n
    pos2 = [0] * n
    for i, v in enumerate(p1.order):
        pos1[v] = i + 1
    for i, v in enumerate(p2.order):
        pos2[v] = i + 1
    coords = [GridPoint(pos1[v], pos2[v]) for v in range(n)]
    return SimultaneousEmbedding(
        coords=coords, layers=[p1.edges(), p2.edges()], width=n, height=n
    )


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
    which is checked against COORD_LIMIT before any work.
    """
    for p in points:
        if abs(p.x) > base_extent or abs(p.y) > base_extent:
            raise InvalidInstanceError(
                f"point {p} lies outside the declared base extent {base_extent}"
            )
    seen = set()
    for p in points:
        if (p.x, p.y) in seen:
            raise InvalidInstanceError(f"duplicate base point {p}")
        seen.add((p.x, p.y))
    prime = _next_prime(len(points))
    extent = prime * base_extent + prime - 1
    if extent > COORD_LIMIT:
        raise CoordinateBudgetError(
            f"general-position refinement of {len(points)} points needs coordinates "
            f"up to {extent}, over the budget 2^40; base extents up to "
            f"{(COORD_LIMIT - prime + 1) // prime} fit"
        )
    return _parabola_lift(points, prime, prime)


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
    inside [1, n]^2) and swap the path edges for the caterpillar edges.
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
    coords, width, height = _translate_to_origin(_parabola_lift(base.coords, prime, prime))
    return SimultaneousEmbedding(
        coords=coords, layers=[c1.edges(), c2.edges()], width=width, height=height
    )


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

    coords = [GridPoint(xs[v], ys[v]) for v in range(n)]
    emb = SimultaneousEmbedding(
        coords=coords,
        layers=[p.edges(), cat.edges()],
        width=max(xs),
        height=n,
    )
    return emb, shifts


# ---------------------------------------------------------------------------
# Five paths on five vertices
# ---------------------------------------------------------------------------

#: The five 5-vertex paths no point placement can satisfy simultaneously.
FIVE_PATHS = ("12345", "13542", "25134", "32415", "35214")


def path_from_digits(digits: str) -> PathOrder:
    """Parse compact 1-based path notation such as '13542'."""
    if not all("1" <= ch <= "9" for ch in digits):
        raise InvalidInstanceError(f"path digits must be 1 to 9, got {digits!r}")
    return PathOrder([int(ch) - 1 for ch in digits])


@dataclass
class PairCoverage:
    """Which paths contain both edges of each vertex-disjoint K5 edge pair."""

    pairs: list[tuple[tuple[int, int], tuple[int, int]]]
    covered_by: list[list[int]]

    @property
    def all_covered(self) -> bool:
        return all(self.covered_by)

    def per_path_counts(self, path_count: int) -> list[int]:
        counts = [0] * path_count
        for paths in self.covered_by:
            for idx in paths:
                counts[idx] += 1
        return counts

    @staticmethod
    def label(pair: tuple[tuple[int, int], tuple[int, int]]) -> str:
        (a, b), (c, d) = pair
        return f"{a + 1}{b + 1}-{c + 1}{d + 1}"


def five_path_pair_coverage(paths: Sequence[PathOrder]) -> PairCoverage:
    """For each disjoint K5 edge pair, list the paths containing both edges."""
    for p in paths:
        if p.n != 5:
            raise InvalidInstanceError("pair coverage is defined for 5-vertex paths")
    edge_sets = [
        {tuple(sorted(e)) for e in p.edges()} for p in paths
    ]
    # the 15 vertex-disjoint edge pairs of K5, in lexicographic order
    k5_edges = itertools.combinations(range(5), 2)
    pairs = [(e1, e2) for e1, e2 in itertools.combinations(k5_edges, 2) if not set(e1) & set(e2)]
    covered = [
        [i for i, es in enumerate(edge_sets) if e1 in es and e2 in es]
        for e1, e2 in pairs
    ]
    return PairCoverage(pairs=pairs, covered_by=covered)


@dataclass
class FivePointSearchResult:
    """Outcome of scanning placements of 5 labeled vertices on a grid."""

    counterexample: Optional[list[GridPoint]]
    placements_checked: int
    exhaustive: bool
    grid: tuple[int, int]


def _grid_points(w: int, h: int) -> list[tuple[int, int]]:
    return [(x, y) for x in range(w) for y in range(h)]


def _fundamental_domain(w: int, h: int) -> list[int]:
    # Crossing structure is invariant under the grid's reflections (and the
    # diagonal when square), so vertex 0 may be confined to one fundamental
    # domain without losing any placement class.
    pts = _grid_points(w, h)
    out = []
    for i, (x, y) in enumerate(pts):
        if 2 * x > w - 1 or 2 * y > h - 1:
            continue
        if w == h and y > x:
            continue
        out.append(i)
    return out


def _side_masks(w: int, h: int) -> tuple[list[list[int]], list[list[int]]]:
    """Bitmasks over the w x h grid points, bit k standing for point k of
    :func:`_grid_points`: ``left[i][j]`` holds the points strictly left of
    the directed line i -> j and ``col[i][j]`` the points other than i and
    j on the line through them (both 0 when i == j)."""
    pts = _grid_points(w, h)
    count = len(pts)
    full = (1 << count) - 1
    left = [[0] * count for _ in range(count)]
    col = [[0] * count for _ in range(count)]
    for i, (ax, ay) in enumerate(pts):
        for j in range(i + 1, count):
            dx = pts[j][0] - ax
            dy = pts[j][1] - ay
            on_left = on_line = 0
            for k, (x, y) in enumerate(pts):
                o = dx * (y - ay) - dy * (x - ax)
                if o > 0:
                    on_left |= 1 << k
                elif o == 0:
                    on_line |= 1 << k
            left[i][j] = on_left
            left[j][i] = full ^ on_left ^ on_line
            col[i][j] = col[j][i] = on_line ^ (1 << i) ^ (1 << j)
    return left, col


def _shadow(left: list[list[int]], a: int, c: int, d: int) -> int:
    """The points x for which segment a-x properly crosses segment c-d.

    The segments cross properly iff c and d lie strictly on opposite sides
    of line ax and a and x strictly on opposite sides of line cd.  The
    first holds iff x is left of exactly one of the lines a -> c and
    a -> d, the double wedge at a between those rays; the second iff x is
    on the open side of line cd away from a.  Exact for a, c, d not
    collinear and x on none of the three lines through two of them.
    """
    wedge = left[a][c] ^ left[a][d]
    if left[c][d] >> a & 1:
        return wedge & left[d][c]
    return wedge & left[c][d]


def _shadow_table(left: list[list[int]], count: int) -> list[list[list[int]]]:
    """``table[a][c][d]`` = :func:`_shadow` ``(left, a, c, d)`` for every
    triple of the ``count`` grid points that is not collinear, the only
    triples the search looks up: ``count**3`` entries.

    A shadow is symmetric in c and d: neither the double wedge between the
    rays a -> c and a -> d nor the side of line cd away from a depends on
    their order.  So each pair c < d is computed once and stored at [c][d]
    and [d][c].  Equal masks share one int object (717 distinct masks
    among the 15 625 entries at grid 5), so the table costs little more
    than its list slots.
    """
    span = range(count)
    share = {}.setdefault
    table = []
    for a in span:
        rows = [[0] * count for _ in span]
        for c in span:
            for d in range(c + 1, count):
                mask = _shadow(left, a, c, d)
                rows[c][d] = rows[d][c] = share(mask, mask)
        table.append(rows)
    return table


def _cross_checks(paths: Sequence[PathOrder]) -> list[list[tuple[int, int, int, int]]]:
    """The same-path disjoint edge pairs (a, b) / (c, d), each sorted,
    bucketed by their largest vertex, so the search checks each pair as soon
    as its last endpoint is placed."""
    cross_checks: list[list[tuple[int, int, int, int]]] = [[] for _ in range(5)]
    for p in paths:
        edges = [tuple(sorted(e)) for e in p.edges()]
        for e1, e2 in itertools.combinations(edges, 2):
            if set(e1) & set(e2):
                continue
            level = max(*e1, *e2)
            cross_checks[level].append((*e1, *e2))
    return cross_checks


def _search_grid(
    w: int, h: int, cross_checks: list[list[tuple[int, int, int, int]]]
) -> tuple[Optional[list[int]], int]:
    """Depth-first search over placements of vertices 0..4 on distinct
    points of the w x h grid, points tried in ascending index order and
    vertex 0 confined to :func:`_fundamental_domain`.

    ``cross_checks[lvl]`` holds the same-path disjoint edge pairs
    (a, b) / (c, d), each sorted, whose largest vertex is lvl.  Returns the
    first placement (point indices) with no three points collinear and no
    such pair in conflict, or None, and the number of vertex-4 placements
    a point-by-point search looks at.

    Vertex ``lvl`` may take any point outside a forbidden mask: the placed
    points, the lines through two placed points, and for each pair whose
    edges are (a, lvl) and (c, d) the :func:`_shadow` of cd seen from a.
    The placed points are in general position, because every point on a
    line through two of them was forbidden when it could be taken.  So a
    candidate x off those lines forms with a, c, d four points no three
    collinear.  For such points all four orientations in ``_conflict_raw``
    are nonzero, so its collinear and touching branches never fire and it
    reports exactly a proper crossing of a-x and c-d, which is exactly
    shadow membership.  The free mask therefore holds exactly the
    candidates the per-placement predicates accept, in the same order.
    Vertex 4 is not tried point by point: the lowest free bit is the
    witness, and the count is the number of unplaced points at or below
    it, or all N - 4 when no bit is free.

    The shadows are looked up in :func:`_shadow_table`, built once per
    search.  While the loop of level ``lvl`` tries its candidates, the
    points of vertices 0..lvl-1 stay where they are; only vertex lvl
    moves.  So a shadow of the next level whose three vertices all lie
    below lvl is the same for every candidate: it is ORed once, before the
    loop, and only the shadows that involve vertex lvl are looked up per
    candidate.
    """
    left, col = _side_masks(w, h)
    count = w * h
    full = (1 << count) - 1
    table = _shadow_table(left, count)
    # Each check of level lvl + 1 as (a, c, d): that vertex's neighbour a
    # and the other edge, split by whether it involves vertex lvl.
    fixed_checks: list[list[tuple[int, int, int]]] = []
    moving_checks: list[list[tuple[int, int, int]]] = []
    for lvl, checks in enumerate(cross_checks[1:]):
        shadow_checks = [(a, c, d) if b == lvl + 1 else (c, a, b) for a, b, c, d in checks]
        fixed_checks.append([t for t in shadow_checks if lvl not in t])
        moving_checks.append([t for t in shadow_checks if lvl in t])
    placement = [0] * 5
    checked = 0

    def dfs(lvl: int, free: int, blocked: int) -> bool:
        # free: the candidates for vertex lvl; blocked: the points of
        # vertices 0..lvl-1 and every line through two of them
        nonlocal checked
        fixed = 0
        for a, c, d in fixed_checks[lvl]:
            fixed |= table[placement[a]][placement[c]][placement[d]]
        moving = moving_checks[lvl]
        placed = placement[:lvl]
        while free:
            low = free & -free
            free ^= low
            pt = low.bit_length() - 1
            placement[lvl] = pt
            now_blocked = blocked | low
            col_pt = col[pt]
            for q in placed:
                now_blocked |= col_pt[q]
            forbidden = now_blocked | fixed
            for a, c, d in moving:
                forbidden |= table[placement[a]][placement[c]][placement[d]]
            next_free = full & ~forbidden
            if lvl < 3:
                if dfs(lvl + 1, next_free, now_blocked):
                    return True
            elif next_free:
                low = next_free & -next_free
                placement[4] = low.bit_length() - 1
                below = sum(1 for q in placement[:4] if q < placement[4])
                checked += placement[4] + 1 - below
                return True
            else:
                checked += count - 4
        return False

    found = dfs(0, sum(1 << pt for pt in _fundamental_domain(w, h)), 0)
    # dfs holds itself through its closure; clearing it frees the table on
    # return rather than at the next garbage collection
    del dfs
    return (list(placement) if found else None), checked


def exhaustive_five_point_check(
    grid_extent: int | tuple[int, int],
    paths: Sequence[PathOrder],
    seed: Optional[int] = None,
    samples: Optional[int] = None,
) -> FivePointSearchResult:
    """Search placements of the 5 vertices on the grid, no 3 collinear,
    for one where every given path is crossing-free.

    Returns the first such counterexample found, or None if every valid
    placement forces a crossing in some path.  Grids up to extent 8 are
    exhausted by :func:`_search_grid`, which keeps the candidates of each
    vertex as a bitmask built from per-grid side and collinearity masks
    and a per-search shadow table; ``placements_checked`` counts the
    vertex-4 placements a point-by-point search would look at.  Larger
    grids require ``samples`` and are randomly probed with the seeded
    generator, each draw tested level by level on coordinates.  A grid
    with a side below 3, which holds no five points in general position,
    is rejected, and so is one with a side above COORD_LIMIT + 1, whose
    points leave the coordinate budget, a ``samples`` count below 1 or one
    given for a grid that is exhausted.
    """
    if isinstance(grid_extent, tuple):
        w, h = grid_extent
    else:
        w = h = grid_extent
    if w < 1 or h < 1:
        raise InvalidInstanceError("grid extent must be positive")
    if min(w, h) < 3:
        # every point lies on one of at most two lines along the long side,
        # and five points on two lines put three on one: there is no
        # placement, and a verdict would claim what nothing checked
        raise InvalidInstanceError(
            f"grid {w}x{h} holds no five points with no three collinear; "
            f"both sides must be 3 or more"
        )
    if max(w, h) > COORD_LIMIT + 1:
        # coordinates run from 0 to the side minus one
        raise CoordinateBudgetError(
            f"grid {w}x{h} needs coordinates up to {max(w, h) - 1}, over the "
            f"coordinate budget 2^40; sides up to {COORD_LIMIT + 1} fit"
        )
    if samples is not None and samples < 1:
        # a verdict after no placements would claim what nothing checked
        raise InvalidInstanceError(f"sample count must be positive, got {samples}")
    for p in paths:
        if p.n != 5:
            raise InvalidInstanceError("the search is defined for 5-vertex paths")
    exhaustive = max(w, h) <= EXHAUSTIVE_GRID_LIMIT
    if exhaustive and samples is not None:
        raise InvalidInstanceError(
            f"a sample count applies only above grid {EXHAUSTIVE_GRID_LIMIT}; "
            f"grid {w}x{h} is searched exhaustively"
        )
    if not exhaustive and samples is None:
        raise SearchBudgetError(
            f"grid {w}x{h} exceeds the exhaustive budget "
            f"({EXHAUSTIVE_GRID_LIMIT}); pass a sample count"
        )

    cross_checks = _cross_checks(paths)
    if exhaustive:
        placement, checked = _search_grid(w, h, cross_checks)
        pts = _grid_points(w, h)
        return FivePointSearchResult(
            counterexample=(
                [GridPoint(*pts[pt]) for pt in placement] if placement is not None else None
            ),
            placements_checked=checked,
            exhaustive=True,
            grid=(w, h),
        )

    tri_checks: list[list[tuple[int, int]]] = [
        [(i, j) for i in range(lvl) for j in range(i + 1, lvl)] for lvl in range(5)
    ]

    # Coordinates of vertices 0..4; vertex lvl and every vertex below it
    # are placed when level_ok(lvl) runs.
    px = [0] * 5
    py = [0] * 5

    def level_ok(lvl: int) -> bool:
        x, y = px[lvl], py[lvl]
        for i, j in tri_checks[lvl]:
            if (px[j] - px[i]) * (y - py[i]) == (py[j] - py[i]) * (x - px[i]):
                return False
        for a, b, c, d in cross_checks[lvl]:
            if _conflict_raw(px[a], py[a], px[b], py[b], px[c], py[c], px[d], py[d]):
                return False
        return True

    rng = random.Random(seed)
    checked = 0
    found = False
    while not found and checked < samples:
        drawn: list[tuple[int, int]] = []
        while len(drawn) < 5:
            cand = (rng.randrange(w), rng.randrange(h))
            if cand not in drawn:
                drawn.append(cand)
        px[:], py[:] = zip(*drawn)
        checked += 1
        found = all(level_ok(lvl) for lvl in range(5))

    return FivePointSearchResult(
        counterexample=[GridPoint(x, y) for x, y in zip(px, py)] if found else None,
        placements_checked=checked,
        exhaustive=False,
        grid=(w, h),
    )
