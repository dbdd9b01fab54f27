"""Five paths on five vertices: the impossibility certificate.

A path set is read as one covered-pair mask over the 15 vertex-disjoint
K5 edge pairs, the pairs that must not cross.  The mask is the one input
of the verdict over the three order types of five points in general
position and of an exhaustive search over placements of the five
vertices on grids up to EXHAUSTIVE_GRID_LIMIT.  Above it nothing is
searched: a path set that no order type carries has no placement, and one
that some order type carries is placed at the verdict's witness, whose
points all lie in [0, 2] x [0, 6], transposed on a grid less than 7 high.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import CoordinateBudgetError, InvalidInstanceError, SearchBudgetError
from .geometry import COORD_LIMIT, GridPoint, _conflict_raw
from .graphs import PathOrder

#: Largest square grid the five-point search will exhaust.
EXHAUSTIVE_GRID_LIMIT = 8

#: The five 5-vertex paths no point placement can satisfy simultaneously.
FIVE_PATHS = ("12345", "13542", "25134", "32415", "35214")


def path_from_digits(digits: str) -> PathOrder:
    """Parse compact 1-based path notation such as '13542'."""
    if not all("1" <= ch <= "9" for ch in digits):
        raise InvalidInstanceError(f"path digits must be 1 to 9, got {digits!r}")
    return PathOrder([int(ch) - 1 for ch in digits])


#: The 15 vertex-disjoint edge pairs of K5, each edge sorted, in
#: lexicographic order: bit k of a covered-pair mask stands for the k-th.
_PAIRS = tuple(
    (e1, e2)
    for e1, e2 in itertools.combinations(itertools.combinations(range(5), 2), 2)
    if not set(e1) & set(e2)
)

#: The bit of each pair of :data:`_PAIRS`, keyed by every (w, x, y, z)
#: whose edges wx and yz are the pair's, in either order and direction.
_PAIR_BITS = {
    quad: 1 << k
    for k, ((a, b), (c, d)) in enumerate(_PAIRS)
    for quad in itertools.permutations((a, b, c, d))
    if {quad[0], quad[1]} in ({a, b}, {c, d})
}


def _covered_pairs(paths: Sequence[PathOrder]) -> int:
    """The covered-pair mask of 5-vertex paths: bit k set when some path
    holds both edges of the k-th pair of :data:`_PAIRS`.  Edges of a path
    share a vertex exactly when they are neighbours on it, so the path
    a-b-c-d-e holds the disjoint pairs ab / cd, ab / de and bc / de."""
    need = 0
    for p in paths:
        a, b, c, d, e = p.order
        need |= _PAIR_BITS[a, b, c, d] | _PAIR_BITS[a, b, d, e] | _PAIR_BITS[b, c, d, e]
    return need


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
    masks = [_covered_pairs([p]) for p in paths]
    covered = [[i for i, mask in enumerate(masks) if mask >> k & 1] for k in range(len(_PAIRS))]
    return PairCoverage(pairs=list(_PAIRS), covered_by=covered)


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
    j on the line through them (both 0 when i == j).

    All the pairs i < j on one line share its masks, so they are computed
    once per line, a direction at a time.  Take the line's primitive
    direction (dx, dy) with dx > 0, or dx == 0 < dy, which is that of
    i -> j for every i < j on it, as the points are listed by x and then y.
    Point k is left of, on or right of i -> j as f(k) = dx * y_k - dy * x_k
    is above, at or below f(i): the lines of one direction are the levels
    of f, and the points left of a line are those on the higher levels.
    """
    pts = _grid_points(w, h)
    count = len(pts)
    full = (1 << count) - 1
    left = [[0] * count for _ in range(count)]
    col = [[0] * count for _ in range(count)]
    for dx in range(w):
        for dy in range(1 - h, h):
            if math.gcd(dx, dy) != 1 or dx == 0 and dy < 0:
                continue
            levels: dict[int, list[int]] = {}
            for k, (x, y) in enumerate(pts):
                levels.setdefault(dx * y - dy * x, []).append(k)
            above = 0
            for f in sorted(levels, reverse=True):
                line = levels[f]
                on_line = sum(1 << k for k in line)
                for i, j in itertools.combinations(line, 2):
                    left[i][j] = above
                    left[j][i] = full ^ above ^ on_line
                    col[i][j] = col[j][i] = on_line ^ (1 << i) ^ (1 << j)
                above |= on_line
    return left, col


def _shadow_table(left: list[list[int]], count: int) -> list[list[list[int]]]:
    """``table[a][c][d]`` is the shadow of segment c-d seen from a, the
    points x for which segment a-x properly crosses segment c-d, over the
    ``count`` grid points: ``count**3`` entries.  It is exact when a, c, d
    are not collinear, the only triples the search looks up, and x lies on
    none of the three lines through two of them.

    The segments cross properly iff c and d lie strictly on opposite sides
    of line ax and a and x strictly on opposite sides of line cd.  The
    first holds iff x is left of exactly one of the lines a -> c and
    a -> d, the double wedge ``left[a][c] ^ left[a][d]`` at a between
    those rays; the second iff x is on the open side of line cd away from
    a, ``left[d][c]`` when a is left of c -> d and ``left[c][d]`` when not.

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
        left_a = left[a]
        bit_a = 1 << a
        for c in span:
            # the lookups of a and c hoisted out of the loop over d
            left_ac = left_a[c]
            left_c = left[c]
            row_c = rows[c]
            for d in range(c + 1, count):
                wedge = left_ac ^ left_a[d]
                if left_c[d] & bit_a:
                    mask = wedge & left[d][c]
                else:
                    mask = wedge & left_c[d]
                row_c[d] = rows[d][c] = share(mask, mask)
        table.append(rows)
    return table


#: A grid's side masks, ``[i][j]`` over pairs of its points, and its
#: shadow table, ``[a][c][d]`` over triples, as :func:`_grid_tables` keeps them.
_PairMasks = tuple[tuple[int, ...], ...]
_TripleMasks = tuple[_PairMasks, ...]


@functools.lru_cache(maxsize=4)
def _grid_tables(w: int, h: int) -> tuple[_PairMasks, _PairMasks, _TripleMasks]:
    """``(left, col, table)`` of the w x h grid: :func:`_side_masks` and
    :func:`_shadow_table` as nested tuples, so that no caller can change
    the copy that every search of the grid shares.

    They depend on the grid alone, so they are built on the first search
    of the grid, not at import, and kept for the next ones; a process that
    searches more than four grids rebuilds the least recently used.  The
    cache holds at most the four largest grids the search exhausts,
    8 x 8, 8 x 7, 7 x 8 and 7 x 7: about 8.1 MiB, 9.1 MiB at the peak of
    building the last (tracemalloc, CPython 3.11.7).  An 8 x 8 entry takes
    2.9 MiB, a 5 x 5 one 0.2 MiB.
    """
    left, col = _side_masks(w, h)
    table = _shadow_table(left, w * h)
    return (
        tuple(map(tuple, left)),
        tuple(map(tuple, col)),
        tuple(tuple(map(tuple, rows)) for rows in table),
    )


#: One integer point set per order type of five points in general position:
#: hull sizes 5, 4 and 3, hull vertices first and counterclockwise, every
#: point in [0, 2] x [0, 6].
_ORDER_TYPES = (
    ((0, 0), (2, 0), (2, 1), (1, 3), (0, 1)),
    ((0, 1), (2, 0), (2, 4), (0, 5), (1, 2)),
    ((0, 0), (2, 0), (0, 6), (1, 1), (1, 2)),
)


@functools.cache
def _labeling_masks() -> list[tuple[tuple[tuple[int, int], ...], int]]:
    """Every labeling of every :data:`_ORDER_TYPES` representative, as its
    points (vertex i at the i-th) and the mask of the :data:`_PAIRS`
    whose segments ``_conflict_raw`` says cross.  360 entries, built once
    per process on first use."""
    table = []
    for rep in _ORDER_TYPES:
        for pts in itertools.permutations(rep):
            mask = 0
            for k, ((a, b), (c, d)) in enumerate(_PAIRS):
                if _conflict_raw(*pts[a], *pts[b], *pts[c], *pts[d]):
                    mask |= 1 << k
            table.append((pts, mask))
    return table


def _order_type_witness(need: int) -> Optional[list[tuple[int, int]]]:
    """The points of the first labeling in :func:`_labeling_masks` on which
    no pair of the covered-pair mask ``need`` crosses, or None when no set
    of five points in general position has such a labeling.

    None is a proof over every such point set, in two steps.

    1. The three representatives cover every order type.  The hull of five
       points in general position has 5, 4 or 3 vertices; label them
       counterclockwise.  An inner point lies left of every hull edge, and
       hull vertices keep their hull order, so only triples that hold an
       inner point and two hull vertices that are not neighbours, or two
       inner points, are left open.  Hull 5 has none.  Hull 4, hull
       a, b, c, d around the inner point e: the diagonals ac and bd cut the
       hull into four triangles, one on each hull edge, and e lies in one;
       rotating the labels puts it on ab, which fixes ace and bde.  Hull 3,
       inner points d and e: line de leaves one hull vertex alone on its
       side; starting the labels there and naming d and e so that it lies
       left of d -> e fixes ade, bde and cde.  So each hull size is one
       sign vector up to relabeling.
    2. For four points no three collinear all four orientations in
       ``_conflict_raw`` are nonzero, so on a disjoint edge pair it reports
       exactly a proper crossing, which those signs alone decide.  A point
       set therefore has the crossing mask of the representative of its
       order type under the matching labeling.
    """
    for pts, mask in _labeling_masks():
        if not mask & need:
            return list(pts)
    return None


def _search_grid(w: int, h: int, need: int) -> tuple[Optional[list[int]], int]:
    """Depth-first search over placements of vertices 0..4 on distinct
    points of the w x h grid, points tried in ascending index order and
    vertex 0 confined to :func:`_fundamental_domain`.

    ``need`` is a covered-pair mask, whose pairs must not cross.  Returns
    the first placement (point indices) with no three points collinear and
    no such pair in conflict, or None, and the number of vertex-4
    placements a point-by-point search looks at.

    Vertex ``lvl`` may take any point outside a forbidden mask: the placed
    points, the lines through two placed points, and for each pair of
    ``need`` whose edges are (a, lvl) and (c, d), lvl its largest vertex,
    the shadow of cd seen from a.
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

    The collinearity masks and the shadows, derived in :func:`_shadow_table`,
    are looked up in the tables of :func:`_grid_tables`, built once per
    process per grid.  While the loop of level ``lvl`` tries its
    candidates, the points of vertices 0..lvl-1 stay where they are; only
    vertex lvl moves.  So a shadow of the next level whose three vertices
    all lie below lvl is the same for every candidate: it is ORed once,
    before the loop, and only the shadows that involve vertex lvl are
    looked up per candidate.

    When :func:`_order_type_witness` is None the level-3 loop does not
    run.  By the free-mask argument above, every point the loop would give
    vertex 4 would complete five points in general position on which no
    pair of ``need`` crosses, and there are none.  So each
    vertex-3 candidate leaves vertex 4 no free point and adds N - 4 to the
    count, and level 2 adds N - 4 times the number of its free points
    instead: the same count, and the same None.
    """
    _, col, table = _grid_tables(w, h)
    count = w * h
    full = (1 << count) - 1
    # Each pair as (a, c, d), its largest vertex b's neighbour a and the
    # other edge, filed under level b - 1, whose candidates forbid b's
    # points, and split by whether it involves vertex b - 1.
    fixed_checks: list[list[tuple[int, int, int]]] = [[] for _ in range(4)]
    moving_checks: list[list[tuple[int, int, int]]] = [[] for _ in range(4)]
    for k, ((a, b), (c, d)) in enumerate(_PAIRS):
        if need >> k & 1:
            if b < d:
                a, b, c, d = c, d, a, b
            checks = moving_checks if b - 1 in (a, c, d) else fixed_checks
            checks[b - 1].append((a, c, d))
    # the deepest level whose candidates are placed one at a time
    deepest = 2 if _order_type_witness(need) is None else 3
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
            if lvl < deepest:
                if dfs(lvl + 1, next_free, now_blocked):
                    return True
            elif lvl == 2:
                checked += (count - 4) * next_free.bit_count()
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
    # dfs holds itself through its closure; clearing it frees the placement
    # and check lists on return rather than at the next garbage collection,
    # and drops the closure's hold on the grid tables, which would keep
    # them alive after the cache evicts them
    del dfs
    return (list(placement) if found else None), checked


def exhaustive_five_point_check(
    grid_extent: int | tuple[int, int],
    paths: Sequence[PathOrder],
    samples: Optional[int] = None,
) -> FivePointSearchResult:
    """Search placements of the 5 vertices on the grid, no 3 collinear,
    for one where every given path is crossing-free.

    Returns the first such counterexample found, or None if every valid
    placement forces a crossing in some path.  Grids up to extent 8 are
    exhausted by :func:`_search_grid`, which keeps the candidates of each
    vertex as a bitmask built from the grid's collinearity masks and
    shadow table, built once per process per grid, and does not place
    vertex 3 when no order type carries the paths; ``placements_checked``
    counts the vertex-4 placements a point-by-point search would look at.
    Larger grids require ``samples``, and nothing is searched: the verdict
    of :func:`_order_type_witness` decides.  A grid with a side below 3,
    which holds no five points in general position, is rejected, and so
    is one with a side above COORD_LIMIT + 1 in magnitude, whose points
    leave the coordinate budget, a ``samples`` count below 1 or above
    COORD_LIMIT, or one given for a grid that is exhausted.  First of
    all, a tuple grid must be a pair, and each side and a given
    ``samples`` an exact ``int``, so that the rest compare ints.

    Above grid 8, a path set that no order type carries has no placement
    on any grid: every placement with no three collinear is five points
    in general position, whose crossing mask is, by step 2 of the
    witness's proof, that of some labeling of its order type's
    representative, and that labeling would be a witness.  So the result
    is no counterexample, with ``samples`` placements checked.  A set
    that some order type carries is placed at the witness, with
    ``samples`` placements checked too.  Its points lie in [0, 2] x
    [0, 6], and transposing them keeps their crossings and collinear
    triples.  A grid that is not exhausted has one side at least 3 and
    the other at least 9: when h >= 7 the points fit as they are, and
    when not, w >= 9 and they fit transposed.
    """
    if isinstance(grid_extent, tuple):
        if len(grid_extent) != 2:
            raise InvalidInstanceError("a tuple grid must be a (width, height) pair")
        w, h = grid_extent
    else:
        w = h = grid_extent
    # the refusals name types, not values, which may be too long to format
    if type(w) is not int or type(h) is not int:
        sides = f"{type(w).__name__} x {type(h).__name__}"
        raise InvalidInstanceError(f"grid sides must be integers, got {sides}")
    if samples is not None and type(samples) is not int:
        raise InvalidInstanceError(f"sample count must be an integer, got {type(samples).__name__}")
    if max(abs(w), abs(h)) > COORD_LIMIT + 1:
        # coordinates run from 0 to the side minus one; the message leaves
        # the side out, which may have too many digits to format, and comes
        # first so that the next one formats no such side either
        raise CoordinateBudgetError(
            "a grid side over 2^40 + 1 in magnitude is outside the coordinate "
            f"budget 2^40; sides up to {COORD_LIMIT + 1} fit"
        )
    if min(w, h) < 3:
        # every point lies on one of at most two lines along the long side,
        # and five points on two lines put three on one: there is no
        # placement, and a verdict would claim what nothing checked
        raise InvalidInstanceError(
            f"grid {w}x{h} holds no five points with no three collinear; "
            f"both sides must be 3 or more"
        )
    if samples is not None and samples < 1:
        # a verdict after no placements would claim what nothing checked
        raise InvalidInstanceError("sample count must be positive")
    if samples is not None and samples > COORD_LIMIT:
        # the count is reported, not drawn, for a set no order type carries
        raise InvalidInstanceError(
            f"sample count over the cap 2^40; counts up to {COORD_LIMIT} are probed"
        )
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

    need = _covered_pairs(paths)
    if exhaustive:
        placement, checked = _search_grid(w, h, need)
        pts = _grid_points(w, h)
        found = None if placement is None else [pts[pt] for pt in placement]
    else:
        # nothing is searched: see the docstring
        found, checked = _order_type_witness(need), samples
        if found is not None and h < 7:
            found = [(y, x) for x, y in found]
    return FivePointSearchResult(
        counterexample=None if found is None else [GridPoint(*p) for p in found],
        placements_checked=checked,
        exhaustive=exhaustive,
        grid=(w, h),
    )
