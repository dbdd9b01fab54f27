"""Exact integer geometry kernel.

Every predicate here is evaluated in exact integer arithmetic; no floating
point appears anywhere, so the answers are never wrong by rounding.  All
operations are pure functions and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import CoordinateBudgetError, DuplicatePointError, InvalidInstanceError

# Largest coordinate magnitude accepted anywhere in the kernel.  Generous
# enough for the largest grids the embedders emit at practical sizes
# (planar layers up to n = 5159, checked before any work), and small enough
# that every intermediate product below fits comfortably in 128 bits.
COORD_LIMIT = 1 << 40


def _largest_within_budget(extent: Callable[[int], int]) -> int:
    """Largest n >= 1 whose ``extent(n)`` stays within COORD_LIMIT, for an
    extent that grows with n; 0 when even n = 1 exceeds it."""
    hi = 1
    while extent(hi) <= COORD_LIMIT:
        hi *= 2
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if extent(mid) <= COORD_LIMIT:
            lo = mid
        else:
            hi = mid
    return lo


def _check_coord_budget(n: int, extent: Callable[[int], int], what: str) -> None:
    """Raise unless ``extent(n)``, the largest coordinate that ``what`` on
    n vertices needs, fits COORD_LIMIT, with a message that names the
    largest n that fits.  ``extent`` must grow with n and be at least n, so
    an n past COORD_LIMIT is refused without evaluating it: an extent that
    looks for a prime near n would take long for n far past the budget."""
    if n > COORD_LIMIT:
        # n is left out, as it may have too many digits to format
        need = "on more than 2^40 vertices is"
    else:
        top = extent(n)
        if top <= COORD_LIMIT:
            return
        need = f"on {n} vertices needs coordinates up to {top},"
    raise CoordinateBudgetError(
        f"{what} {need} over the coordinate budget 2^40; "
        f"at most {_largest_within_budget(extent)} vertices fit"
    )


# Miller-Rabin with the twelve primes up to 37 as bases decides primality
# exactly below 3.18 * 10^23 (Sorenson & Webster, Math. Comp. 2017): far
# past every size that a coordinate budget lets through.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(c: int) -> bool:
    if c < 2:
        return False
    for b in _PRIME_BASES:
        if c % b == 0:
            return c == b
    d, s = c - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _PRIME_BASES:
        x = pow(b, d, c)
        if x == 1 or x == c - 1:
            continue
        for _ in range(s - 1):
            x = x * x % c
            if x == c - 1:
                break
        else:
            return False
    return True


def _next_prime(m: int) -> int:
    """The smallest prime >= max(m, 2), for m below 3.18 * 10^23."""
    c = max(m, 2)
    while not _is_prime(c):
        c += 1
    return c


# A frozen dataclass refuses its own __setattr__; fields are set through
# object's, as its generated __init__ does.
_set_field = object.__setattr__


@dataclass(frozen=True, order=True, init=False)
class GridPoint:
    """An exact lattice point.  Out-of-budget coordinates are rejected."""

    x: int
    y: int

    # Checks the arguments, then sets the fields, in one frame: the
    # generated __init__ would call a __post_init__ as a second one.
    def __init__(self, x: int, y: int) -> None:
        if type(x) is not int or type(y) is not int:
            raise CoordinateBudgetError(f"coordinates must be integers, got ({x!r}, {y!r})")
        if abs(x) > COORD_LIMIT or abs(y) > COORD_LIMIT:
            raise CoordinateBudgetError(
                f"coordinate magnitude exceeds budget 2^40: ({x}, {y})"
            )
        _set_field(self, "x", x)
        _set_field(self, "y", y)


def _parabola_lift(
    xs: list[int], ys: list[int], scale: int, p: int
) -> tuple[list[int], list[int]]:
    """Point i, at (xs[i], ys[i]), goes to scale * (xs[i], ys[i]) + (i, i^2 mod p).

    For p prime, at most p points and ``scale`` a multiple of p, no three
    lifted points are collinear, whatever the base points (Erdős's mod-p
    parabola; see Roth, *On a problem of Heilbronn*, 1951).  Reduced mod p,
    the determinant of lifted points i < j < k is that of the offsets
    (t, t^2) for t = i, j, k, the Vandermonde product (j-i)(k-i)(k-j),
    and p divides none of its factors.  Distinctness follows the same way
    from the x offsets i mod p.
    """
    return (
        [scale * x + i for i, x in enumerate(xs)],
        [scale * y + i * i % p for i, y in enumerate(ys)],
    )


def _translate_to_origin(xs: list[int], ys: list[int]) -> tuple[list[int], list[int]]:
    # Shift the columns so the smallest x and y are 1.
    dx = 1 - min(xs)
    dy = 1 - min(ys)
    return [x + dx for x in xs], [y + dy for y in ys]


def orient(a: GridPoint, b: GridPoint, c: GridPoint) -> int:
    """Sign of the cross product (b - a) x (c - a).

    +1 means c lies left of the directed line a->b (counterclockwise turn),
    -1 right of it, 0 collinear.
    """
    det = (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
    if det > 0:
        return 1
    if det < 0:
        return -1
    return 0


def _conflict_raw(ax, ay, bx, by, cx, cy, dx, dy) -> bool:
    """True iff segments ab and cd share any point other than a common endpoint.

    Proper crossings, collinear overlaps, and an endpoint of one segment
    sitting in the interior of the other all count as conflicts.  Touching
    at exactly one shared endpoint does not.  Both segments must have
    distinct endpoints.  The certifier and the five-point search call it
    on raw coordinates in their inner loops, and most pairs they ask about
    lie apart: so it returns as soon as one segment lies strictly on one
    side of the other's line, before it computes the other two
    orientations.
    """
    o1 = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    o2 = (bx - ax) * (dy - ay) - (by - ay) * (dx - ax)
    if o1 > 0 and o2 > 0 or o1 < 0 and o2 < 0:
        return False  # c and d strictly on one side of line ab
    o3 = (dx - cx) * (ay - cy) - (dy - cy) * (ax - cx)
    o4 = (dx - cx) * (by - cy) - (dy - cy) * (bx - cx)
    if o3 > 0 and o4 > 0 or o3 < 0 and o4 < 0:
        return False  # a and b strictly on one side of line cd

    if (o1 > 0) != (o2 > 0) and o1 != 0 and o2 != 0 and (o3 > 0) != (o4 > 0) and o3 != 0 and o4 != 0:
        return True  # proper crossing

    if o1 == 0 and o2 == 0 and o3 == 0 and o4 == 0:
        # Collinear: conflict iff the 1-D overlap is longer than a point.
        if ax != bx:
            lo1, hi1 = min(ax, bx), max(ax, bx)
            lo2, hi2 = min(cx, dx), max(cx, dx)
        else:
            lo1, hi1 = min(ay, by), max(ay, by)
            lo2, hi2 = min(cy, dy), max(cy, dy)
        return max(lo1, lo2) < min(hi1, hi2)

    # Endpoint of one segment strictly inside the other.
    if o1 == 0 and _strictly_between(ax, ay, cx, cy, bx, by):
        return True
    if o2 == 0 and _strictly_between(ax, ay, dx, dy, bx, by):
        return True
    if o3 == 0 and _strictly_between(cx, cy, ax, ay, dx, dy):
        return True
    if o4 == 0 and _strictly_between(cx, cy, bx, by, dx, dy):
        return True
    return False


def _strictly_between(px, py, qx, qy, rx, ry) -> bool:
    # q is collinear with p-r; is it strictly inside the segment?
    if px != rx:
        return min(px, rx) < qx < max(px, rx)
    return min(py, ry) < qy < max(py, ry)


def _check_distinct(xs: list[int], ys: list[int]) -> None:
    first: dict[tuple[int, int], int] = {}
    for i, key in enumerate(zip(xs, ys)):
        if first.setdefault(key, i) != i:
            raise DuplicatePointError(f"points {first[key]} and {i} coincide at {key}")


def _direction_buckets(
    xs: list[int], ys: list[int], i: int
) -> dict[tuple[int, int], list[int]]:
    """The indices j > i, ascending, grouped by their direction from point i.

    Directions are reduced by their gcd and sign-normalised, so two indices
    share a bucket iff they are collinear with point i.  The points must be
    distinct.
    """
    xi, yi = xs[i], ys[i]
    buckets: dict[tuple[int, int], list[int]] = {}
    for j in range(i + 1, len(xs)):
        dx = xs[j] - xi
        dy = ys[j] - yi
        g = math.gcd(abs(dx), abs(dy))
        dx //= g
        dy //= g
        if dx < 0 or (dx == 0 and dy < 0):
            dx, dy = -dx, -dy
        buckets.setdefault((dx, dy), []).append(j)
    return buckets


def _first_collinear_triple(xs: list[int], ys: list[int]) -> Optional[tuple[int, int, int]]:
    """Lexicographically smallest index triple i < j < k of collinear points.

    Per anchor i, the points j < k collinear with it are the pairs within
    one of its direction buckets, and a bucket's smallest pair is its first
    two indices; the first anchor with a bucket of two holds the triple.
    Raises DuplicatePointError if two points coincide.
    """
    _check_distinct(xs, ys)
    for i in range(len(xs) - 2):
        pairs = [(b[0], b[1]) for b in _direction_buckets(xs, ys, i).values() if len(b) >= 2]
        if pairs:
            return (i, *min(pairs))
    return None


def find_collinear_triple(points: list[GridPoint]) -> Optional[tuple[int, int, int]]:
    """Lexicographically smallest index triple (i, j, k) with collinear points.

    Returns None when the set is in general position.  Uses slope hashing
    per anchor, which is much faster than the cubic scan but returns the
    identical triple.
    """
    return _first_collinear_triple([p.x for p in points], [p.y for p in points])


def convex_hull(points: list[GridPoint]) -> list[int]:
    """Indices of hull vertices in counterclockwise order (monotone chain).

    Starts at the lexicographically smallest point.  Points interior to a
    hull edge are dropped, so with no three collinear inputs every hull
    point appears.
    """
    xs, ys = [p.x for p in points], [p.y for p in points]
    _check_distinct(xs, ys)
    if len(xs) < 3:
        raise InvalidInstanceError("convex hull needs at least 3 points")
    return _convex_hull(xs, ys)


def _convex_hull(xs: list[int], ys: list[int]) -> list[int]:
    # convex_hull on the columns of at least 3 distinct points
    idx = sorted(range(len(xs)), key=lambda i: (xs[i], ys[i]))

    def build(seq: list[int]) -> list[int]:
        chain: list[int] = []
        for i in seq:
            # pop while chain[-2], chain[-1], i make no counterclockwise turn
            while len(chain) >= 2 and (
                (xs[chain[-1]] - xs[chain[-2]]) * (ys[i] - ys[chain[-2]])
                - (ys[chain[-1]] - ys[chain[-2]]) * (xs[i] - xs[chain[-2]])
                <= 0
            ):
                chain.pop()
            chain.append(i)
        return chain

    lower = build(idx)
    upper = build(idx[::-1])
    return lower[:-1] + upper[:-1]
