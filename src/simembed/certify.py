"""Independent certification of embeddings.

The certifier only uses the exact geometry kernel, never any embedder
internals, so it doubles as the oracle for every property test.  Reports
carry witnesses so a failed check is immediately diagnosable.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from .errors import InvalidInstanceError
from .geometry import GridPoint, _conflict_raw, _first_collinear_triple
from .graphs import LayeredInstance, SimultaneousEmbedding

@dataclass
class Violation:
    kind: str
    witness: tuple

    def to_json(self) -> dict:
        return {"kind": self.kind, "witness": list(self.witness)}


@dataclass
class CertificateReport:
    ok: bool
    violations: list[Violation] = field(default_factory=list)

    def to_json(self) -> dict:
        return {"ok": self.ok, "violations": [v.to_json() for v in self.violations]}

    @staticmethod
    def from_json(data: dict) -> "CertificateReport":
        return CertificateReport(
            ok=bool(data["ok"]),
            violations=[
                Violation(kind=v["kind"], witness=tuple(v["witness"]))
                for v in data["violations"]
            ],
        )


def _report(violations: list[Violation]) -> CertificateReport:
    return CertificateReport(ok=not violations, violations=violations)


def _duplicate_violations(xs: list[int], ys: list[int]) -> list[Violation]:
    seen: dict[tuple[int, int], int] = {}
    out = []
    for i, key in enumerate(zip(xs, ys)):
        if key in seen:
            out.append(Violation("duplicate-point", (seen[key], i)))
        else:
            seen[key] = i
    return out


def _layer_crossings(
    xs: list[int], ys: list[int], edges: list[tuple[int, int]], layer_idx: int,
    x_span: int, y_span: int,
) -> list[Violation]:
    """Every conflicting edge pair (i, j), i < j, of one layer, in order.

    Two exact rules, each a pass over the edges, prove the layers of
    given-mapping drawings free of conflicts; each is tried along x and
    then along y, and says only yes or "not proved".

    The chain rule, :func:`_monotone_chain`, proves a layer whose edges
    form one path that is strictly monotone along the axis: along such a
    path the coordinate strictly increases, so two edges that are not
    adjacent on it span disjoint closed intervals of it, and two adjacent
    ones leave their shared vertex in opposite directions of it, so they
    meet only there.  It proves both paths of a two-paths drawing and the
    path of a path-caterpillar drawing.

    The slab rule, :func:`_disjoint_slabs`, proves a layer made of fans,
    each a low end and its edges, all to higher coordinates, whose slabs
    along the axis overlap at most on a boundary line.  Every edge of a
    fan leaves its low end into the open half-plane above it, so two of
    them with different slopes have different directions and meet only at
    the low end, an endpoint of both.  A fan lies in the closed slab from its
    low end's coordinate c to its reach r, and the next fan's slab starts
    at or above r, strictly above c, so the slabs of two fans share at most
    the line at r, and only if they are consecutive.  On that line the
    lower fan has only high ends, as each of its edges lies below its high
    end, and the upper fan only its low end.  So two edges of different
    fans share at most a point that is an endpoint of both, which
    :func:`geometry._conflict_raw` counts as no conflict.  The rule proves
    the caterpillar of a path-caterpillar drawing, along x, and each
    caterpillar of a two-caterpillars drawing, along its own axis: each
    spine vertex is the low end of its legs and of the spine edge ahead,
    which reaches the column (or row) where the next spine vertex's fan
    starts.  It runs after the chain rule, which is cheaper on paths.

    Any other layer, as a rule every layer of a free-mapping drawing, goes
    to :func:`_any_conflict`, which decides whether there is a conflict
    with O(m log m) orientation tests and at most 3m exact ones; only a
    layer with a conflict is handed to :func:`_listed_crossings`, which
    names every conflicting pair.  Both sweep along the axis that
    :func:`_sweep_frame` picks, the one on which a sweep line meets fewer
    edges on average; the axis changes how fast they run, never what they
    find.  The spans are ``max - min`` of xs, ys.
    """
    if (
        _monotone_chain(xs, edges) or _monotone_chain(ys, edges)
        or _disjoint_slabs(xs, ys, edges) or _disjoint_slabs(ys, xs, edges)
    ):
        return []
    if _any_conflict(*_sweep_frame(xs, ys, edges, x_span, y_span), edges):
        return _listed_crossings(xs, ys, edges, layer_idx, x_span, y_span)
    return []


def _monotone_chain(cs: list[int], edges: list[tuple[int, int]]) -> bool:
    """Whether the edges form one path along which the coordinate ``cs``
    strictly increases; then no two of them conflict (see
    :func:`_layer_crossings`).

    Each edge runs from its end with the lower coordinate, its low end, to
    the other, its high end.  The answer is no at the first edge whose ends
    have equal coordinates and at the first vertex that is the low end of
    two edges or the high end of two.  Otherwise every vertex has at most
    one edge up and one edge down, and the coordinate rises along every
    edge, so the edges form disjoint paths with no cycle: as many paths as
    touched vertices less edges.  It is one path iff the m edges touch
    m + 1 vertices; two disjoint chains may cross.  The check reads only
    the edges, never the layer's kind, and a layer that is no such path
    usually fails it within a few edges.
    """
    low = bytearray(len(cs))  # low[v] = 1 once v is the low end of an edge
    high = bytearray(len(cs))
    for u, w in edges:
        a, b = cs[u], cs[w]
        if a > b:
            u, w = w, u
        elif a == b:
            return False
        if low[u] or high[w]:
            return False
        low[u] = high[w] = 1
    # m low ends and m high ends touch m + 1 vertices iff m - 1 are both
    both = int.from_bytes(low, "little") & int.from_bytes(high, "little")
    return both.bit_count() == len(edges) - 1


def _disjoint_slabs(cs: list[int], ds: list[int], edges: list[tuple[int, int]]) -> bool:
    """Whether the edges fall into fans in disjoint slabs along the
    coordinate ``cs`` (``ds`` is the other one); then no two of them
    conflict (see :func:`_layer_crossings`).

    Each edge runs from its low end to its high end along ``cs``, as in
    :func:`_monotone_chain`, and the edges with one low end form its fan.
    The fan's reach is the highest coordinate of their high ends.  The
    answer is no at the first edge whose ends have equal coordinates (edges
    of length zero included) and at the first vertex that is the high end
    of two edges; then if two edges of one fan have equal slopes Δd / Δc;
    and then unless, with the low ends sorted by coordinate, each one's
    reach is at most the next one's coordinate.  That last test also
    refuses two low ends with one coordinate, as every reach lies above its
    low end.  Equal slopes always give equal floats, each the correctly
    rounded quotient of one real; two different slopes that round to one
    float only make the rule refuse, as does a slope too large for a float.
    The test on high ends is there to stop early: the tests after the pass
    would refuse two edges with one high end too.  A layer of another
    shape usually fails it at its first vertex with two edges down.
    """
    high = bytearray(len(cs))  # high[v] = 1 once v is the high end of an edge
    reach = list(cs)  # cs[v] until v is a low end, then v's reach
    lows = []
    slopes = set()
    try:
        for u, w in edges:
            a, b = cs[u], cs[w]
            if a > b:
                u, w, a, b = w, u, b, a
            elif a == b:
                return False
            if high[w]:
                return False
            high[w] = 1
            r = reach[u]
            if r < b:
                if r == a:  # the first edge of u's fan
                    lows.append(u)
                reach[u] = b
            slopes.add((u, (ds[w] - ds[u]) / (b - a)))
    except OverflowError:  # a slope beyond the float range; the sweep is exact
        return False
    if len(slopes) != len(edges):
        return False
    lows.sort(key=cs.__getitem__)
    return all(reach[u] <= cs[v] for u, v in zip(lows, lows[1:]))


def _sweep_frame(
    xs: list[int], ys: list[int], edges: list[tuple[int, int]], x_span: int, y_span: int
) -> tuple[list[int], list[int]]:
    """The coordinates with the sweep axis first: x when
    sum |dx| * y_span <= sum |dy| * x_span over the edges, else y.

    The spans are the drawing's extents less one, so each side is, up to
    the common factor x_span * y_span, the mean number of edges that a
    sweep line meets on its axis: a line at a uniformly random x meets an
    edge with probability |dx| / x_span.  One pass, no sort.
    """
    if not edges:
        return xs, ys
    along_x = along_y = 0
    for u, w in edges:
        along_x += abs(xs[u] - xs[w])
        along_y += abs(ys[u] - ys[w])
    if along_x * y_span <= along_y * x_span:
        return xs, ys
    return ys, xs


def _edge_table(
    xs: list[int], ys: list[int], edges: list[tuple[int, int]]
) -> tuple[list, ...]:
    """One pass over a layer: the coordinates ``lx, ly, rx, ry`` of each
    edge k oriented from its lexicographically smaller endpoint L to its
    larger endpoint R, and the sorted sweep events ``(x, y, enters, k)``
    at L (enters = 1) and at R (enters = 0).

    An edge of length zero conflicts with nothing (its own orientations are
    all zero, so the predicate only asks whether a point lies strictly
    inside a point), so it gets no events: neither :func:`_any_conflict`
    nor :func:`_listed_crossings` ever looks at it.
    """
    lx: list[int] = []
    ly: list[int] = []
    rx: list[int] = []
    ry: list[int] = []
    events = []
    for u, w in edges:
        ax, ay, bx, by = xs[u], ys[u], xs[w], ys[w]
        if bx < ax or bx == ax and by < ay:
            ax, ay, bx, by = bx, by, ax, ay
        k = len(lx)
        lx.append(ax)
        ly.append(ay)
        rx.append(bx)
        ry.append(by)
        if ax != bx or ay != by:
            events.append((ax, ay, 1, k))
            events.append((bx, by, 0, k))
    events.sort()
    return lx, ly, rx, ry, events


def _pair_conflict(
    lx: list[int], ly: list[int], rx: list[int], ry: list[int], i: int, j: int
) -> bool:
    """Whether edges i and j of an :func:`_edge_table` conflict.

    The shared-endpoint rule: two edges with the same L (or the same R)
    leave it into one open half-plane, so they meet beyond it iff they are
    parallel.  Every other pair goes to the exact predicate.
    """
    if lx[i] == lx[j] and ly[i] == ly[j] or rx[i] == rx[j] and ry[i] == ry[j]:
        return (rx[i] - lx[i]) * (ry[j] - ly[j]) == (ry[i] - ly[i]) * (rx[j] - lx[j])
    return _conflict_raw(lx[i], ly[i], rx[i], ry[i], lx[j], ly[j], rx[j], ry[j])


def _any_conflict(xs: list[int], ys: list[int], edges: list[tuple[int, int]]) -> bool:
    """Whether any two edges conflict (``_conflict_raw``), by a Shamos–Hoey
    sweep in lexicographic (x, y) order over the events of
    :func:`_edge_table`, with each edge running from L to R as there.

    At each event point p, first the edges with R = p leave the status
    list, then the edges with L = p enter it.  The list is ordered bottom
    to top.  An entering edge e is placed by binary search: a kept edge k
    is below p if orient(L_k, R_k, p) > 0 and above it if < 0, and a zero
    is settled by the direction of R_e against that of R_k (the order
    around p when L_k = p).  Each entering edge is tested exactly against
    both of its neighbours.  The two edges that the last removal at p
    leaves adjacent are tested once, and only if no edge enters at p: an
    entering edge lands between them and tests both.  Only these tests
    report.

    Each test is :func:`_pair_conflict`: two edges with the same L (or the
    same R) leave it into one open half-plane, so they meet beyond it iff
    they are parallel.  Every other pair goes to the exact predicate; an
    edge whose R is the L of another has left the list before the other
    enters, so such a pair is never tested.  So the answer is never a
    false yes, and each edge costs at most three tests.

    No conflict is missed.  Shear the plane by (x, y) -> (x + εy, y) for a
    small ε > 0: orientations and intersections are unchanged, the
    lexicographic order becomes the order of the new x, and no edge is
    vertical.  Let q be the lexicographically first point that is the
    first point of e ∩ f for some conflicting pair (e, f).  Before q no two
    edges meet except at an endpoint of both, so between events the list
    is the bottom-to-top order of the edges crossing the sweep line.  At an
    event p before q, the edges kept across p are ordered by height at p,
    none contains p, and the edges that entered at p so far sit between
    those below and those above p in the order of their directions, which
    lie in a half-plane; so the comparisons read "e goes higher" on a
    prefix of the list and "lower" on the rest, the binary search puts e
    in its place, and the order stays right after p.

    Lemma: at an event p before q, the edges with R = p are consecutive in
    the list, and their kept neighbours lie strictly below and strictly
    above p.  Just before p every edge between two of them passes through
    p, and so does a neighbour that is not strictly below or above it; a
    kept such edge would contain p in its interior and conflict with the
    edges that leave, so p >= q.  So the removals at p open exactly one
    gap, and every edge that enters at p lands in it.

    Invariant: once an event point before q is handled, every adjacent
    pair in the list has been tested.  At such a point p the removals
    make one new adjacent pair, the two sides of the gap.  If no edge
    enters, that pair is tested.  Otherwise the first entering edge splits
    it, and each adjacent pair that an insertion makes is tested by that
    insertion.  Every other adjacent pair was adjacent before p.

    (a) If L_e < q and L_f < q, then e ∩ f = {q} (a collinear overlap
    would start before q), and q lies inside one of them, say e.  Just
    before q the edges between e and f in the list all pass through q, so
    e and its neighbour on the side of f both contain q, which is not an
    endpoint of e: that neighbouring pair conflicts, and by the invariant
    it was tested before q.  Otherwise no two kept edges contain q
    (they would be such a pair), and some conflicting pair has L_f = q.
    (b) If an edge e kept across q contains q, the first edge g to enter
    at q conflicts with it.  (c) Else L_e = q as well (with L_e < q, q
    would lie strictly inside e, as R_e = q would only touch), e and f
    leave q along one ray, and whichever enters second, g, conflicts with
    the first.  In (b) and (c), let M be the kept edges that g conflicts
    with: e alone in (b), and in (c) the edges from q along g's ray, which
    are consecutive in the order of directions.  The comparisons read
    "higher" on a prefix of the list, anything on M and "lower" on the
    rest.  A binary search ends between an element it read as "higher" and
    one it read as "lower" (or an end of the list), so g lands next to an
    element of M, and that neighbour test reports.
    """
    lx, ly, rx, ry, events = _edge_table(xs, ys, edges)
    status: list[int] = []
    # The gap the last removal opened, status[gap - 1] and status[gap], at
    # the point (gx, gy); 0 when there is none to test.
    gap = gx = gy = 0
    for x, y, enters, e in events:
        if gap:
            if (x != gx or y != gy) and _pair_conflict(
                lx, ly, rx, ry, status[gap - 1], status[gap]
            ):
                return True
            gap = 0
        if not enters:
            i = status.index(e)
            del status[i]
            if 0 < i < len(status):
                gap, gx, gy = i, x, y
            continue
        ex, ey = rx[e] - x, ry[e] - y
        lo, hi = 0, len(status)
        while lo < hi:
            mid = (lo + hi) // 2
            k = status[mid]
            kx, ky = rx[k] - lx[k], ry[k] - ly[k]
            side = kx * (y - ly[k]) - ky * (x - lx[k])
            if not side:
                side = kx * ey - ky * ex
            if side > 0:
                lo = mid + 1
            else:
                hi = mid
        status.insert(lo, e)
        if lo and _pair_conflict(lx, ly, rx, ry, status[lo - 1], e):
            return True
        if lo + 1 < len(status) and _pair_conflict(lx, ly, rx, ry, e, status[lo + 1]):
            return True
    return False


def _listed_crossings(
    xs: list[int], ys: list[int], edges: list[tuple[int, int]], layer_idx: int,
    x_span: int, y_span: int,
) -> list[Violation]:
    """Every conflicting edge pair (i, j), i < j, of one layer, in order,
    found by a bounding-box scan over the table of :func:`_edge_table`,
    built in the frame of :func:`_sweep_frame`.

    Two edges can conflict only if their closed bounding boxes overlap on
    both axes.  On the sweep axis an edge's box is [L, R].  The edges are
    taken in the order of their L, the order of their entering events; a
    later edge overlaps an earlier one on that axis if and only if it
    starts no higher than the earlier one's R, so each edge is paired with
    the later edges up to the last start at or below its R, found by
    bisection, and those pairs are filtered on the other axis.

    When the R of the earlier edge is the L of the later one, p, they
    never conflict: the earlier lies lexicographically at or before p and
    the later at or after it, so they meet only at p, an endpoint of both.
    (The later edge's R lies after its L, so it is never the earlier one's
    L.)  Every other pair that is left is decided by
    :func:`_pair_conflict`, as in :func:`_any_conflict`.  Every pair whose
    boxes overlap is looked at, so a layer whose long edges overlap one
    another costs O(m^2).
    """
    us, vs = _sweep_frame(xs, ys, edges, x_span, y_span)
    lx, ly, rx, ry, events = _edge_table(us, vs, edges)
    low = list(map(min, ly, ry))
    high = list(map(max, ly, ry))
    order = [k for _, _, enters, k in events if enters]
    starts = [lx[k] for k in order]

    hits = []
    for p, i in enumerate(order):
        rx_i, ry_i, low_i, high_i = rx[i], ry[i], low[i], high[i]
        for j in order[p + 1 : bisect_right(starts, rx_i)]:
            if low[j] > high_i or high[j] < low_i or lx[j] == rx_i and ly[j] == ry_i:
                continue
            if _pair_conflict(lx, ly, rx, ry, i, j):
                hits.append((i, j) if i < j else (j, i))
    hits.sort()
    return [Violation("layer-crossing", (layer_idx, i, j)) for i, j in hits]


def check_embedding_shape(emb: SimultaneousEmbedding, inst: LayeredInstance) -> None:
    """Raise unless the instance has a vertex, the embedding has one point
    per vertex and, exactly when the mapping is free, one assignment per
    instance layer: under a given mapping vertex v is drawn at point v in
    every layer, so an assignment is refused."""
    if inst.n < 1:
        raise InvalidInstanceError("instance needs at least one vertex")
    if len(emb.xs) != inst.n:
        raise InvalidInstanceError("embedding and instance disagree on vertex count")
    if emb.assignments is None:
        if inst.mapping == "free":
            raise InvalidInstanceError("free-mapping embedding must carry its bijections")
    elif inst.mapping != "free":
        raise InvalidInstanceError("given-mapping embedding must not carry assignments")
    elif len(emb.assignments) != len(inst.layers):
        raise InvalidInstanceError("embedding and instance disagree on assignment count")


def certify_embedding(
    emb: SimultaneousEmbedding,
    inst: LayeredInstance,
    bounds: tuple[int, int] | None = None,
) -> CertificateReport:
    """Check an embedding against its instance: per-layer planarity,
    distinct coordinates, bijection validity, and (optionally) that the
    drawing fits a w x h grid once its minimum corner is translated to
    (1, 1), for ``bounds=(w, h)``.

    Crossings between different layers are deliberately never reported.

    The instance must pass :func:`graphs.validate_instance`, as every
    parsed document does.  Only its shape is checked again here
    (:func:`check_embedding_shape`); an edge endpoint outside 0..n-1 is
    not, as that would take one more pass over every edge.
    """
    check_embedding_shape(emb, inst)
    xs, ys = emb.xs, emb.ys
    # The scans that name duplicate and out-of-bounds points run only when
    # a set or an extent shows there is one: a valid drawing pays for neither.
    violations = _duplicate_violations(xs, ys) if len(set(zip(xs, ys))) != len(xs) else []
    # every layer shares the extents, so they are taken once
    x_span, y_span = max(xs) - min(xs), max(ys) - min(ys)

    # The edges come from the instance alone, never from the embedder's
    # own lists, so a drawing is judged against what was asked for.
    assignments = emb.assignments
    for li, layer in enumerate(inst.layers):
        if assignments is None:
            phi = None
        else:
            phi = assignments[li]
            bad = _bijection_violations(phi, inst.n, li)
            violations.extend(bad)
            if bad:
                continue
        edges = layer.edges if phi is None else [(phi[u], phi[v]) for u, v in layer.edges]
        violations.extend(_layer_crossings(xs, ys, edges, li, x_span, y_span))

    if bounds is not None:
        w, h = bounds
        if x_span >= w or y_span >= h:
            violations.extend(_bounds_violations(xs, ys, w, h))
    return _report(violations)


def _bijection_violations(phi: list[int], n: int, layer_idx: int) -> list[Violation]:
    out = []
    if len(phi) != n:
        out.append(Violation("bad-bijection", (layer_idx, len(phi))))
        return out
    seen: dict[int, int] = {}
    for v, target in enumerate(phi):
        if not (0 <= target < n):
            out.append(Violation("bad-bijection", (layer_idx, v)))
        elif target in seen:
            out.append(Violation("bad-bijection", (layer_idx, seen[target], v)))
        else:
            seen[target] = v
    return out


def certify_general_position(points: list[GridPoint]) -> CertificateReport:
    """Report the duplicate points of a point set or, when there are none,
    its lexicographically first collinear triple, as
    :func:`geometry.find_collinear_triple` finds it."""
    xs, ys = [p.x for p in points], [p.y for p in points]
    violations = _duplicate_violations(xs, ys)
    if not violations:
        triple = _first_collinear_triple(xs, ys)
        if triple is not None:
            violations.append(Violation("collinear-triple", triple))
    return _report(violations)


def _bounds_violations(xs: list[int], ys: list[int], w: int, h: int) -> list[Violation]:
    min_x = min(xs)
    min_y = min(ys)
    out = []
    for i, (x, y) in enumerate(zip(xs, ys)):
        sx = x - min_x + 1
        sy = y - min_y + 1
        if not (1 <= sx <= w and 1 <= sy <= h):
            out.append(Violation("out-of-bounds", (i,)))
    return out
