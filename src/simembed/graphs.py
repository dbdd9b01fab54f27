"""Graph layers, class validators, and the structural reductions.

A :class:`Layer` is one edge set of a layered instance together with the
side data its class needs (a rotation system for plane graphs, the outer
cycle for outerplanar ones).  The functions here validate layers against
their declared class and compute the decompositions the embedders consume.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .errors import InternalInvariantError, InvalidInstanceError
from .geometry import COORD_LIMIT, GridPoint

LAYER_CLASSES = ("path", "caterpillar", "outerplanar", "planar")


@dataclass
class Layer:
    kind: str
    edges: list[tuple[int, int]]
    rotation: Optional[list[list[int]]] = None
    outer_cycle: Optional[list[int]] = None


@dataclass
class LayeredInstance:
    """Shared vertex count, one or more edge layers, and the mapping mode.

    With mapping "given" every layer lives on the common index space
    0..n-1.  With mapping "free" each layer has its own n-vertex index
    space and the embedders return the bijections.
    """

    n: int
    layers: list[Layer]
    mapping: str = "given"


@dataclass
class SimultaneousEmbedding:
    """A drawing shared by all layers: point i is ``(xs[i], ys[i])``.
    With free mapping, ``assignments`` maps each layer's own vertex indices
    to point indices; with given mapping it is None, and vertex v is at
    point v in every layer.  The edges are the instance's, and the width
    and height are read off the points.

    The columns are checked once each when the object is built: equal
    lengths, exact ints (no bools), and magnitudes within COORD_LIMIT, with
    the error that :class:`GridPoint` raises for the first bad point.
    ``coords`` is a read-only view of the points as :class:`GridPoint`."""

    xs: list[int]
    ys: list[int]
    assignments: Optional[list[list[int]]] = None

    def __post_init__(self) -> None:
        xs, ys = self.xs, self.ys
        if len(xs) != len(ys):
            raise InvalidInstanceError("embedding columns xs and ys differ in length")
        # one pass per column for the types and one for each extreme; only
        # a column that fails is walked point by point, for GridPoint's error
        if xs and not (
            set(map(type, xs)) == set(map(type, ys)) == {int}
            and -COORD_LIMIT <= min(xs) and max(xs) <= COORD_LIMIT
            and -COORD_LIMIT <= min(ys) and max(ys) <= COORD_LIMIT
        ):
            for x, y in zip(xs, ys):
                GridPoint(x, y)  # raises for the first bad point

    @property
    def coords(self) -> list[GridPoint]:
        return list(map(GridPoint, self.xs, self.ys))

    @property
    def width(self) -> int:
        return _extent(self.xs)

    @property
    def height(self) -> int:
        return _extent(self.ys)


def _extent(axis: list[int]) -> int:
    # max - min + 1, the columns or rows the points span; 0 for no points
    return max(axis) - min(axis) + 1 if axis else 0


def _check_vertex_count(n: int, what: str) -> None:
    # Before any refusal that formats n: an int of over 4300 digits cannot
    # be formatted, so this one names no value.
    if abs(n) > COORD_LIMIT:
        raise InvalidInstanceError(f"the vertex count of {what} is over 2^40 in magnitude")


def _check_permutation(order: list[int], what: str) -> None:
    n = len(order)
    if sorted(order) != list(range(n)):
        raise InvalidInstanceError(f"{what} must be a permutation of 0..{n - 1}")


@dataclass
class PathOrder:
    """A path given as the linear order of its vertices, a permutation of
    0..n-1."""

    order: list[int]

    def __post_init__(self) -> None:
        _check_permutation(self.order, "path")

    @property
    def n(self) -> int:
        return len(self.order)

    def edges(self) -> list[tuple[int, int]]:
        return list(zip(self.order, self.order[1:]))


@dataclass
class Caterpillar:
    """Spine vertices in order plus, per spine vertex, its legs in order;
    spine and legs together are a permutation of 0..n-1."""

    spine: list[int]
    legs: list[list[int]]

    def __post_init__(self) -> None:
        if len(self.legs) != len(self.spine):
            raise InvalidInstanceError("one leg list per spine vertex required")
        _check_permutation(list(itertools.chain(self.spine, *self.legs)), "caterpillar")

    @property
    def n(self) -> int:
        return len(self.spine) + sum(len(l) for l in self.legs)

    def leg_count(self) -> int:
        return sum(len(l) for l in self.legs)

    def edges(self) -> list[tuple[int, int]]:
        out = list(zip(self.spine, self.spine[1:]))
        for parent, legs in zip(self.spine, self.legs):
            out.extend((parent, leg) for leg in legs)
        return out


def validate_layer(layer: Layer, n: int) -> None:
    """Structural checks: simple edges in range, class side data present."""
    if layer.kind not in LAYER_CLASSES:
        raise InvalidInstanceError(f"unknown layer class {layer.kind!r}")
    seen: set[tuple[int, int]] = set()
    for u, v in layer.edges:
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidInstanceError(f"edge ({u},{v}) out of vertex range 0..{n - 1}")
        if u == v:
            raise InvalidInstanceError(f"loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise InvalidInstanceError(f"duplicate edge ({u},{v})")
        seen.add(key)
    if layer.kind == "planar":
        if layer.rotation is None:
            raise InvalidInstanceError("planar layer requires a rotation system")
        _validate_rotation(layer, n)
    if layer.kind == "outerplanar":
        if layer.outer_cycle is None:
            raise InvalidInstanceError("outerplanar layer requires its outer cycle")
        if len(layer.outer_cycle) != n or sorted(layer.outer_cycle) != list(range(n)):
            raise InvalidInstanceError("outer cycle must visit every vertex exactly once")


def _validate_rotation(layer: Layer, n: int) -> None:
    rotation = layer.rotation
    assert rotation is not None
    if len(rotation) != n:
        raise InvalidInstanceError("rotation must list neighbor orders for all vertices")
    neighbors: list[set[int]] = [set() for _ in range(n)]
    for u, v in layer.edges:
        neighbors[u].add(v)
        neighbors[v].add(u)
    for v in range(n):
        if sorted(rotation[v]) != sorted(neighbors[v]):
            raise InvalidInstanceError(
                f"rotation at vertex {v} is not a permutation of its neighbors"
            )


def validate_instance(inst: LayeredInstance) -> None:
    if inst.n < 1:
        raise InvalidInstanceError("instance needs at least one vertex")
    if inst.mapping not in ("given", "free"):
        raise InvalidInstanceError(f"mapping must be 'given' or 'free', got {inst.mapping!r}")
    if not inst.layers:
        raise InvalidInstanceError("instance needs at least one layer")
    for layer in inst.layers:
        validate_layer(layer, inst.n)


def _adjacency(n: int, edges: list[tuple[int, int]]) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _connected(n: int, adj: list[list[int]]) -> bool:
    if n == 0:
        return True
    seen = [False] * n
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if not seen[w]:
                seen[w] = True
                count += 1
                stack.append(w)
    return count == n


def as_path(layer: Layer, n: int) -> PathOrder:
    """Recover the linear order of a path layer.

    Runs :func:`validate_layer`, then one linear walk.  The returned order
    starts at the lower-indexed endpoint.  Raises for cycles, branch
    vertices, and disconnected layers.
    """
    _check_vertex_count(n, "a path")
    validate_layer(layer, n)
    return _path_order(layer, n)


def _path_order(layer: Layer, n: int) -> PathOrder:
    # as_path on a layer that validate_layer has passed.  Each vertex keeps
    # its degree and the XOR of its neighbours, so the walk leaves a vertex
    # entered from prev by link ^ prev.  With n - 1 edges and no degree over
    # 2 the layer is one path plus cycles.  The two ends are that path's, so
    # the walk from one stops at the other, and it missed a cycle if it
    # covered fewer than n vertices.
    edges = layer.edges
    if len(edges) != n - 1:
        raise InvalidInstanceError(f"path on {n} vertices needs {n - 1} edges")
    if n == 1:
        return PathOrder([0])
    deg = [0] * n
    link = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
        link[u] ^= v
        link[v] ^= u
    if max(deg) > 2:
        bad = next(v for v in range(n) if deg[v] > 2)
        raise InvalidInstanceError(f"not a path: branch vertex {bad}")
    if deg.count(1) != 2:
        raise InvalidInstanceError("not a path: contains a cycle or is disconnected")
    order = _walk_between_ends(deg, link)
    if len(order) < n:
        raise InvalidInstanceError("not a path: disconnected")
    return PathOrder(order)


def _walk_between_ends(deg: list[int], link: list[int]) -> list[int]:
    # The walk of _path_order and _caterpillar: the vertices from the first
    # vertex of degree 1 to the other one, for exactly two such ends, no
    # degree over 2, and link[v] the XOR of v's neighbours.
    first = deg.index(1)
    last = deg.index(1, first + 1)
    order = [first]
    prev, cur = first, link[first]
    while cur != last:
        order.append(cur)
        prev, cur = cur, link[cur] ^ prev
    order.append(last)
    return order


def caterpillar_decompose(layer: Layer, n: int) -> Caterpillar:
    """Split a caterpillar layer into its spine and per-spine-vertex legs.

    Runs :func:`validate_layer`, then two linear passes over the edges and
    one walk along the spine.  The spine is the leaf-pruned tree, which
    must form a path; legs attach in input edge order.  A star prunes down
    to its center (spine length one), and the two-vertex path is treated as
    a star centered at the lower index.
    """
    _check_vertex_count(n, "a caterpillar")
    validate_layer(layer, n)
    return _caterpillar(layer, n)


def _caterpillar(layer: Layer, n: int) -> Caterpillar:
    # caterpillar_decompose on a layer that validate_layer has passed.  The
    # spine is every vertex of degree 2 or more.  A leaf edge hands its leaf
    # to the other end's legs; a spine edge is counted and XOR-linked as in
    # _path_order.  With n - 1 edges the layer is a tree iff it has no
    # cycle, and a cycle only runs along spine edges: so the layer is a tree
    # iff the walk from one end of the spine covers it.  An edge between two
    # leaves is a component of its own.  Only a branching spine, which the
    # walk cannot follow, takes a search to tell a disconnected layer, whose
    # error comes first, from a tree that is not a caterpillar.
    edges = layer.edges
    if len(edges) != n - 1:
        raise InvalidInstanceError(f"tree on {n} vertices needs {n - 1} edges")
    if n == 1:
        return Caterpillar([0], [[]])
    if n == 2:  # the one edge joins 0 and 1
        return Caterpillar([0], [[1]])
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    legs: dict[int, list[int]] = {v: [] for v in range(n) if deg[v] > 1}
    spine_deg = [0] * n
    link = [0] * n
    for u, v in edges:
        if deg[u] == 1:
            if deg[v] == 1:
                raise InvalidInstanceError("not a tree: disconnected")
            legs[v].append(u)
        elif deg[v] == 1:
            legs[u].append(v)
        else:
            spine_deg[u] += 1
            spine_deg[v] += 1
            link[u] ^= v
            link[v] ^= u
    if max(spine_deg) > 2:
        if not _connected(n, _adjacency(n, edges)):
            raise InvalidInstanceError("not a tree: disconnected")
        bad = next(v for v in range(n) if spine_deg[v] > 2)
        raise InvalidInstanceError(
            f"not a caterpillar: pruned tree branches at vertex {bad}"
        )
    if len(legs) == 1:
        spine = list(legs)
    else:
        if spine_deg.count(1) != 2:
            raise InvalidInstanceError("not a tree: disconnected")
        spine = _walk_between_ends(spine_deg, link)
        if len(spine) < len(legs):
            raise InvalidInstanceError("not a tree: disconnected")
    return Caterpillar(spine, [legs[p] for p in spine])


def caterpillar_to_path(cat: Caterpillar) -> PathOrder:
    """Linearize a caterpillar: each spine vertex followed by its legs."""
    order: list[int] = []
    for parent, legs in zip(cat.spine, cat.legs):
        order.append(parent)
        order.extend(legs)
    return PathOrder(order)


def _trace_faces(
    n: int, edges: list[tuple[int, int]], rotation: list[list[int]]
) -> list[list[tuple[int, int]]]:
    """Walk all face cycles of a rotation system.

    Rotations list neighbors counterclockwise; the successor of dart (u, v)
    is (v, w) with w the predecessor of u in v's rotation.
    """
    pos = [{w: i for i, w in enumerate(rot)} for rot in rotation]
    darts = [(u, v) for u, v in edges] + [(v, u) for u, v in edges]
    unvisited = set(darts)
    faces: list[list[tuple[int, int]]] = []
    for start in darts:
        if start not in unvisited:
            continue
        walk = []
        cur = start
        while True:
            walk.append(cur)
            unvisited.discard(cur)
            u, v = cur
            rot = rotation[v]
            w = rot[(pos[v][u] - 1) % len(rot)]
            cur = (v, w)
            if cur == start:
                break
        faces.append(walk)
    return faces


def rotation_system_from_faces(n: int, faces: list[tuple[int, ...]]) -> list[list[int]]:
    """Derive the rotation system of a plane embedding from its oriented faces.

    Faces must be consistently oriented closed walks: at vertex v inside a
    face (..., prev, v, next, ...), the rotation successor of next is prev.
    """
    succ: list[dict[int, int]] = [{} for _ in range(n)]
    for face in faces:
        k = len(face)
        for i, v in enumerate(face):
            succ[v][face[(i + 1) % k]] = face[(i - 1) % k]
    rotation: list[list[int]] = []
    for v in range(n):
        if not succ[v]:
            rotation.append([])
            continue
        start = next(iter(succ[v]))
        cyc = [start]
        while True:
            w = succ[v].get(cyc[-1])
            if w is None:
                raise InvalidInstanceError(f"faces around vertex {v} do not close up")
            if w == start:
                break
            cyc.append(w)
        if len(cyc) != len(succ[v]):
            raise InvalidInstanceError(f"faces around vertex {v} split into several cycles")
        rotation.append(cyc)
    return rotation


def check_plane_embedding(layer: Layer, n: int) -> int:
    """Validate a rotation system via Euler's formula and return the face count."""
    return len(_plane_faces(layer, n)) or 1


def _plane_faces(layer: Layer, n: int) -> list[list[tuple[int, int]]]:
    # check_plane_embedding's checks, returning the traced faces so that a
    # caller that needs them does not trace them again.
    validate_layer(layer, n)
    if layer.rotation is None:
        raise InvalidInstanceError("plane embedding check requires a rotation system")
    if layer.kind != "planar":  # validate_layer checked a planar rotation
        _validate_rotation(layer, n)
    if not _connected(n, layer.rotation):  # each rotation lists its vertex's neighbours
        raise InvalidInstanceError("plane embedding check requires a connected graph")
    faces = _trace_faces(n, layer.edges, layer.rotation)
    f = len(faces) or 1  # a lone vertex traces no walk but has one face
    if n - len(layer.edges) + f != 2:
        raise InvalidInstanceError(
            f"rotation is not a plane embedding: V-E+F = {n - len(layer.edges) + f}"
        )
    return faces


def _complete_faces(
    edges: list[tuple[int, int]], faces: list[list[tuple[int, int]]]
) -> list[tuple[int, int, int, int]]:
    """Add chords until every face in ``faces`` is a triangle.

    ``faces`` are walks from ``_trace_faces`` over ``edges``; ``edges`` is
    extended in place.  Returns one (p, q, a, b) per chord p-q in insertion
    order, with a and b the sources of the in-darts of its corners at p and
    q: a plane rotation stays plane when q goes in right before a at p and
    p right before b at q.

    The long faces come off a stack.  Each walk w is scanned forward for
    the first pair of corners i < j - 1 (corner i sits at w[i][1], between
    darts w[i] and w[i+1]) that are distinct and not yet joined, so the
    chord is no loop and no parallel edge.  It cuts w[i+1..j] + [(q, p)]
    off onto the stack, if longer than a triangle, and w becomes
    w[..i] + [(p, q)] + w[j+1..] in place.  The kept walk has only lost
    corners and gained an edge, so no pair before (i, i + 2) can take a
    chord and the scan resumes there.
    """
    edge_set = {frozenset(e) for e in edges}
    stack = [f for f in faces if len(f) > 3]
    inserts: list[tuple[int, int, int, int]] = []
    while stack:
        walk = stack.pop()
        i, j = 0, 2
        while len(walk) > 3:
            if j >= len(walk):
                i, j = i + 1, i + 3
                if j > len(walk):
                    raise InternalInvariantError(
                        f"face of length {len(walk)} admits no chord; embedding is inconsistent"
                    )
                continue
            p, q = walk[i][1], walk[j][1]
            if p == q or frozenset((p, q)) in edge_set:
                j += 1
                continue
            inserts.append((p, q, walk[i][0], walk[j][0]))
            edges.append((p, q))
            edge_set.add(frozenset((p, q)))
            cut = walk[i + 1 : j + 1] + [(q, p)]
            if len(cut) > 3:
                stack.append(cut)
            walk[i + 1 : j + 1] = [(p, q)]
            j = i + 2
    return inserts


def triangulate_plane(layer: Layer, n: int) -> tuple[Layer, list[tuple[int, int]]]:
    """Add chords until every face of the embedding is a triangle.

    Returns the augmented layer plus the list of added (dummy) edges so
    drawings can drop them afterwards.  Never creates parallel edges: a
    chord is only drawn between distinct, non-adjacent corners of a face.
    """
    faces = _plane_faces(layer, n)
    if n < 3:
        raise InvalidInstanceError("triangulation needs at least 3 vertices")
    rotation = [list(r) for r in layer.rotation or []]
    edges = list(layer.edges)
    for p, q, a, b in _complete_faces(edges, faces):
        rotation[p].insert(rotation[p].index(a), q)
        rotation[q].insert(rotation[q].index(b), p)

    if len(edges) != 3 * n - 6:
        raise InternalInvariantError(
            f"triangulation has {len(edges)} edges, expected {3 * n - 6}"
        )
    return Layer(kind="planar", edges=edges, rotation=rotation), edges[len(layer.edges) :]


def maximalize_outerplanar(layer: Layer, n: int) -> tuple[Layer, list[tuple[int, int]]]:
    """Complete an outerplanar layer to a maximal outerplanar graph.

    Missing outer-cycle edges are added first, then every inner face is
    triangulated; all added edges are returned as dummies.  Rejects inputs
    whose chords cross with respect to the declared outer cycle.

    The chords, sorted by (lo, -hi) on their cycle positions, are walked
    with a stack of open chords, each nested in the one below.  Popping
    every open chord that ends at or before lo leaves only chords with
    lo' <= lo < hi'; the new chord crosses one of them iff it crosses the
    innermost one, that is iff it ends past the innermost one's hi.  The
    same walk closes the inner faces: the face under chord (lo, hi) has the
    corners lo..hi that no chord nested directly under it jumps over, and
    the root face runs from position 0 to n - 1.  A face with corners
    c0 ... c(L-1) in cycle order gets the fan (c1, c3) ... (c1, c(L-1)).
    On the convex drawing of the cycle a face's corners are joined only
    where they are neighbours on it, so the fan adds no edge twice.
    """
    validate_layer(layer, n)
    if layer.outer_cycle is None:
        raise InvalidInstanceError("maximalization requires the outer cycle")
    cyc = list(layer.outer_cycle)
    edges = list(layer.edges)
    if n <= 2:
        if n == 2 and not edges:
            edges.append((cyc[0], cyc[1]))
        return Layer(kind="outerplanar", edges=edges, outer_cycle=cyc), edges[len(layer.edges) :]

    # on_cycle[x]: the edge cyc[x] - cyc[x + 1 (mod n)] is present
    pos = dict(zip(cyc, range(n)))
    on_cycle = [False] * n
    spans = []
    for k, (u, v) in enumerate(edges):
        a, b = pos[u], pos[v]
        gap = (b - a) % n
        if gap == 1:
            on_cycle[a] = True
        elif gap == n - 1:
            on_cycle[b] = True
        elif a < b:
            spans.append((a, -b, k))
        else:
            spans.append((b, -a, k))
    edges.extend((cyc[x], cyc[(x + 1) % n]) for x in range(n) if not on_cycle[x])

    # Open faces, innermost last: (hi, corners, index of the chord lo-hi).
    # The corners of the innermost face run up to position nxt - 1.  A
    # sentinel chord at position n closes every face, the root last.
    stack = [(n - 1, [cyc[0]], None)]
    nxt = 1
    for lo, neg_hi, k in sorted(spans) + [(n, 0, 0)]:
        while stack and stack[-1][0] <= lo:
            hi, corners, _ = stack.pop()
            corners += cyc[nxt : hi + 1]
            if len(corners) > 3:
                edges.extend(zip(itertools.repeat(corners[1]), corners[3:]))
            if stack:
                stack[-1][1].append(cyc[hi])
            nxt = hi + 1
        if not stack:
            break
        hi, corners, outer = stack[-1]
        if -neg_hi > hi:
            (a, b), (c, d) = edges[outer], edges[k]
            raise InvalidInstanceError(
                f"chords ({a},{b}) and ({c},{d}) cross in the declared outer cycle"
            )
        corners += cyc[nxt : lo + 1]
        nxt = lo + 1
        stack.append((-neg_hi, [cyc[lo]], k))

    if len(edges) != 2 * n - 3:
        raise InternalInvariantError(
            f"maximal outerplanar graph has {len(edges)} edges, expected {2 * n - 3}"
        )
    return Layer(kind="outerplanar", edges=edges, outer_cycle=cyc), edges[len(layer.edges) :]
