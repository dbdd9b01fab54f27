"""Seeded instance documents for the benchmark workloads.

Every instance is a pure function of its kind, size and seed.  Layers
come from ``simembed.generate.generate`` and are then thinned here, so the
embedders see inputs that the package's own generator never produces:
outerplanar layers with missing chords (``maximalize_outerplanar`` has real
faces to complete) and plane graphs with missing edges
(``triangulate_plane`` has real faces to triangulate).

The documented grid bound of each kind is computed here from the paper's
formulas, not by calling the package, so a change to the package cannot
loosen the check it is held to.
"""

from __future__ import annotations

import importlib
import random
from dataclasses import dataclass

#: Chord density of layer i in an ``outerplanars`` instance.
OUTERPLANAR_DENSITIES = (1.0, 0.5, 0.0)
#: Chord density of the outerplanar layer of a planar+outerplanar instance.
PLANAR_PARTNER_DENSITY = 0.5
#: Share of a plane triangulation's edges removed while it stays connected.
PLANE_EDGE_DROP = 0.3


@dataclass
class Instance:
    """One instance document plus what the correctness gate needs."""

    name: str
    n: int
    text: str
    bounds: tuple[int, int]


def _rng(*key) -> random.Random:
    return random.Random(repr(key))


def thin_outerplanar(layer, density: float, rng: random.Random):
    """Keep a ``density`` share of the chords; keep every outer-cycle edge."""
    cyc = layer.outer_cycle
    n = len(cyc)
    pos = {v: i for i, v in enumerate(cyc)}
    cycle, chords = [], []
    for u, v in layer.edges:
        gap = (pos[v] - pos[u]) % n
        (cycle if gap in (1, n - 1) else chords).append((u, v))
    kept = rng.sample(chords, round(density * len(chords)))
    return type(layer)(kind="outerplanar", edges=cycle + kept, outer_cycle=list(cyc))


def thin_plane(layer, n: int, share: float, rng: random.Random):
    """Drop ``share`` of the edges, keeping a random spanning tree, and prune
    the rotation to match.  Deleting a non-bridge edge of a connected plane
    embedding merges its two faces, so the result is again a connected
    plane embedding."""
    order = sorted(tuple(sorted(e)) for e in layer.edges)
    rng.shuffle(order)
    root = list(range(n))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    spare = []
    for u, v in order:
        ru, rv = find(u), find(v)
        if ru == rv:
            spare.append((u, v))
        else:
            root[ru] = rv
    dropped = set(spare[: int(share * len(order))])
    edges = [e for e in layer.edges if tuple(sorted(e)) not in dropped]
    gone = [set() for _ in range(n)]
    for u, v in dropped:
        gone[u].add(v)
        gone[v].add(u)
    rotation = [[w for w in rot if w not in gone[v]] for v, rot in enumerate(layer.rotation)]
    return type(layer)(kind="planar", edges=edges, rotation=rotation)


def next_prime(m: int) -> int:
    c = max(m, 2)
    while any(c % d == 0 for d in range(2, int(c**0.5) + 1)):
        c += 1
    return c


def leaf_count(edges: list[tuple[int, int]], n: int) -> int:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return sum(1 for d in deg if d == 1)


def documented_bounds(kind: str, n: int, layers) -> tuple[int, int]:
    """The grid bound the README and the paper state for ``kind``."""
    if kind == "two-paths":
        return n, n
    if kind == "path-caterpillar":
        k = leaf_count(layers[1].edges, n)
        return 2 * n - k, n
    if kind == "two-caterpillars":
        return n * (2 * n + 1), n * (2 * n * n + 1)
    if kind == "outerplanars":
        p = next_prime(n)
        return p, p
    if kind == "planar-outerplanar":
        s = 6 * n
        return (
            s * (2 * n - 4) * (2 * n + 1) + 2 * n + 1,
            s * (n - 2) * (2 * n * n + 1) + 2 * n * n + 1,
        )
    raise ValueError(f"no documented bound for kind {kind!r}")


def build(simembed, kind: str, n: int, seed: int, name: str) -> Instance:
    """Generate, thin and serialize one instance of ``kind`` on n vertices.

    Layer i is generated with seed ``8 * seed + i``, so instances with
    different seeds never share a layer."""
    # Looked up on the module at call time, where a tracer may wrap it.
    gen = importlib.import_module("simembed.generate").generate
    rng = _rng(kind, n, seed)
    s = 8 * seed
    if kind == "two-paths":
        layers, mapping = [gen("path", n, s), gen("path", n, s + 1)], "given"
    elif kind == "path-caterpillar":
        layers, mapping = [gen("path", n, s), gen("caterpillar", n, s + 1)], "given"
    elif kind == "two-caterpillars":
        layers = [gen("caterpillar", n, s), gen("caterpillar", n, s + 1)]
        mapping = "given"
    elif kind == "outerplanars":
        layers = [
            thin_outerplanar(gen("maximal-outerplanar", n, s + i), d, rng)
            for i, d in enumerate(OUTERPLANAR_DENSITIES)
        ]
        mapping = "free"
    elif kind == "planar-outerplanar":
        plane = thin_plane(gen("plane-triangulation", n, s), n, PLANE_EDGE_DROP, rng)
        outer = thin_outerplanar(
            gen("maximal-outerplanar", n, s + 1), PLANAR_PARTNER_DENSITY, rng
        )
        layers, mapping = [plane, outer], "free"
    else:
        raise ValueError(f"unknown instance kind {kind!r}")
    inst = simembed.LayeredInstance(n=n, layers=layers, mapping=mapping)
    return Instance(
        name=name,
        n=n,
        text=simembed.serialize_instance(inst),
        bounds=documented_bounds(kind, n, layers),
    )


def five_path_pair(simembed, i: int, j: int) -> Instance:
    """Two of the bundled five paths as a given-mapping two-paths instance.

    Any two paths embed on n x n, while all five together cannot; the
    ``fivepaths`` workload runs both sides of that contrast."""
    paths = simembed.FIVE_PATHS
    layers = []
    for digits in (paths[i], paths[j]):
        order = [int(ch) - 1 for ch in digits]
        edges = [(order[k], order[k + 1]) for k in range(len(order) - 1)]
        layers.append(simembed.Layer(kind="path", edges=edges))
    inst = simembed.LayeredInstance(n=5, layers=layers, mapping="given")
    return Instance(
        name=f"pair-{paths[i]}-{paths[j]}",
        n=5,
        text=simembed.serialize_instance(inst),
        bounds=(5, 5),
    )
