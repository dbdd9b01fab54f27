"""Independent certification of embeddings.

The certifier only uses the exact geometry kernel, never any embedder
internals, so it doubles as the oracle for every property test.  Reports
carry witnesses so a failed check is immediately diagnosable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvalidInstanceError
from .geometry import GridPoint, _conflict_raw, find_collinear_triple, orient
from .graphs import LayeredInstance, SimultaneousEmbedding

KINDS = ("layer-crossing", "collinear-triple", "out-of-bounds", "duplicate-point", "bad-bijection")


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


def _duplicate_violations(points: list[GridPoint]) -> list[Violation]:
    seen: dict[tuple[int, int], int] = {}
    out = []
    for i, p in enumerate(points):
        key = (p.x, p.y)
        if key in seen:
            out.append(Violation("duplicate-point", (seen[key], i)))
        else:
            seen[key] = i
    return out


def _layer_crossings(
    xs: list[int], ys: list[int], edges: list[tuple[int, int]], layer_idx: int
) -> list[Violation]:
    m = len(edges)
    ax = [xs[e[0]] for e in edges]
    ay = [ys[e[0]] for e in edges]
    bx = [xs[e[1]] for e in edges]
    by = [ys[e[1]] for e in edges]
    lo_x = [min(a, b) for a, b in zip(ax, bx)]
    hi_x = [max(a, b) for a, b in zip(ax, bx)]
    lo_y = [min(a, b) for a, b in zip(ay, by)]
    hi_y = [max(a, b) for a, b in zip(ay, by)]
    out = []
    for i in range(m):
        for j in range(i + 1, m):
            if lo_x[i] > hi_x[j] or lo_x[j] > hi_x[i]:
                continue
            if lo_y[i] > hi_y[j] or lo_y[j] > hi_y[i]:
                continue
            if _conflict_raw(
                ax[i], ay[i], bx[i], by[i], ax[j], ay[j], bx[j], by[j]
            ):
                out.append(Violation("layer-crossing", (layer_idx, i, j)))
    return out


def check_embedding_shape(emb: SimultaneousEmbedding, inst: LayeredInstance) -> None:
    """Raise unless the embedding has one point per vertex and one layer,
    plus one assignment if it carries any, per instance layer."""
    if len(emb.layers) != len(inst.layers):
        raise InvalidInstanceError("embedding and instance disagree on layer count")
    if len(emb.coords) != inst.n:
        raise InvalidInstanceError("embedding and instance disagree on vertex count")
    if emb.assignments is None:
        if inst.mapping == "free":
            raise InvalidInstanceError("free-mapping embedding must carry its bijections")
    elif len(emb.assignments) != len(inst.layers):
        raise InvalidInstanceError("embedding and instance disagree on assignment count")


def certify_embedding(
    emb: SimultaneousEmbedding,
    inst: LayeredInstance,
    bounds: tuple[int, int] | None = None,
) -> CertificateReport:
    """Check an embedding against its instance: per-layer planarity,
    distinct coordinates, bijection validity, and (optionally) grid bounds.

    Crossings between different layers are deliberately never reported.
    """
    check_embedding_shape(emb, inst)
    violations = _duplicate_violations(emb.coords)
    xs = [p.x for p in emb.coords]
    ys = [p.y for p in emb.coords]

    assignments = emb.assignments
    for li, layer_edges in enumerate(emb.layers):
        if assignments is None:
            phi = None
        else:
            phi = assignments[li]
            bad = _bijection_violations(phi, inst.n, li)
            violations.extend(bad)
            if bad:
                continue
        if phi is None:
            mapped = list(layer_edges)
        else:
            mapped = [(phi[u], phi[v]) for u, v in layer_edges]
        violations.extend(_layer_crossings(xs, ys, mapped, li))

    if bounds is not None:
        violations.extend(_bounds_violations(emb.coords, bounds[0], bounds[1]))
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


def certify_general_position(
    points: list[GridPoint], full_scan: bool = False
) -> CertificateReport:
    """Report collinear triples (and duplicate points) in a point set.

    By default the first offending triple suffices; ``full_scan`` lists
    every collinear triple.
    """
    violations = _duplicate_violations(points)
    if violations:
        return _report(violations)
    if full_scan:
        n = len(points)
        for i in range(n - 2):
            for j in range(i + 1, n - 1):
                for k in range(j + 1, n):
                    if orient(points[i], points[j], points[k]) == 0:
                        violations.append(Violation("collinear-triple", (i, j, k)))
    else:
        triple = find_collinear_triple(points)
        if triple is not None:
            violations.append(Violation("collinear-triple", triple))
    return _report(violations)


def _bounds_violations(points: list[GridPoint], w: int, h: int) -> list[Violation]:
    if not points:
        return []
    min_x = min(p.x for p in points)
    min_y = min(p.y for p in points)
    out = []
    for i, p in enumerate(points):
        sx = p.x - min_x + 1
        sy = p.y - min_y + 1
        if not (1 <= sx <= w and 1 <= sy <= h):
            out.append(Violation("out-of-bounds", (i,)))
    return out


def certify_bounds(emb: SimultaneousEmbedding, w: int, h: int) -> CertificateReport:
    """Check that the drawing fits a w x h grid once its minimum corner
    is translated to (1, 1)."""
    return _report(_bounds_violations(emb.coords, w, h))
