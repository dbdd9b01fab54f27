"""JSON serialization of instances, results, and certificates.

Documents are strict: unknown fields are rejected so that typos in
fixtures fail loudly instead of being ignored.  Integers are checked with
``type(x) is int``: JSON true and false load as bool, which ``isinstance``
would count as the integers 1 and 0.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, NamedTuple, Optional

from .certify import CertificateReport
from .errors import InvalidInstanceError, ParseError
from .graphs import LAYER_CLASSES, Layer, LayeredInstance, SimultaneousEmbedding, validate_instance

_INSTANCE_KEYS = {"n", "mapping", "layers"}
_LAYER_KEYS = {"class", "edges", "rotation", "outer_cycle"}
_RESULT_KEYS = {"coords", "width", "height", "assignments", "certificate"}


def _require_keys(obj: dict, allowed: set[str], what: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ParseError(f"unknown {what} fields: {sorted(unknown)}")


def _int_pair_list(value: Any, what: str) -> list[list[int]]:
    """``value`` itself, once checked to be a list of two-integer lists."""
    if not isinstance(value, list):
        raise ParseError(f"{what} must be a list of pairs")
    for item in value:
        if (
            not isinstance(item, list)
            or len(item) != 2
            or type(item[0]) is not int
            or type(item[1]) is not int
        ):
            raise ParseError(f"{what} entries must be integer pairs")
    return value


def _loads(text: str | bytes) -> Any:
    # JSONDecodeError is a ValueError, and so are a bytes document that is
    # not UTF-8 and an integer literal over CPython's digit limit; nesting
    # deeper than the recursion limit raises RecursionError.
    try:
        return json.loads(text)
    except (RecursionError, ValueError) as exc:
        raise ParseError(f"malformed JSON: {exc}") from exc


def parse_instance(text: str | bytes) -> LayeredInstance:
    """Parse and validate an instance document."""
    data = _loads(text)
    if not isinstance(data, dict):
        raise ParseError("instance document must be a JSON object")
    _require_keys(data, _INSTANCE_KEYS, "instance")
    for key in ("n", "mapping", "layers"):
        if key not in data:
            raise ParseError(f"instance document missing {key!r}")
    n = data["n"]
    if type(n) is not int or n < 1:
        raise ParseError("n must be a positive integer")
    mapping = data["mapping"]
    if mapping not in ("given", "free"):
        raise ParseError("mapping must be 'given' or 'free'")
    if not isinstance(data["layers"], list) or not data["layers"]:
        raise ParseError("layers must be a non-empty list")
    layers = []
    for li, raw in enumerate(data["layers"]):
        if not isinstance(raw, dict):
            raise ParseError(f"layer {li} must be an object")
        _require_keys(raw, _LAYER_KEYS, f"layer {li}")
        if "class" not in raw or raw["class"] not in LAYER_CLASSES:
            raise ParseError(
                f"layer {li} needs a class among {sorted(LAYER_CLASSES)}"
            )
        edges = list(map(tuple, _int_pair_list(raw.get("edges", []), f"layer {li} edges")))
        rotation = None
        if "rotation" in raw and raw["rotation"] is not None:
            rotation = raw["rotation"]
            if not isinstance(rotation, list) or not all(
                isinstance(r, list) and all(type(x) is int for x in r)
                for r in rotation
            ):
                raise ParseError(f"layer {li} rotation must be integer lists")
        outer_cycle = None
        if "outer_cycle" in raw and raw["outer_cycle"] is not None:
            outer_cycle = raw["outer_cycle"]
            if not isinstance(outer_cycle, list) or not all(type(x) is int for x in outer_cycle):
                raise ParseError(f"layer {li} outer_cycle must be integers")
        layers.append(
            Layer(kind=raw["class"], edges=edges, rotation=rotation, outer_cycle=outer_cycle)
        )
    inst = LayeredInstance(n=n, layers=layers, mapping=mapping)
    try:
        validate_instance(inst)
    except InvalidInstanceError as exc:
        raise ParseError(str(exc)) from exc
    return inst


def _dumps(obj: Any) -> str:
    """The JSON text of ``obj`` indented by 2 with sorted keys, byte for
    byte what ``json.dumps`` writes with those settings, for any value
    whose dict keys are strings, as in every document of the package.

    The standard library writes indented JSON with its pure-Python encoder;
    this one builds each nested level with ``str.join``.  A list of exact
    ints (``type(x) is int``, so no bools) and a list of exact-int pairs,
    such as edges, are written in one join each, and so are
    :class:`_PairColumns`, a drawing's coordinates.  Strings, floats, bools
    and None go to ``json.dumps``.
    """
    return _dumps_at(obj, "\n")


class _PairColumns(NamedTuple):
    """Two int columns that :func:`_dumps_at` writes as the list of their
    ``[x, y]`` pairs with no check, for a drawing, whose columns
    :class:`SimultaneousEmbedding` has checked to be exact ints."""

    xs: list[int]
    ys: list[int]


def _pairs_at(pairs: Iterable[tuple[int, int]], nl: str) -> str:
    # a non-empty run of int pairs as a list of two-element lists
    p1 = nl + "  "
    p2 = p1 + "  "
    pair = "[" + p2 + "%d," + p2 + "%d" + p1 + "]"
    return "[" + p1 + ("," + p1).join(map(pair.__mod__, pairs)) + nl + "]"


def _dumps_at(obj: Any, nl: str) -> str:
    # nl is a newline plus the indentation of the line obj starts on.
    if type(obj) is _PairColumns:
        return _pairs_at(zip(obj.xs, obj.ys), nl) if obj.xs else "[]"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        p1 = nl + "  "
        if all(type(x) is int for x in obj):
            return "[" + p1 + ("," + p1).join(map(str, obj)) + nl + "]"
        if all(
            type(p) is list and len(p) == 2 and type(p[0]) is int and type(p[1]) is int
            for p in obj
        ):
            return _pairs_at(map(tuple, obj), nl)
        return "[" + p1 + ("," + p1).join([_dumps_at(x, p1) for x in obj]) + nl + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        p1 = nl + "  "
        return "{" + p1 + ("," + p1).join(
            [json.dumps(k) + ": " + _dumps_at(v, p1) for k, v in sorted(obj.items())]
        ) + nl + "}"
    return json.dumps(obj)


def instance_to_json(inst: LayeredInstance) -> dict:
    layers = []
    for layer in inst.layers:
        raw: dict[str, Any] = {"class": layer.kind, "edges": [list(e) for e in layer.edges]}
        if layer.rotation is not None:
            raw["rotation"] = [list(r) for r in layer.rotation]
        if layer.outer_cycle is not None:
            raw["outer_cycle"] = list(layer.outer_cycle)
        layers.append(raw)
    return {"n": inst.n, "mapping": inst.mapping, "layers": layers}


def serialize_instance(inst: LayeredInstance) -> str:
    return _dumps(instance_to_json(inst)) + "\n"


def result_to_json(
    emb: SimultaneousEmbedding, certificate: Optional[CertificateReport] = None
) -> dict:
    doc = _result_doc(emb, certificate)
    doc["coords"] = list(map(list, zip(emb.xs, emb.ys)))
    return doc


def _result_doc(emb: SimultaneousEmbedding, certificate: Optional[CertificateReport]) -> dict:
    # the result document with its coords still as the drawing's columns
    doc: dict[str, Any] = {
        "coords": _PairColumns(emb.xs, emb.ys),
        "width": emb.width,
        "height": emb.height,
        "assignments": emb.assignments,
    }
    if certificate is not None:
        doc["certificate"] = certificate.to_json()
    return doc


def serialize_result(
    emb: SimultaneousEmbedding, certificate: Optional[CertificateReport] = None
) -> str:
    return _dumps(_result_doc(emb, certificate)) + "\n"


def parse_result(
    text: str | bytes,
) -> tuple[SimultaneousEmbedding, Optional[CertificateReport]]:
    """Rebuild an embedding and its stored certificate from a result document."""
    data = _loads(text)
    if not isinstance(data, dict):
        raise ParseError("result document must be a JSON object")
    _require_keys(data, _RESULT_KEYS, "result")
    for key in ("coords", "width", "height"):
        if key not in data:
            raise ParseError(f"result document missing {key!r}")
    assignments = data.get("assignments")
    coords = _int_pair_list(data["coords"], "coords")
    xs, ys = [x for x, _ in coords], [y for _, y in coords]
    emb = SimultaneousEmbedding(xs=xs, ys=ys, assignments=assignments)
    for key, extent in (("width", emb.width), ("height", emb.height)):
        if type(data[key]) is not int or data[key] < 1:
            raise ParseError(f"{key} must be a positive integer")
        # the embedding reads its extent off the points, so the document may not claim another
        if xs and data[key] != extent:
            raise ParseError(f"{key} {data[key]} is not the coordinates' extent {extent}")
    if assignments is not None and not (
        isinstance(assignments, list)
        and all(isinstance(a, list) and all(type(x) is int for x in a) for a in assignments)
    ):
        raise ParseError("assignments must be lists of integers")
    cert = None
    if data.get("certificate") is not None:
        try:
            cert = CertificateReport.from_json(data["certificate"])
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed certificate: {exc!r}") from exc
    return emb, cert
