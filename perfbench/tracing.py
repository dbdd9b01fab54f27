"""Span tracer that wraps package functions from outside the package.

Each wrapper replaces a module attribute at the place where the caller
looks it up (``simembed.cli.parse_instance``, not only
``simembed.documents.parse_instance``), so nothing under ``src/`` changes.
Spans stay in memory as ``[name, start, end, parent, op]`` records and are
written out once, when the run ends.  A span's self time is its duration
minus the durations of its direct children.

Counters are derived from arguments and return values only:

* scatter candidates: every point ``_scatter_general_position`` returns
  sits at some offset from its cell centre; its rank in the scan order of
  ``mapped._offset_scan`` (dy = 0, +1, -1, ... outside, dx likewise inside)
  plus one is the number of candidates tried for it;
* split rule: the number of ``_one_side_of`` calls made inside one
  ``_select_split``: 1 means the rank around p fired, 2 the mirror rank
  around q, 3 or more the full sweep.

A wrapped name that the package no longer defines is recorded as absent
and its metrics read zero; the tracer never raises for it.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict


#: ``_one_side_of`` calls inside one ``_select_split`` -> the rule that fired.
_SPLIT_RULES = {1: "unmapped.split_rule_p", 2: "unmapped.split_rule_q"}


def _scan_rank(d: int) -> int:
    # Position of offset d in the sequence 0, +1, -1, +2, -2, ...
    return 2 * d - 1 if d > 0 else -2 * d


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, parent index, op id]; a span is appended when
        # it opens, so parents always precede their children.
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def span(self, name: str, fn, on_return=None):
        spans, stack = self.spans, self._stack
        tracer = self

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(args, result)
            return result

        return wrapper

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _parent, _op) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "absent": self.absent,
                    "counts": dict(self.counts),
                    "span_fields": ["name", "start", "end", "parent", "op"],
                    "spans": self.spans,
                },
                fh,
            )

    # -- installing wrappers ----------------------------------------------

    def patch(self, module: str, attr: str, make) -> None:
        mod = importlib.import_module(module)
        fn = getattr(mod, attr, None)
        if fn is None:
            if f"{module}.{attr}" not in self.absent:
                self.absent.append(f"{module}.{attr}")
            return
        self._patched.append((mod, attr, fn))
        setattr(mod, attr, make(fn))

    def restore(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics read."""
        c = self.counts
        sp = self.span

        def spans(name, *places, on_return=None):
            for module, attr in places:
                self.patch(module, attr, lambda fn: sp(name, fn, on_return))

        def add(key, value):
            c[key] += value

        spans("cli.dispatch", ("simembed.cli", "_dispatch_embed"))
        spans("documents.parse_instance", ("simembed.cli", "parse_instance"))
        spans("documents.parse_result", ("simembed.cli", "parse_result"))
        spans("documents.serialize_result", ("simembed.cli", "serialize_result"),
              on_return=lambda a, r: add("documents.result_bytes", len(r.encode())))
        spans("graphs.validate_instance", ("simembed.documents", "validate_instance"))
        dummies = lambda a, r: add("graphs.dummy_edges", len(r[1]))
        spans("graphs.triangulate_plane", ("simembed.unmapped", "triangulate_plane"),
              on_return=dummies)
        spans("graphs.maximalize_outerplanar",
              ("simembed.unmapped", "maximalize_outerplanar"), on_return=dummies)
        spans("generate.layer", ("simembed.generate", "generate"))
        spans("mapped.scatter", ("simembed.mapped", "_scatter_general_position"),
              ("simembed.unmapped", "_scatter_general_position"),
              on_return=self._count_scatter)
        spans("mapped.embed_two_paths", ("simembed.cli", "embed_two_paths"),
              ("simembed.mapped", "embed_two_paths"))
        spans("mapped.embed_path_caterpillar", ("simembed.cli", "embed_path_caterpillar"),
              on_return=lambda a, r: add("mapped.path_caterpillar_shifts", r[1]))
        spans("mapped.embed_two_caterpillars", ("simembed.cli", "embed_two_caterpillars"))
        spans("mapped.five_point_search", ("simembed.cli", "exhaustive_five_point_check"),
              on_return=lambda a, r: add("mapped.placements_checked", r.placements_checked))
        spans("unmapped.planar_grid_draw", ("simembed.unmapped", "planar_grid_draw"))
        spans("unmapped.parabola_pointset", ("simembed.unmapped", "parabola_pointset"))
        spans("unmapped.embed_outerplanar_on_points",
              ("simembed.unmapped", "embed_outerplanar_on_points"))
        self.patch("simembed.unmapped", "_select_split", self._wrap_split)
        self.patch("simembed.unmapped", "_one_side_of", self._counter("unmapped.one_side_calls"))
        spans("geometry.find_collinear_triple",
              ("simembed.unmapped", "find_collinear_triple"))
        spans("geometry.convex_hull", ("simembed.unmapped", "convex_hull"))
        spans("certify.certify_embedding", ("simembed.certify", "certify_embedding"))
        self.patch("simembed.certify", "_layer_crossings", self._wrap_layer_crossings)
        self.patch("simembed.certify", "_conflict_raw", self._counter("certify.conflict_tests"))

    # -- counters ----------------------------------------------------------

    def _count_scatter(self, args, points) -> None:
        centers, half_w, half_h = args
        row = 2 * half_w + 1
        tried = 0
        for (cx, cy), p in zip(centers, points):
            tried += _scan_rank(p.y - cy) * row + _scan_rank(p.x - cx) + 1
        self.counts["mapped.scatter_points"] += len(points)
        self.counts["mapped.scatter_candidates"] += tried

    def _counter(self, key: str):
        counts = self.counts

        def make(fn):
            def wrapper(*args):
                counts[key] += 1
                return fn(*args)

            return wrapper

        return make

    def _wrap_split(self, fn):
        counts = self.counts
        inner = self.span("unmapped.split", fn)

        def wrapper(*args):
            before = counts["unmapped.one_side_calls"]
            result = inner(*args)
            calls = counts["unmapped.one_side_calls"] - before
            counts["unmapped.split_calls"] += 1
            counts[_SPLIT_RULES.get(calls, "unmapped.split_sweep")] += 1
            return result

        return wrapper

    def _wrap_layer_crossings(self, fn):
        counts = self.counts

        def wrapper(*args):
            m = len(args[2])
            counts["certify.edges"] += m
            counts["certify.edge_pairs"] += m * (m - 1) // 2
            return fn(*args)

        return wrapper
