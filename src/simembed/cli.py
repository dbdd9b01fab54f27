"""Command-line surface.

Subcommands: ``embed`` (dispatch on layer classes and mapping mode),
``certify`` (re-check a result document), ``render`` (SVG), ``gen``
(random instances), and ``fivepaths`` (pair coverage plus the exhaustive
placement search).  ``_EMBEDDERS`` lists what ``embed`` and ``gen`` take:
the kinds ``gen`` writes and, for a given mapping, the layer classes
``embed`` accepts.  Exit codes: 0 success with ok certificate, 2 the
instance is unsupported/invalid or a certificate failed, 1 usage or I/O
error or out of memory.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import sys
import threading
from typing import Optional

from . import certify as certify_mod
from .documents import (
    _dumps,
    parse_instance,
    parse_result,
    serialize_instance,
    serialize_result,
)
from .errors import ParseError, SimembedError, UnsupportedInstanceError
from .generate import generate
from .geometry import COORD_LIMIT
from .graphs import (
    LayeredInstance,
    SimultaneousEmbedding,
    _caterpillar,
    _path_order,
    validate_instance,
)
from .mapped import (
    _check_path_caterpillar_budget,
    _check_two_caterpillar_budget,
    _check_two_path_budget,
    embed_path_caterpillar,
    embed_two_caterpillars,
    embed_two_paths,
)
from .smallcases import (
    FIVE_PATHS,
    exhaustive_five_point_check,
    five_path_pair_coverage,
    PairCoverage,
    path_from_digits,
)
from .svg import render_svg
from .unmapped import (
    _check_general_position_budget,
    _check_parabola_budget,
    simul_embed_free,
)


def _read(path: str) -> str:
    try:
        if path == "-":
            # the text layer's error handler depends on the locale
            return sys.stdin.buffer.read().decode("utf-8")
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        where = "stdin" if path == "-" else path
        raise ParseError(f"{where} is not UTF-8 text: {exc}") from exc


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _parse_bounds(text: Optional[str]) -> Optional[tuple[int, int]]:
    if text is None:
        return None
    try:
        w, h = map(int, text.lower().split("x"))
    except ValueError:
        raise ParseError(f"--bounds expects WxH, got {text!r}")
    if w < 1 or h < 1:
        raise ParseError(f"--bounds expects a positive width and height, got {text!r}")
    return w, h


# What embed and gen take, one row per gen kind: the mapping, the layer
# classes gen writes (None: --layers outerplanars), the budget check the
# embedder runs first, and a given mapping's embedder, which takes its
# layers sorted by class and already validated.  The lambdas look the
# embedders up in this module when called, so a patch of one here runs.
_EMBEDDERS = {
    "two-paths": (
        "given", ("path", "path"), _check_two_path_budget,
        lambda a, b, n: embed_two_paths(_path_order(a, n), _path_order(b, n)),
    ),
    "two-caterpillars": (
        "given", ("caterpillar", "caterpillar"), _check_two_caterpillar_budget,
        lambda a, b, n: embed_two_caterpillars(_caterpillar(a, n), _caterpillar(b, n)),
    ),
    "path-caterpillar": (
        "given", ("path", "caterpillar"), _check_path_caterpillar_budget,
        lambda c, p, n: embed_path_caterpillar(_path_order(p, n), _caterpillar(c, n))[0],
    ),
    "outerplanars": ("free", None, _check_parabola_budget, None),
    "planar-outerplanar": ("free", ("planar", "outerplanar"), _check_general_position_budget, None),
}
# The given-mapping embedders by sorted classes, and each class's generator.
_GIVEN = {tuple(sorted(c)): embed for m, c, _, embed in _EMBEDDERS.values() if m == "given"}
_GEN_LAYER = {"path": "path", "caterpillar": "caterpillar",
              "planar": "plane-triangulation", "outerplanar": "maximal-outerplanar"}


def _dispatch_embed(inst: LayeredInstance) -> SimultaneousEmbedding:
    if inst.mapping == "free":
        return simul_embed_free(inst.layers, inst.n)
    # Each embedder takes its layers in class order; the sort is stable, so
    # two layers of one class keep the instance's order.
    layers = sorted(inst.layers, key=lambda layer: layer.kind)
    embed = _GIVEN.get(tuple(layer.kind for layer in layers))
    if embed is None:
        kinds = [layer.kind for layer in inst.layers]
        supported = ", ".join("+".join(classes) for classes in _GIVEN)
        raise UnsupportedInstanceError(
            f"no with-mapping embedder for classes {kinds}; supported: {supported}"
        )
    return embed(*layers, inst.n)


def _cmd_embed(args: argparse.Namespace) -> int:
    inst = parse_instance(_read(args.infile))
    emb = _dispatch_embed(inst)
    bounds = _parse_bounds(args.bounds)
    report = certify_mod.certify_embedding(emb, inst, bounds=bounds)
    _write(args.out, serialize_result(emb, report))
    if args.svg:
        _write(args.svg, render_svg(emb, inst))
    if not report.ok:
        print("certificate FAILED:", report.to_json(), file=sys.stderr)
        return 2
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    inst = parse_instance(_read(args.instance))
    emb, _stored = parse_result(_read(args.infile))
    bounds = _parse_bounds(args.bounds)
    report = certify_mod.certify_embedding(emb, inst, bounds=bounds)
    _write(args.out, _dumps(report.to_json()) + "\n")
    if not report.ok:
        print("certificate FAILED:", report.to_json(), file=sys.stderr)
        return 2
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    inst = parse_instance(_read(args.instance))
    emb, _stored = parse_result(_read(args.infile))
    certify_mod.check_embedding_shape(emb, inst)
    _write(args.svg, render_svg(emb, inst))
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.kind not in _EMBEDDERS:
        raise SimembedError(
            f"unknown kind {args.kind!r}; choose from {sorted(_EMBEDDERS)}"
        )
    mapping, classes, check_budget, _embed = _EMBEDDERS[args.kind]
    check_budget(args.n)  # before generating: embed would refuse this n
    if classes is None:
        if args.layers > COORD_LIMIT:
            raise ParseError(f"--layers expects at most 2^40 layers, got {args.layers}")
        # a count below one makes no layers, which validate_instance refuses;
        # clamping first keeps a count below -2^63 from overflowing the repeat
        classes = ["outerplanar"] * max(args.layers, 0)
    layers = [generate(_GEN_LAYER[c], args.n, args.seed + i) for i, c in enumerate(classes)]
    inst = LayeredInstance(n=args.n, layers=layers, mapping=mapping)
    validate_instance(inst)  # write nothing that embed would reject
    _write(args.out, serialize_instance(inst))
    return 0


def _cmd_fivepaths(args: argparse.Namespace) -> int:
    digits = args.paths.split(",") if args.paths is not None else list(FIVE_PATHS)
    paths = [path_from_digits(d.strip()) for d in digits]
    report: dict = {"paths": [d.strip() for d in digits], "grid": args.grid}
    if len(paths) == 5:
        cov = five_path_pair_coverage(paths)
        report["coverage"] = {
            "all_covered": cov.all_covered,
            "pairs": {
                PairCoverage.label(pair): covered
                for pair, covered in zip(cov.pairs, cov.covered_by)
            },
            "per_path": cov.per_path_counts(len(paths)),
        }
    result = exhaustive_five_point_check(args.grid, paths, samples=args.samples)
    report["search"] = {
        "exhaustive": result.exhaustive,
        "placements_checked": result.placements_checked,
        "counterexample": None
        if result.counterexample is None
        else [[p.x, p.y] for p in result.counterexample],
    }
    verdict = (
        "no counterexample: some path must cross"
        if result.counterexample is None
        else "counterexample found: all paths embed"
    )
    report["verdict"] = verdict
    _write(args.out, _dumps(report) + "\n")
    print(verdict, file=sys.stderr)
    return 0


# Built once per process, on the first call, and shared: parse_args does
# not change the parser, and each handler looks up what it calls on this
# module when it runs, so a patched module attribute is the one that runs.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simembed",
        description="Simultaneous grid embeddings of layered graphs, certified exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_embed = sub.add_parser("embed", help="embed an instance document")
    p_embed.add_argument("--in", dest="infile", default="-")
    p_embed.add_argument("--out", default="-")
    p_embed.add_argument("--svg", default=None)
    p_embed.add_argument("--bounds", default=None, help="WxH grid bound to certify")
    p_embed.set_defaults(func=_cmd_embed)

    p_cert = sub.add_parser("certify", help="re-check a result document")
    p_cert.add_argument("--in", dest="infile", default="-")
    p_cert.add_argument("--instance", required=True)
    p_cert.add_argument("--out", default="-")
    p_cert.add_argument("--bounds", default=None)
    p_cert.set_defaults(func=_cmd_certify)

    p_render = sub.add_parser("render", help="render a result document as SVG")
    p_render.add_argument("--in", dest="infile", default="-")
    p_render.add_argument("--instance", required=True)
    p_render.add_argument("--svg", default="-")
    p_render.set_defaults(func=_cmd_render)

    p_gen = sub.add_parser("gen", help="generate a random instance")
    p_gen.add_argument("--kind", required=True, help=", ".join(sorted(_EMBEDDERS)))
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--layers", type=int, default=3, help="layer count for outerplanars")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", default="-")
    p_gen.set_defaults(func=_cmd_gen)

    p_five = sub.add_parser("fivepaths", help="pair coverage and placement search")
    p_five.add_argument("--grid", type=int, default=5)
    p_five.add_argument("--paths", default=None, help="comma-separated digit strings")
    p_five.add_argument("--samples", type=int, default=None)
    # nothing is drawn any more, so --seed changes no result; it is still
    # accepted, so that existing command lines keep working
    p_five.add_argument("--seed", type=int, default=0)
    p_five.add_argument("--out", default="-")
    p_five.set_defaults(func=_cmd_fivepaths)
    return parser


# A command's documents and drawings, millions of objects at large n, live
# until it returns, and the cyclic GC would scan them over and over.
# So cli_main pauses automatic collection for the command's lifetime and
# then restores the state it found.  gc.freeze() after parsing would also
# spare those scans, but the benchmark and the tests call cli_main
# thousands of times in one process, and cyclic garbage that has been
# frozen is never reclaimed.  The collector's switch is process-wide, and
# so are the lock and depth count: the outermost of concurrent commands on
# threads restores the state, so no interleaving leaves collection off.
# Library callers of the embedders and the certifier keep the
# interpreter's policy.
_gc_lock = threading.Lock()
_gc_depth = 0
_gc_was_enabled = False


@contextlib.contextmanager
def _cyclic_gc_paused():
    global _gc_depth, _gc_was_enabled
    with _gc_lock:
        if not _gc_depth:
            _gc_was_enabled = gc.isenabled()
            gc.disable()
        _gc_depth += 1
    try:
        yield
    finally:
        with _gc_lock:
            _gc_depth -= 1
            if not _gc_depth and _gc_was_enabled:
                gc.enable()


def cli_main(argv: Optional[list[str]] = None) -> int:
    with _cyclic_gc_paused():
        return _run(argv)


def _run(argv: Optional[list[str]]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        # argparse in CPython 3.11 parses "--flag=--" to an empty list, not
        # to the string "--", and no option here takes a list
        if any(isinstance(value, list) for value in vars(args).values()):
            parser.error("an option's value cannot be '--'")
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (OSError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        # the input was admitted; like an I/O error, the host is at fault
        size = f" at n = {args.n}" if hasattr(args, "n") else ""
        print(f"error: {args.command}{size} ran out of memory", file=sys.stderr)
        return 1
    except SimembedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
