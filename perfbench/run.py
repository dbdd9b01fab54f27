"""The simembed benchmark: seeded workloads driven through ``simembed.cli_main``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload free-outerplanars --seed 1 --seconds 25 --trace 0

One process, one client, closed loop: each CLI call starts only after the
previous one returned, with no threads (the embedders are CPU-bound pure
Python).  Set-up imports the package from ``src/``, builds every instance
document from ``--seed`` and writes it to disk; ``setup_s`` is the median
of three set-ups.  The run then repeats a round, one pass over the
workload's steps, while ``--seconds`` last.  Every timing is rescaled to a
nominal host pace, read from a fixed piece of reference work timed between
steps, and an operation's latency is its median over the rounds.  Every
output is checked: exit code, certificate, the documented grid bound, and
for ``fivepaths`` the verdict and the exact placement count.

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` it reports the per-layer metrics, from rounds traced by
the wrappers in ``tracing.py``.  Metric names, units and directions come
from ``BENCHMARK.json``.  See ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import itertools
import json
import math
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import instances
from instances import Instance
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: Set-ups per run; setup_s is their median.
SETUPS = 3
#: Untraced and traced rounds of a traced run.
TRACE_ROUNDS = 1
VERDICT = "no counterexample: some path must cross"
#: Placements the exhaustive search checks for the bundled five paths.
EXHAUSTIVE_CHECKED = {3: 420, 4: 13680, 5: 268884}
#: Every workload runs all three commands, so that every end-to-end metric
#: is defined on each: the embedding workloads run a small exhaustive
#: search after every instance.
PROBE_GRID = 3
SAMPLED_SEARCH_SAMPLES = 5_000
#: Seconds ``reference_work`` takes on the nominal host.  Timings are
#: reported as if the host ran at that pace (see NOTES.md, "Host pace").
REF_SECONDS = 0.001

# Sizes are set by runtime: a run must finish enough operations in its
# time budget for the medians to settle across seeds (see NOTES.md).
OUTERPLANARS_N = 80
PLANAR_OUTERPLANAR_N = 60
GIVEN_SIZES = {"two-paths": 800, "path-caterpillar": 800, "two-caterpillars": 120}
#: Instances per round of each embedding workload.
OUTERPLANARS_POOL = 30
PLANAR_OUTERPLANAR_POOL = 100
GIVEN_POOL = 24


@dataclass
class Embed:
    inst: Instance


@dataclass
class Search:
    grid: int
    samples: Optional[int] = None
    seed: Optional[int] = None

    @property
    def expected_checked(self) -> int:
        return self.samples if self.samples is not None else EXHAUSTIVE_CHECKED[self.grid]


def _with_probes(embeds: list[Embed]) -> list:
    return [s for e in embeds for s in (e, Search(PROBE_GRID))]


def free_outerplanars(simembed, seed: int) -> list:
    return _with_probes([
        Embed(instances.build(
            simembed, "outerplanars", OUTERPLANARS_N, seed * 1000 + i, f"op{i}"
        ))
        for i in range(OUTERPLANARS_POOL)
    ])


def free_planar_outerplanar(simembed, seed: int) -> list:
    return _with_probes([
        Embed(instances.build(
            simembed, "planar-outerplanar", PLANAR_OUTERPLANAR_N, seed * 1000 + i, f"po{i}"
        ))
        for i in range(PLANAR_OUTERPLANAR_POOL)
    ])


def given_mapping(simembed, seed: int) -> list:
    kinds = list(GIVEN_SIZES)
    return _with_probes([
        Embed(instances.build(
            simembed, kinds[i % 3], GIVEN_SIZES[kinds[i % 3]], seed * 1000 + i,
            f"{kinds[i % 3]}{i}",
        ))
        for i in range(GIVEN_POOL)
    ])


def fivepaths(simembed, seed: int) -> list:
    pairs = [
        Embed(instances.five_path_pair(simembed, i, j))
        for i, j in itertools.combinations(range(5), 2)
    ]
    searches = [
        Search(4),
        Search(5),
        Search(9 + seed % 8, samples=SAMPLED_SEARCH_SAMPLES, seed=seed),
    ]
    return [s for k, pair in enumerate(pairs) for s in (searches[k % 3], pair)]


WORKLOADS = {
    "free-outerplanars": free_outerplanars,
    "free-planar-outerplanar": free_planar_outerplanar,
    "given-mapping": given_mapping,
    "fivepaths": fivepaths,
}


# ---------------------------------------------------------------------------
# host pace
# ---------------------------------------------------------------------------


def reference_work() -> int:
    """A fixed piece of pure-Python work that uses nothing of the package:
    tuple arithmetic, a dict histogram and a keyed sort, like the embedders."""
    pts = [((i * 7919) % 1009, (i * 6271) % 997) for i in range(1800)]
    hist: dict[int, int] = {}
    acc = 0
    for i in range(len(pts) - 2):
        (ax, ay), (bx, by), (cx, cy) = pts[i], pts[i + 1], pts[i + 2]
        cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        hist[cross % 101] = hist.get(cross % 101, 0) + 1
        acc += cross
    pts.sort(key=lambda p: (p[1], p[0]))
    return acc + sum(k * v for k, v in hist.items()) + pts[0][0]


def host_pace() -> float:
    """Seconds ``reference_work`` takes now: the median of three calls."""
    took = []
    for _ in range(3):
        start = time.perf_counter()
        reference_work()
        took.append(time.perf_counter() - start)
    return statistics.median(took)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def import_simembed():
    """Import the package fresh from this checkout's ``src/``."""
    for name in [m for m in sys.modules if m == "simembed" or m.startswith("simembed.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    simembed = importlib.import_module("simembed")
    if Path(simembed.__file__).resolve().parent != SRC / "simembed":
        raise ImportError(f"simembed imported from {simembed.__file__}, not {SRC}")
    return simembed


def build(simembed, workload: str, seed: int, out: Path) -> list:
    """The workload's steps; writes every instance document to ``out``."""
    steps = WORKLOADS[workload](simembed, seed)
    for step in steps:
        if isinstance(step, Embed):
            (out / f"{step.inst.name}.json").write_text(step.inst.text, encoding="utf-8")
    return steps


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


class Recorder:
    """Latencies of every operation, keyed by the step that ran it, and the
    outcome of every correctness check, over all rounds of a run.

    ``run_step`` leaves its wall-clock latencies pending; ``settle`` files
    them once the host's pace around the step is known."""

    def __init__(self) -> None:
        self.lat: dict[str, dict[int, list[float]]] = {
            op: defaultdict(list) for op in ("embed", "certify", "search")
        }
        self.wall: dict[str, dict[int, list[float]]] = {
            op: defaultdict(list) for op in ("embed", "certify", "search")
        }
        self.pending: list[tuple[str, int, float]] = []
        self.paces: list[float] = []
        self.vertices: dict[int, int] = {}
        self.area_log2: dict[int, float] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def settle(self, scale: float) -> None:
        """File the pending latencies, rescaled by ``scale`` to the nominal pace."""
        for op, key, dt in self.pending:
            self.wall[op][key].append(dt)
            self.lat[op][key].append(dt * scale)
        self.pending.clear()

    def typical(self, op: str, wall: bool = False) -> dict[int, float]:
        """Each step's median latency over the rounds."""
        lat = self.wall[op] if wall else self.lat[op]
        return {key: statistics.median(v) for key, v in lat.items()}


def _timed(cli_main, argv: list[str]) -> tuple[int, float]:
    start = time.perf_counter()
    rc = cli_main(argv)
    return rc, time.perf_counter() - start


def run_step(cli_main, step, key: int, out: Path, rec: Recorder) -> None:
    """Run one step's operations through the CLI and check their outputs."""
    if isinstance(step, Search):
        report = out / "fivepaths.json"
        report.unlink(missing_ok=True)
        argv = ["fivepaths", "--grid", str(step.grid), "--out", str(report)]
        if step.samples is not None:
            argv += ["--samples", str(step.samples), "--seed", str(step.seed)]
        rc, dt = _timed(cli_main, argv)
        rec.attempted += 1
        rec.pending.append(("search", key, dt))
        doc = json.loads(report.read_text()) if rc == 0 else {}
        checked = doc.get("search", {}).get("placements_checked")
        if rc != 0 or doc.get("verdict") != VERDICT or checked != step.expected_checked:
            rec.failures.append(
                f"fivepaths grid {step.grid}: exit {rc}, {doc.get('verdict')!r}, "
                f"checked {checked} != {step.expected_checked}"
            )
        return

    inst = step.inst
    doc_path = out / f"{inst.name}.json"
    result = out / f"{inst.name}.result.json"
    result.unlink(missing_ok=True)
    rc, dt = _timed(cli_main, ["embed", "--in", str(doc_path), "--out", str(result)])
    rec.attempted += 1
    rec.pending.append(("embed", key, dt))
    rec.vertices[key] = inst.n
    doc = json.loads(result.read_text()) if rc == 0 else {}
    if rc != 0 or not doc.get("certificate", {}).get("ok"):
        rec.failures.append(f"embed {inst.name}: exit {rc}")
        return
    rec.area_log2[key] = math.log2(doc["width"] * doc["height"])

    w, h = inst.bounds
    report = out / "certify.json"
    report.unlink(missing_ok=True)
    rc, dt = _timed(cli_main, [
        "certify", "--in", str(result), "--instance", str(doc_path),
        "--bounds", f"{w}x{h}", "--out", str(report),
    ])
    rec.attempted += 1
    rec.pending.append(("certify", key, dt))
    if rc != 0 or not json.loads(report.read_text()).get("ok"):
        rec.failures.append(f"certify {inst.name} within {w}x{h}: exit {rc}")


def run_steps(cli_main, steps: list, out: Path, rec: Recorder, tracer=None) -> None:
    """One round: every step in order, one at a time, with the host's pace
    read before and after each step.  The package's stderr is shown only
    when a check failed."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        pace = host_pace()
        for key, step in enumerate(steps):
            if tracer is not None:
                tracer.op = key
            run_step(cli_main, step, key, out, rec)
            after = host_pace()
            rec.paces.append(after)
            rec.settle(2 * REF_SECONDS / (pace + after))
            pace = after
    if rec.failures:
        print(stderr.getvalue(), end="", file=sys.stderr)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, int]:
    """The highest integer percentile, from 50 up, with at least ten samples
    above it (nearest rank), and that percentile.  With fewer than twenty
    samples no percentile qualifies: the maximum, and 0."""
    xs = sorted(values)
    n = len(xs)
    for q in range(99, 49, -1):
        rank = math.ceil(q * n / 100)
        if n - rank >= 10:
            return xs[rank - 1], q
    return xs[-1], 0


def end_to_end(rec: Recorder, setup_times: list[tuple[float, float]],
               rounds: int) -> tuple[dict, dict]:
    """The end-to-end metrics at the nominal pace; ``notes`` gives each its
    sample count and its wall-clock value."""
    values, notes = {}, {}
    for op, prefix in (("embed", "embed_s"), ("certify", "certify_s"), ("search", "search_s")):
        lat = list(rec.typical(op).values())
        wall = list(rec.typical(op, wall=True).values())
        values[f"{prefix}_p50"] = statistics.median(lat)
        values[f"{prefix}_tail"], q = tail(lat)
        notes[f"{prefix}_p50"] = (
            f"{len(lat)} operations, median of {rounds} rounds each; "
            f"wall {statistics.median(wall):.4g} s"
        )
        notes[f"{prefix}_tail"] = (
            f"p{q} of {len(lat)} operations" if q else f"max of {len(lat)} operations"
        ) + f"; wall {tail(wall)[0]:.4g} s"
    embeds = rec.typical("embed")
    values["embed_vertices_per_s"] = sum(rec.vertices[k] for k in embeds) / sum(embeds.values())
    values["setup_s"] = statistics.median(s for s, _ in setup_times)
    notes["setup_s"] = (
        f"median of {len(setup_times)} set-ups; "
        f"wall {statistics.median(w for _, w in setup_times):.4g} s"
    )
    values["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # Zero only when no embed succeeded, and then the run is not correct.
    values["grid_area_log2_mean"] = statistics.fmean(rec.area_log2.values() or [0.0])
    notes["grid_area_log2_mean"] = f"over {len(rec.area_log2)} results"
    notes["failure_rate"] = f"{len(rec.failures)} of {rec.attempted} operations"
    return values, notes


def per_layer(specs: list[dict], tracer: Tracer, overhead_s: float) -> dict:
    self_s = tracer.self_times()
    c = tracer.counts
    values = {}
    for name in (m["name"] for m in specs):
        if name == "trace.overhead_s":
            values[name] = overhead_s
        elif name == "mapped.scatter_accept_ratio":
            values[name] = c["mapped.scatter_points"] / max(c["mapped.scatter_candidates"], 1)
        elif name == "certify.pair_filter_ratio":
            values[name] = c["certify.conflict_tests"] / max(c["certify.edge_pairs"], 1)
        elif name.endswith("_s"):
            values[name] = self_s.get(name[:-2], 0.0)
        else:
            values[name] = c[name]
    return values


def print_table(workload: str, values: dict, specs: list[dict], notes: dict) -> None:
    print(f"workload {workload}")
    for spec in specs:
        name = spec["name"]
        print(f"  {name:38s} {values[name]:14.6g} {spec['unit']:11s} "
              f"{spec['better'] + ' is better':17s} {notes.get(name, '')}")


def print_shares(tracer: Tracer) -> None:
    self_s = tracer.self_times()
    total = sum(v for k, v in self_s.items() if k != "generate.layer")
    print("self time share of the traced operations:", file=sys.stderr)
    for name, v in sorted(self_s.items(), key=lambda kv: -kv[1]):
        if name != "generate.layer":
            print(f"  {name:38s} {v:10.4f} s {100 * v / total:6.1f} %", file=sys.stderr)
    for name in tracer.absent:
        print(f"  absent: {name}", file=sys.stderr)


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def measure(spec: dict, workload: str, seed: int, seconds: float, out: Path) -> dict:
    """Untraced run: SETUPS set-ups, then rounds over the workload's steps
    while the measured time lasts."""
    setup_times: list[tuple[float, float]] = []  # (at the nominal pace, wall)
    for _ in range(SETUPS):
        pace = host_pace()
        start = time.perf_counter()
        simembed = import_simembed()
        steps = build(simembed, workload, seed, out)
        took = time.perf_counter() - start
        pace = (pace + host_pace()) / 2
        setup_times.append((took * REF_SECONDS / pace, took))
    rec = Recorder()
    measured = rounds = 0
    while True:
        gc.collect()
        start = time.perf_counter()
        run_steps(simembed.cli_main, steps, out, rec)
        took = time.perf_counter() - start
        measured += took
        rounds += 1
        if measured + took > seconds:
            break
    values, notes = end_to_end(rec, setup_times, rounds)
    print(f"host pace: reference work took {1e3 * statistics.median(rec.paces):.4g} ms "
          f"(median of {len(rec.paces)} readings); timings are rescaled to "
          f"{1e3 * REF_SECONDS:g} ms")
    failure_rate = {"name": "failure_rate", "unit": "ratio", "better": "lower"}
    print_table(workload, {**values, "failure_rate": len(rec.failures) / rec.attempted},
                spec["end_to_end"] + [failure_rate], notes)
    return _result(rec, values, spec["end_to_end"])


def trace(spec: dict, workload: str, seed: int, out: Path) -> dict:
    """Traced run: TRACE_ROUNDS untraced rounds alternating with as many
    traced ones, after a traced set-up (for generate.layer_s).  Spans and
    counts cover the traced set-up and rounds; the overhead compares the
    embeds' traced and untraced latencies, both at the nominal pace."""
    simembed = import_simembed()
    steps = build(simembed, workload, seed, out)
    tracer = Tracer()
    plain, traced = Recorder(), Recorder()
    for round_ in range(TRACE_ROUNDS):
        gc.collect()
        run_steps(simembed.cli_main, steps, out, plain)
        tracer.install()
        try:
            if round_ == 0:
                build(simembed, workload, seed, out)
            gc.collect()
            run_steps(tracer.span("cli.main", simembed.cli_main), steps, out, traced,
                      tracer=tracer)
        finally:
            tracer.restore()
    tracer.write(out / "trace.json")
    overhead = sum(traced.typical("embed").values()) - sum(plain.typical("embed").values())
    values = per_layer(spec["per_layer"], tracer, overhead)
    print_shares(tracer)
    print_table(workload, values, spec["per_layer"], {})
    traced.attempted += plain.attempted
    traced.failures += plain.failures
    return _result(traced, values, spec["per_layer"])


def _result(rec: Recorder, values: dict, specs: list[dict]) -> dict:
    for what in rec.failures:
        print(f"FAILED: {what}", file=sys.stderr)
    return {
        "correct": not rec.failures,
        "attempted": rec.attempted,
        "failed": len(rec.failures),
        "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "simembed" / "__init__.py").is_file():
        print(f"error: no simembed sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    if args.trace:
        result = trace(spec, args.workload, args.seed, out)
    else:
        result = measure(spec, args.workload, args.seed, args.seconds, out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
