"""Checks of the benchmark's own machinery.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import instances  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def simembed():
    return run.import_simembed()


def _traced(simembed, workload: str, seed: int, count: int, out: Path):
    steps = run.build(simembed, workload, seed, out)
    tracer = Tracer()
    tracer.install()
    try:
        rec = run.Recorder()
        run.run_steps(tracer.span("cli.main", simembed.cli_main), steps[:count],
                      out, rec, tracer=tracer)
    finally:
        tracer.restore()
    assert not rec.failures
    return tracer


@pytest.mark.parametrize(
    "workload, key",
    [
        ("free-planar-outerplanar", "mapped.scatter_candidates"),
        ("free-outerplanars", "unmapped.split_rule_p"),
    ],
)
def test_counts_repeat_exactly_for_one_seed(simembed, tmp_path, workload, key):
    first = _traced(simembed, workload, 3, 4, tmp_path).counts
    second = _traced(simembed, workload, 3, 4, tmp_path).counts
    assert first == second
    assert first[key] > 0
    rules = ("unmapped.split_rule_p", "unmapped.split_rule_q", "unmapped.split_sweep")
    assert first["unmapped.split_calls"] == sum(first[r] for r in rules)


def test_scatter_candidates_follow_the_offset_scan(simembed):
    mapped = importlib.import_module("simembed.mapped")
    points = [simembed.GridPoint(x, y) for x, y in [(0, 0), (1, 1), (2, 2), (3, 3), (1, 2)]]
    m = max(3, len(points))
    centers = [(p.x * (2 * m + 1), p.y * (2 * m * m + 1)) for p in points]
    tracer = Tracer()
    tracer.patch("simembed.mapped", "_scatter_general_position",
                 lambda fn: tracer.span("mapped.scatter", fn, tracer._count_scatter))
    try:
        out = mapped.refine_general_position(points, 3)
    finally:
        tracer.restore()
    order = list(mapped._offset_scan(m, m * m))
    expected = sum(order.index((p.x - cx, p.y - cy)) + 1 for (cx, cy), p in zip(centers, out))
    assert tracer.counts["mapped.scatter_points"] == len(points)
    assert tracer.counts["mapped.scatter_candidates"] == expected
    assert expected > len(points)  # the collinear diagonal forces rejections


def test_absent_wrapped_name_is_reported_not_raised(simembed, monkeypatch):
    monkeypatch.delattr(importlib.import_module("simembed.unmapped"), "_select_split")
    tracer = Tracer()
    tracer.install()
    tracer.restore()
    assert tracer.absent == ["simembed.unmapped._select_split"]


def test_gate_counts_an_exceeded_bound_as_a_failure(simembed, tmp_path):
    inst = instances.five_path_pair(simembed, 0, 1)
    (tmp_path / f"{inst.name}.json").write_text(inst.text)
    rec = run.Recorder()
    run.run_step(simembed.cli_main, run.Embed(inst), 0, tmp_path, rec)
    assert rec.attempted == 2 and not rec.failures
    inst.bounds = (4, 4)
    run.run_step(simembed.cli_main, run.Embed(inst), 0, tmp_path, rec)
    assert len(rec.failures) == 1 and "within 4x4" in rec.failures[0]


def test_gate_checks_the_exact_placement_count(simembed, tmp_path, monkeypatch):
    rec = run.Recorder()
    run.run_step(simembed.cli_main, run.Search(3), 0, tmp_path, rec)
    run.run_step(simembed.cli_main, run.Search(9, samples=50, seed=1), 1, tmp_path, rec)
    assert rec.attempted == 2 and not rec.failures
    monkeypatch.setitem(run.EXHAUSTIVE_CHECKED, 3, run.EXHAUSTIVE_CHECKED[3] + 1)
    run.run_step(simembed.cli_main, run.Search(3), 0, tmp_path, rec)
    assert len(rec.failures) == 1


def test_thinned_plane_layer_stays_a_connected_plane_embedding(simembed):
    n = 30
    tri = simembed.generate("plane-triangulation", n, 5)
    thin = instances.thin_plane(tri, n, instances.PLANE_EDGE_DROP, instances._rng(5))
    assert len(thin.edges) == len(tri.edges) - int(instances.PLANE_EDGE_DROP * len(tri.edges))
    simembed.check_plane_embedding(thin, n)


def test_tail_is_the_highest_percentile_with_ten_samples_above():
    assert run.tail([float(x) for x in range(1, 101)]) == (90.0, 90)
    assert run.tail([float(x) for x in range(1, 41)]) == (30.0, 75)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 0)


def test_latencies_are_rescaled_to_the_nominal_pace_and_take_the_median():
    rec = run.Recorder()
    for dt, scale in ((0.2, 0.5), (0.1, 1.0), (0.9, 0.5)):
        rec.pending.append(("embed", 0, dt))
        rec.settle(scale)
    assert rec.typical("embed") == {0: 0.1}
    assert rec.typical("embed", wall=True) == {0: 0.2}
    assert not rec.pending
