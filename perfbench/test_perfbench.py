"""Self-tests of the benchmark harness.

Run from the repository root (not part of the tier-1 suite)::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import grids, layers, spans
from perfbench.grids import check_points
from perfbench.run import end_to_end
from perfbench.spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD = "mysql_sibench"


@pytest.fixture(autouse=True)
def isolated(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_RUN_DIR", str(tmp_path / "runs"))
    from repro.experiments import diskcache

    previous = diskcache.set_cache_dir(tmp_path / "cache")
    yield tmp_path
    diskcache.set_cache_dir(previous)


def simulate_point(prefetcher="hierarchical", probe_interval=0):
    from repro.cpu.simulator import simulate
    from repro.prefetchers import make_prefetcher
    from repro.workloads.cache import get_trace

    trace = get_trace(WORKLOAD, scale="tiny", seed=3)
    return simulate(trace, prefetcher=make_prefetcher(prefetcher),
                    probe_interval=probe_interval)


def owned_callables():
    out = {}
    for module_name, owner_name, attr, _ in spans.TARGETS:
        module = importlib.import_module(module_name)
        owner = getattr(module, owner_name) if owner_name else module
        out[(module_name, owner_name, attr)] = vars(owner).get(attr)
    return out


def test_wrappers_keep_stats_identical_and_restore_callables():
    before = owned_callables()
    untraced = grids.stats_digest(simulate_point(probe_interval=20_000))
    tracer = Tracer()
    with tracer:
        assert owned_callables() != before
        traced = grids.stats_digest(simulate_point(probe_interval=20_000))
    after = owned_callables()
    assert all(after[key] is before[key] for key in before)
    assert traced == untraced
    assert grids.stats_digest(simulate_point(probe_interval=20_000)) \
        == untraced
    assert tracer.calls("cpu.probes.fire") > 0
    assert tracer.calls("frontend.tage") > 0


#: Run-level values a traced run supplies to ``layer_metrics``.
RUN_VALUES = {"trace.overhead_pct": 0.0,
              "experiments.service.overhead_s": 0.0,
              "experiments.service.retry_ratio": 0.0}


def test_reported_self_times_reconcile_to_traced_wall():
    tracer = Tracer()
    with tracer:
        tracer.root(simulate_point)
    metrics = layers.layer_metrics(tracer, [], RUN_VALUES)
    wall = metrics["trace.wall_s"][0]
    assert wall > 0
    assert metrics["trace.reconcile_error_pct"][0] < 1e-6
    # Spans cover the work: the harness residual is small.
    assert metrics["trace.harness_self_s"][0] < 0.05 * wall


def test_unreported_span_shows_as_reconcile_error():
    import time

    tracer = Tracer()
    with tracer:
        unlisted = tracer.wrap("frontend.unlisted",
                               lambda: time.sleep(0.1))
        tracer.root(lambda: (simulate_point(), unlisted()))
    metrics = layers.layer_metrics(tracer, [], RUN_VALUES)
    share = 100.0 * tracer.self_s("frontend.unlisted") \
        / metrics["trace.wall_s"][0]
    assert metrics["trace.reconcile_error_pct"][0] == pytest.approx(share)
    assert share > 1.0


def test_nested_spans_subtract_children():
    import time

    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.02))

    def outer():
        inner()
        time.sleep(0.01)

    tracer.wrap("outer", outer)()
    assert tracer.total_s("outer") >= 0.03
    assert tracer.self_s("outer") == pytest.approx(
        tracer.total_s("outer") - tracer.total_s("inner"))
    assert tracer.calls("inner") == 1


def test_forked_sweep_workers_flush_and_merge(isolated):
    from repro.experiments import journal
    from repro.experiments.service import ServiceConfig
    from repro.experiments.sweep import SweepPoint

    points = [SweepPoint(WORKLOAD, None, scale="tiny", seed=2),
              SweepPoint(WORKLOAD, "hierarchical", scale="tiny", seed=2)]
    tracer = Tracer(flush_dir=isolated / "spans")
    with tracer:
        report, _ = tracer.root(
            journal.run_sweep, points, ServiceConfig(shards=1, jobs=2),
            progress=None, run_root=isolated / "runs")
    assert report.ok
    assert tracer.calls("experiments.journal.append") > 0
    assert tracer.merge_dir(isolated / "spans") == 2
    worker_s = tracer.total_s(spans.WORKER_ROOT)
    metrics = layers.layer_metrics(tracer, [], RUN_VALUES, worker_s)
    assert metrics["trace.reconcile_error_pct"][0] < 1e-6
    assert tracer.calls(spans.WORKER_ROOT) == 2
    assert tracer.calls("cpu.measure") == 2
    assert tracer.calls("experiments.diskcache.put") > 0
    assert worker_s <= sum(r.seconds for r in report.results)


def test_sim_kinstr_per_s_counts_warmup_instructions(isolated, monkeypatch):
    monkeypatch.setattr(grids, "PG_WORKLOAD", WORKLOAD)
    monkeypatch.setattr(grids, "PG_SCALE", "tiny")
    wl = grids.PrefetcherGrid(5, isolated / "work")
    wl.setup()
    wall, points = wl.run_pass()
    total = wl.trace.n_instructions
    assert all(0 < p.stats.instructions < p.instructions == total
               for p in points)
    metrics = end_to_end([1.0], [(wall, points)])
    assert metrics["sim_kinstr_per_s"][0] == pytest.approx(
        len(points) * total / sum(p.seconds for p in points) / 1000.0)


def test_check_points_counts_mismatches_and_missing_points():
    refs = {"a/fdip": {"digest": "d1", "instructions": 10},
            "a/hierarchical": {"digest": "d2", "instructions": 10},
            "b/fdip": {"digest": "d3", "instructions": 10}}
    points = [grids.Point("a/fdip", 1.0, 0, None, "d1"),
              grids.Point("a/hierarchical", 1.0, 10, None, "bad")]
    lines = []
    assert check_points(points, refs, lines.append) == 2
    assert points[0].instructions == 10  # filled from the reference
    assert any("b/fdip" in line for line in lines)


def test_sized_trace_reaches_target_with_whole_requests():
    from repro.workloads.cache import get_application

    app = get_application("msvc_hotel")
    target = 250_000
    trace = grids.sized_trace(app, 4, target)
    assert len(trace) >= target
    assert len(trace.requests) - 1 > 2 * app.n_request_types
    shorter = app.trace(len(trace.requests) - 1, seed=4)
    assert len(shorter) < target


def test_per_layer_names_are_unique_and_complete():
    names = [name for name, _ in layers.PER_LAYER]
    assert len(names) == len(set(names))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == names


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", ".out",
                                                  "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "prefetcher_grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
