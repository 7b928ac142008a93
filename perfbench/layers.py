"""The traced run and its per-layer metrics.

A traced run first runs one untraced pass (the overhead baseline), then
installs the :mod:`perfbench.spans` wrappers, sets up and runs one more
pass under a ``bench.root`` span, removes the wrappers, and derives the
per-layer metrics below from the span table and the pass's ``SimStats``.
Times named ``*_s`` are self times (span minus wrapped child spans),
except the inclusive phase spans ``cpu.warmup_s``, ``cpu.measure_s``,
``experiments.runner.point_s`` and ``trace.wall_s``.  The self times
listed in :data:`RECONCILED` are checked against the traced wall time
(plus the forked sweep workers' time), so a span that no reported
metric covers shows up as ``trace.reconcile_error_pct``.
"""

from __future__ import annotations

import dataclasses
import gc
import statistics
from typing import Callable, Dict, List, Tuple

from perfbench.grids import check_points, hp_gain_pct
from perfbench.spans import WORKER_ROOT, Tracer

#: (metric, unit) in output order; every traced run prints all of them.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("workloads.generate_binary_s", "s"),
    ("isa.link_s", "s"),
    ("workloads.trace_s", "s"),
    ("workloads.trace_blocks", "count"),
    ("frontend.fdip.advance_self_s", "s"),
    ("frontend.fdip.advance_calls", "count"),
    ("frontend.tage_s", "s"),
    ("frontend.tage_calls", "count"),
    ("frontend.btb_s", "s"),
    ("frontend.btb_calls", "count"),
    ("frontend.ras_s", "s"),
    ("frontend.ittage_s", "s"),
    ("frontend.cond_mispredict_ratio", "ratio"),
    ("frontend.btb_miss_ratio", "ratio"),
    ("memory.demand_fetch_s", "s"),
    ("memory.demand_fetch_calls", "count"),
    ("memory.prefetch_s", "s"),
    ("memory.prefetch_calls", "count"),
    ("memory.prefetch_issued_ratio", "ratio"),
    ("memory.metadata_s", "s"),
    ("memory.itlb_s", "s"),
    ("memory.itlb_calls", "count"),
    ("memory.l1i_mpki", "mpki"),
    ("memory.l2_mpki", "mpki"),
    ("prefetchers.on_commit_s", "s"),
    ("prefetchers.on_miss_s", "s"),
    ("core.on_commit_self_s", "s"),
    ("core.accuracy", "ratio"),
    ("core.late_ratio", "ratio"),
    ("core.mat_hit_rate", "ratio"),
    ("core.bundles_triggered", "count"),
    ("core.sim_ipc_gain_hp_pct", "%"),
    ("cpu.warmup_s", "s"),
    ("cpu.measure_s", "s"),
    ("cpu.commit_loop_self_s", "s"),
    ("cpu.probes.fire_s", "s"),
    ("cpu.probes.fire_calls", "count"),
    ("cpu.requests.record_s", "s"),
    ("cpu.requests.record_calls", "count"),
    ("cpu.requests.p50_kcycles", "kcycles"),
    ("experiments.runner.point_s", "s"),
    ("experiments.runner.point_self_s", "s"),
    ("experiments.sweep.worker_point_self_s", "s"),
    ("experiments.diskcache.put_s", "s"),
    ("experiments.diskcache.put_calls", "count"),
    ("experiments.diskcache.get_s", "s"),
    ("experiments.journal.append_s", "s"),
    ("experiments.journal.append_calls", "count"),
    ("experiments.service.overhead_s", "s"),
    ("experiments.service.retry_ratio", "ratio"),
    ("workloads.build_app_self_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.wall_s", "s"),
    ("trace.harness_self_s", "s"),
    ("trace.reconcile_error_pct", "%"),
)

#: The reported self times that, summed, must equal the traced wall time
#: plus the time of every merged sweep worker.
RECONCILED: Tuple[str, ...] = (
    "workloads.generate_binary_s", "isa.link_s", "workloads.trace_s",
    "workloads.build_app_self_s", "frontend.fdip.advance_self_s",
    "frontend.tage_s", "frontend.btb_s", "frontend.ras_s",
    "frontend.ittage_s", "memory.demand_fetch_s", "memory.prefetch_s",
    "memory.metadata_s", "memory.itlb_s", "prefetchers.on_commit_s",
    "prefetchers.on_miss_s", "core.on_commit_self_s",
    "cpu.commit_loop_self_s", "cpu.probes.fire_s", "cpu.requests.record_s",
    "experiments.runner.point_self_s",
    "experiments.sweep.worker_point_self_s",
    "experiments.diskcache.put_s", "experiments.diskcache.get_s",
    "experiments.journal.append_s", "trace.harness_self_s",
)

#: ``memory.prefetch`` calls made inside ``cpu.measure`` spans, so the
#: issued ratio compares like with like (SimStats count only the
#: measured window).
MEASURE_PREFETCH = "memory.prefetch.measure_calls"


@dataclasses.dataclass
class TracedResult:
    tracer: Tracer
    metrics: Dict[str, Tuple[float, str]]
    attempted: int
    failed: int


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def count_measure_prefetches(tracer: Tracer) -> Callable[[], None]:
    """Wrap ``FrontEndSimulator.measure`` once more (around its span
    wrapper) to attribute ``memory.prefetch`` calls to the measured
    window; returns a function that removes this wrapper."""
    from repro.cpu.simulator import FrontEndSimulator

    measure = FrontEndSimulator.measure
    cell = tracer.cell(MEASURE_PREFETCH)

    def counted(sim):
        before = tracer.calls("memory.prefetch")
        try:
            return measure(sim)
        finally:
            cell[2] += tracer.calls("memory.prefetch") - before

    FrontEndSimulator.measure = counted

    def remove() -> None:
        FrontEndSimulator.measure = measure
    return remove


def simulated_layers(points, measure_prefetch_calls: int
                     ) -> Dict[str, float]:
    """Layer ratios from the traced pass's ``SimStats`` (simulated)."""
    from repro.memory.cache import ORIGIN_PF

    stats = [p.stats for p in points if p.stats is not None]
    hp = [p.stats for p in points
          if p.stats is not None and p.label.endswith("/hierarchical")]

    def total(attr, items=stats):
        return sum(getattr(s, attr) for s in items)

    def extra(key, items):
        return sum(s.extra.get(key, 0) for s in items)

    instructions = total("instructions")
    p50s = [s.extra["request.p50"] for s in stats
            if "request.p50" in s.extra]
    return {
        "frontend.cond_mispredict_ratio": _ratio(
            total("cond_mispredicts"), total("cond_branches")),
        "frontend.btb_miss_ratio": _ratio(
            total("btb_misses"), total("btb_lookups")),
        "memory.prefetch_issued_ratio": _ratio(
            sum(sum(s.pf_issued) for s in stats), measure_prefetch_calls),
        "memory.l1i_mpki": 1000.0 * _ratio(total("l1i_misses"), instructions),
        "memory.l2_mpki": 1000.0 * _ratio(
            total("l2_demand_misses"), instructions),
        "core.accuracy": _ratio(sum(s.pf_useful[ORIGIN_PF] for s in hp),
                                sum(s.pf_issued[ORIGIN_PF] for s in hp)),
        "core.late_ratio": _ratio(sum(s.pf_late[ORIGIN_PF] for s in hp),
                                  sum(s.pf_useful[ORIGIN_PF] for s in hp)),
        "core.mat_hit_rate": _ratio(extra("hp_mat_hits", hp),
                                    extra("hp_bundles_triggered", hp)),
        "core.bundles_triggered": extra("hp_bundles_triggered", hp),
        "core.sim_ipc_gain_hp_pct": hp_gain_pct(points),
        "cpu.requests.p50_kcycles": (
            statistics.median(p50s) / 1000.0 if p50s else 0.0),
    }


def reconcile_error_pct(values: Dict[str, float], worker_s: float
                        ) -> float:
    """How far the :data:`RECONCILED` self times miss the traced wall
    time plus ``worker_s`` (the merged sweep workers' span time)."""
    expected = values["trace.wall_s"] + worker_s
    reported = sum(values[name] for name in RECONCILED)
    return 100.0 * abs(reported - expected) / expected


def layer_metrics(tracer: Tracer, points, run_values: Dict[str, float],
                  worker_s: float = 0.0) -> Dict[str, Tuple[float, str]]:
    """Every :data:`PER_LAYER` metric, from the span table, the traced
    pass's points, the run-level ``run_values`` and ``worker_s``, the
    merged sweep workers' span time."""
    t = tracer
    values = {
        "workloads.generate_binary_s": t.self_s("workloads.generate_binary"),
        "isa.link_s": t.self_s("isa.link"),
        "workloads.trace_s": t.self_s("workloads.trace"),
        "workloads.trace_blocks": t.calls("workloads.trace.blocks"),
        "frontend.fdip.advance_self_s": t.self_s("frontend.fdip.advance"),
        "frontend.fdip.advance_calls": t.calls("frontend.fdip.advance"),
        "frontend.tage_s": t.self_s("frontend.tage"),
        "frontend.tage_calls": t.calls("frontend.tage"),
        "frontend.btb_s": t.self_s("frontend.btb"),
        "frontend.btb_calls": t.calls("frontend.btb"),
        "frontend.ras_s": t.self_s("frontend.ras"),
        "frontend.ittage_s": t.self_s("frontend.ittage"),
        "memory.demand_fetch_s": t.self_s("memory.demand_fetch"),
        "memory.demand_fetch_calls": t.calls("memory.demand_fetch"),
        "memory.prefetch_s": t.self_s("memory.prefetch"),
        "memory.prefetch_calls": t.calls("memory.prefetch"),
        "memory.metadata_s": t.self_s("memory.metadata"),
        "memory.itlb_s": t.self_s("memory.itlb"),
        "memory.itlb_calls": t.calls("memory.itlb"),
        "prefetchers.on_commit_s": t.self_s("prefetchers.on_commit"),
        "prefetchers.on_miss_s": t.self_s("prefetchers.on_miss"),
        "core.on_commit_self_s": t.self_s("core.on_commit"),
        "cpu.warmup_s": t.total_s("cpu.warmup"),
        "cpu.measure_s": t.total_s("cpu.measure"),
        "cpu.commit_loop_self_s": (t.self_s("cpu.warmup")
                                   + t.self_s("cpu.measure")),
        "cpu.probes.fire_s": t.self_s("cpu.probes.fire"),
        "cpu.probes.fire_calls": t.calls("cpu.probes.fire"),
        "cpu.requests.record_s": t.self_s("cpu.requests.record"),
        "cpu.requests.record_calls": t.calls("cpu.requests.record"),
        "experiments.runner.point_s": t.total_s("experiments.runner.point"),
        "experiments.runner.point_self_s": t.self_s(
            "experiments.runner.point"),
        "experiments.sweep.worker_point_self_s": t.self_s(WORKER_ROOT),
        "experiments.diskcache.put_s": t.self_s("experiments.diskcache.put"),
        "experiments.diskcache.put_calls": t.calls(
            "experiments.diskcache.put"),
        "experiments.diskcache.get_s": t.self_s("experiments.diskcache.get"),
        "experiments.journal.append_s": t.self_s(
            "experiments.journal.append"),
        "experiments.journal.append_calls": t.calls(
            "experiments.journal.append"),
        "workloads.build_app_self_s": t.self_s(
            "workloads.build_application"),
        "trace.wall_s": t.total_s("bench.root"),
        "trace.harness_self_s": t.self_s("bench.root"),
    }
    values.update(simulated_layers(points, t.calls(MEASURE_PREFETCH)))
    values.update(run_values)
    values["trace.reconcile_error_pct"] = reconcile_error_pct(values,
                                                               worker_s)
    return {name: (float(values[name]), unit) for name, unit in PER_LAYER}


def traced_run(wl, refs: dict, log) -> TracedResult:
    """Untraced pass, then set-up + pass under the wrappers."""
    wl.setup()
    gc.collect()
    base_wall, base_points = wl.run_pass()
    failed = check_points(base_points, refs, log)

    spans_dir = wl.work_dir / "spans"
    tracer = Tracer(flush_dir=spans_dir)
    inner: List = []

    def region():
        wl.setup()
        gc.collect()
        inner.append(wl.run_pass())

    tracer.install()
    uncount = count_measure_prefetches(tracer)
    try:
        tracer.root(region)
    finally:
        uncount()
        tracer.remove()
    wall, points = inner[0]
    failed += check_points(points, refs, log)

    parent_worker_s = tracer.total_s(WORKER_ROOT)
    if spans_dir.is_dir():  # forked sweep workers wrote their tables
        merged = tracer.merge_dir(spans_dir)
        log(f"merged span tables of {merged} sweep workers")
    worker_point_s = tracer.total_s(WORKER_ROOT) - parent_worker_s

    mismatched = [
        p.label for p, q in zip(sorted(base_points, key=lambda p: p.label),
                                sorted(points, key=lambda p: p.label))
        if p.digest != q.digest or p.label != q.label
    ]
    for label in mismatched:
        log(f"FAILED {label}: traced digest differs from untraced")
    failed += len(mismatched)

    service_overhead = retry_ratio = 0.0
    if worker_point_s:  # a sweep: wall time beyond the workers' share
        busy = sum(p.seconds for p in points if not p.error)
        service_overhead = wall - busy / wl.config.jobs
        retry_ratio = _ratio(wl.retries, wl.attempts)
    metrics = layer_metrics(tracer, points, {
        "trace.overhead_pct": 100.0 * (wall / base_wall - 1.0),
        "experiments.service.overhead_s": service_overhead,
        "experiments.service.retry_ratio": retry_ratio,
    }, worker_point_s)
    for name, (value, unit) in metrics.items():
        log(f"  {name:<36} {value:14.6f} {unit}")
    attempted = 2 * max(len(refs), len(points))
    return TracedResult(tracer, metrics, attempted, failed)
