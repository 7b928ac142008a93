"""The benchmark's three workloads: inputs, set-up, and one pass each.

Every workload is a fixed grid of simulation points driven from this
process, closed loop (a point starts when a worker is free):

* ``prefetcher_grid`` — ``tidb_tpcc`` at ``bench`` scale under FDIP, EIP
  and HP, one memoized trace, run in-process through
  ``runner.run_prefetcher(use_cache=False)`` with probes off.  The
  simulator core does nearly all the work; FDIP is the control for
  changes to the prefetcher layer.
* ``manifest_sweep`` — a 12-point manifest (6 paper workloads at ``tiny``
  × {FDIP, HP}) through ``load_manifest → expand → journal.run_sweep``
  with one shard of two forked workers, from an empty cache and run dir.
  Each forked point rebuilds its application (about 40% of worker time)
  and pays a fork, cache writes and journal fsyncs.
* ``msvc_probed`` — ``msvc_ecommerce`` and ``msvc_hotel`` under FDIP and
  HP in-process with the probe bus on at ``repro probe``'s default
  interval and the request tracker auto-enabled.  L1-resident RPC
  fan-out traces: the hierarchy's hit path, and the only workload
  through the chunked ``measure()`` path.

Microservice request mixes are heavy-tailed: at ``bench`` scale the
trace length varies by 9-61% (IQR over seeds), so ``msvc_probed`` sizes
each trace to the first whole request that reaches
:data:`MSVC_TARGET_BLOCKS` basic blocks.  Host time follows the number of
committed blocks, so it stays comparable across seeds while the request
mix is still drawn from the seed.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import shutil
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: Workload seeds with recorded references: ``--seed n`` uses ``n % 32``.
SEED_SPACE = 32

PG_WORKLOAD = "tidb_tpcc"
PG_SCALE = "bench"
PG_PREFETCHERS = (None, "eip", "hierarchical")

SWEEP_WORKLOADS = ("beego", "echo", "caddy", "dgraph", "mysql_sysbench",
                   "tidb_tpcc")
SWEEP_JOBS = 2
SWEEP_POINT_TIMEOUT = 120.0

MSVC_WORKLOADS = ("msvc_ecommerce", "msvc_hotel")
MSVC_PREFETCHERS = (None, "hierarchical")
#: About a million instructions per service trace.
MSVC_TARGET_BLOCKS = 170_000
#: ``repro probe``'s default interval (measured instructions).
PROBE_INTERVAL = 20_000


def input_seed(seed: int) -> int:
    return seed % SEED_SPACE


def stats_digest(stats) -> str:
    """Digest of a point's complete ``SimStats`` state."""
    blob = json.dumps(stats.state_dict(), sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def label_of(workload: str, prefetcher: Optional[str]) -> str:
    return f"{workload}/{prefetcher or 'fdip'}"


@dataclasses.dataclass
class Point:
    """One completed (or failed) simulation point."""

    label: str
    seconds: float
    #: Every simulated instruction (warmup + measured window); 0 if unknown.
    instructions: int = 0
    stats: object = None
    digest: str = ""
    error: str = ""


class Workload:
    """A named grid: ``setup`` builds inputs, ``run_pass`` runs them all."""

    name = ""
    #: Set-ups before each pass (the last one's inputs are used);
    #: ``setup_s`` is the median over the run.
    setups = 1

    def __init__(self, seed: int, work_dir: Path):
        self.seed = input_seed(seed)
        self.work_dir = Path(work_dir)

    def setup(self) -> float:
        """Build the inputs from scratch; returns their host seconds."""
        raise NotImplementedError

    def run_pass(self) -> Tuple[float, List[Point]]:
        """Run every point once; returns the pass's wall seconds."""
        raise NotImplementedError


def _timed_point(label: str, fn: Callable, instructions: int) -> Point:
    t0 = time.perf_counter()
    try:
        stats = fn()
    except Exception as exc:  # a failed point is counted, not fatal
        return Point(label, time.perf_counter() - t0,
                     error=f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - t0
    return Point(label, seconds, instructions, stats, stats_digest(stats))


def _clear_inputs() -> None:
    """Forget memoized applications and traces (and free them), so a
    set-up builds its inputs from scratch."""
    from repro.workloads.cache import clear_caches

    clear_caches()
    gc.collect()


class PrefetcherGrid(Workload):
    name = "prefetcher_grid"
    setups = 2

    def setup(self) -> float:
        from repro.workloads.cache import get_application, get_trace

        self.trace = None
        _clear_inputs()
        t0 = time.perf_counter()
        get_application(PG_WORKLOAD)
        self.trace = get_trace(PG_WORKLOAD, scale=PG_SCALE, seed=self.seed)
        return time.perf_counter() - t0

    def run_pass(self) -> Tuple[float, List[Point]]:
        from repro.experiments import runner

        total = self.trace.n_instructions
        points = []
        t0 = time.perf_counter()
        for pf in PG_PREFETCHERS:
            points.append(_timed_point(
                label_of(PG_WORKLOAD, pf),
                lambda pf=pf: runner.run_prefetcher(
                    PG_WORKLOAD, pf, scale=PG_SCALE, seed=self.seed,
                    use_cache=False)[0],
                total))
        return time.perf_counter() - t0, points


def sized_trace(app, seed: int, target: int):
    """The trace of the fewest whole requests reaching ``target`` blocks
    (at least enough requests for the generator's preheat prefix, so
    every candidate length shares one request sequence)."""
    from repro.workloads.suite import requests_for

    floor = 2 * app.n_request_types + 1
    n = max(floor, 2 * requests_for(app.name, "bench"))
    probe = app.trace(n, seed=seed)
    while len(probe) < target:
        n *= 2
        probe = app.trace(n, seed=seed)
    starts = [start for start, _ in probe.requests] + [len(probe)]
    k = next(k for k in range(floor, len(starts)) if starts[k] >= target)
    trace = app.trace(k, seed=seed)
    if len(trace) != starts[k]:
        raise RuntimeError(
            f"{app.name}: a {k}-request trace has {len(trace)} blocks, "
            f"its prefix in the {n}-request trace {starts[k]}")
    return trace


class MsvcProbed(Workload):
    name = "msvc_probed"

    def setup(self) -> float:
        from repro.workloads.cache import get_application

        self.traces = None
        _clear_inputs()
        t0 = time.perf_counter()
        self.traces = {
            w: sized_trace(get_application(w), self.seed, MSVC_TARGET_BLOCKS)
            for w in MSVC_WORKLOADS
        }
        return time.perf_counter() - t0

    def run_pass(self) -> Tuple[float, List[Point]]:
        from repro.cpu.simulator import simulate
        from repro.prefetchers import make_prefetcher

        points = []
        t0 = time.perf_counter()
        for w, trace in self.traces.items():
            for pf in MSVC_PREFETCHERS:
                points.append(_timed_point(
                    label_of(w, pf),
                    lambda trace=trace, pf=pf: simulate(
                        trace, prefetcher=make_prefetcher(pf) if pf else None,
                        probe_interval=PROBE_INTERVAL),
                    trace.n_instructions))
        return time.perf_counter() - t0, points


MANIFEST_TEMPLATE = """\
[sweep]
name = "perfbench-manifest-sweep"
workloads = [{workloads}]
prefetchers = ["hierarchical"]
include_baseline = true
scale = "tiny"
seeds = [{seed}]
"""


class ManifestSweep(Workload):
    name = "manifest_sweep"
    setups = 101

    def __init__(self, seed: int, work_dir: Path):
        super().__init__(seed, work_dir)
        self.manifest_path = self.work_dir / "manifest.toml"
        self.manifest_path.parent.mkdir(parents=True, exist_ok=True)
        self.manifest_path.write_text(MANIFEST_TEMPLATE.format(
            workloads=", ".join(f'"{w}"' for w in SWEEP_WORKLOADS),
            seed=self.seed), encoding="utf-8")
        self.passes = 0
        #: Retry events seen in the run journals (for the traced run).
        self.retries = 0
        self.attempts = 0
        self.config = None

    def setup(self) -> float:
        from repro.experiments.journal import RunJournal
        from repro.experiments.manifest import load_manifest
        from repro.experiments.service import ServiceConfig

        root = self.work_dir / "setup-runs"
        t0 = time.perf_counter()
        points = load_manifest(self.manifest_path).expand()
        self.config = ServiceConfig(shards=1, jobs=SWEEP_JOBS,
                                    point_timeout=SWEEP_POINT_TIMEOUT)
        RunJournal.create(points, self.config, root=root).close()
        seconds = time.perf_counter() - t0
        self.points = points
        shutil.rmtree(root)
        return seconds

    def run_pass(self) -> Tuple[float, List[Point]]:
        from repro.experiments import diskcache, journal, runner

        self.passes += 1
        base = self.work_dir / f"pass-{self.passes}"
        cache_dir, run_root = base / "cache", base / "runs"
        cache_dir.mkdir(parents=True)
        # A new grid: empty disk cache, empty run dir, no results or
        # applications memoized in this process for workers to inherit.
        diskcache.set_cache_dir(cache_dir)
        runner.clear_run_cache()
        _clear_inputs()
        t0 = time.perf_counter()
        report, run = journal.run_sweep(
            self.points, self.config, progress=None, run_root=run_root)
        wall = time.perf_counter() - t0
        events = journal.read_run_events(run.run_dir)
        self.retries += sum(e.get("event") == "retried" for e in events)
        self.attempts += sum(e.get("event") == "scheduled" for e in events)
        points = [
            Point(label_of(r.point.workload, r.point.prefetcher), r.seconds,
                  0, r.stats, stats_digest(r.stats))
            for r in report.results
        ]
        points += [Point(f.label, 0.0, error=f"{f.kind}: {f.message}")
                   for f in report.failures]
        shutil.rmtree(base)
        return wall, points


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (PrefetcherGrid, ManifestSweep, MsvcProbed)
}


def check_points(points, refs: dict, log) -> int:
    """Check one pass against its references; returns failed points.

    Fills in ``instructions`` from the reference where the point could
    not count them itself (sweep workers report only the measured
    window)."""
    failed = 0
    for p in points:
        ref = refs.get(p.label)
        reason = ""
        if p.error:
            reason = p.error
        elif ref is None:
            reason = "no reference recorded"
        elif p.digest != ref["digest"]:
            reason = f"digest {p.digest} != reference {ref['digest']}"
        elif p.instructions and p.instructions != ref["instructions"]:
            reason = (f"{p.instructions} instructions != reference "
                      f"{ref['instructions']}")
        if reason:
            failed += 1
            log(f"FAILED {p.label}: {reason}")
        elif not p.instructions:
            p.instructions = ref["instructions"]
    missing = set(refs) - {p.label for p in points}
    for label in sorted(missing):
        log(f"FAILED {label}: point missing from the pass")
    return failed + len(missing)


def hp_gain_pct(points) -> float:
    """Mean simulated IPC gain of HP over FDIP across the grid's
    workloads (simulated time; the model is unvalidated)."""
    ipc = {p.label: p.stats.ipc for p in points if p.stats is not None}
    gains = []
    for label, value in ipc.items():
        workload, pf = label.split("/")
        base = ipc.get(f"{workload}/fdip")
        if pf == "hierarchical" and base:
            gains.append(100.0 * (value / base - 1.0))
    return sum(gains) / len(gains) if gains else 0.0


def median(xs):
    return statistics.median(xs) if xs else 0.0


def peak_rss_mb() -> float:
    """Max resident set of this process and its waited-for children."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def scrub_environment(work_dir: Path) -> None:
    """Point every repro side channel at ``work_dir`` and drop any other
    ``REPRO_*`` setting (fault plans, cache toggles), so the program sees
    only the generated inputs."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_CACHE_DIR"] = str(work_dir / "cache")
    os.environ["REPRO_RUN_DIR"] = str(work_dir / "runs")
