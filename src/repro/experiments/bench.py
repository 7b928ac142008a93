"""Performance regression harness: named simulator microbenchmarks.

Each microbenchmark pins one workload point (or synthetic driver) and
times it over several repeats, emitting a ``BENCH_<name>.json`` artifact
with the median/IQR wall-clock, throughput, a per-phase timing
breakdown (warmup vs. measure, plus per-chunk wall times sampled
through the interval probe bus), and a digest of the simulation
statistics so timing work can prove it did not change results.

Benchmarks
----------

``hot_loop``
    The FDIP-only commit loop — the simulator's end-to-end hot path.
    Like the trace build, the trace's branch-oracle build is a one-off
    per trace: it is timed separately (``timings.branch_oracle``) and
    not part of the per-run seconds.
``hierarchy``
    The cache/TLB hierarchy driven by a synthetic demand/prefetch
    address stream (no trace, no front end).
``hierarchy_policy``
    The same synthetic stream under the ``pf_aware`` replacement
    policy — the cost of the policy dispatch plus its victim scan.
``hp_replay``
    The full Hierarchical Prefetcher record/replay/metadata path.
``sweep_cache``
    The persistent sweep cache's disk-hit path (deserialize + verify).

Comparison
----------

:func:`compare_dirs` diffs two artifact directories with a noise-aware
threshold: a benchmark regresses when its new median exceeds the base
median by more than ``max_regression`` *plus* the combined IQR fraction
of the two runs.  Every artifact embeds a ``calibration_seconds``
measurement of a fixed pure-Python spin loop taken in the same process;
when both sides carry one, medians are normalized by it first, which
cancels most machine-speed difference between the runner that committed
the baseline and the runner executing CI.  Timings are only compared
for the same work: a benchmark whose ``stats_digest`` differs from the
baseline's fails the comparison as "different work / baseline stale".
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.errors import ExperimentError, InvalidConfigError

ARTIFACT_PREFIX = "BENCH_"
ARTIFACT_SCHEMA = 1

#: Pinned workload point shared by the trace-driven benchmarks.
BENCH_WORKLOAD = "mysql_sibench"
BENCH_SEED = 1

BENCHMARK_NAMES = ("hot_loop", "hierarchy", "hierarchy_policy",
                   "hp_replay", "sweep_cache")


# ----------------------------------------------------------------------
# Calibration
# ----------------------------------------------------------------------
def calibrate(loops: int = 2_000_000) -> float:
    """Time a fixed pure-Python spin loop (seconds).

    Embedded in every artifact as a machine-speed yardstick: comparing
    ``median_seconds / calibration_seconds`` across machines cancels
    most of the raw clock-speed difference.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(loops):
        acc += i & 1023
    _ = acc
    return time.perf_counter() - t0


def _digest(state: dict) -> str:
    blob = json.dumps(state, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _median_iqr(xs: Sequence[float]) -> Tuple[float, float]:
    med = statistics.median(xs)
    if len(xs) < 2:
        return med, 0.0
    qs = statistics.quantiles(xs, n=4, method="inclusive")
    return med, qs[2] - qs[0]


def _artifact(name: str, quick: bool, seconds: List[float], work: int,
              work_unit: str, timings: Dict[str, object],
              stats_digest: str, meta: Dict[str, object],
              calibration: float) -> dict:
    median, iqr = _median_iqr(seconds)
    return {
        "schema": ARTIFACT_SCHEMA,
        "name": name,
        "quick": quick,
        "repeats": len(seconds),
        "seconds": seconds,
        "median_seconds": median,
        "iqr_seconds": iqr,
        "work": {"amount": work, "unit": work_unit},
        "throughput": {
            "per_second": work / median if median > 0 else 0.0,
            "unit": f"{work_unit}/s",
        },
        "timings": timings,
        "stats_digest": stats_digest,
        "calibration_seconds": calibration,
        **meta,
    }


# ----------------------------------------------------------------------
# Trace-driven benchmarks
# ----------------------------------------------------------------------
def _timed_sim(prefetcher: Optional[str], scale: str, probe_interval: int
               ) -> Tuple[float, float, float, float, List[float], object,
                          int]:
    """One cold simulator run; returns (trace build, branch-oracle
    build, warmup, measure seconds, per-chunk wall times from the probe
    bus, final SimStats, instructions simulated).  The trace and its
    branch oracle are memoized, so only the first run builds them."""
    from repro.cpu.simulator import FrontEndSimulator
    from repro.frontend.fdip import branch_oracle
    from repro.prefetchers import make_prefetcher
    from repro.workloads.cache import get_trace

    t0 = time.perf_counter()
    trace = get_trace(BENCH_WORKLOAD, scale=scale, seed=BENCH_SEED)
    t_build = time.perf_counter() - t0

    pf = make_prefetcher(prefetcher) if prefetcher else None
    sim = FrontEndSimulator(prefetcher=pf, probe_interval=probe_interval)
    t0 = time.perf_counter()
    branch_oracle(trace, sim.config.frontend)
    t_oracle = time.perf_counter() - t0
    chunks: List[float] = []
    last = [0.0]

    def _chunk_timer(_sim, _sample) -> None:
        now = time.perf_counter()
        chunks.append(now - last[0])
        last[0] = now

    sim.probes.subscribe(_chunk_timer)
    t0 = time.perf_counter()
    sim.warmup(trace)
    t1 = time.perf_counter()
    last[0] = t1
    stats = sim.measure()
    t_meas = time.perf_counter() - t1
    return (t_build, t_oracle, t1 - t0, t_meas, chunks, stats,
            trace.n_instructions)


def _run_trace_bench(name: str, prefetcher: Optional[str], quick: bool,
                     repeats: int, calibration: float) -> dict:
    scale = "tiny" if quick else "bench"
    probe_interval = 20_000 if quick else 100_000
    seconds: List[float] = []
    timings: Dict[str, object] = {}
    stats_digest = ""
    work = 0
    for r in range(repeats):
        build, oracle, warm, meas, chunks, stats, simulated = _timed_sim(
            prefetcher, scale, probe_interval
        )
        seconds.append(warm + meas)
        if r == 0:
            # Warmup and measure both simulate: the throughput numerator
            # is every instruction of the trace, not the measured window.
            work = simulated
            stats_digest = _digest(stats.state_dict())
            timings = {
                "trace_build": build,
                "branch_oracle": oracle,
                "warmup": warm,
                "measure": meas,
                "probe_chunks": chunks,
                "probe_interval": probe_interval,
            }
    meta = {
        "workload": BENCH_WORKLOAD,
        "scale": scale,
        "seed": BENCH_SEED,
        "prefetcher": prefetcher or "fdip",
    }
    return _artifact(name, quick, seconds, work, "instructions", timings,
                     stats_digest, meta, calibration)


def bench_hot_loop(quick: bool, repeats: int, calibration: float) -> dict:
    """FDIP-only commit loop: the end-to-end simulator hot path."""
    return _run_trace_bench("hot_loop", None, quick, repeats, calibration)


def bench_hp_replay(quick: bool, repeats: int, calibration: float) -> dict:
    """Hierarchical Prefetcher record/replay/metadata path."""
    return _run_trace_bench("hp_replay", "hierarchical", quick, repeats,
                            calibration)


# ----------------------------------------------------------------------
# Synthetic hierarchy benchmark
# ----------------------------------------------------------------------
def _run_hierarchy_bench(name: str, policy: str, quick: bool,
                         repeats: int, calibration: float) -> dict:
    from repro.cpu.stats import SimStats
    from repro.memory.cache import ORIGIN_PF
    from repro.memory.hierarchy import HierarchyParams, MemoryHierarchy

    accesses = 200_000 if quick else 1_000_000
    seconds: List[float] = []
    stats_digest = ""
    for r in range(repeats):
        stats = SimStats()
        hier = MemoryHierarchy(HierarchyParams(policy=policy), stats)
        state = 0x9E3779B9
        block = 0
        now = 0.0
        t0 = time.perf_counter()
        demand = hier.demand_fetch
        prefetch = hier.prefetch
        for i in range(accesses):
            # xorshift32 every 8th access -> jump to a new region;
            # otherwise walk sequentially (typical fetch behaviour).
            if i & 7 == 0:
                state ^= (state << 13) & 0xFFFFFFFF
                state ^= state >> 17
                state ^= (state << 5) & 0xFFFFFFFF
                block = state & 0x3FFF  # 16K-block (1 MiB) working set
                prefetch(block + 2, now, ORIGIN_PF)
            else:
                block += 1
            now += 1.0 + demand(block, now, i)
        hier.drain(now)
        seconds.append(time.perf_counter() - t0)
        if r == 0:
            stats_digest = _digest(stats.state_dict())
    timings = {"accesses": accesses, "policy": policy}
    meta = {"workload": "synthetic", "scale": "quick" if quick else "bench",
            "seed": 0, "prefetcher": "synthetic"}
    return _artifact(name, quick, seconds, accesses, "accesses",
                     timings, stats_digest, meta, calibration)


def bench_hierarchy(quick: bool, repeats: int, calibration: float) -> dict:
    """Drive the cache/TLB hierarchy with a synthetic address stream.

    A deterministic xorshift stream over a working set larger than the
    L2 mixes sequential runs (L1 hits), region jumps (L2/LLC traffic)
    and interleaved prefetches — exercising lookup/insert/eviction and
    the asynchronous fill heap without any front end.  Runs the default
    ``lru`` policy: its timing fences the policy-refactor dispatch cost
    against the pre-refactor baseline.
    """
    return _run_hierarchy_bench("hierarchy", "lru", quick, repeats,
                                calibration)


def bench_hierarchy_policy(quick: bool, repeats: int,
                           calibration: float) -> dict:
    """The synthetic hierarchy stream under the ``pf_aware`` policy.

    Times the most expensive policy hook — distal insertion plus the
    unused-prefetched-victim scan on every eviction — so a policy
    implementation that allocates or scans pathologically shows up as a
    bench regression, not just a lint warning.
    """
    return _run_hierarchy_bench("hierarchy_policy", "pf_aware", quick,
                                repeats, calibration)


# ----------------------------------------------------------------------
# Sweep-cache hit-path benchmark
# ----------------------------------------------------------------------
def bench_sweep_cache(quick: bool, repeats: int, calibration: float) -> dict:
    """Time the disk-cache hit path of the sweep engine.

    Populates a temporary on-disk cache with one tiny point, then times
    repeated cold (in-process-cache-cleared) loads — deserialization,
    schema/key verification, and promotion into the memory layer.
    """
    from repro.experiments import diskcache, runner

    lookups = 5 if quick else 20
    seconds: List[float] = []
    stats_digest = ""
    env_prev = os.environ.get("REPRO_DISK_CACHE")
    os.environ["REPRO_DISK_CACHE"] = "1"
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        prev_root = diskcache.set_cache_dir(tmp)
        try:
            runner.clear_run_cache()
            stats, _ = runner.run_prefetcher(
                BENCH_WORKLOAD, None, scale="tiny", seed=BENCH_SEED
            )
            stats_digest = _digest(stats.state_dict())
            key = runner.cache_key(BENCH_WORKLOAD, None, scale="tiny",
                                   seed=BENCH_SEED)
            for _ in range(repeats):
                t0 = time.perf_counter()
                for _ in range(lookups):
                    runner.clear_run_cache()  # force the disk layer
                    hit = runner.peek_cached(key)
                    if hit is None or hit[2] != "disk":
                        raise ExperimentError(
                            "sweep_cache bench: expected a disk hit"
                        )
                seconds.append(time.perf_counter() - t0)
        finally:
            runner.clear_run_cache()
            diskcache.set_cache_dir(prev_root)
            if env_prev is None:
                os.environ.pop("REPRO_DISK_CACHE", None)
            else:
                os.environ["REPRO_DISK_CACHE"] = env_prev
    timings = {"lookups_per_repeat": lookups}
    meta = {"workload": BENCH_WORKLOAD, "scale": "tiny", "seed": BENCH_SEED,
            "prefetcher": "fdip"}
    return _artifact("sweep_cache", quick, seconds, lookups, "loads",
                     timings, stats_digest, meta, calibration)


_RUNNERS = {
    "hot_loop": bench_hot_loop,
    "hierarchy": bench_hierarchy,
    "hierarchy_policy": bench_hierarchy_policy,
    "hp_replay": bench_hp_replay,
    "sweep_cache": bench_sweep_cache,
}


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def run_benchmarks(
    names: Optional[Sequence[str]] = None,
    quick: bool = False,
    repeats: Optional[int] = None,
    out_dir: Optional[os.PathLike] = None,
    progress=None,
) -> List[dict]:
    """Run the named benchmarks (default: all); write one
    ``BENCH_<name>.json`` per benchmark into ``out_dir`` when given.
    Returns the artifact dicts."""
    names = list(names) if names else list(BENCHMARK_NAMES)
    unknown = [n for n in names if n not in _RUNNERS]
    if unknown:
        raise InvalidConfigError(f"unknown benchmark(s): {', '.join(unknown)}")
    if repeats is None:
        repeats = 3 if quick else 5
    if repeats < 1:
        raise InvalidConfigError("repeats must be >= 1")
    calibration = calibrate()
    artifacts = []
    for name in names:
        if progress:
            progress(f"bench {name} ({'quick' if quick else 'full'}, "
                     f"{repeats} repeats) ...")
        art = _RUNNERS[name](quick, repeats, calibration)
        artifacts.append(art)
        if progress:
            progress(
                f"  {name}: median {art['median_seconds']:.3f}s "
                f"(IQR {art['iqr_seconds']:.3f}s), "
                f"{art['throughput']['per_second']:,.0f} "
                f"{art['throughput']['unit']}"
            )
        if out_dir is not None:
            write_artifact(art, out_dir)
    return artifacts


def write_artifact(artifact: dict, out_dir: os.PathLike) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{ARTIFACT_PREFIX}{artifact['name']}.json"
    path.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")
    return path


def load_artifacts(
    directory: os.PathLike,
    on_error: Optional[Callable[[Path, Exception], None]] = None,
) -> Dict[str, dict]:
    """Load every ``BENCH_*.json`` in ``directory``, keyed by name.

    A truncated or otherwise undecodable artifact is skipped (reported
    through ``on_error`` when given) instead of aborting the whole
    comparison — one torn file must not discard an entire benchmark
    run's worth of good artifacts.
    """
    out: Dict[str, dict] = {}
    for path in sorted(Path(directory).glob(f"{ARTIFACT_PREFIX}*.json")):
        try:
            art = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            if on_error is not None:
                on_error(path, exc)
            continue
        if not isinstance(art, dict) or art.get("schema") != ARTIFACT_SCHEMA:
            continue
        name = art.get("name")
        if not isinstance(name, str):
            if on_error is not None:
                on_error(path, ValueError("artifact has no 'name'"))
            continue
        out[name] = art
    return out


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------
def parse_regression(text: str) -> float:
    """Parse a ``--max-regression`` value: ``"15%"`` or ``"0.15"``."""
    text = text.strip()
    if text.endswith("%"):
        value = float(text[:-1]) / 100.0
    else:
        value = float(text)
    if value < 0:
        raise InvalidConfigError("max regression must be >= 0")
    return value


def compare_artifacts(base: dict, new: dict,
                      max_regression: float) -> Tuple[float, float, bool]:
    """Compare two artifacts of the same benchmark.

    Returns ``(delta, threshold, regressed)`` where ``delta`` is the
    fractional median change (+0.30 = 30% slower).  The threshold is
    ``max_regression`` widened by half the combined IQR fraction of the
    two runs, so noisy benchmarks need a proportionally larger slowdown
    to fail.  Medians are normalized by each side's calibration loop
    when both artifacts carry one.
    """
    base_med = float(base["median_seconds"])
    new_med = float(new["median_seconds"])
    base_cal = float(base.get("calibration_seconds") or 0.0)
    new_cal = float(new.get("calibration_seconds") or 0.0)
    if base_cal > 0 and new_cal > 0:
        base_med /= base_cal
        new_med /= new_cal
        noise = (float(base["iqr_seconds"]) / base_cal
                 + float(new["iqr_seconds"]) / new_cal)
    else:
        noise = float(base["iqr_seconds"]) + float(new["iqr_seconds"])
    if base_med <= 0:
        return 0.0, max_regression, False
    delta = new_med / base_med - 1.0
    threshold = max_regression + 0.5 * noise / base_med
    return delta, threshold, delta > threshold


def compare_dirs(base_dir: os.PathLike, new_dir: os.PathLike,
                 max_regression: float) -> Tuple[List[List[str]], List[str]]:
    """Compare two artifact directories.

    Returns ``(rows, problems)``: a display row per benchmark present in
    the base set, and a list of human-readable regression/missing/
    stale-digest/corrupt-artifact messages (empty = pass).
    """
    problems: List[str] = []

    def _note_bad(path: Path, exc: Exception) -> None:
        problems.append(f"{path.name}: unreadable artifact ({exc})")

    base_set = load_artifacts(base_dir, on_error=_note_bad)
    new_set = load_artifacts(new_dir, on_error=_note_bad)
    if not base_set:
        raise InvalidConfigError(f"no {ARTIFACT_PREFIX}*.json artifacts "
                         f"in {base_dir}")
    rows: List[List[str]] = []
    for name, base in sorted(base_set.items()):
        new = new_set.get(name)
        if new is None:
            rows.append([name, f"{base['median_seconds']:.3f}", "-", "-",
                         "-", "MISSING"])
            problems.append(f"{name}: missing from new artifact set")
            continue
        if (base.get("quick"), base.get("workload"), base.get("scale")) != \
                (new.get("quick"), new.get("workload"), new.get("scale")):
            rows.append([name, "-", "-", "-", "-", "MISMATCH"])
            problems.append(
                f"{name}: artifacts are not comparable "
                f"(quick/workload/scale differ)"
            )
            continue
        if base.get("stats_digest") != new.get("stats_digest"):
            rows.append([name, "-", "-", "-", "-", "STALE"])
            problems.append(
                f"{name}: stats_digest {new.get('stats_digest')} != "
                f"baseline {base.get('stats_digest')} "
                "(different work / baseline stale)"
            )
            continue
        delta, threshold, regressed = compare_artifacts(
            base, new, max_regression
        )
        status = "REGRESSED" if regressed else "ok"
        rows.append([
            name,
            f"{base['median_seconds']:.3f}",
            f"{new['median_seconds']:.3f}",
            f"{delta:+.1%}",
            f"{threshold:.1%}",
            status,
        ])
        if regressed:
            problems.append(
                f"{name}: {delta:+.1%} vs threshold {threshold:.1%}"
            )
    return rows, problems
