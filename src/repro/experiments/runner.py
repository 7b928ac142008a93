"""Shared simulation runner with layered result caching.

The paper's evaluation methodology (§6.1): warm up, then measure, with
every prefetcher running on top of FDIP and compared to the plain FDIP
baseline on the same workload.  ``run_prefetcher`` handles trace
memoization, config overrides, and caching so that multi-figure
benchmarks re-use each simulation.

Caching is two-level:

* an in-process dict (``_CACHE``) keyed by the full run key, so code
  holding a result keeps getting the *same object* back;
* a content-addressed on-disk store (:mod:`repro.experiments.diskcache`)
  keyed by SHA-256 of the same key, so fresh processes — a second
  benchmark invocation, or the workers of a parallel
  :func:`repro.experiments.sweep.sweep` — skip finished simulations.

The key includes every input that can change the result: workload,
scale, prefetcher and its kwargs, config overrides, miss tracking,
warmup fraction, trace seed, and a fingerprint of the default
:class:`~repro.cpu.config.MachineConfig`, the payload schema version
and the simulation-path source digest
(:func:`repro.experiments.inputs.source_digest`), so cached results
are invalidated when the model, its defaults or the serialization
format change.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
from typing import Dict, Optional, Sequence, Tuple

from repro.analysis.metrics import PrefetchReport, compare_run
from repro.cpu import MachineConfig
from repro.cpu.config import DEFAULT_WARMUP
from repro.cpu.stats import SimStats
from repro.experiments import diskcache, inputs
from repro.prefetchers import make_prefetcher
from repro.workloads.cache import get_trace

__all__ = [
    "DEFAULT_WARMUP",  # re-exported from repro.cpu.config (the source)
    "REPRESENTATIVE_WORKLOADS", "RunCacheStats", "cache_key",
    "run_prefetcher", "run_baseline", "compare_all",
    "perfect_l1i_speedup", "run_cache_stats", "reset_run_cache_stats",
    "record_source", "cache_integrity", "record_integrity",
    "seed_cache", "peek_cached", "clear_run_cache",
]

#: Subset used by parameter sweeps where running all 11 workloads per
#: point would be prohibitive: two web stacks and two databases.
REPRESENTATIVE_WORKLOADS = (
    "beego",
    "caddy",
    "mysql_sysbench",
    "tidb_tpcc",
)

_CACHE: Dict[str, Tuple[SimStats, Optional[dict]]] = {}

_FINGERPRINT: Optional[str] = None


def _config_fingerprint() -> str:
    """Digest of the default machine configuration, the cache schema
    and the simulation-path source.

    Baked into every cache key: when Table-1 defaults, the payload
    layout or any model source change between revisions, old on-disk
    entries silently stop matching instead of serving stale timing
    results.
    """
    global _FINGERPRINT
    if _FINGERPRINT is None:
        def unwrap(obj):
            if dataclasses.is_dataclass(obj):
                return {
                    f.name: unwrap(getattr(obj, f.name))
                    for f in dataclasses.fields(obj)
                }
            return obj
        blob = json.dumps(
            {"config": unwrap(MachineConfig()),
             "schema": diskcache.SCHEMA_VERSION,
             "source": inputs.source_digest()},
            sort_keys=True, default=str,
        )
        _FINGERPRINT = hashlib.sha256(blob.encode()).hexdigest()[:12]
    return _FINGERPRINT


def _key(workload: str, scale: str, prefetcher: Optional[str],
         pf_kwargs: Optional[dict], overrides: Optional[dict],
         track: bool, warmup: float, seed: int) -> str:
    def encode(obj):
        return json.dumps(obj, sort_keys=True, default=str) if obj else ""
    return "|".join([
        workload, scale, prefetcher or "fdip", encode(pf_kwargs),
        encode(overrides), "t" if track else "", f"{warmup}",
        f"s{seed}", _config_fingerprint(),
    ])


def cache_key(
    workload: str,
    prefetcher: Optional[str],
    scale: str = "bench",
    pf_kwargs: Optional[dict] = None,
    overrides: Optional[dict] = None,
    track_block_misses: bool = False,
    warmup: float = DEFAULT_WARMUP,
    seed: int = 1,
) -> str:
    """Public form of the run key (same signature as run_prefetcher)."""
    return _key(workload, scale, prefetcher, pf_kwargs, overrides,
                track_block_misses, warmup, seed)


# ----------------------------------------------------------------------
# Cache observability
# ----------------------------------------------------------------------
@dataclasses.dataclass
class RunCacheStats:
    """Where results came from since the last reset (observability for
    the sweep engine and the zero-resimulation acceptance tests)."""

    memory_hits: int = 0
    disk_hits: int = 0
    simulations: int = 0
    disk_writes: int = 0
    #: On-disk result entries that failed checksum/decode validation
    #: and were quarantined (see docs/RESILIENCE.md); each one degrades
    #: to a miss, never a crash.
    cache_corrupt: int = 0
    #: Cache writes refused by the disk-space guard (the volume was
    #: nearly full); the result still flows, it just is not persisted.
    write_refusals: int = 0

    @property
    def lookups(self) -> int:
        return self.memory_hits + self.disk_hits + self.simulations


_STATS = RunCacheStats()


def _count_corruption(error: diskcache.CorruptArtifactError) -> None:
    from repro.experiments.errors import DiskFullError

    if isinstance(error, DiskFullError):
        _STATS.write_refusals += 1
    else:
        _STATS.cache_corrupt += 1


diskcache.add_corruption_listener(_count_corruption)


def run_cache_stats() -> RunCacheStats:
    """Snapshot of the hit/miss counters."""
    return dataclasses.replace(_STATS)


def reset_run_cache_stats() -> None:
    global _STATS
    _STATS = RunCacheStats()


def record_source(source: str) -> None:
    """Count a result resolved outside ``run_prefetcher`` (the sweep
    engine's parent-side cache probes and pool workers) so
    :func:`run_cache_stats` reflects work done on this process's
    behalf."""
    if source == "sim":
        _STATS.simulations += 1
    elif source == "disk":
        _STATS.disk_hits += 1
    else:
        _STATS.memory_hits += 1


def cache_integrity() -> Tuple[int, int]:
    """``(cache_corrupt, write_refusals)`` counted so far in this
    process; a sweep worker reports the change across its attempt."""
    return _STATS.cache_corrupt, _STATS.write_refusals


def record_integrity(corrupt: int, refused: int) -> None:
    """Add a sweep worker's quarantines and refused writes to this
    process's counters."""
    _STATS.cache_corrupt += corrupt
    _STATS.write_refusals += refused


# ----------------------------------------------------------------------
# Disk layer
# ----------------------------------------------------------------------
def _disk_load(key: str) -> Optional[Tuple[SimStats, Optional[dict]]]:
    if not diskcache.disk_cache_enabled():
        return None
    payload = diskcache.get_cache().get(key)
    if payload is None:
        return None
    try:
        if payload.get("schema") != diskcache.SCHEMA_VERSION:
            return None
        if payload.get("key") != key:  # digest collision / moved file
            return None
        stats = SimStats.from_state(payload["stats"])
        miss_map = payload.get("miss_map")
        if miss_map is not None:
            miss_map = dict(miss_map)
    except Exception:
        return None  # stale or malformed payload: re-simulate
    return stats, miss_map


def _disk_store(key: str, stats: SimStats,
                miss_map: Optional[dict]) -> None:
    if not diskcache.disk_cache_enabled():
        return
    payload = {
        "schema": diskcache.SCHEMA_VERSION,
        "key": key,
        "stats": stats.state_dict(),
        "miss_map": dict(miss_map) if miss_map is not None else None,
    }
    diskcache.get_cache().put(key, payload)
    _STATS.disk_writes += 1


def seed_cache(key: str, stats: SimStats,
               miss_map: Optional[dict]) -> None:
    """Install an externally computed result (parallel sweep workers)
    into the in-process cache."""
    _CACHE[key] = (stats, miss_map)


def peek_cached(key: str) -> Optional[Tuple[SimStats, Optional[dict], str]]:
    """Probe both cache layers for ``key`` without ever simulating.

    Returns ``(stats, miss_map, source)`` with source ``"memory"`` or
    ``"disk"`` (disk hits are promoted into the in-process layer), or
    None on a miss.  This is the supported cross-module probe — the
    sweep engine uses it to resolve warm points in the parent process
    without reaching into the runner's private cache dict.
    """
    cached = _CACHE.get(key)
    if cached is not None:
        return cached[0], cached[1], "memory"
    loaded = _disk_load(key)
    if loaded is not None:
        _CACHE[key] = loaded
        return loaded[0], loaded[1], "disk"
    return None


# ----------------------------------------------------------------------
# Runners
# ----------------------------------------------------------------------
def run_prefetcher(
    workload: str,
    prefetcher: Optional[str],
    scale: str = "bench",
    pf_kwargs: Optional[dict] = None,
    overrides: Optional[dict] = None,
    track_block_misses: bool = False,
    warmup: float = DEFAULT_WARMUP,
    seed: int = 1,
    use_cache: bool = True,
) -> Tuple[SimStats, Optional[dict]]:
    """Simulate ``workload`` under ``prefetcher``; returns
    ``(stats, l2_miss_map)`` — the map is None unless
    ``track_block_misses``.  Results are cached in-process and (unless
    disabled) on disk; ``use_cache=False`` neither reads nor writes
    either layer.
    """
    key = _key(workload, scale, prefetcher, pf_kwargs, overrides,
               track_block_misses, warmup, seed)
    if use_cache:
        cached = _CACHE.get(key)
        if cached is not None:
            _STATS.memory_hits += 1
            return cached
        loaded = _disk_load(key)
        if loaded is not None:
            _STATS.disk_hits += 1
            _CACHE[key] = loaded
            return loaded
    trace = get_trace(workload, scale=scale, seed=seed)
    config = MachineConfig()
    if overrides:
        config = config.replace(**overrides)
    from repro.cpu.simulator import FrontEndSimulator

    pf = (
        make_prefetcher(prefetcher, **(pf_kwargs or {}))
        if prefetcher else None
    )
    sim = FrontEndSimulator(
        config=config, prefetcher=pf,
        track_block_misses=track_block_misses,
    )
    stats = sim.run(trace, warmup_fraction=warmup)
    miss_map = (
        dict(sim.hierarchy.l2_miss_map) if track_block_misses else None
    )
    _STATS.simulations += 1
    result = (stats, miss_map)
    if use_cache:
        _CACHE[key] = result
        _disk_store(key, stats, miss_map)
    return result


def run_baseline(
    workload: str,
    scale: str = "bench",
    overrides: Optional[dict] = None,
    track_block_misses: bool = False,
    warmup: float = DEFAULT_WARMUP,
    seed: int = 1,
    use_cache: bool = True,
) -> Tuple[SimStats, Optional[dict]]:
    """FDIP-only run (the baseline of every comparison)."""
    return run_prefetcher(
        workload, None, scale=scale, overrides=overrides,
        track_block_misses=track_block_misses, warmup=warmup,
        seed=seed, use_cache=use_cache,
    )


def compare_all(
    workload: str,
    prefetchers: Sequence[str] = ("efetch", "mana", "eip", "hierarchical"),
    scale: str = "bench",
    overrides: Optional[dict] = None,
    jobs: int = 1,
) -> Dict[str, PrefetchReport]:
    """Run the named prefetchers against the FDIP baseline.

    With ``jobs > 1`` the points fan out over a process pool via the
    sweep engine (uncached points simulate concurrently).
    """
    if jobs > 1:
        from repro.experiments.sweep import SweepPoint, sweep

        points = [SweepPoint(workload, None, scale=scale,
                             overrides=overrides)]
        points += [
            SweepPoint(workload, name, scale=scale, overrides=overrides)
            for name in prefetchers
        ]
        sweep(points, jobs=jobs, progress=None)
    baseline, _ = run_baseline(workload, scale=scale, overrides=overrides)
    out: Dict[str, PrefetchReport] = {}
    for name in prefetchers:
        stats, _ = run_prefetcher(
            workload, name, scale=scale, overrides=overrides
        )
        out[name] = compare_run(name, stats, baseline)
    return out


def perfect_l1i_speedup(workload: str, scale: str = "bench") -> float:
    """IPC gain of a perfect L1-I over FDIP (§7.1's headroom study)."""
    baseline, _ = run_baseline(workload, scale=scale)
    perfect, _ = run_baseline(
        workload, scale=scale, overrides={"hierarchy.perfect_l1i": True}
    )
    return perfect.ipc / baseline.ipc - 1.0


def clear_run_cache(disk: bool = False) -> None:
    """Drop all cached simulation results (in-process; plus the on-disk
    result store and the sweep input artifacts under
    ``<cache root>/inputs`` when ``disk=True``).

    ``disk=True`` also removes ``<cache root>/warmup/``, the
    post-warmup checkpoint store older revisions wrote and nothing
    reads any more.
    """
    _CACHE.clear()
    if disk and diskcache.disk_cache_enabled():
        cache = diskcache.get_cache()
        cache.clear()
        for stale in (inputs.INPUTS_DIR, "warmup"):
            shutil.rmtree(cache.root / stale, ignore_errors=True)
