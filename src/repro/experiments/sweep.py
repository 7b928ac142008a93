"""Sweeps over (workload × prefetcher × config) points: the point
model, the per-point worker, and :func:`sweep`.

``runner.run_prefetcher`` evaluates one point; the full §6 grid is
hundreds of points that are completely independent.  Every sweep —
:func:`sweep`, :func:`repro.experiments.service.serve_sweep` and the
journaled :func:`repro.experiments.journal.run_sweep` — is scheduled by
the one supervisor loop in :mod:`repro.experiments.service`.  This
module holds what that loop schedules:

* :class:`SweepPoint` / :class:`SweepResult` / :class:`SweepReport` —
  the point, its result, and the whole sweep's outcome;
* :func:`_execute` — one *attempt* of one point, returning an outcome
  tuple; with ``jobs == 1`` the loop calls it in-process, with
  ``jobs >= 2`` it runs in a forked worker (:func:`_spawn` /
  :func:`_reap`) that the loop supervises;
* :func:`_outcome_error` — the single mapping from a non-``ok``
  outcome to its :mod:`~repro.experiments.errors` taxonomy error.

Guarantees (tests/test_determinism.py, tests/test_faults.py):

* **Determinism** — a point is fully described by its
  :class:`SweepPoint` and the simulator is deterministic, so ``jobs``,
  worker scheduling and retries cannot change any counter.
* **Order** — results come back in input order.
* **Isolation** — with ``jobs >= 2`` every attempt runs in its own
  worker process: a crash (:class:`~repro.experiments.errors.
  WorkerCrashError`) or a ``point_timeout`` kill
  (:class:`~repro.experiments.errors.PointTimeoutError`) costs that
  point one attempt, never the grid.
* **Retries** — crashes, timeouts and transient faults are retried up
  to ``max_retries`` times with deterministic exponential backoff
  (:func:`repro.experiments.errors.backoff_delay`); deterministic
  simulation errors fail at once.
* **Partial results** — ``keep_going=True`` keeps every completed point
  alongside a :class:`~repro.experiments.errors.PointFailure` per dead
  one; the default fail-fast policy raises the first failure.

Fault injection: a :class:`~repro.experiments.faults.FaultPlan`
(explicit ``fault_plan=`` or the ``REPRO_FAULT_PLAN`` environment
variable) deterministically injects crashes, hangs, transient errors
and cache corruption — see docs/RESILIENCE.md.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cpu.stats import SimStats
from repro.experiments import faults as faults_mod
from repro.experiments import runner
from repro.experiments.errors import (
    ExperimentError,
    PointFailure,
    PointTimeoutError,
    TransientError,
    WorkerCrashError,
)
from repro.experiments.faults import FaultPlan
from repro.experiments.runner import DEFAULT_WARMUP

#: The paper's comparison set (Figures 9-11, Table 2).
DEFAULT_PREFETCHERS = ("efetch", "mana", "eip", "hierarchical")

#: Retries per point after the first attempt (crash/hang/transient
#: failures only; deterministic simulation errors are never retried).
DEFAULT_MAX_RETRIES = 2

#: First-retry backoff in seconds (doubles per retry, jittered).
DEFAULT_BACKOFF = 0.25


@dataclasses.dataclass(frozen=True)
class SweepPoint:
    """One simulation point: the full argument set of
    ``runner.run_prefetcher`` (``prefetcher=None`` = FDIP baseline)."""

    workload: str
    prefetcher: Optional[str] = None
    scale: str = "bench"
    pf_kwargs: Optional[dict] = None
    overrides: Optional[dict] = None
    track_block_misses: bool = False
    warmup: float = DEFAULT_WARMUP
    seed: int = 1

    @property
    def label(self) -> str:
        return f"{self.workload}/{self.prefetcher or 'fdip'}"

    def key(self) -> str:
        return runner.cache_key(
            self.workload, self.prefetcher, scale=self.scale,
            pf_kwargs=self.pf_kwargs, overrides=self.overrides,
            track_block_misses=self.track_block_misses,
            warmup=self.warmup, seed=self.seed,
        )

    def run(self, use_cache: bool = True) -> Tuple[SimStats, Optional[dict]]:
        return runner.run_prefetcher(
            self.workload, self.prefetcher, scale=self.scale,
            pf_kwargs=self.pf_kwargs, overrides=self.overrides,
            track_block_misses=self.track_block_misses,
            warmup=self.warmup, seed=self.seed, use_cache=use_cache,
        )


@dataclasses.dataclass
class SweepResult:
    """A completed point with provenance and timing."""

    point: SweepPoint
    stats: SimStats
    miss_map: Optional[dict]
    seconds: float
    source: str  # "memory" | "disk" | "sim"


@dataclasses.dataclass
class SweepReport:
    """Everything a sweep produced: completed results plus a failure
    record per point that exhausted its retries.

    Iterates (and ``len()``s) over the *results*, so fault-free callers
    can keep treating the return value as the old result list.
    """

    results: List[SweepResult]
    failures: List[PointFailure]

    @property
    def ok(self) -> bool:
        return not self.failures

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def raise_if_failed(self) -> "SweepReport":
        """Raise the first :class:`PointFailure` when any point died;
        returns self otherwise (chainable)."""
        if self.failures:
            raise self.failures[0]
        return self


ProgressFn = Callable[[str], None]


def _default_progress(line: str) -> None:
    print(line, file=sys.stderr, flush=True)


def grid(
    workloads: Sequence[str],
    prefetchers: Sequence[Optional[str]] = DEFAULT_PREFETCHERS,
    include_baseline: bool = True,
    **common,
) -> List[SweepPoint]:
    """Cross ``workloads × prefetchers`` into sweep points.

    ``common`` forwards to every :class:`SweepPoint` (scale, seed,
    warmup, overrides...).  ``include_baseline`` prepends the FDIP
    point per workload so comparisons never re-simulate it serially.
    """
    points: List[SweepPoint] = []
    for w in workloads:
        if include_baseline:
            points.append(SweepPoint(w, None, **common))
        for name in prefetchers:
            if name in (None, "fdip"):
                continue
            points.append(SweepPoint(w, name, **common))
    return points


def _classify(before: runner.RunCacheStats,
              after: runner.RunCacheStats) -> str:
    if after.simulations > before.simulations:
        return "sim"
    if after.disk_hits > before.disk_hits:
        return "disk"
    return "memory"


def _run_serial(point: SweepPoint,
                use_cache: bool) -> Tuple[SimStats, Optional[dict], str, float]:
    before = runner.run_cache_stats()
    start = time.perf_counter()
    stats, miss_map = point.run(use_cache=use_cache)
    elapsed = time.perf_counter() - start
    source = _classify(before, runner.run_cache_stats()) if use_cache else "sim"
    return stats, miss_map, source, elapsed


# ----------------------------------------------------------------------
# One attempt of one point
# ----------------------------------------------------------------------
#: An attempt's outcome: ``("ok", SimStats, miss_map, source,
#: seconds)``, ``("crash", exitcode)``, ``("timeout", seconds)``,
#: ``("transient", message)`` or ``("error", message)``.
Outcome = Tuple


def _execute(point: SweepPoint, index: int, attempt: int,
             use_cache: bool, plan: Optional[FaultPlan],
             timeout: Optional[float], worker: bool) -> Outcome:
    """Run one attempt of one point and return its outcome tuple.

    In a ``worker`` process an injected crash exits hard and an
    injected hang sleeps, leaving detection to the supervising parent.
    In-process (``worker=False``) nothing can kill the point, so the
    same faults map straight to the outcome the parent would have
    seen: a crash with :data:`~repro.experiments.faults.
    CRASH_EXIT_CODE`, or a timeout.
    """
    fault = plan.exec_fault(index, point.label, attempt) if plan else None
    if fault is not None:
        if fault.kind == faults_mod.CRASH:
            if worker:
                os._exit(faults_mod.CRASH_EXIT_CODE)
            return ("crash", faults_mod.CRASH_EXIT_CODE)
        if fault.kind == faults_mod.HANG:
            if not worker:
                return ("timeout", timeout)
            time.sleep(fault.seconds)
        else:
            return ("transient",
                    f"injected transient fault at {point.label}")
    try:
        stats, miss_map, source, elapsed = _run_serial(point, use_cache)
    except Exception as exc:
        return ("error", f"{type(exc).__name__}: {exc}")
    if plan and use_cache:
        plan.corrupt_cache_entries(index, point.label, attempt, point.key())
    return ("ok", stats, miss_map, source, elapsed)


def _outcome_error(outcome: Outcome, label: str) -> ExperimentError:
    """Map a non-``ok`` outcome to its taxonomy error: crashes,
    timeouts and transient faults are :class:`TransientError`
    (retryable); a simulation error is a plain
    :class:`ExperimentError`."""
    kind, detail = outcome[0], outcome[1]
    if kind == "crash":
        return WorkerCrashError(
            f"worker for {label} died (exit code {detail})",
            exitcode=detail)
    if kind == "timeout":
        limit = "" if detail is None else f" ({detail:.1f}s)"
        return PointTimeoutError(
            f"{label} exceeded point timeout{limit}", timeout=detail)
    if kind == "transient":
        return TransientError(detail)
    return ExperimentError(detail)


# ----------------------------------------------------------------------
# Forked workers (jobs >= 2)
# ----------------------------------------------------------------------
def _point_process(conn, index: int, attempt: int, point: SweepPoint,
                   use_cache: bool, plan_json: Optional[str]) -> None:
    """Entry point of a per-attempt worker process: sends exactly one
    outcome tuple back through ``conn`` (stats as a state dict), unless
    an injected crash exits first."""
    # The parent owns interruption: it drains on SIGINT and terminates
    # workers with SIGTERM, which must kill even when the parent's
    # Python-level handlers were inherited through fork.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    plan = FaultPlan.from_json(plan_json) if plan_json else None
    outcome = _execute(point, index, attempt, use_cache, plan,
                       timeout=None, worker=True)
    if outcome[0] == "ok":
        outcome = ("ok", outcome[1].state_dict()) + outcome[2:]
    conn.send(outcome)
    conn.close()


@dataclasses.dataclass
class _Live:
    """A worker currently executing one attempt of one point."""

    proc: object
    conn: object
    index: int
    attempt: int
    started: float


def _spawn(ctx, point: SweepPoint, index: int, attempt: int,
           use_cache: bool, plan_json: Optional[str]) -> _Live:
    recv_conn, send_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(
        target=_point_process,
        args=(send_conn, index, attempt, point, use_cache, plan_json),
        daemon=True,
    )
    proc.start()
    send_conn.close()
    return _Live(proc, recv_conn, index, attempt, time.monotonic())


def _reap(live: _Live,
          point_timeout: Optional[float]) -> Optional[Outcome]:
    """Poll one worker; returns its outcome tuple, or None while it
    runs.  Parent-detected outcomes are ``("crash", exitcode)`` and
    ``("timeout", point_timeout)``."""
    # Liveness *before* the pipe check closes the exit race: once the
    # process is observably dead, anything it sent is already buffered.
    alive = live.proc.is_alive()
    if live.conn.poll():
        try:
            message = live.conn.recv()
        except (EOFError, OSError):
            message = None
        live.proc.join()
        live.conn.close()
        if message is None:
            return ("crash", live.proc.exitcode)
        if message[0] == "ok":
            message = ("ok", SimStats.from_state(message[1])) + message[2:]
        return message
    if not alive:
        live.proc.join()
        live.conn.close()
        return ("crash", live.proc.exitcode)
    if point_timeout is not None and \
            time.monotonic() - live.started > point_timeout:
        _stop(live)
        return ("timeout", point_timeout)
    return None


def _stop(live: _Live) -> None:
    """Terminate (then, if need be, kill) one worker and release it."""
    live.proc.terminate()
    live.proc.join(5.0)
    if live.proc.is_alive():  # pragma: no cover - stuck in a syscall
        live.proc.kill()
        live.proc.join()
    live.conn.close()


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def sweep(
    points: Sequence[SweepPoint],
    jobs: int = 1,
    use_cache: bool = True,
    progress: Optional[ProgressFn] = _default_progress,
    max_retries: int = DEFAULT_MAX_RETRIES,
    point_timeout: Optional[float] = None,
    keep_going: bool = False,
    backoff_base: float = DEFAULT_BACKOFF,
    fault_plan: Optional[FaultPlan] = None,
) -> SweepReport:
    """Evaluate every point and return a :class:`SweepReport`.

    ``jobs == 1`` runs points in-process; ``jobs >= 2`` gives every
    attempt its own forked worker, up to ``jobs`` at a time.  Cached
    points (memory or disk) resolve in the parent first, so a warm
    sweep never forks at all.

    Resilience policy:

    * transient failures (worker crash, ``point_timeout`` exceeded,
      injected flaky faults) are retried up to ``max_retries`` times
      with exponential backoff from ``backoff_base`` seconds and
      deterministic per-point jitter;
    * deterministic simulation exceptions fail the point at once —
      retrying a pure function is wasted work;
    * ``keep_going=False`` (default) raises the first terminal
      :class:`PointFailure`; ``keep_going=True`` records it and keeps
      sweeping, returning completed results alongside the failures;
    * ``point_timeout`` is enforced by killing the worker and therefore
      needs ``jobs >= 2``; in-process sweeps map injected hangs straight
      to timeout failures.

    This is :func:`repro.experiments.service.serve_sweep` without an
    event stream; invalid settings raise
    :class:`~repro.experiments.errors.InvalidConfigError`.
    """
    from repro.experiments.service import ServiceConfig, serve_sweep

    config = ServiceConfig(
        jobs=jobs, use_cache=use_cache, max_retries=max_retries,
        point_timeout=point_timeout, keep_going=keep_going,
        backoff_base=backoff_base)
    return serve_sweep(points, config, progress=progress,
                       fault_plan=fault_plan)


def sweep_grid(
    workloads: Sequence[str],
    prefetchers: Sequence[str] = DEFAULT_PREFETCHERS,
    jobs: int = 1,
    use_cache: bool = True,
    progress: Optional[ProgressFn] = _default_progress,
    include_baseline: bool = True,
    **kwargs,
) -> Dict[str, Dict[str, SweepResult]]:
    """Convenience wrapper: sweep a workload × prefetcher grid and
    return ``{workload: {prefetcher_or_'fdip': SweepResult}}``.

    Point fields (scale, seed, warmup, overrides...) and resilience
    knobs (max_retries, point_timeout, keep_going...) both pass through
    ``kwargs``; failed points are simply absent from the mapping when
    ``keep_going=True``.
    """
    point_fields = {f.name for f in dataclasses.fields(SweepPoint)}
    common = {k: v for k, v in kwargs.items() if k in point_fields}
    policy = {k: v for k, v in kwargs.items() if k not in point_fields}
    points = grid(workloads, prefetchers,
                  include_baseline=include_baseline, **common)
    out: Dict[str, Dict[str, SweepResult]] = {}
    for result in sweep(points, jobs=jobs, use_cache=use_cache,
                        progress=progress, **policy):
        name = result.point.prefetcher or "fdip"
        out.setdefault(result.point.workload, {})[name] = result
    return out


__all__ = [
    "DEFAULT_PREFETCHERS", "DEFAULT_MAX_RETRIES", "DEFAULT_BACKOFF",
    "SweepPoint", "SweepResult", "SweepReport", "PointFailure",
    "grid", "sweep", "sweep_grid",
]
