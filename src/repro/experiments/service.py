"""The sweep supervisor: one synchronous loop that schedules every
sweep, plus its JSONL progress-event protocol.

:func:`serve_sweep` is the single scheduler behind
:func:`repro.experiments.sweep.sweep` and the journaled
:func:`repro.experiments.journal.run_sweep` (and so behind every
``repro sweep``).  It resolves warm points in the parent, then runs
one poll loop (``_supervise``) over the rest::

    serve_sweep(points)
      ├─ cache hits, journal replays, poison points   (no scheduling)
      └─ _supervise                                   one loop, no threads
           jobs == 1:  each attempt runs in-process   (sweep._execute)
           jobs >= 2:  one forked worker per attempt, (sweep._spawn /
                       up to ``jobs`` at a time        sweep._reap)
                       after one prepare worker per    (sweep.
                       missing input artifact           _prepare_process)

The only width is :attr:`ServiceConfig.jobs`.  The in-process path is
the reference the forked path is checked against: results are
bit-identical either way (tests/test_determinism.py,
tests/test_service.py).  With ``jobs >= 2`` a crashed worker or one
past ``point_timeout`` costs its point one attempt; every non-``ok``
outcome goes through the one mapping
:func:`repro.experiments.sweep._outcome_error` and the one retry
decision in ``_supervise`` (deterministic backoff, ``max_retries``,
``keep_going`` vs fail-fast).

Progress events: every scheduling decision is emitted as one JSON
object (``begin``, ``prepared``, ``scheduled``, ``completed``,
``retried``, ``failed``, ``poisoned``, ``end``) with a monotonic
``seq``;
:data:`EVENT_SCHEMA` is the declarative layout.  :class:`JsonlEventLog`
appends them to a file as JSON Lines; :func:`read_events` /
:func:`summarize_events` consume the stream and check that every point
is accounted for — the contract the CI ``manifest`` job enforces.
Event emission can never fail a sweep: sink exceptions are swallowed.
:mod:`repro.experiments.journal` promotes this stream into a durable
**run journal** (fsync'd appends under a per-run directory) that
``repro sweep --resume`` replays.

Run-level self-healing (docs/RESILIENCE.md):

* **Graceful shutdown** — with ``handle_signals=True`` SIGINT/SIGTERM
  request a :class:`ShutdownRequest` (callers may also pass and request
  one themselves) and the loop stops: in-flight workers are reaped (an
  in-process point finishes first), completed
  points are kept, the event stream gets an ``end`` record with
  ``status="interrupted"``, and
  :class:`~repro.experiments.errors.SweepInterrupted` carries the
  partial report out.
* **Replay hooks** — ``preresolved`` results (journal-completed points
  recovered from the disk cache) enter the report without new events;
  ``poisoned`` failures (points that already exhausted retries in a
  previous run) are skipped-with-failure, emitting an informational
  ``poisoned`` event instead of re-burning their retry budget.
"""

from __future__ import annotations

import dataclasses
import heapq
import importlib
import json
import multiprocessing
import multiprocessing.connection
import os
import signal
import threading
import time
from pathlib import Path
from typing import (
    Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union,
)

from repro.experiments import runner
from repro.experiments.errors import (
    EventStreamError,
    InvalidConfigError,
    PointFailure,
    SweepInterrupted,
    TransientError,
    backoff_delay,
)
from repro.experiments.faults import FaultPlan
from repro.experiments.inputs import InputStore, TraceInputs
from repro.experiments.sweep import (
    DEFAULT_BACKOFF,
    DEFAULT_MAX_RETRIES,
    ProgressFn,
    SweepPoint,
    SweepReport,
    SweepResult,
    _default_progress,
)

# ``repro.experiments`` re-exports the ``sweep()`` *function* under the
# same name as the submodule, so attribute access cannot reach the
# module; resolve it through the import system instead.
sweep_mod = importlib.import_module("repro.experiments.sweep")

__all__ = [
    "EVENT_SCHEMA", "EVENT_SCHEMA_VERSION",
    "ServiceConfig", "JsonlEventLog", "ShutdownRequest", "serve_sweep",
    "read_events", "follow_events", "summarize_events",
    "format_events_summary",
]

#: Bump when the progress-event layout changes; consumers should check.
#: v3 drops the sharded scheduler's kinds (``heartbeat``, ``requeued``,
#: ``pool_restarted``, ``pool_retired``) and the ``shard``/``shards``/
#: ``inline`` payload keys; readers tally those v2 kinds under
#: ``unknown``.  v4 adds ``prepared``: one per input artifact of a
#: forked sweep, with ``source`` one of ``built``/``disk``/``failed``.
EVENT_SCHEMA_VERSION = 4

#: Declarative v4 event schema: kind -> required / optional payload
#: keys.  The :class:`_Emitter` envelope (``v``, ``seq``, ``event``)
#: is implicit and not listed.  This table is the single source of
#: truth the ``event-schema`` lint rule checks every ``emit(...)``
#: site and consumer against — add the key here *first* when growing
#: an event, or the emit site becomes a lint error.
EVENT_SCHEMA = {
    "begin": {
        "required": ("total", "cached", "preresolved", "poisoned",
                     "jobs"),
        "optional": ("run_id", "segment"),
    },
    "prepared": {
        "required": ("label", "seconds", "source"),
    },
    "scheduled": {
        "required": ("index", "label", "attempt"),
    },
    "completed": {
        "required": ("index", "label", "attempt", "source", "seconds"),
    },
    "retried": {
        "required": ("index", "label", "attempt", "kind",
                     "next_attempt", "delay"),
    },
    "failed": {
        "required": ("index", "label", "attempts", "kind", "message"),
    },
    "poisoned": {
        "required": ("index", "label", "kind", "attempts", "message"),
    },
    "end": {
        "required": ("status", "completed", "failed", "seconds"),
    },
}

#: Longest the supervisor blocks between polls (worker completions wake
#: it sooner; retry deadlines and shutdown requests are checked at this
#: period).
_POLL_SECONDS = 0.01


@dataclasses.dataclass(frozen=True)
class ServiceConfig:
    """Knobs of one sweep: width × resilience policy."""

    #: Constructor-only and must be 1.  Kept so that callers written for
    #: the removed multi-pool scheduler (``ServiceConfig(shards=1,
    #: ...)``) keep constructing; it is not stored, journaled or
    #: emitted.
    shards: dataclasses.InitVar[int] = 1
    #: 1 = run points in-process; N >= 2 = up to N forked workers, one
    #: per attempt.
    jobs: int = 2
    max_retries: int = DEFAULT_MAX_RETRIES
    #: Seconds before a forked worker is killed (needs ``jobs >= 2``).
    point_timeout: Optional[float] = None
    keep_going: bool = False
    backoff_base: float = DEFAULT_BACKOFF
    use_cache: bool = True

    def __post_init__(self, shards: int) -> None:
        problems = []
        if shards != 1:
            problems.append(f"shards must be 1 (jobs is the only "
                            f"width), got {shards}")
        if self.jobs < 1:
            problems.append(f"jobs must be >= 1, got {self.jobs}")
        if self.max_retries < 0:
            problems.append(
                f"max_retries must be >= 0, got {self.max_retries}")
        if self.point_timeout is not None and self.point_timeout <= 0:
            problems.append(f"point_timeout must be > 0 (or unset), "
                            f"got {self.point_timeout}")
        if self.backoff_base < 0:
            problems.append(
                f"backoff_base must be >= 0, got {self.backoff_base}")
        if problems:
            raise InvalidConfigError("; ".join(problems))


# ----------------------------------------------------------------------
# Progress events
# ----------------------------------------------------------------------
EventSink = Callable[[dict], None]


class _Emitter:
    """Sequence-numbered event fan-out that can never fail the sweep.

    Accepts one sink, a sequence of sinks (the journal plus an
    ``--events`` file, say), or None.
    """

    def __init__(self,
                 sink: Union[EventSink, Sequence[EventSink], None]):
        if sink is None:
            self.sinks: Tuple[EventSink, ...] = ()
        elif callable(sink):
            self.sinks = (sink,)
        else:
            self.sinks = tuple(s for s in sink if s is not None)
        self.seq = 0

    def __call__(self, event_type: str, **fields) -> None:
        if not self.sinks:
            return
        self.seq += 1
        event = {"v": EVENT_SCHEMA_VERSION, "seq": self.seq,
                 "event": event_type}
        event.update(fields)
        for sink in self.sinks:
            try:
                sink(event)
            except Exception:
                pass  # observability must never break the sweep


class JsonlEventLog:
    """Event sink appending one JSON object per line to ``path``.

    Lines are flushed as written so a tailing consumer (dashboard, the
    CLI progress display, ``tail -f``) sees events live.  With
    ``fsync=True`` every line is also fsync'd — the crash-durability
    mode the run journal uses, where a journaled record must survive a
    SIGKILL of the writer.  ``append=True`` keeps an existing file's
    contents (journal segments never overwrite).  Usable as a context
    manager; ``close()`` is idempotent.
    """

    def __init__(self, path: Union[str, Path], append: bool = False,
                 fsync: bool = False):
        self.path = Path(path)
        self.fsync = bool(fsync)
        self._fh = open(self.path, "a" if append else "w",
                        encoding="utf-8")

    def __call__(self, event: dict) -> None:
        if self._fh is None:
            return
        self._fh.write(json.dumps(event, sort_keys=True) + "\n")
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "JsonlEventLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_events(path: Union[str, Path]) -> List[dict]:
    """Parse a JSONL event stream.

    A torn *final* line (a writer killed mid-append) is dropped; a torn
    line anywhere else is corruption and raises
    :class:`~repro.experiments.errors.EventStreamError` (a
    ``ValueError`` subclass).
    """
    events: List[dict] = []
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError as exc:
            if lineno == len(lines):
                break  # torn tail from an interrupted writer
            raise EventStreamError(
                f"{path}:{lineno}: undecodable event line: {exc}"
            ) from exc
    return events


def follow_events(path: Union[str, Path], poll: float = 0.2,
                  timeout: Optional[float] = None,
                  stop: Optional[Callable[[], bool]] = None,
                  ) -> Iterator[dict]:
    """Tail a live JSONL event stream, yielding events as they land.

    The minimal-CLI dashboard primitive (``repro manifest events
    --follow``): starts from the top of the file (which may not exist
    yet), sleeps ``poll`` seconds between reads, and returns after an
    ``end`` event, when ``stop()`` goes true, or after ``timeout``
    seconds of wall time.  A partially written final line is simply
    retried on the next poll.
    """
    deadline = (None if timeout is None
                else time.monotonic() + timeout)
    buffer = ""
    position = 0
    while True:
        chunk = ""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                fh.seek(position)
                chunk = fh.read()
                position = fh.tell()
        except OSError:
            pass  # not created yet (or vanished): keep polling
        buffer += chunk
        while "\n" in buffer:
            line, buffer = buffer.split("\n", 1)
            if not line.strip():
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn mid-write; complete lines still flow
            yield event
            if event.get("event") == "end":
                return
        if stop is not None and stop():
            return
        if deadline is not None and time.monotonic() >= deadline:
            return
        time.sleep(poll)


def summarize_events(events: Sequence[dict]) -> dict:
    """Aggregate a stream into point accounting + retry/failure counts.

    ``missing`` lists point indices with no terminal event — non-empty
    means the stream does not account for the whole grid (a crashed
    service or a truncated artifact).  ``duplicates`` lists indices
    with *more than one* terminal event — the exactly-once check for
    resumed runs, whose joined journal segments must still yield one
    terminal per point (``poisoned`` records are informational, not
    terminal: the poison point's ``failed`` record lives in an earlier
    segment).  ``segments`` counts ``begin`` records, i.e. how many
    run attempts the stream joins; ``status`` is the last ``end``
    record's status (``ok`` / ``failed`` / ``interrupted``, or None
    for a stream still missing its trailer).  ``unknown`` tallies
    event kinds outside :data:`EVENT_SCHEMA` (a newer writer's
    stream, or a v2 journal's ``heartbeat``/``requeued``/``pool_*``
    records): counted for visibility, never fatal.  ``inputs`` tallies
    ``prepared`` events — input artifacts by source plus the seconds
    spent building them — beside ``point_seconds``, the summed
    ``seconds`` of the completed points.
    """
    total = None
    completed: Dict[int, dict] = {}
    failed: Dict[int, dict] = {}
    terminal_counts: Dict[int, int] = {}
    poisoned: Dict[int, dict] = {}
    retried = 0
    retry_kinds: Dict[str, int] = {}
    sources: Dict[str, int] = {}
    scheduled = 0
    segments = 0
    elapsed = None
    status = None
    unknown: Dict[str, int] = {}
    inputs: Dict[str, int] = {}
    build_seconds = 0.0
    for event in events:
        kind = event.get("event")
        if kind == "begin":
            segments += 1
            if event.get("total") is not None:
                total = event.get("total")
        elif kind == "prepared":
            source = str(event.get("source"))
            inputs[source] = inputs.get(source, 0) + 1
            if source != "disk":
                build_seconds += event.get("seconds") or 0.0
        elif kind == "scheduled":
            scheduled += 1
        elif kind == "completed":
            completed[event["index"]] = event
            terminal_counts[event["index"]] = \
                terminal_counts.get(event["index"], 0) + 1
            source = event.get("source", "sim")
            sources[source] = sources.get(source, 0) + 1
        elif kind == "failed":
            failed[event["index"]] = event
            terminal_counts[event["index"]] = \
                terminal_counts.get(event["index"], 0) + 1
        elif kind == "poisoned":
            poisoned[event["index"]] = event
        elif kind == "retried":
            retried += 1
            fk = event.get("kind", "transient")
            retry_kinds[fk] = retry_kinds.get(fk, 0) + 1
        elif kind == "end":
            elapsed = event.get("seconds")
            status = event.get("status", status)
        else:
            # A kind this schema version does not know (a newer
            # writer, a v2 journal's scheduler records, or garbage):
            # counted, never fatal — readers must keep working on
            # streams from other schema versions.
            unknown[str(kind)] = unknown.get(str(kind), 0) + 1
    known = total if total is not None else (
        max(list(completed) + list(failed), default=-1) + 1)
    missing = sorted(set(range(known)) - set(completed) - set(failed))
    duplicates = sorted(i for i, n in terminal_counts.items() if n > 1)
    return {
        "total": known,
        "completed": len(completed),
        "failed": len(failed),
        "missing": missing,
        "duplicates": duplicates,
        "poisoned": sorted(poisoned),
        "scheduled": scheduled,
        "retried": retried,
        "retry_kinds": retry_kinds,
        "segments": segments,
        "status": status,
        "sources": sources,
        "unknown": unknown,
        "inputs": inputs,
        "build_seconds": round(build_seconds, 4),
        "point_seconds": round(sum(
            e.get("seconds") or 0.0 for e in completed.values()), 4),
        "failures": [
            {"index": i, "label": f.get("label"),
             "kind": f.get("kind"), "message": f.get("message")}
            for i, f in sorted(failed.items())
        ],
        "seconds": elapsed,
    }


def format_events_summary(summary: dict) -> str:
    """Human-readable form of :func:`summarize_events` (the CI step
    summary / ``repro manifest events`` output)."""
    lines = [
        f"points:    {summary['total']}",
        f"completed: {summary['completed']}"
        + (f"  ({', '.join(f'{v} {k}' for k, v in sorted(summary['sources'].items()))})"
           if summary["sources"] else ""),
        f"failed:    {summary['failed']}",
        f"retries:   {summary['retried']}"
        + (f"  ({', '.join(f'{v} {k}' for k, v in sorted(summary['retry_kinds'].items()))})"
           if summary["retry_kinds"] else ""),
    ]
    if summary.get("inputs"):
        counts = summary["inputs"]
        lines.append(
            f"inputs:    {sum(counts.values())} artifact(s) ("
            + ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
            + f"), {summary['build_seconds']:.1f}s building; points "
              f"{summary['point_seconds']:.1f}s")
    if summary.get("status") is not None:
        lines.insert(0, f"status:    {summary['status']}")
    if summary.get("segments", 0) > 1:
        lines.append(f"segments:  {summary['segments']} "
                     "(resumed run — joined journal)")
    if summary.get("poisoned"):
        lines.append(f"poisoned:  {len(summary['poisoned'])} "
                     f"(quarantined on resume: {summary['poisoned']})")
    if summary.get("unknown"):
        lines.append(
            "unknown:   "
            + ", ".join(f"{v} {k}"
                        for k, v in sorted(summary["unknown"].items()))
            + f" (kinds outside schema v{EVENT_SCHEMA_VERSION}; "
              "ignored)")
    if summary["seconds"] is not None:
        lines.append(f"wall:      {summary['seconds']:.1f}s")
    for failure in summary["failures"]:
        lines.append(f"  FAIL [{failure['index']}] {failure['label']}: "
                     f"{failure['kind']}: {failure['message']}")
    if summary["missing"]:
        lines.append(f"  MISSING terminal events for point(s) "
                     f"{summary['missing']} — stream does not account "
                     "for the grid")
    if summary.get("duplicates"):
        lines.append(f"  DUPLICATE terminal events for point(s) "
                     f"{summary['duplicates']} — exactly-once "
                     "accounting violated")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Graceful shutdown
# ----------------------------------------------------------------------
class ShutdownRequest:
    """Thread- and signal-safe stop flag for :func:`serve_sweep`.

    ``request()`` may be called from a signal handler, another thread,
    or a test; the supervisor polls ``requested()`` and drains the run
    (reap in-flight workers, keep completed points, write an
    ``end{status=interrupted}`` record, raise
    :class:`~repro.experiments.errors.SweepInterrupted`).
    """

    def __init__(self) -> None:
        self._event = threading.Event()
        #: The signal number that triggered the request, when one did.
        self.signum: Optional[int] = None

    def request(self, signum: Optional[int] = None) -> None:
        if signum is not None:
            self.signum = signum
        self._event.set()

    def requested(self) -> bool:
        return self._event.is_set()


# ----------------------------------------------------------------------
# The supervisor loop
# ----------------------------------------------------------------------
class _SweepState:
    """Results, failures and progress lines of one sweep."""

    def __init__(self, points: List[SweepPoint],
                 progress: Optional[ProgressFn], keep_going: bool):
        self.points = points
        self.total = len(points)
        self.results: List[Optional[SweepResult]] = [None] * self.total
        self.failures: Dict[int, PointFailure] = {}
        self.progress = progress
        self.keep_going = keep_going
        self.done = 0

    def _emit(self, label: str, tail: str) -> None:
        self.done += 1
        if self.progress is not None:
            width = len(str(self.total))
            self.progress(
                f"[{self.done:>{width}}/{self.total}] {label:<28s} {tail}"
            )

    def complete(self, index: int, result: SweepResult) -> None:
        self.results[index] = result
        self._emit(result.point.label,
                   f"{result.source:<6s} {result.seconds:6.2f}s")

    def fail(self, failure: PointFailure, poisoned: bool = False) -> None:
        """Record a terminal failure; raises it under fail-fast."""
        self.failures[failure.index] = failure
        if poisoned:
            tail = (f"FAIL   ({failure.kind}, poisoned — quarantined by "
                    "run journal)")
        else:
            tail = (f"FAIL   ({failure.kind} after {failure.attempts} "
                    "attempts)")
        self._emit(failure.label, tail)
        if not self.keep_going:
            raise failure

    def report(self) -> SweepReport:
        return SweepReport(
            results=[r for r in self.results if r is not None],
            failures=[self.failures[i] for i in sorted(self.failures)],
        )


def _supervise(state: _SweepState, pending: Sequence[int],
               config: ServiceConfig, emit: _Emitter,
               plan: Optional[FaultPlan],
               shutdown: Optional[ShutdownRequest]) -> None:
    """Run every pending point to a terminal outcome.

    ``waiting`` is a heap of ``(ready_at, index, attempt)``; a retry
    re-enters with its backoff deadline.  With ``jobs == 1`` each
    attempt runs in-process when dispatched; with ``jobs >= 2`` up to
    ``jobs`` forked workers run at once and the loop blocks on their
    pipes and sentinels between polls.

    With ``jobs >= 2`` the points wait on their trace's input artifact
    (:mod:`repro.experiments.inputs`): each missing one gets a single
    prepare attempt, a forked worker under the same width and
    ``point_timeout``, dispatched ahead of any point.  A point becomes
    dispatchable once its artifact is resolved — on disk, built, or
    failed (its points then build in place).  Prepare attempts emit one
    ``prepared`` event each and are not points: they never retry, never
    fail the sweep and are not in the report.

    Returns early once ``shutdown`` is requested; live workers are
    reaped on every exit path, including a fail-fast
    :class:`PointFailure`.
    """
    in_process = config.jobs == 1
    ctx = None if in_process else multiprocessing.get_context()
    plan_json = plan.to_json() if (plan and not in_process) else None
    store = None
    if not in_process:
        try:
            store = InputStore.for_sweep(config.use_cache)
        except OSError:
            pass  # nowhere to put artifacts: every point builds in place
    # Points waiting on their artifact, and the artifacts to build, in
    # the order of their first point.
    blocked: Dict[TraceInputs, List[int]] = {}
    to_prepare: List[TraceInputs] = []
    ready: List[int] = []
    for index in pending:
        inputs = (TraceInputs.of(state.points[index])
                  if store is not None else None)
        if inputs is None:
            ready.append(index)
        else:
            blocked.setdefault(inputs, []).append(index)
    for inputs in list(blocked):
        if store.has(inputs):
            emit("prepared", label=inputs.label, seconds=0.0,
                 source="disk")
            ready += blocked.pop(inputs)
        else:
            to_prepare.append(inputs)
    # A sorted list is already a heap.
    waiting: List[Tuple[float, int, int]] = [
        (0.0, index, 1) for index in sorted(ready)]
    live: List[sweep_mod._Live] = []
    resolved = 0

    def release(worker: sweep_mod._Live, outcome: tuple) -> None:
        inputs = worker.inputs
        emit("prepared", label=inputs.label,
             seconds=round(time.monotonic() - worker.started, 4),
             source="built" if outcome[0] == "ok" else "failed")
        for index in blocked.pop(inputs):
            heapq.heappush(waiting, (0.0, index, 1))

    def resolve(index: int, attempt: int, outcome: tuple) -> None:
        nonlocal resolved
        point = state.points[index]
        result = failure = None
        if outcome[0] == "ok":
            _, stats, miss_map, source, seconds = outcome
            # lint: ordered[persist-before-append]
            if not in_process:
                # The worker counted and persisted on its side; mirror
                # it into this process (in-process attempts did both).
                runner.record_source(source)
                if config.use_cache:
                    runner.seed_cache(point.key(), stats, miss_map)
            emit("completed", index=index, label=point.label,
                 attempt=attempt, source=source,
                 seconds=round(seconds, 4))
            # lint: ordered-end
            result = SweepResult(point, stats, miss_map, seconds, source)
        else:
            error = sweep_mod._outcome_error(outcome, point.label)
            if isinstance(error, TransientError) \
                    and attempt <= config.max_retries:
                delay = backoff_delay(attempt, config.backoff_base,
                                      point.key())
                heapq.heappush(waiting, (time.monotonic() + delay, index,
                                         attempt + 1))
                emit("retried", index=index, label=point.label,
                     attempt=attempt, kind=outcome[0],
                     next_attempt=attempt + 1, delay=round(delay, 4))
                return
            failure = PointFailure.from_error(point.label, index, error,
                                              attempt)
            emit("failed", index=index, label=point.label,
                 attempts=attempt, kind=failure.kind,
                 message=failure.message)
        resolved += 1
        fault = plan.parent_signal_fault(resolved) if plan else None
        if fault is not None:
            os.kill(os.getpid(), fault.signum)
        if result is not None:
            state.complete(index, result)
        else:
            state.fail(failure)

    try:
        while waiting or live or to_prepare:
            if shutdown is not None and shutdown.requested():
                return
            if to_prepare and len(live) < config.jobs:
                inputs = to_prepare.pop(0)
                live.append(sweep_mod._spawn(
                    ctx, sweep_mod._prepare_process, (inputs, store),
                    inputs=inputs))
                continue
            if waiting and len(live) < config.jobs \
                    and waiting[0][0] <= time.monotonic():
                _, index, attempt = heapq.heappop(waiting)
                point = state.points[index]
                emit("scheduled", index=index, label=point.label,
                     attempt=attempt)
                if in_process:
                    resolve(index, attempt, sweep_mod._execute(
                        point, index, attempt, config.use_cache, plan,
                        timeout=config.point_timeout, worker=False))
                else:
                    if store is not None:
                        store.preload()
                    live.append(sweep_mod._spawn(
                        ctx, sweep_mod._point_process,
                        (index, attempt, point, config.use_cache,
                         plan_json, store),
                        index=index, attempt=attempt))
                continue
            progressed = False
            for worker in list(live):
                outcome = sweep_mod._reap(worker, config.point_timeout)
                if outcome is None:
                    continue
                live.remove(worker)
                progressed = True
                if worker.inputs is not None:
                    release(worker, outcome)
                else:
                    resolve(worker.index, worker.attempt, outcome)
            if progressed:
                continue
            if live:
                multiprocessing.connection.wait(
                    [w.conn for w in live] + [w.proc.sentinel for w in live],
                    timeout=_POLL_SECONDS)
            else:
                time.sleep(_POLL_SECONDS)
    finally:
        for worker in live:
            sweep_mod._stop(worker)
        if store is not None:
            store.close()


def _route_signals(shutdown: ShutdownRequest) -> Dict[int, object]:
    """Point SIGINT/SIGTERM at ``shutdown``; returns the handlers to
    restore (none when not on the main thread)."""
    def on_signal(signum, frame) -> None:
        shutdown.request(signum)

    previous: Dict[int, object] = {}
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[sig] = signal.signal(sig, on_signal)
        except ValueError:
            pass  # not the main thread: signals stay with the caller
    return previous


def serve_sweep(
    points: Sequence[SweepPoint],
    config: Optional[ServiceConfig] = None,
    events: Union[EventSink, Sequence[EventSink], None] = None,
    progress: Optional[ProgressFn] = _default_progress,
    fault_plan: Optional[FaultPlan] = None,
    preresolved: Optional[Dict[int, SweepResult]] = None,
    poisoned: Optional[Dict[int, PointFailure]] = None,
    shutdown: Optional[ShutdownRequest] = None,
    handle_signals: bool = False,
    run_info: Optional[dict] = None,
) -> SweepReport:
    """Evaluate every point and return a
    :class:`~repro.experiments.sweep.SweepReport`.

    Warm points resolve in the parent without scheduling; the rest go
    through the supervisor loop (see the module docstring), emitting
    the progress-event stream to ``events``.  ``fault_plan`` (or
    ``REPRO_FAULT_PLAN``) injects failures for testing.

    Resume hooks (used by :func:`repro.experiments.journal.run_sweep`):
    ``preresolved`` maps point index → recovered
    :class:`~repro.experiments.sweep.SweepResult` for points whose
    terminal ``completed`` record lives in an earlier journal segment —
    they enter the report *without* emitting new events, keeping the
    joined stream exactly-once.  ``poisoned`` maps index → the
    recorded :class:`~repro.experiments.errors.PointFailure` for
    points that already exhausted retries — they are skipped-with-
    failure (an informational ``poisoned`` event; still raising under
    fail-fast).  ``run_info`` fields are merged into the ``begin``
    record (run id, segment number).

    Interruption: when ``shutdown`` is requested (or, with
    ``handle_signals=True``, SIGINT/SIGTERM arrives) the loop drains,
    an ``end{status=interrupted}`` record is written, and
    :class:`~repro.experiments.errors.SweepInterrupted` carries the
    partial report out.
    """
    points = list(points)
    if config is None:
        config = ServiceConfig()
    if fault_plan is None:
        fault_plan = FaultPlan.from_env()
    if shutdown is None and handle_signals:
        shutdown = ShutdownRequest()
    emit = _Emitter(events)
    state = _SweepState(points, progress, config.keep_going)
    preresolved = dict(preresolved or {})
    poisoned = dict(poisoned or {})
    replayed = set(preresolved) | set(poisoned)

    pending: List[int] = []
    cached: List[Tuple[int, SweepResult]] = []
    for index, point in enumerate(points):
        if index in replayed:
            continue
        start = time.perf_counter()
        hit = runner.peek_cached(point.key()) if config.use_cache else None
        if hit is None:
            pending.append(index)
            continue
        stats, miss_map, source = hit
        runner.record_source(source)
        cached.append((index, SweepResult(
            point, stats, miss_map, time.perf_counter() - start, source)))

    begin_fields = dict(run_info or {})
    emit("begin", total=len(points), cached=len(cached),
         preresolved=len(preresolved), poisoned=len(poisoned),
         jobs=config.jobs, **begin_fields)
    # Journal-replayed completions re-enter silently: their terminal
    # events already exist in an earlier segment of the joined stream.
    for index in sorted(preresolved):
        state.complete(index, preresolved[index])
    for index, result in cached:
        emit("completed", index=index, label=result.point.label,
             attempt=0, source=result.source,
             seconds=round(result.seconds, 4))
        state.complete(index, result)

    started = time.monotonic()
    interrupted = False
    restore: Dict[int, object] = {}
    try:
        # Poison points: skipped-with-failure, no retry budget burned.
        # The ``poisoned`` event is informational (their ``failed``
        # terminal lives in the segment that exhausted the retries);
        # fail() still raises under fail-fast.
        for index in sorted(poisoned):
            failure = poisoned[index]
            emit("poisoned", index=index, label=failure.label,
                 kind=failure.kind, attempts=failure.attempts,
                 message=failure.message)
            state.fail(failure, poisoned=True)
        if pending:
            if handle_signals:
                restore = _route_signals(shutdown)
            _supervise(state, pending, config, emit, fault_plan,
                       shutdown)
        interrupted = (shutdown is not None and shutdown.requested())
    except BaseException:
        interrupted = (shutdown is not None and shutdown.requested())
        raise
    finally:
        for sig, handler in restore.items():
            signal.signal(sig, handler)
        if interrupted:
            status = "interrupted"
        elif state.failures:
            status = "failed"
        else:
            status = "ok"
        emit("end", status=status,
             completed=sum(1 for r in state.results if r is not None),
             failed=len(state.failures),
             seconds=round(time.monotonic() - started, 4))
    if interrupted:
        signum = shutdown.signum if shutdown is not None else None
        raise SweepInterrupted(
            "sweep interrupted"
            + (f" by signal {signum}" if signum else "")
            + f" with {state.done} of {len(points)} points resolved",
            report=state.report(), signum=signum,
            run_id=begin_fields.get("run_id"))
    return state.report()
