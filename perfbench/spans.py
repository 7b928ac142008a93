"""Outside-in layer tracing: timing wrappers around repro's public callables.

The traced run installs a wrapper on each callable in :data:`TARGETS`
(module-level functions and class attributes), runs the workload, and
removes every wrapper again, so the simulator's own code is never
edited.  Wrapping at class level works because the commit loop and the
FDIP runahead look their callees up afresh each time they are entered
(``_run_range`` and ``advance`` hoist bound methods into locals per
call), so a wrapper installed before a run is the one the run uses.

Accounting: each wrapped call is one span.  A span's *self* time is its
duration minus the durations of the wrapped calls made inside it, so the
self times of all spans opened under a root add up to the root's
duration.  Fine-grained spans (millions per point) are aggregated in
memory per span name as ``[self_s, total_s, calls]``; coarse spans
(points, warmup/measure phases, application builds) are also kept one by
one with their start, end and enclosing span.  Nothing is written until
:meth:`Tracer.dump`, except in forked sweep workers: there the wrapper of
``SweepPoint.run`` resets the inherited table on entry and writes the
worker's table to ``flush_dir`` when the call returns, and the parent
merges those files with :meth:`Tracer.merge_dir`.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: (module, class or "" for a module-level function, attribute, span).
#: Several callables may share one span name (e.g. BTB lookup + update).
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.workloads.cache", "", "build_application",
     "workloads.build_application"),
    ("repro.workloads.generator", "", "generate_binary",
     "workloads.generate_binary"),
    ("repro.workloads.microservices", "", "generate_microservice_binary",
     "workloads.generate_binary"),
    ("repro.isa.linker", "Linker", "link", "isa.link"),
    ("repro.workloads.appmodel", "Application", "trace", "workloads.trace"),
    ("repro.experiments.runner", "", "run_prefetcher",
     "experiments.runner.point"),
    ("repro.experiments.sweep", "SweepPoint", "run",
     "experiments.sweep.worker_point"),
    ("repro.cpu.simulator", "FrontEndSimulator", "warmup", "cpu.warmup"),
    ("repro.cpu.simulator", "FrontEndSimulator", "measure", "cpu.measure"),
    ("repro.cpu.probes", "ProbeBus", "fire", "cpu.probes.fire"),
    ("repro.cpu.requests", "RequestLatencyTracker", "record",
     "cpu.requests.record"),
    ("repro.frontend.fdip", "FDIPFrontEnd", "advance",
     "frontend.fdip.advance"),
    ("repro.frontend.tage", "TagePredictor", "predict_and_update",
     "frontend.tage"),
    ("repro.frontend.btb", "BranchTargetBuffer", "lookup", "frontend.btb"),
    ("repro.frontend.btb", "BranchTargetBuffer", "update", "frontend.btb"),
    ("repro.frontend.ras", "ReturnAddressStack", "push", "frontend.ras"),
    ("repro.frontend.ras", "ReturnAddressStack", "pop", "frontend.ras"),
    ("repro.frontend.ittage", "ITTagePredictor", "predict_and_update",
     "frontend.ittage"),
    ("repro.memory.hierarchy", "MemoryHierarchy", "demand_fetch",
     "memory.demand_fetch"),
    ("repro.memory.hierarchy", "MemoryHierarchy", "prefetch",
     "memory.prefetch"),
    ("repro.memory.hierarchy", "MemoryHierarchy", "metadata_read",
     "memory.metadata"),
    ("repro.memory.hierarchy", "MemoryHierarchy", "metadata_write",
     "memory.metadata"),
    ("repro.memory.tlb", "InstructionTLB", "translate", "memory.itlb"),
    ("repro.memory.tlb", "InstructionTLB", "prefetch", "memory.itlb"),
    ("repro.prefetchers.base", "InstructionPrefetcher", "on_commit",
     "prefetchers.on_commit"),
    ("repro.prefetchers.base", "InstructionPrefetcher", "on_miss",
     "prefetchers.on_miss"),
    ("repro.prefetchers.eip", "EIPPrefetcher", "on_commit",
     "prefetchers.on_commit"),
    ("repro.prefetchers.eip", "EIPPrefetcher", "on_miss",
     "prefetchers.on_miss"),
    ("repro.core.prefetcher", "HierarchicalPrefetcher", "on_commit",
     "core.on_commit"),
    ("repro.experiments.diskcache", "DiskCache", "put",
     "experiments.diskcache.put"),
    ("repro.experiments.diskcache", "DiskCache", "get",
     "experiments.diskcache.get"),
    ("repro.experiments.service", "JsonlEventLog", "__call__",
     "experiments.journal.append"),
)

#: Spans also recorded one by one (few per point).
COARSE = frozenset((
    "bench.root", "workloads.build_application", "workloads.trace",
    "experiments.runner.point", "experiments.sweep.worker_point",
    "cpu.warmup", "cpu.measure",
))

#: Spans whose result's ``len()`` is summed into the ``calls`` slot of
#: another cell (generated trace blocks).
SIZED = {"workloads.trace": "workloads.trace.blocks"}

#: The sweep worker's root call: forked workers flush when it returns.
WORKER_ROOT = "experiments.sweep.worker_point"

_MISSING = object()


class Tracer:
    """In-memory span table plus the wrappers that fill it."""

    def __init__(self, flush_dir: Optional[Path] = None):
        #: span name -> [self seconds, total seconds, calls]
        self.cells: Dict[str, List[float]] = {}
        #: (name, start, end, enclosing coarse span or "") per coarse span
        self.spans: List[Tuple[str, float, float, str]] = []
        self.flush_dir = Path(flush_dir) if flush_dir else None
        self._pid = os.getpid()
        self._stack: List[float] = [0.0]  # child seconds per open span
        self._coarse: List[str] = []
        self._installed: List[Tuple[object, str, object]] = []

    # -- accounting ----------------------------------------------------
    def cell(self, name: str) -> List[float]:
        return self.cells.setdefault(name, [0.0, 0.0, 0])

    def self_s(self, name: str) -> float:
        return self.cells.get(name, (0.0, 0.0, 0))[0]

    def total_s(self, name: str) -> float:
        return self.cells.get(name, (0.0, 0.0, 0))[1]

    def calls(self, name: str) -> int:
        return int(self.cells.get(name, (0.0, 0.0, 0))[2])

    def _reset(self) -> None:
        for c in self.cells.values():
            c[0] = c[1] = 0.0
            c[2] = 0
        self.spans.clear()
        self._stack[:] = [0.0]
        self._coarse.clear()

    def wrap(self, name: str, fn: Callable) -> Callable:
        """Return ``fn`` wrapped to account one span per call."""
        cell = self.cell(name)
        stack = self._stack
        clock = time.perf_counter

        if name in COARSE:
            spans = self.spans
            coarse = self._coarse
            sized = self.cell(SIZED[name]) if name in SIZED else None

            def traced(*args, **kwargs):
                parent = coarse[-1] if coarse else ""
                coarse.append(name)
                stack.append(0.0)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                    if sized is not None:
                        sized[2] += len(result)
                    return result
                finally:
                    t1 = clock()
                    dt = t1 - t0
                    child = stack.pop()
                    stack[-1] += dt
                    cell[0] += dt - child
                    cell[1] += dt
                    cell[2] += 1
                    coarse.pop()
                    spans.append((name, t0, t1, parent))
        else:
            def traced(*args, **kwargs):
                stack.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    child = stack.pop()
                    stack[-1] += dt
                    cell[0] += dt - child
                    cell[1] += dt
                    cell[2] += 1

        if name != WORKER_ROOT:
            return traced

        def worker_root(*args, **kwargs):
            if os.getpid() == self._pid:
                return traced(*args, **kwargs)
            # A forked sweep worker: drop the table inherited from the
            # parent, then hand this worker's spans back through a file.
            self._reset()
            try:
                return traced(*args, **kwargs)
            finally:
                self.dump(self.flush_dir / f"worker-{os.getpid()}.json")
        return worker_root

    def root(self, fn: Callable, *args, **kwargs):
        """Call ``fn`` under the ``bench.root`` span (harness residual)."""
        return self.wrap("bench.root", fn)(*args, **kwargs)

    # -- install / remove ----------------------------------------------
    def install(self) -> None:
        """Wrap every target; :meth:`remove` restores the originals."""
        if self._installed:
            raise RuntimeError("wrappers already installed")
        for module_name, owner_name, attr, span in TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            own = vars(owner).get(attr, _MISSING)
            current = getattr(owner, attr)
            self._installed.append((owner, attr, own))
            setattr(owner, attr, self.wrap(span, current))

    def remove(self) -> None:
        while self._installed:
            owner, attr, own = self._installed.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    # -- output --------------------------------------------------------
    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"pid": os.getpid(), "cells": self.cells,
                   "spans": self.spans}
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload), encoding="utf-8")
        os.replace(tmp, path)

    def merge_dir(self, directory: Path) -> int:
        """Add every worker table in ``directory``; returns the count."""
        merged = 0
        for path in sorted(Path(directory).glob("worker-*.json")):
            payload = json.loads(path.read_text(encoding="utf-8"))
            for name, (self_s, total_s, calls) in payload["cells"].items():
                c = self.cell(name)
                c[0] += self_s
                c[1] += total_s
                c[2] += calls
            self.spans.extend(tuple(s) for s in payload["spans"])
            merged += 1
        return merged
