"""Per-trace input artifacts: build a trace's inputs once per sweep.

Every point on one trace simulates the same inputs (§6.1: every
prefetcher runs over the same workload trace on top of FDIP): the
trace itself and, per predictor geometry, the FDIP front end's
:class:`~repro.frontend.fdip.BranchOracle`.  Building them — generate
and link the Application, interpret the trace, run the predictors —
costs several times what simulating a tiny-scale point does.  A forked
sweep (``jobs >= 2``) therefore builds them once per trace in a
*prepare* worker and persists them as one **input artifact**; every
point worker on that trace loads the artifact into the in-process
memo (:func:`repro.workloads.cache.install_trace`) and never builds an
Application.

Layout (docs/SWEEP_CACHE.md)::

    <cache root>/inputs/<digest[:2]>/<digest>.pkl

one :class:`~repro.experiments.diskcache.DiskCache` entry per
:class:`TraceInputs`, so artifacts share the result store's checksum
envelope, atomic write and quarantine.  The payload::

    {"key": <TraceInputs.key()>, "trace": <save_trace .npz bytes>,
     "oracle": BranchOracle.codes}

The key is ``(workload, scale, seed, predictor geometry, source
digest)`` plus :data:`SCHEMA_VERSION`.  :func:`source_digest` hashes
the simulation-path source (:data:`HASHED_PACKAGES`); the result
store's keys carry it too (:func:`repro.experiments.runner.cache_key`),
so editing the model misses both stores instead of serving stale
inputs or results.

An artifact only ever speeds a point up: a missing one, or one that
fails to decode (quarantined and counted on ``cache_corrupt``), leaves
the point to build its inputs in place exactly as an in-process run
does.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import shutil
import tempfile
from pathlib import Path
from typing import Optional, Tuple

from repro.cpu.config import MachineConfig
from repro.experiments import diskcache
from repro.frontend.fdip import (
    BranchOracle,
    FrontEndParams,
    branch_oracle,
    oracle_geometry,
)
from repro.workloads.cache import clear_caches, get_trace, install_trace

__all__ = [
    "HASHED_PACKAGES", "SCHEMA_VERSION", "INPUTS_DIR", "TraceInputs",
    "InputStore", "hash_sources", "source_digest",
]

#: The ``repro`` subpackages a simulated point executes: the model
#: (``cpu``, ``frontend``, ``memory``, ``core``, ``prefetchers``) and
#: everything that builds its inputs (``workloads``, ``isa``, and
#: ``callgraph``, which ``build_app`` calls into).
HASHED_PACKAGES = ("callgraph", "core", "cpu", "frontend", "isa",
                   "memory", "prefetchers", "workloads")

#: Bump when the artifact payload layout changes (it is in every key).
SCHEMA_VERSION = 1

#: Artifact directory under the cache root.
INPUTS_DIR = "inputs"

_SOURCE_DIGEST: Optional[str] = None


def hash_sources(root: Path) -> str:
    """SHA-256 over every ``.py`` file of :data:`HASHED_PACKAGES` under
    ``root`` (a ``repro`` package directory): relative path and bytes,
    in sorted order."""
    digest = hashlib.sha256()
    # One reused buffer: reading each file into a new bytes object in
    # the middle of a run fragments the heap (+2 MB peak RSS on the
    # bench-scale prefetcher grid).
    buffer = bytearray(1 << 16)
    view = memoryview(buffer)
    for package in HASHED_PACKAGES:
        for path in sorted((root / package).rglob("*.py")):
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(b"\0")
            with open(path, "rb", buffering=0) as fh:
                while True:
                    size = fh.readinto(buffer)
                    if not size:
                        break
                    digest.update(view[:size])
            digest.update(b"\0")
    return digest.hexdigest()


def source_digest() -> str:
    """:func:`hash_sources` of the imported ``repro`` package, computed
    once per process (a few milliseconds; forked workers inherit it)."""
    global _SOURCE_DIGEST
    if _SOURCE_DIGEST is None:
        _SOURCE_DIGEST = hash_sources(Path(__file__).resolve().parents[1])
    return _SOURCE_DIGEST


@dataclasses.dataclass(frozen=True)
class TraceInputs:
    """What a point's inputs depend on: the trace and the predictor
    geometry its branch oracle is built for."""

    workload: str
    scale: str
    seed: int
    #: ``(btb_entries, btb_assoc, ras_depth)`` — see
    #: :func:`repro.frontend.fdip.oracle_geometry`.
    geometry: Tuple[Optional[int], int, int]

    @classmethod
    def of(cls, point) -> Optional["TraceInputs"]:
        """The inputs of a :class:`~repro.experiments.sweep.SweepPoint`;
        None when its overrides make no machine configuration (the
        point then fails on its own, with its own error)."""
        config = MachineConfig()
        if point.overrides:
            try:
                config = config.replace(**point.overrides)
            except AttributeError:  # an unknown config field
                return None
        return cls(point.workload, point.scale, point.seed,
                   oracle_geometry(config.frontend))

    @property
    def label(self) -> str:
        entries, assoc, ras = self.geometry
        btb = "inf" if entries is None else f"{entries}x{assoc}"
        return (f"{self.workload}/{self.scale}/s{self.seed}"
                f"/btb{btb}/ras{ras}")

    def key(self) -> str:
        return "|".join([f"inputs-v{SCHEMA_VERSION}", self.workload,
                         self.scale, f"s{self.seed}", repr(self.geometry),
                         source_digest()])


class InputStore:
    """The input artifacts under one root directory."""

    def __init__(self, root: Path, temporary: bool = False):
        self.cache = diskcache.DiskCache(root)
        #: Removed by :meth:`close` (a sweep without a result store).
        self.temporary = temporary

    @classmethod
    def for_sweep(cls, use_cache: bool) -> "InputStore":
        """``<cache root>/inputs``, or a temporary directory when the
        sweep keeps no result store (``use_cache=False`` or
        ``REPRO_DISK_CACHE=0``)."""
        if use_cache and diskcache.disk_cache_enabled():
            return cls(diskcache.get_cache().root / INPUTS_DIR)
        return cls(Path(tempfile.mkdtemp(prefix="repro-inputs-")),
                   temporary=True)

    def close(self) -> None:
        if self.temporary:
            shutil.rmtree(self.cache.root, ignore_errors=True)

    def has(self, inputs: TraceInputs) -> bool:
        return self.cache.path_for(inputs.key()).is_file()

    def build(self, inputs: TraceInputs) -> bool:
        """Build ``inputs`` in this process and persist them; True when
        the artifact landed (a refused or failed write returns False).

        Meant for a prepare worker, which exits afterwards: it empties
        the process's application and trace memo as soon as the trace
        is built, so the Application is freed before the oracle runs
        and numpy is imported (the worker's peak memory stays that of
        the Application build).
        """
        trace = get_trace(inputs.workload, scale=inputs.scale,
                          seed=inputs.seed)
        clear_caches()
        entries, assoc, ras = inputs.geometry
        oracle = branch_oracle(trace, FrontEndParams(
            btb_entries=entries, btb_assoc=assoc, ras_depth=ras))
        from repro.workloads.serialization import save_trace

        buffer = io.BytesIO()
        save_trace(trace, buffer)
        key = inputs.key()
        self.cache.put(key, {"key": key, "trace": buffer.getvalue(),
                             "oracle": oracle.codes})
        return self.has(inputs)

    @staticmethod
    def preload() -> None:
        """Import the trace decoder (and numpy) in this process, so the
        point workers forked from it inherit it instead of importing it
        each (~0.1 s).  The sweep calls this once every prepare worker
        is forked: those import it only after freeing their
        Application."""
        import repro.workloads.serialization  # noqa: F401

    def install(self, point) -> bool:
        """Load the inputs of ``point`` (a
        :class:`~repro.experiments.sweep.SweepPoint`) into this
        process's trace memo, branch oracle included.  False when the
        artifact is missing or unusable (a corrupt one is quarantined):
        the point then builds its inputs in place."""
        from repro.workloads.serialization import load_trace

        inputs = TraceInputs.of(point)
        if inputs is None:
            return False
        key = inputs.key()
        payload = self.cache.get(key)
        if payload is None or payload.get("key") != key:
            return False
        try:
            trace = load_trace(io.BytesIO(payload["trace"]))
            codes = payload["oracle"]
            problem = (None if isinstance(codes, bytes)
                       and len(codes) == len(trace)
                       else "branch oracle does not match the trace")
        except Exception as exc:
            problem = f"undecodable artifact: {exc!r}"
        if problem is not None:
            self.cache.quarantine(key, problem)
            return False
        trace.branch_oracles[inputs.geometry] = BranchOracle(codes)
        install_trace(inputs.workload, inputs.scale, inputs.seed, trace)
        return True
