"""Trace serialization: save/load traces as compressed ``.npz`` files.

Traces take seconds to generate; experiments that sweep many
configurations over the same trace can persist them.  The format stores
the six parallel arrays as numpy vectors plus the annotations as
structured arrays; loading reconstructs an identical
:class:`~repro.workloads.trace.Trace` (verified down to cycle-exact
simulation results in the tests).
"""

from __future__ import annotations

import json
import os
from typing import BinaryIO, Union

import numpy as np

from repro.workloads.trace import Trace

#: Format version written into every file; bumped on layout changes.
#: v2 adds the optional open-loop arrival process (``request_gaps`` +
#: ``slo_instr``); v1 files still load (they predate arrivals).
FORMAT_VERSION = 2

#: A file name, or a binary file object (an in-memory buffer, say).
Target = Union[str, os.PathLike, BinaryIO]


def save_trace(trace: Trace, path: Target) -> None:
    """Write ``trace`` to ``path`` (``.npz``, compressed)."""
    meta = {
        "version": FORMAT_VERSION,
        "n_instructions": trace.n_instructions,
        "stage_names": sorted({s[2] for s in trace.stage_spans}),
    }
    spans = np.array(
        [(s, e, stage, rt) for s, e, stage, rt in trace.stage_spans],
        dtype=[("start", "i8"), ("end", "i8"), ("stage", "U32"),
               ("rtype", "i4")],
    )
    requests = np.array(trace.requests, dtype="i8").reshape(-1, 2)
    arrays = dict(
        meta=json.dumps(meta),
        pc=np.array(trace.pc, dtype="i8"),
        ninstr=np.array(trace.ninstr, dtype="i4"),
        kind=np.array(trace.kind, dtype="i1"),
        taken=np.array(trace.taken, dtype="i1"),
        target=np.array(trace.target, dtype="i8"),
        tagged=np.array(trace.tagged, dtype="i1"),
        requests=requests,
        stage_spans=spans,
    )
    if trace.request_gaps is not None:
        meta["slo_instr"] = trace.slo_instr
        arrays["meta"] = json.dumps(meta)
        arrays["request_gaps"] = np.array(trace.request_gaps, dtype="f8")
    np.savez_compressed(path, **arrays)


def load_trace(path: Target) -> Trace:
    """Read a trace previously written by :func:`save_trace`."""
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["meta"]))
        version = meta.get("version")
        if version not in (1, FORMAT_VERSION):
            raise ValueError(
                f"{path}: unsupported trace format version {version!r} "
                f"(expected <= {FORMAT_VERSION})"
            )
        trace = Trace()
        trace.pc = data["pc"].tolist()
        trace.ninstr = data["ninstr"].tolist()
        trace.kind = data["kind"].tolist()
        trace.taken = data["taken"].tolist()
        trace.target = data["target"].tolist()
        trace.tagged = data["tagged"].tolist()
        trace.requests = [tuple(row) for row in data["requests"].tolist()]
        trace.stage_spans = [
            (int(r["start"]), int(r["end"]), str(r["stage"]),
             int(r["rtype"]))
            for r in data["stage_spans"]
        ]
        trace.n_instructions = int(meta["n_instructions"])
        if "request_gaps" in data.files:
            trace.request_gaps = data["request_gaps"].tolist()
            trace.slo_instr = float(meta["slo_instr"])
    lengths = {
        len(trace.pc), len(trace.ninstr), len(trace.kind),
        len(trace.taken), len(trace.target), len(trace.tagged),
    }
    if len(lengths) != 1:
        raise ValueError(f"{path}: corrupt trace (ragged arrays)")
    return trace
