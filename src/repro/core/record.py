"""Record engine (paper §5.3.4).

Recording starts at each tagged instruction and ends at the next one (or
when the record length exceeds a threshold).  A fresh Bundle allocates
segments from the Metadata Buffer; a Bundle with an existing record is
*superseded* — the new sequence overwrites the old segments in place,
extending the chain if longer and truncating it if shorter, so only the
most recent execution's footprint survives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.core.compression import SpatialRegion
from repro.core.metadata import MetadataBuffer, Segment

#: Default cap on segments per Bundle record ("a predetermined
#: threshold" in §5.3; 64 segments = 2048 spatial regions).
DEFAULT_MAX_SEGMENTS = 64


@dataclass
class RecordResult:
    """Summary of one completed Bundle record."""

    bundle_id: int
    head_index: int
    n_segments: int
    n_regions: int
    n_insts: int
    truncated: bool


class RecordEngine:
    """Writes one Bundle's spatial-region stream into the Metadata Buffer."""

    def __init__(
        self,
        buffer: MetadataBuffer,
        max_segments: int = DEFAULT_MAX_SEGMENTS,
        on_write: Optional[Callable[[Segment], None]] = None,
    ):
        if max_segments < 1:
            raise ValueError("max_segments must be >= 1")
        self.buffer = buffer
        self.max_segments = max_segments
        #: Called with each segment as it is written back to memory.
        self.on_write = on_write
        self._bundle_id = -1
        self._reuse: List[Segment] = []  # old chain being superseded
        self._chain: List[Segment] = []  # segments written so far
        self._current: Optional[Segment] = None
        self._n_regions = 0
        self._insts = 0
        self._truncated = False
        self.active = False

    @property
    def head_index(self) -> int:
        """Head segment index of the record in progress (or -1)."""
        return self._chain[0].index if self._chain else -1

    def begin(self, bundle_id: int, old_head: int = -1) -> int:
        """Start recording ``bundle_id``; returns the head segment index.

        ``old_head`` >= 0 supersedes the existing record in place (the
        head index — and hence the MAT pointer — is preserved).
        """
        if self.active:
            raise RuntimeError("record already active; call end() first")
        self._bundle_id = bundle_id
        self._reuse = (
            self.buffer.chain(old_head, bundle_id) if old_head >= 0 else []
        )
        self._chain = []
        self._current = None
        self._n_regions = 0
        self._insts = 0
        self._truncated = False
        self.active = True
        # The MAT records the head address at Bundle start (§5.3.3), so
        # the head segment is acquired eagerly.
        self._open_segment(num_insts=0)
        return self.head_index

    def observe_instructions(self, count: int) -> None:
        """Account ``count`` committed instructions to the current Bundle."""
        self._insts += count

    def observe_region(self, region: SpatialRegion) -> None:
        """Append one evicted spatial region to the record."""
        if not self.active:
            raise RuntimeError("no record active")
        if self._truncated:
            return
        current = self._current
        assert current is not None
        if current.full:
            if len(self._chain) >= self.max_segments:
                self._truncated = True
                return
            self._close_segment(current)
            self._open_segment(num_insts=self._insts)
            current = self._current
        current.append(region)
        self._n_regions += 1

    def end(self) -> RecordResult:
        """Finish the record, truncating any leftover superseded tail."""
        if not self.active:
            raise RuntimeError("no record active")
        current = self._current
        assert current is not None
        self._close_segment(current)
        # A shorter superseding record leaves stale old segments beyond
        # the new tail; sever them so replay stops at the new end.
        current.next_seg = -1
        for stale in self._reuse[len(self._chain):]:
            stale.n_valid = 0
            stale.next_seg = -1
        result = RecordResult(
            bundle_id=self._bundle_id,
            head_index=self.head_index,
            n_segments=len(self._chain),
            n_regions=self._n_regions,
            n_insts=self._insts,
            truncated=self._truncated,
        )
        self.active = False
        self._current = None
        self._reuse = []
        return result

    # ------------------------------------------------------------------
    def _open_segment(self, num_insts: int) -> None:
        position = len(self._chain)
        if position < len(self._reuse):
            seg = self._reuse[position]
            seg.reset(self._bundle_id, num_insts)
        else:
            protected = {s.index for s in self._chain}
            protected.update(s.index for s in self._reuse)
            seg = self.buffer.allocate(
                self._bundle_id, num_insts, protect=protected.__contains__
            )
        if self._chain:
            self._chain[-1].next_seg = seg.index
        self._chain.append(seg)
        self._current = seg

    def _close_segment(self, seg: Segment) -> None:
        if self.on_write is not None:
            self.on_write(seg)
