"""Metadata Buffer and Metadata Address Table (paper §5.3.2–§5.3.3).

The Metadata Buffer is a region of *main memory* holding every Bundle's
compressed footprint as an implicit circular list of fixed-size
segments; only the small Metadata Address Table (MAT) — Bundle ID ->
head-segment pointer — lives on chip.  With the paper's default 512
entries × 8 ways the MAT costs 1.94 KB, which
:meth:`MetadataAddressTable.storage_bits` reproduces exactly.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, List, Optional

from repro.core.compression import SpatialRegion

#: Spatial regions per segment (paper value).
SEGMENT_REGIONS = 32

#: Bytes of one serialized spatial region: 6-byte base + 4-byte vector,
#: padded to 12 for alignment.
REGION_BYTES = 12

#: Serialized segment size: 32 regions plus a small header (next-seg
#: pointer, num-insts, Bundle ID).  32 * 12 = 384 data bytes; the paper
#: quotes 0.36 KB (368 B) per segment — we round to 384 and keep the
#: header out of band.
SEGMENT_BYTES = SEGMENT_REGIONS * REGION_BYTES

#: Default in-memory Metadata Buffer capacity (paper value).
DEFAULT_BUFFER_BYTES = 512 * 1024


class Segment:
    """One Metadata Buffer segment (Figure 7, item ③).

    Attributes mirror the paper's per-segment metadata: ``next_seg`` (the
    implicit linked list), ``num_insts`` (instructions executed from the
    Bundle start when the segment was created — the replay pacing
    counter), and ``bundle_id`` (owner, used for MAT invalidation when
    the circular buffer reclaims the segment).
    """

    __slots__ = ("index", "bundle_id", "regions", "num_insts", "next_seg",
                 "n_valid")

    def __init__(self, index: int, bundle_id: int, num_insts: int):
        self.index = index
        self.bundle_id = bundle_id
        self.regions: List[SpatialRegion] = []
        self.num_insts = num_insts
        self.next_seg = -1
        #: Number of regions valid in this segment; a superseding record
        #: shorter than the old one truncates by lowering this.
        self.n_valid = 0

    def reset(self, bundle_id: int, num_insts: int) -> None:
        """Reuse this slot for a new (or superseding) record."""
        self.bundle_id = bundle_id
        self.num_insts = num_insts
        self.regions.clear()
        self.next_seg = -1
        self.n_valid = 0

    def append(self, region: SpatialRegion) -> None:
        if len(self.regions) >= SEGMENT_REGIONS:
            raise RuntimeError(f"segment {self.index} is full")
        self.regions.append(region)
        self.n_valid = len(self.regions)

    @property
    def full(self) -> bool:
        return len(self.regions) >= SEGMENT_REGIONS

    def valid_regions(self) -> List[SpatialRegion]:
        return self.regions[: self.n_valid]

    def __repr__(self) -> str:
        return (
            f"Segment(index={self.index}, bundle={self.bundle_id:#x}, "
            f"regions={self.n_valid}, num_insts={self.num_insts}, "
            f"next={self.next_seg})"
        )


class MetadataBuffer:
    """Circular in-memory store of Bundle footprint segments.

    Allocation advances a rotating pointer; when the buffer wraps, the
    oldest segments are reclaimed and their owning Bundles invalidated in
    the MAT via ``on_invalidate`` (the paper invalidates through the
    Bundle ID recorded in the first segment; we store the owner on every
    segment so a mid-chain reclaim also invalidates, which avoids
    replaying a corrupted chain).
    """

    def __init__(
        self,
        capacity_bytes: int = DEFAULT_BUFFER_BYTES,
        on_invalidate: Optional[Callable[[int], None]] = None,
    ):
        if capacity_bytes < SEGMENT_BYTES:
            raise ValueError(
                f"capacity {capacity_bytes} smaller than one segment "
                f"({SEGMENT_BYTES})"
            )
        self.capacity_bytes = capacity_bytes
        self.n_segments = capacity_bytes // SEGMENT_BYTES
        self.on_invalidate = on_invalidate
        self._segments: List[Optional[Segment]] = [None] * self.n_segments
        self._next_alloc = 0
        self.allocations = 0
        self.reclaims = 0

    def segment(self, index: int) -> Segment:
        seg = self._segments[index]
        if seg is None:
            raise KeyError(f"segment {index} not allocated")
        return seg

    def allocate(
        self, bundle_id: int, num_insts: int, protect: Callable[[int], bool]
    ) -> Segment:
        """Allocate the next segment in circular order.

        ``protect`` returns True for segment indices that must not be
        reclaimed (the chain currently being written); those slots are
        skipped.  Reclaiming an owned slot fires ``on_invalidate`` with
        the previous owner's Bundle ID.
        """
        for _ in range(self.n_segments):
            index = self._next_alloc
            self._next_alloc = (self._next_alloc + 1) % self.n_segments
            if protect(index):
                continue
            old = self._segments[index]
            if old is not None:
                self.reclaims += 1
                if self.on_invalidate is not None:
                    self.on_invalidate(old.bundle_id)
                old.reset(bundle_id, num_insts)
                seg = old
                seg.index = index
            else:
                seg = Segment(index, bundle_id, num_insts)
                self._segments[index] = seg
            self.allocations += 1
            return seg
        raise RuntimeError("metadata buffer exhausted: every segment protected")

    def chain(self, head_index: int, bundle_id: int) -> List[Segment]:
        """Return the segment chain for ``bundle_id`` starting at
        ``head_index``; stops at ownership mismatches (stale pointers)."""
        out: List[Segment] = []
        index = head_index
        seen = set()
        while 0 <= index < self.n_segments and index not in seen:
            seen.add(index)
            seg = self._segments[index]
            if seg is None or seg.bundle_id != bundle_id:
                break
            out.append(seg)
            index = seg.next_seg
        return out

    def __repr__(self) -> str:
        used = sum(1 for s in self._segments if s is not None)
        return (
            f"MetadataBuffer(segments={self.n_segments}, used={used}, "
            f"reclaims={self.reclaims})"
        )


class MetadataAddressTable:
    """On-chip set-associative Bundle ID -> head-segment pointer table.

    Default geometry matches the paper: 512 entries, 8-way, LRU, 24-bit
    Bundle IDs, 11-bit segment pointers — 1.94 KB of on-chip storage.
    """

    def __init__(self, n_entries: int = 512, assoc: int = 8,
                 bundle_id_bits: int = 24, pointer_bits: int = 11):
        if n_entries % assoc != 0:
            raise ValueError(
                f"n_entries {n_entries} not divisible by assoc {assoc}"
            )
        self.n_entries = n_entries
        self.assoc = assoc
        self.n_sets = n_entries // assoc
        self.bundle_id_bits = bundle_id_bits
        self.pointer_bits = pointer_bits
        # One OrderedDict per set: bundle_id -> head segment index,
        # ordered least- to most-recently used.
        self._sets: List[OrderedDict] = [OrderedDict() for _ in range(self.n_sets)]
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def _set_of(self, bundle_id: int) -> OrderedDict:
        return self._sets[bundle_id % self.n_sets]

    def lookup(self, bundle_id: int) -> Optional[int]:
        """Return the head-segment pointer, updating LRU; None on miss."""
        entries = self._set_of(bundle_id)
        head = entries.get(bundle_id)
        if head is None:
            self.misses += 1
            return None
        entries.move_to_end(bundle_id)
        self.hits += 1
        return head

    def insert(self, bundle_id: int, head_index: int) -> Optional[int]:
        """Map ``bundle_id`` to ``head_index``; return any evicted ID."""
        entries = self._set_of(bundle_id)
        evicted = None
        if bundle_id not in entries and len(entries) >= self.assoc:
            evicted, _ = entries.popitem(last=False)
            self.evictions += 1
        entries[bundle_id] = head_index
        entries.move_to_end(bundle_id)
        return evicted

    def invalidate(self, bundle_id: int) -> bool:
        """Remove ``bundle_id`` if present (Metadata Buffer reclaim)."""
        entries = self._set_of(bundle_id)
        if bundle_id in entries:
            del entries[bundle_id]
            self.invalidations += 1
            return True
        return False

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets)

    def storage_bits(self) -> int:
        """On-chip storage cost in bits.

        Per entry: tag (bundle_id_bits - log2(n_sets)), pointer, valid
        bit; plus one LRU bit per way per set.  With the default
        geometry this is 15872 bits = 1.94 KB, matching §5.3.3.
        """
        set_bits = (self.n_sets - 1).bit_length() if self.n_sets > 1 else 0
        tag_bits = self.bundle_id_bits - set_bits
        per_entry = tag_bits + self.pointer_bits + 1
        lru_bits = self.n_sets * self.assoc
        return self.n_entries * per_entry + lru_bits

    def __repr__(self) -> str:
        return (
            f"MetadataAddressTable(entries={self.n_entries}, "
            f"assoc={self.assoc}, occupied={len(self)})"
        )
