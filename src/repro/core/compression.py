"""Compression Buffer (paper §5.3.1).

A fully associative FIFO of *spatial regions*.  Each region encodes up
to 32 contiguous cache blocks as a base block plus a bit vector.  When a
committed instruction's block falls inside an existing region, the
corresponding bit is set; otherwise a new region anchored at that block
is pushed and the oldest region is evicted to the Metadata Buffer.
Creation order is preserved, so replay approximately mirrors the retire
order — the spatio-temporal encoding shared with PIF/MANA/Jukebox.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional

#: Cache blocks covered by one spatial region (paper value).
REGION_BLOCKS = 32


class SpatialRegion:
    """Base block + bit vector over ``REGION_BLOCKS`` contiguous blocks."""

    __slots__ = ("base", "vector")

    def __init__(self, base: int, vector: int = 0):
        self.base = base
        self.vector = vector

    def covers(self, block: int) -> bool:
        """Is ``block`` within this region's address range?"""
        return 0 <= block - self.base < REGION_BLOCKS

    def record(self, block: int) -> None:
        """Set the bit for ``block``; the block must be covered."""
        offset = block - self.base
        if not 0 <= offset < REGION_BLOCKS:
            raise ValueError(
                f"block {block} outside region [{self.base}, "
                f"{self.base + REGION_BLOCKS})"
            )
        self.vector |= 1 << offset

    def blocks(self) -> Iterator[int]:
        """Yield recorded block indices from lower to higher addresses.

        This is the order the replay engine generates prefetch requests
        in (§5.3.5: "from lower to higher addresses, guided by the bit
        vector").
        """
        vector = self.vector
        base = self.base
        while vector:
            low = vector & -vector
            yield base + low.bit_length() - 1
            vector ^= low

    def popcount(self) -> int:
        """Number of recorded blocks."""
        return bin(self.vector).count("1")

    def copy(self) -> "SpatialRegion":
        return SpatialRegion(self.base, self.vector)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SpatialRegion)
            and self.base == other.base
            and self.vector == other.vector
        )

    def __hash__(self) -> int:
        return hash((self.base, self.vector))

    def __repr__(self) -> str:
        return f"SpatialRegion(base={self.base:#x}, vector={self.vector:#010x})"


class CompressionBuffer:
    """16-entry fully associative FIFO of in-flight spatial regions.

    ``sink`` receives each evicted (completed) region; the Hierarchical
    Prefetcher wires it to the record engine, which appends the region to
    the current Bundle's Metadata Buffer segments.
    """

    def __init__(
        self,
        capacity: int = 16,
        sink: Optional[Callable[[SpatialRegion], None]] = None,
        span: int = REGION_BLOCKS,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if not 1 <= span <= REGION_BLOCKS:
            raise ValueError(
                f"span must be in [1, {REGION_BLOCKS}], got {span}"
            )
        self.capacity = capacity
        self.sink = sink
        self.span = span
        self._entries: List[SpatialRegion] = []  # oldest first
        self._last_hit: Optional[SpatialRegion] = None

    def __len__(self) -> int:
        return len(self._entries)

    def observe(self, block: int) -> None:
        """Record one committed instruction's cache block."""
        # Fast path: consecutive instructions usually land in the region
        # touched last.
        span = self.span
        last = self._last_hit
        if last is not None and 0 <= block - last.base < span:
            last.vector |= 1 << (block - last.base)
            return
        for region in reversed(self._entries):
            if 0 <= block - region.base < span:
                region.vector |= 1 << (block - region.base)
                self._last_hit = region
                return
        region = SpatialRegion(block, 1)
        self._entries.append(region)
        self._last_hit = region
        if len(self._entries) > self.capacity:
            evicted = self._entries.pop(0)
            if self.sink is not None:
                self.sink(evicted)

    def flush(self) -> None:
        """Drain every entry to the sink (end of a Bundle's record)."""
        entries, self._entries = self._entries, []
        self._last_hit = None
        if self.sink is not None:
            for region in entries:
                self.sink(region)

    def snapshot(self) -> List[SpatialRegion]:
        """Copy of the current entries, oldest first (for tests)."""
        return [r.copy() for r in self._entries]
