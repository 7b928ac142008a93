"""Unit tests for SpatialRegion and the Compression Buffer."""

import pytest

from repro.core.compression import (
    REGION_BLOCKS,
    CompressionBuffer,
    SpatialRegion,
)


class TestSpatialRegion:
    def test_record_and_blocks_ordered(self):
        r = SpatialRegion(100)
        for b in (103, 100, 131, 110):
            r.record(b)
        assert list(r.blocks()) == [100, 103, 110, 131]

    def test_record_out_of_range(self):
        r = SpatialRegion(100)
        with pytest.raises(ValueError):
            r.record(99)
        with pytest.raises(ValueError):
            r.record(100 + REGION_BLOCKS)

    def test_covers(self):
        r = SpatialRegion(100)
        assert r.covers(100)
        assert r.covers(100 + REGION_BLOCKS - 1)
        assert not r.covers(99)
        assert not r.covers(100 + REGION_BLOCKS)

    def test_popcount(self):
        r = SpatialRegion(0)
        assert r.popcount() == 0
        r.record(0)
        r.record(5)
        assert r.popcount() == 2

    def test_copy_and_equality(self):
        r = SpatialRegion(7, 0b1010)
        c = r.copy()
        assert c == r and c is not r
        c.record(7)
        assert c != r


class TestCompressionBuffer:
    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            CompressionBuffer(capacity=0)
        with pytest.raises(ValueError):
            CompressionBuffer(span=0)
        with pytest.raises(ValueError):
            CompressionBuffer(span=REGION_BLOCKS + 1)

    def test_coalesces_nearby_blocks(self):
        cb = CompressionBuffer(capacity=4, span=8)
        for b in (100, 101, 105, 100):
            cb.observe(b)
        regions = cb.snapshot()
        assert len(regions) == 1
        assert list(regions[0].blocks()) == [100, 101, 105]

    def test_block_below_base_opens_new_region(self):
        cb = CompressionBuffer(capacity=4, span=8)
        cb.observe(100)
        cb.observe(99)  # regions only extend upward from their base
        assert len(cb) == 2

    def test_fifo_eviction_to_sink(self):
        evicted = []
        cb = CompressionBuffer(capacity=2, sink=evicted.append, span=8)
        cb.observe(0)
        cb.observe(100)
        cb.observe(200)  # evicts region at base 0
        assert len(evicted) == 1
        assert evicted[0].base == 0

    def test_hit_in_older_region(self):
        evicted = []
        cb = CompressionBuffer(capacity=4, sink=evicted.append, span=8)
        cb.observe(0)
        cb.observe(100)
        cb.observe(3)  # back to the first region: no new entry
        assert len(cb) == 2
        assert not evicted
        assert cb.snapshot()[0].popcount() == 2

    def test_flush_drains_in_creation_order(self):
        out = []
        cb = CompressionBuffer(capacity=8, sink=out.append, span=8)
        for b in (0, 100, 200):
            cb.observe(b)
        cb.flush()
        assert [r.base for r in out] == [0, 100, 200]
        assert len(cb) == 0

    def test_span_limits_coalescing(self):
        cb = CompressionBuffer(capacity=8, span=4)
        cb.observe(0)
        cb.observe(3)
        cb.observe(4)  # outside the 4-block span -> new region
        assert len(cb) == 2

    def test_flush_without_sink_is_noop(self):
        cb = CompressionBuffer(capacity=4)
        cb.observe(0)
        cb.flush()
        assert len(cb) == 0
