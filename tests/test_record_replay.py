"""Unit tests for the Record and Replay engines (Figure 8)."""

import pytest

from repro.core.compression import SpatialRegion
from repro.core.metadata import (
    MetadataBuffer,
    SEGMENT_BYTES,
    SEGMENT_REGIONS,
)
from repro.core.record import RecordEngine
from repro.core.replay import ReplayEngine


def make_buffer(n_segments=32, on_invalidate=None):
    return MetadataBuffer(n_segments * SEGMENT_BYTES,
                          on_invalidate=on_invalidate)


def record_bundle(engine, bundle_id, regions, insts_per_region=100,
                  old_head=-1):
    head = engine.begin(bundle_id, old_head)
    for base in regions:
        engine.observe_instructions(insts_per_region)
        engine.observe_region(SpatialRegion(base, 0b1))
    return head, engine.end()


class TestRecordEngine:
    def test_fresh_record_single_segment(self):
        buf = make_buffer()
        eng = RecordEngine(buf)
        head, result = record_bundle(eng, 42, [0, 64, 128])
        assert result.head_index == head
        assert result.n_segments == 1
        assert result.n_regions == 3
        assert not result.truncated
        seg = buf.segment(head)
        assert seg.bundle_id == 42
        assert [r.base for r in seg.valid_regions()] == [0, 64, 128]

    def test_multi_segment_chain(self):
        buf = make_buffer()
        eng = RecordEngine(buf)
        n = SEGMENT_REGIONS + 5
        head, result = record_bundle(eng, 7, list(range(n)))
        assert result.n_segments == 2
        chain = buf.chain(head, 7)
        assert len(chain) == 2
        assert chain[0].next_seg == chain[1].index
        assert chain[1].next_seg == -1
        assert len(chain[0].valid_regions()) == SEGMENT_REGIONS
        assert len(chain[1].valid_regions()) == 5

    def test_num_insts_recorded_at_segment_creation(self):
        buf = make_buffer()
        eng = RecordEngine(buf)
        head, _ = record_bundle(eng, 7, list(range(SEGMENT_REGIONS + 1)),
                                insts_per_region=10)
        chain = buf.chain(head, 7)
        assert chain[0].num_insts == 0
        # Second segment created after SEGMENT_REGIONS+1 regions'
        # instructions were observed.
        assert chain[1].num_insts == (SEGMENT_REGIONS + 1) * 10

    def test_supersede_preserves_head(self):
        buf = make_buffer()
        eng = RecordEngine(buf)
        head, _ = record_bundle(eng, 9, [0, 1, 2])
        head2, result2 = record_bundle(eng, 9, [100, 101], old_head=head)
        assert head2 == head
        seg = buf.segment(head)
        assert [r.base for r in seg.valid_regions()] == [100, 101]

    def test_supersede_truncates_longer_old_chain(self):
        buf = make_buffer()
        eng = RecordEngine(buf)
        head, r1 = record_bundle(eng, 9, list(range(SEGMENT_REGIONS * 2)))
        assert r1.n_segments == 2
        _, r2 = record_bundle(eng, 9, [500], old_head=head)
        assert r2.n_segments == 1
        chain = buf.chain(head, 9)
        assert len(chain) == 1

    def test_supersede_extends_shorter_old_chain(self):
        buf = make_buffer()
        eng = RecordEngine(buf)
        head, _ = record_bundle(eng, 9, [0])
        _, r2 = record_bundle(eng, 9, list(range(SEGMENT_REGIONS + 2)),
                              old_head=head)
        assert r2.n_segments == 2
        assert len(buf.chain(head, 9)) == 2

    def test_truncation_at_max_segments(self):
        buf = make_buffer()
        eng = RecordEngine(buf, max_segments=2)
        _, result = record_bundle(eng, 9, list(range(SEGMENT_REGIONS * 3)))
        assert result.truncated
        assert result.n_segments == 2

    def test_write_callback_per_segment(self):
        writes = []
        buf = make_buffer()
        eng = RecordEngine(buf, on_write=writes.append)
        record_bundle(eng, 9, list(range(SEGMENT_REGIONS + 1)))
        assert len(writes) == 2

    def test_begin_while_active_raises(self):
        buf = make_buffer()
        eng = RecordEngine(buf)
        eng.begin(1)
        with pytest.raises(RuntimeError):
            eng.begin(2)
        eng.end()
        eng.begin(2)  # fine once the first record ended

    def test_end_without_begin_raises(self):
        eng = RecordEngine(make_buffer())
        with pytest.raises(RuntimeError):
            eng.end()


class TestReplayEngine:
    def _recorded(self, n_regions, insts_per_region=100):
        buf = make_buffer()
        rec = RecordEngine(buf)
        head, _ = record_bundle(rec, 5, list(range(n_regions)),
                                insts_per_region)
        return buf, head

    def test_start_miss_on_empty(self):
        buf = make_buffer()
        rep = ReplayEngine(buf)
        assert not rep.start(5, 0)
        assert not rep.active

    def test_initial_segments_immediate(self):
        buf, head = self._recorded(SEGMENT_REGIONS * 3)
        rep = ReplayEngine(buf, initial_segments=2)
        assert rep.start(5, head)
        views = rep.take_eligible(bundle_insts=0)
        assert len(views) == 2
        assert rep.remaining_segments == 1

    def test_pacing_by_num_insts(self):
        buf, head = self._recorded(SEGMENT_REGIONS * 3, insts_per_region=10)
        rep = ReplayEngine(buf, initial_segments=1)
        rep.start(5, head)
        assert len(rep.take_eligible(0)) == 1
        # Segment 1 is released once executed instructions surpass
        # segment 0's num_insts (0) -> already eligible at 1.
        assert len(rep.take_eligible(1)) == 1
        # Segment 2 waits for segment 1's num_insts: segment 1 was
        # created when the (SEGMENT_REGIONS+1)-th region was observed.
        pace = (SEGMENT_REGIONS + 1) * 10
        assert rep.take_eligible(pace) == []
        assert len(rep.take_eligible(pace + 1)) == 1
        assert not rep.active  # exhausted

    def test_snapshot_survives_supersede(self):
        buf = make_buffer()
        rec = RecordEngine(buf)
        head, _ = record_bundle(rec, 5, [0, 1, 2])
        rep = ReplayEngine(buf)
        assert rep.start(5, head)
        # Concurrent supersede overwrites the same segment in place.
        record_bundle(rec, 5, [900], old_head=head)
        views = rep.take_eligible(1 << 40)
        bases = [r.base for v in views for r in v.regions]
        assert bases == [0, 1, 2]  # replay sees the snapshot

    def test_stop_cancels(self):
        buf, head = self._recorded(4)
        rep = ReplayEngine(buf)
        rep.start(5, head)
        rep.stop()
        assert rep.take_eligible(1 << 40) == []

    def test_bad_initial_segments(self):
        with pytest.raises(ValueError):
            ReplayEngine(make_buffer(), initial_segments=0)
