"""Unit tests for the set-associative LRU cache."""

import pytest

from repro.memory.cache import (
    E_DIRTY,
    E_ISSUE,
    E_ORIGIN,
    E_USED,
    ORIGIN_DEMAND,
    ORIGIN_FDIP,
    ORIGIN_PF,
    SetAssocCache,
)


def small_cache(assoc=2, sets=4):
    return SetAssocCache(assoc * sets * 64, assoc, 64, "test")


class TestGeometry:
    def test_sets_computed(self):
        c = SetAssocCache(32 * 1024, 8, 64)
        assert c.n_sets == 64
        assert c.capacity_blocks == 512

    def test_indivisible_size_rejected(self):
        with pytest.raises(ValueError):
            SetAssocCache(1000, 8, 64)

    def test_non_power_of_two_sets_rejected(self):
        with pytest.raises(ValueError):
            SetAssocCache(3 * 8 * 64, 8, 64)


class TestLookupInsert:
    def test_miss_then_hit(self):
        c = small_cache()
        assert c.lookup(5) is None
        c.insert(5)
        assert c.lookup(5) is not None
        assert 5 in c

    def test_entry_fields(self):
        c = small_cache()
        c.insert(5, origin=ORIGIN_PF, issue_index=77)
        e = c.peek(5)
        assert e[E_ORIGIN] == ORIGIN_PF
        assert e[E_USED] is False
        assert e[E_ISSUE] == 77
        assert e[E_DIRTY] is False

    def test_lru_eviction(self):
        c = small_cache(assoc=2, sets=4)
        # Blocks 0, 4, 8 map to set 0.
        c.insert(0)
        c.insert(4)
        c.lookup(0)           # 4 becomes LRU
        evicted = c.insert(8)
        assert evicted[0] == 4
        assert 0 in c and 8 in c and 4 not in c

    def test_peek_does_not_touch_lru(self):
        c = small_cache(assoc=2, sets=4)
        c.insert(0)
        c.insert(4)
        c.peek(0)             # 0 stays LRU
        evicted = c.insert(8)
        assert evicted[0] == 0

    def test_reinsert_keeps_entry(self):
        c = small_cache()
        c.insert(5, origin=ORIGIN_PF)
        c.peek(5)[E_USED] = True
        assert c.insert(5, origin=ORIGIN_FDIP) is None
        e = c.peek(5)
        assert e[E_ORIGIN] == ORIGIN_PF  # original entry preserved
        assert e[E_USED] is True

    def test_invalidate(self):
        c = small_cache()
        c.insert(5)
        e = c.invalidate(5)
        assert e is not None
        assert 5 not in c
        assert c.invalidate(5) is None

    def test_resident_blocks(self):
        c = small_cache()
        for b in (3, 9, 17):
            c.insert(b)
        assert len(c) == 3
        assert sorted(c.resident_blocks()) == [3, 9, 17]

    def test_no_cross_set_interference(self):
        c = small_cache(assoc=1, sets=4)
        for b in range(4):
            c.insert(b)
        assert all(b in c for b in range(4))

    def test_origin_constants_distinct(self):
        assert len({ORIGIN_DEMAND, ORIGIN_FDIP, ORIGIN_PF}) == 3
