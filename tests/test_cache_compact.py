"""Sharded disk-cache layout: compaction and the one read layout.

The store reads only ``<root>/<digest[:2]>/<digest>.pkl`` checksum
envelopes.  Files an older layout left flat under the root are never
read (no key can match them since keys carry the source digest) but
``clear`` still removes them.  ``DiskCache.compact()`` drops
stale-schema payloads, purges quarantine sidecars and sweeps empty
shard directories, all without ever touching the ``runs`` journal
root or the ``inputs`` artifact store.
"""

import os

import pytest

from repro.experiments import diskcache, runner
from repro.experiments.diskcache import (
    SCHEMA_VERSION,
    DiskCache,
    key_digest,
)
from repro.experiments.faults import TRUNCATE, corrupt_file


def _payload(key, marker=1):
    return {"schema": SCHEMA_VERSION, "key": key,
            "stats": {"instructions": marker}, "miss_map": None}


def _make_flat(cache, key, payload=None):
    """Plant ``key`` where the pre-sharding layout kept it: flat under
    the root."""
    cache.put(key, payload or _payload(key))
    sharded = cache.path_for(key)
    flat = cache.root / sharded.name
    os.replace(sharded, flat)
    sharded.parent.rmdir()
    return flat


class TestLegacyMigration:
    """Older layouts are no longer migrated: they are never read."""

    def test_sharded_entry_wins_over_stale_flat(self, tmp_path):
        cache = DiskCache(tmp_path)
        _make_flat(cache, "k1", _payload("k1", marker=1))
        cache.put("k1", _payload("k1", marker=2))
        assert cache.get("k1")["stats"]["instructions"] == 2

    def test_flat_entry_is_a_miss_and_clear_removes_it(self, tmp_path):
        cache = DiskCache(tmp_path)
        flat = _make_flat(cache, "k1")
        assert cache.get("k1") is None
        assert flat.exists()  # never migrated, never quarantined
        assert list(cache.entries()) == []
        cache.clear()
        assert not flat.exists()


class TestCompact:
    def test_full_pass(self, tmp_path):
        cache = DiskCache(tmp_path)
        # two healthy entries
        cache.put("keep", _payload("keep"))
        cache.put("keep-too", _payload("keep-too"))
        # one stale-schema sharded entry
        cache.put("stale", {"schema": SCHEMA_VERSION - 1, "key": "stale",
                            "stats": {}, "miss_map": None})
        # one pre-existing sidecar to purge
        cache.put("torn", _payload("torn"))
        corrupt_file(cache.path_for("torn"), TRUNCATE)
        assert cache.get("torn") is None  # quarantines it

        # one entry torn after its last read
        cache.put("torn-later", _payload("torn-later"))
        corrupt_file(cache.path_for("torn-later"), TRUNCATE)

        report = cache.compact()
        assert report.quarantined == 1  # torn-later
        assert report.stale_dropped == 1
        # torn's sidecar + torn-later's sidecar
        assert report.purged_sidecars == 2
        # stale/torn shard dirs emptied and removed
        assert report.empty_dirs_removed >= 1
        assert report.entries == 2  # keep + keep-too
        assert sorted(p.name for p in cache.entries()) == sorted(
            f"{key_digest(k)}.pkl" for k in ("keep", "keep-too"))
        assert list(cache.quarantined()) == []
        assert "quarantined 1" in report.describe()

    def test_keep_quarantined(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("torn", _payload("torn"))
        corrupt_file(cache.path_for("torn"), TRUNCATE)
        assert cache.get("torn") is None
        report = cache.compact(purge_quarantined=False)
        assert report.purged_sidecars == 0
        assert len(list(cache.quarantined())) == 1

    def test_warmup_store_never_touched(self, tmp_path):
        # The run journals under runs/ and the input artifacts under
        # inputs/ are not shard directories, so compaction must never
        # touch them — not even an empty two-hex-char directory
        # inside, which looks prunable.
        previous = diskcache.set_cache_dir(tmp_path)
        try:
            cache = diskcache.get_cache()
            run_dir = tmp_path / "runs" / "abcdef012345-0001"
            run_dir.mkdir(parents=True)
            segment = run_dir / "events-0001.jsonl"
            segment.write_text('{"event": "begin", "seq": 1}\n')
            (tmp_path / "runs" / "ab").mkdir()
            inputs = DiskCache(tmp_path / "inputs")
            inputs.put("artifact", _payload("artifact"))
            cache.put("result", _payload("result"))
            report = cache.compact()
            assert report.entries == 1
            assert segment.read_text() == '{"event": "begin", "seq": 1}\n'
            assert (tmp_path / "runs" / "ab").is_dir()
            assert inputs.get("artifact") == _payload("artifact")
        finally:
            diskcache.set_cache_dir(previous)

    def test_compact_on_missing_root_is_a_noop(self, tmp_path):
        cache = DiskCache(tmp_path / "never-created")
        report = cache.compact()
        assert (report.quarantined, report.entries) == (0, 0)


class TestStats:
    def test_counters(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("a", _payload("a"))
        cache.put("b", _payload("b"))
        _make_flat(cache, "c")
        cache.put("torn", _payload("torn"))
        corrupt_file(cache.path_for("torn"), TRUNCATE)
        assert cache.get("torn") is None
        stats = cache.stats()
        assert stats["entries"] == 2  # a, b; the flat c is not read
        assert "legacy" not in stats
        assert stats["quarantined"] == 1
        assert stats["shard_dirs"] >= 1
        assert stats["bytes"] > 0
        assert stats["root"] == str(tmp_path)

    def test_cli_cache_cycle(self, tmp_path, capsys):
        from repro.cli import main

        previous = diskcache.set_cache_dir(tmp_path)
        try:
            cache = diskcache.get_cache()
            flat = _make_flat(cache, "flat")
            cache.put("torn", _payload("torn"))
            corrupt_file(cache.path_for("torn"), TRUNCATE)
            assert cache.get("torn") is None
            inputs = DiskCache(tmp_path / "inputs")
            inputs.put("artifact", _payload("artifact"))

            assert main(["cache", "info"]) == 0
            out = capsys.readouterr().out
            assert "legacy" not in out and "1 quarantined" in out
            assert "inputs: 1 artifact(s)" in out

            assert main(["cache", "compact"]) == 0
            out = capsys.readouterr().out
            assert "purged 1 sidecar" in out
            assert list(cache.quarantined()) == []

            assert main(["cache", "clear"]) == 0
            capsys.readouterr()
            assert len(cache) == 0
            assert not flat.exists()
            assert not (tmp_path / "inputs").exists()
        finally:
            runner.clear_run_cache()
            diskcache.set_cache_dir(previous)


@pytest.fixture(autouse=True)
def _reset_corruption_counters():
    yield
    runner.reset_run_cache_stats()
