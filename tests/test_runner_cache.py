"""The layered simulation-result cache (runner + diskcache).

Covers the cache-key schema (seed/warmup/overrides/pf_kwargs must all
be distinguished), exact SimStats round-trips through the on-disk
store, checksum/quarantine handling of corrupted or stale entries, and
the headline guarantee: a fresh process re-simulates nothing that is
already on disk.
"""

import hashlib
import os
import pickle
import subprocess
import sys

import pytest

from repro.cpu.stats import SimStats
from repro.experiments import diskcache
from repro.experiments.runner import (
    cache_key,
    clear_run_cache,
    reset_run_cache_stats,
    run_baseline,
    run_cache_stats,
    run_prefetcher,
)

WORKLOAD = "mysql_sibench"


def _read_payload(path):
    """Unwrap an entry file's checksum envelope to its payload dict."""
    envelope = pickle.loads(path.read_bytes())
    return pickle.loads(envelope["payload"])


def _write_payload(path, payload):
    """Re-wrap ``payload`` in a valid checksum envelope at ``path``."""
    blob = pickle.dumps(payload)
    path.write_bytes(pickle.dumps({
        "sha256": hashlib.sha256(blob).hexdigest(), "payload": blob,
    }))


@pytest.fixture()
def cache_dir(tmp_path):
    """A private disk-cache root for one test, restored afterwards."""
    previous = diskcache.set_cache_dir(tmp_path)
    clear_run_cache()
    reset_run_cache_stats()
    yield tmp_path
    clear_run_cache()
    diskcache.set_cache_dir(previous)


class TestCacheKey:
    def test_seed_in_key(self):
        # The original bug: seeds aliased to one cached result.
        assert (cache_key(WORKLOAD, "eip", seed=1)
                != cache_key(WORKLOAD, "eip", seed=2))

    def test_warmup_in_key(self):
        assert (cache_key(WORKLOAD, "eip", warmup=0.45)
                != cache_key(WORKLOAD, "eip", warmup=0.5))

    def test_overrides_in_key(self):
        assert (cache_key(WORKLOAD, None)
                != cache_key(WORKLOAD, None,
                             overrides={"hierarchy.perfect_l1i": True}))

    def test_pf_kwargs_in_key(self):
        assert (cache_key(WORKLOAD, "mana")
                != cache_key(WORKLOAD, "mana", pf_kwargs={"lookahead": 3}))

    def test_track_and_prefetcher_in_key(self):
        assert (cache_key(WORKLOAD, "eip")
                != cache_key(WORKLOAD, "eip", track_block_misses=True))
        assert cache_key(WORKLOAD, None) != cache_key(WORKLOAD, "eip")

    def test_key_is_stable(self):
        assert cache_key(WORKLOAD, "eip") == cache_key(WORKLOAD, "eip")


class TestSeedNotAliased:
    def test_different_seeds_cached_separately(self, cache_dir):
        a, _ = run_prefetcher(WORKLOAD, None, scale="tiny", seed=1)
        b, _ = run_prefetcher(WORKLOAD, None, scale="tiny", seed=2)
        assert a is not b
        # Each seed keeps returning its own result.
        a2, _ = run_prefetcher(WORKLOAD, None, scale="tiny", seed=1)
        b2, _ = run_prefetcher(WORKLOAD, None, scale="tiny", seed=2)
        assert a2 is a and b2 is b

    def test_baseline_forwards_seed(self, cache_dir):
        run_baseline(WORKLOAD, scale="tiny", seed=3)
        stats = run_cache_stats()
        assert stats.simulations == 1
        # A prefetcher run on the same seed reuses nothing of seed=1's
        # world but the baseline key must match run_prefetcher's.
        again, _ = run_prefetcher(WORKLOAD, None, scale="tiny", seed=3)
        assert run_cache_stats().memory_hits == stats.memory_hits + 1


def _make_stats() -> SimStats:
    stats = SimStats()
    stats.instructions = 12345
    stats.cycles = 6789.5
    stats.l1i_misses = 42
    stats.pf_issued = [1, 2, 3]
    stats.served_by = {"L2": 7, "LLC": 8, "DRAM": 9}
    stats.extra = {"bundle_count": 3.0}
    return stats


class TestSimStatsRoundTrip:
    def test_state_dict_exact(self):
        stats = _make_stats()
        clone = SimStats.from_state(stats.state_dict())
        assert clone == stats
        assert clone.state_dict() == stats.state_dict()

    def test_from_state_copies_containers(self):
        stats = _make_stats()
        clone = SimStats.from_state(stats.state_dict())
        clone.pf_issued[0] += 1
        clone.served_by["L2"] += 1
        assert stats.pf_issued[0] == 1
        assert stats.served_by["L2"] == 7

    def test_from_state_rejects_stale_schema(self):
        state = _make_stats().state_dict()
        state["brand_new_counter"] = 1
        with pytest.raises(ValueError):
            SimStats.from_state(state)
        state = _make_stats().state_dict()
        del state["cycles"]
        with pytest.raises(ValueError):
            SimStats.from_state(state)

    def test_disk_round_trip_exact(self, cache_dir, micro_trace):
        from repro.cpu import simulate

        real = simulate(micro_trace)
        cache = diskcache.get_cache()
        cache.put("k", {"schema": diskcache.SCHEMA_VERSION, "key": "k",
                        "stats": real.state_dict(), "miss_map": {4096: 2}})
        payload = cache.get("k")
        loaded = SimStats.from_state(payload["stats"])
        assert loaded == real
        assert payload["miss_map"] == {4096: 2}
        assert loaded.ipc == real.ipc


class TestDiskCacheLayer:
    def test_run_persists_and_reloads(self, cache_dir):
        a, _ = run_prefetcher(WORKLOAD, "eip", scale="tiny")
        assert len(diskcache.get_cache()) == 1
        clear_run_cache()  # memory only; disk survives
        reset_run_cache_stats()
        b, _ = run_prefetcher(WORKLOAD, "eip", scale="tiny")
        stats = run_cache_stats()
        assert stats.simulations == 0 and stats.disk_hits == 1
        assert a is not b and a == b

    def test_corrupted_entry_resimulated_and_quarantined(self, cache_dir):
        run_prefetcher(WORKLOAD, "eip", scale="tiny")
        (path,) = diskcache.get_cache().entries()
        path.write_bytes(b"\x00garbage\xff")
        clear_run_cache()
        reset_run_cache_stats()
        run_prefetcher(WORKLOAD, "eip", scale="tiny")
        s = run_cache_stats()
        assert s.simulations == 1  # ignored, not crashed
        assert s.cache_corrupt == 1
        quarantined = list(diskcache.get_cache().quarantined())
        assert [p.name for p in quarantined] == [path.name + ".corrupt"]
        # The fresh simulation rewrote a good entry under the live name.
        assert len(diskcache.get_cache()) == 1

    def test_bitflipped_entry_fails_checksum(self, cache_dir):
        from repro.experiments.faults import BITFLIP, corrupt_file

        run_prefetcher(WORKLOAD, "eip", scale="tiny")
        (path,) = diskcache.get_cache().entries()
        # Flip one byte deep in the payload: the pickle may still load,
        # only the checksum can catch it.
        assert corrupt_file(path, BITFLIP, offset=path.stat().st_size // 2)
        clear_run_cache()
        reset_run_cache_stats()
        run_prefetcher(WORKLOAD, "eip", scale="tiny")
        s = run_cache_stats()
        assert s.simulations == 1
        assert s.cache_corrupt == 1
        assert list(diskcache.get_cache().quarantined())

    def test_stale_schema_entry_resimulated(self, cache_dir):
        run_prefetcher(WORKLOAD, "eip", scale="tiny")
        (path,) = diskcache.get_cache().entries()
        payload = _read_payload(path)
        payload["schema"] = diskcache.SCHEMA_VERSION + 1
        _write_payload(path, payload)
        clear_run_cache()
        reset_run_cache_stats()
        run_prefetcher(WORKLOAD, "eip", scale="tiny")
        s = run_cache_stats()
        assert s.simulations == 1
        assert s.cache_corrupt == 0  # stale is not corrupt

    def test_legacy_unwrapped_entry_still_served(self, cache_dir):
        # Entries written before the checksum envelope existed are a
        # bare pickled payload; they must keep hitting.
        run_prefetcher(WORKLOAD, "eip", scale="tiny")
        (path,) = diskcache.get_cache().entries()
        path.write_bytes(pickle.dumps(_read_payload(path)))
        clear_run_cache()
        reset_run_cache_stats()
        run_prefetcher(WORKLOAD, "eip", scale="tiny")
        s = run_cache_stats()
        assert s.disk_hits == 1 and s.simulations == 0
        assert s.cache_corrupt == 0

    def test_wrong_key_payload_ignored(self, cache_dir):
        # A digest collision (or a hand-moved file) must not serve the
        # wrong point's stats.
        key = cache_key(WORKLOAD, "eip", scale="tiny")
        diskcache.get_cache().put(key, {
            "schema": diskcache.SCHEMA_VERSION, "key": "someone-else",
            "stats": _make_stats().state_dict(), "miss_map": None,
        })
        reset_run_cache_stats()
        run_prefetcher(WORKLOAD, "eip", scale="tiny")
        assert run_cache_stats().simulations == 1

    def test_no_cache_skips_both_layers(self, cache_dir):
        run_prefetcher(WORKLOAD, "eip", scale="tiny", use_cache=False)
        assert len(diskcache.get_cache()) == 0
        reset_run_cache_stats()
        run_prefetcher(WORKLOAD, "eip", scale="tiny", use_cache=False)
        assert run_cache_stats().simulations == 1

    def test_clear_run_cache_disk(self, cache_dir):
        run_prefetcher(WORKLOAD, "eip", scale="tiny")
        assert len(diskcache.get_cache()) == 1
        clear_run_cache(disk=True)
        assert len(diskcache.get_cache()) == 0
        reset_run_cache_stats()
        run_prefetcher(WORKLOAD, "eip", scale="tiny")
        assert run_cache_stats().simulations == 1

    def test_disable_via_env(self, cache_dir, monkeypatch):
        monkeypatch.setenv("REPRO_DISK_CACHE", "0")
        run_prefetcher(WORKLOAD, "eip", scale="tiny")
        assert len(diskcache.get_cache()) == 0


class TestDiskCacheStore:
    def test_atomic_layout(self, tmp_path):
        cache = diskcache.DiskCache(tmp_path)
        cache.put("abc", {"v": 1})
        path = cache.path_for("abc")
        assert path.is_file()
        assert path.parent.parent == tmp_path
        assert path.stem == diskcache.key_digest("abc")
        assert not list(tmp_path.rglob("*.tmp"))

    def test_missing_root_is_empty(self, tmp_path):
        cache = diskcache.DiskCache(tmp_path / "nope")
        assert len(cache) == 0
        assert cache.get("k") is None
        assert cache.clear() == 0


def test_tracked_run_equals_untracked(cache_dir):
    """The same point run untracked, then with ``track_block_misses``:
    tracking is part of the result key, so both simulate; the SimStats
    are equal, the tracked run carries a miss map, and nothing writes a
    warmup checkpoint store."""
    untracked, no_map = run_prefetcher(WORKLOAD, "hierarchical",
                                       scale="tiny")
    tracked, miss_map = run_prefetcher(WORKLOAD, "hierarchical",
                                       scale="tiny",
                                       track_block_misses=True)
    assert run_cache_stats().simulations == 2
    assert tracked == untracked
    assert no_map is None and miss_map
    assert not (cache_dir / "warmup").exists()


def test_cache_clear_removes_warmup_store(cache_dir, capsys):
    """``repro cache clear`` (``clear_run_cache(disk=True)``) removes
    the ``<cache root>/warmup/`` checkpoint tree that older caches
    still hold, together with the result entries."""
    from repro.cli import main

    shard = cache_dir / "warmup" / "ab"
    shard.mkdir(parents=True)
    (shard / ("ab" + "0" * 62 + ".pkl")).write_bytes(b"old checkpoint")
    run_prefetcher(WORKLOAD, "eip", scale="tiny")
    assert len(diskcache.get_cache()) == 1
    assert main(["cache", "clear"]) == 0
    assert "cleared" in capsys.readouterr().out
    assert not (cache_dir / "warmup").exists()
    assert len(diskcache.get_cache()) == 0


_SECOND_PROCESS = """
import os, sys
from repro.experiments.runner import run_prefetcher, run_cache_stats
run_prefetcher("mysql_sibench", None, scale="tiny")
run_prefetcher("mysql_sibench", "eip", scale="tiny")
s = run_cache_stats()
print(f"SIMULATIONS={s.simulations} DISK={s.disk_hits}")
"""


class TestFreshProcessReuse:
    def test_second_process_zero_simulations(self, cache_dir):
        """The acceptance guarantee: once results are on disk, a brand
        new process (a re-run benchmark script) simulates nothing."""
        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "src",
        )
        env = dict(os.environ,
                   REPRO_CACHE_DIR=str(cache_dir),
                   PYTHONPATH=src + os.pathsep
                   + os.environ.get("PYTHONPATH", ""))
        runs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-c", _SECOND_PROCESS],
                capture_output=True, text=True, env=env, timeout=600,
            )
            assert proc.returncode == 0, proc.stderr
            runs.append(proc.stdout.strip().splitlines()[-1])
        assert runs[0] == "SIMULATIONS=2 DISK=0"
        assert runs[1] == "SIMULATIONS=0 DISK=2"
