"""Per-trace input artifacts (docs/SWEEP_CACHE.md, "inputs/").

Contracts under test:

* a forked sweep builds each trace's Application once (in its prepare
  worker), and not at all when the artifacts are already on disk;
* forked results stay bit-identical to the in-process reference, which
  builds every trace itself: closed-loop and microservice workloads,
  HP, and a second predictor geometry (infinite BTB);
* an artifact only ever speeds a point up: a prepare worker that dies
  or hangs, or an artifact that fails its checksum, leaves the points
  to build in place with unchanged stats;
* the source digest is in both stores' keys, so a model edit misses
  both.
"""

import importlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import textwrap
import time
from pathlib import Path

import pytest

from repro.cpu.stats import SimStats
from repro.experiments import diskcache, inputs, runner
from repro.experiments.faults import BITFLIP, corrupt_file
from repro.experiments.inputs import InputStore, TraceInputs
from repro.experiments.service import (
    JsonlEventLog,
    ServiceConfig,
    read_events,
    serve_sweep,
    summarize_events,
)
from repro.experiments.sweep import SweepPoint, sweep
from repro.workloads import cache as workload_cache

sweep_mod = importlib.import_module("repro.experiments.sweep")

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture()
def cache_dir(tmp_path):
    """A private cache root; no trace or result memoized in this
    process for forked workers to inherit."""
    previous = diskcache.set_cache_dir(tmp_path / "cache")
    runner.clear_run_cache()
    runner.reset_run_cache_stats()
    workload_cache.clear_caches()
    yield tmp_path / "cache"
    runner.clear_run_cache()
    diskcache.set_cache_dir(previous)


@pytest.fixture()
def build_log(tmp_path, monkeypatch):
    """Counts ``build_application`` calls in this process and every
    worker forked from it (one line per call, appended to a file)."""
    log = tmp_path / "builds.log"
    log.touch()
    real = workload_cache.build_application

    def counting(name):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(name + "\n")
        return real(name)

    monkeypatch.setattr(workload_cache, "build_application", counting)
    return lambda: log.read_text(encoding="utf-8").split()


def _sweep_events(points, config, path):
    with JsonlEventLog(path) as log:
        report = serve_sweep(points, config, events=log, progress=None)
    assert report.ok
    return report, read_events(path)


def _prepared(events):
    return [e for e in events if e["event"] == "prepared"]


def _states(report):
    return [r.stats.state_dict() for r in report]


TWO_TRACES = [SweepPoint(w, pf, scale="tiny")
              for w in ("mysql_sibench", "beego")
              for pf in (None, "hierarchical")]


class TestBuildOnce:
    def test_one_build_per_trace_then_none(self, cache_dir, tmp_path,
                                           build_log):
        config = ServiceConfig(jobs=2, backoff_base=0.0)
        _, events = _sweep_events(TWO_TRACES, config,
                                  tmp_path / "first.jsonl")
        assert sorted(build_log()) == ["beego", "mysql_sibench"]
        assert sorted(e["source"] for e in _prepared(events)) == [
            "built", "built"]
        summary = summarize_events(events)
        assert summary["inputs"] == {"built": 2}
        assert summary["completed"] == len(TWO_TRACES)
        assert summary["scheduled"] == len(TWO_TRACES)

        # Result store gone, artifacts kept: no Application is built.
        diskcache.get_cache().clear()
        runner.clear_run_cache()
        workload_cache.clear_caches()
        _, events = _sweep_events(TWO_TRACES, config,
                                  tmp_path / "second.jsonl")
        assert sorted(build_log()) == ["beego", "mysql_sibench"]
        assert [e["source"] for e in _prepared(events)] == ["disk", "disk"]
        assert summarize_events(events)["sources"] == {"sim": 4}

    def test_cache_info_and_clear_cover_artifacts(self, cache_dir,
                                                  capsys):
        from repro.cli import main

        sweep(TWO_TRACES[:1], jobs=2, progress=None)
        assert main(["cache", "info"]) == 0
        assert "inputs: 1 artifact(s)" in capsys.readouterr().out
        assert main(["cache", "clear"]) == 0
        assert not (cache_dir / inputs.INPUTS_DIR).exists()


class TestBitIdentity:
    POINTS = [
        SweepPoint("mysql_sibench", None, scale="tiny"),
        SweepPoint("mysql_sibench", "hierarchical", scale="tiny"),
        SweepPoint("msvc_hotel", "hierarchical", scale="tiny"),
        SweepPoint("mysql_sibench", "hierarchical", scale="tiny",
                   overrides={"frontend.btb_entries": None}),
    ]

    def test_forked_matches_in_process(self, cache_dir, tmp_path,
                                       monkeypatch):
        # The in-process reference builds (and memoizes) every trace;
        # forked point workers replace what they inherit with the
        # loaded artifact, so this compares built against loaded.
        serial = sweep(self.POINTS, jobs=1, use_cache=False,
                       progress=None)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        forked, events = _sweep_events(
            self.POINTS, ServiceConfig(jobs=2, use_cache=False),
            tmp_path / "events.jsonl")
        assert _states(forked) == _states(serial)
        assert forked.results[2].stats.has_request_latency
        labels = sorted(e["label"] for e in _prepared(events))
        assert labels == [
            "msvc_hotel/tiny/s1/btb8192x8/ras32",
            "mysql_sibench/tiny/s1/btb8192x8/ras32",
            "mysql_sibench/tiny/s1/btbinf/ras32",
        ]
        # Without a result store the artifacts lived in a temporary
        # directory, removed when the sweep ended.
        assert not list(tmp_path.glob("repro-inputs-*"))
        assert not (cache_dir / inputs.INPUTS_DIR).exists()


class TestArtifactsNeverFail:
    POINTS = TWO_TRACES[:2]

    def _reference(self):
        return _states(sweep(self.POINTS, jobs=1, use_cache=False,
                             progress=None))

    def test_killed_prepare_worker_points_build_in_place(
            self, cache_dir, tmp_path, monkeypatch):
        reference = self._reference()
        workload_cache.clear_caches()

        def die(self, spec):
            os._exit(9)

        monkeypatch.setattr(InputStore, "build", die)
        report, events = _sweep_events(
            self.POINTS, ServiceConfig(jobs=2, max_retries=0),
            tmp_path / "events.jsonl")
        assert _states(report) == reference
        assert [e["source"] for e in _prepared(events)] == ["failed"]
        assert not (cache_dir / inputs.INPUTS_DIR).exists()
        assert summarize_events(events)["retried"] == 0

    @pytest.mark.parametrize("fault", ["raise", "hang"])
    def test_failed_prepare_is_one_attempt(self, cache_dir, tmp_path,
                                           monkeypatch, fault):
        calls = tmp_path / "calls.log"

        def broken(self, spec):
            with open(calls, "a") as fh:
                fh.write("x")
            if fault == "raise":
                raise RuntimeError("prepare failed")
            time.sleep(60)

        def fake_run(point, use_cache):
            return SimStats(), None, "sim", 0.0

        monkeypatch.setattr(InputStore, "build", broken)
        monkeypatch.setattr(sweep_mod, "_run_serial", fake_run)
        report, events = _sweep_events(
            self.POINTS,
            ServiceConfig(jobs=2, point_timeout=1.0, max_retries=0),
            tmp_path / "events.jsonl")
        assert len(report.results) == 2
        assert [e["source"] for e in _prepared(events)] == ["failed"]
        assert calls.read_text() == "x"  # one try, no retry

    def test_unknown_override_fails_as_in_process(self, cache_dir):
        # No artifact can be keyed for a point whose overrides name no
        # config field: it is dispatched at once and fails on its own.
        point = [SweepPoint("mysql_sibench", "eip", scale="tiny",
                            overrides={"frontend.no_such_field": 1})]
        reports = [sweep(point, jobs=jobs, use_cache=False, progress=None,
                         keep_going=True) for jobs in (1, 2)]
        (serial,), (forked,) = (r.failures for r in reports)
        assert forked.kind == serial.kind == "error"
        assert forked.message == serial.message
        assert "no_such_field" in forked.message

    def test_bit_flipped_artifact_quarantined(self, cache_dir, tmp_path):
        point = [SweepPoint("mysql_sibench", "eip", scale="tiny")]
        config = ServiceConfig(jobs=2)
        first, _ = _sweep_events(point, config, tmp_path / "a.jsonl")
        store = InputStore(cache_dir / inputs.INPUTS_DIR)
        (artifact,) = store.cache.entries()
        assert corrupt_file(artifact, BITFLIP,
                            offset=artifact.stat().st_size // 2)

        diskcache.get_cache().clear()
        runner.clear_run_cache()
        runner.reset_run_cache_stats()
        second, events = _sweep_events(point, config,
                                       tmp_path / "b.jsonl")
        assert _states(second) == _states(first)
        assert [e["source"] for e in _prepared(events)] == ["disk"]
        assert runner.run_cache_stats().cache_corrupt == 1
        assert len(list(store.cache.quarantined())) == 1
        assert list(store.cache.entries()) == []


class TestSourceDigest:
    def test_constant_edit_misses_both_stores(self, cache_dir, tmp_path,
                                              monkeypatch):
        copy = tmp_path / "repro"
        shutil.copytree(SRC / "repro", copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        assert inputs.hash_sources(copy) == inputs.source_digest()

        point = SweepPoint("mysql_sibench", "eip", scale="tiny")
        spec = TraceInputs.of(point)
        store = InputStore(cache_dir / inputs.INPUTS_DIR)
        runner._disk_store(point.key(), SimStats(), None)
        store.cache.put(spec.key(), {"key": spec.key()})
        runner.clear_run_cache()
        assert runner.peek_cached(point.key()) is not None
        assert store.has(spec)

        fdip = copy / "frontend" / "fdip.py"
        text = fdip.read_text()
        assert "_INDIRECT_MISPREDICT = 10" in text
        fdip.write_text(text.replace("_INDIRECT_MISPREDICT = 10",
                                     "_INDIRECT_MISPREDICT = 11"))
        edited = inputs.hash_sources(copy)
        assert edited != inputs.source_digest()

        monkeypatch.setattr(inputs, "_SOURCE_DIGEST", edited)
        monkeypatch.setattr(runner, "_FINGERPRINT", None)
        runner.clear_run_cache()
        assert runner.peek_cached(point.key()) is None
        assert not store.has(spec)

    def test_run_prefetcher_executes_only_hashed_packages(self):
        # Every repro module whose code runs during one uncached point
        # must be in a hashed package.  The exceptions are the caller
        # itself and the key code: the runner (its key spells out every
        # argument it passes on) and the digest computation.
        script = textwrap.dedent("""
            import json, sys
            from repro.experiments.runner import run_prefetcher
            seen = set()
            def on_call(frame, event, arg):
                if event == "call":
                    seen.add(frame.f_globals.get("__name__") or "")
            sys.setprofile(on_call)
            run_prefetcher("mysql_sibench", "hierarchical", scale="tiny",
                           use_cache=False)
            sys.setprofile(None)
            print(json.dumps(sorted(m for m in seen
                                    if m.startswith("repro."))))
        """)
        env = dict(os.environ, PYTHONPATH=str(SRC), REPRO_DISK_CACHE="0")
        env.pop("REPRO_FAULT_PLAN", None)
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        modules = json.loads(out.stdout.strip().splitlines()[-1])
        assert "repro.callgraph.reachable" in modules
        allowed = {"repro.experiments.runner", "repro.experiments.inputs"}
        outside = [m for m in modules if m not in allowed
                   and m.split(".")[1] not in inputs.HASHED_PACKAGES]
        assert outside == []
