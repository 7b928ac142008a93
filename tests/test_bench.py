"""Benchmark harness: artifact schema, determinism, compare gating, and
the single-source-of-truth warmup default."""

import inspect
import json

import pytest

from repro.cli import build_parser, main
from repro.cpu.config import DEFAULT_WARMUP
from repro.experiments import bench


def _artifact(name, median, iqr=0.0, calibration=0.1, **extra):
    seconds = [median] * 3
    art = {
        "schema": bench.ARTIFACT_SCHEMA,
        "name": name,
        "quick": True,
        "repeats": len(seconds),
        "seconds": seconds,
        "median_seconds": median,
        "iqr_seconds": iqr,
        "work": {"amount": 1000, "unit": "instructions"},
        "throughput": {"per_second": 1000 / median,
                       "unit": "instructions/s"},
        "timings": {},
        "stats_digest": "0" * 16,
        "calibration_seconds": calibration,
        "workload": "mysql_sibench",
        "scale": "tiny",
        "seed": 1,
        "prefetcher": "fdip",
    }
    art.update(extra)
    return art


# ----------------------------------------------------------------------
# Artifact schema round-trip
# ----------------------------------------------------------------------
def test_artifact_round_trip(tmp_path):
    art = _artifact("hot_loop", 1.25, iqr=0.05)
    path = bench.write_artifact(art, tmp_path)
    assert path.name == "BENCH_hot_loop.json"
    loaded = bench.load_artifacts(tmp_path)
    assert loaded == {"hot_loop": art}


def test_load_artifacts_skips_unknown_schema(tmp_path):
    art = _artifact("hot_loop", 1.0)
    art["schema"] = bench.ARTIFACT_SCHEMA + 1
    (tmp_path / "BENCH_hot_loop.json").write_text(json.dumps(art))
    assert bench.load_artifacts(tmp_path) == {}


def test_run_benchmarks_writes_expected_fields(tmp_path):
    arts = bench.run_benchmarks(["hierarchy"], quick=True, repeats=1,
                                out_dir=tmp_path)
    assert len(arts) == 1
    art = json.loads((tmp_path / "BENCH_hierarchy.json").read_text())
    assert art["name"] == "hierarchy"
    assert art["quick"] is True
    assert art["repeats"] == 1
    assert len(art["seconds"]) == 1
    assert art["median_seconds"] > 0
    assert art["throughput"]["per_second"] > 0
    assert art["work"]["amount"] > 0
    assert art["calibration_seconds"] > 0
    assert len(art["stats_digest"]) == 16


def test_run_benchmarks_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown benchmark"):
        bench.run_benchmarks(["nonesuch"])


# ----------------------------------------------------------------------
# Determinism: wall times vary, simulated results must not
# ----------------------------------------------------------------------
def test_quick_stats_deterministic_across_runs():
    first = bench.run_benchmarks(["hot_loop", "hierarchy"], quick=True,
                                 repeats=1)
    second = bench.run_benchmarks(["hot_loop", "hierarchy"], quick=True,
                                  repeats=1)
    for a, b in zip(first, second):
        assert a["name"] == b["name"]
        assert a["stats_digest"] == b["stats_digest"]
        assert a["work"] == b["work"]


def test_trace_bench_throughput_counts_every_simulated_instruction():
    from repro.workloads.cache import get_trace

    (art,) = bench.run_benchmarks(["hot_loop"], quick=True, repeats=1)
    trace = get_trace(bench.BENCH_WORKLOAD, scale="tiny",
                      seed=bench.BENCH_SEED)
    # The seconds cover warmup + measure, so the work must too.
    assert art["work"]["amount"] == trace.n_instructions
    assert art["throughput"]["per_second"] == pytest.approx(
        trace.n_instructions / art["median_seconds"])
    assert art["timings"]["branch_oracle"] >= 0.0


# ----------------------------------------------------------------------
# Compare mode
# ----------------------------------------------------------------------
def test_parse_regression_forms():
    assert bench.parse_regression("15%") == pytest.approx(0.15)
    assert bench.parse_regression("0.15") == pytest.approx(0.15)
    assert bench.parse_regression(" 25% ") == pytest.approx(0.25)
    with pytest.raises(ValueError):
        bench.parse_regression("-5%")
    with pytest.raises(ValueError):
        bench.parse_regression("fast")


def test_compare_no_regression():
    base = _artifact("hot_loop", 1.0)
    new = _artifact("hot_loop", 1.05)
    delta, threshold, regressed = bench.compare_artifacts(base, new, 0.15)
    assert delta == pytest.approx(0.05)
    assert not regressed


def test_compare_flags_25_percent_slowdown():
    base = _artifact("hot_loop", 1.0, iqr=0.02)
    new = _artifact("hot_loop", 1.25, iqr=0.02)
    delta, threshold, regressed = bench.compare_artifacts(base, new, 0.15)
    assert delta == pytest.approx(0.25)
    assert regressed


def test_compare_noise_widens_threshold():
    base = _artifact("hot_loop", 1.0, iqr=0.3)
    new = _artifact("hot_loop", 1.25, iqr=0.3)
    _, threshold, regressed = bench.compare_artifacts(base, new, 0.15)
    assert threshold > 0.25
    assert not regressed


def test_compare_normalizes_by_calibration():
    # New machine is uniformly 2x slower (calibration doubles too):
    # no regression after normalization.
    base = _artifact("hot_loop", 1.0, calibration=0.1)
    new = _artifact("hot_loop", 2.0, calibration=0.2)
    delta, _, regressed = bench.compare_artifacts(base, new, 0.15)
    assert delta == pytest.approx(0.0)
    assert not regressed


def test_compare_dirs_reports_missing(tmp_path):
    base_dir = tmp_path / "base"
    new_dir = tmp_path / "new"
    bench.write_artifact(_artifact("hot_loop", 1.0), base_dir)
    bench.write_artifact(_artifact("hierarchy", 1.0), base_dir)
    bench.write_artifact(_artifact("hot_loop", 1.0), new_dir)
    rows, problems = bench.compare_dirs(base_dir, new_dir, 0.15)
    assert len(rows) == 2
    assert any("hierarchy" in p and "missing" in p for p in problems)


def test_compare_dirs_tolerates_unreadable_artifacts(tmp_path):
    base_dir = tmp_path / "base"
    new_dir = tmp_path / "new"
    bench.write_artifact(_artifact("hot_loop", 1.0), base_dir)
    bench.write_artifact(_artifact("hot_loop", 1.0), new_dir)
    good = bench.write_artifact(_artifact("hierarchy", 1.0), base_dir)
    bench.write_artifact(_artifact("hierarchy", 1.0), new_dir)
    # Truncate one artifact mid-JSON, as a crashed bench run would.
    good.write_text(good.read_text()[: len(good.read_text()) // 2])
    rows, problems = bench.compare_dirs(base_dir, new_dir, 0.15)
    # The torn file is reported, not raised, and the healthy pair is
    # still compared (the truncated side then also shows as missing).
    assert any("unreadable artifact" in p for p in problems)
    assert any(r[0] == "hot_loop" for r in rows)


def test_compare_dirs_fails_on_digest_mismatch(tmp_path):
    base_dir = tmp_path / "base"
    new_dir = tmp_path / "new"
    bench.write_artifact(_artifact("hot_loop", 1.0), base_dir)
    bench.write_artifact(_artifact("hierarchy", 1.0), base_dir)
    # Same timing, different simulated work.
    bench.write_artifact(_artifact("hot_loop", 1.0, stats_digest="1" * 16),
                         new_dir)
    bench.write_artifact(_artifact("hierarchy", 1.0), new_dir)
    rows, problems = bench.compare_dirs(base_dir, new_dir, 0.15)
    assert [r[-1] for r in rows] == ["ok", "STALE"]
    assert problems == [
        f"hot_loop: stats_digest {'1' * 16} != baseline {'0' * 16} "
        "(different work / baseline stale)"
    ]
    assert main(["bench", "compare", str(base_dir), str(new_dir)]) == 1


def test_compare_cli_exit_codes(tmp_path):
    base_dir = tmp_path / "base"
    good_dir = tmp_path / "good"
    bad_dir = tmp_path / "bad"
    bench.write_artifact(_artifact("hot_loop", 1.0, iqr=0.01), base_dir)
    bench.write_artifact(_artifact("hot_loop", 1.02, iqr=0.01), good_dir)
    bench.write_artifact(_artifact("hot_loop", 1.25, iqr=0.01), bad_dir)
    assert main(["bench", "compare", str(base_dir), str(good_dir),
                 "--max-regression", "15%"]) == 0
    assert main(["bench", "compare", str(base_dir), str(bad_dir),
                 "--max-regression", "15%"]) == 1
    assert main(["bench", "compare", str(base_dir)]) == 2
    assert main(["bench", "compare", str(tmp_path / "empty"),
                 str(good_dir)]) == 2


def test_committed_baseline_is_loadable():
    from pathlib import Path

    baseline = Path(__file__).resolve().parent.parent / "benchmarks" / \
        "baseline"
    arts = bench.load_artifacts(baseline)
    assert set(arts) == set(bench.BENCHMARK_NAMES)
    for art in arts.values():
        assert art["quick"] is True
        assert art["median_seconds"] > 0


# ----------------------------------------------------------------------
# DEFAULT_WARMUP: one source of truth for every entry point
# ----------------------------------------------------------------------
def test_default_warmup_single_source():
    from repro.cpu.simulator import FrontEndSimulator, simulate
    from repro.experiments import runner

    assert runner.DEFAULT_WARMUP is DEFAULT_WARMUP
    sig = inspect.signature(FrontEndSimulator.run)
    assert sig.parameters["warmup_fraction"].default == DEFAULT_WARMUP
    sig = inspect.signature(FrontEndSimulator.warmup)
    assert sig.parameters["warmup_fraction"].default == DEFAULT_WARMUP
    sig = inspect.signature(simulate)
    assert sig.parameters["warmup_fraction"].default == DEFAULT_WARMUP
    sig = inspect.signature(runner.run_prefetcher)
    assert sig.parameters["warmup"].default == DEFAULT_WARMUP
    sig = inspect.signature(runner.run_baseline)
    assert sig.parameters["warmup"].default == DEFAULT_WARMUP


def test_default_warmup_cli_parsers():
    parser = build_parser()
    warmup_defaults = []
    for action in parser._subparsers._group_actions[0].choices.values():
        for sub_action in action._actions:
            if sub_action.dest == "warmup":
                warmup_defaults.append(sub_action.default)
    assert warmup_defaults, "no --warmup flags found in the CLI"
    assert all(d == DEFAULT_WARMUP for d in warmup_defaults)
