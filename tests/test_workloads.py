"""Tests for the application generator and the workload suite."""

import pytest

from repro.isa.instructions import BranchKind
from repro.workloads.appmodel import zipf_weights
from repro.workloads.generator import generate_binary
from repro.workloads.suite import (
    SCALES,
    WORKLOAD_NAMES,
    requests_for,
    workload_params,
)
from tests.conftest import micro_params


class TestZipf:
    def test_normalized(self):
        w = zipf_weights(6, 0.9)
        assert abs(sum(w) - 1.0) < 1e-12

    def test_monotone_decreasing(self):
        w = zipf_weights(8, 1.1)
        assert all(a >= b for a, b in zip(w, w[1:]))

    def test_alpha_zero_uniform(self):
        w = zipf_weights(4, 0.0)
        assert all(abs(x - 0.25) < 1e-12 for x in w)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            zipf_weights(0, 1.0)


class TestGenerator:
    def test_deterministic(self):
        a, _ = generate_binary(micro_params())
        b, _ = generate_binary(micro_params())
        assert len(a) == len(b)
        assert a.text_size == b.text_size
        assert list(a.functions) == list(b.functions)

    def test_seed_changes_binary(self):
        a, _ = generate_binary(micro_params(seed=7))
        b, _ = generate_binary(micro_params(seed=8))
        assert a.text_size != b.text_size

    def test_binary_validates(self):
        binary, _ = generate_binary(micro_params())
        binary.validate()  # no raise

    def test_structure_present(self, micro_app):
        binary = micro_app.binary
        assert "main" in binary
        assert "alpha_dispatch" in binary
        assert "alpha_r0_f0" in binary
        assert "alpha_skip" in binary
        assert any(n.startswith("lib_") for n in binary.functions)
        assert any(n.startswith("hot_") for n in binary.functions)
        assert any(n.startswith("cold_") for n in binary.functions)

    def test_dispatchers_are_icalls(self, micro_app):
        disp = micro_app.binary.get("alpha_dispatch")
        kinds = [b.kind for b in disp.blocks]
        assert BranchKind.ICALL in kinds

    def test_route_map_complete(self, micro_app):
        for routes in micro_app.route_map:
            for stage in micro_app.params.stages:
                assert stage.name in routes
                assert routes[stage.name] in micro_app.binary

    def test_text_size_near_target(self, micro_app):
        params = micro_app.params
        floor = (params.shared_pool_kb + params.hot_pool_kb) * 1024
        assert micro_app.binary.text_size > floor


class TestSuite:
    def test_eleven_workloads(self):
        assert len(WORKLOAD_NAMES) == 11
        expected = {
            "beego", "gin", "echo", "caddy", "dgraph", "gorm",
            "mysql_sysbench", "tidb_sysbench", "tidb_tpcc",
            "mysql_ycsb", "mysql_sibench",
        }
        assert set(WORKLOAD_NAMES) == expected

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown workload"):
            workload_params("redis")

    def test_scales(self):
        assert set(SCALES) == {"tiny", "bench", "full"}
        for name in WORKLOAD_NAMES:
            assert (requests_for(name, "tiny")
                    <= requests_for(name, "bench")
                    <= requests_for(name, "full"))

    def test_unknown_scale_raises(self):
        with pytest.raises(KeyError, match="unknown scale"):
            requests_for("beego", "huge")

    def test_params_have_personalities(self):
        sizes = {workload_params(n).total_routine_kb()
                 for n in WORKLOAD_NAMES}
        assert len(sizes) > 5  # not all identical

    def test_build_one_suite_app(self):
        from repro.workloads.cache import get_application

        app = get_application("mysql_sibench")
        assert app.program.n_bundles > 5
        assert len(app.binary) > 1000


class TestTraceBuilder:
    def test_deterministic(self, micro_app):
        a = micro_app.trace(8, seed=5)
        b = micro_app.trace(8, seed=5)
        assert a.pc == b.pc
        assert a.taken == b.taken

    def test_seed_varies(self, micro_app):
        a = micro_app.trace(8, seed=5)
        b = micro_app.trace(8, seed=6)
        assert a.pc != b.pc or a.taken != b.taken

    def test_request_count(self, micro_app):
        trace = micro_app.trace(9, seed=1)
        assert len(trace.requests) == 9

    def test_rejects_zero_requests(self, micro_app):
        with pytest.raises(ValueError):
            micro_app.trace(0)

    def test_call_return_balance(self, micro_trace):
        calls = sum(1 for k in micro_trace.kind
                    if k in (int(BranchKind.CALL), int(BranchKind.ICALL)))
        rets = sum(1 for k in micro_trace.kind
                   if k == int(BranchKind.RET))
        assert abs(calls - rets) <= 64  # open frames at trace end

    def test_control_flow_consistent(self, micro_trace):
        """Every record's target equals the next record's pc."""
        for i in range(len(micro_trace) - 1):
            assert micro_trace.target[i] == micro_trace.pc[i + 1], (
                f"discontinuity at {i}"
            )

    def test_tagged_only_on_calls_and_returns(self, micro_trace):
        allowed = {int(BranchKind.CALL), int(BranchKind.ICALL),
                   int(BranchKind.RET)}
        for i in range(len(micro_trace)):
            if micro_trace.tagged[i]:
                assert micro_trace.kind[i] in allowed

    def test_has_tagged_instructions(self, micro_trace):
        assert sum(micro_trace.tagged) > 0

    def test_stage_spans_cover_stages(self, micro_trace):
        names = {s[2] for s in micro_trace.stage_spans}
        assert names == {"alpha", "beta"}
        for start, end, _stage, rtype in micro_trace.stage_spans:
            assert 0 <= start < end <= len(micro_trace)
            assert 0 <= rtype < 3

    def test_footprint_helper(self, micro_trace):
        fp = micro_trace.footprint(0, 100)
        assert fp
        assert all(isinstance(b, int) for b in fp)

    def test_request_of(self, micro_trace):
        for (start, rtype) in micro_trace.requests:
            assert micro_trace.request_of(start) == rtype

    def test_preheat_cycles_types(self, micro_app):
        trace = micro_app.trace(20, seed=2)
        n_types = micro_app.n_request_types
        preheat_types = [rt for _, rt in trace.requests[:n_types]]
        assert preheat_types == list(range(n_types))


class TestTraceCache:
    def test_get_trace_cached(self):
        from repro.workloads.cache import get_trace

        a = get_trace("mysql_sibench", scale="tiny")
        b = get_trace("mysql_sibench", scale="tiny")
        assert a is b

    def test_trace_cache_bound_env(self, monkeypatch):
        from repro.workloads import cache

        monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
        assert cache.trace_cache_max() == 6
        monkeypatch.setenv("REPRO_TRACE_CACHE", "16")
        assert cache.trace_cache_max() == 16

    @pytest.mark.parametrize("raw", ["junk", "0", "-3", "2.5"])
    def test_trace_cache_bound_rejects_bad_values(self, raw, monkeypatch,
                                                  tmp_path, capsys):
        from repro.cli import main
        from repro.experiments import diskcache
        from repro.experiments.errors import InvalidConfigError
        from repro.workloads import cache

        monkeypatch.setenv("REPRO_TRACE_CACHE", raw)
        message = f"REPRO_TRACE_CACHE={raw!r}"
        with pytest.raises(InvalidConfigError, match=message):
            cache.trace_cache_max()
        # repro sweep reports it and exits 2 before any point runs.
        previous = diskcache.set_cache_dir(tmp_path)
        try:
            assert main(["sweep", "mysql_sibench", "--prefetchers", "eip",
                         "--scale", "tiny"]) == 2
        finally:
            diskcache.set_cache_dir(previous)
        captured = capsys.readouterr()
        assert message in captured.err
        assert "[1/" not in captured.out
        assert not (tmp_path / "runs").exists()
