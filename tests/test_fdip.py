"""Unit tests for the FDIP decoupled front-end model."""

import pytest

from repro.cpu.stats import SimStats
from repro.frontend.fdip import (
    FDIPFrontEnd,
    FrontEndParams,
    PEN_BTB_MISS,
    PEN_MISPREDICT,
    PEN_NONE,
)
from repro.isa.instructions import BranchKind
from repro.memory.cache import ORIGIN_FDIP
from repro.memory.hierarchy import HierarchyParams, MemoryHierarchy
from tests.helpers import TraceAssembler, linear_trace


def make_fdip(trace, **params):
    stats = SimStats()
    fdip = FDIPFrontEnd(FrontEndParams(**params), stats)
    hier = MemoryHierarchy(HierarchyParams(), stats)
    fdip.bind(trace, hier)
    return fdip, hier, stats


class TestRunahead:
    def test_prefetches_up_to_ftq_depth(self):
        trace = linear_trace(64, ninstr=16)  # one cache block per record
        fdip, hier, stats = make_fdip(trace, ftq_entries=8)
        fdip.advance(commit_i=0, now=0.0)
        # Blocks 1..8 prefetched (block 0 is the demand itself).
        assert stats.pf_issued[ORIGIN_FDIP] == 8

    def test_advances_with_commit(self):
        trace = linear_trace(64, ninstr=16)
        fdip, hier, stats = make_fdip(trace, ftq_entries=8)
        fdip.advance(0, 0.0)
        fdip.advance(4, 10.0)
        assert stats.pf_issued[ORIGIN_FDIP] == 12

    def test_disabled_prefetch_still_predicts(self):
        trace = linear_trace(32, ninstr=16)
        fdip, hier, stats = make_fdip(trace, issue_prefetches=False)
        fdip.advance(0, 0.0)
        assert stats.pf_issued[ORIGIN_FDIP] == 0


class TestBranchHandling:
    def _cond_trace(self, taken: bool, repeat=1):
        asm = TraceAssembler()
        pc = 0x400000
        for _ in range(repeat):
            asm.add(pc, 4, BranchKind.COND, taken=taken,
                    target=(pc + 64 if taken else None))
            asm.linear(pc + 64 if taken else pc + 16, 3)
            pc += 0x1000
        return asm.build()

    def test_cold_taken_branch_is_btb_miss(self):
        trace = self._cond_trace(taken=True)
        fdip, hier, stats = make_fdip(trace)
        fdip.advance(0, 0.0)
        pen = fdip.penalty_at(0)
        # Either the direction predictor or the BTB fails on this cold
        # taken branch; both halt the runahead.
        assert pen in (PEN_MISPREDICT, PEN_BTB_MISS)
        assert fdip._blocked_at == -1 or fdip._ptr == 1

    def test_not_taken_branch_needs_no_btb(self):
        trace = self._cond_trace(taken=False)
        fdip, hier, stats = make_fdip(trace)
        fdip.advance(0, 0.0)
        fdip.flush_branch_stats()
        assert stats.btb_lookups == 0

    def test_blocked_until_commit_then_resumes(self):
        asm = TraceAssembler()
        asm.linear(0x400000, 4, ninstr=16)
        asm.add(0x400100, 4, BranchKind.COND, taken=True, target=0x401000)
        asm.linear(0x401000, 10, ninstr=16)
        trace = asm.build()
        fdip, hier, stats = make_fdip(trace, ftq_entries=16)
        fdip.advance(0, 0.0)
        # The runahead halted at the cold taken branch (index 4).
        assert fdip._blocked_at == 4
        before = stats.pf_issued[ORIGIN_FDIP]
        fdip.advance(1, 1.0)  # commit still before the branch: blocked
        fdip.advance(2, 2.0)
        assert stats.pf_issued[ORIGIN_FDIP] == before
        fdip.advance(4, 4.0)  # branch resolves as commit reaches it
        assert stats.pf_issued[ORIGIN_FDIP] > before

    def test_call_and_return_use_ras(self):
        asm = TraceAssembler()
        # call f (return addr = 0x400010), f returns.
        asm.add(0x400000, 4, BranchKind.CALL, taken=True, target=0x402000)
        asm.add(0x402000, 4, BranchKind.RET, taken=True, target=0x400010)
        asm.linear(0x400010, 4)
        trace = asm.build()
        fdip, hier, stats = make_fdip(trace)
        for i in range(len(trace)):
            fdip.advance(i, float(i))
        fdip.flush_branch_stats()
        assert stats.returns == 1
        assert stats.ras_mispredicts == 0

    def test_mismatched_return_mispredicts(self):
        asm = TraceAssembler()
        asm.add(0x402000, 4, BranchKind.RET, taken=True, target=0x400010)
        asm.linear(0x400010, 4)
        trace = asm.build()
        fdip, hier, stats = make_fdip(trace)
        fdip.advance(0, 0.0)
        fdip.flush_branch_stats()
        assert stats.ras_mispredicts == 1

    def test_warm_btb_no_penalty(self):
        # Same taken branch twice: second pass sees a BTB hit and a
        # learned direction.
        asm = TraceAssembler()
        for _ in range(6):
            asm.add(0x400000, 4, BranchKind.COND, taken=True,
                    target=0x401000)
            asm.add(0x401000, 4, BranchKind.JUMP, taken=True,
                    target=0x400000)
        trace = asm.build()
        fdip, hier, stats = make_fdip(trace)
        penalties = []
        for i in range(len(trace)):
            fdip.advance(i, float(i))
            penalties.append(fdip.penalty_at(i))
        assert penalties[-2:] == [PEN_NONE, PEN_NONE]

    def test_indirect_call_counted(self):
        asm = TraceAssembler()
        asm.add(0x400000, 4, BranchKind.ICALL, taken=True, target=0x405000)
        asm.add(0x405000, 2, BranchKind.RET, taken=True, target=0x400010)
        asm.linear(0x400010, 2)
        trace = asm.build()
        fdip, hier, stats = make_fdip(trace)
        for i in range(len(trace)):
            fdip.advance(i, float(i))
        fdip.flush_branch_stats()
        assert stats.indirect_branches == 1

    def test_infinite_btb_param(self):
        # 32 distinct direct jumps, three passes: a 16-entry BTB keeps
        # missing, an infinite one misses only on the first pass.
        asm = TraceAssembler()
        for _ in range(3):
            for j in range(32):
                pc = 0x400000 + j * 0x40
                asm.add(pc, 4, BranchKind.JUMP, taken=True,
                        target=0x400000 + (j + 1) % 32 * 0x40)
        trace = asm.build()
        misses = {}
        for entries in (16, None):
            fdip, hier, stats = make_fdip(trace, btb_entries=entries)
            for i in range(len(trace)):
                fdip.advance(i, float(i))
            fdip.flush_branch_stats()
            misses[entries] = stats.btb_misses
        assert misses == {16: 96, None: 32}


def _run(trace, cfg, **frontend):
    from repro.cpu.simulator import simulate

    cfg = cfg.replace(**{f"frontend.{k}": v for k, v in frontend.items()})
    return simulate(trace, config=cfg)


class TestBranchOracle:
    """Predictions are computed once per (trace, predictor geometry)."""

    def test_memo_keyed_by_predictor_geometry(self, micro_app, micro_cfg):
        trace = micro_app.trace(n_requests=12, seed=3)
        runs = [{"btb_entries": 8192}, {"btb_entries": None},
                {"btb_entries": 8192}, {"ftq_entries": 8},
                {"ftq_entries": 24}]
        for frontend in runs:
            fresh = micro_app.trace(n_requests=12, seed=3)
            assert _run(trace, micro_cfg, **frontend) == \
                _run(fresh, micro_cfg, **frontend)
        # The FTQ depth is timing, not geometry: one oracle serves both.
        assert set(trace.branch_oracles) == {(8192, 8, 32), (None, 8, 32)}

    def test_measured_counters_come_from_the_oracle(self, micro_trace,
                                                    micro_cfg):
        from repro.cpu.simulator import FrontEndSimulator

        sim = FrontEndSimulator(config=micro_cfg)
        sim.warmup(micro_trace)
        start = sim.frontend._ptr  # the runahead at measurement start
        stats = sim.measure()
        assert stats.cond_branches > 0 and stats.btb_misses > 0
        oracle = micro_trace.branch_oracles[(8192, 8, 32)]
        counts = oracle.counts(start, len(micro_trace))
        assert counts == {name: getattr(stats, name) for name in counts}

    def test_simulator_allocates_no_predictors(self, micro_trace,
                                               micro_cfg, monkeypatch):
        from repro.cpu.simulator import FrontEndSimulator
        from repro.frontend import (BranchTargetBuffer, ITTagePredictor,
                                    ReturnAddressStack, TagePredictor)

        expected = _run(micro_trace, micro_cfg)  # memoizes the oracle

        def forbidden(*args, **kwargs):
            raise AssertionError("predictor allocated")

        for cls in (BranchTargetBuffer, ITTagePredictor,
                    ReturnAddressStack, TagePredictor):
            monkeypatch.setattr(cls, "__init__", forbidden)
        sim = FrontEndSimulator(config=micro_cfg)
        assert sim.run(micro_trace) == expected

    def test_unknown_branch_kind_names_trace_index(self):
        asm = TraceAssembler().linear(0x400000, 3)
        asm.add(0x400100, 4, 99, taken=True, target=0x400000)
        trace = asm.build()
        with pytest.raises(ValueError, match="trace index 3"):
            make_fdip(trace)
        assert trace.branch_oracles == {}  # nothing half-built is kept


def test_simulation_path_does_not_import_numpy():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, REPRO_DISK_CACHE="0",
               PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = (
        "import sys\n"
        "from repro.experiments.runner import run_prefetcher\n"
        "run_prefetcher('mysql_sibench', 'hierarchical', scale='tiny',\n"
        "               use_cache=False)\n"
        "assert 'numpy' not in sys.modules, 'numpy imported'\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
