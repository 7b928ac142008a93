"""Fresh parts start clean; probes; the run-once guards.

A machine is built, runs one trace once and is discarded, so every
point of an in-process sweep builds its parts afresh.  The unit
sections drive one instance of each model with randomized operation
sequences (hypothesis) and require a twin built afterwards to start at
the same power-on state as one built before any use, and to answer
every operation the same way: no model may share mutable state across
instances.  The machine sections require the same of whole simulators
that run one after another in one process on one trace.
"""

from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.compression import CompressionBuffer
from repro.core.metadata import MetadataAddressTable, MetadataBuffer
from repro.cpu.simulator import FrontEndSimulator
from repro.frontend.btb import BranchTargetBuffer
from repro.frontend.ittage import ITTagePredictor
from repro.frontend.ras import ReturnAddressStack
from repro.frontend.tage import TagePredictor
from repro.memory.cache import ORIGIN_DEMAND, ORIGIN_PF, SetAssocCache
from repro.memory.policies import POLICY_NAMES
from repro.memory.tlb import InstructionTLB
from repro.prefetchers import PREFETCHER_NAMES, make_prefetcher

from tests.conftest import micro_machine
from tests.helpers import looping_trace

# All prefetchers that run on a single core (everything registered).
ALL_PREFETCHERS = [None] + [n for n in PREFETCHER_NAMES if n != "fdip"]


# ======================================================================
# Unit round-trips: a twin built after use starts at power-on state
# ======================================================================
def _plain(value):
    """Order-preserving plain-data view of a model's attributes (nested
    models and slotted records included, callables — the wiring — left
    out), for exact comparison."""
    if type(value).__module__.startswith("repro.") and \
            hasattr(value, "__dict__"):
        value = vars(value)
    if isinstance(value, dict):
        return [(k, _plain(v)) for k, v in value.items() if not callable(v)]
    if isinstance(value, (list, tuple, deque)):
        return [_plain(v) for v in value]
    slots = getattr(type(value), "__slots__", None)
    if slots:
        return [_plain(getattr(value, name)) for name in slots]
    return value


def _roundtrip(make, ops, drive, split=None):
    """Drive all of ``ops`` on a reference instance, then ``ops[:split]``
    on a second one that stays alive; a twin built after that must
    start at the power-on state and answer every op — and end in the
    state — the reference did."""
    if split is None:
        split = len(ops) // 2
    power_on = _plain(make())
    reference = make()
    expected = [drive(reference, op) for op in ops]
    final = _plain(reference)
    used = make()
    for op in ops[:split]:
        drive(used, op)
    fresh = make()
    assert _plain(fresh) == power_on
    assert [drive(fresh, op) for op in ops] == expected
    assert _plain(fresh) == final


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("ilp"),
                           st.integers(0, 200)), max_size=60))
def test_cache_roundtrip(ops):
    def drive(cache, op):
        kind, block = op
        if kind == "i":
            return cache.insert(block,
                                ORIGIN_PF if block % 3 else ORIGIN_DEMAND,
                                issue_index=block)
        if kind == "l":
            return cache.lookup(block)
        return cache.invalidate(block)

    _roundtrip(lambda: SetAssocCache(4096, 4, name="t"), ops, drive)


@pytest.mark.parametrize("policy", POLICY_NAMES)
@settings(max_examples=15, deadline=None)
@given(ops=st.lists(st.tuples(st.sampled_from("ilp"),
                               st.integers(0, 200)), max_size=60))
def test_cache_roundtrip_every_policy(policy, ops):
    def drive(cache, op):
        kind, block = op
        if kind == "i":
            return cache.insert(block,
                                ORIGIN_PF if block % 3 else ORIGIN_DEMAND,
                                issue_index=block)
        if kind == "l":
            return cache.lookup(block)
        return cache.invalidate(block)

    _roundtrip(lambda: SetAssocCache(4096, 4, name="t", policy=policy),
               ops, drive)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 40), max_size=60))
def test_tlb_roundtrip(pages):
    _roundtrip(lambda: InstructionTLB(8),
               pages, lambda tlb, page: tlb.translate(page))


@pytest.mark.parametrize("policy", POLICY_NAMES)
@settings(max_examples=15, deadline=None)
@given(ops=st.lists(st.tuples(st.sampled_from("pt"), st.integers(0, 12)),
                    max_size=60))
def test_tlb_roundtrip_every_policy(policy, ops):
    def drive(tlb, op):
        kind, page = op
        if kind == "p":
            return tlb.prefetch(page)
        return tlb.translate(page)

    _roundtrip(lambda: InstructionTLB(8, policy=policy), ops, drive)


@pytest.mark.parametrize("entries", [64, None])
@settings(max_examples=20, deadline=None)
@given(ops=st.lists(st.tuples(st.sampled_from("lu"),
                               st.integers(0, 500)), max_size=60))
def test_btb_roundtrip(entries, ops):
    def drive(btb, op):
        kind, pc = op
        if kind == "l":
            return btb.lookup(pc * 4)
        return btb.update(pc * 4, pc * 8 + 16)

    _roundtrip(lambda: BranchTargetBuffer(entries, 4), ops, drive)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 300), st.booleans()), max_size=80))
def test_tage_roundtrip(branches):
    _roundtrip(
        lambda: TagePredictor(bimodal_entries=256,
                              tables=((64, 4, 5), (64, 8, 6))),
        branches,
        lambda t, b: t.predict_and_update(b[0] * 4, b[1]),
    )


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 100), st.integers(0, 30)),
                max_size=80))
def test_ittage_roundtrip(calls):
    _roundtrip(
        lambda: ITTagePredictor(base_entries=64, tables=((64, 4, 5),)),
        calls,
        lambda t, c: t.predict_and_update(c[0] * 4, 0x1000 + c[1] * 64),
    )


@settings(max_examples=30, deadline=None)
@given(st.lists(st.one_of(st.none(), st.integers(0, 1 << 20)), max_size=60))
def test_ras_roundtrip(ops):
    def drive(ras, op):
        if op is None:
            return ras.pop()
        return ras.push(op)

    _roundtrip(lambda: ReturnAddressStack(4), ops, drive)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 200), max_size=80))
def test_compression_roundtrip(blocks):
    def make():
        sunk = []
        buf = CompressionBuffer(capacity=4, span=4, sink=sunk.append)
        return buf, sunk

    def drive(pair, block):
        buf, sunk = pair
        buf.observe(block)
        return [(r.base, r.vector) for r in sunk]

    _roundtrip(make, blocks, drive)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("liv"),
                           st.integers(0, 60)), max_size=60))
def test_mat_roundtrip(ops):
    def drive(mat, op):
        kind, bid = op
        if kind == "l":
            return mat.lookup(bid)
        if kind == "i":
            return mat.insert(bid, bid % 32)
        return mat.invalidate(bid)

    _roundtrip(lambda: MetadataAddressTable(16, 4), ops, drive)


def test_metadata_buffer_roundtrip():
    def drive(buf, bid):
        seg = buf.allocate(bid, bid * 10, protect=lambda i: False)
        seg.next_seg = (seg.index + 1) % buf.n_segments
        seg.n_valid = 1
        return seg.index

    # Six Bundles wrap the 4-segment buffer.
    _roundtrip(lambda: MetadataBuffer(capacity_bytes=4 * 384),
               list(range(6)) + [99], drive)


# ======================================================================
# Whole-machine round-trips
# ======================================================================
def _machine(prefetcher, **kwargs):
    pf = make_prefetcher(prefetcher) if prefetcher else None
    return FrontEndSimulator(config=micro_machine(), prefetcher=pf, **kwargs)


@pytest.mark.parametrize("prefetcher", ALL_PREFETCHERS)
def test_every_registry_component_roundtrips(prefetcher, micro_trace):
    """Machines that run one after another in one process, on one trace
    object (its branch oracle memoized by the first), measure exactly
    the same SimStats: nothing a machine learns reaches the next one."""
    first = _machine(prefetcher).run(micro_trace)
    second = _machine(prefetcher)
    warmup_end = second.warmup(micro_trace)
    assert warmup_end > 0
    assert second.measure() == first


def test_stats_load_is_in_place(micro_trace):
    sim = _machine(None)
    state = sim.run(micro_trace).state_dict()
    sim2 = _machine(None)
    shared_ref = sim2.stats
    sim2.stats.load_state_dict(state)
    assert sim2.stats is shared_ref, "SimStats must be loaded in place"
    assert sim2.stats == sim.stats
    assert sim2.hierarchy.stats is sim2.stats
    assert sim2.frontend.stats is sim2.stats


# ======================================================================
# Probe bus
# ======================================================================
class TestProbes:
    def test_disabled_by_default(self, micro_trace):
        sim = _machine("hierarchical")
        assert not sim.probes.enabled
        stats = sim.run(micro_trace)
        assert not any(k.startswith("probe.") for k in stats.extra)

    def test_enabled_run_identical_modulo_probe_keys(self, micro_trace_long):
        plain = _machine("hierarchical").run(micro_trace_long)
        probed = _machine("hierarchical", probe_interval=2_000).run(
            micro_trace_long)
        probe_keys = {k for k in probed.extra if k.startswith("probe.")}
        assert probe_keys  # something was actually sampled
        # Strip the timelines: every simulation counter must be exact.
        stripped = probed.state_dict()
        stripped["extra"] = {k: v for k, v in stripped["extra"].items()
                             if not k.startswith("probe.")}
        assert stripped == plain.state_dict()

    def test_sample_cadence(self, micro_trace_long):
        interval = 2_000
        sim = _machine(None, probe_interval=interval)
        stats = sim.run(micro_trace_long)
        instructions = stats.extra["probe.instructions"]
        assert len(instructions) == stats.instructions // interval
        # Sample i fires at the first request boundary at or after the
        # (i+1)-th interval multiple — never a full interval later.
        for i, count in enumerate(instructions):
            assert interval * (i + 1) <= count < interval * (i + 2)
        assert stats.extra["probe.interval"] == float(interval)

    def test_timeline_columns_consistent(self, micro_trace_long):
        stats = _machine("efetch", probe_interval=2_000).run(micro_trace_long)
        cols = [stats.extra[f"probe.{c}"] for c in
                ("instructions", "cycles", "ipc", "l1i_mpki", "pf_accuracy")]
        assert len({len(c) for c in cols}) == 1
        assert all(isinstance(c, tuple) for c in cols)
        # Cumulative columns are monotonic.
        assert list(cols[0]) == sorted(cols[0])
        assert list(cols[1]) == sorted(cols[1])

    def test_subscribers_called_per_sample(self, micro_trace_long):
        sim = _machine(None, probe_interval=2_000)
        seen = []
        sim.probes.subscribe(lambda s, sample: seen.append(sample))
        stats = sim.run(micro_trace_long)
        assert tuple(seen) == tuple(sim.probes.samples)
        assert len(seen) == len(stats.extra["probe.instructions"])

    def test_probes_never_fire_during_warmup(self, micro_trace_long):
        sim = _machine(None, probe_interval=500)
        sim.warmup(micro_trace_long)
        assert sim.probes.samples == []

    def test_oversized_interval_yields_no_samples(self, micro_trace):
        sim = _machine(None, probe_interval=10_000_000)
        stats = sim.run(micro_trace)
        assert not any(k.startswith("probe.") for k in stats.extra)


# ======================================================================
# Run-twice guard
# ======================================================================
class TestRunTwice:
    def test_second_run_raises(self):
        trace = looping_trace()
        sim = _machine(None)
        sim.run(trace)
        with pytest.raises(RuntimeError, match="already ran"):
            sim.run(trace)

    def test_attach_twice_raises(self):
        trace = looping_trace()
        pf = make_prefetcher("hierarchical")
        first = FrontEndSimulator(config=micro_machine(), prefetcher=pf)
        first.run(trace)
        second = FrontEndSimulator(config=micro_machine(), prefetcher=pf)
        with pytest.raises(RuntimeError, match="already attached"):
            second.run(trace)
        assert pf.sim is first
