"""The SimComponent protocol: exact state round-trips for every model.

The protocol's contract is *bit-identical future behavior*: loading a
``state_dict()`` snapshot into a freshly constructed component (same
configuration) and replaying the remaining operations must reproduce
the original's final state exactly.  Unit sections drive each component
with randomized operation sequences (hypothesis); machine sections
assert that a simulator resumed from a snapshot — at the warmup
boundary or mid-measurement — finishes with ``SimStats`` exactly equal
to an uninterrupted run's.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.compression import CompressionBuffer
from repro.core.metadata import MetadataAddressTable, MetadataBuffer
from repro.cpu.component import (
    ComponentRegistry,
    SimComponent,
    check_state_fields,
)
from repro.cpu.simulator import FrontEndSimulator
from repro.frontend.btb import BranchTargetBuffer
from repro.frontend.ittage import ITTagePredictor
from repro.frontend.ras import ReturnAddressStack
from repro.frontend.tage import TagePredictor
from repro.memory.cache import ORIGIN_DEMAND, ORIGIN_PF, SetAssocCache
from repro.memory.policies import POLICY_NAMES, BIPPolicy, LRUPolicy
from repro.memory.tlb import InstructionTLB
from repro.prefetchers import PREFETCHER_NAMES, make_prefetcher

from tests.conftest import micro_machine
from tests.helpers import looping_trace

# All prefetchers that run on a single core (everything registered).
ALL_PREFETCHERS = [None] + [n for n in PREFETCHER_NAMES if n != "fdip"]


# ======================================================================
# Protocol basics
# ======================================================================
class TestProtocol:
    def test_base_methods_abstract(self):
        comp = SimComponent()
        with pytest.raises(NotImplementedError):
            comp.reset()
        with pytest.raises(NotImplementedError):
            comp.state_dict()
        with pytest.raises(NotImplementedError):
            comp.load_state_dict({})
        assert comp.stats_snapshot() == {}

    def test_check_state_fields_strict(self):
        comp = InstructionTLB(4)
        with pytest.raises(ValueError, match="missing.*pages"):
            check_state_fields(comp, {"accesses": 0, "misses": 0},
                               ("pages", "accesses", "misses"))
        with pytest.raises(ValueError, match="unknown.*bogus"):
            check_state_fields(
                comp, {"pages": [], "accesses": 0, "misses": 0, "bogus": 1},
                ("pages", "accesses", "misses"),
            )

    def test_every_component_rejects_stale_snapshot(self):
        components = [
            SetAssocCache(1024, 2, name="c"),
            InstructionTLB(8),
            BranchTargetBuffer(64, 4),
            TagePredictor(bimodal_entries=64, tables=((64, 4, 5),)),
            ITTagePredictor(base_entries=64, tables=((64, 4, 5),)),
            ReturnAddressStack(4),
            MetadataAddressTable(16, 4),
            MetadataBuffer(capacity_bytes=2 * 384),
            CompressionBuffer(capacity=2),
            LRUPolicy(),
            BIPPolicy(),
        ]
        for comp in components:
            with pytest.raises(ValueError):
                comp.load_state_dict({"definitely": "not", "a": "snapshot"})


class TestRegistry:
    def test_register_returns_component(self):
        reg = ComponentRegistry()
        tlb = reg.register("itlb", InstructionTLB(4))
        assert isinstance(tlb, InstructionTLB)
        assert reg["itlb"] is tlb
        assert "itlb" in reg and len(reg) == 1
        assert reg.names() == ("itlb",)

    def test_register_rejects_non_component(self):
        reg = ComponentRegistry()
        with pytest.raises(TypeError, match="SimComponent"):
            reg.register("x", object())

    def test_register_rejects_duplicate(self):
        reg = ComponentRegistry()
        reg.register("tlb", InstructionTLB(4))
        with pytest.raises(ValueError, match="already registered"):
            reg.register("tlb", InstructionTLB(4))

    def test_load_rejects_component_set_mismatch(self):
        reg = ComponentRegistry()
        reg.register("tlb", InstructionTLB(4))
        state = reg.state_dict()
        other = ComponentRegistry()
        other.register("tlb", InstructionTLB(4))
        other.register("ras", ReturnAddressStack(4))
        with pytest.raises(ValueError, match="mismatch"):
            other.load_state_dict(state)

    def test_stats_snapshot_prefixes_names(self):
        reg = ComponentRegistry()
        reg.register("itlb", InstructionTLB(4))
        snap = reg.stats_snapshot()
        assert "itlb.miss_rate" in snap and "itlb.resident" in snap


# ======================================================================
# Unit round-trips: snapshot mid-sequence, replay the tail on a clone
# ======================================================================
def _roundtrip(make, ops, drive, split=None):
    """Drive ``ops`` on an original; at ``split``, clone via the state
    protocol; drive the tail on both; their snapshots must agree."""
    if split is None:
        split = len(ops) // 2
    original = make()
    for op in ops[:split]:
        drive(original, op)
    clone = make()
    clone.load_state_dict(original.state_dict())
    assert clone.state_dict() == original.state_dict()
    for op in ops[split:]:
        drive(original, op)
        drive(clone, op)
    assert clone.state_dict() == original.state_dict()


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("ilp"),
                           st.integers(0, 200)), max_size=60))
def test_cache_roundtrip(ops):
    def drive(cache, op):
        kind, block = op
        if kind == "i":
            cache.insert(block, ORIGIN_PF if block % 3 else ORIGIN_DEMAND,
                         issue_index=block)
        elif kind == "l":
            cache.lookup(block)
        else:
            cache.invalidate(block)

    _roundtrip(lambda: SetAssocCache(4096, 4, name="t"), ops, drive)


@pytest.mark.parametrize("policy", POLICY_NAMES)
@settings(max_examples=15, deadline=None)
@given(ops=st.lists(st.tuples(st.sampled_from("ilp"),
                               st.integers(0, 200)), max_size=60))
def test_cache_roundtrip_every_policy(policy, ops):
    def drive(cache, op):
        kind, block = op
        if kind == "i":
            cache.insert(block, ORIGIN_PF if block % 3 else ORIGIN_DEMAND,
                         issue_index=block)
        elif kind == "l":
            cache.lookup(block)
        else:
            cache.invalidate(block)

    _roundtrip(lambda: SetAssocCache(4096, 4, name="t", policy=policy),
               ops, drive)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 40), max_size=60))
def test_tlb_roundtrip(pages):
    _roundtrip(lambda: InstructionTLB(8),
               pages, lambda tlb, page: tlb.translate(page))


@pytest.mark.parametrize("policy", POLICY_NAMES)
@settings(max_examples=15, deadline=None)
@given(pages=st.lists(st.integers(0, 40), max_size=60))
def test_tlb_roundtrip_every_policy(policy, pages):
    def drive(tlb, page):
        if page % 5 == 0:
            tlb.prefetch(page)
        else:
            tlb.translate(page)

    _roundtrip(lambda: InstructionTLB(8, policy=policy), pages, drive)


@pytest.mark.parametrize("entries", [64, None])
@settings(max_examples=20, deadline=None)
@given(ops=st.lists(st.tuples(st.sampled_from("lu"),
                               st.integers(0, 500)), max_size=60))
def test_btb_roundtrip(entries, ops):
    def drive(btb, op):
        kind, pc = op
        if kind == "l":
            btb.lookup(pc * 4)
        else:
            btb.update(pc * 4, pc * 8 + 16)

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
            ras.pop()
        else:
            ras.push(op)

    _roundtrip(lambda: ReturnAddressStack(4), ops, drive)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 200), max_size=80))
def test_compression_roundtrip(blocks):
    sinks = {}

    def make():
        buf = CompressionBuffer(capacity=4, span=4)
        sinks[id(buf)] = []
        buf.sink = sinks[id(buf)].append
        return buf

    split = len(blocks) // 2
    original = make()
    for b in blocks[:split]:
        original.observe(b)
    clone = make()
    clone.load_state_dict(original.state_dict())
    for b in blocks[split:]:
        original.observe(b)
        clone.observe(b)
    assert clone.state_dict() == original.state_dict()
    # Post-snapshot evictions must be identical streams.
    n = len(sinks[id(clone)])
    assert sinks[id(original)][-n:] == sinks[id(clone)] if n else True


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("liv"),
                           st.integers(0, 60)), max_size=60))
def test_mat_roundtrip(ops):
    def drive(mat, op):
        kind, bid = op
        if kind == "l":
            mat.lookup(bid)
        elif kind == "i":
            mat.insert(bid, bid % 32)
        else:
            mat.invalidate(bid)

    _roundtrip(lambda: MetadataAddressTable(16, 4), ops, drive)


def test_metadata_buffer_roundtrip():
    buf = MetadataBuffer(capacity_bytes=4 * 384)
    for bid in range(6):  # wraps the 4-segment buffer
        seg = buf.allocate(bid, bid * 10, protect=lambda i: False)
        seg.next_seg = (seg.index + 1) % buf.n_segments
        seg.n_valid = 1
    clone = MetadataBuffer(capacity_bytes=4 * 384)
    clone.load_state_dict(buf.state_dict())
    assert clone.state_dict() == buf.state_dict()
    a = buf.allocate(99, 0, protect=lambda i: False)
    b = clone.allocate(99, 0, protect=lambda i: False)
    assert a.index == b.index
    assert clone.state_dict() == buf.state_dict()

    wrong = MetadataBuffer(capacity_bytes=8 * 384)
    with pytest.raises(ValueError, match="segments"):
        wrong.load_state_dict(buf.state_dict())


# ======================================================================
# Whole-machine round-trips
# ======================================================================
def _machine(prefetcher, **kwargs):
    pf = make_prefetcher(prefetcher) if prefetcher else None
    return FrontEndSimulator(config=micro_machine(), prefetcher=pf, **kwargs)


@pytest.mark.parametrize("prefetcher", ALL_PREFETCHERS)
def test_warmup_checkpoint_resume_is_exact(prefetcher, micro_trace_long):
    """Snapshot at the warmup boundary; resume must equal an
    uninterrupted run's final SimStats exactly."""
    reference = _machine(prefetcher)
    expected = reference.run(micro_trace_long)

    donor = _machine(prefetcher)
    donor.warmup(micro_trace_long)
    snapshot = donor.state_dict()

    resumed = _machine(prefetcher)
    resumed.resume(micro_trace_long, snapshot)
    got = resumed.measure()
    assert got == expected


@pytest.mark.parametrize("prefetcher", [None, "efetch", "hierarchical"])
def test_mid_measurement_resume_is_exact(prefetcher, micro_trace_long):
    """Snapshot *inside* the measured window (via a probe hook); the
    resumed machine must still finish with identical SimStats."""
    reference = _machine(prefetcher)
    expected = reference.run(micro_trace_long)

    donor = _machine(prefetcher, probe_interval=3_000)
    captured = {}

    def grab(sim, sample):
        if "state" not in captured:
            captured["state"] = sim.state_dict()

    donor.probes.subscribe(grab)
    donor.run(micro_trace_long)
    assert "state" in captured

    resumed = _machine(prefetcher)
    resumed.resume(micro_trace_long, captured["state"])
    got = resumed.measure()
    assert got == expected


def test_registry_composes_whole_machine(micro_trace):
    sim = _machine("hierarchical")
    assert sim.components.names() == (
        "stats", "hierarchy", "frontend", "itlb", "prefetcher"
    )
    # Direct attribute references stay identical to registry entries.
    assert sim.components["hierarchy"] is sim.hierarchy
    assert sim.components["stats"] is sim.stats
    sim.run(micro_trace)
    snap = sim.stats_snapshot()
    assert snap["hierarchy.l1i.occupancy"] > 0
    assert snap["frontend.cond_branches"] > 0


def _same_state(a, b):
    """Structural state equality.

    Plain ``==`` covers pure-data snapshots; deepcopy-style snapshots
    (InstructionPrefetcher) hold objects without ``__eq__``, so fall
    back to pickle bytes — deterministic for graphs deep-copied from a
    common source, and sensitive to any content difference."""
    import pickle
    return a == b or pickle.dumps(a) == pickle.dumps(b)


@pytest.mark.parametrize("prefetcher", ALL_PREFETCHERS)
def test_every_registry_component_roundtrips(prefetcher, micro_trace):
    """mutate -> state_dict -> load_state_dict -> state_dict is exact
    for every component a machine registers, individually.

    This is the executable form of the snapshot-coverage lint: any
    mutable attribute a component forgets to snapshot shows up here as
    a post-load divergence on the fresh twin."""
    sim = _machine(prefetcher)
    sim.run(micro_trace)  # mutate everything through a real run
    twin = _machine(prefetcher)
    twin.warmup(micro_trace)  # bind + dirty the twin; loads must restore
    assert sim.components.names() == twin.components.names()
    for name in sim.components.names():
        snap = sim.components[name].state_dict()
        target = twin.components[name]
        target.load_state_dict(snap)
        assert _same_state(target.state_dict(), snap), name
        # Loading a snapshot into its own source is idempotent too.
        sim.components[name].load_state_dict(snap)
        assert _same_state(sim.components[name].state_dict(), snap), name


def test_resume_requires_matching_config(micro_trace_long):
    donor = _machine(None)
    donor.warmup(micro_trace_long)
    state = donor.state_dict()
    mismatched = FrontEndSimulator(
        config=micro_machine().replace(**{"hierarchy.l1i_bytes": 16 * 1024}),
    )
    with pytest.raises(ValueError):
        mismatched.resume(micro_trace_long, state)


def test_stats_load_is_in_place(micro_trace):
    sim = _machine(None)
    sim.run(micro_trace)
    state = sim.state_dict()
    sim2 = _machine(None)
    shared_ref = sim2.stats
    sim2.load_state_dict(state)
    assert sim2.stats is shared_ref, "SimStats must be loaded in place"
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

    def test_resume_on_used_machine_raises(self, micro_trace):
        donor = _machine(None)
        donor.warmup(micro_trace)
        state = donor.state_dict()
        with pytest.raises(RuntimeError, match="already ran"):
            donor.resume(micro_trace, state)

    def test_reset_enables_identical_rerun(self):
        trace = looping_trace()
        sim = _machine("hierarchical")
        first = sim.run(trace).state_dict()
        sim.reset()
        second = sim.run(trace).state_dict()
        assert first == second
