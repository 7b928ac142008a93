"""Common interface for commit-driven instruction prefetchers.

A prefetcher is attached to a :class:`~repro.cpu.simulator.FrontEndSimulator`
and observes the committed instruction stream through three hooks; it
issues requests through ``self.hierarchy.prefetch(...)`` with origin
``ORIGIN_PF`` so accuracy/coverage/timeliness accounting attributes them
correctly.  Like the simulator it serves, a prefetcher runs once: it is
attached to one machine and discarded with it.
"""

from __future__ import annotations

from repro.memory.cache import ORIGIN_PF


class InstructionPrefetcher:
    """Base class; subclasses override the ``on_*`` hooks they need.

    ``sim``, ``trace``, ``hierarchy``, ``stats`` and ``_itlb_pf`` (a
    bound method of the machine's I-TLB, or None) are wiring set by
    :meth:`attach`; everything else is prefetcher-owned state that
    :meth:`reset` builds, once, at attach time.
    """

    name = "base"

    def __init__(self) -> None:
        self.sim = None
        self.trace = None
        self.hierarchy = None
        self.stats = None
        self._itlb_pf = None

    def attach(self, sim, trace) -> None:
        """Bind to a simulator and trace before the run starts.

        Raises :class:`RuntimeError` if this prefetcher is already
        attached: its learned state belongs to that machine's run.
        """
        if self.sim is not None:
            raise RuntimeError(
                f"this {type(self).__name__} is already attached to a "
                "simulator; construct a fresh prefetcher for another run"
            )
        self.sim = sim
        self.trace = trace
        self.hierarchy = sim.hierarchy
        self.stats = sim.stats
        self._itlb_pf = (
            sim.itlb.prefetch if sim.config.core.itlb_prefetch else None
        )
        self.reset()

    def reset(self) -> None:
        """Build run-local state (called once, from :meth:`attach`)."""

    # ------------------------------------------------------------------
    # Hooks called by the simulator
    # ------------------------------------------------------------------
    def on_commit(self, i: int, now: float) -> None:
        """Block ``i`` of the trace committed at cycle ``now``."""

    def on_miss(self, block: int, i: int, stall: float) -> None:
        """A demand fetch of cache ``block`` stalled at commit of ``i``."""

    def on_mispredict(self, i: int) -> None:
        """The terminator of block ``i`` was mispredicted (pipeline flush)."""

    def on_measurement_start(self) -> None:
        """Warmup ended; per-run derived stats may snapshot here."""

    def on_measurement_end(self) -> None:
        """Run finished; publish extras into ``self.stats.extra``."""

    # ------------------------------------------------------------------
    def issue(self, block: int, now: float, i: int,
              extra_latency: float = 0.0, to_l2: bool = False) -> bool:
        """Issue one prefetch with origin ``ORIGIN_PF``.

        With the I-TLB prefetch path enabled the block's page is probed
        into the TLB as well (non-stalling; block 64B, page 4KB).
        """
        tlb_pf = self._itlb_pf
        if tlb_pf is not None:
            tlb_pf(block >> 6)
        return self.hierarchy.prefetch(
            block, now, ORIGIN_PF, extra_latency=extra_latency,
            to_l2=to_l2, issue_index=i,
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class NullPrefetcher(InstructionPrefetcher):
    """No-op prefetcher: the plain FDIP baseline."""

    name = "fdip"
