"""FDIP: fetch-directed instruction prefetching via a decoupled front end.

The runahead pointer walks the committed path ahead of the commit
pointer, up to the FTQ capacity, issuing prefetches for every fetch
region it enqueues.  It advances past a branch only while the branch
prediction unit can follow it:

* conditional direction comes from TAGE; a wrong direction is a
  misprediction — the FTQ is flushed, the runahead collapses to the
  commit point and the pipeline pays the full restart penalty;
* taken direct branches need a BTB hit; a BTB miss stops the runahead
  (FDIP cannot discover the discontinuity) and costs a fetch resteer
  bubble when the branch resolves;
* returns come from the RAS; indirect targets from ITTAGE.

Where the predictions are computed: the runahead visits every block
once, in trace order, and the predictors are private to the front end,
so each block's outcome is a function of the trace and the predictor
geometry alone — never of timing, the prefetcher or the FTQ depth.  A
:class:`BranchOracle` therefore runs fresh TAGE/ITTAGE/BTB/RAS over the
whole trace once, in one in-order pass, and is memoized on the trace
(``Trace.branch_oracles``) per ``(btb_entries, btb_assoc, ras_depth)``.
Every simulated point on the trace then reads one outcome byte per
block: the runahead still stops at mispredicts and BTB misses exactly
where live predictors would have stopped it, and the branch counters
in :class:`~repro.cpu.stats.SimStats` are counted from the oracle over
the blocks the runahead passed.

Wrong-path fetch is not modelled (see DESIGN.md §5); the first-order
FDIP behaviours — limited runahead under BTB pressure and flush-on-
mispredict — are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.frontend.btb import BranchTargetBuffer
from repro.frontend.ittage import ITTagePredictor
from repro.frontend.ras import ReturnAddressStack
from repro.frontend.tage import TagePredictor
from repro.isa.instructions import BranchKind
from repro.memory.cache import ORIGIN_FDIP

#: Penalty kinds recorded per block index.
PEN_NONE = 0
PEN_MISPREDICT = 1
PEN_BTB_MISS = 2

_COND = int(BranchKind.COND)
_JUMP = int(BranchKind.JUMP)
_CALL = int(BranchKind.CALL)
_RET = int(BranchKind.RET)
_ICALL = int(BranchKind.ICALL)
_IJUMP = int(BranchKind.IJUMP)

# Per-block outcome codes of the oracle build (0 = no terminator).
_COND_MISPREDICT = 1
_COND_NOT_TAKEN = 2
_COND_BTB_HIT = 3
_COND_BTB_MISS = 4
_DIRECT_BTB_HIT = 5   # JUMP / CALL
_DIRECT_BTB_MISS = 6
_RET_HIT = 7
_RET_MISPREDICT = 8
_INDIRECT_HIT = 9     # ICALL / IJUMP
_INDIRECT_MISPREDICT = 10

#: Outcome code -> the penalty kind it charges (others: PEN_NONE).
_PENALTY_OF = {
    _COND_MISPREDICT: PEN_MISPREDICT, _COND_BTB_MISS: PEN_BTB_MISS,
    _DIRECT_BTB_MISS: PEN_BTB_MISS, _RET_MISPREDICT: PEN_MISPREDICT,
    _INDIRECT_MISPREDICT: PEN_MISPREDICT,
}
_OUTCOME_TABLE = bytes(_PENALTY_OF.get(c, PEN_NONE) for c in range(256))

#: SimStats branch counter -> the outcome codes it counts.
_COUNTER_CODES = (
    ("cond_branches", (_COND_MISPREDICT, _COND_NOT_TAKEN, _COND_BTB_HIT,
                       _COND_BTB_MISS)),
    ("cond_mispredicts", (_COND_MISPREDICT,)),
    ("btb_lookups", (_COND_BTB_HIT, _COND_BTB_MISS, _DIRECT_BTB_HIT,
                     _DIRECT_BTB_MISS)),
    ("btb_misses", (_COND_BTB_MISS, _DIRECT_BTB_MISS)),
    ("returns", (_RET_HIT, _RET_MISPREDICT)),
    ("ras_mispredicts", (_RET_MISPREDICT,)),
    ("indirect_branches", (_INDIRECT_HIT, _INDIRECT_MISPREDICT)),
    ("indirect_mispredicts", (_INDIRECT_MISPREDICT,)),
)

@dataclass
class FrontEndParams:
    """Front-end configuration (Table 1 defaults)."""

    ftq_entries: int = 24
    btb_entries: Optional[int] = 8192  # None = infinite (Figure 14)
    btb_assoc: int = 8
    ras_depth: int = 32
    mispredict_penalty: float = 15.0
    btb_miss_penalty: float = 8.0
    #: Issue FTQ prefetches (True = FDIP; False = no-FDIP ablation —
    #: branches are still predicted and penalties still charged).
    issue_prefetches: bool = True


class BranchOracle:
    """The branch-prediction unit's verdict on every block of one trace.

    ``codes[i]`` records what the predictors did with block ``i``'s
    terminator; ``outcome[i]`` is the penalty kind (``PEN_*``) it
    incurs.  A SimStats branch counter over any block range is a few
    ``bytes.count`` calls.
    """

    __slots__ = ("codes", "outcome")

    def __init__(self, codes: bytes):
        self.codes = codes
        self.outcome = codes.translate(_OUTCOME_TABLE)

    def counts(self, start: int, end: int) -> Dict[str, int]:
        """Each branch counter over blocks ``[start, end)``."""
        codes = self.codes
        return {name: sum(codes.count(c, start, end) for c in members)
                for name, members in _COUNTER_CODES}


def oracle_geometry(params: FrontEndParams) -> tuple:
    """The predictor geometry a :class:`BranchOracle` depends on (its
    key in ``Trace.branch_oracles``)."""
    return (params.btb_entries, params.btb_assoc, params.ras_depth)


def branch_oracle(trace, params: FrontEndParams) -> BranchOracle:
    """The oracle of ``trace`` under ``params``' predictor geometry,
    built on first use and memoized on the trace."""
    key = oracle_geometry(params)
    oracle = trace.branch_oracles.get(key)
    if oracle is None:
        oracle = BranchOracle(_predict_trace(trace, *key))
        trace.branch_oracles[key] = oracle
    return oracle


def _predict_trace(trace, btb_entries: Optional[int], btb_assoc: int,
                   ras_depth: int) -> bytes:
    """Run fresh predictors over every terminator in trace order;
    returns one outcome code per block."""
    btb = BranchTargetBuffer(btb_entries, btb_assoc)
    ras = ReturnAddressStack(ras_depth)
    predict = TagePredictor().predict_and_update
    predict_indirect = ITTagePredictor().predict_and_update
    lookup = btb.lookup
    update = btb.update
    push = ras.push
    pop = ras.pop
    taken_arr = trace.taken
    tgt_arr = trace.target
    term_arr = trace.term
    codes = bytearray(len(trace))
    cond, jump, call, ret = _COND, _JUMP, _CALL, _RET
    icall, ijump = _ICALL, _IJUMP
    cond_mispredict, cond_not_taken = _COND_MISPREDICT, _COND_NOT_TAKEN
    cond_btb_hit, cond_btb_miss = _COND_BTB_HIT, _COND_BTB_MISS
    direct_btb_hit, direct_btb_miss = _DIRECT_BTB_HIT, _DIRECT_BTB_MISS
    ret_hit, ret_mispredict = _RET_HIT, _RET_MISPREDICT
    indirect_hit, indirect_mispredict = _INDIRECT_HIT, _INDIRECT_MISPREDICT
    # lint: hot-begin
    for i, kind in enumerate(trace.kind):
        if not kind:  # BranchKind.NONE: nothing to predict
            continue
        term = term_arr[i]
        target = tgt_arr[i]
        if kind == cond:
            taken = taken_arr[i] != 0
            if not predict(term, taken):
                codes[i] = cond_mispredict
            elif not taken:
                codes[i] = cond_not_taken
            else:
                known = lookup(term)
                update(term, target)
                codes[i] = (cond_btb_hit if known == target
                            else cond_btb_miss)
        elif kind == jump or kind == call:
            if kind == call:
                push(term + 4)
            known = lookup(term)
            update(term, target)
            codes[i] = direct_btb_hit if known == target else direct_btb_miss
        elif kind == ret:
            codes[i] = ret_hit if pop() == target else ret_mispredict
        elif kind == icall or kind == ijump:
            if kind == icall:
                push(term + 4)
            codes[i] = (indirect_hit if predict_indirect(term, target)
                        else indirect_mispredict)
        else:
            raise ValueError(f"unknown branch kind {kind} at trace index {i}")
    # lint: hot-end
    return bytes(codes)


class FDIPFrontEnd:
    """Decoupled front-end model bound to one trace.

    ``penalties`` is the public pending-penalty map (trace index →
    penalty kind): the simulator's commit loop consumes it via
    :meth:`penalty_at` (or reads the dict directly in its hot loop).
    Branch counters reach ``stats`` only through
    :meth:`flush_branch_stats`, which the simulator calls at the end of
    every commit range.
    """

    def __init__(self, params: FrontEndParams, stats):
        self.params = params
        self.stats = stats
        self.hierarchy = None
        self.penalties: Dict[int, int] = {}
        self._ptr = 0          # next trace index the runahead will visit
        self._blocked_at = -1  # runahead waits until commit reaches this
        # Runahead position whose branch counters are already in stats
        # (equal to ptr at every commit-range boundary).
        self._flushed = 0
        # Bound trace arrays, the trace's branch oracle and bind-time
        # constants, set by bind().
        self._b0 = self._b1 = self._page = None
        self._oracle = self._outcome = None
        self._n = 0
        self._ftq = params.ftq_entries
        self._issue = False
        self._tlb_pf = None

    def bind(self, trace, hierarchy, itlb=None,
             itlb_prefetch: bool = False) -> None:
        """Attach the front end to a trace and the memory hierarchy.

        Builds the trace's :class:`BranchOracle` unless it is already
        memoized.  With ``itlb_prefetch`` the runahead also probes the
        I-TLB for each enqueued region's page (non-stalling install; see
        :meth:`repro.memory.tlb.InstructionTLB.prefetch`).
        """
        self._oracle = branch_oracle(trace, self.params)
        self._outcome = self._oracle.outcome
        self._b0 = trace.block0
        self._b1 = trace.block1
        self._page = trace.page
        self._n = len(trace)
        self.hierarchy = hierarchy
        self._issue = self.params.issue_prefetches and hierarchy is not None
        self._tlb_pf = (itlb.prefetch
                        if itlb_prefetch and itlb is not None else None)

    def penalty_at(self, i: int) -> int:
        """Penalty kind charged when block ``i`` commits (consumed)."""
        if self.penalties:
            return self.penalties.pop(i, PEN_NONE)
        return PEN_NONE

    def advance(self, commit_i: int, now: float) -> None:
        """Advance the runahead pointer given the commit position."""
        if self._blocked_at >= 0:
            if commit_i < self._blocked_at:
                return
            self._blocked_at = -1
        limit = commit_i + self._ftq
        n = self._n
        if limit >= n:
            limit = n - 1
        ptr = self._ptr
        if ptr > limit:
            return
        b0_arr = self._b0
        b1_arr = self._b1
        page_arr = self._page
        out = self._outcome
        penalties = self.penalties
        issue = self._issue
        hier = self.hierarchy
        prefetch = hier.prefetch if issue else None
        tlb_pf = self._tlb_pf
        origin_fdip = ORIGIN_FDIP
        # lint: hot-begin
        while ptr <= limit:
            i = ptr
            if issue and i > commit_i:
                b0 = b0_arr[i]
                b1 = b1_arr[i]
                prefetch(b0, now, origin_fdip, issue_index=commit_i)
                if b1 != b0:
                    prefetch(b1, now, origin_fdip, issue_index=commit_i)
                if tlb_pf is not None:
                    tlb_pf(page_arr[i], origin_fdip)
            ptr = i + 1
            outcome = out[i]
            if outcome:  # a mispredict or BTB miss stops the runahead
                penalties[i] = outcome
                self._blocked_at = i
                break
        # lint: hot-end
        self._ptr = ptr

    def flush_branch_stats(self) -> None:
        """Add the branch counters of the blocks the runahead passed
        since the last flush to ``stats``."""
        start, end = self._flushed, self._ptr
        if start == end:
            return
        stats = self.stats
        for name, count in self._oracle.counts(start, end).items():
            setattr(stats, name, getattr(stats, name) + count)
        self._flushed = end
