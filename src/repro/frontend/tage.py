"""TAGE-lite conditional branch predictor.

A scaled-down L-TAGE (Seznec): a bimodal base table plus several
partially tagged tables indexed by geometrically growing global-history
lengths.  Prediction comes from the longest-history matching table;
allocation on mispredictions steals a not-useful entry from a longer
table.  The implementation fuses predict+update into one call — the
simulator evaluates every branch exactly once, in trace order.

Index/tag hashes fold the global history register into table-sized
chunks.  Folding the full history on every prediction is the simulator's
single hottest computation, so each (history length, output width) pair
keeps an incrementally maintained *folded register* — Seznec's circular
shift register: when the GHR shifts in outcome bit ``b`` and drops bit
``L-1``, the folded value is rotated by one with ``b`` XORed in at bit 0
and the dropped bit XORed out at position ``L mod B``.  The registers
are exactly equal to :meth:`TagePredictor._fold` of the current GHR at
all times (pinned by tests/test_frontend_units.py).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

# (table size, history length, tag bits) per tagged table.
DEFAULT_TABLES: Tuple[Tuple[int, int, int], ...] = (
    (4096, 8, 9),
    (4096, 16, 10),
    (4096, 32, 11),
    (4096, 64, 12),
)


class _Xorshift:
    """Tiny deterministic PRNG for allocation tie-breaking."""

    __slots__ = ("state",)

    def __init__(self, seed: int = 0x2545F491):
        self.state = seed or 1

    def next(self) -> int:
        x = self.state
        x ^= (x << 13) & 0xFFFFFFFF
        x ^= x >> 17
        x ^= (x << 5) & 0xFFFFFFFF
        self.state = x
        return x


class TagePredictor:
    """Fused predict/update TAGE with a 2-bit bimodal base."""

    def __init__(
        self,
        bimodal_entries: int = 65536,
        tables: Sequence[Tuple[int, int, int]] = DEFAULT_TABLES,
    ):
        if bimodal_entries & (bimodal_entries - 1):
            raise ValueError("bimodal_entries must be a power of 2")
        self.bimodal_mask = bimodal_entries - 1
        self.bimodal: List[int] = [1] * bimodal_entries  # weakly not-taken
        self.tables = list(tables)
        for size, _, _ in self.tables:
            if size & (size - 1):
                raise ValueError("table sizes must be powers of 2")
        # Per tagged table: ctr (3-bit signed, -4..3), tag, useful (2-bit).
        self.ctr: List[List[int]] = [[0] * size for size, _, _ in self.tables]
        self.tag: List[List[int]] = [[-1] * size for size, _, _ in self.tables]
        self.useful: List[List[int]] = [[0] * size for size, _, _ in self.tables]
        # Per-table hash geometry: (size mask, log2 size, tag mask).
        self._geom: List[Tuple[int, int, int]] = []
        # Per-table folded-register update constants:
        # (L-1, pos/width/mask for the index fold, the tag fold, and the
        # tag-1 fold), where pos = L mod width.
        self._fold_meta: List[Tuple[int, ...]] = []
        for size, hist_len, tag_bits in self.tables:
            log_size = size.bit_length() - 1
            self._geom.append((size - 1, log_size, (1 << tag_bits) - 1))
            meta: List[int] = [hist_len - 1]
            for width in (log_size, tag_bits, tag_bits - 1):
                meta += [hist_len % width, width, (1 << width) - 1]
            self._fold_meta.append(tuple(meta))
        self.ghr = 0
        # Folded-history registers: every fold of the empty GHR is 0.
        self._f_idx: List[int] = [0] * len(self.tables)
        self._f_tag: List[int] = [0] * len(self.tables)
        self._f_tag2: List[int] = [0] * len(self.tables)
        self._rng = _Xorshift()
        self.predictions = 0
        self.mispredictions = 0

    # ------------------------------------------------------------------
    def _fold(self, value: int, bits: int, out_bits: int) -> int:
        value &= (1 << bits) - 1
        folded = 0
        while value:
            folded ^= value & ((1 << out_bits) - 1)
            value >>= out_bits
        return folded

    def _index_tag(self, pc: int, table: int) -> Tuple[int, int]:
        """Reference index/tag hash (the folded registers reproduce it)."""
        size, hist_len, tag_bits = self.tables[table]
        log_size = size.bit_length() - 1
        pc_h = pc >> 2
        idx = (pc_h ^ (pc_h >> log_size) ^ self._fold(self.ghr, hist_len, log_size)) & (size - 1)
        tag = (pc_h ^ self._fold(self.ghr, hist_len, tag_bits)
               ^ (self._fold(self.ghr, hist_len, tag_bits - 1) << 1)) & ((1 << tag_bits) - 1)
        return idx, tag

    # ------------------------------------------------------------------
    def predict_and_update(self, pc: int, taken: bool) -> bool:
        """Predict branch ``pc``, learn outcome ``taken``; return
        True when the prediction was correct."""
        self.predictions += 1
        geom = self._geom
        f_idx = self._f_idx
        f_tag = self._f_tag
        f_tag2 = self._f_tag2
        tag_tables = self.tag
        ctr_tables = self.ctr
        ntables = len(geom)
        idxs = [0] * ntables
        tags = [0] * ntables
        provider = -1
        alt = -1
        pc_h = pc >> 2
        for t in range(ntables - 1, -1, -1):
            size_mask, log_size, tag_mask = geom[t]
            idx = (pc_h ^ (pc_h >> log_size) ^ f_idx[t]) & size_mask
            tg = (pc_h ^ f_tag[t] ^ (f_tag2[t] << 1)) & tag_mask
            idxs[t] = idx
            tags[t] = tg
            if tag_tables[t][idx] == tg:
                if provider < 0:
                    provider = t
                elif alt < 0:
                    alt = t
        bim_idx = pc_h & self.bimodal_mask
        bim_pred = self.bimodal[bim_idx] >= 2
        if provider >= 0:
            pred = ctr_tables[provider][idxs[provider]] >= 0
            alt_pred = (
                ctr_tables[alt][idxs[alt]] >= 0 if alt >= 0 else bim_pred
            )
        else:
            pred = alt_pred = bim_pred
        correct = pred == taken

        # --- update ---
        if provider >= 0:
            ctr = ctr_tables[provider]
            i = idxs[provider]
            if taken:
                if ctr[i] < 3:
                    ctr[i] += 1
            elif ctr[i] > -4:
                ctr[i] -= 1
            if pred != alt_pred:
                u = self.useful[provider]
                if pred == taken:
                    if u[i] < 3:
                        u[i] += 1
                elif u[i] > 0:
                    u[i] -= 1
        else:
            bim = self.bimodal
            if taken:
                if bim[bim_idx] < 3:
                    bim[bim_idx] += 1
            elif bim[bim_idx] > 0:
                bim[bim_idx] -= 1
        if not correct:
            self.mispredictions += 1
            self._allocate(provider, idxs, tags, taken)
        # --- GHR shift + incremental folded-register update ---
        b = 1 if taken else 0
        ghr = self.ghr
        for t in range(ntables):
            (lm1, p0, w0, m0, p1, w1, m1, p2, w2, m2) = self._fold_meta[t]
            o = (ghr >> lm1) & 1
            f = (f_idx[t] << 1) | b
            if o:
                f ^= 1 << p0
            f ^= f >> w0
            f_idx[t] = f & m0
            f = (f_tag[t] << 1) | b
            if o:
                f ^= 1 << p1
            f ^= f >> w1
            f_tag[t] = f & m1
            f = (f_tag2[t] << 1) | b
            if o:
                f ^= 1 << p2
            f ^= f >> w2
            f_tag2[t] = f & m2
        self.ghr = ((ghr << 1) | b) & ((1 << 64) - 1)
        return correct

    def _allocate(self, provider: int, idxs: List[int], tags: List[int],
                  taken: bool) -> None:
        start = provider + 1
        ntables = len(self.tables)
        if start >= ntables:
            return
        # Prefer the first longer table with a not-useful entry; decay
        # usefulness along the way if none is free (Seznec's policy,
        # simplified).
        candidates = [
            t for t in range(start, ntables) if self.useful[t][idxs[t]] == 0
        ]
        if not candidates:
            for t in range(start, ntables):
                if self.useful[t][idxs[t]] > 0:
                    self.useful[t][idxs[t]] -= 1
            return
        pick = candidates[0]
        if len(candidates) > 1 and self._rng.next() & 1:
            pick = candidates[1]
        i = idxs[pick]
        self.tag[pick][i] = tags[pick]
        self.ctr[pick][i] = 0 if taken else -1
        self.useful[pick][i] = 0

    @property
    def accuracy(self) -> float:
        if not self.predictions:
            return 0.0
        return 1.0 - self.mispredictions / self.predictions

    def __repr__(self) -> str:
        return (
            f"TagePredictor(tables={len(self.tables)}, "
            f"acc={self.accuracy:.4f} over {self.predictions})"
        )
