"""Record the reference ``SimStats`` digests the benchmark checks against.

Usage (from the repository root)::

    python3 perfbench/record.py

For every workload seed in ``0 .. SEED_SPACE-1`` and every point of
every workload this stores the digest of the point's complete
``SimStats`` and the number of instructions it simulates (warmup plus
measured window) in ``perfbench/references.json``, one seed per CPU.
The in-process workloads are recorded through the same set-up and pass
code the benchmark runs; ``manifest_sweep`` points are recorded serially
in the recording process (``SweepPoint.run(use_cache=False)``), so the
benchmark's forked sweep is checked against the serial path.  Record at a commit whose
simulated behaviour is known good, and only then.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCES = ROOT / "perfbench" / "references.json"
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import grids  # noqa: E402

#: The seed kept out of bound-setting runs (its references are recorded
#: like every other seed's).
HELD_OUT_SEED = grids.SEED_SPACE - 1


def record_seed(seed: int) -> dict:
    from repro.workloads.cache import clear_caches, get_trace

    work_dir = ROOT / "perfbench" / ".work" / f"record-{seed}"
    grids.scrub_environment(work_dir)
    out = {}
    for cls in (grids.PrefetcherGrid, grids.MsvcProbed):
        wl = cls(seed, work_dir)
        wl.setup()
        _, points = wl.run_pass()
        out[cls.name] = {
            p.label: {"digest": p.digest, "instructions": p.instructions}
            for p in points
        }
    wl = grids.ManifestSweep(seed, work_dir)
    wl.setup()
    clear_caches()
    sweep = {}
    for point in wl.points:
        stats, _ = point.run(use_cache=False)
        trace = get_trace(point.workload, scale=point.scale, seed=point.seed)
        sweep[grids.label_of(point.workload, point.prefetcher)] = {
            "digest": grids.stats_digest(stats),
            "instructions": trace.n_instructions,
        }
    out[grids.ManifestSweep.name] = sweep
    shutil.rmtree(work_dir, ignore_errors=True)
    print(f"seed {seed} recorded", file=sys.stderr, flush=True)
    return out


def main() -> int:
    seeds = range(grids.SEED_SPACE)
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(os.cpu_count() or 1) as pool:
        recorded = pool.map(record_seed, seeds, chunksize=1)
    workloads = {name: {} for name in grids.WORKLOADS}
    for seed, per_workload in zip(seeds, recorded):
        for name, points in per_workload.items():
            workloads[name][str(seed)] = points
    REFERENCES.write_text(json.dumps({
        "format": 1,
        "seed_space": grids.SEED_SPACE,
        "held_out_seed": HELD_OUT_SEED,
        "workloads": workloads,
    }, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
