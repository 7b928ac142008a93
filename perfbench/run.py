"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload prefetcher_grid --seed 3 \\
        --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics (host time unless prefixed
``sim_``); ``--trace 1`` is the separate traced run that prints the
per-layer metrics (see ``perfbench/spans.py``).  Every point's
``SimStats`` digest is checked against ``perfbench/references.json``;
a mismatch, an exception or a timeout counts the point as failed.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
REFERENCES = BENCH_DIR / "references.json"
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import grids, layers  # noqa: E402

#: The paper's mean HP speedup over FDIP (qualitative reference only).
PAPER_HP_GAIN_PCT = 6.6


def require_sources() -> None:
    """Exit non-zero unless this checkout's ``src/repro`` is present."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no repro sources under {src}; run from a "
                 "full checkout of the repository")


def load_references() -> dict:
    try:
        return json.loads(REFERENCES.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        sys.exit(f"perfbench: cannot read {REFERENCES}: {exc}")


def end_to_end(setups, passes) -> dict:
    """The end-to-end metrics of an untraced run."""
    points = [p for _, pts in passes for p in pts if not p.error]
    seconds = sum(p.seconds for p in points)
    instructions = sum(p.instructions for p in points)
    walls = [wall for wall, _ in passes]
    return {
        "setup_s": (grids.median(setups), "s"),
        "wall_s": (grids.median(walls), "s"),
        "point_s_p50": (grids.median([p.seconds for p in points]), "s"),
        "sim_kinstr_per_s": (
            instructions / seconds / 1000.0 if seconds else 0.0, "kinstr/s"),
        "peak_rss_mb": (grids.peak_rss_mb(), "MB"),
    }


def describe(name, metrics, passes, setups, log) -> None:
    points = [p for _, pts in passes for p in pts if not p.error]
    measured = sum(p.stats.instructions for p in points)
    seconds = sum(p.seconds for p in points)
    log(f"{name}: {len(passes)} pass(es), {len(points)} points, "
        f"{len(setups)} set-ups")
    for key, (value, unit) in metrics.items():
        log(f"  {key:<18} {value:12.4f} {unit}")
    log(f"  point_s_p50 is the median of n={len(points)} points")
    if name == grids.ManifestSweep.name:
        walls = [wall for wall, _ in passes]
        log(f"  points_per_min {60.0 * len(points) / sum(walls):.2f} "
            "(not gated: a pass has a fixed point count, so it is wall_s)")
    if seconds:
        log(f"  measured-window-only rate: {measured / seconds / 1000.0:.1f}"
            " kinstr/s (sim_kinstr_per_s counts warmup too)")
    log(f"  sim_ipc_gain_hp_pct {grids.hp_gain_pct(points):+.2f} (simulated; "
        f"paper reports +{PAPER_HP_GAIN_PCT}% mean over FDIP, a "
        "qualitative reference only: the model is unvalidated)")


def run_passes(wl, seconds: float):
    """Closed loop: set-ups plus a whole pass, while the next fits in
    ``seconds``.  Returns the set-up times and the passes."""
    setups, passes = [], []
    start = time.perf_counter()
    while True:
        cycle = time.perf_counter()
        setups += [wl.setup() for _ in range(wl.setups)]
        gc.collect()
        passes.append(wl.run_pass())
        now = time.perf_counter()
        if now - start + (now - cycle) > seconds:
            return setups, passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    require_sources()
    if args.workload not in grids.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of "
                     f"{sorted(grids.WORKLOADS)}")
    references = load_references()
    seed = grids.input_seed(args.seed)
    refs = references["workloads"][args.workload].get(str(seed), {})

    def log(line: str) -> None:
        print(line, flush=True)

    work_dir = BENCH_DIR / ".work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work_dir, ignore_errors=True)
    grids.scrub_environment(work_dir)
    wl = grids.WORKLOADS[args.workload](args.seed, work_dir)
    try:
        if args.trace:
            result = layers.traced_run(wl, refs, log)
            out = (BENCH_DIR / ".out"
                   / f"trace-{args.workload}-s{args.seed}.json")
            result.tracer.dump(out)
            log(f"span table written to {out.relative_to(ROOT)}")
            metrics = result.metrics
            attempted, failed = result.attempted, result.failed
        else:
            setups, passes = run_passes(wl, args.seconds)
            attempted = sum(max(len(refs), len(pts)) for _, pts in passes)
            failed = sum(grids.check_points(pts, refs, log)
                         for _, pts in passes)
            metrics = end_to_end(setups, passes)
            describe(args.workload, metrics, passes, setups, log)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    log(f"{failed} failed / {attempted} attempted (input seed {seed}, "
        f"failed_ratio {failed / attempted:.4f})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
