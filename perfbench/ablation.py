"""Ablation report: the four `xtune train --mode`s on every workload.

    python3 perfbench/ablation.py --seeds 1,2,3

For each workload and seed, runs synth -> train --mode M -> eval for M in
baseline, r1-only, r2-only and xtune, and records source score, mean
target score and transfer gap as mean and standard deviation over seeds,
with each run's loss fingerprint.  It also records whether the paper's
ordering of the transfer gap, xtune <= {r1-only, r2-only} <= baseline,
holds on the means and on each seed, and writes it all to
``results/ablation.json``.  This report is not a per-change gate.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
from pathlib import Path

import run

MODES = ("baseline", "r1-only", "r2-only", "xtune")
OUT = Path(__file__).resolve().parent / "results" / "ablation.json"


def ordering_holds(gap):
    """xtune <= {r1-only, r2-only} <= baseline on a mode -> gap mapping."""
    return (gap["xtune"] <= min(gap["r1-only"], gap["r2-only"])
            and max(gap["r1-only"], gap["r2-only"]) <= gap["baseline"])


def _summary(values):
    return {"mean": statistics.fmean(values),
            "std": statistics.stdev(values) if len(values) > 1 else 0.0}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1,2,3", help="comma-separated, at least 3")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    if len(seeds) < 3:
        parser.error("--seeds needs at least three seeds")
    if not run.use_source_tree():
        return 2
    from pipeline import run_pipeline
    from workloads import WORKLOADS

    report = {"environment": run.environment(), "seeds": seeds, "workloads": {}}
    failed = 0
    workdir = run.OUT / "ablation"
    try:
        for name, workload in WORKLOADS.items():
            runs = []
            for seed in seeds:
                for mode in MODES:
                    r = run_pipeline(workload, seed, workdir, mode=mode)
                    failed += not r.ok
                    runs.append({"seed": seed, "mode": mode, "errors": r.errors,
                                 "source_score": r.source_score,
                                 "target_score": r.target_score,
                                 "transfer_gap": r.transfer_gap,
                                 "fingerprint": r.fingerprint, "final_loss": r.final_loss})
                    print(f"{name:<9} seed {seed} {mode:<8} source {r.source_score:.4f} "
                          f"target {r.target_score:.4f} gap {r.transfer_gap:+.4f}"
                          + (f"  FAILED {r.errors}" if r.errors else ""), flush=True)
            modes = {}
            for mode in MODES:
                mine = [x for x in runs if x["mode"] == mode]
                modes[mode] = {key: _summary([x[key] for x in mine])
                               for key in ("source_score", "target_score", "transfer_gap")}
            per_seed = {seed: ordering_holds({x["mode"]: x["transfer_gap"]
                                              for x in runs if x["seed"] == seed})
                        for seed in seeds}
            mean_gap = {m: modes[m]["transfer_gap"]["mean"] for m in MODES}
            report["workloads"][name] = {
                "modes": modes,
                "ordering_holds_on_means": ordering_holds(mean_gap),
                "ordering_holds_per_seed": per_seed,
                "runs": runs,
            }
            print(f"{name}: mean gap " + ", ".join(f"{m} {mean_gap[m]:+.4f}" for m in MODES)
                  + f"; ordering holds on means: {ordering_holds(mean_gap)}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {OUT}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
