"""Run the benchmark twice over several seeds per workload and summarise it.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/results/baseline.json

For each workload, runs `run.py --trace 0` once per seed, each in a fresh
process, for two sets of the same seeds one after the other, then one
`run.py --trace 1`.  For every end-to-end metric it prints, per set, the
median over seeds, the quartiles and the spread (interquartile distance
over the median), and the shift of the second median from the first in
the metric's worse direction, each next to the metric's bound.  It writes
them, the traced per-layer breakdown, each pipeline's loss fingerprint
and the machine description to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
SETS = 2


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def bench(workload, seed, seconds, trace):
    """One run in a fresh process; returns (result line, full record)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    record_path = run.OUT / f"{workload}-seed{seed}-trace{trace}.json"
    return line, json.loads(record_path.read_text(encoding="utf-8"))


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / abs(q2) if q2 else None,
            "values": values}


def worse_shift(first, second, better):
    """How much worse the second median is than the first, as a share of the
    first; negative when it is better."""
    if not first:
        return 0.0
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--out", help="JSON summary to write")
    args = parser.parse_args(argv)

    if not run.use_source_tree():
        return 2
    from workloads import WORKLOADS

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    declared = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["per_layer"]}
    seeds = parse_seeds(args.seeds)
    summary = {"seconds": seconds, "seeds": seeds, "sets": SETS, "workloads": {}}
    unsteady = []

    for name in WORKLOADS:
        sets, fingerprints, attempted, failed, environment = [], {}, 0, 0, None
        for k in range(SETS):
            lines = []
            for seed in seeds:
                line, record = bench(name, seed, seconds, 0)
                environment = record["environment"]
                lines.append(line)
                attempted += line["attempted"]
                failed += line["failed"]
                for r in record["runs"]:
                    if r["errors"]:
                        continue
                    fp = {"traces_sha256": r["fingerprint"],
                          "final_stage2_loss": r["final_loss"],
                          "source_score": r["source_score"],
                          "target_score": r["target_score"],
                          "transfer_gap": r["transfer_gap"]}
                    if fingerprints.setdefault(str(r["seed"]), fp) != fp:
                        failed += 1
                        print(f"{name} pipeline seed {r['seed']} differs across processes: "
                              f"{fp} vs {fingerprints[str(r['seed'])]}", file=sys.stderr)
                print(f"{name} set {k + 1} seed {seed}: attempted {line['attempted']} "
                      f"failed {line['failed']} "
                      + " ".join(f"{m}={v['value']:.6g}" for m, v in line["metrics"].items()),
                      flush=True)
            sets.append({m: spread([line["metrics"][m]["value"] for line in lines])
                         for m in declared})

        metrics = {}
        for m, meta in declared.items():
            spreads = [s[m]["spread"] for s in sets]
            shift = worse_shift(sets[0][m]["median"], sets[-1][m]["median"], meta["better"])
            gated = [x for x in spreads if x is not None] if m != "setup_s" else []
            within = shift <= meta["bound"] and all(x <= meta["bound"] for x in gated)
            if not within:
                unsteady.append(f"{name} {m}")
            metrics[m] = {"unit": meta["unit"], "better": meta["better"],
                          "bound": meta["bound"], "spreads": spreads,
                          "worse_shift": shift, "within_bound": within}
        entry = {
            "environment": environment,
            "attempted": attempted,
            "failed": failed,
            "end_to_end": metrics,
            "sets": sets,
            "pipeline_fingerprints": fingerprints,
        }
        print(f"\n{name}: {failed}/{attempted} pipelines failed")
        print(f"  {'metric':<22} {'unit':<11} " + " ".join(
            f"{'median ' + str(k + 1):>12} {'spread ' + str(k + 1):>9}" for k in range(SETS))
            + "  worse shift  bound")
        for m, e in metrics.items():
            cells = " ".join(f"{s[m]['median']:12.6g} "
                             + ("      n/a" if s[m]["spread"] is None
                                else f"{s[m]['spread']:9.3f}") for s in sets)
            print(f"  {m:<22} {e['unit']:<11} {cells}  {e['worse_shift']:+11.3f}  "
                  f"{e['bound']}" + ("" if e["within_bound"] else "  OUT OF BOUND"))

        line, _ = bench(name, seeds[0], seconds, 1)
        entry["per_layer"] = {k: dict(v, better=better[k]) for k, v in line["metrics"].items()}
        entry["traced_seed"] = seeds[0]
        print(f"  traced (seed {seeds[0]}):")
        for k, v in line["metrics"].items():
            print(f"    {k:<40} {v['value']:14.6g} {v['unit']}")
        summary["workloads"][name] = entry
        print(flush=True)

    summary["out_of_bound"] = unsteady
    print("every end-to-end metric within its bound" if not unsteady
          else f"out of bound: {', '.join(unsteady)}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
