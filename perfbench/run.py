"""Benchmark of the `xtune` pipeline: synth -> train --mode xtune -> eval.

    python3 perfbench/run.py --workload xnli-cs --seed 1 --seconds 30 --trace 0

Runs the pipeline in-process through `xtune.cli.main`, one run at a time
(a closed loop with a single caller), for about ``--seconds`` seconds.  The
workload seed derives three pipeline seeds; each feeds `synth --seed` and
the config `seed`, and the loop cycles through them so that every run
repeats at least one seed and checks that it reproduces exactly.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics named in BENCHMARK.json; with ``--trace 1`` it holds
the per-layer metrics of a traced pipeline, each traced pipeline paired
with an untraced one of the same seed.  A full record of the run (every
sample, fingerprints and, when traced, every span) goes to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import gc
import json
import platform
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SEEDS_PER_RUN = 3


def pipeline_seeds(seed):
    """Distinct pipeline seeds for one workload seed."""
    return [seed * SEEDS_PER_RUN + k for k in range(SEEDS_PER_RUN)]


def declared_metrics():
    """name -> (unit, better) for every metric BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]},
            {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]})


def _timed_loop(seconds, min_runs, body):
    """Call body(i) until the next call would overrun ``seconds``."""
    start = time.perf_counter()
    durations = []
    while True:
        gc.collect()
        t = time.perf_counter()
        body(len(durations))
        durations.append(time.perf_counter() - t)
        elapsed = time.perf_counter() - start
        if len(durations) >= min_runs and elapsed + statistics.median(durations) > seconds:
            return


def _guarded(workload, seed, workdir, cut_steps=True):
    """Run one pipeline; an exception fails that run, not the benchmark."""
    from pipeline import PipelineResult, run_pipeline
    try:
        return run_pipeline(workload, seed, workdir, cut_steps=cut_steps)
    except Exception:                      # noqa: BLE001 - boundary of one run
        traceback.print_exc(file=sys.stderr)
        result = PipelineResult(workload.name, seed, "xtune")
        result.errors.append(traceback.format_exc(limit=1).strip().splitlines()[-1])
        return result


def check_reruns(results):
    """Fail every run whose outcome differs from the first run of its seed."""
    first = {}
    for r in results:
        if not r.ok:
            continue
        ref = first.setdefault(r.seed, r)
        if r.outcome() != ref.outcome():
            r.errors.append(f"seed {r.seed} did not reproduce: {r.outcome()} "
                            f"vs {ref.outcome()}")


def peak_rss_mb():
    """Peak resident memory of this process image (VmHWM).

    Not ru_maxrss: Linux carries the calling process's peak into it across
    fork and exec, so a large caller would set the reading."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("/proc/self/status has no VmHWM line")


def end_to_end_metrics(results):
    """Every time is in reference seconds (`hostspeed.py`).  Throughputs are
    total work over total time across the run's pipelines and ``run_s`` is
    the mean per pipeline, with one eval (the median of its repeats).
    ``setup_s`` is the median of every set-up in the run."""
    ok = [r for r in results if r.ok]
    if not ok:
        return {}
    distinct = {r.seed: r for r in ok}.values()
    return {
        "setup_s": statistics.median(t for r in ok for t in r.synth_calls),
        "train_items_per_s": sum(r.train_items for r in ok) / sum(r.train_s for r in ok),
        "eval_examples_per_s": sum(r.eval_examples * len(r.eval_calls) for r in ok)
        / sum(sum(r.eval_calls) for r in ok),
        "run_s": statistics.fmean(r.run_s for r in ok),
        "peak_rss_mb": peak_rss_mb(),
        "source_score": statistics.fmean(r.source_score for r in distinct),
    }


def measure(workload, seed, seconds, trace, workdir):
    """Run the timed loop; returns (results, metrics, tracer or None)."""
    seeds = pipeline_seeds(seed)
    results = []
    if not trace:
        _timed_loop(seconds, SEEDS_PER_RUN + 1, lambda i: results.append(
            _guarded(workload, seeds[i % len(seeds)], workdir)))
        check_reruns(results)
        return results, end_to_end_metrics(results), None

    from layers import layer_metrics
    from tracer import Tracer
    tracer = Tracer()
    plain, traced = [], []

    def pair(i):
        s = seeds[i % len(seeds)]
        plain.append(_guarded(workload, s, workdir, cut_steps=False))
        with tracer:
            traced.append(_guarded(workload, s, workdir, cut_steps=False))

    _timed_loop(seconds, 1, pair)
    results = plain + traced
    check_reruns(results)
    ok = [r for r in traced if r.ok]
    metrics = layer_metrics(tracer, ok, [r for r in plain if r.ok]) if ok else {}
    return results, metrics, tracer


def environment():
    import numpy
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def use_source_tree():
    """Put the checkout's `src/` first on the import path; False if absent."""
    if not (SRC / "xtune" / "__init__.py").is_file():
        print(f"perfbench: no xtune package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


def result_line(results, values, declared):
    """The JSON object printed as the last line of standard output."""
    failed = sum(not r.ok for r in results)
    return {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit}
                    for name, (unit, _better) in declared.items()},
    }


def describe(name, unit, values):
    """One human-readable line: median, tail percentile and sample count."""
    from layers import tail
    median = statistics.median(values)
    t = tail(values)
    tail_text = f"p{t[0]:g} {t[1]:.6g}" if t else "no percentile has 10 samples above it"
    return (f"per pipeline {name:<8} median {median:.6g} {unit} "
            f"({tail_text}; n={len(values)})")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not use_source_tree():
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    end_to_end, per_layer = declared_metrics()
    declared = per_layer if args.trace else end_to_end

    workdir = OUT / f"work-{os.getpid()}"
    try:
        results, values, tracer = measure(workload, args.seed, args.seconds,
                                          args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(not r.ok for r in results)
    for r in results:
        for err in r.errors:
            print(f"FAILED {r.workload} seed {r.seed}: {err}", file=sys.stderr)
    missing = sorted(set(declared) - set(values))
    if missing and not failed:
        print(f"perfbench: metrics not computed: {missing}", file=sys.stderr)
        return 3

    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "pipeline_seeds": pipeline_seeds(args.seed),
        "environment": environment(),
        "runs": [dict(vars(r), synth_s=r.synth_s, eval_s=r.eval_s, run_s=r.run_s, steps=len(r.steps)) for r in results],
        "metrics": values,
    }
    if tracer is not None:
        record["spans"] = tracer.to_json()
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record), encoding="utf-8")

    if not args.trace:
        ok = [r for r in results if r.ok]
        for name, attr in (("synth", "synth_s"), ("train", "train_s"),
                           ("eval", "eval_s"), ("run", "run_s")):
            if ok:
                print(describe(name, "s", [getattr(r, attr) for r in ok]))
    for name, (unit, better) in declared.items():
        if name in values:
            print(f"{name:<40} {values[name]:14.6g} {unit:<10} {better} is better")
    print(json.dumps(result_line(results, values, declared)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
