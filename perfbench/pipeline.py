"""One `xtune synth` -> `xtune train` -> `xtune eval` run, timed and checked.

The CLI is called in-process through the `xtune.cli.main` module attribute,
so a tracer that has replaced module attributes sees every call.  The only
inputs are the generated CLI arguments and a config file.

Every time is in reference seconds (see `hostspeed.py`): wall time scaled
by the speed of a fixed probe run at the call's ends and between training
steps.  The wall times are kept in ``PipelineResult.walls``.

`xtune synth` runs ``SYNTH_REPEATS`` times per pipeline and `xtune eval`
``EVAL_REPEATS`` times on each checkpoint.  Each takes a fraction of a
second; repeating them gives set-up time and eval throughput more samples.
Every repeat must write the same files as the first.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import xtune.cli

from hostspeed import HostClock
from workloads import LANGUAGES

SYNTH_REPEATS = 3
EVAL_REPEATS = 5


@dataclass
class PipelineResult:
    workload: str
    seed: int
    mode: str
    synth_calls: list = field(default_factory=list)  # time of each synth
    train_s: float = 0.0
    eval_calls: list = field(default_factory=list)   # time of each eval
    train_items: int = 0
    eval_examples: int = 0      # scored by one eval
    steps: list = field(default_factory=list)   # batch items per training step
    source_score: float = 0.0
    target_score: float = 0.0
    transfer_gap: float = 0.0
    fingerprint: str = ""
    final_loss: float = 0.0
    errors: list = field(default_factory=list)
    walls: list = field(default_factory=list)   # HostClock.samples

    @property
    def synth_s(self):
        """One synth's time: the median of the repeats."""
        return statistics.median(self.synth_calls) if self.synth_calls else 0.0

    @property
    def eval_s(self):
        """One eval's time: the median of the repeats."""
        return statistics.median(self.eval_calls) if self.eval_calls else 0.0

    @property
    def run_s(self):
        return self.synth_s + self.train_s + self.eval_s

    @property
    def ok(self):
        return not self.errors

    def outcome(self):
        """What must repeat exactly for a rerun of the same seed and mode."""
        return (self.source_score, self.target_score, self.transfer_gap,
                self.fingerprint, self.final_loss)


def _main(argv):
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return xtune.cli.main(argv)
    except SystemExit as exc:
        return exc.code


def _call(argv, result, clock):
    """Run one CLI command; returns its time in reference seconds and
    records a bad exit."""
    code, elapsed = clock.time(argv[0], lambda: _main(argv))
    if code != 0:
        result.errors.append(f"`xtune {argv[0]}` exited with {code!r}")
    return elapsed


def run_pipeline(workload, seed, workdir, mode="xtune", cut_steps=True):
    """Run the pipeline once in a fresh directory under ``workdir``.

    ``cut_steps`` lets the clock probe the host between training steps;
    a traced pipeline turns it off."""
    root = Path(workdir) / f"{workload.name}-{seed}-{mode}"
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    result = PipelineResult(workload.name, seed, mode)
    clock = HostClock()
    result.walls = clock.samples
    try:
        with clock if cut_steps else contextlib.nullcontext():
            _run_commands(workload, seed, root, result, clock)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return result


def _run_commands(workload, seed, root, result, clock):
    data_dir, run_dir = root / "data", root / "run"
    report, gap = root / "report.json", root / "gap.json"
    for k in range(SYNTH_REPEATS):
        out = data_dir if k == 0 else root / f"data.{k}"
        result.synth_calls.append(_call(workload.synth_args(out, seed), result, clock))
        if result.errors:
            return
        if k:
            if _digest(out) != _digest(data_dir):
                result.errors.append(f"synth repeat {k} wrote different files")
                return
            shutil.rmtree(out)
    config = root / "config.json"
    config.write_text(json.dumps(workload.config(data_dir, seed)), encoding="utf-8")
    result.train_s = _call(["train", "--config", str(config), "--mode", result.mode,
                            "--out", str(run_dir)], result, clock)
    if result.errors:
        return
    for k in range(EVAL_REPEATS):
        gc.collect()
        out = report if k == 0 else root / f"report.{k}.json"
        result.eval_calls.append(
            _call(workload.eval_args(run_dir / "student.ckpt", data_dir, out), result, clock))
        if result.errors:
            return
        if out.read_bytes() != report.read_bytes():
            result.errors.append(f"eval repeat {k} wrote a different report")
            return
    _call(["gap", "--report", str(report), "--out", str(gap)], result, clock)
    if result.errors:
        return
    _read_outputs(workload, result, data_dir, run_dir / "manifest.json", report, gap)


def _digest(directory):
    """sha256 over the relative paths and contents of every file."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode("utf-8"))
        h.update(path.read_bytes())
    return h.hexdigest()


def _read_outputs(workload, result, data_dir, manifest_path, report_path, gap_path):
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    report = json.loads(report_path.read_text(encoding="utf-8"))
    gap = json.loads(gap_path.read_text(encoding="utf-8"))
    traces = manifest["traces"]
    errors = result.errors

    for stage, trace in traces.items():
        for step in trace:
            for key in ("total", "task", "example_consistency", "model_consistency"):
                if not math.isfinite(step[key]):
                    errors.append(f"{stage} step {step['step']}: {key} is {step[key]}")
            result.steps.append(step["labeled"] + step["unlabeled"])
    stage_items = _stage_items(workload, result.mode)
    for stage, items in stage_items.items():
        want = workload.expected_steps(items)
        got = len(traces.get(stage, ()))
        if got != want:
            errors.append(f"{stage}: {got} steps, expected {want} "
                          f"({workload.epochs} epochs of {items} items)")
    result.train_items = sum(result.steps)
    if result.train_items != workload.epochs * sum(stage_items.values()):
        errors.append(f"trace covers {result.train_items} batch items, expected "
                      f"{workload.epochs * sum(stage_items.values())}")

    languages = set(gap["per_language"])
    if languages != set(report["per_language"]) or len(languages) != len(LANGUAGES):
        errors.append(f"eval report covers languages {sorted(languages)}")
    for lang, scores in report["per_language"].items():
        for name, value in scores.items():
            if not 0.0 <= value <= 1.0:
                errors.append(f"eval {lang} {name} = {value} outside [0, 1]")
    source = gap["source_language"]
    targets = [v for lang, v in gap["per_language"].items() if lang != source]
    result.source_score = gap["per_language"][source]
    result.target_score = sum(targets) / len(targets)
    result.transfer_gap = gap["transfer_gap"]
    for lang in languages:
        with open(data_dir / f"eval.{lang}.jsonl", encoding="utf-8") as fh:
            count = sum(1 for line in fh if line.strip())
        if count != workload.eval_examples:
            errors.append(f"eval.{lang}.jsonl holds {count} examples, "
                          f"expected {workload.eval_examples}")
        result.eval_examples += count

    canonical = json.dumps(traces, sort_keys=True).encode("utf-8")
    result.fingerprint = hashlib.sha256(canonical).hexdigest()
    result.final_loss = traces["stage2"][-1]["total"]


def _stage_items(workload, mode):
    """Items each training stage runs over, from the workload alone."""
    n = workload.train_examples
    corpus = n * workload.corpus_factor
    if mode == "xtune" or mode == "r2-only":
        return {"stage1": n, "stage2": corpus}
    if workload.setting == "translate-train-all":
        # baseline keeps only labeled items; span translations carry no label
        return {"stage2": n if mode == "baseline" and workload.task != "classification"
                else corpus}
    return {"stage2": n}
