"""Per-layer metrics from the spans of traced pipelines.

Layers are the modules of `src/xtune/`.  The pipeline runs on one thread and
calls each layer synchronously, so nothing waits in a queue: the metrics are
work counts, busy time and useful-to-attempted ratios.  Counts are given
per traced pipeline; times per call, per step, per word or per item.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

from tracer import RUN_STAGE, STEP


def tail(values):
    """(percentile, value): the highest of the usual percentiles that has at
    least ten samples above it, or None when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in (99.9, 99, 95, 90, 75, 50):
        rank = max(1, math.ceil(pct * n / 100))   # nearest rank
        if n - rank >= 10:
            return pct, ordered[rank - 1]
    return None


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, traced, untraced):
    """``traced``/``untraced``: the successful PipelineResults of each kind."""
    spans = tracer.spans
    self_time = tracer.self_times()
    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    count = defaultdict(int)
    for span, st in zip(spans, self_time):
        total[span.name] += span.duration
        own[span.name] += st
        calls[span.name] += 1
        count[span.name] += span.count

    def mean_us(name):
        return 1e6 * _ratio(total[name], calls[name])

    pipelines = len(traced)
    distinct = {r.seed: r for r in traced}.values()
    items = sum(r.train_items for r in traced)
    examples = sum(r.eval_examples * len(r.eval_calls) for r in traced)
    synths = sum(len(r.synth_calls) for r in traced)
    steps = [s.duration for s in spans if s.name == STEP]
    step_tail = tail(steps) or (100.0, max(steps))
    viterbi, ffbs = "tokenizer.viterbi_segment_words", "tokenizer.sample_segment_words"
    backward, r1 = "autodiff.backward", "trainer.example_consistency"

    return {
        "data.synth_s": total["data.generate_cipher_corpus"] / synths,
        "tokenizer.em_s": total["tokenizer.build_vocab_for_words"] / synths,
        "tokenizer.viterbi_words": count[viterbi] / pipelines,
        "tokenizer.viterbi_us_per_word": 1e6 * _ratio(total[viterbi], count[viterbi]),
        "tokenizer.viterbi_distinct_share": _ratio(tracer.distinct_words, count[viterbi]),
        "tokenizer.ffbs_words": count[ffbs] / pipelines,
        "tokenizer.ffbs_us_per_word": 1e6 * _ratio(total[ffbs], count[ffbs]),
        "augment.corpus_s": total["trainer.build_augmented_corpus"] / pipelines,
        "augment.code_switch_us": mean_us("trainer.code_switch"),
        "augment.subword_resample_us": mean_us("trainer.subword_resample"),
        "augment.views_missing": tracer.views_missing / pipelines,
        "model.forwards_per_item": _ratio(calls["trainer.predict"], items),
        "model.forward_us": mean_us("trainer.predict"),
        "model.task_loss_us": mean_us("trainer.task_loss"),
        "autodiff.nodes_per_item": _ratio(count[backward], items),
        "autodiff.backward_ms_per_step": 1e3 * _ratio(total[backward], len(steps)),
        "autodiff.backward_ns_per_node": 1e9 * _ratio(total[backward], count[backward]),
        "consistency.r1_us": mean_us(r1),
        "consistency.r2_us": mean_us("trainer.model_consistency"),
        "consistency.r1_pairs_per_item": _ratio(calls[r1], items),
        "consistency.r1_empty_alignment_share": _ratio(tracer.empty_alignments, calls[r1]),
        "trainer.steps": len(steps) / pipelines,
        "trainer.step_ms_p50": 1e3 * statistics.median(steps),
        "trainer.step_ms_tail": 1e3 * step_tail[1],
        "trainer.step_tail_pct": step_tail[0],
        "trainer.adam_us_per_step": 1e6 * _ratio(total["trainer.adam_step"], len(steps)),
        "trainer.self_ms_per_step": 1e3 * _ratio(own[RUN_STAGE] + own[STEP], len(steps)),
        "evaluate.forward_us": mean_us("evaluate.predict"),
        "evaluate.decode_us": mean_us("evaluate.decode"),
        "evaluate.self_us_per_example":
            1e6 * _ratio(own["evaluate.evaluate_languages"], examples),
        "evaluate.target_score": statistics.fmean(r.target_score for r in distinct),
        "evaluate.transfer_gap": statistics.fmean(r.transfer_gap for r in distinct),
        "cli.self_s": own["cli.main"] / pipelines,
        "trace.overhead_share":
            statistics.median(r.train_s for r in traced)
            / statistics.median(r.train_s for r in untraced) - 1.0,
    }
