"""Smoke-scale self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at a tiny size once untraced and once traced, and checks
that the benchmark reports what BENCHMARK.json declares, that the spans nest,
and that each workload runs or bypasses FFBS as its description says.
Exits 0 when every check passes.
"""

from __future__ import annotations

import shutil
import sys

import run

# workloads whose pair views are FFBS resamples; the others must never sample
FFBS_WORKLOADS = {"pos-ss", "xquad-mt"}


def check_result_line(line, declared):
    assert set(line) == {"correct", "attempted", "failed", "metrics"}, line
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1, line
    assert set(line["metrics"]) == set(declared), set(declared) ^ set(line["metrics"])
    for name, (unit, better) in declared.items():
        assert unit and better in ("higher", "lower"), name
        assert line["metrics"][name]["unit"] == unit, name
        assert isinstance(line["metrics"][name]["value"], (int, float)), name


def check_spans(tracer):
    spans = tracer.spans
    assert spans, "traced run recorded no spans"
    for span in spans:
        assert span.end >= span.start, span
        if span.parent >= 0:
            parent = spans[span.parent]
            assert parent.start <= span.start and span.end <= parent.end, (span, parent)
            if span.step >= 0 and parent.step >= 0:
                assert span.step == parent.step, (span, parent)
    for st in tracer.self_times():
        assert st >= -1e-9, st
    assert any(s.name == "trainer.step" for s in spans)
    assert any(s.name == "autodiff.backward" and s.count > 0 for s in spans)


def main():
    if not run.use_source_tree():
        return 2
    from workloads import WORKLOADS

    end_to_end, per_layer = run.declared_metrics()
    workdir = run.OUT / "selftest"
    try:
        for workload in WORKLOADS.values():
            smoke = workload.smoke()
            results, values, _ = run.measure(smoke, 0, 0, 0, workdir)
            check_result_line(run.result_line(results, values, end_to_end), end_to_end)
            assert all(values[m] > 0 for m in ("setup_s", "train_items_per_s",
                                               "eval_examples_per_s", "run_s")), values

            results, values, tracer = run.measure(smoke, 0, 0, 1, workdir)
            check_result_line(run.result_line(results, values, per_layer), per_layer)
            check_spans(tracer)
            ffbs = values["tokenizer.ffbs_words"]
            if workload.name in FFBS_WORKLOADS:
                assert ffbs > 0, (workload.name, ffbs)
            else:
                assert ffbs == 0, (workload.name, ffbs)
            assert values["model.forwards_per_item"] > 1.0, values
            print(f"ok {workload.name}: {len(tracer.spans)} spans, "
                  f"ffbs_words {ffbs:g}, nodes/item {values['autodiff.nodes_per_item']:.1f}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
