"""In-memory span tracing of `xtune`, applied from outside the package.

`Tracer.install()` replaces the public functions that callers look up by
module attribute with timing wrappers and `uninstall()` puts the originals
back; nothing under `src/` knows about it.  A span records its name, start,
end, parent span, training step index and a work count (words segmented,
graph nodes walked, examples scored).  `ModelParams.zero_grads` marks a
step boundary: it closes the open `trainer.step` span and opens the next.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import xtune.autodiff
import xtune.cli
import xtune.consistency
import xtune.data
import xtune.evaluate
import xtune.model
import xtune.tokenizer
import xtune.trainer

STEP = "trainer.step"
RUN_STAGE = "trainer.run_stage"

# (module, attribute); the span is named <layer>.<attribute>
TARGETS = (
    (xtune.cli, "main"),
    (xtune.data, "generate_cipher_corpus"),
    (xtune.tokenizer, "build_vocab_for_words"),
    (xtune.tokenizer, "viterbi_segment_words"),
    (xtune.tokenizer, "sample_segment_words"),
    (xtune.trainer, "train_with_mode"),
    (xtune.trainer, "run_stage"),
    (xtune.trainer, "build_augmented_corpus"),
    (xtune.trainer, "code_switch"),
    (xtune.trainer, "subword_resample"),
    (xtune.trainer, "predict"),
    (xtune.trainer, "task_loss"),
    (xtune.trainer, "example_consistency"),
    (xtune.trainer, "model_consistency"),
    (xtune.trainer, "adam_step"),
    (xtune.autodiff, "backward"),
    (xtune.consistency, "aligned_first_subword_positions"),
    (xtune.evaluate, "predict"),
    (xtune.evaluate, "decode"),
    (xtune.evaluate, "evaluate_languages"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int      # index into Tracer.spans, -1 for a root
    step: int        # training step index, -1 outside a step
    count: int = 0   # work units, where the layer has them

    @property
    def duration(self):
        return self.end - self.start


def _layer(module):
    return module.__name__.rsplit(".", 1)[-1]


def backward_nodes(root):
    """Nodes `autodiff.backward` walks: reachable from the root without
    crossing a stop-gradient node's parents."""
    seen = {id(root)}
    stack = [root]
    while stack:
        node = stack.pop()
        if node.stop_gradient:
            continue
        for parent in node.parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._step = -1
        self.steps = 0
        self._saved = []
        self.distinct_words = 0          # Viterbi cache misses, per vocabulary
        self._seen_words = {}            # id(vocab) -> set of words
        self._vocabs = []                # keeps ids unique while tracing
        self.views_missing = 0
        self.empty_alignments = 0

    # -- recording -----------------------------------------------------

    def _open(self, name, count=0):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, 0.0, 0.0, parent, self._step, count))
        index = len(self.spans) - 1
        self._stack.append(index)
        self.spans[index].start = time.perf_counter()
        return index

    def _close(self, index):
        self.spans[index].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span stack out of order: closed {index}, top {popped}")

    def _close_step(self):
        if self._stack and self.spans[self._stack[-1]].name == STEP:
            self._close(self._stack[-1])

    def _wrap(self, fn, name, count_of=None):
        def traced(*args, **kwargs):
            count = count_of(*args, **kwargs) if count_of else 0
            index = self._open(name, count)
            try:
                result = fn(*args, **kwargs)
            finally:
                if name == RUN_STAGE:
                    self._close_step()
                self._close(index)
                if name == RUN_STAGE:
                    self._step = -1
            self._observe(name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counters(self):
        def words(vocab, words, *rest):
            return len(words)

        def viterbi_words(vocab, words):
            seen = self._seen_words.get(id(vocab))
            if seen is None:
                seen = self._seen_words[id(vocab)] = set()
                self._vocabs.append(vocab)
            before = len(seen)
            seen.update(words)
            self.distinct_words += len(seen) - before
            return len(words)

        def examples(params, eval_sets, *rest, **kwargs):
            return sum(len(v) for v in eval_sets.values())

        return {
            "tokenizer.viterbi_segment_words": viterbi_words,
            "tokenizer.sample_segment_words": words,
            "evaluate.evaluate_languages": examples,
        }

    def _observe(self, name, result):
        if name == "trainer.build_augmented_corpus":
            self.views_missing += len(result.missing)
        elif name == "consistency.aligned_first_subword_positions" and not result[0]:
            self.empty_alignments += 1

    def _traced_backward(self, fn):
        def traced(root):
            nodes = backward_nodes(root)
            index = self._open("autodiff.backward", nodes)
            try:
                return fn(root)
            finally:
                self._close(index)

        traced.__wrapped__ = fn
        return traced

    def _traced_zero_grads(self, fn):
        def traced(params):
            if self._stack and self.spans[self._stack[-1]].name in (STEP, RUN_STAGE):
                self._close_step()
                self._step = self.steps
                self.steps += 1
                self._open(STEP)
            return fn(params)

        traced.__wrapped__ = fn
        return traced

    # -- installation --------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        counters = self._counters()
        for module, attr in TARGETS:
            fn = getattr(module, attr)
            name = f"{_layer(module)}.{attr}"
            wrapper = (self._traced_backward(fn) if name == "autodiff.backward"
                       else self._wrap(fn, name, counters.get(name)))
            self._saved.append((module, attr, fn))
            setattr(module, attr, wrapper)
        cls = xtune.model.ModelParams
        self._saved.append((cls, "zero_grads", cls.zero_grads))
        cls.zero_grads = self._traced_zero_grads(cls.zero_grads)

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)
        self._stack.clear()
        self._step = -1

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- analysis ------------------------------------------------------

    def self_times(self):
        """Span duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.duration
        return [span.duration - c for span, c in zip(self.spans, child)]

    def to_json(self):
        names = sorted({s.name for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "columns": ["name", "start", "end", "parent", "step", "count"],
            "spans": [[code[s.name], s.start, s.end, s.parent, s.step, s.count]
                      for s in self.spans],
        }
