"""The packed forward, losses and regularizers against the per-example
reference in ``reference.py``, and the module attributes the benchmark's
tracer and host-speed probe hook."""

from collections import Counter

import numpy as np
import pytest

from xtune import autodiff as ad
from xtune import consistency as cons
from xtune import evaluate as ev
from xtune import model as mdl
from xtune import tokenizer as tok
from xtune import trainer as tr

import reference as ref
from conftest import build_benchmark
from test_model import rescale_params
from test_trainer import small_config

# float64; fixed before the packed path was written
RTOL, ATOL = 1e-10, 1e-12


@pytest.fixture(scope="module")
def small_span_bench():
    return build_benchmark(task="span")


@pytest.fixture(scope="module")
def tight_labeling_bench():
    """A vocabulary too small for whole-word pieces: words span several."""
    return build_benchmark(task="labeling", vocab_size=40)


def packed_components(params, segs, noises, gold, pairs, pooling=None, teacher=None):
    """Task, pair and teacher loss nodes of one batch, packed, laid out as
    ``reference.step_components`` takes them."""
    pred = mdl.predict(params, segs, pooling=pooling, noises=noises)
    task = mdl.task_loss(pred, gold) if any(g is not None for g in gold) else None
    pair = cons.example_consistency(pred, pairs) if pairs else None
    teach = None
    if teacher is not None:
        n = len(segs) - len(pairs)
        teach = cons.model_consistency(
            mdl.predict(teacher, segs[:n], pooling=pooling, noises=noises[:n]), pred)
    return task, pair, teach


def gradients(params, node):
    params.zero_grads()
    ad.backward(node)
    return [np.zeros_like(t.data) if t.grad is None else t.grad.copy()
            for t in params.parameters()]


def assert_matches_reference(params, teacher, segs, noises, gold, pairs, pooling=None):
    """Each component's value and parameter gradients agree with the
    per-example reference; every component is rebuilt before its backward
    pass, so no two passes share intermediate nodes."""
    args = (segs, noises, gold, pairs, pooling, teacher)
    for c in range(3):
        got = packed_components(params, *args)[c]
        want = ref.step_components(params, *args)[c]
        assert (got is None) == (want is None)
        if got is None:
            continue
        np.testing.assert_allclose(got.item(), want.item(), rtol=RTOL, atol=ATOL)
        for g, w in zip(gradients(params, got), gradients(params, want)):
            np.testing.assert_allclose(g, w, rtol=RTOL, atol=ATOL)
    if teacher is not None:
        assert all(t.grad is None for t in teacher.parameters())


def mixed_batch(bench, res, cfg, kinds, rng, n_items=9):
    """Items of several lengths, every fourth unlabeled and every third with
    encode noise, each followed in the packing by a view of a kind that
    cycles through ``kinds``."""
    segs, noises, gold, views = [], [], [], []
    for k, ex in enumerate(bench.train[:n_items]):
        seg = tok.viterbi_segment_words(res.vocab, ex.words)
        segs.append(seg)
        noises.append(rng.normal(0.0, 0.3, (seg.n_pieces, cfg.dim)) if k % 3 == 0 else None)
        gold.append(None if k % 4 == 1 else tr._gold_for(ex, seg))
        view = tr._pair_view(ex, seg, kinds[k % len(kinds)], cfg, res, rng)
        if view is not None:
            views.append((k,) + view)
    pairs = []
    for k, vseg, vnoise, alignment, modified in views:
        pairs.append((k, len(segs), alignment, modified))
        segs.append(vseg)
        noises.append(vnoise)
        gold.append(None)
    return segs, noises, gold, pairs


def assert_mixed(segs, gold, n_items=9):
    assert len(set(len(s.ids) for s in segs)) > 2
    assert None in gold[:n_items] and any(g is not None for g in gold)


def models(cfg, res, seed):
    rng = np.random.default_rng(seed)
    student = rescale_params(tr.init_params(cfg, res), rng)
    teacher = rescale_params(student.copy(), rng)
    return student, teacher


class TestAgainstReference:
    def test_classification_cs_gn_mt_views(self, small_classification_bench):
        bench, res = small_classification_bench
        cfg = small_config(noise_sigma=0.3, cs_word_ratio=0.5)
        batch = mixed_batch(bench, res, cfg, ("CS", "GN", "MT"), np.random.default_rng(1))
        assert_mixed(batch[0], batch[2])
        student, teacher = models(cfg, res, 2)
        assert_matches_reference(student, teacher, *batch)

    @pytest.mark.parametrize("pooling", ["first_subword", "average"])
    def test_labeling_ss_gn_cs_views(self, tight_labeling_bench, pooling):
        bench, res = tight_labeling_bench
        cfg = small_config(task="labeling", pooling=pooling, noise_sigma=0.3,
                           cs_word_ratio=0.5, ss_alpha=0.5)
        batch = mixed_batch(bench, res, cfg, ("SS", "GN", "CS"), np.random.default_rng(3))
        assert_mixed(batch[0], batch[2])
        assert any(len(s.ids) > s.n_words for s in batch[0])   # multi-piece words
        student, teacher = models(cfg, res, 4)
        assert_matches_reference(student, teacher, *batch, pooling=pooling)

    def test_span_full_restricted_and_empty_alignments(self, small_span_bench):
        bench, res = small_span_bench
        cfg = tr.TrainConfig(task="span", dim=8, max_len=48, noise_sigma=0.3,
                             cs_word_ratio=0.5, ss_alpha=0.5)
        segs, noises, gold, pairs = mixed_batch(bench, res, cfg, ("CS", "GN", "SS"),
                                                np.random.default_rng(5))
        assert_mixed(segs, gold)
        # one more view, of another example, with nothing aligned
        first = segs[0]
        other = next(s for s in segs if s.pieces != first.pieces)
        pairs.append((0, len(segs), [None] * first.n_words, [True] * first.n_words))
        segs, noises, gold = segs + [other], noises + [None], gold + [None]

        kinds = Counter()
        for i, j, alignment, modified in pairs:
            if segs[i].pieces == segs[j].pieces:
                kinds["full"] += 1
            else:
                pos, _ = cons.aligned_first_subword_positions(segs[i], segs[j],
                                                              alignment, modified)
                kinds["restricted" if pos else "empty"] += 1
        assert kinds["full"] and kinds["restricted"] and kinds["empty"]
        student, teacher = models(cfg, res, 6)
        assert_matches_reference(student, teacher, segs, noises, gold, pairs)

    def test_empty_alignment_alone_contributes_exactly_zero(self, small_span_bench):
        bench, res = small_span_bench
        cfg = tr.TrainConfig(task="span", dim=8, max_len=48)
        student, _ = models(cfg, res, 7)
        a, b = (tok.viterbi_segment_words(res.vocab, ex.words) for ex in bench.train[:2])
        pred = mdl.predict(student, [a, b])
        value = cons.example_consistency(pred, [(0, 1, [None] * a.n_words, [True] * a.n_words)])
        assert value.item() == 0.0


@pytest.mark.parametrize("task,corpus_strategy,pair_strategy", [
    ("classification", "GN", "MT"),
    ("labeling", "MT", "SS"),
    ("span", "MT", "CS"),
])
def test_run_stage_first_step_matches_reference(task, corpus_strategy, pair_strategy,
                                                small_classification_bench,
                                                small_labeling_bench, small_span_bench,
                                                monkeypatch):
    """The trainer's first step, rebuilt per example from the inputs it
    packed: trace components and the gradients Adam receives."""
    bench, res = {"classification": small_classification_bench,
                  "labeling": small_labeling_bench, "span": small_span_bench}[task]
    cfg = small_config(task=task, n_label=None if task == "span" else 3,
                       setting="translate-train-all", corpus_strategy=corpus_strategy,
                       pair_strategy=pair_strategy, noise_sigma=0.3, epochs=1,
                       batch_size=12, pooling="average" if task == "labeling" else
                       "first_subword")
    corpus = tr._build_corpus(bench.train, cfg, res)
    student, teacher = models(cfg, res, 8)
    start = student.copy()
    seen = {}
    predict, task_loss, r1, adam = tr.predict, tr.task_loss, tr.example_consistency, tr.adam_step

    def recording_predict(params, segs, pooling=None, noises=None):
        if params is student:
            seen.setdefault("inputs", (list(segs), list(noises), pooling))
        return predict(params, segs, pooling=pooling, noises=noises)

    def recording_task_loss(pred, gold):
        seen.setdefault("gold", list(gold))
        return task_loss(pred, gold)

    def recording_r1(pred, pairs):
        seen.setdefault("pairs", list(pairs))
        return r1(pred, pairs)

    def recording_adam(values, grads, state, lr):
        seen.setdefault("grads", [grads[k].copy() for k in student.tensors])
        return adam(values, grads, state, lr)

    monkeypatch.setattr(tr, "predict", recording_predict)
    monkeypatch.setattr(tr, "task_loss", recording_task_loss)
    monkeypatch.setattr(tr, "example_consistency", recording_r1)
    monkeypatch.setattr(tr, "adam_step", recording_adam)
    trace = tr.run_stage(corpus.items, student, cfg, res, "main", pair_strategy=pair_strategy,
                         pair_weight=2.0, teacher=teacher, teacher_weight=0.5)

    segs, noises, pooling = seen["inputs"]
    gold, pairs = seen["gold"], seen["pairs"]
    n_items = len(segs) - len(pairs)
    if task != "classification":   # translations of token-level items carry no label
        assert None in gold[:n_items] and any(g is not None for g in gold)
    assert trace[0]["labeled"] + trace[0]["unlabeled"] == n_items == cfg.batch_size
    assert trace[0]["pairs"] == len(pairs) > 0
    task_node, pair_node, teacher_node = ref.step_components(
        start, segs, noises, gold, pairs, pooling, teacher)
    for key, node in (("task", task_node), ("example_consistency", pair_node),
                      ("model_consistency", teacher_node)):
        np.testing.assert_allclose(trace[0][key], node.item(), rtol=RTOL, atol=ATOL)
    total = ad.add(task_node, ad.add(ad.scale(pair_node, 2.0), ad.scale(teacher_node, 0.5)))
    np.testing.assert_allclose(trace[0]["total"], total.item(), rtol=RTOL, atol=ATOL)
    for got, want in zip(seen["grads"], gradients(start, total)):
        np.testing.assert_allclose(got, want, rtol=RTOL, atol=ATOL)


def test_step_graph_size_does_not_grow_with_the_batch(small_classification_bench):
    bench, res = small_classification_bench
    cfg = small_config(cs_word_ratio=0.5)
    student, teacher = models(cfg, res, 9)
    sizes = []
    for n in (2, 8, 32):
        batch = mixed_batch(bench, res, cfg, ("CS",), np.random.default_rng(n), n_items=n)
        task, pair, teach = packed_components(student, *batch, teacher=teacher)
        total = ad.add(task, ad.add(pair, teach))
        sizes.append(len(ad._toposort(total)))
    assert sizes[0] == sizes[1] == sizes[2]


def test_benchmark_hooks_resolve_through_module_attributes(small_classification_bench,
                                                          monkeypatch):
    """The benchmark's tracer and host-speed probe replace these attributes
    from outside the package; each must still be looked up there."""
    bench, res = small_classification_bench
    calls = Counter()

    def count(owner, name, key):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for name in ("predict", "task_loss", "example_consistency", "model_consistency",
                 "adam_step"):
        count(tr, name, f"trainer.{name}")
    for name in ("predict", "decode"):
        count(ev, name, f"evaluate.{name}")
    count(cons, "aligned_first_subword_positions", "aligned")
    count(mdl.ModelParams, "zero_grads", "zero_grads")

    cfg = small_config(epochs=1)
    student = tr.init_params(cfg, res)
    trace = tr.run_stage(list(bench.train), student, cfg, res, "main", pair_strategy="CS",
                         pair_weight=1.0, teacher=student.copy(), teacher_weight=1.0)
    assert calls["zero_grads"] == len(trace)
    for name in ("predict", "task_loss", "example_consistency", "model_consistency",
                 "adam_step"):
        assert calls[f"trainer.{name}"] >= 1, name
    ev.evaluate_languages(student, {lang: examples[:5]
                                    for lang, examples in bench.eval_sets.items()}, res.vocab)
    assert calls["evaluate.predict"] >= 1 and calls["evaluate.decode"] >= 1

    # restricted span consistency asks the module for its aligned positions
    span = mdl.ModelParams("span", len(res.vocab), 8, 48)
    a, b = (tok.viterbi_segment_words(res.vocab, ex.words) for ex in bench.train[:2])
    assert a.pieces != b.pieces
    cons.example_consistency(mdl.predict(span, [a, b]),
                             [(0, 1, [None] * a.n_words, [True] * a.n_words)])
    assert calls["aligned"] == 1

    # the training driver reaches each stage and the corpus builder through
    # the module as well
    for name in ("run_stage", "build_augmented_corpus"):
        count(tr, name, f"trainer.{name}")
    for mode, (stages, corpora) in {"baseline": (1, 0), "r1-only": (1, 0),
                                    "r2-only": (2, 1), "xtune": (2, 1)}.items():
        calls.clear()
        tr.train_with_mode(mode, bench.train[:20], cfg, res)
        assert calls["trainer.run_stage"] == stages, mode
        assert calls["trainer.build_augmented_corpus"] == corpora, mode
        assert calls["zero_grads"] >= stages, mode
