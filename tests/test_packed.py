"""The packed forward, losses and regularizers against the per-example
reference in ``reference.py``, and the module attributes the benchmark's
tracer and host-speed probe hook."""

import dataclasses
import tracemalloc
from collections import Counter
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from xtune import augment as aug
from xtune import autodiff as ad
from xtune import consistency as cons
from xtune import data
from xtune import evaluate as ev
from xtune import model as mdl
from xtune import tokenizer as tok
from xtune import trainer as tr

import reference as ref
from conftest import build_benchmark, part, sample_words
from test_model import assert_same_packing, copy_params, prediction, rescale_params
from test_trainer import small_config, stage_rows, view_tuples

# float64; fixed before the packed path was written
RTOL, ATOL = 1e-10, 1e-12


@pytest.fixture(scope="module")
def small_span_bench():
    return build_benchmark(task="span")


@pytest.fixture(scope="module")
def tight_labeling_bench():
    """A vocabulary too small for whole-word pieces: words span several."""
    return build_benchmark(task="labeling", vocab_size=40)


def packed_components(params, segs, noises, gold, pairs, teacher=None):
    """Task, pair and teacher loss nodes of one batch, packed, laid out as
    ``reference.step_components`` takes them: ``gold`` per sequence, None
    where a sequence has none, goes to the task loss as the labeled
    sequences and their gold in ``data.Corpus.golds``' layout."""
    pred = mdl.predict(params, mdl.Packing.of(segs), noises=noises)
    labeled = [k for k, g in enumerate(gold) if g is not None]
    kept = [gold[k] for k in labeled]
    flat = [tag for tags in kept for tag in tags] if params.task == "labeling" else kept
    task = mdl.task_loss(pred, labeled, flat) if labeled else None
    pair = cons.example_consistency(pred, segs, pairs) if pairs else None
    teach = None
    if teacher is not None:
        n = len(segs) - len(pairs)
        teach = cons.model_consistency(
            mdl.predict(teacher, mdl.Packing.of(segs[:n]), noises=noises[:n]).row_table(),
            pred)
    return task, pair, teach


def gradients(params, node):
    params.zero_grads()
    ad.backward(node)
    return [np.zeros_like(t.data) if t.grad is None else t.grad.copy()
            for t in params.parameters()]


def reference_gold(task, segs, gold):
    """``gold`` as ``reference.step_components`` takes it: a span's words
    as their first-subword positions in the sequence's segmentation."""
    if task != "span":
        return gold
    return [None if g is None else tuple(seg.first_subword_positions()[w] for w in g)
            for seg, g in zip(segs, gold)]


def assert_matches_reference(params, teacher, segs, noises, gold, pairs):
    """Each component's value and parameter gradients agree with the
    per-example reference, which takes span gold in first-subword positions;
    every component is rebuilt before its backward pass, so no two passes
    share intermediate nodes."""
    args = (segs, noises, gold, pairs, teacher)
    ref_args = (segs, noises, reference_gold(params.task, segs, gold), pairs, teacher)
    for c in range(3):
        got = packed_components(params, *args)[c]
        want = ref.step_components(params, *ref_args)[c]
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
    corpus = part(bench.train, slice(n_items))
    stage = tr._StageTable(aug.StageCorpus(corpus), res.vocab, cfg)
    table = stage_rows(stage, corpus)
    segs, noises, gold, views = [], [], [], []
    for k, (_ex, seg, item_gold, _noised) in enumerate(table):
        segs.append(seg)
        noises.append(rng.normal(0.0, 0.3, (seg.n_pieces, cfg.dim)) if k % 3 == 0 else None)
        gold.append(None if k % 4 == 1 else item_gold)
    for kind in kinds:
        order = np.flatnonzero([kinds[k % len(kinds)] == kind for k in range(len(table))])
        drawn = tr._epoch_views(stage, order, kind, cfg, res, rng)
        for k, view in zip(order.tolist(), view_tuples(stage, drawn)):
            if view is not None:
                views.append((k,) + view)
    pairs = []
    for k, vseg, vnoise, modified in sorted(views, key=lambda view: view[0]):
        pairs.append((k, len(segs), modified))
        segs.append(vseg)
        noises.append(vnoise)
        gold.append(None)
    return segs, noises, gold, pairs


def assert_mixed(segs, gold, n_items=9):
    assert len(set(s.n_pieces for s in segs)) > 2
    assert None in gold[:n_items] and any(g is not None for g in gold)


def models(cfg, res, seed):
    rng = np.random.default_rng(seed)
    student = rescale_params(tr.init_params(cfg, res), rng)
    teacher = rescale_params(copy_params(student), rng)
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
        assert any(s.n_pieces > len(s.words) for s in batch[0])   # multi-piece words
        student, teacher = models(cfg, res, 4)
        assert_matches_reference(student, teacher, *batch)

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
        pairs.append((0, len(segs), [True] * len(first.words)))
        segs, noises, gold = segs + [other], noises + [None], gold + [None]

        kinds = Counter()
        for i, j, modified in pairs:
            if segs[i].pieces == segs[j].pieces:
                kinds["full"] += 1
            else:
                pos, _ = cons.aligned_first_subword_positions(segs[i], segs[j], modified)
                kinds["restricted" if pos else "empty"] += 1
        assert kinds["full"] and kinds["restricted"] and kinds["empty"]
        student, teacher = models(cfg, res, 6)
        assert_matches_reference(student, teacher, segs, noises, gold, pairs)

    def test_empty_alignment_alone_contributes_exactly_zero(self, small_span_bench):
        bench, res = small_span_bench
        cfg = tr.TrainConfig(task="span", dim=8, max_len=48)
        student, _ = models(cfg, res, 7)
        a, b = (tok.viterbi_segment_words(res.vocab, ex.words)
                for ex in ref.examples(bench.train)[:2])
        pred = mdl.predict(student, mdl.Packing.of([a, b]))
        value = cons.example_consistency(pred, [a, b], [(0, 1, [True] * len(a.words))])
        assert value.item() == 0.0


def test_span_gold_in_word_indices_takes_each_words_first_subword_row():
    """On multi-piece words, the stage's span gold (word indices) weighs the
    rows the reference weighs at first-subword positions, for Viterbi items
    and for pinned SS items whose draw moves the answer."""
    bench, res = build_benchmark(task="span", vocab_size=50)
    cfg = tr.TrainConfig(task="span", dim=8, max_len=64, ss_alpha=0.2)
    targets = [ref.examples(corpus) for lang, corpus in bench.eval_sets.items() if lang != "en"]
    viterbi = [ex for exs in targets for ex in exs[:10]]
    originals = [ex for exs in targets for ex in exs[10:25]]
    built = tr._build_corpus(ref.corpus(originals), dataclasses.replace(cfg, corpus_strategy="SS"),
                             res)
    # the Viterbi items, then the SS views alone, which keep their pinned draws
    views = part(built.corpus, slice(len(originals), None))
    items = dataclasses.replace(built, corpus=ref.corpus(viterbi).join(views))
    segs = [tok.viterbi_segment_words(res.vocab, ex.words) for ex in viterbi]
    segs += list(map(tok.Segmentation, data.cut(built.pinned, views.n_words)))
    examples = viterbi + ref.examples(views)
    gold = [ex.gold() for ex in examples]
    positions = reference_gold("span", segs, gold)
    assert any(p != g for p, g in zip(positions[:len(viterbi)], gold))
    assert any(p != tuple(tok.viterbi_segment_words(res.vocab, ex.words)
                          .first_subword_positions()[w] for w in g)
               for p, ex, g in zip(positions[len(viterbi):], examples[len(viterbi):],
                                   gold[len(viterbi):]))
    stage = tr._StageTable(items, res.vocab, cfg)
    assert items.corpus.has_gold.all() and list(map(tuple, items.corpus.golds.tolist())) == gold
    assert_same_packing(stage.packing, mdl.Packing.of(segs))
    student = models(cfg, res, 22)[0]
    got = mdl.task_loss(mdl.predict(student, stage.packing), np.arange(len(segs)),
                        items.corpus.golds)
    want = ref.step_components(student, segs, [None] * len(segs), positions, [])[0]
    np.testing.assert_allclose(got.item(), want.item(), rtol=RTOL, atol=ATOL)
    for g, w in zip(gradients(student, got), gradients(student, want)):
        np.testing.assert_allclose(g, w, rtol=RTOL, atol=ATOL)
    # a word past the last is rejected, though the sequence has that many rows
    seg = next(seg for seg in segs if seg.n_pieces > len(seg.words))
    n = len(seg.words)
    with pytest.raises(ValueError, match=rf"span \(0, {n}\) out of range for {n} words"):
        mdl.task_loss(mdl.predict(student, mdl.Packing.of([seg])), [0], [(0, n)])


# Span decode against ``reference.decode_span``.  Drawn from this alphabet,
# equal values tie exactly, and -1 - 2**-52 ties -1.0 once an end is added:
# -2 - 2**-52 rounds to -2.0.
TIE_ALPHABET = np.array([-1.0, -1.0 - 2.0 ** -52, -0.5, -2.0, -3.0])


def span_prediction(word_pieces, draw):
    """A packed span Prediction: sequence k has one word of n pieces per n
    in ``word_pieces[k]``; ``draw(size=...)`` gives the start and end values."""
    packing = mdl.Packing.of([tok.Segmentation([(("a",) * n, (0,) * n) for n in words])
                           for words in word_pieces])
    start_log, end_log = draw(size=(2, packing.seq.size))
    return prediction("span", packing, ad.Tensor(start_log), ad.Tensor(end_log))


def reference_span(pred):
    """A packed span ``Prediction`` with its outputs named as
    ``reference.decode_span`` reads them."""
    start_log, end_log = pred.rows.outputs
    return SimpleNamespace(packing=pred.packing, start_log=start_log, end_log=end_log)


def test_span_decode_matches_reference_on_every_eval_chunk(small_span_bench):
    bench, res = small_span_bench
    cfg = tr.TrainConfig(task="span", dim=8, max_len=48)
    chunks = 0
    for params in (tr.init_params(cfg, res), *models(cfg, res, 12)):
        for examples in map(ref.examples, bench.eval_sets.values()):
            for start in range(0, len(examples), ev.EVAL_CHUNK):
                segs = [tok.viterbi_segment_words(res.vocab, ex.words)
                        for ex in examples[start:start + ev.EVAL_CHUNK]]
                pred = mdl.predict(params, mdl.Packing.of(segs))
                assert per_sequence(pred, ev.decode(pred)) == ref.decode_span(reference_span(pred))
                chunks += 1
    assert chunks >= 9


def test_span_decode_matches_reference_under_ties():
    rng = np.random.default_rng(13)
    chunks = [[[1]] * 5,                                  # every sequence one row
              [[1], [2, 3, 1, 4, 2, 3, 1], [1, 1], [2]]]  # one sequence sets the width
    chunks += [[rng.integers(1, 4, rng.integers(1, 5)).tolist()
                for _ in range(rng.integers(1, 12))] for _ in range(1000)]
    ties = rounding_ties = 0
    for word_pieces in chunks:
        pred = span_prediction(word_pieces, partial(rng.choice, TIE_ALPHABET))
        assert per_sequence(pred, ev.decode(pred)) == ref.decode_span(reference_span(pred))
        p = pred.packing
        start_log, end_log = pred.rows.outputs
        for first, n in zip(p.starts, p.lengths):
            start = start_log.data[first:first + n]
            pair = np.add.outer(start, end_log.data[first:first + n])
            pair[np.tril_indices(n, -1)] = -np.inf
            best = np.argwhere(pair == pair.max())
            ties += len(best) > 1
            rounding_ties += len(set(start[best[:, 0]])) > 1
    # the draws hold both kinds of tie, so a decode that breaks them another
    # way fails above
    assert ties > 100 and rounding_ties > 100


def test_span_decode_buffers_stay_linear_in_the_chunk():
    # 64 sequences of 48 rows: a (k, width, width) pair cube would be ~1.2 MB
    pred = span_prediction([[1] * 48] * 64, np.random.default_rng(14).normal)
    tracemalloc.start()
    try:
        ev.decode(pred)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 400_000


def eval_corpus(bench):
    """Every language's eval examples as one list: more than two chunks,
    the last one short, with word types shared across languages."""
    examples = [ex for corpus in bench.eval_sets.values() for ex in ref.examples(corpus)]
    assert len(examples) > 2 * ev.EVAL_CHUNK and len(examples) % ev.EVAL_CHUNK
    return examples


def test_record_table_numbers_records_first_seen_first(tight_labeling_bench, monkeypatch):
    """Viterbi ids name the interned ``viterbi_segment_words`` records, first
    seen first, each new word segmented in one call; interning drawn records
    grows the table, which then packs and counts subwords for old and new
    ids alike."""
    bench, res = tight_labeling_bench
    examples = [ex for corpus in bench.eval_sets.values() for ex in ref.examples(corpus)[:8]]
    words = [w for ex in examples for w in ex.words]
    n_words = np.array([len(ex.words) for ex in examples], dtype=np.intp)
    calls, viterbi = [], tok.viterbi_segment_words
    monkeypatch.setattr(tok, "viterbi_segment_words",
                        lambda vocab, ws: calls.append(list(ws)) or viterbi(vocab, ws))
    table = mdl.RecordTable(res.vocab)
    rids = table.viterbi(words, n_words, str)
    records = viterbi(res.vocab, words).words
    assert calls == [list(dict.fromkeys(words))]
    assert table.records == list(dict.fromkeys(records))
    assert [table.records[r] for r in rids.tolist()] == records
    assert list(dict.fromkeys(rids.tolist())) == list(range(len(table.records)))
    segs = [viterbi(res.vocab, ex.words) for ex in examples]
    assert any(s.n_pieces > len(s.words) for s in segs)
    assert table.lengths(n_words, rids).tolist() == [s.n_pieces for s in segs]
    assert_same_packing(table.pack(n_words, rids), mdl.Packing.of(segs))

    known = len(table.records)
    drawn = sample_words(res.vocab, words, 0.5, np.random.default_rng(18)).words
    drawn_ids = table.intern(drawn)
    assert [table.records[r] for r in drawn_ids.tolist()] == drawn
    new = [r for r in dict.fromkeys(drawn) if r not in records]
    assert new and table.records[known:] == new   # numbered after the known ones
    old = dict(zip(records, rids.tolist()))
    assert all(old.get(r, i) == i for r, i in zip(drawn, drawn_ids.tolist()))
    drawn_segs = [tok.Segmentation(part) for part in split_by(drawn, n_words)]
    both = np.concatenate((n_words, n_words)), np.concatenate((rids, drawn_ids))
    assert table.lengths(*both).tolist() == [s.n_pieces for s in segs + drawn_segs]
    assert_same_packing(table.pack(*both), mdl.Packing.of(segs + drawn_segs))
    # seen words are looked up, not segmented again
    again = table.viterbi(words[::-1], n_words[::-1], str)
    assert again.tolist() == rids.tolist()[::-1] and not any(calls[1:])


def test_record_table_names_the_first_sequence_with_an_uncovered_character(
        tight_labeling_bench):
    bench, res = tight_labeling_bench
    table = mdl.RecordTable(res.vocab)
    word = bench.train.words[0]
    assert "Q" not in res.vocab.alphabet
    words = [word, word, word + "Q", "Q"]
    # the first bad word ends a sequence, or starts one after an empty one
    for n_words, k in (([1, 0, 2, 1], 2), ([1, 0, 1, 2], 3), ([1, 1, 0, 2], 3)):
        with pytest.raises(ValueError, match=f"^sequence {k}: character 'Q' is not covered"):
            table.viterbi(words, np.array(n_words), lambda k: f"sequence {k}")
    assert table.records == []   # nothing was interned


def test_packing_take_equals_packing_of_the_taken_segmentations(tight_labeling_bench):
    """``take`` selects sequences by array arithmetic alone; every field
    equals a packing of the selected segmentations, for repeated, reversed
    and scattered index lists and for slices, one running past the end."""
    bench, res = tight_labeling_bench
    rng = np.random.default_rng(16)
    segs = [sample_words(res.vocab, ex.words, 0.5, rng) if k % 2 else
            tok.viterbi_segment_words(res.vocab, ex.words)
            for k, ex in enumerate(eval_corpus(bench))]
    assert any(s.n_pieces > len(s.words) for s in segs)
    packing = mdl.Packing.of(segs)
    n = len(segs)
    indexes = [list(range(n))[::-1], [3, 3, 0, 7, 3, 3], [5], list(range(1, n, 3))]
    indexes += [rng.integers(0, n, int(rng.integers(1, 3 * n))).tolist() for _ in range(20)]
    indexes += [rng.permutation(n)[:int(rng.integers(1, n))].tolist() for _ in range(20)]
    for index in indexes:
        assert_same_packing(packing.take(index), mdl.Packing.of([segs[i] for i in index]))
    for chunk in (slice(0, n), slice(5, 20), slice(n - 10, n + ev.EVAL_CHUNK)):
        assert_same_packing(packing.take(chunk), mdl.Packing.of(segs[chunk]))


@pytest.fixture
def eval_benches(small_classification_bench, tight_labeling_bench, small_span_bench):
    return {"classification": small_classification_bench, "labeling": tight_labeling_bench,
            "span": small_span_bench}


def eval_model(task, pooling, benches):
    """A bench of the task and a model at unit-ish scale on its vocabulary."""
    bench, res = benches[task]
    cfg = small_config(task=task, n_label=None if task == "span" else 3, pooling=pooling)
    return bench, res, models(cfg, res, 17)[0]


@pytest.mark.parametrize("task", ["classification", "labeling", "span"])
def test_a_corpus_of_interned_word_types_packs_as_its_viterbi_segmentations(
        task, eval_benches, monkeypatch):
    """With the whole corpus in one chunk, the packing gathered from the
    interned word types equals a packing of every example's Viterbi
    segmentation."""
    bench, res, params = eval_model(task, "first_subword", eval_benches)
    examples = eval_corpus(bench)
    seen, predict = [], ev.predict

    def recording_predict(params, packing):
        seen.append(packing)
        return predict(params, packing)

    monkeypatch.setattr(ev, "EVAL_CHUNK", len(examples))
    monkeypatch.setattr(ev, "predict", recording_predict)
    ev.score_corpus(params, ref.corpus(examples, task), res.vocab)
    (packing,) = seen
    assert_same_packing(packing, mdl.Packing.of(
        [tok.viterbi_segment_words(res.vocab, ex.words) for ex in examples]))


def per_sequence(pred, decoded):
    """``evaluate.decode``'s arrays as one output per sequence of ``pred``:
    a class, a tag list (split by the prediction's counts) or a span pair."""
    if pred.task == "labeling":
        return [tags.tolist() for tags in np.split(decoded, np.cumsum(pred.rows.counts)[:-1])]
    return list(map(tuple, decoded.tolist())) if pred.task == "span" else decoded.tolist()


def per_chunk_eval(params, examples, vocab):
    """The decoded outputs and scores of the per-chunk eval path: Viterbi
    per example, then a packing, ``predict`` and ``decode`` per chunk."""
    decoded = []
    for start in range(0, len(examples), ev.EVAL_CHUNK):
        segs = [tok.viterbi_segment_words(vocab, ex.words)
                for ex in examples[start:start + ev.EVAL_CHUNK]]
        pred = mdl.predict(params, mdl.Packing.of(segs))
        decoded.extend(per_sequence(pred, ev.decode(pred)))
    gold = [ex.gold() for ex in examples]
    if params.task == "classification":
        return decoded, {"accuracy": ev.accuracy(decoded, gold)}
    if params.task == "span":
        f1, em = ev.span_f1_em(decoded, gold)
        return decoded, {"f1": f1, "em": em, "score": (f1 + em) / 2}
    acc, f1 = ev.tag_scores([t for tags in decoded for t in tags], [t for g in gold for t in g])
    return decoded, {"accuracy": acc, "f1": f1}


@pytest.mark.parametrize("task,pooling", [("classification", "first_subword"),
                                          ("labeling", "first_subword"),
                                          ("labeling", "average"), ("span", "first_subword")])
def test_score_corpus_equals_the_per_chunk_path(task, pooling, eval_benches, monkeypatch):
    """Scoring from interned word types packs, decodes and scores as the
    per-chunk path does, with one ``evaluate.predict`` per ``EVAL_CHUNK``
    examples of each language."""
    bench, res, params = eval_model(task, pooling, eval_benches)
    examples = eval_corpus(bench)
    want_decoded, want_scores = per_chunk_eval(params, examples, res.vocab)

    packings, decoded = [], []
    predict, decode = ev.predict, ev.decode

    def recording_predict(params, packing):
        packings.append(packing)
        return predict(params, packing)

    def recording_decode(prediction):
        decoded.extend(per_sequence(prediction, out := decode(prediction)))
        return out

    monkeypatch.setattr(ev, "predict", recording_predict)
    monkeypatch.setattr(ev, "decode", recording_decode)
    assert ev.score_corpus(params, ref.corpus(examples, task),
                           res.vocab) == want_scores
    assert decoded == want_decoded
    starts = range(0, len(examples), ev.EVAL_CHUNK)
    assert len(packings) == len(starts)
    for packing, start in zip(packings, starts):
        assert_same_packing(packing, mdl.Packing.of(
            [tok.viterbi_segment_words(res.vocab, ex.words)
             for ex in examples[start:start + ev.EVAL_CHUNK]]))

    packings.clear()
    eval_sets = {"all": examples, **{lang: ref.examples(corpus)
                                     for lang, corpus in bench.eval_sets.items()},
                 "one": examples[:1]}
    ev.evaluate_languages(params, {lang: ref.corpus(exs, task)
                                   for lang, exs in eval_sets.items()}, res.vocab)
    assert [len(p) for p in packings] == [
        min(ev.EVAL_CHUNK, len(exs) - start) for exs in eval_sets.values()
        for start in range(0, len(exs), ev.EVAL_CHUNK)]


@pytest.mark.parametrize("task,corpus_strategy,pair_strategy", [
    ("classification", "GN", "MT"),
    ("labeling", "MT", "SS"),
    ("span", "MT", "CS"),
])
def test_run_stage_first_step_matches_reference(task, corpus_strategy, pair_strategy,
                                                small_classification_bench,
                                                small_labeling_bench, small_span_bench,
                                                monkeypatch):
    """The trainer's first step, rebuilt per example from its items and every
    view drawn for them, unchanged views included: trace components and the
    gradients Adam receives.  The packing holds the items and exactly the
    views whose input differs from their item's."""
    bench, res = {"classification": small_classification_bench,
                  "labeling": small_labeling_bench, "span": small_span_bench}[task]
    assert_first_step_matches_reference(bench, res, task, corpus_strategy, pair_strategy,
                                        monkeypatch)


def test_run_stage_first_step_matches_reference_on_multi_piece_span_words(monkeypatch):
    """At whole-word pieces an unchanged word sits at the same position in
    item and view, so restricted span R1 is zero whichever words the
    modified flags align.  With words of several pieces a switched word
    shifts the rows after it, and R1 depends on the step's flags."""
    bench, res = build_benchmark(task="span", vocab_size=40)
    trace = assert_first_step_matches_reference(bench, res, "span", "MT", "CS", monkeypatch)
    assert trace[0]["example_consistency"] > 1e-6


def assert_first_step_matches_reference(bench, res, task, corpus_strategy, pair_strategy,
                                        monkeypatch):
    """``test_run_stage_first_step_matches_reference`` on one bench; returns
    the stage trace."""
    cfg = small_config(task=task, n_label=None if task == "span" else 3,
                       setting="translate-train-all", corpus_strategy=corpus_strategy,
                       pair_strategy=pair_strategy, noise_sigma=0.3, epochs=1,
                       batch_size=16, pooling="average" if task == "labeling" else
                       "first_subword")
    corpus = tr._build_corpus(bench.train, cfg, res)
    student, teacher = models(cfg, res, 8)
    start = copy_params(student)
    seen = {}
    predict, adam, epoch_views = tr.predict, tr.adam_step, tr._epoch_views

    def recording_views(stage, order, *args):
        views = epoch_views(stage, order, *args)
        seen.setdefault("views", (stage_rows(stage, corpus.corpus),
                                  order[:cfg.batch_size].tolist(),
                                  view_tuples(stage, views)[:cfg.batch_size]))
        return views

    def recording_predict(params, packing, noises=None):
        if params is student:
            seen.setdefault("inputs", (packing, list(noises)))
        return predict(params, packing, noises=noises)

    def recording_adam(values, tensors, state, lr):
        assert tensors == student.parameters()
        seen.setdefault("grads", [t.grad.copy() for t in tensors])
        return adam(values, tensors, state, lr)

    monkeypatch.setattr(tr, "_epoch_views", recording_views)
    monkeypatch.setattr(tr, "predict", recording_predict)
    monkeypatch.setattr(tr, "adam_step", recording_adam)
    trace, _views = tr.run_stage(corpus, student, cfg, res, "main",
                                 pair_strategy=pair_strategy, pair_weight=2.0, teacher=teacher,
                                 teacher_weight=0.5)

    packing, packed_noises = seen["inputs"]
    table, batch, views = seen["views"]
    n_items = cfg.batch_size
    segs, noises = [table[i][1] for i in batch], packed_noises[:n_items]
    changed, pairs = [], []
    for k, view in enumerate(views):
        if view is None:
            continue
        vseg, vnoise, modified = view
        if vseg.words != segs[k].words or vnoise is not None or noises[k] is not None:
            changed.append(len(segs))
        pairs.append((k, len(segs), modified))
        segs.append(vseg)
        noises.append(vnoise)
    assert_same_packing(packing, mdl.Packing.of(segs[:n_items] + [segs[j] for j in changed]))
    assert all(a is b for a, b in zip(packed_noises, noises[:n_items]
                                      + [noises[j] for j in changed]))
    # an MT view is another language; at whole-word pieces most SS views,
    # and CS views that switch no word, are their item's input
    assert 0 < len(changed) <= len(pairs)
    assert (len(changed) < len(pairs)) == (pair_strategy != "MT")
    gold = [table[i][2] for i in batch] + [None] * len(pairs)
    if task != "classification":   # translations of token-level items carry no label
        assert None in gold[:n_items] and any(g is not None for g in gold)
    assert trace[0]["labeled"] + trace[0]["unlabeled"] == n_items
    assert trace[0]["pairs"] == len(pairs) > 0
    task_node, pair_node, teacher_node = ref.step_components(
        start, segs, noises, reference_gold(task, segs, gold), pairs, teacher)
    for key, node in (("task", task_node), ("example_consistency", pair_node),
                      ("model_consistency", teacher_node)):
        np.testing.assert_allclose(trace[0][key], node.item(), rtol=RTOL, atol=ATOL)
    total = ad.add(task_node, ad.add(ad.scale(pair_node, 2.0), ad.scale(teacher_node, 0.5)))
    np.testing.assert_allclose(trace[0]["total"], total.item(), rtol=RTOL, atol=ATOL)
    for got, want in zip(seen["grads"], gradients(start, total), strict=True):
        np.testing.assert_allclose(got, want, rtol=RTOL, atol=ATOL)
    return trace


def count_teacher_forwards(monkeypatch, teacher):
    """Sequence counts of the forwards the trainer runs through the teacher."""
    sizes = []
    predict = tr.predict

    def counting_predict(params, packing, noises=None):
        if params is teacher:
            sizes.append(len(packing))
        return predict(params, packing, noises=noises)

    monkeypatch.setattr(tr, "predict", counting_predict)
    return sizes


@pytest.mark.parametrize("task,corpus_strategy,pair_strategy", [
    ("classification", "CS", "CS"),
    ("labeling", "SS", "SS"),
    ("span", "MT", "SS"),
])
def test_teacher_table_is_one_chunked_pass_per_stage(task, corpus_strategy, pair_strategy,
                                                     small_classification_bench,
                                                     tight_labeling_bench, small_span_bench,
                                                     monkeypatch):
    """With R2 on, a stage runs its items through the teacher once, in
    ``EVAL_CHUNK``-sized forwards, and each item's rows equal a
    one-sequence teacher forward on its input (the pinned segmentation of
    an SS item)."""
    bench, res = {"classification": small_classification_bench,
                  "labeling": tight_labeling_bench, "span": small_span_bench}[task]
    pooling = "average" if task == "labeling" else "first_subword"
    cfg = small_config(task=task, n_label=None if task == "span" else 3,
                       setting="translate-train-all", corpus_strategy=corpus_strategy,
                       pair_strategy=pair_strategy, ss_alpha=0.5, pooling=pooling)
    items = tr._build_corpus(bench.train, cfg, res)
    n = len(items.corpus)
    assert n > 2 * ev.EVAL_CHUNK
    student, teacher = models(cfg, res, 10)
    sizes = count_teacher_forwards(monkeypatch, teacher)
    trace, _views = tr.run_stage(items, student, cfg, res, "main", pair_strategy=pair_strategy,
                                 pair_weight=1.0, teacher=teacher, teacher_weight=1.0)
    assert len(trace) > len(sizes) == -(-n // ev.EVAL_CHUNK)
    assert sum(sizes) == n and max(sizes) == ev.EVAL_CHUNK
    assert all(row["model_consistency"] > 0 for row in trace)

    stage = tr._StageTable(items, res.vocab, cfg)
    segs = [seg for _words, seg, _gold, _noised in stage_rows(stage, items.corpus)]
    records = [r for seg in segs for r in seg.words]
    assert records[len(records) - len(items.pinned):] == items.pinned
    assert bool(items.pinned) == (task == "labeling")
    assert_same_packing(stage.packing, mdl.Packing.of(segs))
    rows = tr._teacher_rows(teacher, stage.packing, [None] * len(segs))
    assert rows.counts.size == len(segs)
    for k, seg in enumerate(segs):
        item_rows = rows.take([k]).outputs
        want = ref.predict(teacher, seg)
        if task == "classification":
            expected = [want.class_log.data[None, :]]
        elif task == "span":
            expected = [want.start_log.data, want.end_log.data]
        else:
            expected = [want.word_log.data]
        assert len(item_rows) == len(expected)
        for got, value in zip(item_rows, expected):
            np.testing.assert_allclose(got, value, rtol=RTOL, atol=ATOL)


def test_gn_stage_runs_the_teacher_once_per_epoch(small_classification_bench, monkeypatch):
    """GN items draw their encode noise at each epoch start, so the teacher
    table is rebuilt there on the epoch's noise, in ``EVAL_CHUNK``-sized
    forwards; with no noise the stage builds it once."""
    bench, res = small_classification_bench
    for sigma, tables in ((0.3, 3), (0.0, 1)):
        cfg = small_config(setting="translate-train-all", corpus_strategy="GN",
                           noise_sigma=sigma, epochs=3)
        items = tr._build_corpus(bench.train, cfg, res)
        student, teacher = models(cfg, res, 11)
        sizes = count_teacher_forwards(monkeypatch, teacher)
        trace, _views = tr.run_stage(items, student, cfg, res, "main", teacher=teacher,
                                     teacher_weight=1.0)
        n = len(items.corpus)
        chunks = [min(ev.EVAL_CHUNK, n - start) for start in range(0, n, ev.EVAL_CHUNK)]
        assert len(chunks) > 1 and len(trace) > 3 * len(chunks)
        assert sizes == chunks * tables


def test_gn_teacher_rows_follow_the_epoch_noise(small_classification_bench, monkeypatch):
    """In the second epoch of a noised R2 stage, a step's teacher rows are the
    teacher's forward on the very noise the student saw in that step."""
    bench, res = small_classification_bench
    cfg = small_config(setting="translate-train-all", corpus_strategy="GN", noise_sigma=0.3)
    items = tr._build_corpus(bench.train, cfg, res)
    student, teacher = models(cfg, res, 12)
    inputs, targets = [], []
    predict, r2 = tr.predict, tr.model_consistency

    def recording_predict(params, packing, noises=None):
        if params is student:
            inputs.append((packing, list(noises)))
        return predict(params, packing, noises=noises)

    def recording_r2(rows, pred):
        targets.append(rows)
        return r2(rows, pred)

    monkeypatch.setattr(tr, "predict", recording_predict)
    monkeypatch.setattr(tr, "model_consistency", recording_r2)
    trace, _views = tr.run_stage(items, student, cfg, res, "main", teacher=teacher,
                                 teacher_weight=1.0)
    steps_per_epoch = len(trace) // cfg.epochs
    assert len(inputs) == len(targets) == len(trace) == 2 * steps_per_epoch
    for step in (steps_per_epoch, steps_per_epoch + 1):   # the second epoch's first steps
        packing, noises = inputs[step]
        assert any(noise is not None for noise in noises)
        want = mdl.predict(teacher, packing, noises=noises).row_table()
        got = targets[step]
        assert np.array_equal(got.counts, want.counts)
        for a, b in zip(got.outputs, want.outputs, strict=True):
            np.testing.assert_allclose(a, b, rtol=RTOL, atol=ATOL)


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
                 "adam_step", "code_switch", "subword_resample"):
        count(tr, name, f"trainer.{name}")
    for name in ("predict", "decode"):
        count(ev, name, f"evaluate.{name}")
    count(cons, "aligned_first_subword_positions", "aligned")
    count(mdl.ModelParams, "zero_grads", "zero_grads")

    cfg = small_config(epochs=1)
    student = tr.init_params(cfg, res)
    trace, _views = tr.run_stage(aug.StageCorpus(bench.train), student, cfg, res, "main",
                                 pair_strategy="CS", pair_weight=1.0,
                                 teacher=copy_params(student), teacher_weight=1.0)
    assert calls["zero_grads"] == len(trace)
    for name in ("predict", "task_loss", "example_consistency", "model_consistency",
                 "adam_step", "code_switch"):
        assert calls[f"trainer.{name}"] >= 1, name
    # SS pair views are resampled through the module as well
    tr.run_stage(aug.StageCorpus(part(bench.train, slice(20))), tr.init_params(cfg, res), cfg,
                 res, "main", pair_strategy="SS", pair_weight=1.0)
    assert calls["trainer.subword_resample"] >= 1
    ev.evaluate_languages(student, {lang: part(corpus, slice(5))
                                    for lang, corpus in bench.eval_sets.items()}, res.vocab)
    assert calls["evaluate.predict"] >= 1 and calls["evaluate.decode"] >= 1

    # restricted span consistency asks the module for its aligned positions
    span = mdl.ModelParams("span", len(res.vocab), 8, 48)
    a, b = (tok.viterbi_segment_words(res.vocab, ex.words)
            for ex in ref.examples(bench.train)[:2])
    assert a.pieces != b.pieces
    cons.example_consistency(mdl.predict(span, mdl.Packing.of([a, b])), [a, b],
                             [(0, 1, [True] * len(a.words))])
    assert calls["aligned"] == 1

    # the training driver reaches each stage and the corpus builder through
    # the module as well
    for name in ("run_stage", "build_augmented_corpus"):
        count(tr, name, f"trainer.{name}")
    for mode, (stages, corpora) in {"baseline": (1, 0), "r1-only": (1, 0),
                                    "r2-only": (2, 1), "xtune": (2, 1)}.items():
        calls.clear()
        tr.train_with_mode(mode, part(bench.train, slice(20)), cfg, res)
        assert calls["trainer.run_stage"] == stages, mode
        assert calls["trainer.build_augmented_corpus"] == corpora, mode
        assert calls["zero_grads"] >= stages, mode


class RecordingStore:
    """A translation store that keeps every translation it hands out, in order."""

    def __init__(self, store):
        self.store, self.handed = store, []

    def languages_for(self, example_id):
        return self.store.languages_for(example_id)

    def get(self, example_id, language):
        entry = self.store.get(example_id, language)
        self.handed.append(entry[0])
        return entry


def split_by(flat, counts):
    """``flat`` cut into consecutive runs of ``counts[k]`` entries."""
    ends = np.cumsum(counts).tolist()
    return [flat[a:b] for a, b in zip([0] + ends, ends)]


PAIR_KINDS = [(task, kind) for task in ("classification", "labeling", "span")
              for kind in ("SS", "GN", "CS", "MT") if kind != "MT" or task == "classification"]


def item_segmentations(vocab, items):
    """The input segmentation of each item of a ``StageCorpus``: the
    pinned draw of an SS view, else Viterbi's."""
    records = tok.viterbi_segment_words(vocab, items.corpus.words).words
    records[len(records) - len(items.pinned):] = items.pinned
    return list(map(tok.Segmentation, split_by(records, items.corpus.n_words)))


@pytest.mark.parametrize("task,kind", PAIR_KINDS)
def test_every_step_packing_is_the_packing_of_its_segmentations(task, kind, eval_benches,
                                                                 monkeypatch):
    """Over one epoch of items (originals, then noised GN views or pinned SS
    views), every step's packing, gathered from the stage record table, is
    ``Packing.of`` of the step's items and changed views, rebuilt from the
    draws themselves; and the unchanged mask, from record ids, is the
    record-list comparison: the view's word records are its item's and
    neither side draws encode noise."""
    bench, res = eval_benches[task]
    cfg = small_config(task=task, n_label=None if task == "span" else 3, epochs=1,
                       pooling="average" if task == "labeling" else "first_subword",
                       noise_sigma=0.3, ss_alpha=0.5, cs_word_ratio=0.15)
    store = RecordingStore(res.store)
    res = aug.Resources(vocab=res.vocab, dictionaries=res.dictionaries, store=store)
    draws, seen = [], {}
    epoch_views, predict = tr._epoch_views, tr.predict

    def recording(draw):
        def recorded(*args):
            draws.append(out := draw(*args))
            return out
        return recorded

    def recording_views(stage, order, *args):
        seen["stage"], seen["order"] = stage, order
        seen["views"] = views = epoch_views(stage, order, *args)
        return views

    def recording_predict(params, packing, noises=None):
        if params is seen["student"]:
            seen.setdefault("steps", []).append((packing, list(noises)))
        return predict(params, packing, noises=noises)

    monkeypatch.setattr(tr, "code_switch", recording(tr.code_switch))
    monkeypatch.setattr(tr, "subword_resample", recording(tr.subword_resample))
    monkeypatch.setattr(tr, "_epoch_views", recording_views)
    monkeypatch.setattr(tr, "predict", recording_predict)
    mask = []   # the unchanged mask of both stages
    for strategy in ("GN", "SS"):
        items = tr._build_corpus(part(bench.train, slice(24)),
                                 dataclasses.replace(cfg, corpus_strategy=strategy), res)
        draws.clear(), seen.clear(), store.handed.clear()
        seen["student"] = tr.init_params(cfg, res)
        trace, _views = tr.run_stage(items, seen["student"], cfg, res, "main",
                                     pair_strategy=kind, pair_weight=1.0)

        order, views = seen["order"].tolist(), seen["views"]
        segs = item_segmentations(res.vocab, items)
        noised = [k >= 24 and strategy == "GN" for k in range(len(segs))]
        counts = [len(segs[i].words) for i in order]
        if kind == "CS":
            (option,) = draws
            words = res.switch_candidates.view(
                [w for i in order for w in split_by(items.corpus.words, items.corpus.n_words)[i]],
                option)
            view_segs = [tok.viterbi_segment_words(res.vocab, w) for w in split_by(words, counts)]
        elif kind == "SS":
            (drawn,) = draws
            drawn = list(map(res.vocab.sampler(cfg.ss_alpha).record, drawn.tolist()))
            view_segs = [tok.Segmentation(r) for r in split_by(drawn, counts)]
        elif kind == "GN":
            view_segs = [segs[i] for i in order]
        else:
            handed = iter(store.handed)
            view_segs = [tok.viterbi_segment_words(res.vocab, next(handed)) for _ in order]
        unchanged = [kind != "GN" and not noised[i] and view.words == segs[i].words
                     for i, view in zip(order, view_segs)]
        assert tr._unchanged(seen["stage"], seen["order"], views)[0].tolist() == unchanged
        mask += unchanged

        steps = seen["steps"]
        assert len(steps) == len(trace) == -(-len(segs) // cfg.batch_size)
        for b, (packing, noises) in enumerate(steps):
            chunk = range(b * cfg.batch_size, min((b + 1) * cfg.batch_size, len(segs)))
            batch = [order[p] for p in chunk]
            changed = [p for p in chunk if not unchanged[p]]
            assert_same_packing(packing, mdl.Packing.of([segs[i] for i in batch]
                                                        + [view_segs[p] for p in changed]))
            assert [noise is not None for noise in noises] == (
                [noised[i] for i in batch] + [kind == "GN"] * len(changed))
            assert trace[b]["pairs"] == len(chunk)
    if kind in ("CS", "SS"):
        assert 0 < sum(mask) < len(mask)


@pytest.mark.parametrize("task,kind", [(task, kind) for task in ("classification", "labeling",
                                                                 "span") for kind in ("SS", "CS")])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_epoch_views_match_the_word_level_reference(task, kind, seed, eval_benches):
    """Each epoch's views, drawn as record ids, hold the records and
    modified flags of the word-level path, over plain and pinned-SS items,
    and leave the generator where it leaves it; later epochs meet draws and
    switch options seen before."""
    bench, res = eval_benches[task]
    cfg = small_config(task=task, n_label=None if task == "span" else 3, ss_alpha=0.05,
                       cs_word_ratio=0.4, seed=seed,
                       pooling="average" if task == "labeling" else "first_subword")
    pinned = tr._build_corpus(part(bench.train, slice(20)),
                              dataclasses.replace(cfg, corpus_strategy="SS"), res)
    stage = tr._StageTable(pinned, res.vocab, cfg)
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    order_rng = np.random.default_rng(seed + 10)
    for _epoch in range(4):
        order = order_rng.permutation(len(stage.ids))
        views = tr._epoch_views(stage, order, kind, cfg, res, got_rng)
        records, modified = ref.epoch_views(stage, order, kind, cfg, res, want_rng)
        assert [stage.records.records[r] for r in views.rids.tolist()] == records
        assert views.modified.tolist() == modified
        assert views.n_words.tolist() == stage.packing.n_words[order].tolist()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
    assert any(modified) and not all(modified)


@pytest.mark.parametrize("kind", ["SS", "CS"])
def test_an_epoch_of_seen_draws_interns_and_segments_nothing(kind, small_classification_bench,
                                                              monkeypatch):
    """An epoch whose draws (SS) or switch options (CS) were all drawn
    before maps them to record ids by array lookup alone: no
    ``RecordTable.intern`` or ``RecordTable.viterbi`` call."""
    bench, res = small_classification_bench
    cfg = small_config(ss_alpha=0.05, cs_word_ratio=0.5)
    stage = tr._StageTable(aug.StageCorpus(part(bench.train, slice(40))), res.vocab, cfg)
    order = np.random.default_rng(4).permutation(40)
    calls = Counter()

    def counted(name):
        original = getattr(mdl.RecordTable, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return call

    for name in ("intern", "viterbi"):
        monkeypatch.setattr(mdl.RecordTable, name, counted(name))
    first = tr._epoch_views(stage, order, kind, cfg, res, np.random.default_rng(5))
    assert calls[{"SS": "intern", "CS": "viterbi"}[kind]] == 1   # the first draws are new
    calls.clear()
    again = tr._epoch_views(stage, order, kind, cfg, res, np.random.default_rng(5))
    assert calls == Counter()
    assert again.rids.tolist() == first.rids.tolist() and first.modified.any()


def test_a_span_step_segments_only_its_changed_pairs(small_span_bench, monkeypatch):
    """Span R1 reads the segmentations and flags of its pairs alone, so a
    step builds a ``Segmentation`` for each changed pair's two sequences and
    for no other sequence."""
    bench, res = small_span_bench
    cfg = small_config(task="span", n_label=None, ss_alpha=0.05, epochs=2)
    built, consistency = [], tr.example_consistency

    def counting(records):
        built.append(records)
        return tok.Segmentation(records)

    def checked(pred, segs, pairs, drawn=None):
        members = {k for i, j, _flags in pairs for k in (i, j)}
        assert [k for k, seg in enumerate(segs) if seg is not None] == sorted(members)
        return consistency(pred, segs, pairs, drawn)

    monkeypatch.setattr(tr, "tok", SimpleNamespace(Segmentation=counting))
    monkeypatch.setattr(tr, "example_consistency", checked)
    _trace, views = tr.run_stage(aug.StageCorpus(part(bench.train, slice(60))),
                                 tr.init_params(cfg, res), cfg, res, "main", pair_strategy="SS",
                                 pair_weight=1.0)
    changed = views["views_drawn"] - views["unchanged_views"]
    assert 0 < changed < views["views_drawn"]
    assert len(built) == 2 * changed
