"""Augmentation strategies: modified-word flags, label projection, corpus
construction counts and pairing, and the strategy validation rules.  The
corpus builder takes its knobs from a ``TrainConfig`` and its inputs from
``augment.Resources``, as the trainer's pair views do."""

import json
import math
from typing import NamedTuple

import numpy as np
import pytest

from xtune import augment as aug
from xtune import data
from xtune import tokenizer as tok
from xtune.trainer import TrainConfig

import reference as ref


def example(words=("the", "cat"), task="classification", **kw):
    defaults = dict(id="x0", language="en", label=1, n_label=2)
    defaults.update(kw)
    return ref.Example(task=task, words=list(words), **defaults)


class View(NamedTuple):
    """One view of a built stage corpus, read from its columns."""

    example: ref.Example
    modified: list
    segmentation: tok.Segmentation | None


def views(out, n_originals):
    """The views of the ``StageCorpus`` ``out`` built over ``n_originals``
    examples, in order."""
    n_words = out.corpus.n_words[n_originals:]
    pinned = data.cut(out.pinned, n_words) if out.pinned else [None] * n_words.size
    return [View(ex, flags, records and tok.Segmentation(records)) for ex, flags, records in zip(
        ref.examples(out.corpus)[n_originals:], data.cut(out.modified.tolist(), n_words), pinned)]


def dictionary(entries):
    return aug.BilingualDictionary({k: list(v) for k, v in entries.items()})


def code_switch(example, dictionaries, word_ratio, rng):
    """The corpus builder's code-switched view of one example."""
    view, = views(aug.build_augmented_corpus(ref.corpus([example]), "CS",
                                             TrainConfig(cs_word_ratio=word_ratio),
                                             aug.Resources(None, dictionaries), rng), 1)
    return view


def subword_resample(example, vocab, alpha, rng):
    """The corpus builder's subword-resampled view of one example."""
    view, = views(aug.build_augmented_corpus(ref.corpus([example]), "SS",
                                             TrainConfig(ss_alpha=alpha), aug.Resources(vocab),
                                             rng), 1)
    return view


class TestCodeSwitch:
    def test_ratio_zero_is_identity(self):
        d = dictionary({"cat": ["chat"]})
        out = code_switch(example(), [d], 0.0, np.random.default_rng(0))
        assert out.example.words == ["the", "cat"]
        assert out.modified == [False, False]

    def test_ratio_one_replaces_covered_words(self):
        d = dictionary({"cat": ["chat"]})
        out = code_switch(example(), [d], 1.0, np.random.default_rng(0))
        assert out.example.words == ["the", "chat"]
        assert out.modified == [False, True]
        assert out.example.labeled and out.example.label == 1

    def test_replacement_frequency(self):
        d = dictionary({"cat": ["chat"]})
        n = 10_000
        corpus = ref.corpus([example(words=["cat"], id=f"x{k}") for k in range(n)])
        out = aug.build_augmented_corpus(corpus, "CS", TrainConfig(cs_word_ratio=0.5),
                                         aug.Resources(None, [d]), np.random.default_rng(1))
        assert abs(out.modified.sum() / n - 0.5) < 0.02

    def test_unmodified_words_byte_identical(self):
        d = dictionary({"cat": ["chat"], "the": ["le", "la"]})
        rng = np.random.default_rng(2)
        ex = example(words=["the", "cat", "sat", "on", "mats"])
        for _ in range(50):
            out = code_switch(ex, [d], 0.6, rng)
            for i, flag in enumerate(out.modified):
                if not flag:
                    assert out.example.words[i] == ex.words[i]
            assert len(out.example.words) == len(ex.words)

    def test_tags_and_span_carry_over(self):
        d = dictionary({"cat": ["chat"]})
        ex = example(words=["the", "cat"], task="labeling", label=None, n_label=3,
                     tags=[0, 2])
        out = code_switch(ex, [d], 1.0, np.random.default_rng(0))
        assert out.example.tags == [0, 2]

    def test_mixed_languages_per_word(self):
        d1 = dictionary({"cat": ["chat"]})
        d2 = dictionary({"cat": ["gato"]})
        rng = np.random.default_rng(3)
        seen = set()
        for _ in range(50):
            out = code_switch(example(words=["cat", "cat"]), [d1, d2], 1.0, rng)
            seen.update(out.example.words)
        assert seen == {"chat", "gato"}


    def test_array_draws_match_the_per_word_reference(self):
        # the reference switches one word at a time from the same uniform
        # block: same views and generator state after, over several
        # dictionary lists, option counts, ratios and out-of-vocabulary words
        rng = np.random.default_rng(5)
        vocab = [f"w{k}" for k in range(12)]
        for trial in range(40):
            dictionaries = [
                dictionary({w: [f"{w}-{lang}{k}" for k in range(int(rng.integers(1, 4)))]
                            for w in vocab if rng.random() < 0.7})
                for lang in ("xx", "yy", "zz")[:int(rng.integers(1, 4))]]
            candidates = aug.SwitchCandidates(dictionaries)
            got_rng, want_rng = np.random.default_rng(trial), np.random.default_rng(trial)
            for _ in range(4):
                examples = []
                for k in range(int(rng.integers(0, 6))):
                    words = [str(w).upper() if rng.random() < 0.2 else str(w)
                             for w in rng.choice(vocab + ["oov"], int(rng.integers(1, 9)))]
                    examples.append(example(words=words, task="labeling", label=None,
                                            n_label=3, tags=[0] * len(words), id=f"x{k}"))
                words = [w for ex in examples for w in ex.words]
                before = list(words)
                ratio = float(rng.choice([0.0, 0.3, 1.0]))
                option = aug.code_switch(candidates.types(words), candidates, ratio, got_rng)
                got, modified = candidates.view(words, option), option >= 0
                want = ref.code_switch(words, dictionaries, ratio, want_rng)
                assert (got, modified.tolist()) == want
                assert got_rng.bit_generator.state == want_rng.bit_generator.state
                assert words == before and got is not words
                if examples:   # the corpus builder keeps the same draws as view columns
                    corpus = ref.corpus(examples)
                    out = aug.build_augmented_corpus(corpus, "CS", TrainConfig(cs_word_ratio=ratio),
                                                     aug.Resources(None, dictionaries),
                                                     np.random.default_rng(trial))
                    want_words, want_modified = ref.code_switch(
                        words, dictionaries, ratio, np.random.default_rng(trial))
                    assert out.corpus.words == words + want_words
                    assert out.modified.tolist() == want_modified
                    assert [view.example for view in views(out, len(examples))] == [
                        ref.Example(**{**vars(ex), "words": view_words}) for ex, view_words in
                        zip(examples, data.cut(want_words, corpus.n_words))]
                    assert corpus.words == before


class TestSubwordResample:
    def _vocab(self):
        return tok.UnigramVocab({
            "a": math.log(0.3), "b": math.log(0.3), "ab": math.log(0.4)})

    def test_words_unchanged_and_aligned(self):
        ex = example(words=["ab", "a"])
        out = subword_resample(ex, self._vocab(), 0.5, np.random.default_rng(0))
        assert out.example.words == ["ab", "a"]
        assert len(out.segmentation.words) == 2

    def test_high_alpha_matches_viterbi_with_zero_flags(self):
        vocab = self._vocab()
        ex = example(words=["ab", "ab"])
        rng = np.random.default_rng(1)
        for _ in range(100):
            out = subword_resample(ex, vocab, 50.0, rng)
            assert out.modified == [False, False]
            assert out.segmentation.pieces == ["ab", "ab"]

    def test_modified_flags_track_changed_words(self):
        vocab = self._vocab()
        ex = example(words=["ab"])
        rng = np.random.default_rng(2)
        flagged = unflagged = 0
        for _ in range(200):
            out = subword_resample(ex, vocab, 0.5, rng)
            if out.modified[0]:
                assert out.segmentation.pieces == ["a", "b"]
                flagged += 1
            else:
                assert out.segmentation.pieces == ["ab"]
                unflagged += 1
        assert flagged > 20 and unflagged > 20


def translate(example, store, languages):
    """The MT views of one example and the translations the store lacks."""
    out = aug.build_augmented_corpus(ref.corpus([example]), "MT",
                                     TrainConfig(mt_languages=languages),
                                     aug.Resources(None, store=store), np.random.default_rng(0))
    return views(out, 1), out.missing


class TestTranslate:
    def _store(self):
        store = aug.TranslationStore()
        store.add("x0", "fr", ["le", "chat"], label=1)
        store.add("x0", "es", ["el", "gato"], label=1)
        return store

    def test_classification_keeps_labels(self):
        views, _missing = translate(example(), self._store(), ["fr", "es"])
        assert len(views) == 2
        assert all(v.example.labeled and v.example.label == 1 for v in views)
        assert [(v.example.id, v.example.language) for v in views] == [("x0@fr", "fr"),
                                                                        ("x0@es", "es")]
        assert views[0].modified == [True, True]

    def test_token_tasks_lose_labels(self):
        ex = example(task="labeling", label=None, n_label=3, tags=[0, 1])
        views, _missing = translate(ex, self._store(), ["fr"])
        assert len(views) == 1
        assert not views[0].example.labeled
        assert views[0].example.tags is None and views[0].example.n_label == 3

    def test_span_views_keep_the_question_length(self):
        ex = example(words=["q", "a", "b"], task="span", label=None, n_label=None,
                     question_len=1, answer_start=1, answer_end=2)
        store = aug.TranslationStore()
        store.add("x0", "fr", ["q2", "a2", "b2", "c2"], label=1)
        (view,), _missing = translate(ex, store, ["fr"])
        assert view.example == ref.Example("x0@fr", "fr", "span", ["q2", "a2", "b2", "c2"],
                                           question_len=1)

    def test_empty_target_set(self):
        views, missing = aug.translation_views(ref.corpus([example()]), self._store(), [])
        assert len(views) == 0 and missing == []

    def test_missing_translation_skipped_and_reported(self):
        views, missing = translate(example(), self._store(), ["fr", "de"])
        assert len(views) == 1
        assert missing == [("x0", "de")]

    def test_no_translation_at_all(self):
        views, missing = translate(example(), self._store(), ["de"])
        assert views == [] and missing == [("x0", "de")]

    @pytest.mark.parametrize("label", [7, 2, -1])
    def test_a_label_outside_the_classes_names_the_example_and_language(self, label):
        # -1 is the gold sentinel of the columns, not a way to unlabel a view
        store = self._store()
        store.add("x0", "de", ["der", "Kater"], label=label)
        with pytest.raises(ValueError) as err:
            translate(example(), store, ["fr", "de"])
        assert str(err.value) == (f"translation of example 'x0' into 'de': label {label} out "
                                  "of range for n_label 2")

    def test_a_loaded_label_outside_the_classes_names_its_line(self, tmp_path):
        path = tmp_path / "translations.jsonl"
        path.write_text("".join(json.dumps({"example_id": "x0", "lang": lang, "words": ["w"],
                                            "label": label}) + "\n"
                                for lang, label in (("fr", 1), ("es", 7))), encoding="utf-8")
        with pytest.raises(ValueError) as err:
            translate(example(), aug.TranslationStore.load(path), ["fr", "es"])
        assert str(err.value) == (f"{path}:2: translation of example 'x0' into 'es': label 7 "
                                  "out of range for n_label 2")


class TestLoadTranslationStore:
    GOOD = {"example_id": "x0", "lang": "fr", "words": ["le", "chat"], "label": 1}

    def test_round_trip(self, tmp_path):
        store = aug.TranslationStore()
        store.add("x0", "fr", ["le", "chat"], label=1)
        store.add("x1", "es", ["el"])
        store.save(tmp_path / "t.jsonl")
        loaded = aug.TranslationStore.load(tmp_path / "t.jsonl")
        assert loaded.get("x0", "fr") == (["le", "chat"], 1)
        assert loaded.get("x1", "es") == (["el"], None)

    @pytest.mark.parametrize("record", [
        [1, 2], "x0", None,
        {**GOOD, "example_id": 7}, {**GOOD, "example_id": ""},
        {**GOOD, "lang": ["fr"]}, {**GOOD, "lang": ""}, {**GOOD, "lang": "x y"},
        {**GOOD, "lang": "f/r"},
        {**GOOD, "words": "abc"}, {**GOOD, "words": []}, {**GOOD, "words": ["le", ""]},
        {**GOOD, "words": ["le", 3]},
        {**GOOD, "label": 1.5}, {**GOOD, "label": "1"}, {**GOOD, "label": True},
    ])
    def test_bad_record_named_by_line(self, tmp_path, record):
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps(self.GOOD) + "\n" + json.dumps(record) + "\n",
                        encoding="utf-8")
        with pytest.raises(aug.DictionaryFormatError, match=f"{path}:2: bad store record"):
            aug.TranslationStore.load(path)

    def test_repeated_record_names_both_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps(self.GOOD) + "\n"
                        + json.dumps({**self.GOOD, "words": ["un", "chat"]}) + "\n",
                        encoding="utf-8")
        with pytest.raises(aug.DictionaryFormatError) as err:
            aug.TranslationStore.load(path)
        assert str(err.value) == (f"{path}:2: repeats the record of example 'x0' in 'fr' "
                                  "from line 1")


class TestValidateStrategy:
    def test_mt_rejected_for_span_pairs(self):
        with pytest.raises(aug.StrategyError, match="aligned"):
            aug.validate_strategy("span", "MT")

    def test_mt_rejected_for_labeling_pairs(self):
        with pytest.raises(aug.StrategyError):
            aug.validate_strategy("labeling", "MT")

    def test_mt_ok_for_classification_pairs(self):
        aug.validate_strategy("classification", "MT")

    def test_mt_ok_for_labeling_model_use(self):
        # MT views may grow a labeling corpus, whose items feed the teacher KL
        ex = example(task="labeling", label=None, n_label=3, tags=[0, 2])
        store = aug.TranslationStore()
        store.add("x0", "fr", ["le", "chat"])
        (view,), _missing = translate(ex, store, ["fr"])
        assert view.example.words == ["le", "chat"]
        assert not view.example.labeled

    def test_all_four_ok_for_classification_everywhere(self):
        for kind in aug.STRATEGY_KINDS:
            aug.validate_strategy("classification", kind)

    def test_unknown_kind_rejected(self):
        with pytest.raises(aug.StrategyError, match="unknown strategy kind 'ZZ'"):
            aug.validate_strategy("classification", "ZZ")

    def test_labeling_pair_recommends_subword_sampling(self):
        aug.validate_strategy("labeling", "SS")


class TestLoadDictionary:
    def test_merges_multi_translations(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("cat chat\ncat minou\n", encoding="utf-8")
        d = aug.load_dictionary(path)
        assert d.translations("cat") == ["chat", "minou"]
        assert d.n_words == 1 and d.n_pairs == 2

    def test_tabs_and_spaces_both_accepted(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("cat\tchat\ndog  chien\n", encoding="utf-8")
        d = aug.load_dictionary(path)
        assert d.translations("cat") == ["chat"] and d.translations("dog") == ["chien"]

    def test_empty_file_warns(self, tmp_path, caplog):
        path = tmp_path / "d.txt"
        path.write_text("", encoding="utf-8")
        with caplog.at_level("WARNING"):
            d = aug.load_dictionary(path)
        assert d.n_words == 0
        assert "empty" in caplog.text

    def test_malformed_line_number(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("cat chat\none two three\n", encoding="utf-8")
        with pytest.raises(aug.DictionaryFormatError, match=":2:"):
            aug.load_dictionary(path)

    def test_case_normalized_lookup(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("Cat chat\n", encoding="utf-8")
        d = aug.load_dictionary(path)
        assert d.translations("cat") == d.translations("CAT") == ["chat"]


class TestBuildAugmentedCorpus:
    def _corpus(self, n=100):
        return ref.corpus([ref.Example(id=f"x{i}", language="en", task="classification",
                                       words=["cat", "sat"], label=i % 2, n_label=2)
                           for i in range(n)])

    def test_ss_doubles_corpus_with_retained_pairs(self):
        vocab = tok.UnigramVocab({"c": -2.0, "a": -2.0, "t": -2.0, "s": -2.0,
                                  "cat": -1.0, "sat": -1.0})
        corpus = self._corpus(100)
        out = aug.build_augmented_corpus(corpus, "SS", TrainConfig(ss_alpha=0.5),
                                         aug.Resources(vocab), np.random.default_rng(0))
        assert len(out.corpus) == 200 and out.strategy == "SS"
        assert [aug.base_id(i) for i in out.corpus.ids[100:]] == corpus.ids
        assert len(out.pinned) == out.modified.size == len(corpus.words)

    def test_mt_three_languages_quadruples(self):
        corpus = self._corpus(100)
        store = aug.TranslationStore()
        for ex in ref.examples(corpus):
            for lang in ("fr", "es", "de"):
                store.add(ex.id, lang, [w + "@" + lang for w in ex.words], label=ex.label)
        out = aug.build_augmented_corpus(corpus, "MT", TrainConfig(mt_languages=("fr", "es", "de")),
                                         aug.Resources(None, store=store),
                                         np.random.default_rng(0))
        assert len(out.corpus) == 100 + 300
        assert [aug.base_id(i) for i in out.corpus.ids[100:]] == [
            i for i in corpus.ids for _ in range(3)]
        assert out.corpus.golds[100:].tolist() == np.repeat(corpus.golds, 3).tolist()

    def test_gn_marks_without_changing_text(self):
        corpus = self._corpus(10)
        out = aug.build_augmented_corpus(corpus, "GN", TrainConfig(), aug.Resources(None),
                                         np.random.default_rng(0))
        assert len(out.corpus) == 20 and out.strategy == "GN"
        for view, ex in zip(views(out, 10), ref.examples(corpus)):
            assert view.example == ex and not any(view.modified)

    def test_invalid_strategy_for_task_rejected(self):
        corpus = ref.corpus([ref.Example(id="s", language="en", task="span",
                                         words=["q", "a", "b"], question_len=1,
                                         answer_start=1, answer_end=2)])
        # corpus use of MT on span is fine; the error appears for pair use
        store = aug.TranslationStore()
        store.add("s", "fr", ["q", "a", "b"])
        out = aug.build_augmented_corpus(corpus, "MT", TrainConfig(mt_languages=("fr",)),
                                         aug.Resources(None, store=store),
                                         np.random.default_rng(0))
        assert len(out.corpus) == 2
        with pytest.raises(aug.StrategyError):
            aug.validate_strategy("span", "MT")

    def test_an_unknown_kind_is_rejected(self):
        # with a store and target languages on hand, it must not pass for MT
        store = aug.TranslationStore()
        store.add("x0", "fr", ["chat"], label=0)
        with pytest.raises(aug.StrategyError, match="^unknown strategy kind 'ZZ'$"):
            aug.build_augmented_corpus(self._corpus(2), "ZZ", TrainConfig(mt_languages=("fr",)),
                                       aug.Resources(None, store=store), np.random.default_rng(0))

    def test_deterministic_given_seed(self):
        d = dictionary({"cat": ["chat", "minou"], "sat": ["assis"]})
        corpus = self._corpus(50)
        runs = []
        for _ in range(2):
            out = aug.build_augmented_corpus(corpus, "CS", TrainConfig(cs_word_ratio=0.5),
                                             aug.Resources(None, [d]), np.random.default_rng(7))
            runs.append(out.corpus.words)
        assert runs[0] == runs[1]


@pytest.mark.parametrize("kind", ["SS", "CS", "MT"])
def test_labeled_keeps_each_kept_view_with_its_own_columns(kind):
    """``StageCorpus.labeled`` drops the items without gold; a kept view
    keeps its words, modified flags and pinned draw, and an unlabeled
    original's views go with it."""
    vocab = tok.UnigramVocab({ch: -2.0 for ch in "catsdog"} | {"cat": -1.5, "dog": -1.5})
    examples = [ref.Example(id=f"x{i}", language="en", task="labeling",
                            words=["cat", "dog", "sat"][:2 + i % 2],
                            tags=None if i in (1, 4) else [0, 1, 0][:2 + i % 2], n_label=2)
                for i in range(6)]
    corpus = ref.corpus(examples)
    store = aug.TranslationStore()
    for ex in examples:
        store.add(ex.id, "fr", [w + "-fr" for w in ex.words])
    out = aug.build_augmented_corpus(
        corpus, kind, TrainConfig(ss_alpha=0.1, cs_word_ratio=0.5, mt_languages=("fr",)),
        aug.Resources(vocab, [dictionary({"dog": ["chien"]})], store), np.random.default_rng(3))
    kept = out.labeled()
    rows = [k for k, ex in enumerate(ref.examples(out.corpus)) if ex.labeled]
    n_originals = sum(k < len(examples) for k in rows)
    assert [ex for ex in ref.examples(kept.corpus)] == [ref.examples(out.corpus)[k] for k in rows]
    assert views(kept, n_originals) == [views(out, len(examples))[k - len(examples)]
                                        for k in rows[n_originals:]]
    assert (kept.strategy, kept.missing) == (out.strategy, out.missing)
    if kind == "MT":   # token-level translations carry no label
        assert len(kept.corpus) == n_originals == 4 and kept.modified.size == 0
    else:
        assert len(kept.corpus) == 2 * n_originals == 8
        assert len(kept.pinned) == (kept.modified.size if kind == "SS" else 0)
