"""Augmentation strategies: modified-word flags, label projection, corpus
construction counts and pairing, and the strategy validation rules."""

import json
import math

import numpy as np
import pytest

from xtune import augment as aug
from xtune import data
from xtune import tokenizer as tok

import reference as ref


def example(words=("the", "cat"), task="classification", **kw):
    defaults = dict(label=1, n_label=2)
    defaults.update(kw)
    return data.Example(id="x0", language="en", task=task, words=list(words), **defaults)


def dictionary(entries, src="en", tgt="fr"):
    return aug.BilingualDictionary(src, tgt, {k: list(v) for k, v in entries.items()})


def code_switch(example, dictionaries, word_ratio, rng):
    """The corpus builder's code-switched view of one example."""
    strategy = aug.AugmentationStrategy("CS", word_ratio=word_ratio)
    view, = aug.build_augmented_corpus([example], strategy, rng,
                                       dictionaries=dictionaries).augmented
    return view


def subword_resample(example, vocab, alpha, rng):
    """The corpus builder's subword-resampled view of one example."""
    strategy = aug.AugmentationStrategy("SS", alpha=alpha)
    view, = aug.build_augmented_corpus([example], strategy, rng, vocab=vocab).augmented
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
        rng = np.random.default_rng(1)
        n = 10_000
        hits = 0
        for _ in range(n):
            out = code_switch(example(words=["cat"]), [d], 0.5, rng)
            hits += out.modified[0]
        assert abs(hits / n - 0.5) < 0.02

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
        d1 = dictionary({"cat": ["chat"]}, tgt="fr")
        d2 = dictionary({"cat": ["gato"]}, tgt="es")
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
                            for w in vocab if rng.random() < 0.7}, tgt=lang)
                for lang in ("xx", "yy", "zz")[:int(rng.integers(1, 4))]]
            candidates = aug.SwitchCandidates(dictionaries)
            got_rng, want_rng = np.random.default_rng(trial), np.random.default_rng(trial)
            for _ in range(4):
                examples = []
                for k in range(int(rng.integers(0, 6))):
                    words = [str(w).upper() if rng.random() < 0.2 else str(w)
                             for w in rng.choice(vocab + ["oov"], int(rng.integers(1, 9)))]
                    examples.append(example(words=words, task="labeling", label=None,
                                            n_label=3, tags=[0] * len(words)))
                words = [w for ex in examples for w in ex.words]
                before = list(words)
                ratio = float(rng.choice([0.0, 0.3, 1.0]))
                option = aug.code_switch(candidates.types(words), candidates, ratio, got_rng)
                got, modified = candidates.view(words, option), option >= 0
                want = ref.code_switch(examples, dictionaries, ratio, want_rng)
                assert got == [w for view in want for w in view.example.words]
                assert modified.tolist() == [flag for view in want for flag in view.modified]
                assert got_rng.bit_generator.state == want_rng.bit_generator.state
                assert words == before and got is not words
                if examples:   # the corpus builder cuts the same draws into copied examples
                    strategy = aug.AugmentationStrategy("CS", word_ratio=ratio)
                    views = aug.build_augmented_corpus(examples, strategy,
                                                       np.random.default_rng(trial),
                                                       dictionaries=dictionaries).augmented
                    assert views == ref.code_switch(examples, dictionaries, ratio,
                                                    np.random.default_rng(trial))
                    assert all(view.example is not ex for view, ex in zip(views, examples))


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


class TestTranslate:
    def _store(self):
        store = aug.TranslationStore()
        store.add("x0", "fr", ["le", "chat"], label=1)
        store.add("x0", "es", ["el", "gato"], label=1)
        return store

    def test_classification_keeps_labels(self):
        views = aug.translate(example(), self._store(), ["fr", "es"], "classification")
        assert len(views) == 2
        assert all(v.example.labeled and v.example.label == 1 for v in views)
        assert views[0].modified == [True, True]

    def test_token_tasks_lose_labels(self):
        ex = example(task="labeling", label=None, n_label=3, tags=[0, 1])
        views = aug.translate(ex, self._store(), ["fr"], "labeling")
        assert len(views) == 1
        assert not views[0].example.labeled
        assert views[0].example.tags is None

    def test_empty_target_set(self):
        assert aug.translate(example(), self._store(), [], "classification") == []

    def test_missing_translation_skipped_and_reported(self):
        missing = []
        views = aug.translate(example(), self._store(), ["fr", "de"], "classification",
                              missing=missing)
        assert len(views) == 1
        assert missing == [("x0", "de")]


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
        {**GOOD, "lang": ["fr"]}, {**GOOD, "lang": ""},
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
        out = aug.build_augmented_corpus(
            [ex], aug.AugmentationStrategy("MT", languages=("fr",)),
            np.random.default_rng(0), store=store)
        assert [v.example.words for v in out.augmented] == [["le", "chat"]]
        assert not out.augmented[0].example.labeled

    def test_all_four_ok_for_classification_everywhere(self):
        for kind in aug.STRATEGY_KINDS:
            aug.validate_strategy("classification", kind)

    def test_unknown_kind_rejected(self):
        with pytest.raises(aug.StrategyError, match="unknown strategy kind 'ZZ'"):
            aug.validate_strategy("classification", "ZZ")

    def test_labeling_pair_recommends_subword_sampling(self):
        aug.validate_strategy("labeling", "SS")

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -0.5])
    def test_bad_alpha_rejected_by_name(self, alpha):
        with pytest.raises(aug.StrategyError, match=f"alpha {alpha} must be a finite number"):
            aug.AugmentationStrategy("SS", alpha=alpha)


class TestLoadDictionary:
    def test_merges_multi_translations(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("cat chat\ncat minou\n", encoding="utf-8")
        d = aug.load_dictionary(path, "en", "fr")
        assert d.translations("cat") == ["chat", "minou"]
        assert d.n_words == 1 and d.n_pairs == 2

    def test_tabs_and_spaces_both_accepted(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("cat\tchat\ndog  chien\n", encoding="utf-8")
        d = aug.load_dictionary(path, "en", "fr")
        assert d.translations("cat") == ["chat"] and d.translations("dog") == ["chien"]

    def test_empty_file_warns(self, tmp_path, caplog):
        path = tmp_path / "d.txt"
        path.write_text("", encoding="utf-8")
        with caplog.at_level("WARNING"):
            d = aug.load_dictionary(path, "en", "fr")
        assert d.n_words == 0
        assert "empty" in caplog.text

    def test_malformed_line_number(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("cat chat\none two three\n", encoding="utf-8")
        with pytest.raises(aug.DictionaryFormatError, match=":2:"):
            aug.load_dictionary(path, "en", "fr")

    def test_case_normalized_lookup(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("Cat chat\n", encoding="utf-8")
        d = aug.load_dictionary(path, "en", "fr")
        assert d.translations("cat") == d.translations("CAT") == ["chat"]


class TestBuildAugmentedCorpus:
    def _corpus(self, n=100):
        return [data.Example(id=f"x{i}", language="en", task="classification",
                             words=["cat", "sat"], label=i % 2, n_label=2)
                for i in range(n)]

    def test_ss_doubles_corpus_with_retained_pairs(self):
        vocab = tok.UnigramVocab({"c": -2.0, "a": -2.0, "t": -2.0, "s": -2.0,
                                  "cat": -1.0, "sat": -1.0})
        corpus = self._corpus(100)
        out = aug.build_augmented_corpus(
            corpus, aug.AugmentationStrategy("SS", alpha=0.5),
            np.random.default_rng(0), vocab=vocab)
        assert len(out) == 200
        assert [aug.base_id(v.example.id) for v in out.augmented] == [ex.id for ex in corpus]

    def test_mt_three_languages_quadruples(self):
        corpus = self._corpus(100)
        store = aug.TranslationStore()
        for ex in corpus:
            for lang in ("fr", "es", "de"):
                store.add(ex.id, lang, [w + "@" + lang for w in ex.words], label=ex.label)
        out = aug.build_augmented_corpus(
            corpus, aug.AugmentationStrategy("MT", languages=("fr", "es", "de")),
            np.random.default_rng(0), store=store)
        assert len(out) == 100 + 300
        assert [aug.base_id(v.example.id) for v in out.augmented] == [
            ex.id for ex in corpus for _ in range(3)]

    def test_gn_marks_without_changing_text(self):
        corpus = self._corpus(10)
        out = aug.build_augmented_corpus(
            corpus, aug.AugmentationStrategy("GN"),
            np.random.default_rng(0))
        assert len(out) == 20
        for view, ex in zip(out.augmented, corpus):
            assert view.strategy == "GN"
            assert view.example.words == ex.words

    def test_invalid_strategy_for_task_rejected(self):
        corpus = [data.Example(id="s", language="en", task="span",
                               words=["q", "a", "b"], question_len=1,
                               answer_start=1, answer_end=2)]
        # corpus use of MT on span is fine; the error appears for pair use
        store = aug.TranslationStore()
        store.add("s", "fr", ["q", "a", "b"])
        out = aug.build_augmented_corpus(
            corpus, aug.AugmentationStrategy("MT", languages=("fr",)),
            np.random.default_rng(0), store=store)
        assert len(out.augmented) == 1
        with pytest.raises(aug.StrategyError):
            aug.validate_strategy("span", "MT")

    def test_deterministic_given_seed(self):
        d = dictionary({"cat": ["chat", "minou"], "sat": ["assis"]})
        corpus = self._corpus(50)
        runs = []
        for _ in range(2):
            out = aug.build_augmented_corpus(
                corpus, aug.AugmentationStrategy("CS", word_ratio=0.5),
                np.random.default_rng(7), dictionaries=[d])
            runs.append([tuple(v.example.words) for v in out.augmented])
        assert runs[0] == runs[1]
