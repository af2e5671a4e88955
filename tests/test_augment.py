"""Augmentation strategies: alignment bookkeeping, label projection, corpus
construction counts, and the strategy validation rules."""

import math

import numpy as np
import pytest

from xtune import augment as aug
from xtune import data
from xtune import tokenizer as tok


def example(words=("the", "cat"), task="classification", **kw):
    defaults = dict(label=1, n_label=2)
    defaults.update(kw)
    return data.Example(id="x0", language="en", task=task, words=list(words), **defaults)


def dictionary(entries, src="en", tgt="fr"):
    return aug.BilingualDictionary(src, tgt, {k: list(v) for k, v in entries.items()})


class TestCodeSwitch:
    def test_ratio_zero_is_identity(self):
        d = dictionary({"cat": ["chat"]})
        out = aug.code_switch(example(), [d], 0.0, np.random.default_rng(0))
        assert out.example.words == ["the", "cat"]
        assert out.modified == [False, False]
        assert out.alignment == [0, 1]

    def test_ratio_one_replaces_covered_words(self):
        d = dictionary({"cat": ["chat"]})
        out = aug.code_switch(example(), [d], 1.0, np.random.default_rng(0))
        assert out.example.words == ["the", "chat"]
        assert out.modified == [False, True]
        assert out.label_available and out.example.label == 1

    def test_replacement_frequency(self):
        d = dictionary({"cat": ["chat"]})
        rng = np.random.default_rng(1)
        n = 10_000
        hits = 0
        for _ in range(n):
            out = aug.code_switch(example(words=["cat"]), [d], 0.5, rng)
            hits += out.modified[0]
        assert abs(hits / n - 0.5) < 0.02

    def test_unmodified_words_byte_identical(self):
        d = dictionary({"cat": ["chat"], "the": ["le", "la"]})
        rng = np.random.default_rng(2)
        ex = example(words=["the", "cat", "sat", "on", "mats"])
        for _ in range(50):
            out = aug.code_switch(ex, [d], 0.6, rng)
            for i, flag in enumerate(out.modified):
                if not flag:
                    assert out.example.words[i] == ex.words[i]
            assert len(out.example.words) == len(ex.words)

    def test_tags_and_span_carry_over(self):
        d = dictionary({"cat": ["chat"]})
        ex = example(words=["the", "cat"], task="labeling", label=None, n_label=3,
                     tags=[0, 2])
        out = aug.code_switch(ex, [d], 1.0, np.random.default_rng(0))
        assert out.example.tags == [0, 2]

    def test_mixed_languages_per_word(self):
        d1 = dictionary({"cat": ["chat"]}, tgt="fr")
        d2 = dictionary({"cat": ["gato"]}, tgt="es")
        rng = np.random.default_rng(3)
        seen = set()
        for _ in range(50):
            out = aug.code_switch(example(words=["cat", "cat"]), [d1, d2], 1.0, rng)
            seen.update(out.example.words)
        assert seen == {"chat", "gato"}


class TestSubwordResample:
    def _vocab(self):
        return tok.UnigramVocab({
            "a": math.log(0.3), "b": math.log(0.3), "ab": math.log(0.4)})

    def test_words_unchanged_and_aligned(self):
        ex = example(words=["ab", "a"])
        out = aug.subword_resample(ex, self._vocab(), 0.5, np.random.default_rng(0))
        assert out.example.words == ["ab", "a"]
        assert out.alignment == [0, 1]
        assert out.segmentation.n_words == 2

    def test_high_alpha_matches_viterbi_with_zero_flags(self):
        vocab = self._vocab()
        ex = example(words=["ab", "ab"])
        rng = np.random.default_rng(1)
        for _ in range(100):
            out = aug.subword_resample(ex, vocab, 50.0, rng)
            assert out.modified == [False, False]
            assert out.segmentation.pieces == ["ab", "ab"]

    def test_modified_flags_track_changed_words(self):
        vocab = self._vocab()
        ex = example(words=["ab"])
        rng = np.random.default_rng(2)
        flagged = unflagged = 0
        for _ in range(200):
            out = aug.subword_resample(ex, vocab, 0.5, rng)
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
        assert all(v.label_available and v.example.label == 1 for v in views)
        assert views[0].alignment is None

    def test_token_tasks_lose_labels(self):
        ex = example(task="labeling", label=None, n_label=3, tags=[0, 1])
        views = aug.translate(ex, self._store(), ["fr"], "labeling")
        assert len(views) == 1
        assert not views[0].label_available
        assert views[0].example.tags is None

    def test_empty_target_set(self):
        assert aug.translate(example(), self._store(), [], "classification") == []

    def test_missing_translation_skipped_and_reported(self):
        missing = []
        views = aug.translate(example(), self._store(), ["fr", "de"], "classification",
                              missing=missing)
        assert len(views) == 1
        assert missing == [("x0", "de")]


class TestValidateStrategy:
    def test_mt_rejected_for_span_pairs(self):
        with pytest.raises(aug.StrategyError, match="aligned"):
            aug.validate_strategy("span", "pair", "MT")

    def test_mt_rejected_for_labeling_pairs(self):
        with pytest.raises(aug.StrategyError):
            aug.validate_strategy("labeling", "pair", "MT")

    def test_mt_ok_for_classification_pairs(self):
        advice = aug.validate_strategy("classification", "pair", "MT")
        assert advice.ok and advice.recommended[0] == "MT"

    def test_mt_ok_for_labeling_model_use(self):
        assert aug.validate_strategy("labeling", "model", "MT").ok

    def test_all_four_ok_for_classification_everywhere(self):
        for use in aug.STRATEGY_USES:
            for kind in aug.STRATEGY_KINDS:
                assert aug.validate_strategy("classification", use, kind).ok

    def test_labeling_pair_recommends_subword_sampling(self):
        advice = aug.validate_strategy("labeling", "pair", "SS")
        assert advice.recommended[0] == "SS"


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
        assert "cat" in d and "dog" in d

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
        assert "cat" in d and "CAT" in d


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
        assert len(out.pairs) == 100
        assert sorted(o for o, _ in out.pairs) == list(range(100))

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
        assert len(out.pairs) == 300

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
        aug.validate_strategy("span", "corpus", "MT")
        with pytest.raises(aug.StrategyError):
            aug.validate_strategy("span", "pair", aug.AugmentationStrategy("MT"))

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
