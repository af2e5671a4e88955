"""Tokenizer tests: every segmentation path is checked against enumeration."""

import hashlib
import math
import struct
import warnings
from collections import Counter

import numpy as np
import pytest

from xtune import augment as aug
from xtune import consistency as cons
from xtune import data
from xtune import tokenizer as tok

import reference as ref
from conftest import sample_words
from reference import enumerate_segmentations


def toy_vocab():
    return tok.UnigramVocab({"a": math.log(0.4), "b": math.log(0.4), "ab": math.log(0.2)})


def random_vocab(rng, n_pieces=20, alphabet="abc"):
    """A random piece inventory with full character coverage."""
    pieces = {ch: None for ch in alphabet}
    while len(pieces) < n_pieces:
        length = int(rng.integers(2, 5))
        piece = "".join(rng.choice(list(alphabet), size=length))
        pieces.setdefault(piece, None)
    weights = rng.random(len(pieces)) + 0.05
    weights /= weights.sum()
    return tok.UnigramVocab({p: math.log(w) for p, w in zip(pieces, weights)})


def with_marker(vocab):
    """The vocabulary plus the word-boundary marker, alone and in front of
    each piece (at that piece's log-prob)."""
    pieces = dict(vocab.pieces)
    pieces[tok.DEFAULT_MARKER] = math.log(0.1)
    pieces.update({tok.DEFAULT_MARKER + p: lp for p, lp in vocab.pieces.items()})
    return tok.UnigramVocab(pieces)


def source_words(seg, marker):
    """The words a segmentation spells, boundary markers stripped."""
    return ["".join(pieces).removeprefix(marker) for pieces, _ in seg.words]


def viterbi_pieces(vocab, word):
    return tok.viterbi_segment_words(vocab, [word]).pieces


def forward_logf(vocab, text, alpha):
    """The FFBS forward filter of one string: the grid forward over its
    lattice with the sampler's tempered weights."""
    starts, ends, pid = tok._lattice(vocab.piece_to_id, [text], vocab.max_piece_len)
    return tok._grid_forward(starts, ends, tok._LockstepTable(vocab, alpha).weights[pid])[:, 0]


class TestLoadVocab:
    def test_three_piece_file(self, tmp_path):
        path = tmp_path / "v.tsv"
        path.write_text("a\t-0.9163\nb\t-0.9163\nab\t-1.6094\n", encoding="utf-8")
        vocab = tok.load_vocab(path)
        assert len(vocab) == 3
        assert vocab.max_piece_len == 2

    def test_duplicate_piece_named(self, tmp_path):
        path = tmp_path / "v.tsv"
        path.write_text("a\t-1.0\na\t-2.0\n", encoding="utf-8")
        with pytest.raises(tok.VocabFormatError, match="'a'"):
            tok.load_vocab(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "v.tsv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(tok.VocabFormatError, match="empty coverage"):
            tok.load_vocab(path)

    def test_malformed_line_carries_line_number(self, tmp_path):
        path = tmp_path / "v.tsv"
        path.write_text("a\t-1.0\nbroken line here\n", encoding="utf-8")
        with pytest.raises(tok.VocabFormatError, match=":2:"):
            tok.load_vocab(path)

    def test_positive_log_prob_rejected(self, tmp_path):
        path = tmp_path / "v.tsv"
        path.write_text("a\t0.5\n", encoding="utf-8")
        with pytest.raises(tok.VocabFormatError, match="log-prob"):
            tok.load_vocab(path)

    def test_missing_char_coverage_rejected(self):
        with pytest.raises(tok.VocabFormatError, match="single-character"):
            tok.UnigramVocab({"ab": -1.0, "a": -1.0})

    def test_round_trip(self, tmp_path):
        vocab = toy_vocab()
        tok.save_vocab(vocab, tmp_path / "v.tsv")
        again = tok.load_vocab(tmp_path / "v.tsv")
        assert again.pieces == vocab.pieces


class TestViterbi:
    def test_ab_prefers_single_piece(self):
        # 0.2 beats 0.4 * 0.4 = 0.16
        assert viterbi_pieces(toy_vocab(), "ab") == ["ab"]

    def test_single_char(self):
        assert viterbi_pieces(toy_vocab(), "a") == ["a"]

    def test_aa_splits(self):
        assert viterbi_pieces(toy_vocab(), "aa") == ["a", "a"]

    def test_uncoverable_char(self):
        with pytest.raises(tok.CoverageError, match="'z'"):
            viterbi_pieces(toy_vocab(), "az")

    def test_tie_breaks_to_fewer_pieces(self):
        # p(ab) == p(a)p(b): prefer the single piece
        v = tok.UnigramVocab({"a": math.log(0.5), "b": math.log(0.5), "ab": math.log(0.25)})
        assert viterbi_pieces(v, "ab") == ["ab"]

    def test_tie_breaks_leftmost_longest(self):
        # "abc" as ab+c or a+bc with identical scores and counts
        v = tok.UnigramVocab({
            "a": math.log(0.2), "b": math.log(0.2), "c": math.log(0.2),
            "ab": math.log(0.2), "bc": math.log(0.2),
        })
        assert viterbi_pieces(v, "abc") == ["ab", "c"]

    def test_dp_is_bitwise_the_reference_under_ties(self):
        # log-probs of -1 or -2 add exactly, so many words have best
        # segmentations of different piece counts, and many have several of
        # the same count; the span-table DP must pick the reference's under
        # both tie rules
        rng = np.random.default_rng(12)
        ties = Counter()
        for trial in range(300):
            vocab = random_vocab(rng, n_pieces=int(rng.integers(3, 30)))
            vocab = with_marker(vocab) if rng.random() < 0.5 else vocab
            vocab = tok.UnigramVocab({p: float(rng.choice([-1.0, -2.0]))
                                      for p in vocab.pieces})
            word = "".join(rng.choice(list("abc"), size=int(rng.integers(1, 12))))
            form = vocab.word_form(word)
            want = ref.viterbi_pieces(vocab, form)
            assert viterbi_pieces(vocab, word) == want, trial
            scored = [(sum(vocab.pieces[p] for p in s.pieces), -len(s.pieces))
                      for s, _ in enumerate_segmentations(vocab, form)]
            top = max(scored)
            ties["score"] += len({n for score, n in scored if score == top[0]}) > 1
            ties["count"] += scored.count(top) > 1
        assert ties["score"] >= 50 and ties["count"] >= 20, ties

    def test_one_call_over_mixed_lengths_is_one_call_per_word(self):
        # a call's new words share one grid, whose columns past a shorter
        # form's end must add nothing; tied log-probs make a wrong pick show,
        # and every third vocabulary's path scores overflow to -inf, so that
        # only the piece counts and lengths decide
        rng = np.random.default_rng(14)
        for trial in range(60):
            vocab = random_vocab(rng, n_pieces=int(rng.integers(3, 30)))
            vocab = with_marker(vocab) if trial % 2 else vocab
            scale = 1e308 if trial % 3 == 2 else 1.0
            pieces = {p: scale * float(rng.choice([-1.0, -1.5, -1.7])) for p in vocab.pieces}
            words = list(dict.fromkeys("".join(rng.choice(list("abc"), size=int(n)))
                                       for n in rng.integers(1, 16, size=12)))
            one_call = tok.viterbi_segment_words(tok.UnigramVocab(pieces), words).words
            per_word = tok.UnigramVocab(pieces)
            assert one_call == [tok.viterbi_segment_words(per_word, [w]).words[0]
                                for w in words], trial
            assert [list(p) for p, _ in one_call] == [
                ref.viterbi_pieces(per_word, per_word.word_form(w)) for w in words], trial

    def test_matches_enumeration_argmax_up_to_len8(self):
        # with the boundary marker in the vocabulary, a word is segmented
        # as its marker-prefixed form
        for marked in (False, True):
            rng = np.random.default_rng(11)
            vocab = random_vocab(rng)
            vocab = with_marker(vocab) if marked else vocab
            for trial in range(60):
                length = int(rng.integers(1, 9))
                word = "".join(rng.choice(list("abc"), size=length))
                segs = enumerate_segmentations(vocab, vocab.word_form(word))
                best = max(p for _, p in segs)
                got = tok.viterbi_segment_words(vocab, [word])
                got_p = math.exp(sum(vocab.pieces[p] for p in got.pieces))
                assert abs(got_p - best) <= 1e-12 * max(1.0, best)


class TestEnumeration:
    def test_ab_has_two_segmentations(self):
        segs = enumerate_segmentations(toy_vocab(), "ab")
        assert len(segs) == 2
        assert sorted(tuple(s.pieces) for s, _ in segs) == [("a", "b"), ("ab",)]

    def test_single_char_one_segmentation(self):
        assert len(enumerate_segmentations(toy_vocab(), "a")) == 1

    def test_partition_function_matches_forward_filter(self):
        rng = np.random.default_rng(5)
        vocab = random_vocab(rng)
        for _ in range(20):
            text = "".join(rng.choice(list("abc"), size=int(rng.integers(1, 9))))
            z_enum = sum(p for _, p in enumerate_segmentations(vocab, text))
            z_ffbs = math.exp(forward_logf(vocab, text, 1.0)[-1])
            assert abs(z_enum - z_ffbs) < 1e-12 * max(1.0, z_enum)

    def test_length_guard(self):
        with pytest.raises(ValueError, match="guard"):
            enumerate_segmentations(toy_vocab(), "ab" * 7)


class TestSampling:
    def test_ab_frequency_matches_enumeration(self):
        vocab = toy_vocab()
        rng = np.random.default_rng(42)
        n = 100_000
        hits = sum(pieces == ("ab",)
                   for pieces, _ in sample_words(vocab, ["ab"] * n, 1.0, rng).words)
        assert abs(hits / n - 0.2 / 0.36) < 0.01

    def test_alpha_zero_is_uniform(self):
        vocab = toy_vocab()
        rng = np.random.default_rng(43)
        n = 100_000
        hits = sum(pieces == ("ab",)
                   for pieces, _ in sample_words(vocab, ["ab"] * n, 0.0, rng).words)
        assert abs(hits / n - 0.5) < 0.01

    def test_large_alpha_recovers_viterbi(self):
        vocab = toy_vocab()
        rng = np.random.default_rng(44)
        viterbi = viterbi_pieces(vocab, "ab")
        for _ in range(100):
            assert sample_words(vocab, ["ab"], 50.0, rng).pieces == viterbi

    def test_sampling_law_total_variation(self):
        # empirical law vs enumeration-normalized tempered probabilities, with
        # and without the boundary marker in the vocabulary; the word has
        # several segmentations under both (6 unmarked, 12 marked); each law's n
        # draws are one call over n copies of the word
        word = "ccaab"
        n = 50_000
        for marked in (False, True):
            rng = np.random.default_rng(46)
            vocab = random_vocab(rng, n_pieces=12)
            vocab = with_marker(vocab) if marked else vocab
            for alpha in (0.0, 0.5, 1.0):
                segs = enumerate_segmentations(vocab, vocab.word_form(word))
                assert len(segs) >= 2
                tempered = np.array([p ** alpha for _, p in segs])
                tempered /= tempered.sum()
                keys = [tuple(s.pieces) for s, _ in segs]
                counts = Counter(tuple(pieces) for pieces, _ in
                                 sample_words(vocab, [word] * n, alpha, rng).words)
                tv = 0.5 * sum(abs(counts.get(k, 0) / n - q) for k, q in zip(keys, tempered))
                assert tv < 0.02

    def test_lockstep_draws_match_the_per_token_reference(self):
        # the reference cuts one token at a time from the same uniform
        # block: same pieces and ids, same generator state after; several
        # calls per vocabulary, so later calls meet known and new words
        rng = np.random.default_rng(47)
        for trial in range(60):
            vocab = random_vocab(rng, n_pieces=int(rng.integers(3, 30)))
            if rng.random() < 0.5:
                vocab = with_marker(vocab)
            alpha = float(rng.choice([0.0, 0.2, 0.5, 1.0, 4.0]))
            got_rng, ref_rng = np.random.default_rng(trial), np.random.default_rng(trial)
            for _ in range(4):
                words = ["".join(rng.choice(list("abc"), size=int(rng.integers(1, 16))))
                         for _ in range(int(rng.integers(0, 12)))]
                got = sample_words(vocab, words, alpha, got_rng)
                assert ([list(pieces) for pieces, _ in got.words]
                        == ref.sample_segment_words(vocab, words, alpha, ref_rng)), trial
                assert all(ids == tuple(vocab.piece_to_id[p] for p in pieces)
                           for pieces, ids in got.words)
                assert got_rng.bit_generator.state == ref_rng.bit_generator.state, trial

    def test_draws_match_generator_choice_reference(self):
        # the categorical over predecessors rebuilt from the vocabulary and
        # drawn with rng.choice, one uniform per cut; the call's block has
        # one row per word as long as the call's longest form, so the
        # reference skips the rest of each row: same pieces, same state after
        def reference(vocab, words, alpha, rng):
            forms = [vocab.word_form(w) for w in words]
            width = max(map(len, forms), default=0)
            drawn = []
            for text in forms:
                logf = ref.lattice_logf(vocab, text, alpha)
                cuts = [len(text)]
                while cuts[-1] > 0:
                    j = cuts[-1]
                    starts = [i for i in range(max(0, j - vocab.max_piece_len), j)
                              if text[i:j] in vocab.pieces]
                    logw = np.array([logf[i] + alpha * vocab.pieces[text[i:j]] for i in starts])
                    p = np.exp(logw - logw.max())
                    p /= p.sum()
                    cuts.append(starts[int(rng.choice(len(starts), p=p))])
                rng.random(width - (len(cuts) - 1))
                cuts.reverse()
                drawn.append([text[a:b] for a, b in zip(cuts[:-1], cuts[1:])])
            return drawn

        rng = np.random.default_rng(47)
        for trial in range(100):
            vocab = random_vocab(rng, n_pieces=int(rng.integers(3, 30)))
            alpha = float(rng.choice([0.0, 0.2, 0.5, 1.0, 4.0]))
            got_rng, ref_rng = np.random.default_rng(trial), np.random.default_rng(trial)
            for _ in range(5):
                words = ["".join(rng.choice(list("abc"), size=int(rng.integers(1, 16))))
                         for _ in range(int(rng.integers(1, 6)))]
                got = sample_words(vocab, words, alpha, got_rng)
                assert ([list(pieces) for pieces, _ in got.words]
                        == reference(vocab, words, alpha, ref_rng)), trial
            assert got_rng.bit_generator.state == ref_rng.bit_generator.state, trial

    def test_cdf_rows_are_built_one_row_at_a_time(self):
        # the table builds the rows of equal piece counts together; each row
        # must hold the bits of its own categorical, built alone as
        # ``Generator.choice`` builds it, over pieces up to 12 long
        rng = np.random.default_rng(49)
        for trial in range(30):
            vocab, letters = random_vocab(rng, n_pieces=int(rng.integers(3, 40))), "abc"
            if trial % 3 == 0:   # up to 12 pieces end at a position
                vocab, letters = tok.UnigramVocab({"a" * k: -float(k) for k in range(1, 13)}), "a"
            alpha = float(rng.choice([0.0, 0.2, 1.0, 4.0]))
            words = ["".join(rng.choice(list(letters), size=int(rng.integers(1, 30))))
                     for _ in range(8)]
            table = tok._LockstepTable(vocab, alpha)
            types = table.type_ids(words).tolist()
            for word, k in zip(words, types):
                text = vocab.word_form(word)
                logf = ref.lattice_logf(vocab, text, alpha)
                for j in range(1, len(text) + 1):
                    starts = [i for i in range(max(0, j - vocab.max_piece_len), j)
                              if text[i:j] in vocab.pieces and logf[i] != -np.inf]
                    row = table.cdf[table.offset[k] + j]
                    assert np.isinf(row[len(starts):]).all()
                    if starts:
                        logw = np.array([logf[i] + alpha * vocab.pieces[text[i:j]]
                                         for i in starts])
                        p = np.exp(logw - logw.max())
                        cdf = (p / p.sum()).cumsum()
                        assert (cdf / cdf[-1]).tobytes() == row[:len(starts)].tobytes(), trial

    def test_one_add_of_many_types_is_one_add_per_type(self):
        # the types of one ``_add`` share one grid, over forms of mixed
        # lengths: the same rows, bit for bit, and the same draws and
        # records from the same generator as types added one at a time
        rng = np.random.default_rng(51)
        for trial in range(40):
            vocab = random_vocab(rng, n_pieces=int(rng.integers(3, 30)))
            vocab = with_marker(vocab) if trial % 2 else vocab
            alpha = float(rng.choice([0.0, 0.2, 1.0, 4.0]))
            words = list(dict.fromkeys("".join(rng.choice(list("abc"), size=int(n)))
                                       for n in rng.integers(1, 16, size=10)))
            batched, single = tok._LockstepTable(vocab, alpha), tok._LockstepTable(vocab, alpha)
            batched.type_ids(words)
            for word in words:
                single.type_ids([word])
            for name in ("cdf", "after", "offset", "length", "root"):
                assert getattr(batched, name).tobytes() == getattr(single, name).tobytes(), trial
            tokens = [words[k] for k in rng.integers(len(words), size=40)]
            drawn = []
            for table in (batched, single):
                draws = table.draws(table.type_ids(tokens), np.random.default_rng(trial))
                drawn.append(list(map(table.record, draws.tolist())))
            assert drawn[0] == drawn[1], trial

    def test_draw_records_carry_the_vocabulary_ids(self):
        # a draw's ids are the vocabulary's ids of its pieces
        rng = np.random.default_rng(48)
        for trial in range(100):
            vocab = random_vocab(rng, n_pieces=int(rng.integers(3, 30)))
            if rng.random() < 0.5:
                vocab = with_marker(vocab)
            words = ["".join(rng.choice(list("abc"), size=int(rng.integers(1, 16))))
                     for _ in range(int(rng.integers(1, 6)))]
            alpha = float(rng.choice([0.0, 0.5, 1.0]))
            rec_rng = np.random.default_rng(trial)
            for _ in range(10):
                for pieces, ids in sample_words(vocab, words, alpha, rec_rng).words:
                    assert ids == tuple(vocab.piece_to_id[p] for p in pieces)

    def test_equal_draws_share_one_record(self):
        # records are interned per word and cut set, across calls, and a
        # draw equal to the word's Viterbi segmentation is its Viterbi record
        rng = np.random.default_rng(48)
        vocab = with_marker(random_vocab(rng))
        words = ["abcab", "ca", "abcab", "bbb"] * 50
        viterbi = dict(zip(words, tok.viterbi_segment_words(vocab, words).words))
        first = {}
        for _ in range(3):
            for word, record in zip(words, sample_words(vocab, words, 0.3,
                                                                    rng).words):
                assert first.setdefault((word, record), record) is record
                assert record != viterbi[word] or record is viterbi[word]
        assert any(record is viterbi[word] for word, record in first)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf, -0.5])
    def test_bad_alpha_rejected_by_name(self, alpha):
        with pytest.raises(ValueError, match="alpha must be a finite number >= 0"):
            sample_words(toy_vocab(), ["ab"], alpha, np.random.default_rng(0))

    def test_overflowing_alpha_named_not_a_coverage_error(self):
        # alpha * log p path sums of 'aab' overflow to -inf at 1e308, not at 1e306
        words = ["ab", "aab"]
        drawn = sample_words(toy_vocab(), words, 1e306, np.random.default_rng(0))
        assert [list(pieces) for pieces, _ids in drawn.words] == [["ab"], ["a", "ab"]]
        with pytest.raises(ValueError, match=r"alpha 1e\+308 overflows .* word 'aab'") as err:
            sample_words(toy_vocab(), words, 1e308, np.random.default_rng(0))
        assert not isinstance(err.value, tok.CoverageError)

    def test_deterministic_given_seed(self):
        vocab = toy_vocab()
        a = [sample_words(vocab, ["aba"], 0.5, np.random.default_rng(9)).pieces
             for _ in range(5)]
        b = [sample_words(vocab, ["aba"], 0.5, np.random.default_rng(9)).pieces
             for _ in range(5)]
        assert a == b


class TestWordLevel:
    def test_round_trip_words(self):
        rng = np.random.default_rng(3)
        vocab = random_vocab(rng)
        words = ["abc", "a", "cabba", "bb"]
        for seg in (
            tok.viterbi_segment_words(vocab, words),
            sample_words(vocab, words, 0.5, rng),
        ):
            assert source_words(seg, vocab.marker) == words
            assert len(seg.words) == len(words)
            assert len(seg.first_subword_positions()) == len(words)

    def test_marker_prepended_when_covered(self):
        pieces = {"a": math.log(0.3), "b": math.log(0.3), tok.DEFAULT_MARKER: math.log(0.2),
                  tok.DEFAULT_MARKER + "ab": math.log(0.2)}
        vocab = tok.UnigramVocab(pieces)
        seg = tok.viterbi_segment_words(vocab, ["ab"])
        assert seg.pieces == [tok.DEFAULT_MARKER + "ab"]
        assert source_words(seg, vocab.marker) == ["ab"]

    def test_resegmentation_keeps_word_count(self):
        rng = np.random.default_rng(8)
        vocab = random_vocab(rng)
        words = ["abcab", "cc", "bab"]
        for _ in range(50):
            seg = sample_words(vocab, words, 0.3, rng)
            assert len(seg.words) == 3
            assert len(seg.first_subword_positions()) == 3


def scan_pieces_of_word(seg, w):
    """Per-word reference: one scan over every piece."""
    return [p for p, wi in zip(seg.pieces, seg.word_index) if wi == w]


def random_words(rng, n):
    return ["".join(rng.choice(list("abc"), size=int(rng.integers(1, 7)))) for _ in range(n)]


class TestWordPieces:
    def test_matches_per_word_scan(self):
        rng = np.random.default_rng(12)
        vocab = random_vocab(rng)
        for _ in range(100):
            words = random_words(rng, int(rng.integers(1, 9)))
            for seg in (tok.viterbi_segment_words(vocab, words),
                        sample_words(vocab, words, 0.3, rng)):
                assert [list(pieces) for pieces, _ in seg.words] == [
                    scan_pieces_of_word(seg, w) for w in range(len(words))]

    def test_views_match_per_word_scan(self):
        # SS views' modified flags and the restricted span positions, with
        # extra modified words and an all-modified view, against the scan
        def reference_positions(seg, seg_aug, modified):
            first, first_aug = seg.first_subword_positions(), seg_aug.first_subword_positions()
            pairs = [(first[w], first_aug[w]) for w, changed in enumerate(modified)
                     if not changed
                     and scan_pieces_of_word(seg, w) == scan_pieces_of_word(seg_aug, w)]
            return [a for a, _ in pairs], [b for _, b in pairs]

        rng = np.random.default_rng(13)
        vocab = random_vocab(rng)
        for trial in range(100):
            words = random_words(rng, int(rng.integers(1, 9)))
            corpus = data.corpus_of([{"id": f"e{trial}", "lang": "en", "words": words}],
                                    "classification")
            drawn, flags = aug.resample_words(corpus, vocab, 0.5, rng)
            view, flags = tok.Segmentation(drawn), flags.tolist()
            seg = tok.viterbi_segment_words(vocab, words)
            assert flags == [scan_pieces_of_word(view, w) != scan_pieces_of_word(seg, w)
                             for w in range(len(words))]
            modified = list(flags)
            modified[int(rng.integers(len(words)))] = True
            dropped = [rng.random() < 0.2 for _ in range(len(words))]
            for args in ((seg, view, [m or d for m, d in zip(modified, dropped)]),
                         (seg, view, dropped),
                         (seg, view, flags),
                         (seg, view, [True] * len(words))):
                assert cons.aligned_first_subword_positions(*args) == reference_positions(*args)


class TestBuildVocab:
    def test_repeated_ab_keeps_all_three_pieces(self):
        vocab = tok.build_vocab(["ab"] * 50, target_size=3, max_piece_len=2, em_iters=3,
                                marker="")
        assert set(vocab.pieces) == {"a", "b", "ab"}

    def test_target_equal_alphabet_gives_char_vocab(self):
        vocab = tok.build_vocab(["ab", "ba", "aab"] * 10, target_size=2, max_piece_len=3,
                                em_iters=2, marker="")
        assert set(vocab.pieces) == {"a", "b"}

    def test_em_log_likelihood_non_decreasing(self):
        corpus = {"abab": 5, "ab": 9, "ba": 4, "aab": 2}
        pieces = {"a": math.log(0.3), "b": math.log(0.3), "ab": math.log(0.2),
                  "ba": math.log(0.2)}
        _, _, trace = tok.em_fit(pieces, corpus, iters=8)
        for earlier, later in zip(trace, trace[1:]):
            assert later >= earlier - 1e-9

    @pytest.mark.parametrize("field,value", [
        ("max_piece_len", 0), ("max_piece_len", -3), ("em_iters", 0), ("em_iters", -1)])
    def test_bad_setting_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be >= 1, got {value}"):
            tok.build_vocab(["abc"], target_size=5, **{field: value})

    def test_target_below_alphabet_rejected(self):
        with pytest.raises(ValueError, match="alphabet"):
            tok.build_vocab(["abc"], target_size=2)

    # recorded at e6fb88c: the vocabularies `xtune synth` builds for the
    # benchmark (24 lemmas in 4 languages, pieces of up to 12 characters, 3
    # sweeps per phase), at its two sizes: 6 and 12 pruning phases
    @pytest.mark.parametrize("size,digest", [
        (60, "b5d3228d5000d545ffa867f18d069806c6e6fc17467f57d169ef1ae45c19ea5c"),
        (220, "3b32ee59acc68de3c0a7e661b474e64151a181694b8a12fdb52949e4ac24420f"),
    ])
    def test_synth_shaped_vocab_is_pinned(self, size, digest, tmp_path):
        languages = ("en", "xx", "yy", "zz")
        words = [data.surface(k, lang, languages[0]) for k in range(24) for lang in languages]
        vocab = tok.build_vocab_for_words(words, size, max_piece_len=12, em_iters=3)
        tok.save_vocab(vocab, tmp_path / "vocab.tsv")
        assert hashlib.sha256((tmp_path / "vocab.tsv").read_bytes()).hexdigest() == digest

    def test_built_vocab_segments_training_corpus(self):
        words = ["cat", "cats", "act", "tact"] * 5
        vocab = tok.build_vocab_for_words(words, target_size=12, max_piece_len=4, em_iters=3)
        for w in set(words):
            seg = tok.viterbi_segment_words(vocab, [w])
            assert source_words(seg, vocab.marker) == [w]


def bits(value):
    return struct.pack("<d", value)


def random_corpus(rng, alphabet, n_texts):
    """Distinct random strings with frequencies, one of them holding a
    character ("z") that no inventory below covers."""
    corpus = {"".join(rng.choice(list(alphabet), size=int(rng.integers(1, 11)))):
              int(rng.integers(1, 6)) for _ in range(n_texts)}
    corpus[alphabet[0] + "z" + alphabet[-1]] = 2
    return corpus


def random_inventory(rng, corpus, max_len):
    """Every character of the corpus but "z", plus a random share of its
    substrings, at random log-probs."""
    subs = sorted({t[i:j] for t in corpus for i in range(len(t))
                   for j in range(i + 1, min(i + max_len, len(t)) + 1) if "z" not in t[i:j]})
    keep = [p for p in subs if len(p) == 1 or rng.random() < 0.5]
    weights = rng.random(len(keep)) + 0.01
    return {p: math.log(w / weights.sum()) for p, w in zip(keep, weights)}


class TestEmOracle:
    """The per-phase span-table E-step against the per-string rescan it
    replaced (``reference.em_fit``): bitwise equal, in insertion order."""

    @pytest.mark.parametrize("marker", ["", tok.DEFAULT_MARKER])
    def test_em_fit_is_bitwise_the_reference(self, marker):
        rng = np.random.default_rng(11 + len(marker))
        for trial in range(12):
            corpus = {marker + t: f for t, f in random_corpus(rng, "abc", 8).items()}
            pieces = random_inventory(rng, corpus, int(rng.integers(1, 6)))
            iters = int(rng.integers(1, 5))
            want = ref.em_fit(pieces, corpus, iters)
            got = tok.em_fit(pieces, corpus, iters)
            for got_map, want_map in zip(got[:2], want[:2]):
                assert list(got_map) == list(want_map), trial
                assert [bits(v) for v in got_map.values()] == [bits(v) for v in
                                                               want_map.values()], trial
            assert [bits(v) for v in got[2]] == [bits(v) for v in want[2]], trial

    def test_unsegmentable_string_adds_nothing(self):
        pieces = {"a": math.log(0.5), "b": math.log(0.5)}
        counts = {"ab": 3, "azb": 5}
        got = tok.em_fit(pieces, counts, 2)
        assert got[2] == ref.em_fit(pieces, counts, 2)[2]
        assert got[2][0] == 3 * 2 * math.log(0.5)

    def test_no_float_warnings(self):
        # the oracle's corpora hold an unsegmentable string, whose entries
        # every count must leave out before any arithmetic
        rng = np.random.default_rng(5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(6):
                corpus = random_corpus(rng, "abc", 8)
                tok.em_fit(random_inventory(rng, corpus, int(rng.integers(1, 6))), corpus, 3)

    def test_grid_built_once_per_call_and_swept_over_all_strings(self, monkeypatch):
        # a call builds (or reuses) one grid, however many sweeps it runs,
        # and every sweep runs the forward and the backward once, over
        # every string at once
        built, sums = [], []
        grid, grid_sums = tok._em_grid, tok._grid_sums

        def counted_grid(texts, max_len):
            built.append(texts)
            return grid(texts, max_len)

        def counted_sums(mass, spans, weights):
            sums.append(mass.shape[1])
            return grid_sums(mass, spans, weights)

        monkeypatch.setattr(tok, "_em_grid", counted_grid)
        monkeypatch.setattr(tok, "_grid_sums", counted_sums)
        corpus = {"abab": 5, "ab": 9, "ba": 4, "aab": 2}
        pieces = {"a": math.log(0.3), "b": math.log(0.3), "ab": math.log(0.2),
                  "ba": math.log(0.2)}
        for iters in (1, 3, 8):
            built.clear()
            sums.clear()
            tok.em_fit(pieces, corpus, iters)
            assert built == [tuple(corpus)], iters
            assert sums == [len(corpus)] * (2 * iters), iters


def test_lattice_forward_filter_is_bitwise_the_reference():
    rng = np.random.default_rng(48)
    for _ in range(100):
        vocab = random_vocab(rng, n_pieces=int(rng.integers(3, 30)))
        if rng.random() < 0.5:
            vocab = with_marker(vocab)
        text = "".join(rng.choice(sorted(vocab.alphabet), size=int(rng.integers(1, 16))))
        for alpha in (0.0, 0.2, 1.0, 4.0):
            got = forward_logf(vocab, text, alpha)
            assert np.array(got).tobytes() == ref.lattice_logf(vocab, text, alpha).tobytes()
