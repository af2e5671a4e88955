"""Tokenizer tests: every segmentation path is checked against enumeration."""

import math
from collections import Counter

import numpy as np
import pytest

from xtune import augment as aug
from xtune import consistency as cons
from xtune import tokenizer as tok
from xtune.data import Example


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
        assert tok.viterbi_segment(toy_vocab(), "ab").pieces == ["ab"]

    def test_single_char(self):
        assert tok.viterbi_segment(toy_vocab(), "a").pieces == ["a"]

    def test_aa_splits(self):
        assert tok.viterbi_segment(toy_vocab(), "aa").pieces == ["a", "a"]

    def test_uncoverable_char(self):
        with pytest.raises(tok.CoverageError, match="'z'"):
            tok.viterbi_segment(toy_vocab(), "az")

    def test_tie_breaks_to_fewer_pieces(self):
        # p(ab) == p(a)p(b): prefer the single piece
        v = tok.UnigramVocab({"a": math.log(0.5), "b": math.log(0.5), "ab": math.log(0.25)})
        assert tok.viterbi_segment(v, "ab").pieces == ["ab"]

    def test_tie_breaks_leftmost_longest(self):
        # "abc" as ab+c or a+bc with identical scores and counts
        v = tok.UnigramVocab({
            "a": math.log(0.2), "b": math.log(0.2), "c": math.log(0.2),
            "ab": math.log(0.2), "bc": math.log(0.2),
        })
        assert tok.viterbi_segment(v, "abc").pieces == ["ab", "c"]

    def test_matches_enumeration_argmax_up_to_len8(self):
        rng = np.random.default_rng(11)
        vocab = random_vocab(rng)
        for trial in range(60):
            length = int(rng.integers(1, 9))
            text = "".join(rng.choice(list("abc"), size=length))
            segs = tok.enumerate_segmentations(vocab, text)
            best = max(p for _, p in segs)
            got = tok.viterbi_segment(vocab, text)
            got_p = math.exp(sum(vocab.pieces[p] for p in got.pieces))
            assert abs(got_p - best) <= 1e-12 * max(1.0, best)


class TestEnumeration:
    def test_ab_has_two_segmentations(self):
        segs = tok.enumerate_segmentations(toy_vocab(), "ab")
        assert len(segs) == 2
        assert sorted(tuple(s.pieces) for s, _ in segs) == [("a", "b"), ("ab",)]

    def test_single_char_one_segmentation(self):
        assert len(tok.enumerate_segmentations(toy_vocab(), "a")) == 1

    def test_partition_function_matches_forward_filter(self):
        rng = np.random.default_rng(5)
        vocab = random_vocab(rng)
        for _ in range(20):
            text = "".join(rng.choice(list("abc"), size=int(rng.integers(1, 9))))
            z_enum = sum(p for _, p in tok.enumerate_segmentations(vocab, text))
            z_ffbs = math.exp(tok.log_partition(vocab, text, alpha=1.0))
            assert abs(z_enum - z_ffbs) < 1e-12 * max(1.0, z_enum)

    def test_length_guard(self):
        with pytest.raises(ValueError, match="guard"):
            tok.enumerate_segmentations(toy_vocab(), "ab" * 7)


class TestSampling:
    def test_ab_frequency_matches_enumeration(self):
        vocab = toy_vocab()
        rng = np.random.default_rng(42)
        lattice = tok._Lattice(vocab, "ab", 1.0)
        n = 100_000
        hits = sum(lattice.sample_pieces(rng) == ["ab"] for _ in range(n))
        assert abs(hits / n - 0.2 / 0.36) < 0.01

    def test_alpha_zero_is_uniform(self):
        vocab = toy_vocab()
        rng = np.random.default_rng(43)
        lattice = tok._Lattice(vocab, "ab", 0.0)
        n = 100_000
        hits = sum(lattice.sample_pieces(rng) == ["ab"] for _ in range(n))
        assert abs(hits / n - 0.5) < 0.01

    def test_large_alpha_recovers_viterbi(self):
        vocab = toy_vocab()
        rng = np.random.default_rng(44)
        viterbi = tok.viterbi_segment(vocab, "ab").pieces
        for _ in range(100):
            assert tok.sample_segment(vocab, "ab", 50.0, rng).pieces == viterbi

    def test_sampling_law_total_variation(self):
        # empirical law vs enumeration-normalized tempered probabilities
        rng = np.random.default_rng(46)
        vocab = random_vocab(rng, n_pieces=12)
        text = "abcab"
        n = 50_000
        for alpha in (0.0, 0.5, 1.0):
            segs = tok.enumerate_segmentations(vocab, text)
            tempered = np.array([p ** alpha for _, p in segs])
            tempered /= tempered.sum()
            keys = [tuple(s.pieces) for s, _ in segs]
            lattice = tok._Lattice(vocab, text, alpha)
            counts = Counter(tuple(lattice.sample_pieces(rng)) for _ in range(n))
            tv = 0.5 * sum(abs(counts.get(k, 0) / n - q) for k, q in zip(keys, tempered))
            assert tv < 0.02

    def test_draws_match_generator_choice_reference(self):
        # the categorical over predecessors rebuilt from the vocabulary and
        # drawn with rng.choice: same pieces, same generator state after
        def reference(vocab, text, alpha, logf, rng):
            cuts = [len(text)]
            while cuts[-1] > 0:
                j = cuts[-1]
                starts = [i for i in range(max(0, j - vocab.max_piece_len), j)
                          if text[i:j] in vocab.pieces]
                logw = np.array([logf[i] + alpha * vocab.pieces[text[i:j]] for i in starts])
                p = np.exp(logw - logw.max())
                p /= p.sum()
                cuts.append(starts[int(rng.choice(len(starts), p=p))])
            cuts.reverse()
            return [text[a:b] for a, b in zip(cuts[:-1], cuts[1:])]

        rng = np.random.default_rng(47)
        for trial in range(200):
            vocab = random_vocab(rng, n_pieces=int(rng.integers(3, 30)))
            text = "".join(rng.choice(list("abc"), size=int(rng.integers(1, 16))))
            alpha = float(rng.choice([0.0, 0.2, 0.5, 1.0, 4.0]))
            lattice = tok._Lattice(vocab, text, alpha)
            got_rng, ref_rng = np.random.default_rng(trial), np.random.default_rng(trial)
            for _ in range(20):
                assert (lattice.sample_pieces(got_rng)
                        == reference(vocab, text, alpha, lattice.logf, ref_rng))
            assert got_rng.bit_generator.state == ref_rng.bit_generator.state

    def test_deterministic_given_seed(self):
        vocab = toy_vocab()
        a = [tok.sample_segment(vocab, "abab"[:3], 0.5, np.random.default_rng(9)).pieces
             for _ in range(5)]
        b = [tok.sample_segment(vocab, "abab"[:3], 0.5, np.random.default_rng(9)).pieces
             for _ in range(5)]
        assert a == b


class TestWordLevel:
    def test_round_trip_words(self):
        rng = np.random.default_rng(3)
        vocab = random_vocab(rng)
        words = ["abc", "a", "cabba", "bb"]
        for seg in (
            tok.viterbi_segment_words(vocab, words),
            tok.sample_segment_words(vocab, words, 0.5, rng),
        ):
            assert seg.reconstruct(vocab.marker) == words
            assert seg.n_words == len(words)
            assert sum(seg.first_subword) == len(words)

    def test_marker_prepended_when_covered(self):
        pieces = {"a": math.log(0.3), "b": math.log(0.3), tok.DEFAULT_MARKER: math.log(0.2),
                  tok.DEFAULT_MARKER + "ab": math.log(0.2)}
        vocab = tok.UnigramVocab(pieces)
        seg = tok.viterbi_segment_words(vocab, ["ab"])
        assert seg.pieces == [tok.DEFAULT_MARKER + "ab"]
        assert seg.reconstruct(vocab.marker) == ["ab"]

    def test_resegmentation_keeps_word_count(self):
        rng = np.random.default_rng(8)
        vocab = random_vocab(rng)
        words = ["abcab", "cc", "bab"]
        for _ in range(50):
            seg = tok.sample_segment_words(vocab, words, 0.3, rng)
            assert seg.n_words == 3
            assert sum(seg.first_subword) == 3


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
                        tok.sample_segment_words(vocab, words, 0.3, rng)):
                assert seg.word_pieces() == [scan_pieces_of_word(seg, w)
                                             for w in range(len(words))]

    def test_views_match_per_word_scan(self):
        # SS views' modified flags and the restricted span alignment, with
        # modified words, None targets and a None alignment, against the scan
        def reference_positions(seg, seg_aug, alignment, modified):
            if alignment is None:
                return [], []
            first, first_aug = seg.first_subword_positions(), seg_aug.first_subword_positions()
            pairs = [(first[w], first_aug[t]) for w, t in enumerate(alignment)
                     if t is not None and not modified[w]
                     and scan_pieces_of_word(seg, w) == scan_pieces_of_word(seg_aug, t)]
            return [a for a, _ in pairs], [b for _, b in pairs]

        rng = np.random.default_rng(13)
        vocab = random_vocab(rng)
        for trial in range(100):
            words = random_words(rng, int(rng.integers(1, 9)))
            example = Example(id=f"e{trial}", language="en", task="span", words=words)
            view = aug.subword_resample(example, vocab, 0.5, rng)
            seg = tok.viterbi_segment_words(vocab, words)
            assert view.modified == [scan_pieces_of_word(view.segmentation, w)
                                     != scan_pieces_of_word(seg, w) for w in range(len(words))]
            modified = list(view.modified)
            modified[int(rng.integers(len(words)))] = True
            alignment = [None if rng.random() < 0.2 else w for w in range(len(words))]
            for args in ((seg, view.segmentation, alignment, modified),
                         (seg, view.segmentation, alignment, [False] * len(words)),
                         (seg, view.segmentation, view.alignment, view.modified),
                         (seg, view.segmentation, None, view.modified)):
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

    def test_target_below_alphabet_rejected(self):
        with pytest.raises(ValueError, match="alphabet"):
            tok.build_vocab(["abc"], target_size=2)

    def test_built_vocab_segments_training_corpus(self):
        words = ["cat", "cats", "act", "tact"] * 5
        vocab = tok.build_vocab_for_words(words, target_size=12, max_piece_len=4, em_iters=3)
        for w in set(words):
            seg = tok.viterbi_segment_words(vocab, [w])
            assert seg.reconstruct(vocab.marker) == [w]
