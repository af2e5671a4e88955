"""Unigram-LM subword vocabulary with exact lattice segmentation.

Three ways to segment a string over the same piece inventory:

* ``viterbi_segment``          - best-scoring segmentation (deterministic),
* ``sample_segment``           - exact sampling proportional to P(s)^alpha via
                                 forward filtering / backward sampling (FFBS);
                                 each backward cut is an inverse-CDF draw that
                                 matches ``Generator.choice`` draw for draw,
* ``enumerate_segmentations``  - brute-force enumeration, the test oracle the
                                 other two are checked against.

Words are segmented independently; a boundary marker is prepended to each
word when the vocabulary covers it, which keeps the word -> subword map exact
under resegmentation.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

DEFAULT_MARKER = "▁"  # "▁"

_ENUM_MAX_CHARS = 12


class VocabFormatError(ValueError):
    """Malformed vocabulary file."""


class CoverageError(ValueError):
    """Input contains a character the vocabulary cannot segment."""


class UnigramVocab:
    """Piece inventory with log-probabilities (nats).

    Immutable after construction; segmentation caches live on the instance
    and are safe because the piece table never changes.
    """

    def __init__(self, pieces, marker=DEFAULT_MARKER):
        if not pieces:
            raise VocabFormatError("vocabulary has no pieces (empty coverage)")
        for piece, lp in pieces.items():
            if not math.isfinite(lp) or lp > 0.0:
                raise VocabFormatError(f"piece {piece!r} has invalid log-prob {lp}")
        alphabet = {ch for piece in pieces for ch in piece}
        missing = sorted(ch for ch in alphabet if ch not in pieces)
        if missing:
            raise VocabFormatError(
                f"character(s) {missing} appear in pieces but have no single-character entry"
            )
        self.pieces = dict(pieces)
        self.marker = marker
        self.max_piece_len = max(len(p) for p in pieces)
        self.piece_to_id = {p: i for i, p in enumerate(self.pieces)}
        self.alphabet = alphabet
        self._word_viterbi = {}
        self._word_lattice = {}

    def __len__(self):
        return len(self.pieces)

    def covers(self, text):
        return all(ch in self.alphabet for ch in text)

    def _check_coverage(self, text):
        for ch in text:
            if ch not in self.alphabet:
                raise CoverageError(f"character {ch!r} is not covered by the vocabulary")

    def word_form(self, word):
        """The string actually segmented for a word (marker-prefixed if covered)."""
        return self.marker + word if self.marker in self.alphabet else word


@dataclass
class Segmentation:
    """Ordered pieces plus the word -> subword bookkeeping."""

    pieces: list
    ids: list
    word_index: list  # source word index per piece
    first_subword: list  # True on the first piece of each word

    @property
    def n_pieces(self):
        return len(self.pieces)

    @property
    def n_words(self):
        return self.word_index[-1] + 1 if self.word_index else 0

    def first_subword_positions(self):
        return [i for i, f in enumerate(self.first_subword) if f]

    def word_pieces(self):
        """The pieces of each word, in word order (one pass over the pieces)."""
        out = [[] for _ in range(self.n_words)]
        for p, w in zip(self.pieces, self.word_index):
            out[w].append(p)
        return out

    def reconstruct(self, marker=DEFAULT_MARKER):
        """Rebuild the source words (boundary markers stripped)."""
        words = []
        for i, (piece, first) in enumerate(zip(self.pieces, self.first_subword)):
            text = piece
            if first:
                words.append("")
                if text.startswith(marker):
                    text = text[len(marker):]
            words[-1] += text
        return words


def _word_parts(vocab, pieces):
    """(pieces, ids, first-subword flags) of one word's segmentation."""
    return pieces, [vocab.piece_to_id[p] for p in pieces], [i == 0 for i in range(len(pieces))]


def _join(parts):
    """One Segmentation from per-word ``_word_parts``; the parts are copied."""
    pieces, ids, word_index, first_subword = [], [], [], []
    for w, (p, i, f) in enumerate(parts):
        pieces += p
        ids += i
        word_index += [w] * len(p)
        first_subword += f
    return Segmentation(pieces, ids, word_index, first_subword)


def _single_word(vocab, pieces):
    return _join([_word_parts(vocab, pieces)])


# ---------------------------------------------------------------------------
# Viterbi


def _viterbi_pieces(vocab, text):
    """Highest log-prob segmentation of one string.

    Ties break toward fewer pieces, then toward the longest leftmost piece
    (enforced by the right-to-left DP: at each start position the longer
    piece wins among otherwise equal continuations).
    """
    n = len(text)
    # per position: (score, piece_count, split_point); filled right to left
    best = [None] * (n + 1)
    best[n] = (0.0, 0, -1)
    table = vocab.pieces
    max_len = vocab.max_piece_len
    for i in range(n - 1, -1, -1):
        choice = None
        for j in range(i + 1, min(i + max_len, n) + 1):
            lp = table.get(text[i:j])
            if lp is None or best[j] is None:
                continue
            tail_score, tail_count, _ = best[j]
            cand = (lp + tail_score, tail_count + 1, j)
            if choice is None:
                choice = cand
                continue
            if cand[0] > choice[0]:
                choice = cand
            elif cand[0] == choice[0]:
                if cand[1] < choice[1] or (cand[1] == choice[1] and cand[2] > choice[2]):
                    choice = cand
        best[i] = choice
    if best[0] is None:
        raise CoverageError(f"text {text!r} cannot be segmented")
    pieces = []
    i = 0
    while i < n:
        j = best[i][2]
        pieces.append(text[i:j])
        i = j
    return pieces


def viterbi_segment(vocab, text):
    """Best segmentation of a raw string, treated as a single word."""
    if not text:
        raise ValueError("viterbi_segment: empty text")
    vocab._check_coverage(text)
    return _single_word(vocab, _viterbi_pieces(vocab, text))


def _viterbi_word(vocab, word):
    cached = vocab._word_viterbi.get(word)
    if cached is None:
        form = vocab.word_form(word)
        vocab._check_coverage(form)
        cached = _word_parts(vocab, _viterbi_pieces(vocab, form))
        vocab._word_viterbi[word] = cached
    return cached


def viterbi_segment_words(vocab, words):
    """Segment a word sequence; each word independently, marker-prefixed."""
    return _join([_viterbi_word(vocab, w) for w in words])


# ---------------------------------------------------------------------------
# FFBS sampling


class _Lattice:
    """Forward-filtered segmentation lattice for one string at one alpha.

    ``logf[j]`` is the log total tempered mass of all segmentations of
    text[:j].  ``starts[j]`` holds the starts of the pieces ending at ``j``
    and ``cdfs[j]`` the normalised CDF over them, built as ``Generator.choice``
    builds it.  Backward sampling bisects that CDF with one ``rng.random()``
    per cut: the draw and index ``rng.choice(len(starts[j]), p=p)`` gives,
    so each path has probability P(s)^alpha / Z exactly.
    """

    def __init__(self, vocab, text, alpha):
        if alpha < 0:
            raise ValueError("sample_segment: alpha must be >= 0")
        vocab._check_coverage(text)
        self.text = text
        n = len(text)
        table = vocab.pieces
        max_len = vocab.max_piece_len
        logf = np.full(n + 1, -np.inf)
        logf[0] = 0.0
        spans = [[] for _ in range(n + 1)]  # per end pos: (start, alpha*logp)
        for j in range(1, n + 1):
            for i in range(max(0, j - max_len), j):
                lp = table.get(text[i:j])
                if lp is None or logf[i] == -np.inf:
                    continue
                w = alpha * lp
                spans[j].append((i, w))
                logf[j] = np.logaddexp(logf[j], logf[i] + w)
        if logf[n] == -np.inf:
            raise CoverageError(f"text {text!r} cannot be segmented")
        self.logf = logf
        self.starts = [[i for i, _ in span] for span in spans]
        self.cdfs = [[] for _ in spans]
        for j, span in enumerate(spans):
            if span:
                logw = np.array([logf[i] + w for i, w in span])
                p = np.exp(logw - logw.max())
                cdf = (p / p.sum()).cumsum()
                self.cdfs[j] = (cdf / cdf[-1]).tolist()

    @property
    def log_partition(self):
        return float(self.logf[-1])

    def sample_pieces(self, rng):
        pieces = []
        j = len(self.text)
        while j > 0:
            i = self.starts[j][bisect_right(self.cdfs[j], rng.random())]
            pieces.append(self.text[i:j])
            j = i
        pieces.reverse()
        return pieces


def sample_segment(vocab, text, alpha, rng):
    """Draw a segmentation with probability P(s)^alpha / sum_s' P(s')^alpha."""
    if not text:
        raise ValueError("sample_segment: empty text")
    return _single_word(vocab, _Lattice(vocab, text, alpha).sample_pieces(rng))


def _word_lattice(vocab, word, alpha):
    key = (word, alpha)
    lat = vocab._word_lattice.get(key)
    if lat is None:
        lat = _Lattice(vocab, vocab.word_form(word), alpha)
        vocab._word_lattice[key] = lat
    return lat


def sample_segment_words(vocab, words, alpha, rng):
    """Per-word FFBS sampling over a word sequence."""
    return _join([_word_parts(vocab, _word_lattice(vocab, w, alpha).sample_pieces(rng))
                  for w in words])


# ---------------------------------------------------------------------------
# Enumeration oracle


def enumerate_segmentations(vocab, text):
    """All segmentations with their raw path probabilities.

    Probabilities are unnormalized products of piece probabilities; their sum
    is the lattice partition function.  Guarded to short strings because the
    count grows exponentially.
    """
    if len(text) > _ENUM_MAX_CHARS:
        raise ValueError(
            f"enumerate_segmentations: text of {len(text)} chars exceeds the "
            f"{_ENUM_MAX_CHARS}-char guard"
        )
    vocab._check_coverage(text)
    n = len(text)
    out = []

    def walk(i, pieces, logp):
        if i == n:
            out.append((_single_word(vocab, pieces), math.exp(logp)))
            return
        for j in range(i + 1, min(i + vocab.max_piece_len, n) + 1):
            lp = vocab.pieces.get(text[i:j])
            if lp is not None:
                walk(j, pieces + [text[i:j]], logp + lp)

    walk(0, [], 0.0)
    return out


def log_partition(vocab, text, alpha=1.0):
    """Log of the total tempered lattice mass (forward filter total)."""
    return _Lattice(vocab, text, alpha).log_partition


# ---------------------------------------------------------------------------
# Vocabulary I/O


def load_vocab(path, marker=DEFAULT_MARKER):
    """Read a piece<TAB>log_prob file; validates coverage and log-probs."""
    pieces = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            cols = line.split("\t")
            if len(cols) != 2:
                raise VocabFormatError(f"{path}:{lineno}: expected 'piece<TAB>log_prob'")
            piece, lp_text = cols
            if not piece:
                raise VocabFormatError(f"{path}:{lineno}: empty piece")
            try:
                lp = float(lp_text)
            except ValueError:
                raise VocabFormatError(f"{path}:{lineno}: bad log-prob {lp_text!r}") from None
            if piece in pieces:
                raise VocabFormatError(f"{path}:{lineno}: duplicate piece {piece!r}")
            pieces[piece] = lp
    return UnigramVocab(pieces, marker=marker)


def save_vocab(vocab, path):
    with open(path, "w", encoding="utf-8") as fh:
        for piece, lp in vocab.pieces.items():
            fh.write(f"{piece}\t{lp!r}\n")


# ---------------------------------------------------------------------------
# Vocabulary estimation (simplified unigram EM)


def _forward_backward_counts(pieces, text, counts):
    """Accumulate expected piece counts for one string; returns its log Z."""
    n = len(text)
    max_len = max(len(p) for p in pieces)
    spans = []  # (i, j, piece, logp)
    loga = np.full(n + 1, -np.inf)
    loga[0] = 0.0
    for j in range(1, n + 1):
        for i in range(max(0, j - max_len), j):
            lp = pieces.get(text[i:j])
            if lp is not None:
                spans.append((i, j, text[i:j], lp))
                if loga[i] != -np.inf:
                    loga[j] = np.logaddexp(loga[j], loga[i] + lp)
    if loga[n] == -np.inf:
        return None
    logb = np.full(n + 1, -np.inf)
    logb[n] = 0.0
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, min(i + max_len, n) + 1):
            lp = pieces.get(text[i:j])
            if lp is not None and logb[j] != -np.inf:
                logb[i] = np.logaddexp(logb[i], lp + logb[j])
    logz = loga[n]
    for i, j, piece, lp in spans:
        if loga[i] != -np.inf and logb[j] != -np.inf:
            counts[piece] = counts.get(piece, 0.0) + math.exp(loga[i] + lp + logb[j] - logz)
    return float(logz)


def em_fit(pieces, corpus_counts, iters):
    """Run EM sweeps on a fixed piece inventory.

    Returns (new log-probs, expected counts from the last E-step, per-sweep
    corpus log-likelihood).  The likelihood trace is non-decreasing up to
    float rounding; that is asserted by the tests.
    """
    pieces = dict(pieces)
    ll_trace = []
    last_counts = {}
    for _ in range(iters):
        counts = {}
        ll = 0.0
        for text, freq in corpus_counts.items():
            logz = _forward_backward_counts(pieces, text, scratch := {})
            if logz is None:
                continue
            ll += freq * logz
            for piece, c in scratch.items():
                counts[piece] = counts.get(piece, 0.0) + freq * c
        total = math.fsum(counts.values())
        floor = 1e-12 * max(total, 1.0)
        for piece in pieces:
            pieces[piece] = math.log(max(counts.get(piece, 0.0), floor) / total)
        ll_trace.append(ll)
        last_counts = counts
    return pieces, last_counts, ll_trace


def build_vocab(corpus, target_size, max_piece_len=8, em_iters=4, marker=DEFAULT_MARKER):
    """Estimate a unigram vocabulary from an iterable of strings.

    Seeds candidates from frequent substrings, then alternates EM sweeps with
    pruning of the 20% lowest expected-count multi-character pieces until the
    inventory reaches ``target_size``.  Single characters are never pruned,
    so every training string stays segmentable.
    """
    corpus_counts = {}
    for text in corpus:
        if text:
            corpus_counts[text] = corpus_counts.get(text, 0) + 1
    if not corpus_counts:
        raise ValueError("build_vocab: empty corpus")

    alphabet = sorted({ch for text in corpus_counts for ch in text})
    if target_size < len(alphabet):
        raise ValueError(
            f"build_vocab: target_size {target_size} is below alphabet size {len(alphabet)}"
        )

    # seed scores: substring frequency weighted by length
    seed_scores = {}
    for text, freq in corpus_counts.items():
        n = len(text)
        for i in range(n):
            for j in range(i + 1, min(i + max_piece_len, n) + 1):
                sub = text[i:j]
                seed_scores[sub] = seed_scores.get(sub, 0.0) + freq * (j - i)
    for ch in alphabet:
        seed_scores.setdefault(ch, 1.0)
    total = math.fsum(seed_scores.values())
    pieces = {p: math.log(s / total) for p, s in sorted(seed_scores.items())}

    while True:
        pieces, counts, _ = em_fit(pieces, corpus_counts, em_iters)
        if len(pieces) <= target_size:
            break
        multi = sorted(
            (p for p in pieces if len(p) > 1),
            key=lambda p: (counts.get(p, 0.0), p),
        )
        n_prunable = len(pieces) - len(alphabet)
        n_drop = min(max(1, int(0.2 * len(pieces))), len(pieces) - target_size, n_prunable)
        if n_drop <= 0:
            break
        for p in multi[:n_drop]:
            del pieces[p]
        # renormalize the survivors before the next EM phase
        logtotal = math.log(math.fsum(math.exp(lp) for lp in pieces.values()))
        pieces = {p: lp - logtotal for p, lp in pieces.items()}

    return UnigramVocab(dict(sorted(pieces.items())), marker=marker)


def build_vocab_for_words(words, target_size, max_piece_len=8, em_iters=4,
                          marker=DEFAULT_MARKER):
    """Build a vocabulary over marker-prefixed word forms."""
    return build_vocab(
        (marker + w for w in words),
        target_size,
        max_piece_len=max_piece_len,
        em_iters=em_iters,
        marker=marker,
    )
