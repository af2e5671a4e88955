"""Unigram-LM subword vocabulary with exact lattice segmentation.

Segmentation meets the piece inventory in one place, the span grid of the
strings of a call (``_lattice``): one column per span ``(i, j)``, over every
``j - i`` up to the longest piece, by end, then start, and one piece id per
(span, string), a non-piece id where the substring is no piece or lies past
the string's end.  Every walk over the lattices runs on that grid, over all
the strings of a call at once:

* ``viterbi_segment_words`` - each word's best-scoring segmentation, one
                              right-to-left DP over the grid's starts for
                              the words not seen before (cached per word),
* ``sample_segment_words``  - exact sampling of each word's segmentation
                              proportional to P(s)^alpha: the grid forward
                              (``_grid_forward``) with weights alpha * log p,
                              then backward sampling (FFBS) of all tokens of
                              a call in lockstep: one ``rng.random((tokens,
                              longest form))`` draw, token t's k-th cut an
                              inverse-CDF draw with column k, and one draw
                              id per token.

``build_vocab`` is unigram EM: phases of sweeps (``em_fit``) over a fixed
inventory, each followed by pruning.  Each sweep runs the grid forward and
the backward over all of a phase's strings.

Log-masses are summed by ``_grid_sums``, one ``np.logaddexp`` per span in
the grid's order.  A non-piece adds a -inf term, which leaves a log-mass
bit for bit as it was, so each string's sums are those of its own lattice
and draws and vocabularies depend only on their inputs.  Words are
segmented independently; a boundary marker is prepended to each word when
the vocabulary covers it, which keeps the word -> subword map exact under
resegmentation.  A ``Segmentation`` is one ``(pieces, ids)`` record per
word, the tuples the per-word Viterbi cache holds and the FFBS sampler
builds once per draw id (a word type and cut set); callers read the word ->
subword map (changed words, aligned first subwords, packed word rows) from
them.  The tests check both paths against brute-force enumeration.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate
from dataclasses import dataclass

import numpy as np

DEFAULT_MARKER = "▁"  # "▁"

_NEG_INF = -math.inf


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
        self._logp = np.fromiter(self.pieces.values(), float, len(pieces))   # by piece id
        self.alphabet = alphabet
        self._word_viterbi = {}
        self._samplers = {}             # alpha -> _LockstepTable

    def __len__(self):
        return len(self.pieces)

    def _check_coverage(self, text):
        for ch in text:
            if ch not in self.alphabet:
                raise CoverageError(f"character {ch!r} is not covered by the vocabulary")

    def word_form(self, word):
        """The string actually segmented for a word (marker-prefixed if covered)."""
        return self.marker + word if self.marker in self.alphabet else word

    def sampler(self, alpha):
        """The FFBS sampler (``_LockstepTable``) of ``alpha``, made on first use."""
        if not (math.isfinite(alpha) and alpha >= 0):
            raise ValueError(f"sample_segment_words: alpha must be a finite number >= 0, "
                             f"got {alpha!r}")
        if (table := self._samplers.get(alpha)) is None:
            table = self._samplers[alpha] = _LockstepTable(self, alpha)
        return table


@dataclass
class Segmentation:
    """A word sequence's segmentation as one record per word.

    ``words[w]`` is word w's ``(pieces, ids)``: two equal-length tuples of
    its pieces and their vocabulary ids.  Records are shared, not copied: a
    Viterbi segmentation holds the per-word cache's records, so comparing
    two segmentations word by word is comparing these tuples.  The flat,
    per-piece views are derived from the records.
    """

    words: list

    @property
    def pieces(self):
        return [p for pieces, _ in self.words for p in pieces]

    @property
    def word_index(self):
        """Source word index per piece."""
        return [w for w, (pieces, _) in enumerate(self.words) for _ in pieces]

    @property
    def n_pieces(self):
        return sum(len(pieces) for pieces, _ in self.words)

    def first_subword_positions(self):
        """The position of each word's first piece."""
        return list(accumulate([len(pieces) for pieces, _ in self.words], initial=0))[:-1]


def _word_record(vocab, pieces):
    """One word's ``(pieces, ids)`` record."""
    pieces = tuple(pieces)
    return pieces, tuple(vocab.piece_to_id[p] for p in pieces)


# ---------------------------------------------------------------------------
# The span grid and the forward recurrence


@lru_cache(maxsize=1)
def _em_grid(texts, max_len):
    """Every span of a call's strings as one grid, substrings interned
    (cached: the EM phases of a ``build_vocab`` share their strings).
    Column c is the span ``cols[c] = (i, j)``, over every ``j - i <=
    max_len``, by end, then start; ``sub[c, s]`` numbers string s's
    substring there in ``subs``, or is -1 past the string's end."""
    width = max(map(len, texts), default=0)
    cols = [(i, j) for j in range(1, width + 1) for i in range(max(0, j - max_len), j)]
    subs = {}
    sub = [[subs.setdefault(text[i:j], len(subs)) if j <= len(text) else -1 for text in texts]
           for i, j in cols]
    return cols, list(subs), np.array(sub, dtype=np.intp).reshape(len(cols), len(texts))


def _lattice(index, texts, max_len):
    """The lattices of ``texts`` over the pieces of ``index`` (piece -> id),
    as one span grid (``_em_grid``): each column's start and end, and
    ``pid[c, s]``, the id of string s's substring at column c, or
    ``len(index)`` where it is no piece or lies past the string's end."""
    cols, subs, sub = _em_grid(tuple(texts), max_len)
    n = len(index)
    starts, ends = np.array(cols, dtype=np.intp).reshape(-1, 2).T
    return starts, ends, np.array([index.get(p, n) for p in subs] + [n], dtype=np.intp)[sub]


def _grid_sums(mass, spans, weights):
    """For each span ``(to, frm)`` in order, log-add ``mass[frm]`` times the
    span's weight into ``mass[to]``: one ``np.logaddexp`` per span over the
    ``(positions, strings)`` masses of all strings at once."""
    for (to, frm), w in zip(spans, weights):
        np.logaddexp(mass[to], mass[frm] + w, out=mass[to])
    return mass


def _grid_forward(starts, ends, weights):
    """``logf[j, s]``, the log total mass of the segmentations of string s's
    first j characters, given the log weight of each (column, string) of a
    span grid (-inf at a non-piece).  A sum that overflows to -inf does so
    silently: the caller names it."""
    logf = np.full((1 + ends.max(initial=0), weights.shape[1]), _NEG_INF)
    logf[0] = 0.0
    with np.errstate(over="ignore"):
        return _grid_sums(logf, zip(ends.tolist(), starts.tolist()), weights)


# ---------------------------------------------------------------------------
# Viterbi


def _viterbi_records(vocab, words):
    """Each word's highest log-prob ``(pieces, ids)`` record, cached per word:
    the words not seen before share one right-to-left DP over their grid.

    Ties break toward fewer pieces, then toward the longest leftmost piece:
    of the pieces from a start, the best score wins, then the fewest pieces
    to the end, then the longest piece.
    """
    cache = vocab._word_viterbi
    if new := [w for w in dict.fromkeys(words) if w not in cache]:
        forms = [vocab.word_form(w) for w in new]
        vocab._check_coverage("".join(forms))
        n, k, every = len(vocab), vocab.max_piece_len, np.arange(len(forms))
        starts, ends, pid = _lattice(vocab.piece_to_id, forms, k)
        lengths = np.fromiter(map(len, forms), np.intp, len(forms))
        width = int(lengths.max())
        # piece[i, l, s]: the id of form s's piece of l + 1 characters from
        # i, with the forms right-aligned, so that every form ends at width
        col, form = np.nonzero(pid < n)
        piece = np.full((width, k, len(forms)), n)
        piece[starts[col] + width - lengths[form], ends[col] - starts[col] - 1, form] = pid[col, form]
        logp = np.append(vocab._logp, _NEG_INF)[piece]
        # per position: the best score and piece count to the form's end, and
        # the first piece; a count of len(score) is more than any path has
        score = np.full((width + k + 1, len(forms)), _NEG_INF)
        count = np.full(score.shape, len(score))
        first = np.zeros(score.shape, np.intp)
        score[width] = count[width] = 0
        step = np.where(piece < n, 1, len(score))
        # among the pieces of the best score, the rank (length - 1) - count * k
        # is largest for the fewest pieces, then the longest piece
        tie, loses = np.arange(k)[:, None], np.iinfo(np.intp).min
        with np.errstate(over="ignore"):   # a score of -inf: the counts decide
            for i in range(width - 1, -1, -1):
                s = logp[i] + score[i + 1:i + 1 + k]
                c = count[i + 1:i + 1 + k] + step[i]
                pick = np.where(s == s.max(axis=0), tie - c * k, loses).argmax(axis=0), every
                score[i], count[i], first[i] = s[pick], c[pick], piece[i][pick]
        names = list(vocab.pieces)
        for word, length, ids in zip(new, lengths.tolist(), first.T.tolist()):
            path, i = [], width - length
            while i < width:
                path.append(ids[i])
                i += len(names[ids[i]])
            cache[word] = tuple(names[p] for p in path), tuple(path)
    return [cache[w] for w in words]


def viterbi_segment_words(vocab, words):
    """Segment a word sequence; each word independently, marker-prefixed."""
    return Segmentation(_viterbi_records(vocab, words))


# ---------------------------------------------------------------------------
# FFBS sampling


class _LockstepTable:
    """The FFBS lattices of every word seen at one alpha, stacked so that
    all tokens of a call take their backward cuts together, and the trie of
    the paths drawn through them.

    Row r of ``cdf`` is one end position of one word type's lattice: the
    normalised CDF over the pieces ending there after a reachable position,
    each weighted by its start's forward mass times P(piece)^alpha and
    built as ``Generator.choice`` builds it, padded with inf (which no
    uniform reaches).  An inverse-CDF draw at each backward cut gives each
    path probability P(s)^alpha / Z.  ``after[r]`` holds, per piece, the
    row of the position it starts at.  Word type k (numbered in order of
    first sight) has a form of ``length[k]`` characters, whose position
    j > 0 is row ``offset[k] + j``.  Position 0 of every word is row 0,
    which is all padding.

    Trie node ``root[k]`` is word type k's empty path, and ``child[node,
    pick]`` the node one cut further, by piece ``pick`` of the row's CDF (-1
    until drawn).  Node n's last cut reached row ``row[n]``, below node
    ``parent[n]`` (-1 - k at a root).  A node at row 0 is one complete (type,
    path) draw, numbered once: its number is the draw id ``record`` reads.
    """

    def __init__(self, vocab, alpha):
        self.vocab, self.alpha = vocab, alpha
        with np.errstate(over="ignore"):   # a weight of -inf: ``_add`` names its words
            self.weights = np.append(alpha * vocab._logp, _NEG_INF)   # by piece id
        self.type_of = {}                   # word -> type
        self.words = []                     # type -> word
        self.offset, self.length, self.root, self.parent, self.row = np.zeros((5, 0), np.intp)
        self.cdf = np.full((1, 1), np.inf)
        self.after = np.zeros((1, 1), dtype=np.uint32)
        self.child = np.zeros((0, 1), np.intp)
        self.records = {}                   # draw id -> its record, on first sight

    def type_ids(self, words):
        """Each word's type, adding the lattices of words not seen before."""
        new = list(dict.fromkeys(w for w in words if w not in self.type_of))
        if new:
            self._add(new)
        return np.fromiter(map(self.type_of.__getitem__, words), dtype=np.intp, count=len(words))

    def _add(self, words):
        vocab = self.vocab
        forms = [vocab.word_form(w) for w in words]
        vocab._check_coverage("".join(forms))
        starts, ends, pid = _lattice(vocab.piece_to_id, forms, vocab.max_piece_len)
        logf = _grid_forward(starts, ends, self.weights[pid])
        lengths = np.fromiter(map(len, forms), np.intp, len(forms))
        # covered, so only the alpha * log p sums can fail
        if (bad := np.flatnonzero(logf[lengths, np.arange(len(forms))] == _NEG_INF)).size:
            raise ValueError(f"sample_segment_words: alpha {self.alpha!r} overflows "
                             f"the path scores of word {words[bad[0]]!r}")
        offset = len(self.cdf) - 1 + np.cumsum(lengths) - lengths
        # each piece after a reachable start, as (form, column): by CDF row
        # (the form, then the piece's end), then by start
        form, col = np.nonzero(((pid < len(vocab)) & (logf[starts] > _NEG_INF)).T)
        start, row = starts[col], offset[form] + ends[col] - len(self.cdf)
        with np.errstate(over="ignore"):
            logw = logf[start, form] + self.weights[pid[col, form]]
        size = np.bincount(row, minlength=lengths.sum())
        first = np.cumsum(size) - size
        width = max(self.cdf.shape[1], size.max(initial=0))
        cdf = np.full((size.size, width), np.inf)
        after = np.zeros((size.size, width), dtype=np.uint32)
        after[row, np.arange(row.size) - first[row]] = np.where(start > 0, offset[form] + start, 0)
        # the rows of n pieces together, unpadded: a row's sums add its own
        # pieces alone, in numpy's order for n numbers, as one row alone would
        for n in sorted(set(size.tolist()) - {0}):
            index = np.flatnonzero(size == n)
            logw_n = logw[first[index, None] + np.arange(n)]
            p = np.exp(logw_n - logw_n.max(axis=1, keepdims=True))
            cumulative = (p / p.sum(axis=1, keepdims=True)).cumsum(axis=1)
            cdf[index, :n] = cumulative / cumulative[:, -1:]
        pad = ((0, 0), (0, width - self.cdf.shape[1]))
        self.cdf = np.concatenate((np.pad(self.cdf, pad, constant_values=np.inf), cdf))
        self.after = np.concatenate((np.pad(self.after, pad), after))
        self.child = np.pad(self.child, pad, constant_values=-1)
        self.offset = np.concatenate((self.offset, offset))
        self.length = np.concatenate((self.length, lengths))
        types = np.arange(len(self.words), len(self.words) + len(words))
        self.root = np.concatenate((self.root, self._nodes(-1 - types, offset + lengths)))
        self.type_of.update(zip(words, types.tolist()))
        self.words += words
        _viterbi_records(vocab, words)   # what ``record`` compares draws with, in one DP

    def _nodes(self, parent, row):
        """The ids of new trie nodes, one per ``parent`` and ``row``; a node
        at row 0, whose path is complete, is its own child at every step."""
        ids = np.arange(self.row.size, self.row.size + row.size)
        self.parent = np.concatenate((self.parent, parent))
        self.row = np.concatenate((self.row, row))
        child = np.full((row.size, self.child.shape[1]), -1)
        child[row == 0, 0] = ids[row == 0]   # row 0 is all padding: pick 0
        self.child = np.concatenate((self.child, child))
        return ids

    def draws(self, types, rng):
        """Backward sampling of one path per token, all tokens in lockstep:
        each token's draw id.

        Draws ``rng.random((tokens, longest form))``; token t's k-th cut
        reads column k and bisects its current CDF row (the rows are sorted,
        so the first entry above the uniform is the first False of the
        comparison), and steps down the trie.  A step no token took before
        adds its node.
        """
        length = self.length[types]
        u = rng.random((types.size, int(length.max(initial=0))))
        node, rows, width = self.root[types], self.offset[types] + length, self.child.shape[1]
        for k in range(u.shape[1]):
            pick = (self.cdf.take(rows, axis=0) <= u[:, k, None]).argmin(axis=1)
            rows = self.after[rows, pick]
            key = node * width + pick
            if (node := self.child.ravel()[key]).min() < 0:
                new = np.array(list(dict.fromkeys(key[node < 0].tolist())))
                parent = new // width
                ids = self._nodes(parent, self.after[self.row[parent], new % width])
                self.child.ravel()[new] = ids
                node = self.child.ravel()[key]
            if not np.count_nonzero(rows):
                break
        return node

    def record(self, draw):
        """The ``(pieces, ids)`` record of a draw id, built on first sight: a
        draw equal to the word's Viterbi segmentation is the Viterbi cache's
        record."""
        if (found := self.records.get(draw)) is None:
            node, bounds = draw, []
            while node >= 0:   # up to the root: rows 0, the cuts, the form's end
                bounds.append(int(self.row[node]))
                node = int(self.parent[node])
            word, base = self.words[-1 - node], int(self.offset[-1 - node])
            text, bounds = self.vocab.word_form(word), [b - base if b else 0 for b in bounds]
            drawn = _word_record(self.vocab, [text[a:b] for a, b in zip(bounds, bounds[1:])])
            viterbi = self.vocab._word_viterbi[word]   # filled by ``_add``
            found = self.records[draw] = viterbi if drawn == viterbi else drawn
        return found


def sample_segment_words(vocab, types, alpha, rng):
    """FFBS sampling of every token of a flat list of word types (of
    ``vocab.sampler(alpha).type_ids``), each independently, all of them in
    lockstep: one draw id per token (``_LockstepTable.draws``), whose
    record the sampler's ``record`` gives."""
    return vocab.sampler(alpha).draws(types, rng)


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
    try:
        return UnigramVocab(pieces, marker=marker)
    except VocabFormatError as err:   # a whole-vocabulary fault
        raise VocabFormatError(f"{path}: {err}") from None


def save_vocab(vocab, path):
    with open(path, "w", encoding="utf-8") as fh:
        for piece, lp in vocab.pieces.items():
            fh.write(f"{piece}\t{lp!r}\n")


# ---------------------------------------------------------------------------
# Vocabulary estimation (simplified unigram EM)


def em_fit(pieces, corpus_counts, iters):
    """Run EM sweeps on a fixed piece inventory.

    Returns (new log-probs, expected counts from the last E-step, per-sweep
    corpus log-likelihood).  The likelihood trace is non-decreasing up to
    float rounding; that is asserted by the tests.  A -inf term leaves a
    log-mass bit for bit as it was, so each string's sums over the grid are
    those of its own lattice; its expected counts add by end, then start,
    then times its frequency across strings in corpus order.
    """
    names, texts, freqs = list(pieces), list(corpus_counts), list(corpus_counts.values())
    n = len(names)
    # each span's inventory index; n, a -inf weight, where it is no piece or past the end
    starts, ends, pid = _lattice({p: k for k, p in enumerate(names)}, texts,
                                 max(map(len, names), default=0))
    back = sorted(range(len(starts)), key=lambda c: (-starts[c], ends[c]))   # by start, descending
    backward = list(zip(starts[back].tolist(), ends[back].tolist()))
    at_end = np.fromiter(map(len, texts), np.intp, len(texts)), np.arange(len(texts))
    # each (string, column) holding a piece, string by string, and its
    # (string, piece) slot, numbered as first seen, so in string order (a
    # dict: np.unique's sort would page in ~0.6 MB more of numpy's code)
    s_of, c_of = np.nonzero(pid.T < n)
    p_of, i_of, j_of = pid[c_of, s_of], starts[c_of], ends[c_of]
    seen = {}
    slot_of = np.array([seen.setdefault(k, len(seen)) for k in (s_of * n + p_of).tolist()],
                       dtype=np.intp)
    slots = np.array(list(seen), dtype=np.intp)
    slot_freq = np.array(freqs, dtype=float)[slots // n]
    lps, ll_trace, live, c = list(pieces.values()), [], np.zeros(0, dtype=np.intp), np.zeros(n)
    for _ in range(iters):
        w = np.append(lps, _NEG_INF)
        weights = w[pid]
        loga = _grid_forward(starts, ends, weights)
        logb = np.full(loga.shape, _NEG_INF)
        logb[at_end] = 0.0
        logb = _grid_sums(logb, backward, weights[back])
        logz = loga[at_end]
        a, b, z = loga[i_of, s_of], logb[j_of, s_of], logz[s_of]
        live = np.flatnonzero((a > _NEG_INF) & (b > _NEG_INF) & (z > _NEG_INF))
        # math.exp, not np.exp, whose vector loop need not match libm
        mass = list(map(math.exp, (((a[live] + w[p_of[live]]) + b[live]) - z[live]).tolist()))
        by_slot = np.bincount(slot_of[live], weights=mass, minlength=slots.size)
        c = np.bincount(slots % n, weights=slot_freq * by_slot, minlength=n)
        ll = 0.0
        for freq, logz_s in zip(freqs, logz.tolist()):
            if logz_s != _NEG_INF:
                ll += freq * logz_s
        ll_trace.append(ll)
        total = math.fsum(c.tolist())
        lps = [math.log(x / total) for x in np.maximum(c, 1e-12 * max(total, 1.0)).tolist()]
    c = c.tolist()
    counts = {names[k]: c[k] for k in dict.fromkeys(p_of[live].tolist())}
    return dict(zip(names, lps)), counts, ll_trace


def build_vocab(corpus, target_size, max_piece_len=8, em_iters=4, marker=DEFAULT_MARKER):
    """Estimate a unigram vocabulary from an iterable of strings.

    Seeds candidates from frequent substrings, then alternates EM sweeps with
    pruning of the 20% lowest expected-count multi-character pieces until the
    inventory reaches ``target_size``.  Single characters are never pruned,
    so every training string stays segmentable.
    """
    if max_piece_len < 1:
        raise ValueError(f"build_vocab: max_piece_len must be >= 1, got {max_piece_len}")
    if em_iters < 1:
        raise ValueError(f"build_vocab: em_iters must be >= 1, got {em_iters}")
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
