"""A deliberately tiny trainable encoder plus the three task heads.

The encoder is one embedding-sum + mixing layer: enough to carry gradients
through the consistency losses without confounding the mechanism checks with
backbone capacity.  All heads emit log-probability distributions.

Every forward pass runs over a ``Packing``, built from arrays: the subword
rows of its sequences in one matrix, with the sequence and word of each.
The encoder mixes no positions, so a packed forward equals the per-sequence
forwards row for row; per-sequence work (pooling, span softmax) is a
segment reduction, and a whole batch is one graph whose node count does
not grow with the batch.  A row without encode noise depends only on its
(piece id, position) pair, so ``encode`` computes each distinct pair once.
Training and eval intern every word record into a ``RecordTable`` and
gather their packings from it by record id.

``predict`` decides which rows each task's distributions lie on and returns
them as ``Prediction.rows``, which the task loss, both regularizers and the
decoder read.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from . import tokenizer as tok
from .data import TASKS, per_sequence

POOLINGS = ("first_subword", "average")

INIT_SCALE = 0.02
# v2 records the labeling pooling; a v1 checkpoint predates it and pools by first subword
CHECKPOINT_HEADER = "xtune-params v2"
CHECKPOINT_HEADERS = ("xtune-params v1", CHECKPOINT_HEADER)


class ModelParams:
    """Encoder + one task head, all as autodiff leaf tensors.

    ``pooling`` is how a labeling model pools subwords into words (default
    first_subword); other tasks have none.
    """

    def __init__(self, task, vocab_size, dim, max_len, n_label=None, rng=None, pooling=None):
        if task not in TASKS:
            raise ValueError(f"unknown task {task!r}")
        if task in ("classification", "labeling") and not n_label:
            raise ValueError(f"{task} model needs n_label")
        pooling = (pooling or "first_subword") if task == "labeling" else None
        if pooling not in POOLINGS + (None,):
            raise ValueError(f"unknown pooling {pooling!r}, expected one of {POOLINGS}")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.task = task
        self.vocab_size = vocab_size
        self.dim = dim
        self.max_len = max_len
        self.n_label = n_label
        self.pooling = pooling

        def w(*shape):
            return ad.Tensor(rng.normal(0.0, INIT_SCALE, shape))

        self.tensors = {
            "embeddings": w(vocab_size, dim),
            "positions": w(max_len, dim),
            "mix_weight": w(dim, dim),
            "mix_bias": ad.Tensor(np.zeros(dim)),
        }
        if task == "span":
            self.tensors["start_weight"] = w(dim, 1)
            self.tensors["end_weight"] = w(dim, 1)
        else:
            self.tensors["head_weight"] = w(dim, n_label)
            self.tensors["head_bias"] = ad.Tensor(np.zeros(n_label))

    def __getitem__(self, name):
        return self.tensors[name]

    def parameters(self):
        return list(self.tensors.values())

    def zero_grads(self):
        ad.zero_grads(self.parameters())

    def flatten(self):
        """Make the tensors' values views of one new flat vector, in order, and return it."""
        parts = [t.data.ravel() for t in self.parameters()]
        flat = np.concatenate(parts)
        for t, a in zip(self.parameters(), np.cumsum([0] + [part.size for part in parts])):
            t.data = flat[a:a + t.data.size].reshape(t.data.shape)
        return flat

    def meta(self):
        """The checkpoint metadata: the architecture and the pooling."""
        return {"task": self.task, "vocab_size": self.vocab_size, "dim": self.dim,
                "max_len": self.max_len, "n_label": self.n_label, "pooling": self.pooling}

    def same_architecture(self, other):
        return {**self.meta(), "pooling": None} == {**other.meta(), "pooling": None}


class Packing:
    """Sequences of words, built from ``n_words`` per sequence, pieces per
    word (``word_lengths``) and the piece ``ids``, all in order.

    Each word's pieces are consecutive subword rows.  Sequence k owns rows
    ``starts[k]:starts[k] + lengths[k]`` and word rows
    ``word_starts[k]:word_starts[k] + n_words[k]``.  Per row, ``seq`` is its
    sequence, ``positions`` its position there, ``ids`` its vocabulary id
    and ``word_of_row`` its word row; ``first_rows`` holds the row of each
    word's first subword.  The per-row arrays but ``ids`` are computed on
    first use, so a packing read only by ``gather`` or ``take`` pays for no
    row it does not read.
    """

    def __init__(self, n_words, word_lengths, ids):
        if not n_words.size:
            raise ValueError("nothing to pack: no sequences")
        self.n_words, self.word_lengths, self.ids = n_words, word_lengths, ids
        self.word_starts = np.cumsum(n_words) - n_words
        # first row of each word, then the row count
        bounds = np.concatenate(([0], np.cumsum(word_lengths)))
        self.first_rows = bounds[:-1]
        self.starts = bounds[self.word_starts]
        self.lengths = bounds[self.word_starts + n_words] - self.starts

    @cached_property
    def seq(self):
        return np.repeat(np.arange(self.n_words.size), self.lengths)

    @cached_property
    def positions(self):
        return np.arange(self.seq.size) - self.starts[self.seq]

    @cached_property
    def word_of_row(self):
        return np.repeat(np.arange(self.word_lengths.size), self.word_lengths)

    @classmethod
    def of(cls, segmentations):
        """The packing of a list of segmentations' word records."""
        records = [r for s in segmentations for r in s.words]
        return cls(np.array([len(s.words) for s in segmentations], dtype=np.intp),
                   np.array([len(ids) for _, ids in records], dtype=np.intp),
                   np.fromiter(chain.from_iterable(ids for _, ids in records), np.intp))

    def gather(self, n_words, words):
        """The packing of sequences of this packing's word rows ``words``, in
        order: sequence k holds the next ``n_words[k]`` of them."""
        pieces = self.word_lengths[words]
        return Packing(n_words, pieces, self.ids[layout_rows(self.first_rows[words], pieces)])

    def take(self, index):
        """The sequences ``index`` (an index array or a slice) selects, in order."""
        n_words = self.n_words[index]
        return self.gather(n_words, layout_rows(self.word_starts[index], n_words))

    def __len__(self):
        return self.n_words.size


class RecordTable:
    """Word records numbered first seen first: record r is ``records[r]``,
    a ``tokenizer.Segmentation`` word record, and word r of one sequence's
    ``Packing``.  Sequence k of ``n_words`` and record ids ``rids`` holds
    the next ``n_words[k]`` ids.  The records of one FFBS sampler's draws
    are looked up by draw id (``drawn``).
    """

    def __init__(self, vocab):
        self.vocab, self.records, self._ids, self._viterbi, self._words = vocab, [], {}, {}, None
        self._drawn = np.zeros(0, np.intp)   # draw id -> record id, -1 until first drawn

    def intern(self, records):
        """Each record's id, numbering the records not seen before."""
        ids = self._ids
        rids = np.fromiter((ids.setdefault(r, len(ids)) for r in records), np.intp, len(records))
        self.records += islice(ids, len(self.records), None)
        return rids

    def viterbi(self, words, n_words, name):
        """The id of each word's Viterbi record: one ``viterbi_segment_words``
        call segments the words not seen before.  An uncovered character
        raises ``name_uncovered``'s error."""
        known = self._viterbi
        new = [w for w in dict.fromkeys(words) if w not in known]
        try:
            known.update(zip(new, self.intern(tok.viterbi_segment_words(self.vocab, new).words)))
        except tok.CoverageError as err:
            raise name_uncovered(self.vocab, words, n_words, name, err) from None
        return np.fromiter(map(known.__getitem__, words), np.intp, len(words))

    def drawn(self, sampler, draws):
        """The record id of each of ``sampler``'s draw ids ``draws`` (a
        tokenizer ``_LockstepTable``, one per table): an array lookup, which
        interns the records of draws not seen before."""
        if (grow := sampler.row.size - self._drawn.size) > 0:
            self._drawn = np.concatenate((self._drawn, np.full(grow, -1)))
        if (new := draws[self._drawn[draws] < 0]).size:
            new = list(dict.fromkeys(new.tolist()))
            self._drawn[new] = self.intern(list(map(sampler.record, new)))
        return self._drawn[draws]

    def _table(self):
        """The records as one sequence's ``Packing``, rebuilt after additions."""
        if self._words is None or self._words.word_lengths.size < len(self.records):
            self._words = Packing.of([tok.Segmentation(self.records)])
        return self._words

    def pack(self, n_words, rids):
        """The packing of the sequences."""
        return self._table().gather(n_words, rids)

    def lengths(self, n_words, rids):
        """The subword count of each sequence."""
        return per_sequence(self._table().word_lengths[rids], n_words)


def sequence_of(n_words, t):
    """The sequence of ``n_words`` that holds flat word ``t``: sequence k
    holds the next ``n_words[k]`` words of a flat word list."""
    return int(np.searchsorted(np.cumsum(n_words), t, "right"))


def name_uncovered(vocab, words, n_words, name, err):
    """``err``, a CoverageError, led by ``name(k)``: k is the first sequence
    of ``n_words`` (each the next ``n_words[k]`` of the flat ``words``) to
    hold a character ``vocab`` does not cover."""
    bad = next(t for t, w in enumerate(words) if not vocab.alphabet.issuperset(w))
    return tok.CoverageError(f"{name(sequence_of(n_words, bad))}: {err}")


class RowTable(NamedTuple):
    """Log-probability rows of a list of sequences: tensors in a
    ``Prediction``, arrays in a ``Prediction.row_table``.

    Sequence k owns the ``counts[k]`` rows from ``first[k]`` of each of
    ``outputs``: one ``(rows, n_label)`` label output with a row per
    sequence (classification) or word (labeling), or a span's start and end
    outputs over its subword rows.
    """

    first: np.ndarray
    counts: np.ndarray
    outputs: tuple

    @classmethod
    def join(cls, tables):
        """One table of the tables' sequences, in order."""
        counts = np.concatenate([t.counts for t in tables])
        return cls(np.cumsum(counts) - counts, counts,
                   tuple(np.concatenate(parts) for parts in zip(*(t.outputs for t in tables))))

    def take(self, index):
        """The table of the sequences that ``index`` lists, in its order:
        one gather per output."""
        counts = self.counts[index]
        first = np.cumsum(counts) - counts
        rows = layout_rows(self.first[index], counts)
        return RowTable(first, counts, tuple(out[rows] for out in self.outputs))


@dataclass
class Prediction:
    """One packed forward pass: its packing and its rows, a ``RowTable``."""

    task: str
    packing: Packing
    rows: RowTable

    def row_table(self):
        """The values of every sequence's rows, as constant arrays."""
        return self.rows._replace(outputs=tuple(out.data for out in self.rows.outputs))


def layout_rows(first, counts):
    """The rows ``first[k]:first[k] + counts[k]`` of every k, concatenated
    in order."""
    shift = np.repeat(first - (np.cumsum(counts) - counts), counts)
    return shift + np.arange(shift.size)


def encode(params, packing, noises=None):
    """Hidden states tanh((E[ids] + P[positions] + eps) W + b), one row per
    packed subword.  Without noise each distinct (piece id, position) pair
    is computed once, numbered through a slot table of vocab_size x longest
    entries (< 100 KB here), and its rows gathered.  That is exact: a pair's
    row is the same expression on the same operands wherever it occurs, and
    the backward replays the row-wise chain.

    ``noises`` holds, per sequence, None or an (n_pieces, dim) encode-noise
    draw, so that two forward passes can share one realization
    (teacher/student on the same noisy input).
    """
    longest = int(packing.lengths.max())
    if longest > params.max_len:
        raise ValueError(f"input of {longest} subwords exceeds max_len {params.max_len}")
    # a misfit noise block changes the row count, which ``embed_mix`` rejects
    noise = None if noises is None or all(n is None for n in noises) else np.concatenate([
        np.zeros((n, params.dim)) if draw is None else draw
        for n, draw in zip(packing.lengths, noises)])
    return ad.embed_mix(params["embeddings"], params["positions"], params["mix_weight"],
                        params["mix_bias"], packing.ids, packing.positions, noise)


def predict(params, packing, noises=None):
    """Task-head forward pass over a ``Packing``.

    The rows of the returned ``Prediction`` are normalized log-prob
    distributions: one label row per sequence (classification) or per word
    (labeling, pooled by ``params.pooling``), or one start and one end
    distribution per sequence over its subword rows (span).
    """
    hidden = encode(params, packing, noises)

    if params.task == "span":
        def head(name):
            logits = ad.reshape(ad.matmul(hidden, params[name]), (packing.seq.size,))
            return ad.segment_log_softmax(logits, packing.seq, len(packing))

        return Prediction("span", packing, RowTable(
            packing.starts, packing.lengths, (head("start_weight"), head("end_weight"))))

    if params.task == "classification":
        first, counts = np.arange(len(packing)), np.ones(len(packing), dtype=np.intp)
        reps = ad.segment_mean(hidden, packing.seq, len(packing))
    else:
        first, counts = packing.word_starts, packing.n_words
        if params.pooling == "average":
            reps = ad.segment_mean(hidden, packing.word_of_row, packing.first_rows.size)
        else:
            reps = ad.gather(hidden, packing.first_rows)
    logits = ad.add_rowvec(ad.matmul(reps, params["head_weight"]), params["head_bias"])
    return Prediction(params.task, packing,
                      RowTable(first, counts, (ad.log_softmax(logits, axis=1),)))


def task_loss(prediction, labeled, gold):
    """Mean negative log-likelihood over the packed sequences ``labeled``.

    ``labeled`` indexes ``prediction``'s sequences; ``gold`` is their gold
    in ``data.Corpus.golds``' layout: a label id per sequence
    (classification), a (start, end) row of word indices within its
    sequence (span, as ``evaluate.decode`` returns them), or the tag ids of
    their words, in order (labeling).  A span word's log-probabilities are
    those of its first-subword row in ``prediction.packing``.  Each gold
    log-probability gets a constant weight, so the loss is one sum: a
    labeled sequence's share is split evenly over its label rows in
    ``prediction.rows``.
    """
    first, counts, outputs = prediction.rows
    if not len(labeled):
        raise ValueError("no sequence carries a gold payload")
    share, gold = -1.0 / len(labeled), np.asarray(gold, dtype=np.intp)

    if prediction.task == "span":
        packing, n = prediction.packing, prediction.packing.n_words[labeled]
        if (bad := ((gold < 0) | (gold >= n[:, None])).any(axis=1)).any():
            k = np.flatnonzero(bad)[0]
            raise ValueError(f"span {tuple(gold[k].tolist())} out of range for {n[k]} words")
        weights = np.zeros((2,) + outputs[0].shape)   # start and end weights
        weights[[0, 1], packing.first_rows[packing.word_starts[labeled][:, None] + gold]] = share
        return ad.add(*(ad.sum(ad.mul(out, ad.constant(w))) for out, w in zip(outputs, weights)))

    (log,) = outputs
    n = counts[labeled]
    if gold.size != n.sum():
        raise ValueError(f"{gold.size} tags for {n.sum()} words" if prediction.task == "labeling"
                         else f"{gold.size} labels for {n.size} labeled sequences")
    if gold.min() < 0 or gold.max() >= log.shape[1]:
        bad = gold[(gold < 0) | (gold >= log.shape[1])][0]
        raise ValueError(f"label {bad} out of range for {log.shape[1]} classes")
    weights = np.zeros(log.shape)
    weights[layout_rows(first[labeled], n), gold] = np.repeat(share / n, n)
    return ad.sum(ad.mul(log, ad.constant(weights)))


# ---------------------------------------------------------------------------
# Checkpoints: versioned plain-text dump, byte-stable across identical runs.


def save_params(params, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(CHECKPOINT_HEADER + "\n")
        fh.write(json.dumps(params.meta(), sort_keys=True) + "\n")
        for name, tensor in params.tensors.items():
            dims = " ".join(str(d) for d in tensor.data.shape)
            fh.write(f"tensor {name} {dims}\n")
            # float.hex over the array itself: a ``tolist`` of every value
            # left ~0.3 MB more allocator residency after ``xtune train``
            fh.write(" ".join(map(float.hex, tensor.data.reshape(-1))) + "\n")


def load_params(path):
    """Read a checkpoint.  Every tensor record must name a tensor of the
    model the metadata describes, once, with that tensor's shape and value
    count, and no tensor may be missing; a bad record raises ValueError
    naming ``path:line``."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header not in CHECKPOINT_HEADERS:
            raise ValueError(f"{path}:1: unknown checkpoint header {header!r}")
        try:
            meta = json.loads(fh.readline())
            params = ModelParams(
                meta["task"], meta["vocab_size"], meta["dim"], meta["max_len"],
                n_label=meta["n_label"],
                pooling=meta["pooling"] if header == CHECKPOINT_HEADER else None,
            )
        except (KeyError, TypeError, ValueError) as err:
            raise ValueError(f"{path}:2: bad checkpoint metadata ({err!r})") from None
        lines = enumerate(fh, start=3)
        loaded = set()
        lineno = 2
        for lineno, line in lines:
            fields = line.split()
            if len(fields) < 2 or fields[0] != "tensor":
                raise ValueError(f"{path}:{lineno}: malformed tensor record {line!r}")
            name, dims = fields[1], fields[2:]
            where = f"{path}:{lineno}: tensor {name!r}"
            if name not in params.tensors or name in loaded:
                raise ValueError(f"{where} is {'repeated' if name in loaded else 'unknown'}")
            shape = params.tensors[name].data.shape
            if dims != [str(d) for d in shape]:
                raise ValueError(f"{where} has shape ({', '.join(dims)}), expected {shape}")
            lineno, values = next(lines, (lineno + 1, ""))
            values = values.split()
            try:
                data = np.fromiter(map(float.fromhex, values), float, len(values)).reshape(shape)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: tensor {name!r} needs {math.prod(shape)} "
                                 f"hex float values, got {len(values)} fields") from None
            params.tensors[name] = ad.Tensor(data)
            loaded.add(name)
    missing = [name for name in params.tensors if name not in loaded]
    if missing:
        raise ValueError(f"{path}:{lineno + 1}: missing tensor(s) {missing}")
    return params
