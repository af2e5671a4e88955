"""Reference implementations the tests check the package against.

``enumerate_segmentations`` lists every segmentation of a short string, the
oracle for Viterbi, FFBS sampling and the lattice partition function.
``viterbi_pieces`` is the Viterbi DP as the package ran it before it walked
a span table: it matches every substring against the inventory itself.

``em_fit`` is the vocabulary EM as the package ran it before the E-step
moved onto a per-phase span table: every sweep rescans every substring of
every string and adds log-masses with scalar ``np.logaddexp``.
``lattice_logf`` is the FFBS forward filter as a numpy array.
``sample_segment_words`` and ``code_switch`` draw a whole call's views one
token at a time with scalar lookups, reading the same uniform block as the
package's lockstep and array code.  ``decode_span`` decodes each sequence of
a packed span prediction on its own, over the full matrix of pair sums.  The
package must match each of them bit for bit and draw for draw.

``epoch_views`` draws an epoch's SS or CS pair views word by word, as
the trainer did before its views were record ids from the draw on: the
items' words in epoch order, read from the stage's columns,
``sample_segment_words`` records compared with Viterbi's, or
``code_switch`` words segmented by Viterbi.

``Example`` is one task instance as the package held it before it kept
columns; ``examples`` reads a ``data.Corpus`` into them and ``corpus``
checks them back into one, through each one's JSON ``record``.
``load_jsonl_per_record`` loads a JSON-lines file one record at a time, as
the package did before it checked columns: the columnar loader must name
the same line with the same message and return the same examples.
``generate_cipher_examples`` renders the cipher benchmark one sentence and
language at a time, with ``classification_label`` and ``labeling_tags``
per sentence, as the package did before it rendered columns from a flat
lemma array: the columnar generator must give the same examples and store.

The rest is the per-example reference for the packed forward, task loss and
regularizers: the one-graph-per-example path the package used before
batches were packed.  Every sequence gets its own encoder graph, built
with ``tanh``, the node the package fuses into ``autodiff.embed_mix``, and a
batch's loss components are means of per-example scalar nodes.  Tests
compare the packed path against it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from xtune import autodiff as ad
from xtune import consistency as cons
from xtune import data
from xtune import tokenizer as tok

_ENUM_MAX_CHARS = 12


def tanh(a):
    """A tanh node.  The package fuses tanh into ``autodiff.embed_mix``; the
    per-example reference encoder and the engine tests compose it alone."""
    out = np.tanh(a.data)
    return ad._node(out, "tanh", (a,), lambda g: (g * (1.0 - out * out),))


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
            out.append((tok.Segmentation([tok._word_record(vocab, pieces)]), math.exp(logp)))
            return
        for j in range(i + 1, min(i + vocab.max_piece_len, n) + 1):
            lp = vocab.pieces.get(text[i:j])
            if lp is not None:
                walk(j, pieces + [text[i:j]], logp + lp)

    walk(0, [], 0.0)
    return out


def viterbi_pieces(vocab, text):
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
        raise tok.CoverageError(f"text {text!r} cannot be segmented")
    pieces = []
    i = 0
    while i < n:
        j = best[i][2]
        pieces.append(text[i:j])
        i = j
    return pieces


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
    corpus log-likelihood).
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


def lattice_logf(vocab, text, alpha):
    """``logf[j]``, the log total tempered mass of all segmentations of
    text[:j], as a numpy array filled with scalar ``np.logaddexp``."""
    n = len(text)
    logf = np.full(n + 1, -np.inf)
    logf[0] = 0.0
    for j in range(1, n + 1):
        for i in range(max(0, j - vocab.max_piece_len), j):
            lp = vocab.pieces.get(text[i:j])
            if lp is None or logf[i] == -np.inf:
                continue
            logf[j] = np.logaddexp(logf[j], logf[i] + alpha * lp)
    return logf


def sample_segment_words(vocab, words, alpha, rng):
    """FFBS over a flat token list one token and one cut at a time, from the
    same ``(tokens, longest form)`` uniform block the package draws: token
    t's k-th backward cut bisects, with ``u[t, k]``, the categorical over the
    pieces ending at the cut, rebuilt from the vocabulary as
    ``Generator.choice`` builds it.  Returns each token's pieces."""
    forms = [vocab.word_form(w) for w in words]
    u = rng.random((len(forms), max(map(len, forms), default=0)))
    drawn = []
    for t, text in enumerate(forms):
        logf = lattice_logf(vocab, text, alpha)
        cuts = [len(text)]
        while cuts[-1] > 0:
            j = cuts[-1]
            starts = [i for i in range(max(0, j - vocab.max_piece_len), j)
                      if text[i:j] in vocab.pieces and logf[i] != -np.inf]
            logw = np.array([logf[i] + alpha * vocab.pieces[text[i:j]] for i in starts])
            p = np.exp(logw - logw.max())
            cdf = (p / p.sum()).cumsum()
            k = len(cuts) - 1
            cuts.append(starts[int(np.searchsorted(cdf / cdf[-1], u[t, k], side="right"))])
        cuts.reverse()
        drawn.append([text[a:b] for a, b in zip(cuts[:-1], cuts[1:])])
    return drawn


def code_switch(words, dictionaries, word_ratio, rng):
    """A code-switched view of a flat word list, word by word, from the same
    ``(words, 3)`` uniform block the package draws: word t switches when
    ``u[t, 0] < word_ratio`` and a dictionary lists it, then takes
    dictionary ``int(u[t, 1] * n)`` of the n listing it and option
    ``int(u[t, 2] * m)`` of that one's m.  Returns the view's words and
    each word's modified flag."""
    u = rng.random((len(words), 3))
    view, modified = [], []
    for t, word in enumerate(words):
        applicable = [d.entries[word.casefold()] for d in dictionaries
                      if word.casefold() in d.entries]
        switched = bool(applicable and u[t, 0] < word_ratio)
        if switched:
            options = applicable[int(u[t, 1] * len(applicable))]
            word = options[int(u[t, 2] * len(options))]
        view.append(word)
        modified.append(switched)
    return view, modified


def epoch_views(stage, order, kind, cfg, res, rng):
    """The SS or CS pair views of a ``trainer._StageTable``'s items in
    ``order``, drawn over their words as one list: each word's view record
    and modified flag.  An SS word is modified when its drawn record is not
    its Viterbi record, also on an item with a pinned segmentation."""
    starts, n_words = stage.packing.word_starts.tolist(), stage.packing.n_words.tolist()
    words = [w for i in order for w in stage.words[starts[i]:starts[i] + n_words[i]]]
    if kind == "SS":
        drawn = [tok._word_record(res.vocab, pieces)
                 for pieces in sample_segment_words(res.vocab, words, cfg.ss_alpha, rng)]
        viterbi = tok.viterbi_segment_words(res.vocab, words).words
        return drawn, [record != v for record, v in zip(drawn, viterbi)]
    view, modified = code_switch(words, res.dictionaries, cfg.cs_word_ratio, rng)
    return tok.viterbi_segment_words(res.vocab, view).words, modified


@dataclass
class Prediction:
    task: str
    class_log: ad.Tensor | None = None  # (n_label,)
    start_log: ad.Tensor | None = None  # (n_subword,)
    end_log: ad.Tensor | None = None    # (n_subword,)
    word_log: ad.Tensor | None = None   # (n_word, n_label)


def encode(params, segmentation, noise=None):
    ids = [i for _, word_ids in segmentation.words for i in word_ids]
    n = len(ids)
    x = ad.add(
        ad.gather(params["embeddings"], ids),
        ad.gather(params["positions"], list(range(n))),
    )
    if noise is not None:
        x = ad.add(x, ad.constant(noise))
    return tanh(ad.add_rowvec(ad.matmul(x, params["mix_weight"]), params["mix_bias"]))


def predict(params, segmentation, noise=None):
    hidden = encode(params, segmentation, noise)
    if params.task == "classification":
        # constant pooling row, 1/n per piece
        n = segmentation.n_pieces
        pooled = ad.matmul(ad.constant(np.full((1, n), 1.0 / n)), hidden)
        logits = ad.add_rowvec(ad.matmul(pooled, params["head_weight"]), params["head_bias"])
        return Prediction("classification",
                          class_log=ad.log_softmax(ad.reshape(logits, (params.n_label,))))
    if params.task == "span":
        n = segmentation.n_pieces
        start = ad.log_softmax(ad.reshape(ad.matmul(hidden, params["start_weight"]), (n,)))
        end = ad.log_softmax(ad.reshape(ad.matmul(hidden, params["end_weight"]), (n,)))
        return Prediction("span", start_log=start, end_log=end)
    if params.pooling == "average":
        # constant pooling matrix, one row per word
        pool = np.zeros((len(segmentation.words), segmentation.n_pieces))
        for pos, w in enumerate(segmentation.word_index):
            pool[w, pos] = 1.0
        pool /= pool.sum(axis=1, keepdims=True)
        reps = ad.matmul(ad.constant(pool), hidden)
    else:
        reps = ad.gather(hidden, segmentation.first_subword_positions())
    logits = ad.add_rowvec(ad.matmul(reps, params["head_weight"]), params["head_bias"])
    return Prediction("labeling", word_log=ad.log_softmax(logits, axis=1))


def task_loss(prediction, gold):
    if prediction.task == "classification":
        return ad.scale(ad.sum(ad.gather(prediction.class_log, [int(gold)])), -1.0)
    if prediction.task == "span":
        picked = ad.add(ad.sum(ad.gather(prediction.start_log, [int(gold[0])])),
                        ad.sum(ad.gather(prediction.end_log, [int(gold[1])])))
        return ad.scale(picked, -1.0)
    n_words, n_label = prediction.word_log.shape
    onehot = np.zeros((n_words, n_label))
    onehot[np.arange(n_words), [int(t) for t in gold]] = 1.0
    picked = ad.sum(ad.mul(prediction.word_log, ad.constant(onehot)))
    return ad.scale(picked, -1.0 / n_words)


def _row(matrix_log, w):
    return ad.reshape(ad.gather(matrix_log, [w]), (matrix_log.shape[1],))


def _mean(nodes):
    acc = nodes[0]
    for node in nodes[1:]:
        acc = ad.add(acc, node)
    return ad.scale(acc, 1.0 / len(nodes))


def _skl(p_log, q_log):
    return cons.symmetric_kl(p_log, q_log, 1.0)


def example_consistency(pred, pred_aug, seg, seg_aug, modified):
    if pred.task == "classification":
        return _skl(pred.class_log, pred_aug.class_log)
    if pred.task == "span":
        if seg.pieces == seg_aug.pieces:
            return ad.add(_skl(pred.start_log, pred_aug.start_log),
                          _skl(pred.end_log, pred_aug.end_log))
        pos, pos_aug = cons.aligned_first_subword_positions(seg, seg_aug, modified)
        if not pos:
            return ad.constant(0.0)

        def restricted(vec_log, positions):
            return ad.log_softmax(ad.gather(vec_log, positions))

        return ad.add(
            _skl(restricted(pred.start_log, pos), restricted(pred_aug.start_log, pos_aug)),
            _skl(restricted(pred.end_log, pos), restricted(pred_aug.end_log, pos_aug)))
    n = pred.word_log.shape[0]
    return _mean([_skl(_row(pred.word_log, w), _row(pred_aug.word_log, w)) for w in range(n)])


def model_consistency(teacher_pred, student_pred):
    if teacher_pred.task == "classification":
        return cons.kl(ad.detach(teacher_pred.class_log), student_pred.class_log, 1.0)
    if teacher_pred.task == "span":
        return ad.add(cons.kl(ad.detach(teacher_pred.start_log), student_pred.start_log, 1.0),
                      cons.kl(ad.detach(teacher_pred.end_log), student_pred.end_log, 1.0))
    n = teacher_pred.word_log.shape[0]
    return _mean([cons.kl(ad.detach(_row(teacher_pred.word_log, w)),
                          _row(student_pred.word_log, w), 1.0) for w in range(n)])


def step_components(params, segs, noises, gold, pairs, teacher=None):
    """Task, pair and teacher loss nodes of one batch, built per example.

    Arguments are laid out as for the packed path: ``segs``/``noises``/
    ``gold`` list the batch's items and then their views (gold None for
    views and unlabeled items), ``pairs`` holds (item, view, modified):
    two sequence indices and the view's modified-word flags.  The teacher
    sees the items, the sequences that ``pairs`` never names as a view.  A component that
    does not apply is None.
    """
    n_items = len(segs) - len(pairs)
    preds = [predict(params, seg, noise) for seg, noise in zip(segs, noises)]
    task = [task_loss(preds[k], g) for k, g in enumerate(gold) if g is not None]
    pair = [example_consistency(preds[i], preds[j], segs[i], segs[j], modified)
            for i, j, modified in pairs]
    teach = None
    if teacher is not None:
        teach = _mean([model_consistency(predict(teacher, segs[k], noises[k]), preds[k])
                       for k in range(n_items)])
    return (_mean(task) if task else None, _mean(pair) if pair else None, teach)


def decode_span(prediction):
    """(start word, end word) per sequence of a packed span ``Prediction``:
    the first best ``start_log[s] + end_log[e]`` with s <= e in row-major
    order, from an ``np.add.outer`` matrix masked by ``np.triu``."""
    packing = prediction.packing
    decoded = []
    for start, n, word_start in zip(packing.starts, packing.lengths, packing.word_starts):
        rows = slice(start, start + n)
        pair_log = np.add.outer(prediction.start_log.data[rows], prediction.end_log.data[rows])
        ordered = np.where(np.triu(np.ones(pair_log.shape, dtype=bool)), pair_log, -np.inf)
        s, e = divmod(int(np.argmax(ordered)), int(n))
        words = packing.word_of_row[rows] - word_start
        decoded.append((int(words[s]), int(words[e])))
    return decoded


# ---------------------------------------------------------------------------
# Per-example records


@dataclass
class Example:
    """One task instance; ``words`` is the full model input.

    For span extraction the input is question words followed by context
    words and the answer indices address the full input.  ``label`` /
    ``tags`` / answer indices may be None for unlabeled examples.
    """

    id: str
    language: str
    task: str
    words: list
    label: int | None = None
    n_label: int | None = None
    question_len: int = 0
    answer_start: int | None = None
    answer_end: int | None = None
    tags: list | None = None

    @property
    def labeled(self):
        if self.task == "classification":
            return self.label is not None
        if self.task == "span":
            return self.answer_start is not None and self.answer_end is not None
        return self.tags is not None

    def gold(self):
        if self.task == "classification":
            return self.label
        if self.task == "span":
            return (self.answer_start, self.answer_end)
        return self.tags


def examples(corpus):
    """One ``Example`` per example of a ``data.Corpus``, read from its columns."""
    ends = np.cumsum(corpus.n_words).tolist()
    gold, n_label = corpus.golds.tolist(), corpus.n_label.tolist()
    out = []
    for k, (a, b) in enumerate(zip([0] + ends, ends)):
        ex = Example(corpus.ids[k], corpus.languages[k], corpus.task, corpus.words[a:b],
                     n_label=None if n_label[k] == -1 else n_label[k],
                     question_len=int(corpus.question_len[k]))
        if not corpus.has_gold[k]:
            pass
        elif corpus.task == "classification":
            ex.label = gold[k]
        elif corpus.task == "labeling":
            ex.tags = gold[a:b]
        else:
            ex.answer_start, ex.answer_end = gold[k]
        out.append(ex)
    return out


def record(ex):
    """The JSON record of an ``Example``."""
    if ex.task == "span":
        rec = {"id": ex.id, "lang": ex.language, "question": ex.words[:ex.question_len],
               "context": ex.words[ex.question_len:]}
        if ex.labeled:
            rec["answer_start"] = ex.answer_start - ex.question_len
            rec["answer_end"] = ex.answer_end - ex.question_len
        return rec
    key, gold = ("label", ex.label) if ex.task == "classification" else ("tags", ex.tags)
    return {"id": ex.id, "lang": ex.language, "words": ex.words, key: gold,
            "n_label": ex.n_label}


def corpus(examples, task=None):
    """The checked ``data.Corpus`` of ``examples``, as their file would load."""
    return data.corpus_of(list(map(record, examples)), task or examples[0].task)


# ---------------------------------------------------------------------------
# Per-record loading


def _validated(ex):
    """``ex``, if it keeps the task schema, as the package checked each
    example before it checked columns; else a ``data.SchemaError``."""
    words = ex.words
    if data.CIPHER_ID_SEP in ex.id:
        raise data.SchemaError(f"example {ex.id}: {data.CIPHER_ID_SEP!r} in an id is reserved "
                               "for translated views")
    if type(words) is not list or not words or any(type(w) is not str or not w for w in words):
        raise data.SchemaError(f"example {ex.id}: empty word list, empty word or words of the "
                               "wrong JSON type")
    if ex.task == "classification" and ex.labeled:
        if (type(ex.label) is not int or type(ex.n_label) is not int
                or not 0 <= ex.label < ex.n_label):
            raise data.SchemaError(f"example {ex.id}: label {ex.label!r} out of range for "
                                   f"n_label {ex.n_label!r}, or of the wrong JSON type")
    if ex.task == "span" and ex.labeled:
        lo, hi = ex.question_len, len(words) - 1
        if not lo <= ex.answer_start <= ex.answer_end <= hi:
            raise data.SchemaError(f"example {ex.id}: span ({ex.answer_start}, "
                                   f"{ex.answer_end}) outside context [{lo}, {hi}]")
    if ex.task == "labeling" and ex.labeled:
        if len(ex.tags) != len(words):
            raise data.SchemaError(f"example {ex.id}: {len(ex.tags)} tags for {len(words)} words")
        if type(ex.n_label) is not int or any(type(t) is not int or not 0 <= t < ex.n_label
                                              for t in ex.tags):
            raise data.SchemaError(f"example {ex.id}: tag out of range for n_label "
                                   f"{ex.n_label!r}, or of the wrong JSON type")
    return ex


def _example(record, task):
    if not isinstance(record, dict):
        raise data.SchemaError("a record must be a JSON object")
    if task != "span":
        return Example(str(record["id"]), record["lang"], task, record["words"],
                            label=record.get("label") if task == "classification" else None,
                            n_label=record.get("n_label"),
                            tags=record.get("tags") if task == "labeling" else None)
    question, context = record["question"], record["context"]
    start, end = record.get("answer_start"), record.get("answer_end")
    if type(start) not in (int, type(None)) or type(end) not in (int, type(None)):
        raise TypeError(f"answer indices {start!r}, {end!r} must be integers")
    offset = len(question)
    return Example(str(record["id"]), record["lang"], task, question + context,
                        question_len=offset,
                        answer_start=None if start is None else offset + start,
                        answer_end=None if end is None else offset + end)


def load_jsonl_per_record(path, task):
    """A JSON-lines file's examples as the package loaded them before it
    checked columns: one record at a time, so a fault raises the moment its
    line is read.  It has no language rule, which came later."""
    examples, first_line = [], {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as err:
                raise data.SchemaError(f"{path}:{lineno}: invalid JSON ({err.msg})") from None
            try:
                ex = _validated(_example(record, task))
            except KeyError as missing:
                raise data.SchemaError(f"{path}:{lineno}: missing field {missing}") from None
            except data.SchemaError as err:
                raise data.SchemaError(f"{path}:{lineno}: {err}") from None
            except (TypeError, ValueError) as err:
                raise data.SchemaError(f"{path}:{lineno}: a field has the wrong JSON type "
                                       f"({err})") from None
            if first_line.setdefault(ex.id, lineno) != lineno:
                raise data.SchemaError(f"{path}:{lineno}: repeats example id {ex.id!r} "
                                       f"from line {first_line[ex.id]}")
            examples.append(ex)
    return examples


# ---------------------------------------------------------------------------
# Per-sentence cipher generator


def classification_label(lemmas, rule="lemma_majority", lemma_count=None):
    """Binary label computed from lemma ids.

    lemma_majority: 1 when lemmas from the upper half of the inventory
    outnumber those from the lower half.  even_lemma_parity: parity of the
    count of even-numbered lemmas.
    """
    if rule == "even_lemma_parity":
        return sum(1 for k in lemmas if k % 2 == 0) % 2
    upper = sum(1 for k in lemmas if k >= lemma_count // 2)
    return 1 if upper * 2 > len(lemmas) else 0


def labeling_tags(lemmas, n_tag):
    return [k % n_tag for k in lemmas]


def _sample_lemma_sentence(spec, rng):
    lo, hi = spec.sentence_len_range
    length = int(rng.integers(lo, hi + 1))
    lemma_pool = spec.lemma_count
    if spec.task == "span":
        lemma_pool -= 1  # lemma 0 is reserved as the question trigger
        lemmas = [int(k) + 1 for k in rng.integers(0, lemma_pool, length)]
        pos = int(rng.integers(0, length))
        lemmas.insert(pos, 0)  # trigger; the following word is the answer
        return lemmas
    return [int(k) for k in rng.integers(0, lemma_pool, length)]


def render(spec, lemmas, language, example_id, surfaces):
    """One sentence in ``language``, whose lemma -> surface list is ``surfaces``."""
    words = [surfaces[k] for k in lemmas]
    if spec.task == "span":   # the question is the trigger; the answer follows it
        answer = 1 + lemmas.index(0) + 1
        fields = dict(words=[surfaces[0]] + words, question_len=1, answer_start=answer,
                      answer_end=answer)
    elif spec.task == "classification":
        fields = dict(words=words, n_label=2, label=classification_label(
            lemmas, spec.classification_rule, spec.lemma_count))
    else:
        fields = dict(words=words, tags=labeling_tags(lemmas, spec.n_tag), n_label=spec.n_tag)
    return Example(id=example_id, language=language, task=spec.task, **fields)


def generate_cipher_examples(spec, rng):
    """The training examples, eval examples per language and translation
    store entries ((example id, language) -> (words, label)) of the cipher
    benchmark, rendered one sentence and language at a time."""
    src, targets = spec.languages[0], spec.languages[1:]
    surfaces = {lang: [data.surface(k, lang, src) for k in range(spec.lemma_count)]
                for lang in spec.languages}
    train, store = [], {}
    for i in range(spec.train_examples):
        lemmas = _sample_lemma_sentence(spec, rng)
        ex = render(spec, lemmas, src, f"train-{i:05d}", surfaces[src])
        train.append(ex)
        for lang in targets:
            translated = render(spec, lemmas, lang, ex.id, surfaces[lang])
            store[ex.id, lang] = (translated.words,
                                  translated.label if spec.task == "classification" else None)
    eval_sets = {lang: [] for lang in spec.languages}
    for i in range(spec.eval_examples_per_language):
        lemmas = _sample_lemma_sentence(spec, rng)
        for lang in spec.languages:
            eval_sets[lang].append(render(spec, lemmas, lang, f"eval-{i:05d}-{lang}",
                                          surfaces[lang]))
    return train, eval_sets, store
