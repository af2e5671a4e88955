"""Metrics, per-language reports, and the cross-lingual transfer gap.

An eval language is one ``data.Corpus``: ``score_corpus`` segments its flat
word column, checks its gold columns against the checkpoint and scores the
decoded outputs against them, with no per-example object.
"""

from __future__ import annotations

import numpy as np

from .model import RecordTable, predict, sequence_of

# examples per packed eval forward: bounds the size of the forward's buffers
EVAL_CHUNK = 64


def accuracy(predictions, gold):
    """Fraction of exact matches between two equal-length label lists."""
    _check_lengths(predictions, gold)
    return int(np.count_nonzero(np.asarray(predictions) == np.asarray(gold))) / len(gold)


def span_f1_em(predicted_spans, gold_spans):
    """Position-overlap F1 and exact match for (start, end) spans, inclusive.

    F1 is computed per example over covered positions and averaged; this is
    the word-position analog of answer-token F1 (no string normalization is
    needed in the synthetic setting).  The F1 terms add up in order.
    """
    _check_lengths(predicted_spans, gold_spans)
    (ps, pe), (gs, ge) = np.asarray(predicted_spans).T, np.asarray(gold_spans).T
    overlap = np.maximum(0, np.minimum(pe, ge) - np.maximum(ps, gs) + 1)
    precision, recall = overlap / (pe - ps + 1), overlap / (ge - gs + 1)
    hit = overlap > 0
    f1 = np.where(hit, 2 * precision * recall / np.where(hit, precision + recall, 1.0), 0.0)
    n = len(gold_spans)
    return float(np.cumsum(f1)[-1]) / n, int(np.count_nonzero((ps == gs) & (pe == ge))) / n


def tag_scores(predicted, gold):
    """(accuracy, micro-F1) of a flat predicted tag array against the gold
    tags.  With exactly one predicted and one gold tag per position the
    micro average has equal precision and recall, so F1 coincides with
    accuracy; both are reported for interface parity with other benchmarks.
    """
    acc = accuracy(predicted, gold)
    return acc, acc   # F1 = 2tp / (2tp + fp + fn) = 2tp / 2total, the same double


def _check_lengths(predictions, gold):
    if not len(gold):
        raise ValueError("nothing to score: empty gold list")
    if not len(predictions):
        raise ValueError("nothing to score: empty prediction list")
    if len(predictions) != len(gold):
        raise ValueError(f"{len(predictions)} predictions for {len(gold)} gold items")


def transfer_gap(per_language_scores, source_language):
    """Source score minus the mean score over all other languages.

    Positive gap means the model performs worse off-source.
    """
    if source_language not in per_language_scores:
        raise ValueError(f"source language {source_language!r} missing from scores")
    others = [float(v) for lang, v in per_language_scores.items() if lang != source_language]
    if not others:
        raise ValueError("need at least one non-source language")
    return float(per_language_scores[source_language]) - sum(others) / len(others)


# ---------------------------------------------------------------------------
# Decoding and corpus-level evaluation


def decode(prediction):
    """Greedy decode of a packed Prediction, as arrays: a class per
    sequence, every sequence's tags as one flat array in sequence order, or a
    ``(sequences, 2)`` array of span (start, end) word indices.

    Classes and tags are the argmaxes of the label rows.  A span is the
    first best pair ``start_log[s] + end_log[e]``, s <= e, in row-major
    order.  On ``(k, width)`` tables padded with -inf, s is the first argmax
    of ``start + best_end`` (the largest end at or after s) and e that of
    ``start[s] + end[e]``, e >= s.  Exact, ties included: rounding is
    monotone, so ``start[s] + best_end[s]`` rounds to row s's best pair sum.
    """
    packing = prediction.packing
    first, counts, outputs = prediction.rows
    if prediction.task != "span":   # the label rows lie in sequence order
        return np.argmax(outputs[0].data, axis=1)
    start, end = np.full((2, len(packing), int(counts.max())), -np.inf)
    start[packing.seq, packing.positions] = outputs[0].data
    end[packing.seq, packing.positions] = outputs[1].data
    best_end = np.maximum.accumulate(end[:, ::-1], axis=1)[:, ::-1]
    s = np.argmax(start + best_end, axis=1)
    pair_log = start[np.arange(len(packing)), s][:, None] + end
    e = np.argmax(np.where(np.arange(end.shape[1]) >= s[:, None], pair_log, -np.inf), axis=1)
    return (packing.word_of_row[first + np.stack([s, e])] - packing.word_starts).T


def score_corpus(params, corpus, vocab):
    """Viterbi-segment, predict, decode and score one labeled ``data.Corpus``.

    Every word is interned as its Viterbi record into one ``RecordTable``,
    each distinct word segmented once.  Before the first forward, an empty
    corpus, an uncovered word, an example over ``max_len``, one without gold
    or a gold class or tag the checkpoint cannot predict raises a
    ValueError, all but the first naming the example.  Each ``EVAL_CHUNK``
    examples are then one forward over a packing gathered from the table by
    record id, so no array spans the corpus's subword rows.  The chunks'
    decoded arrays are joined and scored against the corpus's gold columns.
    Returns a dict with the task's metrics ('accuracy' for classification;
    'f1'/'em'/'score' for spans; 'accuracy'/'f1' for labeling).
    """
    if not len(corpus):
        raise ValueError("no examples to score")
    name = lambda k: f"example {corpus.ids[k]!r}"
    table = RecordTable(vocab)
    n_words = corpus.n_words
    rids = table.viterbi(corpus.words, n_words, name)
    bounds = np.concatenate(([0], np.cumsum(n_words)))   # each example's words
    lengths = table.lengths(n_words, rids)
    if (over := np.flatnonzero(lengths > params.max_len)).size:
        raise ValueError(f"{name(over[0])}: input of {lengths[over[0]]} "
                         f"subwords exceeds max_len {params.max_len}")
    if not corpus.has_gold.all():
        raise ValueError(f"{name(np.argmin(corpus.has_gold))}: no gold to score")
    outside = np.flatnonzero(corpus.golds >= params.n_label) if params.n_label else []
    if len(outside):
        tags = params.task == "labeling"   # one per word
        k = sequence_of(n_words, outside[0]) if tags else outside[0]
        raise ValueError(f"{name(k)}: gold {'tag' if tags else 'label'} "
                         f"{corpus.golds[outside[0]]} is not below the checkpoint's n_label "
                         f"{params.n_label}")
    decoded = []
    for start in range(0, len(corpus), EVAL_CHUNK):
        end = min(start + EVAL_CHUNK, len(corpus))
        chunk = table.pack(n_words[start:end], rids[bounds[start]:bounds[end]])
        decoded.append(decode(predict(params, chunk)))
    decoded = np.concatenate(decoded)
    if params.task == "classification":
        return {"accuracy": accuracy(decoded, corpus.golds)}
    if params.task == "span":
        f1, em = span_f1_em(decoded, corpus.golds)
        return {"f1": f1, "em": em, "score": (f1 + em) / 2}
    acc, f1 = tag_scores(decoded, corpus.golds)   # micro averages: the corpus's tags as one
    return {"accuracy": acc, "f1": f1}


def primary_metric(task):
    """The name of the score used for mode comparisons and the transfer gap."""
    return "score" if task == "span" else "accuracy"


def primary_score(task, scores):
    """The scalar used for mode comparisons and the transfer gap."""
    return scores[primary_metric(task)]


def evaluate_languages(params, eval_sets, vocab, sources=None):
    """Scores per language of ``eval_sets``' corpora, as ``score_corpus``
    returns them; a corpus's ValueError names its ``sources`` entry (default:
    its language)."""
    scores = {}
    for lang, corpus in eval_sets.items():
        try:
            scores[lang] = score_corpus(params, corpus, vocab)
        except ValueError as err:
            raise ValueError(f"{(sources or {}).get(lang, lang)}: {err}") from None
    return scores


def report(per_language, source_language, task):
    """Machine-readable report dict with per-language scores and the gap."""
    scalar = {lang: primary_score(task, s) for lang, s in per_language.items()}
    targets = [v for lang, v in scalar.items() if lang != source_language]
    return {
        "task": task,
        "source_language": source_language,
        "per_language": per_language,
        "mean_target_score": sum(targets) / len(targets) if targets else None,
        "transfer_gap": transfer_gap(scalar, source_language) if targets else None,
    }


def format_report(rep):
    """Aligned plain-text table for terminals."""
    langs = sorted(rep["per_language"])
    metrics = sorted({k for s in rep["per_language"].values() for k in s})
    width = max(8, max(len(l) for l in langs) + 2)
    lines = ["lang".ljust(width) + "  ".join(m.rjust(10) for m in metrics)]
    for lang in langs:
        row = rep["per_language"][lang]
        cells = "  ".join(f"{row.get(m, float('nan')):10.4f}" for m in metrics)
        lines.append(lang.ljust(width) + cells)
    if rep["transfer_gap"] is not None:
        lines.append(f"transfer gap vs {rep['source_language']}: {rep['transfer_gap']:+.4f}")
    return "\n".join(lines)
