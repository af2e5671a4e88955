"""The two consistency regularizers and their distribution alignment rules.

Pair consistency penalizes disagreement between predictions on an example
and on its augmented view (symmetric KL with stop-gradient on the reference
side of each term).  Teacher consistency penalizes KL from a frozen
teacher's predictions to the student's on the identical input; the teacher
side is a constant table of its log-probability rows.

Both take packed student predictions and compare them row for row on the
rows ``model.predict`` lays out in ``Prediction.rows``.  Each gathers the
rows it compares from the whole batch at once and sums row-wise KL terms
with constant per-row weights.  One rule weighs every label distribution: a
sequence's share 1/B is split evenly over its label rows (one row per
sequence, or one per word); a span start or end distribution weighs 1/B,
and restricted span positions renormalize within one segment per pair.  So
a batch's regularizer is a fixed handful of graph nodes.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .model import layout_rows

LOG_FLOOR = math.log(1e-12)   # probabilities are floored at 1e-12


def kl(p_log, q_log, weights):
    """Weighted KL(P || Q) in nats from two log-prob tensors of equal shape.

    Every entry of row i adds ``weights[i] * p * (log p - log q)``;
    ``weights`` is one number per row (first axis) or one for all, so a
    weight of 1 over a vector is plain KL(P || Q).  The term is one
    ``autodiff.kl_div`` node, with log-probabilities clipped at log 1e-12 so it
    stays finite; callers keep gradient off a side with ``detach`` or constants.
    """
    return ad.kl_div(p_log, q_log, weights, LOG_FLOOR)


def symmetric_kl(p_log, q_log, weights):
    """KL(P||Q) + KL(Q||P), weighted as in ``kl``.  Each term's reference
    distribution is detached, so gradients reach P only through the term
    where P is the prediction being pulled (and likewise Q).
    """
    return ad.add(kl(ad.detach(p_log), q_log, weights),
                  kl(ad.detach(q_log), p_log, weights))


def aligned_first_subword_positions(seg_orig, seg_aug, modified):
    """The first-subword positions, on both sides, of the words restricted
    span consistency compares.  The view is word-for-word: word w of one
    side stands for word w of the other.  Word w is aligned when it is
    unmodified and identically segmented in both views."""
    first_orig = seg_orig.first_subword_positions()
    first_aug = seg_aug.first_subword_positions()
    words = [w for w, changed in enumerate(modified)
             if not changed and seg_orig.words[w] == seg_aug.words[w]]
    return [first_orig[w] for w in words], [first_aug[w] for w in words]


def example_consistency(pred, segs, pairs, drawn=None):
    """Mean symmetric-KL agreement between examples and their augmented views.

    ``segs`` are the segmentations ``pred`` packs, in order.  ``pairs``
    lists (original, view, modified): two sequence indices into ``segs``,
    then the view's modified-word flags.  Only span extraction reads
    segmentations and flags (the trainer passes None for them otherwise).
    Label distributions compare row
    for row over the two sides' label rows in ``pred.rows``, which must be
    equally many: one class row (only there may the view be a translation)
    or one row per word, substituted words included.  Every view other than
    a translation is word-for-word.  Span extraction
    compares full position distributions when the two views tokenize
    identically; otherwise both sides are restricted to the first-subword
    positions of unchanged words and renormalized (a pair where no position
    survives adds zero but still counts in the mean).  The mean runs over
    ``drawn`` views (default: the pairs); the trainer leaves out a view whose
    input is its item's, as a deterministic forward gives it the term
    KL(p || p) = 0 with zero gradient.
    """
    drawn = len(pairs) if drawn is None else drawn
    if not 0 < len(pairs) <= drawn:
        raise ValueError(f"example consistency needs 1 to {drawn} pairs, got {len(pairs)}")
    share = 1.0 / drawn

    first, counts, outputs = pred.rows
    if pred.task != "span":
        (log,) = outputs
        orig, view, _modified = zip(*pairs)
        orig, view = np.array(orig), np.array(view)
        n = counts[orig]
        if (n != counts[view]).any():
            k = np.flatnonzero(n != counts[view])[0]
            raise ValueError(f"word counts differ: {n[k]} vs {counts[view[k]]}")
        return symmetric_kl(ad.gather(log, layout_rows(first[orig], n)),
                            ad.gather(log, layout_rows(first[view], n)), np.repeat(share / n, n))

    rows, view_rows, segment = [], [], []
    for k, (i, j, modified) in enumerate(pairs):
        if segs[i].words == segs[j].words:
            pos = pos_aug = np.arange(counts[i])
        else:
            pos, pos_aug = aligned_first_subword_positions(segs[i], segs[j], modified)
        rows.append(first[i] + np.asarray(pos, dtype=np.intp))
        view_rows.append(first[j] + np.asarray(pos_aug, dtype=np.intp))
        segment.append(np.full(len(pos), k))
    segment = np.concatenate(segment)
    if not segment.size:
        return ad.constant(0.0)

    def restricted(vec_log, index):
        return ad.segment_log_softmax(ad.gather(vec_log, index), segment, len(pairs))

    rows, view_rows = np.concatenate(rows), np.concatenate(view_rows)
    start, end = (symmetric_kl(restricted(vec_log, rows), restricted(vec_log, view_rows), share)
                  for vec_log in outputs)
    return ad.add(start, end)


def model_consistency(teacher_rows, student_pred):
    """Mean KL from a frozen teacher's predictions to the student's.

    ``teacher_rows`` is a ``model.RowTable`` of the teacher's
    log-probability rows on the items' inputs.  They enter the graph as
    constants, so the teacher is not part of it and no gradient can reach
    teacher parameters.  The items must be the first sequences of the
    student's packing, on the same inputs, which keeps the distributions
    aligned for every task; the mean runs over the items.
    """
    _first, counts, outputs = student_pred.rows
    b = teacher_rows.counts.size
    if (not b or b > counts.size or len(teacher_rows.outputs) != len(outputs)
            or not np.array_equal(teacher_rows.counts, counts[:b])):
        raise ValueError("teacher and student saw differently tokenized inputs")
    # a 2-d output holds rows of label distributions; a 1-d one is one
    # distribution per sequence
    row_weights = np.repeat(1.0 / (counts[:b] * b), counts[:b])
    total = None
    for student, teacher in zip(outputs, teacher_rows.outputs):
        rows = ad.gather(student, np.arange(teacher.shape[0]))
        term = kl(ad.constant(teacher), rows, row_weights if teacher.ndim == 2 else 1.0 / b)
        total = term if total is None else ad.add(total, term)
    return total
