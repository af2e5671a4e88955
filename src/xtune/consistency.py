"""The two consistency regularizers and their distribution alignment rules.

Pair consistency penalizes disagreement between predictions on an example
and on its augmented view (symmetric KL with stop-gradient on the reference
side of each term).  Teacher consistency penalizes KL from a frozen
teacher's predictions to the student's on the identical input.

Both take packed predictions (see ``model.Packing``).  Each gathers the rows
it compares from the whole batch at once and sums row-wise KL terms with
constant per-row weights (1/B per sequence, 1/(n_words B) per labeling word
row); restricted span positions renormalize within one segment per pair.  So
a batch's regularizer is a fixed handful of graph nodes.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad

PROB_FLOOR = 1e-12
LOG_FLOOR = math.log(PROB_FLOOR)


def kl(p_log, q_log, weights):
    """Weighted KL(P || Q) in nats from two log-prob tensors of equal shape.

    Every entry of row i adds ``weights[i] * p * (log p - log q)``;
    ``weights`` is one number per row (first axis) or one for all, so a
    weight of 1 over a vector is plain KL(P || Q).  Probabilities are
    floored at 1e-12 before the logs so the value stays finite for
    degenerate inputs.
    """
    if p_log.shape != q_log.shape:
        raise ad.ShapeError(f"kl: shapes {p_log.shape} and {q_log.shape} differ")
    w = np.asarray(weights, dtype=np.float64).reshape((-1,) + (1,) * (len(p_log.shape) - 1))
    lp = ad.clip_min(p_log, LOG_FLOOR)
    lq = ad.clip_min(q_log, LOG_FLOOR)
    terms = ad.mul(ad.exp(lp), ad.sub(lp, lq))
    return ad.sum(ad.mul(terms, ad.constant(np.broadcast_to(w, p_log.shape))))


def symmetric_kl(p_log, q_log, weights, stop_gradient=True):
    """KL(P||Q) + KL(Q||P), weighted as in ``kl``; with ``stop_gradient``
    each term's reference distribution is detached, so gradients reach P
    only through the term where P is the prediction being pulled (and
    likewise Q).

    Disabling the barrier changes gradients but never the value; that switch
    exists for ablation.
    """
    if stop_gradient:
        return ad.add(kl(ad.detach(p_log), q_log, weights),
                      kl(ad.detach(q_log), p_log, weights))
    return ad.add(kl(p_log, q_log, weights), kl(q_log, p_log, weights))


def aligned_first_subword_positions(seg_orig, seg_aug, alignment, modified):
    """Positions usable for restricted span consistency.

    A word contributes its first-subword position on both sides when it is
    aligned, unmodified, and identically segmented in both views.
    """
    if alignment is None:
        return [], []
    first_orig = seg_orig.first_subword_positions()
    first_aug = seg_aug.first_subword_positions()
    pieces_orig, pieces_aug = seg_orig.word_pieces(), seg_aug.word_pieces()
    pos_orig, pos_aug = [], []
    for w, target in enumerate(alignment):
        if target is None or modified[w] or pieces_orig[w] != pieces_aug[target]:
            continue
        pos_orig.append(first_orig[w])
        pos_aug.append(first_aug[target])
    return pos_orig, pos_aug


def example_consistency(pred, pairs, stop_gradient=True):
    """Mean symmetric-KL agreement between examples and their augmented views.

    ``pairs`` lists (original, view, alignment, modified): two sequence
    indices into ``pred``'s packing, then the view's word alignment and the
    original's modified-word flags.  Classification compares the label
    distributions directly.  Span extraction compares full position
    distributions when the two views tokenize identically; otherwise both
    sides are restricted to aligned unchanged first-subword positions and
    renormalized (a pair where no position survives adds zero but still
    counts in the mean).  Sequence labeling averages over all words,
    including substituted ones, and requires equal word counts.
    """
    if not pairs:
        raise ValueError("example consistency needs at least one pair")
    packing = pred.packing
    share = 1.0 / len(pairs)

    if pred.task == "classification":
        orig = [i for i, _j, _a, _m in pairs]
        view = [j for _i, j, _a, _m in pairs]
        return symmetric_kl(ad.gather(pred.class_log, orig), ad.gather(pred.class_log, view),
                            share, stop_gradient)

    rows, view_rows = [], []
    if pred.task == "labeling":
        weights = []
        for i, j, _alignment, _modified in pairs:
            n = int(packing.n_words[i])
            if n != packing.n_words[j]:
                raise ValueError(f"word counts differ: {n} vs {packing.n_words[j]}")
            rows.append(packing.word_starts[i] + np.arange(n))
            view_rows.append(packing.word_starts[j] + np.arange(n))
            weights.append(np.full(n, share / n))
        return symmetric_kl(ad.gather(pred.word_log, np.concatenate(rows)),
                            ad.gather(pred.word_log, np.concatenate(view_rows)),
                            np.concatenate(weights), stop_gradient)

    segment = []
    for k, (i, j, alignment, modified) in enumerate(pairs):
        seg, seg_aug = packing.segmentations[i], packing.segmentations[j]
        if seg.pieces == seg_aug.pieces:
            pos = pos_aug = np.arange(seg.n_pieces)
        else:
            pos, pos_aug = aligned_first_subword_positions(seg, seg_aug, alignment, modified)
        rows.append(packing.starts[i] + np.asarray(pos, dtype=np.intp))
        view_rows.append(packing.starts[j] + np.asarray(pos_aug, dtype=np.intp))
        segment.append(np.full(len(pos), k))
    segment = np.concatenate(segment)
    if not segment.size:
        return ad.constant(0.0)

    def restricted(vec_log, index):
        return ad.segment_log_softmax(ad.gather(vec_log, index), segment, len(pairs))

    rows, view_rows = np.concatenate(rows), np.concatenate(view_rows)
    start, end = (symmetric_kl(restricted(vec_log, rows), restricted(vec_log, view_rows),
                               share, stop_gradient)
                  for vec_log in (pred.start_log, pred.end_log))
    return ad.add(start, end)


def model_consistency(teacher_pred, student_pred):
    """Mean KL from the frozen teacher's predictions to the student's.

    The teacher side is detached, so no gradient ever reaches teacher
    parameters.  The teacher's sequences must be the first sequences of the
    student's packing, on the same inputs, which keeps the distributions
    aligned for every task; the mean runs over the teacher's sequences.
    """
    if teacher_pred.task != student_pred.task:
        raise ValueError(f"task mismatch: {teacher_pred.task} vs {student_pred.task}")
    tp, sp = teacher_pred.packing, student_pred.packing
    b = len(tp)
    if (b > len(sp) or not np.array_equal(tp.lengths, sp.lengths[:b])
            or not np.array_equal(tp.n_words, sp.n_words[:b])):
        raise ValueError("teacher and student saw differently tokenized inputs")

    def term(name, weights):
        teacher, student = getattr(teacher_pred, name), getattr(student_pred, name)
        return kl(ad.detach(teacher), ad.gather(student, np.arange(teacher.shape[0])), weights)

    if teacher_pred.task == "classification":
        return term("class_log", 1.0 / b)
    if teacher_pred.task == "span":
        return ad.add(term("start_log", 1.0 / b), term("end_log", 1.0 / b))
    return term("word_log", np.repeat(1.0 / (tp.n_words * b), tp.n_words))
