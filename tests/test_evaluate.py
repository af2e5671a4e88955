"""Metric tests: hand-checked values and invariances."""

import numpy as np
import pytest

from xtune import evaluate as ev
from xtune import autodiff as ad

from test_model import packing_of, prediction


class TestAccuracy:
    def test_all_correct(self):
        assert ev.accuracy([1, 0, 1], [1, 0, 1]) == 1.0

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        pred = list(rng.integers(0, 3, 50))
        gold = list(rng.integers(0, 3, 50))
        base = ev.accuracy(pred, gold)
        order = rng.permutation(50)
        assert ev.accuracy([pred[i] for i in order], [gold[i] for i in order]) == base

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ev.accuracy([], [])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ev.accuracy([1], [1, 0])


class TestSpanF1:
    def test_all_correct(self):
        f1, em = ev.span_f1_em([(2, 3)], [(2, 3)])
        assert f1 == 1.0 and em == 1.0

    def test_half_overlap_hand_value(self):
        # predicted [2,3] vs gold [3,4]: overlap 1, P = R = 0.5, F1 = 0.5
        f1, em = ev.span_f1_em([(2, 3)], [(3, 4)])
        assert abs(f1 - 0.5) < 1e-12 and em == 0.0

    def test_disjoint_zero(self):
        f1, em = ev.span_f1_em([(0, 1)], [(5, 6)])
        assert f1 == 0.0 and em == 0.0

    def test_bounds(self):
        rng = np.random.default_rng(1)
        spans = [(int(a), int(a + b)) for a, b in
                 zip(rng.integers(0, 5, 30), rng.integers(0, 4, 30))]
        gold = [(int(a), int(a + b)) for a, b in
                zip(rng.integers(0, 5, 30), rng.integers(0, 4, 30))]
        f1, em = ev.span_f1_em(spans, gold)
        assert 0.0 <= em <= f1 <= 1.0


class TestTagScores:
    def test_micro_f1_equals_accuracy_single_label(self):
        pred = np.array([0, 1, 2, 1, 1])
        gold = np.array([0, 2, 2, 1, 0])
        acc, f1 = ev.tag_scores(pred, gold)
        assert acc == 3 / 5
        assert f1 == acc

    def test_sequence_length_mismatch(self):
        with pytest.raises(ValueError, match="2 predictions for 1 gold items"):
            ev.tag_scores(np.array([0, 1]), np.array([0]))


class TestTransferGap:
    def test_hand_value(self):
        gap = ev.transfer_gap({"en": 90.0, "de": 80.0, "fr": 85.0}, "en")
        assert abs(gap - 7.5) < 1e-12

    def test_all_equal_zero_gap(self):
        assert ev.transfer_gap({"en": 70.0, "de": 70.0}, "en") == 0.0

    def test_gap_may_be_negative(self):
        assert ev.transfer_gap({"en": 50.0, "xx": 60.0}, "en") == -10.0

    def test_missing_source(self):
        with pytest.raises(ValueError, match="source"):
            ev.transfer_gap({"de": 1.0, "fr": 0.5}, "en")


class TestDecode:
    def test_classification_argmax(self):
        pred = prediction("classification", packing_of(1), ad.Tensor([[-3.0, -0.1, -2.0]]))
        assert ev.decode(pred).tolist() == [1]

    def test_span_joint_argmax_restricted_to_ordered_pairs(self):
        # start argmax is position 2, end argmax position 0; the best ordered
        # pair is different from the independent argmaxes
        start = ad.Tensor(np.log([0.1, 0.2, 0.6, 0.1]))
        end = ad.Tensor(np.log([0.5, 0.1, 0.1, 0.3]))
        pred = prediction("span", packing_of(4), start, end)

        [(s, e)] = ev.decode(pred).tolist()
        assert s <= e
        assert (s, e) == (2, 3)

    def test_labeling_rowwise_argmax(self):
        word_log = ad.Tensor(np.log([[0.8, 0.2], [0.3, 0.7]]))
        pred = prediction("labeling", packing_of(2), word_log)
        assert ev.decode(pred).tolist() == [0, 1]   # one sequence's tags


class TestReport:
    def test_report_and_format(self):
        per_language = {"en": {"accuracy": 0.9}, "xx": {"accuracy": 0.7},
                        "yy": {"accuracy": 0.8}}
        rep = ev.report(per_language, "en", "classification")
        assert abs(rep["transfer_gap"] - 0.15) < 1e-12
        assert abs(rep["mean_target_score"] - 0.75) < 1e-12
        text = ev.format_report(rep)
        assert "transfer gap" in text and "xx" in text
