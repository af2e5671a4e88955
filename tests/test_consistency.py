"""KL regularizer tests: values against direct summation, gradients against
the stop-gradient contract, and the per-task restriction rules."""

import math

import numpy as np
import pytest

from xtune import autodiff as ad
from xtune import consistency as cons
from xtune import model as mdl
from xtune import tokenizer as tok

from test_autodiff import analytic_grads, finite_difference, max_rel_err
from test_model import copy_params, make_params, rescale_params


def direct_kl(p, q, floor=1e-12):
    """Direct-summation oracle in probability space."""
    p = np.maximum(np.asarray(p, dtype=float), floor)
    q = np.maximum(np.asarray(q, dtype=float), floor)
    return float(np.sum(p * (np.log(p) - np.log(q))))


def logt(p):
    return ad.Tensor(np.log(np.asarray(p, dtype=float)))


class TestKL:
    def test_self_divergence_zero(self):
        p = logt([0.3, 0.2, 0.5])
        assert cons.kl(p, logt([0.3, 0.2, 0.5]), 1.0).item() == 0.0

    def test_reference_value(self):
        got = cons.kl(logt([0.5, 0.5]), logt([0.25, 0.75]), 1.0).item()
        assert abs(got - 0.14384) < 5e-6
        assert abs(got - direct_kl([0.5, 0.5], [0.25, 0.75])) < 1e-12

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(2, 6))
            p = rng.random(n) + 1e-3
            q = rng.random(n) + 1e-3
            p /= p.sum()
            q /= q.sum()
            assert cons.kl(logt(p), logt(q), 1.0).item() >= -1e-15

    def test_length_mismatch(self):
        with pytest.raises(ad.ShapeError):
            cons.kl(logt([0.5, 0.5]), logt([1.0 / 3] * 3), 1.0)


class TestSymmetricKL:
    def test_reference_value_sum_of_both_directions(self):
        got = cons.symmetric_kl(logt([0.5, 0.5]), logt([0.25, 0.75]), 1.0).item()
        assert abs(got - (0.14384 + 0.13081)) < 1e-5

    def test_equal_inputs_zero_value_and_zero_logit_grads(self):
        # value is exactly 0 and, parameterized through log_softmax, the
        # gradient w.r.t. both logit vectors vanishes
        za = ad.Tensor([0.3, -0.7])
        zb = ad.Tensor([0.3, -0.7])
        loss = cons.symmetric_kl(ad.log_softmax(za), ad.log_softmax(zb), 1.0)
        assert loss.item() == 0.0
        ad.backward(loss)
        assert np.allclose(za.grad, 0.0, atol=1e-12)
        assert np.allclose(zb.grad, 0.0, atol=1e-12)

    def test_value_equals_two_kls_within_1e12(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            p = rng.dirichlet(np.ones(n))
            q = rng.dirichlet(np.ones(n))
            skl = cons.symmetric_kl(logt(p), logt(q), 1.0).item()
            two = cons.kl(logt(p), logt(q), 1.0).item() + cons.kl(logt(q), logt(p), 1.0).item()
            assert abs(skl - two) < 1e-12

    def test_gradient_through_detached_side_is_zero(self):
        logits = ad.Tensor([0.2, -0.4, 1.0])
        q = ad.log_softmax(ad.Tensor([0.0, 0.1, -0.2]))
        loss = cons.kl(ad.detach(ad.log_softmax(logits)), q, 1.0)
        ad.backward(loss)
        assert logits.grad is None

    def test_removing_barrier_changes_grads_not_values(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            a = ad.Tensor(rng.normal(size=4))
            b = ad.Tensor(rng.normal(size=4))

            with_stop = cons.symmetric_kl(ad.log_softmax(a), ad.log_softmax(b), 1.0)
            p_log, q_log = ad.log_softmax(a), ad.log_softmax(b)
            without = ad.add(cons.kl(p_log, q_log, 1.0), cons.kl(q_log, p_log, 1.0))
            assert abs(with_stop.item() - without.item()) < 1e-12

            ad.zero_grads([a, b])
            ad.backward(with_stop)
            ga = a.grad.copy()
            ad.zero_grads([a, b])
            ad.backward(without)
            assert not np.allclose(ga, a.grad, atol=1e-12)


def make_pair(task, words, words_aug, n_label=3, seed=0, pooling=None):
    params, vocab = make_params(task, n_label=n_label, seed=seed, pooling=pooling)
    rescale_params(params, np.random.default_rng(seed + 100))
    seg = tok.viterbi_segment_words(vocab, words)
    seg_aug = tok.viterbi_segment_words(vocab, words_aug)
    pred = mdl.predict(params, mdl.Packing.of([seg, seg_aug]))
    return params, vocab, seg, seg_aug, pred


class TestExampleConsistency:
    def test_identity_augmentation_zero_all_tasks(self):
        for task, n_label, pooling in (("classification", 3, None),
                                       ("span", None, None),
                                       ("labeling", 3, "average")):
            words = ["abc", "d", "ab"]
            _, _, seg, seg2, pred = make_pair(task, words, list(words),
                                              n_label=n_label, pooling=pooling)
            value = cons.example_consistency(
                pred, [seg, seg2], [(0, 1, [False] * 3)]).item()
            assert value == 0.0

    def test_span_zero_modification_equals_full_positions(self):
        # same tokenization on both sides -> direct symmetric KL on the full
        # start/end distributions (no restriction, no renormalization)
        params, vocab, seg, seg2, _ = make_pair("span", ["abc", "d"], ["abc", "d"])
        noise = np.full((seg2.n_pieces, params.dim), 0.05)
        both = mdl.predict(params, mdl.Packing.of([seg, seg2]), noises=[None, noise])
        restricted = cons.example_consistency(
            both, [seg, seg2], [(0, 1, [False, False])]).item()
        pred = mdl.predict(params, mdl.Packing.of([seg]))
        noisy = mdl.predict(params, mdl.Packing.of([seg2]), noises=[noise])
        full = (cons.symmetric_kl(pred.rows.outputs[0], noisy.rows.outputs[0], 1.0).item()
                + cons.symmetric_kl(pred.rows.outputs[1], noisy.rows.outputs[1], 1.0).item())
        assert abs(restricted - full) < 1e-12

    def test_span_hand_constructed_restriction(self):
        # 3 words; word 1 re-tokenized on the augmented side.  Aligned
        # unchanged first-subword positions are word 0 and word 2; the
        # restricted KLs are hand-computed from renormalized 2-point
        # distributions.
        params, vocab = make_params("span", seed=5)
        rescale_params(params, np.random.default_rng(55))
        seg = tok.viterbi_segment_words(vocab, ["ab", "cd", "e"])       # 3 pieces
        seg_aug = tok.Segmentation([                                     # cd -> c+d
            (tuple(w), tuple(vocab.piece_to_id[p] for p in w))
            for w in (["ab"], ["c", "d"], ["e"])])
        got = cons.example_consistency(
            mdl.predict(params, mdl.Packing.of([seg, seg_aug])), [seg, seg_aug],
            [(0, 1, [False, True, False])]).item()
        pred = mdl.predict(params, mdl.Packing.of([seg]))
        pred_aug = mdl.predict(params, mdl.Packing.of([seg_aug]))

        def restrict(vec, idx):
            p = np.exp(vec)[idx]
            return p / p.sum()

        expected = 0.0
        for a_vec, b_vec in ((pred.rows.outputs[0].data, pred_aug.rows.outputs[0].data),
                             (pred.rows.outputs[1].data, pred_aug.rows.outputs[1].data)):
            pa = restrict(a_vec, [0, 2])   # first subwords of words 0, 2
            pb = restrict(b_vec, [0, 3])
            expected += direct_kl(pa, pb) + direct_kl(pb, pa)
        assert abs(got - expected) < 1e-9

    def test_span_empty_alignment_contributes_zero(self):
        params, vocab, seg, seg_aug, pred = make_pair(
            "span", ["ab", "cd"], ["a", "b", "cd"])
        # word counts differ; nothing aligns
        value = cons.example_consistency(pred, [seg, seg_aug], [(0, 1, [True, True])])
        assert value.item() == 0.0

    def test_labeling_mean_over_words_matches_oracle(self):
        params, vocab, seg, seg_aug, pred = make_pair(
            "labeling", ["ab", "cd", "e"], ["ab", "e", "e"], pooling="average")
        got = cons.example_consistency(
            pred, [seg, seg_aug], [(0, 1, [False, True, False])]).item()
        expected = 0.0
        for w in range(3):
            pa = np.exp(pred.rows.outputs[0].data[w])
            pb = np.exp(pred.rows.outputs[0].data[3 + w])
            expected += direct_kl(pa, pb) + direct_kl(pb, pa)
        assert abs(got - expected / 3) < 1e-9

    def test_labeling_word_count_mismatch_rejected(self):
        params, vocab, seg, seg_aug, pred = make_pair(
            "labeling", ["ab", "cd"], ["ab", "cd", "e"], pooling="average")
        with pytest.raises(ValueError, match="word counts"):
            cons.example_consistency(pred, [seg, seg_aug], [(0, 1, [False, False])])

    def test_classification_gradients_match_frozen_reference_fd(self):
        # The stop-gradient loss is, locally, the objective with the detached
        # branches frozen at the current parameters; central differences of
        # that frozen objective are the oracle for the analytic gradients.
        # The two KL terms are checked separately (their sum has structural
        # exactly-cancelling entries, e.g. the shared head bias, which sit
        # below what float64 central differences can resolve), and the full
        # gradient is then the verified sum.
        params, vocab = make_params("classification", n_label=2, seed=8)
        rescale_params(params, np.random.default_rng(88))
        seg = tok.viterbi_segment_words(vocab, ["ab", "cd"])
        seg_aug = tok.viterbi_segment_words(vocab, ["ab", "e"])
        tensors = params.parameters()

        def r1_loss():
            pred = mdl.predict(params, mdl.Packing.of([seg, seg_aug]))
            return cons.example_consistency(pred, [seg, seg_aug], [(0, 1, [False, True])])

        def log_rows(seg):
            return mdl.predict(params, mdl.Packing.of([seg])).rows.outputs[0]

        ref_p = ad.constant(log_rows(seg).data.copy())
        ref_q = ad.constant(log_rows(seg_aug).data.copy())
        term_a = lambda: cons.kl(ref_p, log_rows(seg_aug), 1.0)
        term_b = lambda: cons.kl(ref_q, log_rows(seg), 1.0)

        ana_a = analytic_grads(term_a, tensors)
        assert max_rel_err(ana_a, finite_difference(term_a, tensors)) < 1e-4
        ana_b = analytic_grads(term_b, tensors)
        assert max_rel_err(ana_b, finite_difference(term_b, tensors)) < 1e-4

        ana_full = analytic_grads(r1_loss, tensors)
        for full, a, b in zip(ana_full, ana_a, ana_b):
            assert np.allclose(full, a + b, atol=1e-12)


class TestModelConsistency:
    def test_identical_parameters_zero(self):
        params, vocab = make_params("classification", n_label=3, seed=1)
        teacher = copy_params(params)
        seg = tok.viterbi_segment_words(vocab, ["abc", "d"])
        value = cons.model_consistency(mdl.predict(teacher, mdl.Packing.of([seg])).row_table(),
                                       mdl.predict(params, mdl.Packing.of([seg])))
        assert value.item() == 0.0

    def test_teacher_gradient_identically_zero(self):
        params, vocab = make_params("classification", n_label=3, seed=2)
        teacher = copy_params(params)
        teacher.tensors["embeddings"].data += 0.3
        seg = tok.viterbi_segment_words(vocab, ["ab", "e"])
        loss = cons.model_consistency(mdl.predict(teacher, mdl.Packing.of([seg])).row_table(),
                                      mdl.predict(params, mdl.Packing.of([seg])))
        ad.backward(loss)
        assert all(t.grad is None for t in teacher.parameters())
        assert any(t.grad is not None and np.abs(t.grad).max() > 0
                   for t in params.parameters())

    def test_value_matches_direct_summation(self):
        params, vocab = make_params("classification", n_label=2, seed=3)
        teacher = copy_params(params)
        rng = np.random.default_rng(9)
        rescale_params(params, rng)
        rescale_params(teacher, rng)
        seg = tok.viterbi_segment_words(vocab, ["abc", "ab"])
        tpred = mdl.predict(teacher, mdl.Packing.of([seg]))
        spred = mdl.predict(params, mdl.Packing.of([seg]))
        got = cons.model_consistency(tpred.row_table(), spred).item()
        [t_log], [s_log] = tpred.rows.outputs, spred.rows.outputs
        expected = direct_kl(np.exp(t_log.data), np.exp(s_log.data))
        assert abs(got - expected) < 1e-12

    def test_span_and_labeling_composition(self):
        for task, pooling in (("span", None), ("labeling", "first_subword")):
            params, vocab = make_params(task, n_label=3, seed=4, pooling=pooling)
            teacher = copy_params(params)
            teacher.tensors["mix_weight"].data *= -1.0
            seg = tok.viterbi_segment_words(vocab, ["ab", "cd", "e"])
            tpred = mdl.predict(teacher, mdl.Packing.of([seg]))
            spred = mdl.predict(params, mdl.Packing.of([seg]))
            got = cons.model_consistency(tpred.row_table(), spred).item()
            t_out, s_out = tpred.rows.outputs, spred.rows.outputs
            if task == "span":
                expected = (direct_kl(np.exp(t_out[0].data), np.exp(s_out[0].data))
                            + direct_kl(np.exp(t_out[1].data), np.exp(s_out[1].data)))
            else:
                expected = np.mean([
                    direct_kl(np.exp(t_out[0].data[w]), np.exp(s_out[0].data[w]))
                    for w in range(t_out[0].shape[0])
                ])
            assert abs(got - expected) < 1e-12
