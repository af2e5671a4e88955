"""Encoder and task-head tests, including gradient fidelity per task."""

import copy
import json
import math

import numpy as np
import pytest

from xtune import autodiff as ad
from xtune import model as mdl
from xtune import tokenizer as tok

from conftest import sample_words
from test_autodiff import analytic_grads, finite_difference, max_rel_err


def small_vocab():
    pieces = {ch: math.log(0.1) for ch in "abcde"}
    pieces.update({"ab": math.log(0.2), "cd": math.log(0.2), "abc": math.log(0.1)})
    return tok.UnigramVocab(pieces)


def make_params(task, n_label=None, seed=0, dim=6, max_len=16, pooling=None):
    vocab = small_vocab()
    rng = np.random.default_rng(seed)
    return mdl.ModelParams(task, len(vocab), dim, max_len, n_label=n_label, rng=rng,
                           pooling=pooling), vocab


def rescale_params(params, rng, scale=0.5):
    """Move parameters to unit-ish scale for gradient checks.

    At the 0.02 init scale some true gradient entries sit below the 1e-8
    relative-error floor, where central differences bottom out on float64
    roundoff; the op gradients themselves are scale-free.
    """
    for t in params.parameters():
        t.data = rng.normal(0.0, scale, t.data.shape)
    return params


def copy_params(params):
    """An independent model with the same architecture and numbers."""
    dup = copy.copy(params)
    dup.tensors = {k: ad.Tensor(t.data.copy()) for k, t in params.tensors.items()}
    return dup


def packing_of(n_pieces):
    """A one-sequence packing of ``n_pieces`` one-piece words."""
    return mdl.Packing.of([tok.Segmentation([(("a",), (0,))] * n_pieces)])


# every array of a Packing: built in __init__, then computed on first use
PACKING_FIELDS = ("n_words", "word_lengths", "ids", "word_starts", "first_rows", "starts",
                  "lengths", "seq", "positions", "word_of_row")


def assert_same_packing(got, want):
    """Two packings hold the same arrays, field for field, the ones computed
    on first use included."""
    for name in PACKING_FIELDS:
        value = getattr(want, name)
        assert getattr(got, name).dtype == value.dtype, name
        assert np.array_equal(getattr(got, name), value), name
    assert vars(got).keys() == vars(want).keys() == set(PACKING_FIELDS)


def prediction(task, packing, *outputs):
    """A ``Prediction`` of ``packing`` with the given output tensors on the
    task's rows: one label row per sequence (classification) or word
    (labeling), or the subword rows (span)."""
    if task == "classification":
        first, counts = np.arange(len(packing)), np.ones(len(packing), dtype=np.intp)
    elif task == "span":
        first, counts = packing.starts, packing.lengths
    else:
        first, counts = packing.word_starts, packing.n_words
    return mdl.Prediction(task, packing, mdl.RowTable(first, counts, outputs))


class TestEncode:
    def test_deterministic_without_noise(self):
        params, vocab = make_params("classification", n_label=3)
        seg = tok.viterbi_segment_words(vocab, ["abc", "de"])
        h1 = mdl.encode(params, mdl.Packing.of([seg])).data
        h2 = mdl.encode(params, mdl.Packing.of([seg])).data
        assert np.array_equal(h1, h2)

    def test_tiny_noise_is_a_tiny_perturbation(self):
        params, vocab = make_params("classification", n_label=3)
        seg = tok.viterbi_segment_words(vocab, ["abc"])
        clean = mdl.encode(params, mdl.Packing.of([seg])).data
        noise = np.random.default_rng(0).normal(0.0, 1e-8, (seg.n_pieces, params.dim))
        noisy = mdl.encode(params, mdl.Packing.of([seg]), noises=[noise]).data
        assert np.abs(noisy - clean).max() < 1e-6

    def test_noise_mean_matches_clean_encoding(self):
        # Monte-Carlo oracle: the mean of many noisy encodings approaches the
        # clean one; the tanh bias at this sigma stays well under 3 sd of the
        # empirical mean.
        params, vocab = make_params("classification", n_label=3, seed=2)
        seg = tok.viterbi_segment_words(vocab, ["ab"])
        packing = mdl.Packing.of([seg])
        clean = mdl.encode(params, packing).data
        rng = np.random.default_rng(7)
        sigma = 0.01
        draws = np.stack([
            mdl.encode(params, packing,
                       noises=[rng.normal(0.0, sigma, (seg.n_pieces, params.dim))]).data
            for _ in range(10_000)
        ])
        sd_of_mean = draws.std(axis=0) / math.sqrt(draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - clean) < 3.5 * sd_of_mean + 1e-6)

    def test_over_length_input_rejected(self):
        params, vocab = make_params("classification", n_label=2, max_len=2)
        seg = tok.viterbi_segment_words(vocab, ["a", "b", "c"])
        with pytest.raises(ValueError, match="max_len"):
            mdl.encode(params, mdl.Packing.of([seg]))


class TestPredict:
    def test_distributions_normalized_all_tasks(self):
        rng = np.random.default_rng(5)
        for task, n_label in (("classification", 4), ("span", None), ("labeling", 3)):
            params, vocab = make_params(task, n_label=n_label, seed=int(rng.integers(1e6)))
            seg = tok.viterbi_segment_words(vocab, ["abc", "d", "ab"])
            pred = mdl.predict(params, mdl.Packing.of([seg]))
            if task == "classification":
                assert abs(np.exp(pred.rows.outputs[0].data).sum() - 1) < 1e-9
            elif task == "span":
                for out in pred.rows.outputs:
                    assert abs(np.exp(out.data).sum() - 1) < 1e-9
            else:
                assert np.allclose(np.exp(pred.rows.outputs[0].data).sum(axis=1), 1.0, atol=1e-9)

    def test_single_label_degenerate_softmax(self):
        params, vocab = make_params("classification", n_label=1)
        seg = tok.viterbi_segment_words(vocab, ["ab"])
        pred = mdl.predict(params, mdl.Packing.of([seg]))
        assert pred.rows.outputs[0].data.tolist() == [[0.0]]

    def test_span_head_shapes(self):
        params, vocab = make_params("span")
        seg = tok.viterbi_segment_words(vocab, ["a", "b", "c"])
        pred = mdl.predict(params, mdl.Packing.of([seg]))
        assert [out.shape for out in pred.rows.outputs] == [(seg.n_pieces,)] * 2

    def test_poolings_coincide_for_single_subword_words(self):
        params, vocab = make_params("labeling", n_label=3)
        seg = tok.viterbi_segment_words(vocab, ["a"])
        assert seg.n_pieces == len(seg.words)  # marker not in this vocab
        first = mdl.predict(params, mdl.Packing.of([seg])).rows.outputs[0].data
        params.pooling = "average"
        avg = mdl.predict(params, mdl.Packing.of([seg])).rows.outputs[0].data
        assert np.allclose(first, avg, atol=1e-12)

    def test_labeling_rows_track_word_count_under_resegmentation(self):
        params, vocab = make_params("labeling", n_label=3, pooling="average")
        words = ["abc", "ab", "cde"]
        rng = np.random.default_rng(0)
        for _ in range(10):
            seg = sample_words(vocab, words, 0.5, rng)
            pred = mdl.predict(params, mdl.Packing.of([seg]))
            assert pred.rows.outputs[0].shape[0] == len(words)


    def test_row_table_take_gathers_each_sequence_rows(self):
        # the rows of listed sequences, in list order, repeats included,
        # equal to slicing each sequence's rows out of every output
        rng = np.random.default_rng(6)
        words = ["abc", "d", "ab", "cde", "e"]
        for task, n_label in (("classification", 4), ("span", None), ("labeling", 3)):
            params, vocab = make_params(task, n_label=n_label)
            segs = [sample_words(
                vocab, [str(w) for w in rng.choice(words, int(rng.integers(1, 5)))], 0.5, rng)
                for _ in range(7)]
            table = mdl.RowTable.join([
                mdl.predict(params, mdl.Packing.of(part)).row_table()
                for part in (segs[:3], segs[3:])])
            first, counts, outputs = mdl.predict(params, mdl.Packing.of(segs)).rows
            assert np.array_equal(table.first, first) and np.array_equal(table.counts, counts)
            index = [4, 0, 4, 6, 2]
            got = table.take(index)
            assert got.counts.tolist() == [counts[k] for k in index]
            for out, whole in zip(got.outputs, table.outputs):
                want = np.concatenate([whole[first[k]:first[k] + counts[k]] for k in index])
                assert out.tobytes() == want.tobytes()
            assert len(got.outputs) == len(outputs)


class TestTaskLoss:
    def test_perfect_prediction_zero_loss(self):
        pred = prediction("classification", packing_of(1), ad.Tensor([[0.0, -50.0]]))
        assert abs(mdl.task_loss(pred, [0], [0]).item()) < 1e-12

    def test_uniform_two_label(self):
        pred = prediction("classification", packing_of(1), ad.Tensor([[-math.log(2)] * 2]))
        assert abs(mdl.task_loss(pred, [0], [1]).item() - math.log(2)) < 1e-12

    def test_uniform_span_four_positions(self):
        uniform = ad.Tensor([-math.log(4)] * 4)
        pred = prediction("span", packing_of(4), uniform, uniform)
        assert abs(mdl.task_loss(pred, [0], [(2, 3)]).item() - 2 * math.log(4)) < 1e-12

    def test_labeling_mean_per_word(self):
        word_log = ad.Tensor(np.log(np.full((3, 2), 0.5)))
        pred = prediction("labeling", packing_of(3), word_log)
        assert abs(mdl.task_loss(pred, [0], [0, 1, 0]).item() - math.log(2)) < 1e-12

    def test_gold_out_of_range(self):
        pred = prediction("classification", packing_of(1), ad.Tensor([[0.0, -1.0]]))
        with pytest.raises(ValueError, match="out of range"):
            mdl.task_loss(pred, [0], [5])

    @pytest.mark.parametrize("labeled,tags,words", [
        ([1], [0, 1], 3), ([1], [0, 1, 0, 1], 3), ([0, 1], [0, 1, 0, 1, 0, 1], 5),
    ], ids=["short", "long", "both-long"])
    def test_labeling_tag_count_must_match_word_count(self, labeled, tags, words):
        # the flat tags of the labeled sequences, of 2 and 3 words
        packing = mdl.Packing.of([tok.Segmentation([(("a",), (0,))] * n) for n in (2, 3)])
        pred = prediction("labeling", packing, ad.Tensor(np.log(np.full((5, 2), 0.5))))
        with pytest.raises(ValueError, match=f"^{len(tags)} tags for {words} words$"):
            mdl.task_loss(pred, labeled, tags)

    @pytest.mark.parametrize("tag", [2, -1])
    def test_labeling_tag_out_of_range(self, tag):
        pred = prediction("labeling", packing_of(3), ad.Tensor(np.log(np.full((3, 2), 0.5))))
        with pytest.raises(ValueError, match=f"label {tag} out of range for 2 classes"):
            mdl.task_loss(pred, [0], [0, tag, 1])


class TestGradients:
    @pytest.mark.parametrize("task,n_label,gold", [
        ("classification", 3, [1]),
        ("span", None, [(0, 2)]),
        ("labeling", 3, [0, 2, 1]),
    ], ids=["classification-3-1", "span-None-gold1", "labeling-3-gold2"])
    def test_task_loss_gradients_match_fd(self, task, n_label, gold):
        params, vocab = make_params(task, n_label=n_label, seed=3, pooling="average")
        rescale_params(params, np.random.default_rng(17))
        seg = tok.viterbi_segment_words(vocab, ["abc", "d", "ab"])
        loss_fn = lambda: mdl.task_loss(mdl.predict(params, mdl.Packing.of([seg])), [0], gold)
        tensors = params.parameters()
        err = max_rel_err(analytic_grads(loss_fn, tensors),
                          finite_difference(loss_fn, tensors))
        assert err < 1e-4


class TestCheckpoints:
    def test_round_trip_exact(self, tmp_path):
        params, _ = make_params("labeling", n_label=3, seed=9)
        path = tmp_path / "model.ckpt"
        mdl.save_params(params, path)
        again = mdl.load_params(path)
        assert again.task == params.task and again.n_label == params.n_label
        for name, tensor in params.tensors.items():
            assert np.array_equal(again.tensors[name].data, tensor.data)

    def test_byte_identical_across_saves(self, tmp_path):
        params, _ = make_params("span", seed=4)
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        mdl.save_params(params, a)
        mdl.save_params(copy_params(params), b)
        assert a.read_bytes() == b.read_bytes()

    def test_pooling_round_trips_and_v1_pools_by_first_subword(self, tmp_path):
        params, _ = make_params("labeling", n_label=3, seed=9)
        params.pooling = "average"
        path = tmp_path / "model.ckpt"
        mdl.save_params(params, path)
        assert mdl.load_params(path).pooling == "average"
        lines = path.read_text(encoding="utf-8").split("\n")
        assert lines[0] == "xtune-params v2"
        meta = json.loads(lines[1])
        del meta["pooling"]
        lines[:2] = ["xtune-params v1", json.dumps(meta, sort_keys=True)]
        path.write_text("\n".join(lines), encoding="utf-8")
        assert mdl.load_params(path).pooling == "first_subword"

    # checkpoint lines: 1 header, 2 metadata, then a name line and a value
    # line per tensor: embeddings 3-4, positions 5-6, ..., head_bias 13-14
    @pytest.mark.parametrize("edit,message", [
        (lambda ls: ls.__setitem__(2, "tensor embedings 8 6"), ":3: tensor 'embedings' is unknown"),
        (lambda ls: ls.__setitem__(4, "tensor embeddings 8 6"), ":5: tensor 'embeddings' is repeated"),
        (lambda ls: ls.__setitem__(2, "tensor embeddings 6 8"),
         ":3: tensor 'embeddings' has shape (6, 8), expected (8, 6)"),
        (lambda ls: ls.__setitem__(3, ls[3].rsplit(" ", 1)[0]),
         ":4: tensor 'embeddings' needs 48 hex float values, got 47 fields"),
        (lambda ls: ls.__setitem__(3, ls[3].replace("0x", "zz", 1)),
         ":4: tensor 'embeddings' needs 48 hex float values, got 48 fields"),
        (lambda ls: ls.__delitem__(slice(12, 14)), ":13: missing tensor(s) ['head_bias']"),
        (lambda ls: ls.__setitem__(2, "bogus"), ":3: malformed tensor record"),
        (lambda ls: ls.__setitem__(1, "{}"), ":2: bad checkpoint metadata"),
    ], ids=["unknown", "repeated", "shape", "count", "value", "missing", "malformed", "meta"])
    def test_bad_tensor_records_rejected_with_line(self, edit, message, tmp_path):
        params, _ = make_params("labeling", n_label=3, dim=6, max_len=16)   # embeddings 8 x 6
        path = tmp_path / "model.ckpt"
        mdl.save_params(params, path)
        lines = path.read_text(encoding="utf-8").split("\n")[:-1]
        edit(lines)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            mdl.load_params(path)
        assert str(err.value).startswith(str(path) + message)

    def test_teacher_copy_is_independent(self):
        params, _ = make_params("classification", n_label=2)
        frozen = copy_params(params)
        params.tensors["embeddings"].data += 1.0
        assert not np.array_equal(frozen.tensors["embeddings"].data,
                                  params.tensors["embeddings"].data)
