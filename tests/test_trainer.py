"""Trainer tests: schedule, optimizer, presets, stage composition, masking,
and the determinism contracts."""

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from xtune import augment as aug
from xtune import autodiff as ad
from xtune import consistency as cons
from xtune import data
from xtune import trainer as tr
from xtune import model as mdl
from xtune import tokenizer as tok

import reference as ref
from conftest import build_benchmark, part


def checkpoint_bytes(params, tmp_path, name):
    path = tmp_path / name
    mdl.save_params(params, path)
    return path.read_bytes()


class TestSchedule:
    def test_warmup_end_hits_base(self):
        assert tr.lr_at(10, 100, 0.5, 0.1) == 0.5

    def test_total_decays_to_zero(self):
        assert tr.lr_at(100, 100, 0.5, 0.1) == 0.0

    def test_midpoint_of_warmup(self):
        assert tr.lr_at(5, 100, 1.0, 0.1) == 0.5

    def test_short_warmup_rejected(self):
        with pytest.raises(ValueError):
            tr.lr_at(1, 5, 0.1, 0.1)


class TestAdam:
    def test_first_step_moves_against_gradient(self):
        values = np.array([1.0, 2.0])
        w = ad.Tensor(values)
        w.grad = np.array([0.5, -0.5])
        state = tr.OptimizerState(m=np.zeros(2), v=np.zeros(2))
        tr.adam_step(values, [w], state, lr=0.1)
        assert state.step == 1
        assert values[0] < 1.0 and values[1] > 2.0

    def test_missing_grad_treated_as_zero(self):
        values = np.array([1.0])
        state = tr.OptimizerState(m=np.zeros(1), v=np.zeros(1))
        tr.adam_step(values, [ad.Tensor(values)], state, lr=0.1)
        assert values[0] == 1.0

    def test_flat_update_equals_the_per_tensor_update_bit_for_bit(self):
        """Over several steps on random tensors, one of them without a
        gradient, the one flat update moves every value, moment and tensor
        view as the former per-tensor update did, bit for bit."""
        rng = np.random.default_rng(4)
        params = mdl.ModelParams("span", 7, 3, 5, rng=rng)
        for t in params.parameters():
            t.data = rng.normal(0.0, 1.0, t.data.shape)
        want = {k: t.data.copy() for k, t in params.tensors.items()}
        m = {k: np.zeros_like(v) for k, v in want.items()}
        v = {k: np.zeros_like(value) for k, value in want.items()}
        values = params.flatten()
        state = tr.OptimizerState(np.zeros(values.size), np.zeros(values.size))
        for step in range(1, 8):
            lr = 0.05 * step
            for name, t in params.tensors.items():
                t.grad = None if name == "mix_bias" else rng.normal(0.0, 1.0, t.data.shape)
            grads = {k: t.grad for k, t in params.tensors.items()}
            tr.adam_step(values, params.parameters(), state, lr)
            c1, c2 = 1.0 - tr.ADAM_BETA1 ** step, 1.0 - tr.ADAM_BETA2 ** step
            for name, value in want.items():   # the per-tensor update
                g = np.zeros_like(value) if grads[name] is None else grads[name]
                m[name] = tr.ADAM_BETA1 * m[name] + (1.0 - tr.ADAM_BETA1) * g
                v[name] = tr.ADAM_BETA2 * v[name] + (1.0 - tr.ADAM_BETA2) * g * g
                value -= lr * (m[name] / c1) / (np.sqrt(v[name] / c2) + tr.ADAM_EPS)
            assert state.step == step
            for got, moments in ((values, want), (state.m, m), (state.v, v)):
                assert np.array_equal(got, np.concatenate([x.ravel() for x in moments.values()]))
            for name, t in params.tensors.items():
                assert np.array_equal(t.data, want[name]) and np.shares_memory(t.data, values)


class TestPresets:
    def test_xnli_cross_lingual(self):
        cfg = tr.TrainConfig.from_preset("xnli", "cross-lingual-transfer")
        assert (cfg.stage1_strategy, cfg.corpus_strategy, cfg.pair_strategy) == \
            ("CS", "CS", "CS")
        assert cfg.example_weight == 5.0 and cfg.model_weight == 5.0

    def test_pos_translate_train_all(self):
        cfg = tr.TrainConfig.from_preset("pos", "translate-train-all")
        assert (cfg.stage1_strategy, cfg.corpus_strategy, cfg.pair_strategy) == \
            ("SS", "MT", "SS")
        assert cfg.example_weight == 5.0 and cfg.model_weight == 0.3
        assert cfg.task == "labeling" and cfg.pooling == "average"

    def test_tydiqa_translate_train_all(self):
        cfg = tr.TrainConfig.from_preset("tydiqa", "translate-train-all")
        assert (cfg.stage1_strategy, cfg.corpus_strategy, cfg.pair_strategy) == \
            ("SS", "MT", "SS")
        assert cfg.example_weight == 5.0 and cfg.model_weight == 0.3

    def test_every_pair_weight_is_five(self):
        for key, (_s1, _c, _p, w_pair, _w_model) in tr.PRESETS.items():
            assert w_pair == 5.0, key


def small_config(task="classification", **kw):
    defaults = dict(
        task=task,
        n_label=2 if task == "classification" else 3,
        epochs=2,
        batch_size=16,
        learning_rate=0.02,
        seed=3,
        dim=8,
        max_len=48,
        cs_word_ratio=0.3,
        mt_languages=("xx", "yy"),
    )
    defaults.update(kw)
    return tr.TrainConfig(**defaults)


def record_segs(table, n_words, rids):
    """The segmentation of each sequence given as ``n_words[k]`` record ids
    of a ``model.RecordTable``."""
    first = np.cumsum(n_words) - n_words
    return [tok.Segmentation([table.records[r] for r in rids[a:a + n].tolist()])
            for a, n in zip(first.tolist(), n_words.tolist())]


def stage_rows(stage, corpus):
    """A ``_StageTable``'s items as (words, segmentation, gold, noised) rows;
    gold is read from the stage's ``corpus``, None where an item has none."""
    segs = record_segs(stage.records, stage.packing.n_words, stage.rids)
    words = [stage.words[a:a + n].tolist() for a, n in zip(stage.packing.word_starts.tolist(),
                                                            stage.packing.n_words.tolist())]
    gold = [ex.gold() if ex.labeled else None for ex in ref.examples(corpus)]
    return list(zip(words, segs, gold, stage.noised.tolist()))


def view_tuples(stage, views):
    """An epoch's ``_Views`` as (segmentation, encode noise, modified flags)
    per view, or None where no view exists."""
    out = []
    first = np.cumsum(views.n_words) - views.n_words
    segs = record_segs(stage.records, views.n_words, views.rids)
    for p, (a, n) in enumerate(zip(first.tolist(), views.n_words.tolist())):
        out.append((segs[p], None if views.noises is None else views.noises[p],
                    views.modified[a:a + n].tolist()) if n else None)
    return out


def stage1_teacher(train, cfg, res):
    """xtune's stage 1 on its own: R1 against the stage-1 strategy."""
    params = tr.init_params(cfg, res)
    trace, _views = tr.run_stage(aug.StageCorpus(train), params, cfg, res, "stage1",
                                 pair_strategy=cfg.stage1_strategy,
                                 pair_weight=cfg.stage1_pair_weight)
    return params, trace


class TestStageComposition:
    def test_identity_stage1_equals_plain_fine_tuning(self, small_classification_bench):
        bench, res = small_classification_bench
        cfg = small_config(stage1_strategy="CS", cs_word_ratio=0.0)
        xtune = tr.train_with_mode("xtune", bench.train, cfg, res)
        plain = tr.train_with_mode("r2-only", bench.train, cfg, res)
        trace1, trace2 = xtune.traces["stage1"], plain.traces["stage1"]
        assert len(trace1) == len(trace2)
        # every view is its item's input, so R1 never enters a graph: the
        # two stages run the same graphs on the same batches, bit for bit
        for a, b in zip(trace1, trace2):
            assert a["total"] == b["total"]
            assert a["example_consistency"] == 0.0 and a["pairs"] == a["labeled"]
        assert xtune.manifest["views"]["stage1"]["unchanged_views"] == \
            xtune.manifest["views"]["stage1"]["views_drawn"] > 0
        for name in xtune.teacher.tensors:
            assert np.array_equal(xtune.teacher.tensors[name].data,
                                  plain.teacher.tensors[name].data)

    def test_zero_weights_identity_corpus_reproduces_baseline_bitwise(
            self, small_classification_bench):
        bench, res = small_classification_bench
        # translate-train-all: the baseline trains on the (identity) corpus too
        cfg = small_config(setting="translate-train-all", corpus_strategy="CS",
                           pair_strategy="CS", cs_word_ratio=0.0,
                           example_weight=0.0, model_weight=0.0)
        xtune = tr.train_with_mode("xtune", bench.train, cfg, res)
        baseline = tr.train_with_mode("baseline", bench.train, cfg, res)

        assert xtune.traces["stage2"] == baseline.traces["stage2"]
        for name in xtune.student.tensors:
            assert np.array_equal(xtune.student.tensors[name].data,
                                  baseline.student.tensors[name].data)

    def test_teacher_bit_identical_through_stage2(self, small_classification_bench,
                                                  tmp_path):
        bench, res = small_classification_bench
        cfg = small_config()
        result = tr.train_with_mode("xtune", bench.train, cfg, res)
        before = checkpoint_bytes(result.teacher, tmp_path, "before.ckpt")
        # teacher is produced before stage 2; saving it after the full run
        # must give the same bytes as a fresh stage-1 run
        teacher_again, _ = stage1_teacher(bench.train, cfg, res)
        again = checkpoint_bytes(teacher_again, tmp_path, "again.ckpt")
        assert before == again

    def test_trained_values_round_trip_and_the_teacher_stays_frozen(
            self, small_classification_bench, tmp_path):
        """After a stage, the tensors (views of the stage's flat vector) hold
        the trained values a checkpoint round trip gives back; a stage-2
        student trained against a stage-1 teacher leaves the teacher's
        tensors as stage 1 left them."""
        bench, res = small_classification_bench
        cfg = small_config()
        teacher, _trace = stage1_teacher(bench.train, cfg, res)
        frozen = {k: t.data.copy() for k, t in teacher.tensors.items()}
        student = tr.init_params(cfg, res)
        start = {k: t.data.copy() for k, t in student.tensors.items()}
        tr.run_stage(aug.StageCorpus(bench.train), student, cfg, res, "main", pair_strategy="CS",
                     pair_weight=1.0, teacher=teacher, teacher_weight=1.0)
        for params in (teacher, student):
            mdl.save_params(params, tmp_path / "params.ckpt")
            loaded = mdl.load_params(tmp_path / "params.ckpt")
            assert list(loaded.tensors) == list(params.tensors)
            for name, t in params.tensors.items():
                assert np.array_equal(loaded.tensors[name].data, t.data), name
        for name, t in teacher.tensors.items():
            assert np.array_equal(t.data, frozen[name]), name
        assert not any(np.array_equal(t.data, start[k]) for k, t in student.tensors.items())

    def test_loss_decomposition_identity(self, small_classification_bench):
        bench, res = small_classification_bench
        cfg = small_config(example_weight=2.5, model_weight=1.5)
        result = tr.train_with_mode("xtune", bench.train, cfg, res)
        for row in result.traces["stage2"]:
            recomposed = (row["task"]
                          + cfg.example_weight * row["example_consistency"]
                          + cfg.model_weight * row["model_consistency"])
            assert abs(row["total"] - recomposed) < 1e-9

    def test_stage1_loss_trace_finite_and_decreasing(self, small_classification_bench):
        bench, res = small_classification_bench
        for seed in range(3):
            cfg = small_config(seed=seed, epochs=3)
            _params, trace = stage1_teacher(bench.train, cfg, res)
            totals = [t["total"] for t in trace]
            assert all(math.isfinite(v) for v in totals)
            assert totals[-1] < totals[0]

    def test_unknown_mode_rejected(self, small_classification_bench):
        bench, res = small_classification_bench
        with pytest.raises(ValueError, match="mode"):
            tr.train_with_mode("both", bench.train, small_config(), res)

    @pytest.mark.parametrize("mode,stages,corpus_built", [
        ("baseline", ["stage2"], False),
        ("r1-only", ["stage2"], False),
        ("r2-only", ["stage1", "stage2"], True),
        ("xtune", ["stage1", "stage2"], True),
    ])
    def test_mode_row_decides_stages_terms_and_corpus(self, mode, stages, corpus_built,
                                                      small_classification_bench):
        bench, res = small_classification_bench
        r1, r2 = tr.MODES[mode]
        result = tr.train_with_mode(mode, bench.train, small_config(epochs=1), res)
        assert sorted(result.traces) == stages
        assert (result.teacher is not None) == r2
        stage2 = result.traces["stage2"]
        assert any(row["pairs"] for row in stage2) == r1
        assert any(row["model_consistency"] for row in stage2) == r2
        if r2:
            assert any(row["pairs"] for row in result.traces["stage1"]) == r1
        sizes = result.manifest["corpus_sizes"]
        assert sizes["train"] == len(bench.train)
        assert sizes["augmented"] == (len(bench.train) if corpus_built else 0)
        assert sizes["missing_translations"] == 0
        items = sum(row["labeled"] + row["unlabeled"] for row in stage2)
        assert items == sizes["train"] + sizes["augmented"]

    def test_missing_translations_reach_the_manifest(self, small_classification_bench):
        bench, res = small_classification_bench
        cfg = small_config(setting="translate-train-all", corpus_strategy="MT",
                           mt_languages=("xx", "nope"), epochs=1)
        result = tr.train_with_mode("baseline", bench.train, cfg, res)
        sizes = result.manifest["corpus_sizes"]
        assert sizes["missing_translations"] == len(bench.train)
        assert sizes["augmented"] == len(bench.train)


class TestLabelMasking:
    def test_stage_without_consistency_terms_sees_labeled_items_only(
            self, small_labeling_bench):
        bench, res = small_labeling_bench
        cfg = small_config(task="labeling", setting="translate-train-all",
                           corpus_strategy="MT", pair_strategy="SS",
                           pooling="average", epochs=1)
        n, n_views = len(bench.train), 2 * len(bench.train)   # MT into xx and yy
        for mode, labeled, unlabeled in (("baseline", n, 0), ("r1-only", n, n_views)):
            trace = tr.train_with_mode(mode, bench.train, cfg, res).traces["stage2"]
            assert sum(row["labeled"] for row in trace) == labeled, mode
            assert sum(row["unlabeled"] for row in trace) == unlabeled, mode

    def test_baseline_keeps_the_pinned_draws_of_the_labeled_items(self, monkeypatch):
        """On a translate-train-all SS corpus, baseline's ``has_gold`` filter
        drops an unlabeled original with its view; every kept view keeps
        its own pinned draw."""
        bench, res = build_benchmark(task="labeling", vocab_size=40)
        cfg = small_config(task="labeling", setting="translate-train-all", corpus_strategy="SS",
                           ss_alpha=0.0, pooling="average", epochs=1)
        corpus = part(bench.train, slice(24))
        unlabeled = np.arange(24) % 3 == 0
        train = dataclasses.replace(corpus, has_gold=~unlabeled, golds=np.where(
            np.repeat(unlabeled, corpus.n_words), -1, corpus.golds))
        built = tr._build_corpus(train, cfg, res)
        stages, stage_table = [], tr._StageTable
        monkeypatch.setattr(tr, "_StageTable", lambda items, *args: stages.append(
            (items, stage_table(items, *args))) or stages[-1][1])
        trace = tr.train_with_mode("baseline", train, cfg, res).traces["stage2"]
        ((items, stage),) = stages
        keep = np.concatenate((~unlabeled, ~unlabeled))
        assert stage.ids == [i for i, k in zip(built.corpus.ids, keep.tolist()) if k]
        assert items.corpus.has_gold.all() and len(items.corpus) == 2 * 16
        viterbi = [tok.viterbi_segment_words(res.vocab, words)
                   for words in data.cut(train.words, train.n_words)]
        drawn = list(map(tok.Segmentation, data.cut(built.pinned, train.n_words)))
        want = [seg for seg, k in zip(viterbi + drawn, keep.tolist()) if k]
        assert record_segs(stage.records, stage.packing.n_words, stage.rids) == want
        assert any(a != b for a, b in zip(want[:16], want[16:]))   # draws that moved
        assert sum(row["labeled"] for row in trace) == 2 * 16
        assert sum(row["unlabeled"] for row in trace) == 0

    def test_unlabeled_items_contribute_no_task_loss(self, small_labeling_bench):
        bench, res = small_labeling_bench
        cfg = small_config(task="labeling", setting="translate-train-all",
                           corpus_strategy="MT", pair_strategy="SS",
                           pooling="average", epochs=1)
        corpus = tr._build_corpus(bench.train, cfg, res)
        n_views = len(corpus.corpus) - len(bench.train)
        assert not corpus.corpus.has_gold[len(bench.train):].any() and n_views
        student = tr.init_params(cfg, res)
        trace, _views = tr.run_stage(corpus, student, cfg, res, "main",
                                     teacher=tr.init_params(cfg, res), teacher_weight=0.5)
        for row in trace:
            assert row["labeled"] + row["unlabeled"] == \
                min(cfg.batch_size, len(corpus.corpus)) or row["step"] == len(trace)
        assert sum(row["unlabeled"] for row in trace) == n_views

    def test_unlabeled_only_batch_without_regularizers_does_not_update(
            self, small_labeling_bench):
        bench, res = small_labeling_bench
        cfg = small_config(task="labeling", pooling="average", epochs=1, batch_size=4)
        corpus = tr._build_corpus(
            part(bench.train, slice(4)),
            small_config(task="labeling", corpus_strategy="MT",
                         setting="translate-train-all", pooling="average"),
            res).corpus
        unlabeled = aug.StageCorpus(part(corpus, np.flatnonzero(~corpus.has_gold)[:4]))
        params = tr.init_params(cfg, res)
        start = {k: t.data.copy() for k, t in params.tensors.items()}
        trace, _views = tr.run_stage(unlabeled, params, cfg, res, "main")
        assert all(row["total"] == 0.0 and row["labeled"] == 0 for row in trace)
        for name, t in params.tensors.items():
            assert np.array_equal(t.data, start[name])


class TestDeterminism:
    def test_same_seed_bit_identical_checkpoints_and_manifests(
            self, small_classification_bench, tmp_path):
        bench, res = small_classification_bench
        runs = []
        for tag in ("a", "b"):
            cfg = small_config(seed=11)
            result = tr.train_with_mode("xtune", bench.train, cfg, res)
            student = checkpoint_bytes(result.student, tmp_path, f"s-{tag}.ckpt")
            teacher = checkpoint_bytes(result.teacher, tmp_path, f"t-{tag}.ckpt")
            manifest = json.dumps(result.manifest, sort_keys=True)
            runs.append((student, teacher, manifest))
        assert runs[0] == runs[1]

    def test_teacher_free_gn_stage_keeps_its_noise_stream(self, small_classification_bench):
        """Every GN item of the main stage draws encode noise from the stage's
        noise stream, in the epoch's shuffled order.  The digest of the trace
        pins that stream bit for bit (numpy 2.4, x86-64, as ``GOLDEN`` does).
        It was recorded while each step drew its own batch's noise, so it also
        checks that one draw per epoch gives the same values."""
        bench, res = small_classification_bench
        cfg = small_config(setting="translate-train-all", corpus_strategy="GN",
                           noise_sigma=0.2, epochs=3)
        result = tr.train_with_mode("r1-only", bench.train, cfg, res)
        trace = result.traces["stage2"]
        assert len(trace) == 3 * math.ceil(2 * len(bench.train) / cfg.batch_size)
        digest = hashlib.sha256(json.dumps(trace, sort_keys=True).encode()).hexdigest()
        assert digest == "c6ca0f14f8b70771e1857e6795f972368ccbb08bbd87e695654ec0ab8dcce6aa"

    def test_different_seeds_differ(self, small_classification_bench, tmp_path):
        bench, res = small_classification_bench
        a = tr.train_with_mode("xtune", bench.train, small_config(seed=1), res)
        b = tr.train_with_mode("xtune", bench.train, small_config(seed=2), res)
        assert not np.array_equal(a.student.tensors["embeddings"].data,
                                  b.student.tensors["embeddings"].data)

    def test_substreams_are_independent_of_label_order(self):
        a = tr.substream(7, "alpha").random(4)
        b = tr.substream(7, "beta").random(4)
        a2 = tr.substream(7, "alpha").random(4)
        assert np.array_equal(a, a2)
        assert not np.array_equal(a, b)


class TestAbort:
    def test_non_finite_loss_aborts_with_step(self, small_classification_bench,
                                              monkeypatch):
        bench, res = small_classification_bench
        cfg = small_config(epochs=1)

        def poisoned(prediction, labeled, gold):
            from xtune import autodiff as ad
            return ad.constant(float("nan"))

        monkeypatch.setattr(tr, "task_loss", poisoned)
        params = tr.init_params(cfg, res)
        with pytest.raises(tr.TrainingError, match="step 1"):
            tr.run_stage(aug.StageCorpus(bench.train), params, cfg, res, "main")


class TestConfigValidation:
    @pytest.mark.parametrize("field,value", [
        ("task", "nope"),
        ("stage1_strategy", "ZZ"),
        ("corpus_strategy", "ZZ"),
        ("pair_strategy", "ZZ"),
        ("pooling", "avg"),
        ("epochs", 0),
        ("batch_size", 0),
        ("model_weight", -1.0),
        ("noise_sigma", -0.1),
        ("ss_alpha", -0.1),
        ("cs_word_ratio", 1.5),
        ("cs_word_ratio", -0.1),
        ("learning_rate", float("nan")),
        ("learning_rate", 0.0),
        ("learning_rate", -1.0),
        ("example_weight", float("nan")),
        ("model_weight", float("inf")),
        ("noise_sigma", float("nan")),
        ("ss_alpha", float("nan")),
        ("stage1_pair_weight", -1.0),
        ("dim", 0),
        ("max_len", 0),
        ("seed", -1),
        ("n_label", 0),
        ("n_label", -1),
        ("mt_languages", ("xx", "")),
        ("mt_languages", ("xx", "xx")),
        ("mt_languages", ("x y",)),
        ("mt_languages", ("x@y",)),
    ])
    def test_bad_field_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            tr.TrainConfig(**{field: value})

    @pytest.mark.parametrize("task", ["labeling", "span"])
    @pytest.mark.parametrize("field", ["stage1_strategy", "pair_strategy"])
    def test_mt_pairs_on_token_tasks_rejected_by_name(self, task, field):
        from xtune.augment import StrategyError
        with pytest.raises(StrategyError, match=field):
            tr.TrainConfig(task=task, **{field: "MT"})

    @pytest.mark.parametrize("task", ["classification", "span"])
    def test_pooling_applies_to_labeling_only(self, task):
        with pytest.raises(ValueError, match=f"pooling 'average' applies to labeling only, "
                                             f"not {task}"):
            tr.TrainConfig(task=task, pooling="average")
        assert tr.TrainConfig(task=task).pooling == "first_subword"
        assert tr.TrainConfig(task="labeling", pooling="average").pooling == "average"
        for dataset, (preset_task, _pooling) in tr.PRESET_TASKS.items():
            if preset_task == task:
                with pytest.raises(ValueError, match="pooling"):
                    tr.TrainConfig.from_preset(dataset, "cross-lingual-transfer",
                                               pooling="average")

    def test_unknown_pooling_rejected_by_model(self):
        with pytest.raises(ValueError, match="pooling 'avg'"):
            mdl.ModelParams("labeling", 10, 8, 48, n_label=3, pooling="avg")


class TestMaxLen:
    def test_a_drawn_view_over_max_len_names_its_item(self, small_classification_bench,
                                                      monkeypatch):
        """Every item fits; at the epoch start, the first view in the epoch's
        order that does not is named by its item, before any step."""
        bench, res = small_classification_bench
        train = ref.examples(bench.train)
        longest = max(tok.viterbi_segment_words(res.vocab, ex.words).n_pieces for ex in train)
        cfg = small_config(max_len=longest, ss_alpha=0.0)
        seen = []
        epoch_views, resample = tr._epoch_views, tr.subword_resample

        def recording_views(stage, order, *args):
            seen.append(order)
            return epoch_views(stage, order, *args)

        def recording_resample(*args):
            seen.append(drawn := resample(*args))
            return drawn

        monkeypatch.setattr(tr, "_epoch_views", recording_views)
        monkeypatch.setattr(tr, "subword_resample", recording_resample)
        monkeypatch.setattr(tr, "predict", lambda *args, **kw: pytest.fail("a forward ran"))
        with pytest.raises(ValueError) as raised:
            tr.run_stage(aug.StageCorpus(bench.train), tr.init_params(cfg, res), cfg, res, "main",
                         pair_strategy="SS", pair_weight=1.0)
        order, draws = seen
        records, lengths = map(res.vocab.sampler(0.0).record, draws.tolist()), []
        for i in order.tolist():
            lengths.append(sum(len(next(records)[1]) for _ in train[i].words))
        p = next(p for p, n in enumerate(lengths) if n > longest)
        assert str(raised.value) == (f"example {train[order[p]].id!r}: SS view of "
                                     f"{lengths[p]} subwords exceeds max_len {longest}")


class TestMtPairing:
    def test_mt_views_without_store_rejected_at_stage_start(self, small_classification_bench):
        bench, res = small_classification_bench
        cfg = small_config(setting="translate-train-all", pair_strategy="MT")
        no_store = aug.Resources(vocab=res.vocab, dictionaries=res.dictionaries, store=None)
        from xtune.augment import StrategyError
        with pytest.raises(StrategyError, match="translations.jsonl"):
            tr.run_stage(aug.StageCorpus(bench.train), tr.init_params(cfg, no_store), cfg, no_store,
                         "main", pair_strategy="MT", pair_weight=1.0)

    def test_mt_views_for_classification_pairs(self, small_classification_bench):
        bench, res = small_classification_bench
        cfg = small_config(setting="translate-train-all", corpus_strategy="MT",
                           pair_strategy="MT", stage1_strategy="MT", epochs=1)
        result = tr.train_with_mode("xtune", bench.train, cfg, res)
        assert any(row["pairs"] > 0 for row in result.traces["stage2"])

    def test_mt_pair_rejected_for_labeling(self, small_labeling_bench):
        bench, res = small_labeling_bench
        from xtune.augment import StrategyError
        with pytest.raises(StrategyError):
            cfg = small_config(task="labeling", pair_strategy="MT", pooling="average")
            tr.train_with_mode("r1-only", bench.train, cfg, res)


class TestViewStatistics:
    """The manifest's per-stage ``views`` record, each value recomputed from
    what the run drew and scored."""

    @staticmethod
    def record_stages(monkeypatch):
        """Per stage, the modified flags of each view the batched draws
        returned, one list per view, and the restricted span alignments R1
        found empty."""
        stages = []
        run_stage, epoch_views = tr.run_stage, tr._epoch_views
        aligned = cons.aligned_first_subword_positions

        def recording_stage(*args, **kwargs):
            stages.append({"views": [], "draws": 0, "empty": 0})
            return run_stage(*args, **kwargs)

        def recording_draw(draw):
            def recorded(*args):
                stages[-1]["draws"] += 1
                return draw(*args)
            return recorded

        def recording_views(*args):
            views = epoch_views(*args)
            first = np.cumsum(views.n_words) - views.n_words
            stages[-1]["views"] += [views.modified[a:a + n].tolist()
                                    for a, n in zip(first, views.n_words)]
            return views

        def recording_aligned(*args):
            positions = aligned(*args)
            stages[-1]["empty"] += not positions[0]
            return positions

        monkeypatch.setattr(tr, "run_stage", recording_stage)
        monkeypatch.setattr(tr, "_epoch_views", recording_views)
        monkeypatch.setattr(tr, "code_switch", recording_draw(tr.code_switch))
        monkeypatch.setattr(tr, "subword_resample", recording_draw(tr.subword_resample))
        monkeypatch.setattr(cons, "aligned_first_subword_positions", recording_aligned)
        return stages

    def test_span_cs_and_ss_views(self, monkeypatch):
        bench, res = build_benchmark(task="span", train_examples=24, vocab_size=40)
        cfg = tr.TrainConfig.from_preset("xquad", "translate-train-all", epochs=3,
                                         batch_size=8, dim=8, max_len=48, seed=3,
                                         mt_languages=("xx", "yy"), ss_alpha=0.0,
                                         cs_word_ratio=0.9)
        stages = self.record_stages(monkeypatch)
        result = tr.train_with_mode("xtune", bench.train, cfg, res)
        views = result.manifest["views"]
        assert list(views) == list(result.traces) == ["stage1", "stage2"]
        for (name, trace), seen in zip(result.traces.items(), stages):
            flags = [flag for view in seen["views"] for flag in view]
            drawn = sum(row["pairs"] for row in trace)
            assert drawn == len(seen["views"]) and seen["draws"] == cfg.epochs
            # every item of both stages is Viterbi-segmented and SS flags are
            # relative to Viterbi, so a view is unchanged when it flags no word
            unchanged = sum(not any(view) for view in seen["views"])
            assert views[name] == {"steps": len(trace), "views_drawn": drawn,
                                   "views_missing": 0, "missing_ids": [],
                                   "unchanged_views": unchanged,
                                   "modified_word_share": sum(flags) / len(flags),
                                   "empty_alignments": seen["empty"]}
        assert views["stage1"]["views_drawn"] == 3 * len(bench.train)
        assert views["stage2"]["views_drawn"] == 3 * 3 * len(bench.train)
        for name in views:
            assert views[name]["empty_alignments"] > 0, name
            assert 0 < views[name]["modified_word_share"] < 1, name
        assert 0 < views["stage2"]["unchanged_views"] < views["stage2"]["views_drawn"]

    def test_mt_items_without_another_language(self, small_classification_bench):
        bench, res = small_classification_bench
        dropped = sorted(bench.train.ids[::5])
        store = aug.TranslationStore()
        for example_id in bench.train.ids:
            for lang in ("xx", "yy") if example_id not in dropped else ():
                store.add(example_id, lang, *bench.store.get(example_id, lang))
        res = aug.Resources(vocab=res.vocab, dictionaries=res.dictionaries, store=store)
        cfg = small_config(pair_strategy="MT", epochs=2)
        result = tr.train_with_mode("r1-only", bench.train, cfg, res)
        trace, views = result.traces["stage2"], result.manifest["views"]["stage2"]
        assert views == {"steps": len(trace), "views_drawn": sum(row["pairs"] for row in trace),
                         "views_missing": 2 * len(dropped), "missing_ids": dropped,
                         "unchanged_views": 0, "modified_word_share": 1.0,
                         "empty_alignments": 0}
        assert views["views_drawn"] == 2 * (len(bench.train) - len(dropped))

        baseline = tr.train_with_mode("baseline", bench.train, cfg, res)
        assert baseline.manifest["views"]["stage2"] == {
            "steps": len(baseline.traces["stage2"]), "views_drawn": 0, "views_missing": 0,
            "missing_ids": [], "unchanged_views": 0, "modified_word_share": None,
            "empty_alignments": 0}


class TestUnchangedViews:
    """Which drawn pair views stay out of R1's packing and graph: exactly
    those whose input is their item's, with encode noise on neither side."""

    @staticmethod
    def draw(items, kind, cfg, res):
        stage = tr._StageTable(items, res.vocab, cfg)
        order = np.arange(len(items.corpus))
        views = tr._epoch_views(stage, order, kind, cfg, res, np.random.default_rng(0))
        unchanged, _same, _aligned = tr._unchanged(stage, order, views)
        return stage_rows(stage, items.corpus), view_tuples(stage, views), unchanged.tolist()

    def test_a_noised_item_is_changed(self, small_classification_bench, monkeypatch):
        bench, res = small_classification_bench
        cfg = small_config(corpus_strategy="GN", cs_word_ratio=0.0, noise_sigma=0.1)
        items = tr._build_corpus(part(bench.train, slice(24)), cfg, res)
        table, views, unchanged = self.draw(items, "CS", cfg, res)
        noised = [row[3] for row in table]
        assert noised == [i >= 24 for i in range(48)]
        assert all(view[0].words == row[1].words for row, view in zip(table, views))
        assert unchanged == [not flag for flag in noised]

        # in training, each step's R1 packs exactly its GN items' views
        sizes = []
        r1 = tr.example_consistency

        def recording_r1(pred, segs, pairs, drawn):
            sizes.append((len(pairs), drawn))
            return r1(pred, segs, pairs, drawn)

        monkeypatch.setattr(tr, "example_consistency", recording_r1)
        trace, views = tr.run_stage(items, tr.init_params(cfg, res), cfg, res, "main",
                                    pair_strategy="CS", pair_weight=1.0)
        steps = [row for row in trace if row["example_consistency"] != 0.0]
        assert sizes and len(sizes) == len(steps)
        assert sum(n for n, _drawn in sizes) == views["views_drawn"] - views["unchanged_views"]
        assert views["unchanged_views"] == 2 * 24
        assert [drawn for _n, drawn in sizes] == [row["pairs"] for row in steps]

    def test_a_noised_view_is_changed(self, small_classification_bench):
        bench, res = small_classification_bench
        table, views, unchanged = self.draw(aug.StageCorpus(part(bench.train, slice(16))), "GN",
                                            small_config(noise_sigma=0.1), res)
        assert all(view[0].words == row[1].words and view[1] is not None and not row[3]
                   for row, view in zip(table, views))
        assert not any(unchanged)

    def test_a_pinned_ss_item_against_its_viterbi_view(self):
        bench, res = build_benchmark(task="labeling", vocab_size=40)
        cfg = small_config(task="labeling", corpus_strategy="SS", ss_alpha=0.0,
                           cs_word_ratio=0.0, pooling="average")
        built = tr._build_corpus(part(bench.train, slice(24)), cfg, res)
        # the SS views alone: their pinned draws cover the corpus's words
        items = dataclasses.replace(built, corpus=part(built.corpus, slice(24, None)))
        table, views, unchanged = self.draw(items, "CS", cfg, res)
        pinned = []
        for row, view in zip(table, views):
            viterbi = tok.viterbi_segment_words(res.vocab, row[0])
            # the view is the Viterbi segmentation and flags no word
            assert view[0].words == viterbi.words and not any(view[2])
            pinned.append(row[1].words != viterbi.words)
        assert any(pinned) and not all(pinned)
        assert unchanged == [not differs for differs in pinned]

    def test_adam_steps_on_a_batch_of_unchanged_views_alone(self, small_classification_bench,
                                                           monkeypatch):
        """An unlabeled item whose view is unchanged makes a step with no
        graph term; Adam still takes that step, on zero gradients, so the
        optimizer's step count does not depend on the skip."""
        bench, res = small_classification_bench
        corpus = part(bench.train, slice(16))
        unlabeled = np.arange(16) % 2 == 0
        items = aug.StageCorpus(dataclasses.replace(
            corpus, has_gold=~unlabeled, golds=np.where(unlabeled, -1, corpus.golds)))
        cfg = small_config(cs_word_ratio=0.0, batch_size=1)
        steps = []
        adam = tr.adam_step
        monkeypatch.setattr(tr, "adam_step", lambda *args: steps.append(adam(*args)))
        trace, views = tr.run_stage(items, tr.init_params(cfg, res), cfg, res, "main",
                                    pair_strategy="CS", pair_weight=1.0)
        assert views["unchanged_views"] == views["views_drawn"] == len(trace) == 2 * 16
        assert sum(row["labeled"] == 0 and row["total"] == 0.0 for row in trace) == 16
        assert len(steps) == len(trace)

