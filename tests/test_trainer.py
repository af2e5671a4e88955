"""Trainer tests: schedule, optimizer, presets, stage composition, masking,
and the determinism contracts."""

import json
import math

import numpy as np
import pytest

from xtune import trainer as tr
from xtune import model as mdl
from xtune import tokenizer as tok


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
        values = {"w": np.array([1.0, 2.0])}
        grads = {"w": np.array([0.5, -0.5])}
        state = tr.OptimizerState.for_params(
            {"w": type("T", (), {"data": values["w"]})()})
        tr.adam_step(values, grads, state, lr=0.1)
        assert state.step == 1
        assert values["w"][0] < 1.0 and values["w"][1] > 2.0

    def test_missing_grad_treated_as_zero(self):
        values = {"w": np.array([1.0])}
        state = tr.OptimizerState(m={"w": np.zeros(1)}, v={"w": np.zeros(1)})
        tr.adam_step(values, {"w": None}, state, lr=0.1)
        assert values["w"][0] == 1.0


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


def stage1_teacher(train, cfg, res):
    """xtune's stage 1 on its own: R1 against the stage-1 strategy."""
    params = tr.init_params(cfg, res)
    trace = tr.run_stage(list(train), params, cfg, res, "stage1",
                         pair_strategy=cfg.stage1_strategy, pair_weight=cfg.stage1_pair_weight)
    return params, trace


class TestStageComposition:
    def test_identity_stage1_equals_plain_fine_tuning(self, small_classification_bench):
        bench, res = small_classification_bench
        cfg = small_config(stage1_strategy="CS", cs_word_ratio=0.0)
        xtune = tr.train_with_mode("xtune", bench.train, cfg, res)
        plain = tr.train_with_mode("r2-only", bench.train, cfg, res)
        trace1, trace2 = xtune.traces["stage1"], plain.traces["stage1"]
        assert len(trace1) == len(trace2)
        for a, b in zip(trace1, trace2):
            assert abs(a["total"] - b["total"]) < 1e-9
            assert a["example_consistency"] == 0.0
        # parameters agree up to the ~1e-16/step float residue of the
        # identity-view KL gradient (sum of exp(log_softmax) is 1 only to
        # machine precision), so not bitwise
        for name in xtune.teacher.tensors:
            assert np.allclose(xtune.teacher.tensors[name].data,
                               plain.teacher.tensors[name].data, atol=1e-9)

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

    def test_unlabeled_items_contribute_no_task_loss(self, small_labeling_bench):
        bench, res = small_labeling_bench
        cfg = small_config(task="labeling", setting="translate-train-all",
                           corpus_strategy="MT", pair_strategy="SS",
                           pooling="average", epochs=1)
        corpus = tr._build_corpus(bench.train, cfg, res)
        assert any(not v.label_available for v in corpus.augmented)
        student = tr.init_params(cfg, res)
        trace = tr.run_stage(corpus.items, student, cfg, res, "main",
                             teacher=tr.init_params(cfg, res), teacher_weight=0.5)
        for row in trace:
            assert row["labeled"] + row["unlabeled"] == \
                min(cfg.batch_size, len(corpus.items)) or row["step"] == len(trace)
        assert sum(row["unlabeled"] for row in trace) == len(corpus.augmented)

    def test_unlabeled_only_batch_without_regularizers_does_not_update(
            self, small_labeling_bench):
        bench, res = small_labeling_bench
        cfg = small_config(task="labeling", pooling="average", epochs=1, batch_size=4)
        corpus = tr._build_corpus(
            bench.train[:4],
            small_config(task="labeling", corpus_strategy="MT",
                         setting="translate-train-all", pooling="average"),
            res)
        unlabeled = [v for v in corpus.augmented if not v.label_available][:4]
        params = tr.init_params(cfg, res)
        start = {k: t.data.copy() for k, t in params.tensors.items()}
        trace = tr.run_stage(unlabeled, params, cfg, res, "main")
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

        def poisoned(prediction, gold):
            from xtune import autodiff as ad
            return ad.constant(float("nan"))

        monkeypatch.setattr(tr, "task_loss", poisoned)
        params = tr.init_params(cfg, res)
        with pytest.raises(tr.TrainingError, match="step 1"):
            tr.run_stage(list(bench.train), params, cfg, res, "main")


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

    def test_unknown_pooling_rejected_by_forward(self, small_labeling_bench):
        bench, res = small_labeling_bench
        params = tr.init_params(small_config(task="labeling"), res)
        seg = tok.viterbi_segment_words(res.vocab, bench.train[0].words)
        with pytest.raises(ValueError, match="pooling 'avg'"):
            mdl.predict(params, [seg], pooling="avg")


class TestMtPairing:
    def test_mt_views_without_store_rejected_at_stage_start(self, small_classification_bench):
        bench, res = small_classification_bench
        cfg = small_config(setting="translate-train-all", pair_strategy="MT")
        no_store = tr.Resources(vocab=res.vocab, dictionaries=res.dictionaries, store=None)
        from xtune.augment import StrategyError
        with pytest.raises(StrategyError, match="translations.jsonl"):
            tr.run_stage(list(bench.train), tr.init_params(cfg, no_store), cfg, no_store,
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
