"""The command line end to end at tiny scale (synth -> train -> eval -> gap
for every mode and task) and its clean failures on bad configs."""

import json
import math
import warnings

import pytest

from xtune import augment as aug
from xtune import autodiff as ad
from xtune import cli
from xtune import data
from xtune import evaluate as ev
from xtune import tokenizer as tok
from xtune import trainer as tr
from xtune.model import ModelParams, load_params, save_params

LANGUAGES = ("en", "xx", "yy")

# task -> (preset, setting, eval pooling)
TASKS = {
    "classification": ("xnli", "cross-lingual-transfer", None),
    "labeling": ("pos", "cross-lingual-transfer", "average"),
    "span": ("xquad", "translate-train-all", None),
}


@pytest.fixture(scope="module", params=sorted(TASKS))
def synth_dir(request, tmp_path_factory):
    task = request.param
    out = tmp_path_factory.mktemp(f"synth-{task}")
    code = cli.main(["synth", "--out", str(out), "--task", task,
                     "--languages", ",".join(LANGUAGES), "--lemmas", "10",
                     "--train-examples", "20", "--eval-examples", "6",
                     "--sentence-len", "3,5", "--vocab-size", "80", "--em-iters", "1",
                     "--seed", "2"])
    assert code == 0
    return task, out


def write_config(path, data_dir, **extra):
    path.write_text(json.dumps({"data_dir": str(data_dir), "epochs": 1, "batch_size": 8,
                                "dim": 8, "max_len": 48, "seed": 5, **extra}),
                    encoding="utf-8")
    return path


@pytest.mark.parametrize("mode", list(tr.MODES))
def test_synth_train_eval_gap(mode, synth_dir, tmp_path, capsys):
    task, data_dir = synth_dir
    preset, setting, pooling = TASKS[task]
    config = write_config(tmp_path / "config.json", data_dir, preset=preset, setting=setting)
    run = tmp_path / "run"
    assert cli.main(["train", "--config", str(config), "--mode", mode,
                     "--out", str(run)]) == 0

    manifest = json.loads((run / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["mode"] == mode
    r1, r2 = tr.MODES[mode]
    assert sorted(manifest["traces"]) == (["stage1", "stage2"] if r2 else ["stage2"])
    assert (run / "teacher.ckpt").exists() == r2
    assert manifest["config"]["task"] == task
    assert manifest["config"]["mt_languages"] == list(LANGUAGES[1:])
    if task != "span":   # n_label comes from the training records
        assert manifest["config"]["n_label"] == (2 if task == "classification" else 3)
    assert set(manifest["corpus_sizes"]) == {"train", "augmented", "missing_translations"}
    assert manifest["corpus_sizes"]["train"] == 20
    for trace in manifest["traces"].values():
        assert all(math.isfinite(row["total"]) for row in trace)

    report, gap = tmp_path / "report.json", tmp_path / "gap.json"
    args = ["eval", "--checkpoint", str(run / "student.ckpt"), "--data-dir", str(data_dir),
            "--out", str(report)]
    assert cli.main(args + (["--pooling", pooling] if pooling else [])) == 0
    rep = json.loads(report.read_text(encoding="utf-8"))
    assert rep["task"] == task and sorted(rep["per_language"]) == sorted(LANGUAGES)

    assert cli.main(["gap", "--report", str(report), "--out", str(gap)]) == 0
    payload = json.loads(gap.read_text(encoding="utf-8"))
    assert payload["transfer_gap"] == pytest.approx(rep["transfer_gap"])
    assert "transfer gap:" in capsys.readouterr().out


def test_eval_pooling_applies_to_labeling_only(synth_dir, tmp_path, capsys):
    task, data_dir = synth_dir
    preset, setting, _pooling = TASKS[task]
    config = write_config(tmp_path / "config.json", data_dir, preset=preset, setting=setting)
    run = tmp_path / "run"
    assert cli.main(["train", "--config", str(config), "--mode", "baseline",
                     "--out", str(run)]) == 0
    capsys.readouterr()
    code = cli.main(["eval", "--checkpoint", str(run / "student.ckpt"),
                     "--data-dir", str(data_dir), "--pooling", "average"])
    if task == "labeling":
        assert code == 0
        return
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: --pooling applies to labeling checkpoints only, "
                          f"not to this {task} checkpoint")


def test_mode_defaults_to_xtune():
    args = cli.build_parser().parse_args(["train", "--config", "c.json", "--out", "o"])
    assert args.mode == "xtune"


@pytest.mark.parametrize("extra,overrides,message", [
    ({"preset": "xnli", "bogus": 1}, [], "unknown config keys ['bogus']"),
    ({"bogus": 1}, [], "unknown config keys ['bogus']"),
    ({"preset": "xnli"}, ["warm_start_student=true"], "unknown config keys ['warm_start_student']"),
    ({}, ["pair_translations=ture"], "unknown config keys ['pair_translations']"),
    ({"preset": "xnli"}, ["epochs=abc"], "--set epochs: expected int, got 'abc'"),
    ({}, ["noise_sigma=x"], "--set noise_sigma: expected float"),
    ({"preset": "nope"}, [], "unknown preset 'nope'"),
    ({"task": "labeling", "pair_strategy": "MT"}, [], "pair_strategy: MT cannot"),
    ({}, ["cs_word_ratio=2"], "cs_word_ratio must lie in [0, 1]"),
    ({"epochs": "3"}, [], "epochs: expected int, got '3'"),
    ({"mt_languages": "xx"}, [], "mt_languages: expected a list of strings, got 'xx'"),
    ({"learning_rate": "0.1"}, [], "learning_rate: expected float, got '0.1'"),
    ({"preset": "xnli"}, ["learning_rate=nan"], "learning_rate must be finite, got nan"),
    ({"preset": "xnli", "seed": -1}, [], "seed must be >= 0, got -1"),
    ({"preset": "xnli"}, ["n_label=-1"], "n_label must be >= 1, got -1"),
    ({"preset": "xnli"}, ["n_label=0"], "n_label must be >= 1, got 0"),
    ({"preset": "xnli"}, ["pooling=average"],
     "pooling 'average' applies to labeling only, not classification"),
    ({"preset": "xquad"}, ["pooling=average"],
     "pooling 'average' applies to labeling only, not span"),
    ({"preset": "xnli", "setting": "translate-train-all", "mt_languages": ["x y", ""]}, [],
     "mt_languages must be distinct and non-empty, got ['x y', '']"),
    ({"preset": "xnli", "setting": "translate-train-all", "mt_languages": ["xx", "xx"]}, [],
     "mt_languages must be distinct and non-empty, got ['xx', 'xx']"),
    ({"preset": "xnli", "setting": "translate-train-all"}, ["mt_languages=xx,x/y"],
     "mt_languages: language 'x/y' holds '/'"),
])
def test_bad_config_fails_cleanly(extra, overrides, message, tmp_path, capsys):
    config = write_config(tmp_path / "config.json", tmp_path / "missing-data", **extra)
    argv = ["train", "--config", str(config), "--out", str(tmp_path / "run")]
    for item in overrides:
        argv += ["--set", item]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flags,message", [
    (["--task", "labeling", "--n-tag", "0"], "n_tag must be >= 1, got 0"),
    (["--em-iters", "0"], "em_iters must be >= 1, got 0"),
    (["--em-iters", "-1"], "em_iters must be >= 1, got -1"),
    (["--max-piece-len", "0"], "max_piece_len must be >= 1, got 0"),
    (["--max-piece-len", "-3"], "max_piece_len must be >= 1, got -3"),
    (["--languages", "en,en"], "languages must be distinct and non-empty"),
    (["--lemmas", "0"], "lemma_count must be >= 1 for classification, got 0"),
    (["--sentence-len", "5,2"], "sentence_len_range must be (lo, hi) with 1 <= lo <= hi"),
    (["--sentence-len", "4-8"], "--sentence-len: expected 'lo,hi' integers, got '4-8'"),
    (["--seed", "-1"], "seed must be >= 0, got -1"),
    (["--languages", "en,x/y"], "language 'x/y' holds '/'"),
    (["--languages", "en,x@y"], "language 'x@y' holds '@'"),
    (["--languages", "en,x\ty"], "language 'x\\ty' holds '\\t'"),
    (["--languages", "en,x y"], "language 'x y' holds ' '"),
])
def test_bad_synth_input_fails_at_entry(flags, message, tmp_path, capsys):
    out = tmp_path / "data"
    assert cli.main(["synth", "--out", str(out), "--train-examples", "5",
                     "--eval-examples", "2"] + flags) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["tokenize", "--mode", "sample"],
    ["augment", "--strategy", "SS"],
])
@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_non_finite_alpha_fails_at_entry(command, alpha, tmp_path, capsys):
    data_dir = tmp_path / "data"
    assert cli.main(["synth", "--out", str(data_dir), "--lemmas", "4", "--train-examples", "4",
                     "--eval-examples", "1", "--vocab-size", "40", "--em-iters", "1"]) == 0
    capsys.readouterr()
    out = tmp_path / "out.jsonl"
    assert cli.main(command + ["--vocab", str(data_dir / "vocab.tsv"),
                               "--input", str(data_dir / "train.jsonl"), "--alpha", alpha,
                               "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "alpha" in err and alpha in err
    assert "Traceback" not in err
    assert not out.exists()


SPAN_SCORES = {"en": {"f1": 0.5, "exact_match": 0.4}, "xx": {"f1": 0.3, "exact_match": 0.2}}


def accuracy_report(*scores, task="classification"):
    """A report of source en, then xx, with these accuracies."""
    return {"task": task, "source_language": "en",
            "per_language": {lang: {"accuracy": s} for lang, s in zip(("en", "xx"), scores)}}


NOT_A_SCORE = "per_language['xx']['accuracy'] must be a finite number, got"


@pytest.mark.parametrize("content,message", [
    ({}, "report is not a JSON object with a 'task' key"),
    ([1], "report is not a JSON object with a 'task' key"),
    ({"task": "classification", "per_language": {"en": {"accuracy": 1.0}}},
     "report is not a JSON object with a 'source_language' key"),
    ({"task": "classification", "source_language": "en"},
     "report is not a JSON object with a 'per_language' key"),
    ({"task": "classification", "source_language": "en", "per_language": [1]},
     "per_language is not a JSON object with a 'en' key"),
    ({"task": "classification", "source_language": "en",
      "per_language": {"en": {"accuracy": 0.9}, "xx": 0.5}},
     "per_language['xx'] is not a JSON object with a 'accuracy' key"),
    ({"task": "span", "source_language": "en", "per_language": SPAN_SCORES},
     "per_language['en'] is not a JSON object with a 'score' key"),
    ("not json", "invalid JSON (Expecting value: line 1 column 1 (char 0))"),
    (accuracy_report(0.9, None), f"{NOT_A_SCORE} None"),
    (accuracy_report(0.9, [1]), f"{NOT_A_SCORE} [1]"),
    (accuracy_report(0.9, True), f"{NOT_A_SCORE} True"),
    (accuracy_report(0.9, "0.5"), f"{NOT_A_SCORE} '0.5'"),
    (accuracy_report(0.9, float("nan")), f"{NOT_A_SCORE} nan"),
    (accuracy_report(0.9, 10 ** 400), f"{NOT_A_SCORE} 1000"),
    (accuracy_report("0.9", 0.5), "per_language['en']['accuracy'] must be a finite number"),
    (accuracy_report(0.9), "need at least one non-source language"),
    (accuracy_report(0.9, 0.5, task="tagging"),
     "'task' must be one of ('classification', 'span', 'labeling'), got 'tagging'"),
])
def test_gap_on_a_malformed_report_names_file_and_key(content, message, tmp_path, capsys):
    """A string is written as the file's text, any other value as JSON."""
    report, out = tmp_path / "report.json", tmp_path / "gap.json"
    report.write_text(content if isinstance(content, str) else json.dumps(content),
                      encoding="utf-8")
    assert cli.main(["gap", "--report", str(report), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {report}: {message}")
    assert not out.exists()


@pytest.mark.parametrize("content,message", [
    ({"epochs": 1}, "config needs a data_dir"),
    ([1, 2], "expected a JSON object"),
    ('{"epochs": 1', "invalid JSON (Expecting ',' delimiter"),
])
def test_config_file_errors_name_the_file(content, message, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(content if isinstance(content, str) else json.dumps(content),
                      encoding="utf-8")
    assert cli.main(["train", "--config", str(config), "--out", str(tmp_path / "run")]) == 1
    assert f"{config}: {message}" in capsys.readouterr().err


def test_empty_override_restores_the_default(tmp_path):
    config = write_config(tmp_path / "config.json", tmp_path, preset="pos", dim=12)
    cfg, data_dir = cli.load_config(config, ["dim=", "mt_languages=xx,yy", "data_dir=elsewhere"])
    assert cfg.dim == tr.TrainConfig().dim
    assert cfg.mt_languages == ("xx", "yy")
    assert cfg.task == "labeling" and cfg.pooling == "average"
    assert str(data_dir) == "elsewhere"


def test_file_values_of_fitting_types_load(tmp_path):
    config = write_config(tmp_path / "config.json", tmp_path, learning_rate=1,
                          mt_languages=["xx"], n_label=None)
    cfg, _ = cli.load_config(config)
    assert cfg.learning_rate == 1 and cfg.mt_languages == ("xx",) and cfg.n_label is None


@pytest.fixture(scope="module")
def average_pooled_run(tmp_path_factory):
    """A synth directory and a trained ``pos`` (average-pooling) checkpoint.

    A 40-piece vocabulary splits words into several pieces, so the two
    poolings score this model differently."""
    tmp_path = tmp_path_factory.mktemp("average-pooled")
    data_dir, run = tmp_path / "data", tmp_path / "run"
    assert cli.main(["synth", "--out", str(data_dir), "--task", "labeling",
                     "--languages", ",".join(LANGUAGES), "--lemmas", "10",
                     "--train-examples", "20", "--eval-examples", "20", "--sentence-len", "3,5",
                     "--vocab-size", "40", "--em-iters", "1", "--seed", "2"]) == 0
    config = write_config(tmp_path / "config.json", data_dir, preset="pos", epochs=4,
                          learning_rate=0.05)
    assert cli.main(["train", "--config", str(config), "--mode", "baseline",
                     "--out", str(run)]) == 0
    return data_dir, run


def test_eval_scores_with_the_checkpoint_pooling(average_pooled_run, tmp_path):
    data_dir, run = average_pooled_run
    reports = {}
    for pooling in (None, "average", "first_subword"):
        out = tmp_path / f"report-{pooling}.json"
        assert cli.main(["eval", "--checkpoint", str(run / "student.ckpt"),
                         "--data-dir", str(data_dir), "--out", str(out)]
                        + (["--pooling", pooling] if pooling else [])) == 0
        reports[pooling] = out.read_bytes()
    assert reports[None] == reports["average"] != reports["first_subword"]


def test_library_eval_pools_as_the_checkpoint(average_pooled_run, tmp_path):
    data_dir, run = average_pooled_run
    report = tmp_path / "report.json"
    assert cli.main(["eval", "--checkpoint", str(run / "student.ckpt"),
                     "--data-dir", str(data_dir), "--out", str(report)]) == 0
    params = load_params(run / "student.ckpt")
    assert params.pooling == "average"
    eval_sets = {lang: data.load_jsonl(data_dir / f"eval.{lang}.jsonl", "labeling")
                 for lang in LANGUAGES}
    scores = ev.evaluate_languages(params, eval_sets, tok.load_vocab(data_dir / "vocab.tsv"))
    assert scores == json.loads(report.read_text(encoding="utf-8"))["per_language"]


def test_eval_rejects_a_bad_checkpoint(tmp_path, capsys):
    checkpoint = tmp_path / "bad.ckpt"
    checkpoint.write_text('xtune-params v2\n{"task": "span", "vocab_size": 4, "dim": 2, '
                          '"max_len": 4, "n_label": null, "pooling": null}\n'
                          "tensor embedings 4 2\n" + " ".join(["0x0p+0"] * 8) + "\n",
                          encoding="utf-8")
    assert cli.main(["eval", "--checkpoint", str(checkpoint), "--data-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {checkpoint}:3: tensor 'embedings' is unknown")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("meta", [
    {}, [], {"languages": "en"}, {"languages": ["en"]}, {"languages": ["en", "en"]},
    {"languages": ["en", ""]}, {"languages": ["en", 1]},
])
def test_bad_meta_languages_fail_naming_the_file(command, meta, tmp_path, capsys):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    (data_dir / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
    if command == "train":
        config = write_config(tmp_path / "config.json", data_dir, preset="xnli")
        argv = ["train", "--config", str(config), "--out", str(tmp_path / "run")]
    else:
        checkpoint = tmp_path / "student.ckpt"
        save_params(ModelParams("span", 4, 2, 4), checkpoint)
        argv = ["eval", "--checkpoint", str(checkpoint), "--data-dir", str(data_dir)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {data_dir / 'meta.json'}: 'languages' must be a list")
    assert "Traceback" not in err


# (command, the data's task, the config's or checkpoint's task, meta.json's spec.task)
TASK_FAULTS = [
    ("train", "classification", "labeling", None),    # preset pos on classification data
    ("train", "labeling", "classification", None),    # preset xnli on labeling data
    ("eval", "classification", "labeling", None),
    ("eval", "span", "labeling", None),
    ("train", "classification", "classification", "missing"),
    ("eval", "classification", "classification", "missing"),
    ("train", "labeling", "labeling", "tagging"),
    ("eval", "span", "span", ["span"]),
]


@pytest.mark.parametrize("command,data_task,task,meta_task", TASK_FAULTS)
def test_data_of_another_task_fails_naming_meta(command, data_task, task, meta_task, tmp_path,
                                               capsys):
    data_dir = tmp_path / "data"
    synth_tiny(data_dir, data_task)
    path = data_dir / "meta.json"
    if meta_task is not None:
        meta = json.loads(path.read_text(encoding="utf-8"))
        meta["spec"]["task"] = meta_task
        if meta_task == "missing":
            del meta["spec"]["task"]
        path.write_text(json.dumps(meta), encoding="utf-8")
    if command == "train":
        preset = {"classification": "xnli", "labeling": "pos", "span": "xquad"}[task]
        config = write_config(tmp_path / "config.json", data_dir, preset=preset)
        argv, whose = ["train", "--config", str(config), "--out", str(tmp_path / "run")], "config"
    else:
        checkpoint = tmp_path / "student.ckpt"
        vocab = tok.load_vocab(data_dir / "vocab.tsv")
        n_label = {"classification": 2, "labeling": 3, "span": None}[task]
        save_params(ModelParams(task, len(vocab), 4, 48, n_label=n_label), checkpoint)
        argv = ["eval", "--checkpoint", str(checkpoint), "--data-dir", str(data_dir)]
        whose = "checkpoint"
    capsys.readouterr()
    assert cli.main(argv) == 1
    if meta_task is None:
        message = f"the data's task {data_task!r} is not the {whose}'s task {task!r}"
    else:
        got = None if meta_task == "missing" else meta_task
        message = f"'spec.task' must be one of {data.TASKS}, got {got!r}"
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


@pytest.mark.parametrize("name", ["x/y", "x@y", "x\ty", "x y"])
def test_meta_language_the_files_cannot_carry_fails_naming_the_file(name, tmp_path, capsys):
    (tmp_path / "meta.json").write_text(json.dumps({"languages": ["en", name]}),
                                        encoding="utf-8")
    checkpoint = tmp_path / "student.ckpt"
    save_params(ModelParams("span", 4, 2, 4), checkpoint)
    assert cli.main(["eval", "--checkpoint", str(checkpoint), "--data-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / 'meta.json'}: language {name!r} holds")
    assert "Traceback" not in err


def test_cipher_separator_in_a_language_works_end_to_end(tmp_path):
    data_dir = tmp_path / "data"
    assert cli.main(["synth", "--out", str(data_dir), "--task", "classification",
                     "--languages", f"en,x{data.CIPHER_SEP}y", "--lemmas", "6",
                     "--train-examples", "8", "--eval-examples", "2", "--sentence-len", "3,4",
                     "--vocab-size", "40", "--em-iters", "1", "--seed", "2"]) == 0
    config = write_config(tmp_path / "config.json", data_dir, preset="xnli")
    assert cli.main(["train", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
    assert cli.main(["eval", "--checkpoint", str(tmp_path / "run" / "student.ckpt"),
                     "--data-dir", str(data_dir), "--out", str(tmp_path / "report.json")]) == 0


def test_synth_raises_no_float_warning(tmp_path):
    # the benchmark's vocabulary shape: 24 lemmas in 4 languages, pieces of up
    # to 12 characters, 3 sweeps per pruning phase
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["synth", "--out", str(tmp_path / "data"), "--task", "span",
                         "--languages", "en,xx,yy,zz", "--train-examples", "5",
                         "--eval-examples", "2", "--vocab-size", "60"]) == 0


def synth_tiny(data_dir, task="classification"):
    assert cli.main(["synth", "--out", str(data_dir), "--task", task,
                     "--languages", ",".join(LANGUAGES), "--lemmas", "10",
                     "--train-examples", "8", "--eval-examples", "2", "--sentence-len", "3,5",
                     "--vocab-size", "80", "--em-iters", "1", "--seed", "2"]) == 0


def test_train_rejects_an_id_with_the_translated_view_marker(tmp_path, capsys):
    # "@" joins an id and a language in translated-view ids; a training id
    # holding it would miss its translations and drop every MT pair view
    data_dir = tmp_path / "data"
    synth_tiny(data_dir)
    train = data_dir / "train.jsonl"
    train.write_text(train.read_text(encoding="utf-8").replace('"train-', '"train@'),
                     encoding="utf-8")
    config = write_config(tmp_path / "config.json", data_dir, preset="xnli",
                          setting="translate-train-all")
    capsys.readouterr()
    assert cli.main(["train", "--config", str(config), "--mode", "r1-only",
                     "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {train}:1: example train@00000: '@' in an id is reserved")
    assert "Traceback" not in err


def test_train_rejects_a_store_record_that_is_not_an_object(tmp_path, capsys):
    data_dir = tmp_path / "data"
    synth_tiny(data_dir)
    store = data_dir / "translations.jsonl"
    store.write_text("[1, 2]\n" + store.read_text(encoding="utf-8"), encoding="utf-8")
    config = write_config(tmp_path / "config.json", data_dir, preset="xnli")
    capsys.readouterr()
    assert cli.main(["train", "--config", str(config), "--mode", "baseline",
                     "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {store}:1: bad store record (not a JSON object)")
    assert "Traceback" not in err


def test_train_rejects_a_repeated_training_id(tmp_path, capsys):
    data_dir = tmp_path / "data"
    synth_tiny(data_dir)
    train = data_dir / "train.jsonl"
    lines = train.read_text(encoding="utf-8").splitlines(keepends=True)
    train.write_text("".join(lines + lines[:1]), encoding="utf-8")
    config = write_config(tmp_path / "config.json", data_dir, preset="xnli")
    capsys.readouterr()
    assert cli.main(["train", "--config", str(config), "--mode", "baseline",
                     "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {train}:{len(lines) + 1}: repeats example id 'train-00000' "
                          "from line 1")
    assert "Traceback" not in err


@pytest.mark.parametrize("vocab_size", [60, 200])
def test_eval_rejects_a_checkpoint_of_another_vocabulary_size(vocab_size, tmp_path, capsys):
    # a larger vocabulary would end in an out-of-range gather, a smaller one
    # would score garbage; one of equal size cannot be told apart
    data_dir = tmp_path / "data"
    synth_tiny(data_dir)
    vocab = data_dir / "vocab.tsv"
    assert len(tok.load_vocab(vocab)) not in (60, 200)
    checkpoint = tmp_path / "student.ckpt"
    save_params(ModelParams("classification", vocab_size, 4, 48, n_label=2), checkpoint)
    capsys.readouterr()
    assert cli.main(["eval", "--checkpoint", str(checkpoint), "--data-dir", str(data_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {checkpoint}: checkpoint of {vocab_size} pieces does not fit")
    assert str(vocab) in err and "Traceback" not in err


def test_train_names_the_first_example_over_max_len(tmp_path, capsys):
    # found at the stage start, before the first forward
    data_dir = tmp_path / "data"
    synth_tiny(data_dir)
    vocab = tok.load_vocab(data_dir / "vocab.tsv")
    train = data.load_jsonl(data_dir / "train.jsonl", "classification")
    pieces = tok.viterbi_segment_words(vocab, train.words[:train.n_words[0]]).n_pieces
    assert pieces > 3
    config = write_config(tmp_path / "config.json", data_dir, preset="xnli", max_len=3)
    capsys.readouterr()
    assert cli.main(["train", "--config", str(config), "--mode", "xtune",
                     "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: example {train.ids[0]!r}: input of {pieces} subwords exceeds max_len 3\n"


def train_without_a_forward(tmp_path, data_dir, monkeypatch, *overrides, mode="xtune"):
    """``xtune train`` on ``data_dir``'s xnli preset, failing the test if any
    forward runs; returns its exit code and stderr."""
    monkeypatch.setattr(tr, "predict", lambda *args, **kwargs: pytest.fail("a forward ran"))
    config = write_config(tmp_path / "config.json", data_dir, preset="xnli")
    argv = ["train", "--config", str(config), "--mode", mode, "--out", str(tmp_path / "run")]
    for item in overrides:
        argv += ["--set", item]
    return cli.main(argv)


def test_train_names_the_item_with_an_uncovered_character(tmp_path, capsys, monkeypatch):
    # found at the stage start; a later item repeats the fault, the first is named
    data_dir = tmp_path / "data"
    synth_tiny(data_dir)
    assert "Q" not in tok.load_vocab(data_dir / "vocab.tsv").alphabet
    path = data_dir / "train.jsonl"
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    for k in (2, 5):
        records[k]["words"][1] += "Q"
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    capsys.readouterr()
    assert train_without_a_forward(tmp_path, data_dir, monkeypatch) == 1
    assert capsys.readouterr().err == (f"error: example {records[2]['id']!r}: character 'Q' "
                                       "is not covered by the vocabulary\n")


@pytest.mark.parametrize("command", [["tokenize"], ["tokenize", "--mode", "sample"],
                                     ["augment", "--strategy", "SS"]],
                         ids=["tokenize-viterbi", "tokenize-sample", "augment-SS"])
def test_an_uncovered_character_names_the_input_file_and_example(command, tmp_path, capsys):
    # a later example repeats the fault; the first is named
    data_dir = tmp_path / "data"
    synth_tiny(data_dir)
    vocab = data_dir / "vocab.tsv"
    assert "Q" not in tok.load_vocab(vocab).alphabet
    path = data_dir / "train.jsonl"
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    for k in (2, 5):
        records[k]["words"][1] += "Q"
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    capsys.readouterr()
    assert cli.main(command + ["--vocab", str(vocab), "--input", str(path),
                               "--output", str(tmp_path / "out.jsonl")]) == 1
    assert capsys.readouterr().err == (f"error: {path}: example {records[2]['id']!r}: "
                                       "character 'Q' is not covered by the vocabulary\n")


def test_train_names_the_example_with_an_uncovered_character_in_the_ss_corpus(
        tmp_path, capsys, monkeypatch):
    # the subword-sampled corpus is drawn before any stage; it names the
    # first example holding the character too
    data_dir = tmp_path / "data"
    synth_tiny(data_dir)
    path = data_dir / "train.jsonl"
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    for k in (3, 6):
        records[k]["words"][0] += "Q"
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    capsys.readouterr()
    assert train_without_a_forward(tmp_path, data_dir, monkeypatch,
                                   "setting=translate-train-all", "corpus_strategy=SS",
                                   mode="baseline") == 1
    assert capsys.readouterr().err == (f"error: example {records[3]['id']!r}: character 'Q' "
                                       "is not covered by the vocabulary\n")


def test_train_names_the_item_of_a_code_switched_view_with_an_uncovered_character(
        tmp_path, capsys, monkeypatch):
    # every dictionary translation is uncovered and every word switches, so
    # the first item of the first epoch's order is named, before any step
    data_dir = tmp_path / "data"
    synth_tiny(data_dir)
    for path in data_dir.glob("dict.*.txt"):
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("".join(line + "Q\n" for line in lines), encoding="utf-8")
    ids = data.load_jsonl(data_dir / "train.jsonl", "classification").ids
    first = ids[tr.substream(5, "main/batching").permutation(len(ids))[0]]
    capsys.readouterr()
    assert train_without_a_forward(tmp_path, data_dir, monkeypatch, "cs_word_ratio=1",
                                   mode="r1-only") == 1
    assert capsys.readouterr().err == (f"error: example {first!r}: CS view: character 'Q' "
                                       "is not covered by the vocabulary\n")


@pytest.mark.parametrize("mode,stage", [("baseline", "main"), ("r2-only", "stage1")])
def test_train_names_train_jsonl_when_no_example_has_a_label(mode, stage, tmp_path, capsys,
                                                            monkeypatch):
    # a stage without a consistency term trains on the labeled items alone;
    # with none it fails before any forward
    data_dir = tmp_path / "data"
    synth_tiny(data_dir)
    path = data_dir / "train.jsonl"
    records = [{**json.loads(line), "label": None}
               for line in path.read_text(encoding="utf-8").splitlines()]
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    capsys.readouterr()
    assert train_without_a_forward(tmp_path, data_dir, monkeypatch, mode=mode) == 1
    err = capsys.readouterr().err
    assert err == (f"error: {stage}: nothing to train: train.jsonl holds no labeled example (a "
                   "stage without a consistency term trains on labeled items only)\n")
    assert "Traceback" not in err


def bad_translation_label(data_dir, label, k=3):
    """Give line ``k + 1`` of the store ``label``; returns the store's path
    and that record."""
    path = data_dir / "translations.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    record = {**json.loads(lines[k]), "label": label}
    lines[k] = json.dumps(record)
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path, record


@pytest.mark.parametrize("label", [7, -1])
def test_train_names_the_translation_with_a_label_outside_the_classes(label, tmp_path, capsys,
                                                                     monkeypatch):
    # -1 is the gold columns' sentinel: it may not pass as "unlabeled"
    data_dir = tmp_path / "data"
    synth_tiny(data_dir)
    path, record = bad_translation_label(data_dir, label)
    capsys.readouterr()
    assert train_without_a_forward(tmp_path, data_dir, monkeypatch,
                                   "setting=translate-train-all", mode="baseline") == 1
    assert capsys.readouterr().err == (
        f"error: {path}:4: translation of example {record['example_id']!r} into "
        f"{record['lang']!r}: label {label} out of range for n_label 2\n")


@pytest.mark.parametrize("label", [7, -1])
def test_augment_names_the_translation_with_a_label_outside_the_classes(label, tmp_path,
                                                                       capsys):
    data_dir = tmp_path / "data"
    synth_tiny(data_dir)
    path, record = bad_translation_label(data_dir, label)
    out = tmp_path / "out.jsonl"
    capsys.readouterr()
    assert cli.main(["augment", "--strategy", "MT", "--input", str(data_dir / "train.jsonl"),
                     "--output", str(out), "--store", str(path), "--languages", "xx,yy"]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}:4: translation of example {record['example_id']!r} into "
        f"{record['lang']!r}: label {label} out of range for n_label 2\n")
    assert not out.exists()


@pytest.mark.parametrize("flag,value,message", [
    pytest.param("--ratio", "1.5", "cs_word_ratio must lie in [0, 1], got 1.5", id="ratio-1.5"),
    pytest.param("--ratio", "nan", "cs_word_ratio must be finite, got nan", id="ratio-nan"),
    pytest.param("--alpha", "nan", "ss_alpha must be finite, got nan", id="alpha-nan"),
    pytest.param("--alpha", "inf", "ss_alpha must be finite, got inf", id="alpha-inf"),
    pytest.param("--alpha", "-0.5", "ss_alpha must be >= 0, got -0.5", id="alpha-negative"),
    pytest.param("--languages", "xx,xx",
                 "mt_languages must be distinct and non-empty, got ['xx', 'xx']",
                 id="languages-repeated"),
    pytest.param("--languages", "xx,,yy",
                 "mt_languages must be distinct and non-empty, got ['xx', '', 'yy']",
                 id="languages-empty"),
    pytest.param("--languages", "x y", "mt_languages: language 'x y' holds ' ', which written "
                 "file names, ids and lines cannot carry", id="languages-refused"),
])
def test_augment_names_a_bad_knob_by_its_flag(flag, value, message, tmp_path, capsys):
    # each knob flag sets one TrainConfig field and gets that field's check
    path, out = tmp_path / "train.jsonl", tmp_path / "out.jsonl"
    path.write_text(json.dumps({"id": "a", "lang": "en", "words": ["w"], "label": 0,
                                "n_label": 2}) + "\n", encoding="utf-8")
    strategy = {"--ratio": "CS", "--alpha": "SS", "--languages": "MT"}[flag]
    assert cli.main(["augment", "--strategy", strategy, "--input", str(path),
                     "--output", str(out), f"{flag}={value}"]) == 1
    assert capsys.readouterr().err == f"error: {flag}: {message}\n"
    assert not out.exists()


def test_augment_rejects_a_store_language_that_ids_cannot_carry(tmp_path, capsys):
    # a view's id is its example's id, "@" and its language
    data_dir = tmp_path / "data"
    synth_tiny(data_dir)
    path = data_dir / "translations.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[1] = json.dumps({**json.loads(lines[1]), "lang": "x y"})
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    out = tmp_path / "out.jsonl"
    capsys.readouterr()
    assert cli.main(["augment", "--strategy", "MT", "--input", str(data_dir / "train.jsonl"),
                     "--output", str(out), "--store", str(path), "--languages", "xx,yy"]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}:2: bad store record (language 'x y' holds ' ', which written file "
        "names, ids and lines cannot carry)\n")
    assert not out.exists()


def test_an_xtune_run_builds_one_set_of_switch_candidates(tmp_path, monkeypatch):
    # the xnli preset draws CS views for stage 1, the stage-2 corpus and
    # stage 2, all from the run's one ``Resources.switch_candidates``
    data_dir = tmp_path / "data"
    synth_tiny(data_dir)
    built, init = [], aug.SwitchCandidates.__init__
    monkeypatch.setattr(aug.SwitchCandidates, "__init__",
                        lambda self, *args: built.append(args) or init(self, *args))
    config = write_config(tmp_path / "config.json", data_dir, preset="xnli")
    assert cli.main(["train", "--config", str(config), "--mode", "xtune",
                     "--out", str(tmp_path / "run")]) == 0
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text(encoding="utf-8"))
    assert {manifest["config"][key] for key in ("stage1_strategy", "corpus_strategy",
                                                 "pair_strategy")} == {"CS"}
    assert len(built) == 1


def test_augment_on_an_empty_input_names_the_file(tmp_path, capsys):
    path, out = tmp_path / "empty.jsonl", tmp_path / "out.jsonl"
    path.write_text("", encoding="utf-8")
    assert cli.main(["augment", "--strategy", "GN", "--input", str(path),
                     "--output", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {path}: no example to augment\n"
    assert not out.exists()


@pytest.mark.parametrize("lines,message", [
    ("", "vocabulary has no pieces (empty coverage)"),
    ("a\t0.5\n", "piece 'a' has invalid log-prob 0.5"),
    ("a\t-1.0\nab\t-2.0\n",
     "character(s) ['b'] appear in pieces but have no single-character entry"),
], ids=["empty", "positive-log-prob", "no-single-character-entry"])
def test_a_whole_vocabulary_fault_names_the_vocabulary_file(lines, message, tmp_path, capsys):
    vocab, path, out = tmp_path / "vocab.tsv", tmp_path / "train.jsonl", tmp_path / "out.jsonl"
    vocab.write_text(lines, encoding="utf-8")
    path.write_text(json.dumps({"id": "a", "lang": "en", "words": ["a"], "label": 0,
                                "n_label": 2}) + "\n", encoding="utf-8")
    assert cli.main(["tokenize", "--vocab", str(vocab), "--input", str(path),
                     "--output", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {vocab}: {message}\n"
    assert not out.exists()


def test_train_rejects_an_n_label_below_the_training_data(tmp_path, capsys, monkeypatch):
    data_dir = tmp_path / "data"
    synth_tiny(data_dir)
    capsys.readouterr()
    assert train_without_a_forward(tmp_path, data_dir, monkeypatch, "n_label=1") == 1
    assert capsys.readouterr().err == (f"error: {data_dir / 'train.jsonl'}: n_label 1 is below "
                                       "the training data's 2\n")
    # at the data's count or above, training runs
    monkeypatch.undo()
    for n_label in (2, 3):
        config = write_config(tmp_path / "config.json", data_dir, preset="xnli", n_label=n_label)
        assert cli.main(["train", "--config", str(config), "--mode", "baseline",
                         "--out", str(tmp_path / f"run{n_label}")]) == 0
        manifest = json.loads((tmp_path / f"run{n_label}" / "manifest.json").read_text())
        assert manifest["config"]["n_label"] == n_label


def test_non_finite_loss_fails_cleanly(tmp_path, capsys, monkeypatch):
    data_dir = tmp_path / "data"
    synth_tiny(data_dir)
    monkeypatch.setattr(tr, "task_loss",
                        lambda prediction, labeled, gold: ad.constant(float("nan")))
    config = write_config(tmp_path / "config.json", data_dir, preset="xnli")
    capsys.readouterr()
    assert cli.main(["train", "--config", str(config), "--mode", "baseline",
                     "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: main: non-finite loss nan at step 1")
    assert "Traceback" not in err


# a fault, or a fault and the task it is checked on (default: classification)
EVAL_FAULTS = ["empty", "uncovered", "overlong", *(f"unlabeled:{task}" for task in sorted(TASKS)),
               "outside:classification", "outside:labeling"]


@pytest.mark.parametrize("fault", EVAL_FAULTS)
def test_eval_input_faults_name_the_file_and_example(fault, tmp_path, capsys):
    # the second example of one language's eval file carries the fault;
    # each is found before the first forward
    fault, _, task = fault.partition(":")
    task = task or "classification"
    data_dir = tmp_path / "data"
    synth_tiny(data_dir, task)
    vocab = tok.load_vocab(data_dir / "vocab.tsv")
    n_label = {"classification": 2, "labeling": 3, "span": None}[task]
    path = data_dir / "eval.xx.jsonl"
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    bad = records[1]
    if fault == "empty":
        records, message = [], "no examples to score"
    elif fault == "uncovered":   # a later example repeats the fault; the first is named
        assert "Q" not in vocab.alphabet
        bad["words"][1] += "Q"
        records.append({**bad, "id": bad["id"] + "-again"})
        message = f"example {bad['id']!r}: character 'Q' is not covered by the vocabulary"
    elif fault == "overlong":
        bad["words"] *= 20
        pieces = tok.viterbi_segment_words(vocab, bad["words"]).n_pieces
        message = f"example {bad['id']!r}: input of {pieces} subwords exceeds max_len 48"
    elif fault == "unlabeled":   # valid data, but nothing to score it against
        for key in ("label", "tags", "answer_start", "answer_end"):
            bad.pop(key, None)
        message = f"example {bad['id']!r}: no gold to score"
    else:   # gold the record's n_label allows, beyond the checkpoint's classes
        bad["n_label"] = 9
        if task == "labeling":
            bad["tags"] = [8] * len(bad["words"])
        else:
            bad["label"] = 8
        message = (f"example {bad['id']!r}: gold {'tag' if task == 'labeling' else 'label'} 8 "
                   f"is not below the checkpoint's n_label {n_label}")
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    checkpoint = tmp_path / "student.ckpt"
    save_params(ModelParams(task, len(vocab), 4, 48, n_label=n_label), checkpoint)
    capsys.readouterr()
    assert cli.main(["eval", "--checkpoint", str(checkpoint), "--data-dir", str(data_dir)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}: {message}\n"
