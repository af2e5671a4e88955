"""The command line end to end at tiny scale (synth -> train -> eval -> gap
for every mode and task) and its clean failures on bad configs."""

import json
import math

import pytest

from xtune import cli
from xtune import trainer as tr

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


@pytest.mark.parametrize("content,message", [
    ({"epochs": 1}, "config needs a data_dir"),
    ([1, 2], "expected a JSON object"),
])
def test_config_file_errors_name_the_file(content, message, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(content), encoding="utf-8")
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
