"""The benchmark's span tracer (``perfbench/tracer.py``) over a tiny
``xtune synth`` -> ``train --mode xtune`` -> ``eval`` per task.

``test_layout`` only checks that the hooked names resolve.  The tracer also
reads what some of them return (``build_augmented_corpus(...).missing``, the
position pair of ``aligned_first_subword_positions``) and counts one
``ModelParams.zero_grads`` per training step; this runs it for real.
"""

import importlib.util
import json
import sys
from pathlib import Path

from xtune import cli
from xtune.model import ModelParams

from test_cli import LANGUAGES, write_config

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# preset -> task
PRESETS = {"xnli": "classification", "pos": "labeling", "xquad": "span"}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_spans_every_target_of_a_tiny_pipeline(tmp_path, capsys):
    tracer = load_tracer()
    hooked = [*tracer.TARGETS, (ModelParams, "zero_grads")]
    originals = [getattr(owner, attr) for owner, attr in hooked]
    trace = tracer.Tracer()
    manifest_steps = 0
    with trace:
        for preset, task in PRESETS.items():
            data_dir, run = tmp_path / f"data-{preset}", tmp_path / f"run-{preset}"
            assert cli.main(["synth", "--out", str(data_dir), "--task", task,
                             "--languages", ",".join(LANGUAGES), "--lemmas", "10",
                             "--train-examples", "20", "--eval-examples", "6",
                             "--sentence-len", "3,5", "--vocab-size", "40", "--em-iters", "1",
                             "--seed", "2"]) == 0
            config = write_config(tmp_path / f"{preset}.json", data_dir, preset=preset)
            assert cli.main(["train", "--config", str(config), "--mode", "xtune",
                             "--out", str(run)]) == 0
            assert cli.main(["eval", "--checkpoint", str(run / "student.ckpt"),
                             "--data-dir", str(data_dir)]) == 0
            manifest = json.loads((run / "manifest.json").read_text(encoding="utf-8"))
            manifest_steps += sum(map(len, manifest["traces"].values()))
    capsys.readouterr()

    recorded = {span.name for span in trace.spans}
    targets = [f"{module.__name__.rsplit('.', 1)[-1]}.{attr}" for module, attr in tracer.TARGETS]
    assert [name for name in targets if name not in recorded] == []
    assert sum(span.name == tracer.STEP for span in trace.spans) == manifest_steps > 0
    assert [getattr(owner, attr) for owner, attr in hooked] == originals
