"""The benchmark's workloads: generated inputs for one `xtune` pipeline run.

Each workload fixes the `xtune synth` flags, the preset training config and
the `xtune eval` flags.  The workload seed is not part of the spec: the
runner passes it to both `synth --seed` and the config `seed`.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

LANGUAGES = ("en", "xx", "yy", "zz")
BATCH_SIZE = 32


@dataclass(frozen=True)
class Workload:
    name: str
    task: str
    preset: str
    setting: str
    vocab_size: int
    sentence_len: str
    train_examples: int
    epochs: int
    eval_examples: int          # per language
    corpus_factor: int          # stage-2 items per training example
    eval_pooling: str | None = None

    def synth_args(self, out, seed):
        return ["synth", "--out", str(out), "--task", self.task,
                "--languages", ",".join(LANGUAGES),
                "--train-examples", str(self.train_examples),
                "--eval-examples", str(self.eval_examples),
                "--sentence-len", self.sentence_len,
                "--vocab-size", str(self.vocab_size),
                "--seed", str(seed)]

    def config(self, data_dir, seed):
        return {"preset": self.preset, "setting": self.setting, "data_dir": str(data_dir),
                "seed": seed, "epochs": self.epochs, "batch_size": BATCH_SIZE}

    def eval_args(self, checkpoint, data_dir, report):
        args = ["eval", "--checkpoint", str(checkpoint), "--data-dir", str(data_dir),
                "--out", str(report)]
        if self.eval_pooling:
            args += ["--pooling", self.eval_pooling]
        return args

    def expected_steps(self, stage_items):
        return self.epochs * math.ceil(stage_items / BATCH_SIZE)

    def smoke(self):
        """A tiny copy of this workload for the self-test: one epoch of two
        stage-1 batches."""
        return dataclasses.replace(self, train_examples=40, epochs=1, eval_examples=6)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="xnli-cs",
            task="classification", preset="xnli", setting="cross-lingual-transfer",
            vocab_size=220, sentence_len="4,8",
            train_examples=200, epochs=10, eval_examples=1000, corpus_factor=2,
        ),
        Workload(
            name="pos-ss",
            task="labeling", preset="pos", setting="cross-lingual-transfer",
            vocab_size=220, sentence_len="4,8",
            train_examples=100, epochs=8, eval_examples=1000, corpus_factor=2,
            eval_pooling="average",
        ),
        Workload(
            name="xquad-mt",
            task="span", preset="xquad", setting="translate-train-all",
            vocab_size=60, sentence_len="4,10",
            train_examples=100, epochs=4, eval_examples=1000,
            corpus_factor=len(LANGUAGES),
        ),
    )
}
