"""Two-stage fine-tuning with pair- and teacher-consistency regularization.

A training mode is one (R1, R2) row of ``MODES``; R1 is pair consistency
against augmented views and R2 is KL to a frozen stage-1 teacher:

- ``baseline`` (off, off): task loss on labeled items only;
- ``r1-only`` (on, off): task loss plus R1 against ``pair_strategy`` views;
- ``r2-only`` (off, on): a teacher from task loss alone, then a student with
  task loss plus R2;
- ``xtune`` (on, on): a teacher with R1 against ``stage1_strategy`` views,
  then a student with task loss, R1 and R2.

Stage 1 runs only when R2 needs a teacher.  Stage 2 trains a fresh student
on the augmented corpus when R2 is on or the setting is translate-train-all.
One master seed feeds named substreams so the modes share data order.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from . import autodiff as ad
from . import tokenizer as tok
from .augment import (
    STRATEGY_KINDS,
    AugmentationStrategy,
    AugmentedExample,
    StrategyError,
    base_id,
    build_augmented_corpus,
    code_switch,
    subword_resample,
    validate_strategy,
)
from .consistency import example_consistency, model_consistency
from .model import POOLINGS, TASKS, ModelParams, predict, task_loss

SETTINGS = ("cross-lingual-transfer", "translate-train-all")
# (R1 example consistency, R2 model consistency) per training mode
MODES = {"baseline": (False, False), "r1-only": (True, False),
         "r2-only": (False, True), "xtune": (True, True)}

# Best published hyper-parameters per benchmark dataset and setting:
# (stage-1 strategy, corpus strategy, pair strategy, pair weight, teacher weight).
PRESETS = {
    ("xnli", "cross-lingual-transfer"): ("CS", "CS", "CS", 5.0, 5.0),
    ("pawsx", "cross-lingual-transfer"): ("CS", "CS", "CS", 5.0, 2.0),
    ("pos", "cross-lingual-transfer"): ("SS", "SS", "SS", 5.0, 0.3),
    ("ner", "cross-lingual-transfer"): ("SS", "SS", "SS", 5.0, 5.0),
    ("xquad", "cross-lingual-transfer"): ("CS", "SS", "SS", 5.0, 5.0),
    ("mlqa", "cross-lingual-transfer"): ("CS", "SS", "SS", 5.0, 5.0),
    ("tydiqa", "cross-lingual-transfer"): ("SS", "SS", "SS", 5.0, 5.0),
    ("xnli", "translate-train-all"): ("MT", "MT", "MT", 5.0, 1.0),
    ("pawsx", "translate-train-all"): ("MT", "MT", "MT", 5.0, 1.0),
    ("pos", "translate-train-all"): ("SS", "MT", "SS", 5.0, 0.3),
    ("ner", "translate-train-all"): ("SS", "MT", "SS", 5.0, 1.0),
    ("xquad", "translate-train-all"): ("CS", "MT", "SS", 5.0, 0.1),
    ("mlqa", "translate-train-all"): ("CS", "MT", "SS", 5.0, 0.5),
    ("tydiqa", "translate-train-all"): ("SS", "MT", "SS", 5.0, 0.3),
}

PRESET_DATASETS = ("xnli", "pawsx", "pos", "ner", "xquad", "mlqa", "tydiqa")

# task kind and labeling pooling per benchmark dataset
PRESET_TASKS = {
    "xnli": ("classification", None),
    "pawsx": ("classification", None),
    "pos": ("labeling", "average"),
    "ner": ("labeling", "first_subword"),
    "xquad": ("span", None),
    "mlqa": ("span", None),
    "tydiqa": ("span", None),
}


class TrainingError(RuntimeError):
    """Training aborted (non-finite loss or broken invariants)."""


def substream(seed, label):
    """Named, independent random stream derived from one master seed."""
    salt = int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest()[:8], "big")
    return np.random.default_rng(np.random.SeedSequence([int(seed), salt]))


@dataclass
class TrainConfig:
    task: str = "classification"
    setting: str = "cross-lingual-transfer"
    stage1_strategy: str = "CS"
    corpus_strategy: str = "CS"
    pair_strategy: str = "CS"
    example_weight: float = 5.0      # stage-2 pair-consistency weight
    model_weight: float = 5.0        # stage-2 teacher-consistency weight
    stage1_pair_weight: float = 1.0
    learning_rate: float = 0.01
    batch_size: int = 32
    epochs: int = 10
    warmup_frac: float = 0.1
    seed: int = 0
    dim: int = 16
    max_len: int = 64
    n_label: int | None = None
    pooling: str = "first_subword"
    noise_sigma: float = 0.01
    cs_word_ratio: float = 0.3
    ss_alpha: float = 0.2
    mt_languages: tuple = ()

    def __post_init__(self):
        for name, allowed in (("task", TASKS), ("setting", SETTINGS), ("pooling", POOLINGS),
                              ("stage1_strategy", STRATEGY_KINDS),
                              ("corpus_strategy", STRATEGY_KINDS),
                              ("pair_strategy", STRATEGY_KINDS)):
            if getattr(self, name) not in allowed:
                raise ValueError(f"unknown {name} {getattr(self, name)!r}, "
                                 f"expected one of {allowed}")
        for name in ("stage1_strategy", "pair_strategy"):
            try:
                validate_strategy(self.task, "pair", getattr(self, name))
            except StrategyError as err:
                raise StrategyError(f"{name}: {err}") from None
        for name, low in (("epochs", 1), ("batch_size", 1), ("example_weight", 0),
                          ("model_weight", 0), ("noise_sigma", 0), ("ss_alpha", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)!r}")
        if not 0.0 <= self.warmup_frac < 1.0:
            raise ValueError("warmup_frac must lie in [0, 1)")
        if not 0.0 <= self.cs_word_ratio <= 1.0:
            raise ValueError(f"cs_word_ratio must lie in [0, 1], got {self.cs_word_ratio!r}")
        self.mt_languages = tuple(self.mt_languages)

    def strategy(self, kind):
        return AugmentationStrategy(
            kind=kind,
            alpha=self.ss_alpha,
            word_ratio=self.cs_word_ratio,
            languages=self.mt_languages,
        )

    @classmethod
    def from_preset(cls, dataset, setting, **overrides):
        if (dataset, setting) not in PRESETS:
            raise ValueError(f"unknown preset {dataset!r} for setting {setting!r}, "
                             f"expected one of {PRESET_DATASETS}")
        stage1, corpus, pair, w_pair, w_model = PRESETS[(dataset, setting)]
        task, pooling = PRESET_TASKS[dataset]
        base = dict(
            task=task,
            setting=setting,
            stage1_strategy=stage1,
            corpus_strategy=corpus,
            pair_strategy=pair,
            example_weight=w_pair,
            model_weight=w_model,
            pooling=pooling or "first_subword",
        )
        base.update(overrides)
        return cls(**base)


@dataclass
class Resources:
    """Shared immutable inputs for a training run."""

    vocab: tok.UnigramVocab
    dictionaries: list = field(default_factory=list)
    store: object = None


@dataclass
class OptimizerState:
    m: dict
    v: dict
    step: int = 0

    @classmethod
    def for_params(cls, tensors):
        return cls(
            m={k: np.zeros_like(t.data) for k, t in tensors.items()},
            v={k: np.zeros_like(t.data) for k, t in tensors.items()},
        )


def adam_step(values, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam update (with bias correction) applied in place."""
    state.step += 1
    t = state.step
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    for name, value in values.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(value)
        state.m[name] = beta1 * state.m[name] + (1.0 - beta1) * g
        state.v[name] = beta2 * state.v[name] + (1.0 - beta2) * g * g
        m_hat = state.m[name] / c1
        v_hat = state.v[name] / c2
        value -= lr * m_hat / (np.sqrt(v_hat) + eps)


def lr_at(step, total, base, warmup_frac):
    """Linear ramp 0 -> base over the warmup steps, then linear decay to 0."""
    warmup = warmup_frac * total
    if warmup < 1.0:
        raise ValueError("warmup_frac * total must be >= 1")
    if step <= warmup:
        return base * step / warmup
    return base * (total - step) / (total - warmup)


# ---------------------------------------------------------------------------
# Batch items


def _materialize(item, vocab, cfg, noise_rng):
    """(example, segmentation, encode-noise) for a corpus item.

    A subword-resampled item carries its pinned segmentation; a noise-marked
    item draws a fresh Gaussian perturbation, shared by the teacher forward
    so that both models see the identical input.
    """
    if isinstance(item, AugmentedExample):
        ex = item.example
        seg = item.segmentation or tok.viterbi_segment_words(vocab, ex.words)
        noise = None
        if item.strategy == "GN" and cfg.noise_sigma > 0:
            noise = noise_rng.normal(0.0, cfg.noise_sigma, (seg.n_pieces, cfg.dim))
        return ex, seg, noise
    return item, tok.viterbi_segment_words(vocab, item.words), None


def _labeled(item):
    ex = item.example if isinstance(item, AugmentedExample) else item
    available = item.label_available if isinstance(item, AugmentedExample) else True
    return available and ex.labeled


def _pair_view(ex, seg, kind, cfg, res, rng):
    """On-the-fly augmented view of one example for pair consistency.

    Returns (view segmentation, view encode-noise, alignment, modified
    flags) or None when no view exists (e.g. no translation).
    """
    if kind == "SS":
        aug = subword_resample(ex, res.vocab, cfg.ss_alpha, rng)
        return aug.segmentation, None, aug.alignment, aug.modified
    if kind == "CS":
        aug = code_switch(ex, res.dictionaries, cfg.cs_word_ratio, rng)
        seg2 = tok.viterbi_segment_words(res.vocab, aug.example.words)
        return seg2, None, aug.alignment, aug.modified
    if kind == "GN":
        noise = rng.normal(0.0, cfg.noise_sigma, (seg.n_pieces, cfg.dim))
        return seg, noise, list(range(len(ex.words))), [False] * len(ex.words)
    # MT: render the same underlying example in another language
    langs = [l for l in res.store.languages_for(base_id(ex.id)) if l != ex.language]
    if not langs:
        return None
    lang = langs[int(rng.integers(0, len(langs)))]
    words, _label = res.store.get(base_id(ex.id), lang)
    return tok.viterbi_segment_words(res.vocab, words), None, None, None


def run_stage(items, params, cfg, res, stage_label, pair_strategy=None, pair_weight=0.0,
              teacher=None, teacher_weight=0.0):
    """Run one optimization stage over a fixed item list.

    Every per-batch loss is mean task NLL over labeled items, plus
    ``pair_weight`` times the mean pair-consistency over views, plus
    ``teacher_weight`` times the mean teacher KL over all items.  A batch's
    items and then their views go through the student as one packed
    forward, and its items through the teacher as a second one.  Returns a
    per-step trace of the separate components.
    """
    if teacher is not None and not params.same_architecture(teacher):
        raise ValueError("teacher and student architectures differ")
    use_pairs = pair_strategy is not None and pair_weight != 0.0
    use_teacher = teacher is not None and teacher_weight != 0.0
    if use_pairs:
        validate_strategy(cfg.task, "pair", pair_strategy)

    batch_rng = substream(cfg.seed, f"{stage_label}/batching")
    view_rng = substream(cfg.seed, f"{stage_label}/views")
    noise_rng = substream(cfg.seed, f"{stage_label}/noise")

    if use_pairs and pair_strategy == "MT" and res.store is None:
        raise StrategyError(f"{stage_label}: MT pair views need a translation store "
                            "(translations.jsonl in the data directory)")

    n = len(items)
    steps_per_epoch = math.ceil(n / cfg.batch_size)
    total_steps = cfg.epochs * steps_per_epoch
    # very short runs: keep at least one warmup step
    warmup_frac = max(cfg.warmup_frac, 1.0 / total_steps)
    state = OptimizerState.for_params(params.tensors)
    pooling = cfg.pooling if cfg.task == "labeling" else None
    trace = []
    step = 0

    for _epoch in range(cfg.epochs):
        order = batch_rng.permutation(n)
        for b in range(steps_per_epoch):
            batch = order[b * cfg.batch_size: (b + 1) * cfg.batch_size]
            step += 1
            lr = lr_at(step, total_steps, cfg.learning_rate, warmup_frac)
            params.zero_grads()

            segs, noises, gold = [], [], []
            view_segs, view_noises, pairs = [], [], []
            for k, i in enumerate(batch):
                item = items[int(i)]
                ex, seg, noise = _materialize(item, res.vocab, cfg, noise_rng)
                segs.append(seg)
                noises.append(noise)
                gold.append(_gold_for(ex, seg) if _labeled(item) else None)
                view = _pair_view(ex, seg, pair_strategy, cfg, res, view_rng) if use_pairs else None
                if view is not None:
                    vseg, vnoise, alignment, modified = view
                    pairs.append((k, len(batch) + len(view_segs), alignment, modified))
                    view_segs.append(vseg)
                    view_noises.append(vnoise)

            n_labeled = sum(g is not None for g in gold)
            pred = predict(params, segs + view_segs, pooling=pooling, noises=noises + view_noises)

            parts = {"task": 0.0, "example_consistency": 0.0, "model_consistency": 0.0}
            total = None
            if n_labeled:
                node = task_loss(pred, gold + [None] * len(view_segs))
                parts["task"] = node.item()
                total = node
            if pairs:
                node = example_consistency(pred, pairs)
                parts["example_consistency"] = node.item()
                weighted = ad.scale(node, pair_weight)
                total = weighted if total is None else ad.add(total, weighted)
            if use_teacher:
                tpred = predict(teacher, segs, pooling=pooling, noises=noises)
                node = model_consistency(tpred, pred)
                parts["model_consistency"] = node.item()
                weighted = ad.scale(node, teacher_weight)
                total = weighted if total is None else ad.add(total, weighted)

            total_value = 0.0
            if total is not None:
                total_value = total.item()
                if not math.isfinite(total_value):
                    raise TrainingError(
                        f"{stage_label}: non-finite loss {total_value} at step {step} "
                        f"(components {parts})"
                    )
                ad.backward(total)
                adam_step({k: t.data for k, t in params.tensors.items()},
                          {k: t.grad for k, t in params.tensors.items()},
                          state, lr)

            trace.append({
                "step": step,
                "lr": lr,
                "total": total_value,
                "task": parts["task"],
                "example_consistency": parts["example_consistency"],
                "model_consistency": parts["model_consistency"],
                "labeled": n_labeled,
                "unlabeled": len(batch) - n_labeled,
                "pairs": len(pairs),
            })
    return trace


def _gold_for(ex, seg):
    """Task gold in the coordinates the loss expects.

    Span answers are word indices; the loss wants first-subword positions of
    those words under the current segmentation.
    """
    if ex.task == "span":
        first = seg.first_subword_positions()
        return (first[ex.answer_start], first[ex.answer_end])
    return ex.gold()


# ---------------------------------------------------------------------------
# Modes


def init_params(cfg, res):
    return ModelParams(cfg.task, len(res.vocab), cfg.dim, cfg.max_len,
                       n_label=cfg.n_label, rng=substream(cfg.seed, "init"))


def _build_corpus(train, cfg, res):
    return build_augmented_corpus(
        train, cfg.strategy(cfg.corpus_strategy), substream(cfg.seed, "corpus"),
        vocab=res.vocab, dictionaries=res.dictionaries, store=res.store,
    )


def _train_stage(items, cfg, res, stage_label, pair_strategy, pair_weight, teacher=None):
    """A fresh model trained on ``items``; without a consistency term a stage
    sees the labeled items only."""
    if pair_strategy is None and teacher is None:
        items = [it for it in items if _labeled(it)]
    params = init_params(cfg, res)
    trace = run_stage(items, params, cfg, res, stage_label, pair_strategy=pair_strategy,
                      pair_weight=pair_weight, teacher=teacher, teacher_weight=cfg.model_weight)
    return params, trace


@dataclass
class TrainResult:
    mode: str
    student: ModelParams
    teacher: ModelParams | None
    traces: dict
    manifest: dict


def train_with_mode(mode, train, cfg, res, input_digests=None):
    """Run the ``MODES`` row behind the command-line ``--mode`` flag."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {tuple(MODES)}")
    r1, r2 = MODES[mode]
    traces, teacher, corpus = {}, None, None
    if r2:
        teacher, traces["stage1"] = _train_stage(
            list(train), cfg, res, "stage1", cfg.stage1_strategy if r1 else None,
            cfg.stage1_pair_weight)
    items = list(train)
    if r2 or cfg.setting == "translate-train-all":
        corpus = _build_corpus(train, cfg, res)
        items = corpus.items
    student, traces["stage2"] = _train_stage(
        items, cfg, res, "main", cfg.pair_strategy if r1 else None, cfg.example_weight, teacher)
    manifest = {
        "format": "xtune-run v1",
        "mode": mode,
        "seed": cfg.seed,
        "config": {k: (list(v) if isinstance(v, tuple) else v)
                   for k, v in asdict(cfg).items()},
        "corpus_sizes": {
            "train": len(train),
            "augmented": len(corpus.augmented) if corpus else 0,
            "missing_translations": len(corpus.missing) if corpus else 0,
        },
        "input_digests": input_digests or {},
        "traces": traces,
    }
    return TrainResult(mode, student, teacher, traces, manifest)
