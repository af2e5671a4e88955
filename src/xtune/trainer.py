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

A stage segments each item and puts its gold in loss coordinates once, at
its start.  Every random draw of a stage happens at an epoch start: the
shuffle, then the encode noise of every GN item and every pair view, each in
one batched call in shuffled order.  A view is unchanged when it has its
item's word records and neither side draws noise (``_unchanged``): under the
deterministic forward its R1 term is KL(p || p) = 0 with a zero gradient, so
it counts in R1's mean but is never packed.  A stochastic op added to the
forward must join that condition.  With R2 on, the teacher's rows of every
item are one table (cached distillation targets) of
``evaluate.EVAL_CHUNK``-sized forwards, built once per stage, or per epoch
on the epoch's noise when the stage holds GN items.  A step then only slices
its epoch's inputs, packs them and runs the student graph.  The run manifest
records, per stage, the views drawn, missing and unchanged and what they
changed (``_ViewStats``).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields, asdict
from functools import cached_property

import numpy as np

from . import autodiff as ad
from . import tokenizer as tok
from .augment import (
    STRATEGY_KINDS,
    AugmentationStrategy,
    AugmentedExample,
    StrategyError,
    SwitchCandidates,
    base_id,
    build_augmented_corpus,
    code_switch,
    subword_resample,
    validate_strategy,
)
from .consistency import aligned_words, example_consistency, model_consistency
from .data import TASKS
from .evaluate import EVAL_CHUNK
from .model import POOLINGS, ModelParams, Packing, RowTable, predict, task_loss

SETTINGS = ("cross-lingual-transfer", "translate-train-all")
# (R1 example consistency, R2 model consistency) per training mode
MODES = {"baseline": (False, False), "r1-only": (True, False),
         "r2-only": (False, True), "xtune": (True, True)}
# Adam's moment decay rates and denominator guard
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

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

PRESET_DATASETS = tuple(PRESET_TASKS)


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
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)!r}")
        for name, allowed in (("task", TASKS), ("setting", SETTINGS), ("pooling", POOLINGS),
                              ("stage1_strategy", STRATEGY_KINDS),
                              ("corpus_strategy", STRATEGY_KINDS),
                              ("pair_strategy", STRATEGY_KINDS)):
            if getattr(self, name) not in allowed:
                raise ValueError(f"unknown {name} {getattr(self, name)!r}, "
                                 f"expected one of {allowed}")
        for name in ("stage1_strategy", "pair_strategy"):
            try:
                validate_strategy(self.task, getattr(self, name))
            except StrategyError as err:
                raise StrategyError(f"{name}: {err}") from None
        for name, low in (("epochs", 1), ("batch_size", 1), ("dim", 1), ("max_len", 1),
                          ("example_weight", 0), ("model_weight", 0), ("stage1_pair_weight", 0),
                          ("noise_sigma", 0), ("ss_alpha", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)!r}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate!r}")
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

    @cached_property
    def switch_candidates(self):
        """The dictionaries' code-switch candidates, built on first use."""
        return SwitchCandidates(self.dictionaries)


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


def adam_step(values, grads, state, lr):
    """One Adam update (with bias correction) applied in place."""
    state.step += 1
    t = state.step
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    for name, value in values.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(value)
        state.m[name] = ADAM_BETA1 * state.m[name] + (1.0 - ADAM_BETA1) * g
        state.v[name] = ADAM_BETA2 * state.v[name] + (1.0 - ADAM_BETA2) * g * g
        m_hat = state.m[name] / c1
        v_hat = state.v[name] / c2
        value -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


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


def _labeled(item):
    return (item.example if isinstance(item, AugmentedExample) else item).labeled


def _stage_table(items, vocab, cfg):
    """What stays fixed per item through a stage: (example, segmentation,
    gold in loss coordinates or None when unlabeled, whether it draws
    encode noise).

    A subword-resampled item keeps its pinned segmentation; any other item
    is Viterbi-segmented.  A GN item draws fresh encode noise every epoch.
    """
    table = []
    for item in items:
        ex, seg, noised = item, None, False
        if isinstance(item, AugmentedExample):
            ex, seg = item.example, item.segmentation
            noised = item.strategy == "GN" and cfg.noise_sigma > 0
        seg = seg or tok.viterbi_segment_words(vocab, ex.words)
        table.append((ex, seg, _gold_for(ex, seg) if _labeled(item) else None, noised))
    return table


def _teacher_rows(teacher, packing, noises):
    """The teacher's log-probability rows of a stage's ``packing`` under
    ``noises`` as one ``RowTable``: ``EVAL_CHUNK`` sequences per forward,
    each taken from the packing."""
    chunks = [slice(start, start + EVAL_CHUNK) for start in range(0, len(packing), EVAL_CHUNK)]
    return RowTable.join([predict(teacher, packing.take(chunk), noises=noises[chunk]).row_table()
                          for chunk in chunks])


def _encode_noise(segs, cfg, rng):
    """Per segmentation, in order, an (n_pieces, dim) encode-noise block of one draw."""
    sizes = [seg.n_pieces for seg in segs]
    noise = rng.normal(0.0, cfg.noise_sigma, (sum(sizes), cfg.dim))
    return np.split(noise, np.cumsum(sizes)[:-1])


def _epoch_views(table, order, kind, cfg, res, rng):
    """The pair view of every item of an epoch, in ``order``, drawn in one
    batched call per kind: (view segmentation, view encode noise, modified
    flags) per item, or None when no view exists (an MT item with no other
    language).  A translation flags every word as modified, as
    ``translate`` does.
    """
    examples = [table[i][0] for i in order]
    if kind == "SS":
        return [(view.segmentation, None, view.modified)
                for view in subword_resample(examples, res.vocab, cfg.ss_alpha, rng)]
    if kind == "CS":
        views = code_switch(examples, res.switch_candidates, cfg.cs_word_ratio, rng)
        return [(tok.viterbi_segment_words(res.vocab, view.example.words), None, view.modified)
                for view in views]
    if kind == "GN":
        segs = [table[i][1] for i in order]
        return [(seg, rows, [False] * len(seg.words))
                for seg, rows in zip(segs, _encode_noise(segs, cfg, rng))]
    # MT: render the same underlying example in another language
    views = []
    for ex, u in zip(examples, rng.random(len(examples)).tolist()):
        langs = [l for l in res.store.languages_for(base_id(ex.id)) if l != ex.language]
        if not langs:
            views.append(None)
            continue
        words, _label = res.store.get(base_id(ex.id), langs[int(u * len(langs))])
        views.append((tok.viterbi_segment_words(res.vocab, words), None, [True] * len(words)))
    return views


def _unchanged(row, view):
    """Whether a drawn view is its ``_stage_table`` row's input: the same word
    records (not ``modified`` flags: a pinned-SS item's view flags are
    relative to Viterbi) and encode noise on neither side."""
    return view is not None and view[1] is None and not row[3] and view[0].words == row[1].words


class _ViewStats:
    """Per-stage counts of the pair views drawn: the ``views`` record of the
    run manifest."""

    def __init__(self):
        self.drawn = self.missing = self.unchanged = self.words = self.modified = self.empty = 0
        self.missing_ids = set()

    def count(self, table, order, views, unchanged, task):
        self.unchanged += sum(unchanged)
        for i, view in zip(order.tolist(), views):
            ex, seg = table[i][:2]
            if view is None:
                self.missing += 1
                self.missing_ids.add(ex.id)
                continue
            vseg, _noise, modified = view
            self.drawn += 1
            self.words += len(modified)
            self.modified += sum(modified)
            if task == "span" and seg.words != vseg.words:
                self.empty += not aligned_words(seg, vseg, modified)

    def summary(self, steps):
        return {"steps": steps, "views_drawn": self.drawn, "views_missing": self.missing,
                "missing_ids": sorted(self.missing_ids), "unchanged_views": self.unchanged,
                "modified_word_share": self.modified / self.words if self.words else None,
                "empty_alignments": self.empty}


def run_stage(items, params, cfg, res, stage_label, pair_strategy=None, pair_weight=0.0,
              teacher=None, teacher_weight=0.0):
    """Run one optimization stage over a fixed item list.

    Every per-batch loss is mean task NLL over labeled items, plus
    ``pair_weight`` times the mean pair-consistency over views, plus
    ``teacher_weight`` times the mean teacher KL over all items.  Each
    item's segmentation and gold are computed once at the stage start
    (``_stage_table``).  Every random draw happens at an epoch start: the
    shuffle, the GN items' encode noise (``_encode_noise``) and the pair views
    (``_epoch_views``).  With a teacher, every item's rows (``_teacher_rows``)
    are computed once per stage, or at each epoch start when the stage holds
    GN items.  A batch's items and then their changed views go through the
    student as one packed forward.  An unchanged view (``_unchanged``) gives a
    deterministic forward its item's input, so its R1 term is exactly zero
    with zero gradient: it counts in the pair mean and the trace's ``pairs``
    but is never packed.  Returns a per-step trace of the separate components
    and the stage's view statistics (``_ViewStats.summary``).
    """
    if teacher is not None and not params.same_architecture(teacher):
        raise ValueError("teacher and student architectures differ")
    use_pairs = pair_strategy is not None and pair_weight != 0.0
    use_teacher = teacher is not None and teacher_weight != 0.0
    if use_pairs:
        validate_strategy(cfg.task, pair_strategy)

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
    table = _stage_table(items, res.vocab, cfg)
    item_segs = [seg for _, seg, _, _ in table]
    item_packing = Packing.of(item_segs) if use_teacher else None
    item_noises = [None] * n
    teacher_table = None
    trace = []
    stats = _ViewStats()
    step = 0

    for _epoch in range(cfg.epochs):
        order = batch_rng.permutation(n)
        noised = [i for i in order.tolist() if table[i][3]]
        for i, rows in zip(noised, _encode_noise([item_segs[i] for i in noised], cfg, noise_rng)):
            item_noises[i] = rows
        if use_teacher and (noised or teacher_table is None):
            teacher_table = _teacher_rows(teacher, item_packing, item_noises)
        views, unchanged = [None] * n, [False] * n
        if use_pairs:
            views = _epoch_views(table, order, pair_strategy, cfg, res, view_rng)
            unchanged = [_unchanged(table[i], view) for i, view in zip(order.tolist(), views)]
            stats.count(table, order, views, unchanged, cfg.task)
        for b in range(steps_per_epoch):
            chunk = slice(b * cfg.batch_size, (b + 1) * cfg.batch_size)
            batch = order[chunk]
            step += 1
            lr = lr_at(step, total_steps, cfg.learning_rate, warmup_frac)
            params.zero_grads()

            segs = [item_segs[i] for i in batch]
            noises = [item_noises[i] for i in batch]
            gold = [table[i][2] for i in batch]
            pairs = []
            for k, (view, same) in enumerate(zip(views[chunk], unchanged[chunk])):
                if view is not None and not same:
                    vseg, vnoise, modified = view
                    pairs.append((k, len(segs), modified))
                    segs.append(vseg)
                    noises.append(vnoise)
            drawn = len(batch) - views[chunk].count(None)

            n_labeled = sum(g is not None for g in gold)
            pred = predict(params, Packing.of(segs), noises=noises)

            parts = {"task": 0.0, "example_consistency": 0.0, "model_consistency": 0.0}
            total = None
            if n_labeled:
                node = task_loss(pred, gold + [None] * len(pairs))
                parts["task"] = node.item()
                total = node
            if pairs:
                node = example_consistency(pred, segs, pairs, drawn)
                parts["example_consistency"] = node.item()
                weighted = ad.scale(node, pair_weight)
                total = weighted if total is None else ad.add(total, weighted)
            if use_teacher:
                node = model_consistency(teacher_table.take(batch), pred)
                parts["model_consistency"] = node.item()
                weighted = ad.scale(node, teacher_weight)
                total = weighted if total is None else ad.add(total, weighted)
            if total is None and drawn:   # only unchanged views: Adam steps on zero gradients
                total = ad.constant(0.0)

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

            trace.append({"step": step, "lr": lr, "total": total_value, **parts,
                          "labeled": n_labeled, "unlabeled": len(batch) - n_labeled,
                          "pairs": drawn})
    return trace, stats.summary(len(trace))


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
                       n_label=cfg.n_label, rng=substream(cfg.seed, "init"),
                       pooling=cfg.pooling)


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
    trace, views = run_stage(items, params, cfg, res, stage_label, pair_strategy=pair_strategy,
                             pair_weight=pair_weight, teacher=teacher,
                             teacher_weight=cfg.model_weight)
    return params, trace, views


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
    traces, views, teacher, corpus = {}, {}, None, None
    if r2:
        teacher, traces["stage1"], views["stage1"] = _train_stage(
            list(train), cfg, res, "stage1", cfg.stage1_strategy if r1 else None,
            cfg.stage1_pair_weight)
    items = list(train)
    if r2 or cfg.setting == "translate-train-all":
        corpus = _build_corpus(train, cfg, res)
        items = corpus.items
    student, traces["stage2"], views["stage2"] = _train_stage(
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
        "views": views,
    }
    return TrainResult(mode, student, teacher, traces, manifest)
