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
One master seed feeds named substreams so the modes share data order.  The
augmented corpus (``augment.build_augmented_corpus``) and each epoch's pair
views (``_epoch_views``) are drawn from the same ``(kind, cfg, res, rng)``:
a strategy kind, the config's ``ss_alpha``, ``cs_word_ratio`` and
``mt_languages``, and the run's ``augment.Resources``.

A stage interns the word records of its items, and later of their views,
into one ``model.RecordTable``: an item or a view is a run of record ids,
and a step packs its items and changed views from the table by record id,
so no step walks a word record.  The items are the columns of one
``data.Corpus`` (an ``augment.StageCorpus``), whose ``golds`` column a
step's task loss reads by array indexing.  Every random draw of a stage
happens at an epoch start: the shuffle, then the encode noise of every GN
item and every pair view, each in one batched call in shuffled order.  A
view is unchanged when it has its item's record ids and neither side draws
noise (``_unchanged``): under the deterministic forward its R1 term is
KL(p || p) = 0 with a zero gradient, so it counts in R1's mean but is never
packed.  A stochastic op added to the forward must join that condition.
With R2 on, the teacher's rows of every item are one table (cached
distillation targets) of ``evaluate.EVAL_CHUNK``-sized forwards, built once
per stage, or per epoch on the epoch's noise when the stage holds GN items.
Adam updates the model's tensors as views of one flat vector.  The run
manifest records, per stage, the views drawn, missing and unchanged and
what they changed.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields, asdict
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from . import tokenizer as tok
from .augment import (
    STRATEGY_KINDS,
    StageCorpus,
    StrategyError,
    base_id,
    build_augmented_corpus,
    code_switch,
    subword_resample,
    validate_strategy,
)
from .consistency import example_consistency, model_consistency
from .data import TASKS, check_languages, per_sequence
from .evaluate import EVAL_CHUNK
from .model import POOLINGS, ModelParams, RecordTable, RowTable, layout_rows, predict, task_loss

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
                          ("seed", 0), ("example_weight", 0), ("model_weight", 0), ("n_label", 1),
                          ("stage1_pair_weight", 0), ("noise_sigma", 0), ("ss_alpha", 0)):
            if (value := getattr(self, name)) is not None and value < low:
                raise ValueError(f"{name} must be >= {low}, got {value!r}")
        if self.task != "labeling" and self.pooling != "first_subword":
            raise ValueError(f"pooling {self.pooling!r} applies to labeling only, not {self.task}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate!r}")
        if not 0.0 <= self.warmup_frac < 1.0:
            raise ValueError("warmup_frac must lie in [0, 1)")
        if not 0.0 <= self.cs_word_ratio <= 1.0:
            raise ValueError(f"cs_word_ratio must lie in [0, 1], got {self.cs_word_ratio!r}")
        self.mt_languages = check_languages(self.mt_languages, "mt_languages")

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
class OptimizerState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0


def adam_step(values, tensors, state, lr):
    """One Adam update (with bias correction), in place, of the flat vector
    ``values`` that ``tensors`` view in order, from their gradients (zero
    where none arrived)."""
    grad = np.concatenate([np.zeros(t.data.size) if t.grad is None else t.grad.ravel()
                           for t in tensors])
    state.step += 1
    t = state.step
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    state.m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * grad
    state.v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * grad * grad
    values -= lr * (state.m / c1) / (np.sqrt(state.v / c2) + ADAM_EPS)


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


class _StageTable:
    """What stays fixed per item through a stage, and the stage's records.

    Item k is example k of a ``StageCorpus``'s columns, with id ``ids[k]``,
    language ``languages[k]`` and ``noised[k]`` set when it draws fresh
    encode noise every epoch (a GN view); its gold stays in the corpus's
    columns.  ``packing`` packs the items in order from their ``records`` ids
    ``rids``: Viterbi's (``viterbi_rids``), or the pinned draw of an SS
    view.  Word types (``position_types``) and switch options' record ids
    (``option_rids``) are kept from their first use.
    """

    def __init__(self, items, vocab, cfg):
        corpus, n_words = items.corpus, items.corpus.n_words
        self.ids, self.languages = corpus.ids, corpus.languages
        first = np.cumsum(n_words) - n_words   # a view's words are the corpus's last
        self.noised = ((first >= len(corpus.words) - items.modified.size)
                       & (items.strategy == "GN") & (cfg.noise_sigma > 0))
        self.records = RecordTable(vocab)
        self.viterbi_rids = self.records.viterbi(corpus.words, n_words,
                                                 lambda k: f"example {self.ids[k]!r}")
        self.rids = self.viterbi_rids.copy()
        if items.pinned:
            self.rids[self.rids.size - len(items.pinned):] = self.records.intern(items.pinned)
        self.words = np.array(corpus.words, dtype=object)
        self.packing = self.records.pack(n_words, self.rids)
        self._types, self.option_rids = {}, None

    def position_types(self, kind, rows, lookup):
        """The ``kind`` type of each word position of ``rows``: the first
        call looks every position up with ``lookup``, its rows first and in
        their order, so that an error names the first word drawn."""
        if kind not in self._types:
            rest = np.ones(self.words.size, dtype=bool)
            rest[rows] = False
            first = np.concatenate((rows, np.flatnonzero(rest)))
            self._types[kind] = np.empty(self.words.size, np.intp)
            self._types[kind][first] = lookup(self.words[first].tolist())
        return self._types[kind][rows]


def _teacher_rows(teacher, packing, noises):
    """The teacher's log-probability rows of a stage's ``packing`` under
    ``noises`` as one ``RowTable``: ``EVAL_CHUNK`` sequences per forward,
    each taken from the packing."""
    chunks = [slice(start, start + EVAL_CHUNK) for start in range(0, len(packing), EVAL_CHUNK)]
    return RowTable.join([predict(teacher, packing.take(chunk), noises=noises[chunk]).row_table()
                          for chunk in chunks])


def _encode_noise(sizes, cfg, rng):
    """Per size, in order, a (size, dim) encode-noise block of one draw."""
    noise = rng.normal(0.0, cfg.noise_sigma, (int(sizes.sum()), cfg.dim))
    return np.split(noise, np.cumsum(sizes)[:-1])


class _Views(NamedTuple):
    """An epoch's pair views in its order, record ids from the draw on: view
    p has ``n_words[p]`` words (none when no view exists), whose record ids
    and modified flags follow the earlier views' in ``rids`` and
    ``modified``, and noise ``noises[p]`` (None when no view draws any)."""

    n_words: np.ndarray
    rids: np.ndarray
    modified: np.ndarray
    noises: list | None


def _epoch_views(stage, order, kind, cfg, res, rng):
    """The pair view of every item of an epoch, in ``order``, drawn in one
    batched call over the epoch's words, as ``_Views`` of record ids: an SS
    word is modified where its record is not Viterbi's (on a pinned-SS item
    too), and a CS view is its items' Viterbi ids but at switched words.  An
    MT item with no other language has no view, and a translation flags
    every word as modified, as ``translate`` does.  The first draw of a CS
    option, or an MT view, with an uncovered character raises a ValueError
    naming its item and the view kind."""
    n_words = stage.packing.n_words[order]
    rows = layout_rows(stage.packing.word_starts[order], n_words)   # the items' words
    if kind == "GN":
        return _Views(n_words, stage.rids[rows], np.zeros(rows.size, dtype=bool),
                      _encode_noise(stage.packing.lengths[order], cfg, rng))
    if kind == "SS":
        sampler = res.vocab.sampler(cfg.ss_alpha)
        draws = subword_resample(stage.position_types("SS", rows, sampler.type_ids), res.vocab,
                                 cfg.ss_alpha, rng)
        rids = stage.records.drawn(sampler, draws)
        return _Views(n_words, rids, rids != stage.viterbi_rids[rows], None)
    name = lambda p: f"example {stage.ids[order[p]]!r}: {kind} view"
    if kind == "CS":
        cands = res.switch_candidates
        option = code_switch(stage.position_types("CS", rows, cands.types), cands,
                             cfg.cs_word_ratio, rng)
        if stage.option_rids is None:
            stage.option_rids = np.full(len(cands.options), -1)
        rids, modified = stage.viterbi_rids[rows], option >= 0
        picked = option[modified]
        if (stage.option_rids[picked] < 0).any():   # an option's first draw
            view = cands.view(stage.words[rows].tolist(), option)
            stage.option_rids[picked] = stage.records.viterbi(view, n_words, name)[modified]
        rids[modified] = stage.option_rids[picked]
        return _Views(n_words, rids, modified, None)
    # MT: render the same underlying example in another language
    n_words, words = np.zeros(len(order), dtype=np.intp), []
    for p, (i, u) in enumerate(zip(order.tolist(), rng.random(len(order)).tolist())):
        original = base_id(stage.ids[i])
        if langs := [l for l in res.store.languages_for(original) if l != stage.languages[i]]:
            view, _label = res.store.get(original, langs[int(u * len(langs))])
            n_words[p] = len(view)
            words += view
    return _Views(n_words, stage.records.viterbi(words, n_words, name),
                  np.ones(len(words), dtype=bool), None)


def _unchanged(stage, order, views):
    """Per view, by comparing record ids: whether it is its item's input
    (has the item's records, not ``modified`` flags: a pinned-SS item's view
    flags are relative to Viterbi, and no encode noise on either side),
    whether it has its item's records, and how many of its words are aligned
    (unmodified, with the item's record; none for another word count)."""
    n = views.n_words * (views.n_words == stage.packing.n_words[order])
    view_rows = layout_rows(np.cumsum(views.n_words) - views.n_words, n)
    equal = stage.rids[layout_rows(stage.packing.word_starts[order], n)] == views.rids[view_rows]
    same = (n > 0) & (per_sequence(~equal, n) == 0)
    aligned = per_sequence(equal & ~views.modified[view_rows], n)
    return same & ~stage.noised[order] & (views.noises is None), same, aligned


def run_stage(items, params, cfg, res, stage_label, pair_strategy=None, pair_weight=0.0,
              teacher=None, teacher_weight=0.0):
    """Run one optimization stage over the items of a ``StageCorpus``.

    Every per-batch loss is mean task NLL over labeled items, plus
    ``pair_weight`` times the mean pair-consistency over views, plus
    ``teacher_weight`` times the mean teacher KL over all items.  The
    items are interned once, at the stage start (``_StageTable``).  The
    shuffle, the GN items' encode noise (``_encode_noise``) and the pair
    views (``_epoch_views``) are drawn at each epoch start, where an item or
    drawn view over ``max_len`` raises, naming its item.  Returns a per-step
    trace of the separate components and the stage's view statistics (the
    manifest's ``views`` record).
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

    n = len(items.corpus)
    steps_per_epoch = math.ceil(n / cfg.batch_size)
    total_steps = cfg.epochs * steps_per_epoch
    # very short runs: keep at least one warmup step
    warmup_frac = max(cfg.warmup_frac, 1.0 / total_steps)
    values = params.flatten()
    state = OptimizerState(np.zeros(values.size), np.zeros(values.size))
    stage = _StageTable(items, res.vocab, cfg)
    item_noises = [None] * n
    teacher_table = None
    trace = []
    counts = dict.fromkeys(("views_drawn", "views_missing", "unchanged_views", "empty_alignments",
                            "words", "modified"), 0)   # the manifest's ``views`` record
    missing_ids = set()
    step = 0

    for _epoch in range(cfg.epochs):
        order = batch_rng.permutation(n)
        noised = order[stage.noised[order]]
        for i, rows in zip(noised.tolist(), _encode_noise(stage.packing.lengths[noised], cfg,
                                                          noise_rng)):
            item_noises[i] = rows
        views = _Views(np.zeros(n, dtype=np.intp), stage.rids[:0], np.zeros(0, dtype=bool), None)
        if use_pairs:
            views = _epoch_views(stage, order, pair_strategy, cfg, res, view_rng)
        # the epoch's sequences as record ids: the items, then their views in the epoch's order
        seq_words = np.concatenate((stage.packing.n_words, views.n_words))
        seq_rids = np.concatenate((stage.rids, views.rids))
        seq_first = np.cumsum(seq_words) - seq_words
        lengths = stage.records.lengths(seq_words, seq_rids)
        if (over := np.flatnonzero(lengths > params.max_len)).size:
            k = over[0]
            raise ValueError(f"example {stage.ids[k if k < n else order[k - n]]!r}: "
                             f"{'input' if k < n else f'{pair_strategy} view'} "
                             f"of {lengths[k]} subwords exceeds max_len {params.max_len}")
        if use_teacher and (noised.size or teacher_table is None):
            teacher_table = _teacher_rows(teacher, stage.packing, item_noises)
        unchanged, same, aligned = _unchanged(stage, order, views)
        drawn = views.n_words > 0
        changed = drawn & ~unchanged
        if use_pairs:
            missing_ids.update(map(stage.ids.__getitem__, order[~drawn].tolist()))
            empty = (cfg.task == "span") & drawn & ~same & (aligned == 0)
            for key, value in zip(counts, (drawn, ~drawn, unchanged, empty, views.n_words,
                                           views.modified)):
                counts[key] += int(value.sum())
        view_noises = views.noises or [None] * n
        seq_modified = np.concatenate((np.zeros(stage.rids.size, dtype=bool), views.modified))
        for b in range(steps_per_epoch):
            chunk = slice(b * cfg.batch_size, (b + 1) * cfg.batch_size)
            batch = order[chunk]
            step += 1
            lr = lr_at(step, total_steps, cfg.learning_rate, warmup_frac)
            params.zero_grads()

            ks = np.flatnonzero(changed[chunk])
            index = np.concatenate((batch, n + chunk.start + ks))
            n_words = seq_words[index]
            rows = layout_rows(seq_first[index], n_words)
            packing = stage.records.pack(n_words, seq_rids[rows])
            batch_items, paired = batch.tolist(), (chunk.start + ks).tolist()
            segs, flags = [None] * len(index), [None] * len(index)
            if cfg.task == "span":   # only span R1 reads its pairs' segmentations and flags
                for k in np.concatenate((ks, len(batch) + np.arange(ks.size))).tolist():
                    seq = slice(seq_first[index[k]], seq_first[index[k]] + n_words[k])
                    segs[k] = tok.Segmentation([stage.records.records[r] for r in seq_rids[seq]])
                    flags[k] = seq_modified[seq].tolist()
            pairs = [(k, len(batch_items) + j, flags[len(batch_items) + j])
                     for j, k in enumerate(ks.tolist())]
            noises = [item_noises[i] for i in batch_items] + [view_noises[p] for p in paired]
            labeled = np.flatnonzero(items.corpus.has_gold[batch])
            n_drawn = int(np.count_nonzero(drawn[chunk]))

            pred = predict(params, packing, noises=noises)

            parts = {"task": 0.0, "example_consistency": 0.0, "model_consistency": 0.0}
            total = None
            if labeled.size:
                gold = batch[labeled]
                if cfg.task == "labeling":   # their words' tags, laid out as in the corpus
                    gold = layout_rows(stage.packing.word_starts[gold],
                                       stage.packing.n_words[gold])
                node = task_loss(pred, labeled, items.corpus.golds[gold])
                parts["task"] = node.item()
                total = node
            if pairs:
                node = example_consistency(pred, segs, pairs, n_drawn)
                parts["example_consistency"] = node.item()
                weighted = ad.scale(node, pair_weight)
                total = weighted if total is None else ad.add(total, weighted)
            if use_teacher:
                node = model_consistency(teacher_table.take(batch), pred)
                parts["model_consistency"] = node.item()
                weighted = ad.scale(node, teacher_weight)
                total = weighted if total is None else ad.add(total, weighted)
            if total is None and n_drawn:   # only unchanged views: Adam steps on zero gradients
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
                adam_step(values, params.parameters(), state, lr)

            trace.append({"step": step, "lr": lr, "total": total_value, **parts,
                          "labeled": labeled.size, "unlabeled": len(batch) - labeled.size,
                          "pairs": n_drawn})
    words, modified = counts.pop("words"), counts.pop("modified")
    return trace, {"steps": len(trace), **counts, "missing_ids": sorted(missing_ids),
                   "modified_word_share": modified / words if words else None}


# ---------------------------------------------------------------------------
# Modes


def init_params(cfg, res):
    return ModelParams(cfg.task, len(res.vocab), cfg.dim, cfg.max_len,
                       n_label=cfg.n_label, rng=substream(cfg.seed, "init"),
                       pooling=cfg.pooling)


def _build_corpus(train, cfg, res):
    return build_augmented_corpus(train, cfg.corpus_strategy, cfg, res,
                                  substream(cfg.seed, "corpus"))


def _train_stage(items, cfg, res, stage_label, pair_strategy, pair_weight, teacher=None):
    """A fresh model trained on the ``StageCorpus`` ``items``; without a
    consistency term a stage sees the labeled items only, and a ValueError
    names the training file when none is left."""
    labeled_only = pair_strategy is None and teacher is None
    if labeled_only:
        items = items.labeled()
    if not len(items.corpus):
        raise ValueError(f"{stage_label}: nothing to train: train.jsonl holds no "
                         + ("labeled example (a stage without a consistency term trains on "
                            "labeled items only)" if labeled_only else "example"))
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
    traces, views, teacher, items = {}, {}, None, StageCorpus(train)
    if r2:
        teacher, traces["stage1"], views["stage1"] = _train_stage(
            items, cfg, res, "stage1", cfg.stage1_strategy if r1 else None,
            cfg.stage1_pair_weight)
    if r2 or cfg.setting == "translate-train-all":
        items = _build_corpus(train, cfg, res)
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
            "augmented": len(items.corpus) - len(train),
            "missing_translations": len(items.missing),
        },
        "input_digests": input_digests or {},
        "traces": traces,
        "views": views,
    }
    return TrainResult(mode, student, teacher, traces, manifest)
