"""Data augmentation strategies and the augmented-corpus builder.

Four strategies share one interface: subword resampling (SS), Gaussian
embedding noise (GN, applied at encode time), code-switch substitution from
bilingual dictionaries (CS), and translation from a prebuilt store (MT).
Every augmentation records word alignment and modified-word flags so the
pair-consistency loss can restrict itself to unchanged positions.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field, replace

from . import tokenizer as tok
from .data import Example

log = logging.getLogger(__name__)

STRATEGY_KINDS = ("SS", "GN", "CS", "MT")
STRATEGY_USES = ("pair", "model", "corpus")  # pair consistency / teacher KL / dataset growth


class StrategyError(ValueError):
    """Strategy is not applicable to this task/use combination."""


class DictionaryFormatError(ValueError):
    """Malformed bilingual dictionary file."""


@dataclass
class AugmentationStrategy:
    """One augmentation with its knobs; unused knobs are ignored."""

    kind: str
    alpha: float = 0.2        # SS: sampling temperature
    word_ratio: float = 0.3   # CS: per-word replacement probability
    languages: tuple = ()     # MT: target languages

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise StrategyError(f"unknown strategy kind {self.kind!r}")
        if not 0.0 <= self.word_ratio <= 1.0:
            raise StrategyError(f"word_ratio {self.word_ratio} outside [0, 1]")
        if self.alpha < 0:
            raise StrategyError(f"alpha {self.alpha} must be >= 0")


@dataclass
class AugmentedExample:
    """An augmented view plus the metadata the regularizers need.

    ``alignment`` maps original word index -> augmented word index (None for
    translations, where no word alignment exists).  ``modified`` flags the
    original words whose surface or segmentation changed.  ``segmentation``
    pins the sampled tokenization for SS views.
    """

    example: Example
    strategy: str
    alignment: list | None
    modified: list
    label_available: bool
    segmentation: tok.Segmentation | None = None

    @property
    def words(self):
        return self.example.words

    @property
    def language(self):
        return self.example.language


@dataclass
class BilingualDictionary:
    """Word translations with case-normalized (casefold) lookups."""

    source_language: str
    target_language: str
    entries: dict

    def __post_init__(self):
        normalized = {}
        for word, translations in self.entries.items():
            if not translations:
                raise DictionaryFormatError(f"word {word!r} has an empty translation list")
            key = word.casefold()
            merged = normalized.setdefault(key, [])
            for t in translations:
                if t not in merged:
                    merged.append(t)
        self.entries = normalized

    def __contains__(self, word):
        return word.casefold() in self.entries

    def translations(self, word):
        return self.entries[word.casefold()]

    @property
    def n_words(self):
        return len(self.entries)

    @property
    def n_pairs(self):
        return sum(len(v) for v in self.entries.values())


def load_dictionary(path, src_lang, tgt_lang):
    """Parse ``source target`` pairs, one per line, tab or space separated."""
    entries = {}
    n_lines = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            cols = line.split()
            if len(cols) != 2:
                raise DictionaryFormatError(
                    f"{path}:{lineno}: expected 'source target', got {len(cols)} columns"
                )
            src, tgt = cols
            entries.setdefault(src, []).append(tgt)
            n_lines += 1
    if not entries:
        log.warning("dictionary %s (%s->%s) is empty", path, src_lang, tgt_lang)
        return BilingualDictionary(src_lang, tgt_lang, {})
    d = BilingualDictionary(src_lang, tgt_lang, entries)
    log.info("loaded %s: %d words, %d pairs from %d lines", path, d.n_words, d.n_pairs, n_lines)
    return d


class TranslationStore:
    """(example id, language) -> translated words, plus the label when it
    survives translation (classification only)."""

    def __init__(self):
        self._entries = {}
        self._languages = {}

    def add(self, example_id, language, words, label=None):
        self._entries[(example_id, language)] = (list(words), label)
        langs = self._languages.setdefault(example_id, [])
        if language not in langs:
            langs.append(language)
            langs.sort()

    def get(self, example_id, language):
        return self._entries.get((example_id, language))

    def languages_for(self, example_id):
        return list(self._languages.get(example_id, ()))

    def __len__(self):
        return len(self._entries)

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for (eid, lang), (words, label) in sorted(self._entries.items()):
                rec = {"example_id": eid, "lang": lang, "words": words}
                if label is not None:
                    rec["label"] = label
                fh.write(json.dumps(rec, sort_keys=True, ensure_ascii=False) + "\n")

    @classmethod
    def load(cls, path):
        store = cls()
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                    store.add(rec["example_id"], rec["lang"], rec["words"], rec.get("label"))
                except (json.JSONDecodeError, KeyError) as err:
                    raise DictionaryFormatError(f"{path}:{lineno}: bad store record ({err})") from None
        return store


# ---------------------------------------------------------------------------
# The four augmenters


def code_switch(example, dictionaries, word_ratio, rng):
    """Replace words with dictionary translations, each independently with
    probability ``word_ratio``; words absent from all dictionaries are kept.

    The replacement language is drawn per word, so outputs can mix several
    target languages.  Labels carry over unchanged (word-for-word
    substitution keeps per-word tags and span indices valid).
    """
    if not dictionaries:
        raise StrategyError("code_switch needs at least one dictionary")
    words = list(example.words)
    modified = [False] * len(words)
    for i, word in enumerate(words):
        if rng.random() >= word_ratio:
            continue
        applicable = [d for d in dictionaries if word in d]
        if not applicable:
            continue
        d = applicable[int(rng.integers(0, len(applicable)))]
        options = d.translations(word)
        words[i] = options[int(rng.integers(0, len(options)))]
        modified[i] = True
    return AugmentedExample(
        example=replace(example, words=words),
        strategy="CS",
        alignment=list(range(len(words))),
        modified=modified,
        label_available=example.labeled,
    )


def subword_resample(example, vocab, alpha, rng):
    """Same words, freshly sampled per-word segmentation.

    Modified flags mark words whose sampled pieces differ from Viterbi.
    """
    seg = tok.sample_segment_words(vocab, example.words, alpha, rng)
    reference = tok.viterbi_segment_words(vocab, example.words)
    modified = [a != b for a, b in zip(seg.word_pieces(), reference.word_pieces())]
    return AugmentedExample(
        example=replace(example, words=list(example.words)),
        strategy="SS",
        alignment=list(range(len(example.words))),
        modified=modified,
        label_available=example.labeled,
        segmentation=seg,
    )


def gaussian_view(example):
    """Marker-only augmentation: text identical, noise of scale
    ``TrainConfig.noise_sigma`` applied at encode time."""
    return AugmentedExample(
        example=replace(example, words=list(example.words)),
        strategy="GN",
        alignment=list(range(len(example.words))),
        modified=[False] * len(example.words),
        label_available=example.labeled,
    )


def translate(example, store, target_languages, task, missing=None):
    """One translated view per requested language.

    Labels survive only for classification; token-level labels cannot be
    projected across languages, so those views come back unlabeled.  Missing
    store entries are skipped with a warning and recorded in ``missing``.
    """
    views = []
    for lang in target_languages:
        entry = store.get(example.id, lang)
        if entry is None:
            log.warning("no translation of %s into %s; skipping", example.id, lang)
            if missing is not None:
                missing.append((example.id, lang))
            continue
        words, label = entry
        keep_label = task == "classification"
        translated = Example(
            id=f"{example.id}{CIPHER_ID_SEP}{lang}",
            language=lang,
            task=task,
            words=list(words),
            label=label if keep_label else None,
            n_label=example.n_label,
            question_len=example.question_len,
        )
        views.append(
            AugmentedExample(
                example=translated,
                strategy="MT",
                alignment=None,
                modified=[True] * len(words),
                label_available=keep_label and label is not None,
            )
        )
    return views


CIPHER_ID_SEP = "@"


def base_id(example_id):
    """Original example id for a translated view id."""
    return example_id.split(CIPHER_ID_SEP, 1)[0]


# ---------------------------------------------------------------------------
# Strategy validation (which augmentation may feed which loss)


_RECOMMENDED = {
    ("classification", "pair"): ("MT", "CS", "SS", "GN"),
    ("classification", "corpus"): ("MT", "CS", "SS", "GN"),
    ("classification", "model"): ("MT", "CS", "SS", "GN"),
    ("span", "pair"): ("CS", "SS", "GN"),
    ("span", "corpus"): ("MT", "SS", "CS", "GN"),
    ("span", "model"): ("MT", "SS", "CS", "GN"),
    ("labeling", "pair"): ("SS", "GN", "CS"),
    ("labeling", "corpus"): ("MT", "SS", "GN", "CS"),
    ("labeling", "model"): ("MT", "SS", "GN", "CS"),
}

_NOTES = {
    ("span", "pair"): (
        "translation pairs cannot be position-aligned, so MT is rejected for "
        "pair consistency; prefer CS alone, or SS when the corpus already "
        "contains translations"
    ),
    ("labeling", "pair"): (
        "translation pairs cannot be position-aligned, so MT is rejected for "
        "pair consistency; CS is noisier than SS on fine-grained tags"
    ),
}


@dataclass
class StrategyAdvice:
    ok: bool
    recommended: tuple
    note: str = ""


def validate_strategy(task, use, strategy):
    """Reject impossible (task, use, strategy) combinations.

    MT cannot feed the pair-consistency loss for span extraction or sequence
    labeling (the two output distributions cannot be aligned across a
    translation).  Everything else is allowed; the returned advice carries
    the recommended strategy ordering for this task.
    """
    kind = strategy.kind if isinstance(strategy, AugmentationStrategy) else strategy
    if kind not in STRATEGY_KINDS:
        raise StrategyError(f"unknown strategy kind {kind!r}")
    if use not in STRATEGY_USES:
        raise StrategyError(f"unknown use {use!r}, expected one of {STRATEGY_USES}")
    if use == "pair" and kind == "MT" and task in ("span", "labeling"):
        raise StrategyError(
            f"MT cannot be used for pair consistency on {task}: predicted "
            "distributions of a translation pair cannot be aligned"
        )
    return StrategyAdvice(True, _RECOMMENDED[(task, use)], _NOTES.get((task, use), ""))


# ---------------------------------------------------------------------------
# Corpus construction


@dataclass
class AugmentedCorpus:
    """Originals plus one augmentation per original (per language for MT).

    ``items`` is the flat training corpus (originals first, then
    augmentations); ``pairs`` lists (index into ``originals``, index into
    ``augmented``), covering every original exactly once per augmentation.
    """

    originals: list
    augmented: list
    pairs: list
    strategy: AugmentationStrategy
    missing: list = field(default_factory=list)

    @property
    def items(self):
        return self.originals + self.augmented

    def __len__(self):
        return len(self.originals) + len(self.augmented)


def build_augmented_corpus(corpus, strategy, rng, vocab=None, dictionaries=None, store=None):
    """D_A = D plus exactly one augmentation per example (ratio 1.0).

    MT produces one augmentation per (example, target language).  The
    original <-> augmentation pairing is retained in ``pairs``.
    """
    if not corpus:
        raise ValueError("build_augmented_corpus: empty corpus")
    task = corpus[0].task
    validate_strategy(task, "corpus", strategy)

    augmented = []
    pairs = []
    missing = []
    for i, example in enumerate(corpus):
        if strategy.kind == "CS":
            if not dictionaries:
                raise StrategyError("CS corpus augmentation needs dictionaries")
            views = [code_switch(example, dictionaries, strategy.word_ratio, rng)]
        elif strategy.kind == "SS":
            if vocab is None:
                raise StrategyError("SS corpus augmentation needs a vocabulary")
            views = [subword_resample(example, vocab, strategy.alpha, rng)]
        elif strategy.kind == "GN":
            views = [gaussian_view(example)]
        else:
            if store is None or not strategy.languages:
                raise StrategyError("MT corpus augmentation needs a store and target languages")
            views = translate(example, store, strategy.languages, task, missing=missing)
        for view in views:
            pairs.append((i, len(augmented)))
            augmented.append(view)
    return AugmentedCorpus(originals=list(corpus), augmented=augmented, pairs=pairs,
                           strategy=strategy, missing=missing)
