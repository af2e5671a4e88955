"""Data augmentation strategies and the augmented-corpus builder.

Four strategies share one interface: subword resampling (SS), Gaussian
embedding noise (GN, applied at encode time), code-switch substitution from
bilingual dictionaries (CS), and translation from a prebuilt store (MT).
Every view is word-for-word except a translation: word w of the view stands
for word w of its original.  A view records which words it modified, so the
pair-consistency loss can restrict itself to unchanged positions.

A strategy is drawn from ``(kind, cfg, res, rng)``: its knobs are the
training config's ``ss_alpha``, ``cs_word_ratio`` and ``mt_languages``, and
its inputs the run's ``Resources`` (vocabulary, code-switch candidates and
translation store).  ``build_augmented_corpus`` draws a stage's corpus and
the trainer's ``_epoch_views`` its pair views from the same four.

``subword_resample`` and ``code_switch`` take the word types of a flat
token list and draw the views of all its tokens in one batched call: one
lockstep FFBS draw, or one uniform block for the switch, dictionary and
option picks.  They return a draw id or a dictionary option (-1: kept) per
token, which ``RecordTable.drawn`` and ``SwitchCandidates.view`` map to
records and words: the trainer's pair views keep record ids, and the corpus
builder keeps the drawn words as columns of a ``data.Corpus``.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import compress

import numpy as np

from . import tokenizer as tok
from .data import CIPHER_ID_SEP, Corpus, check_language
from .model import RecordTable, name_uncovered

log = logging.getLogger(__name__)

STRATEGY_KINDS = ("SS", "GN", "CS", "MT")


class StrategyError(ValueError):
    """Strategy is not applicable to this task or loss."""


class DictionaryFormatError(ValueError):
    """Malformed bilingual dictionary file."""


@dataclass
class BilingualDictionary:
    """Word translations with case-normalized (casefold) lookups."""

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

    def translations(self, word):
        return self.entries[word.casefold()]

    @property
    def n_words(self):
        return len(self.entries)

    @property
    def n_pairs(self):
        return sum(len(v) for v in self.entries.values())


def load_dictionary(path):
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
        log.warning("dictionary %s is empty", path)
        return BilingualDictionary({})
    d = BilingualDictionary(entries)
    log.info("loaded %s: %d words, %d pairs from %d lines", path, d.n_words, d.n_pairs, n_lines)
    return d


class TranslationStore:
    """(example id, language) -> translated words, plus the label when it
    survives translation (classification only)."""

    def __init__(self):
        self._entries = {}
        self._languages = {}
        self.path, self._lines = None, {}   # a loaded store's file and each record's line

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

    def origin(self, example_id, language):
        """``"path:line: "`` of a loaded record, else nothing."""
        line = self._lines.get((example_id, language))
        return f"{self.path}:{line}: " if line else ""

    def save(self, path):
        encode = json.JSONEncoder(sort_keys=True, ensure_ascii=False).encode
        with open(path, "w", encoding="utf-8") as fh:
            for (eid, lang), (words, label) in sorted(self._entries.items()):
                rec = {"example_id": eid, "lang": lang, "words": words}
                if label is not None:
                    rec["label"] = label
                fh.write(encode(rec) + "\n")

    @classmethod
    def load(cls, path):
        """Read a store; a bad or repeated (example id, lang) record, or a lang
        ``data.check_language`` refuses, names ``path:line``."""
        store = cls()
        store.path = path
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                    if not isinstance(rec, dict):
                        raise TypeError("not a JSON object")
                    eid, lang, words, label = (rec["example_id"], rec["lang"], rec["words"],
                                               rec.get("label"))
                    texts = [eid, lang] + (words if type(words) is list and words else [None])
                    if type(label) not in (int, type(None)) or not all(
                            type(t) is str and t for t in texts):
                        raise TypeError("example_id and lang must be non-empty strings, words a "
                                        "non-empty list of them and label an integer or null")
                    check_language(lang)
                except (ValueError, KeyError, TypeError) as err:   # JSONDecodeError is a ValueError
                    raise DictionaryFormatError(f"{path}:{lineno}: bad store record ({err})") from None
                if store._lines.setdefault((eid, lang), lineno) != lineno:
                    raise DictionaryFormatError(
                        f"{path}:{lineno}: repeats the record of example {eid!r} in {lang!r} "
                        f"from line {store._lines[eid, lang]}")
                store.add(eid, lang, words, label)
        return store


# ---------------------------------------------------------------------------
# The four augmenters


class SwitchCandidates:
    """The code-switch candidates of a dictionary list, as flat arrays.

    Casefolded word k is listed by ``n_dicts[k]`` dictionaries, in
    dictionary order; their option lists are rows ``first_dict[k]`` on, and
    row r holds ``n_options[r]`` translations from
    ``options[first_option[r]]`` on.  A word no dictionary lists has the last
    type, which has no dictionary.
    """

    def __init__(self, dictionaries):
        if not dictionaries:
            raise StrategyError("code_switch needs at least one dictionary")
        lists = {}
        for d in dictionaries:
            for key, options in d.entries.items():
                lists.setdefault(key, []).append(options)
        self.index = {key: k for k, key in enumerate(lists)}
        self.n_dicts = np.array([len(v) for v in lists.values()] + [0], dtype=np.intp)
        self.first_dict = np.cumsum(self.n_dicts) - self.n_dicts
        rows = [options for v in lists.values() for options in v]
        self.n_options = np.array([len(options) for options in rows], dtype=np.intp)
        self.first_option = np.cumsum(self.n_options) - self.n_options
        self.options = [t for options in rows for t in options]
        self._types = {}   # surface word -> type, on first sight

    def types(self, words):
        """The type of each word."""
        types = self._types
        for w in dict.fromkeys(w for w in words if w not in types):
            types[w] = self.index.get(w.casefold(), len(self.index))
        return np.fromiter(map(types.__getitem__, words), dtype=np.intp, count=len(words))

    def view(self, words, option):
        """``words`` with each word whose ``option`` is not -1 replaced by that option."""
        return [w if o < 0 else self.options[o] for w, o in zip(words, option.tolist())]


def code_switch(types, candidates, word_ratio, rng):
    """A code-switched view of a flat token list of ``candidates`` types (a
    ``SwitchCandidates``' ``types``): each word is replaced by a dictionary
    translation independently with probability ``word_ratio``; words absent
    from all dictionaries are kept.  Returns each token's option, its
    replacement's index in ``candidates.options``, or -1 for a kept word.

    The draws for all tokens are one ``rng.random((tokens, 3))`` block: token
    t switches when ``u[t, 0] < word_ratio`` and some dictionary lists it,
    and then takes dictionary ``floor(u[t, 1] * n)`` of the n that list it and
    option ``floor(u[t, 2] * m)`` of that dictionary's m (uniform up to
    2**-53).  The replacement language is drawn per word, so a view can mix
    several target languages.  Labels carry over unchanged (word-for-word
    substitution keeps per-word tags and span indices valid).
    """
    u = rng.random((types.size, 3))
    switched = np.flatnonzero((u[:, 0] < word_ratio) & (candidates.n_dicts[types] > 0))
    covered = types[switched]
    row = candidates.first_dict[covered] + (
        u[switched, 1] * candidates.n_dicts[covered]).astype(np.intp)
    option = np.full(types.size, -1)
    option[switched] = candidates.first_option[row] + (
        u[switched, 2] * candidates.n_options[row]).astype(np.intp)
    return option


def subword_resample(types, vocab, alpha, rng):
    """A fresh segmentation of a flat token list of ``vocab.sampler(alpha)``
    types: one ``sample_segment_words`` call, a draw id per token."""
    return tok.sample_segment_words(vocab, types, alpha, rng)


def resample_words(corpus, vocab, alpha, rng):
    """The SS views of a corpus's flat words, drawn as the trainer draws
    them: ``subword_resample`` over the words' sampler types, each draw's
    record from a ``RecordTable``.  Returns the drawn records and the
    modified flags (a bool array) of the words whose record is not
    Viterbi's; an uncovered character raises ``name_uncovered``'s error,
    naming its example."""
    words, sampler = corpus.words, vocab.sampler(alpha)
    try:
        types = sampler.type_ids(words)
    except tok.CoverageError as err:
        raise name_uncovered(vocab, words, corpus.n_words,
                             lambda k: f"example {corpus.ids[k]!r}", err) from None
    table = RecordTable(vocab)
    rids = table.drawn(sampler, subword_resample(types, vocab, alpha, rng))
    modified = rids != table.intern(tok.viterbi_segment_words(vocab, words).words)
    return list(map(table.records.__getitem__, rids.tolist())), modified


def translation_views(corpus, store, languages):
    """The views of ``corpus`` in each of ``languages`` that ``store``
    holds, as a ``Corpus`` in (example, language) order, and the (example
    id, language) pairs it lacks.  A view's id is its example's, then
    ``CIPHER_ID_SEP`` and its language; it keeps its example's question
    length and class count.  Only a classification view keeps the store's
    label, which must be one of those classes."""
    source, langs, words, n_words, labels, missing = [], [], [], [], [], []
    for k, example_id in enumerate(corpus.ids):
        for lang in languages:
            entry = store.get(example_id, lang)
            if entry is None:
                log.warning("no translation of %s into %s; skipping", example_id, lang)
                missing.append((example_id, lang))
                continue
            source.append(k)
            langs.append(lang)
            words += entry[0]
            n_words.append(len(entry[0]))
            labels.append(entry[1] if corpus.task == "classification" else None)
    source = np.array(source, np.intp)
    n_label = corpus.n_label[source]
    for k, (label, count) in enumerate(zip(labels, n_label.tolist())):
        if label is not None and not 0 <= label < count:
            example_id = corpus.ids[source[k]]
            raise ValueError(f"{store.origin(example_id, langs[k])}translation of example "
                             f"{example_id!r} into {langs[k]!r}: label {label} out of range for "
                             f"n_label {count if count >= 0 else None}")
    has_gold = np.array([label is not None for label in labels], bool)
    if corpus.task == "classification":
        golds = np.array([-1 if label is None else label for label in labels], np.int64)
    else:   # token-level labels cannot be projected across languages
        golds = np.full((len(labels), 2) if corpus.task == "span" else len(words), -1)
    ids = [f"{corpus.ids[k]}{CIPHER_ID_SEP}{lang}" for k, lang in zip(source.tolist(), langs)]
    return Corpus(corpus.task, ids, langs, words, np.array(n_words, np.intp),
                  corpus.question_len[source], n_label, has_gold, golds), missing


def base_id(example_id):
    """Original example id for a translated view id."""
    return example_id.split(CIPHER_ID_SEP, 1)[0]


# ---------------------------------------------------------------------------
# Strategy validation (which augmentation may feed the pair loss)


def validate_strategy(task, kind):
    """Reject a strategy kind that cannot feed the pair-consistency loss.

    MT cannot feed it for span extraction or sequence labeling (the two
    output distributions cannot be aligned across a translation).
    Everything else is allowed.
    """
    if kind not in STRATEGY_KINDS:
        raise StrategyError(f"unknown strategy kind {kind!r}")
    if kind == "MT" and task in ("span", "labeling"):
        raise StrategyError(
            f"MT cannot be used for pair consistency on {task}: predicted "
            "distributions of a translation pair cannot be aligned"
        )


# ---------------------------------------------------------------------------
# Corpus construction


@dataclass
class Resources:
    """A run's shared immutable augmentation inputs."""

    vocab: tok.UnigramVocab
    dictionaries: list = field(default_factory=list)
    store: TranslationStore | None = None

    @cached_property
    def switch_candidates(self):
        """The dictionaries' code-switch candidates, built on first use."""
        return SwitchCandidates(self.dictionaries)


@dataclass
class StageCorpus:
    """A training stage's items: ``corpus`` holds the originals, then one
    view of each of ``strategy`` (one per original and language for MT;
    None: no views).  A view's original is the one whose id is
    ``base_id(view id)``.  The views' words, the corpus's last ones, have
    the flat ``modified`` flags and, for SS, the ``pinned`` drawn records;
    ``missing`` lists the (example id, language) pairs the store lacks.
    """

    corpus: Corpus
    strategy: str | None = None
    modified: np.ndarray = field(default_factory=lambda: np.zeros(0, bool))
    pinned: list = field(default_factory=list)
    missing: list = field(default_factory=list)

    def labeled(self):
        """The stage of the items with gold, whose views keep their columns."""
        keep = self.corpus.has_gold
        words = np.repeat(keep, self.corpus.n_words)[len(self.corpus.words) - self.modified.size:]
        return replace(self, corpus=self.corpus.select(keep), modified=self.modified[words],
                       pinned=list(compress(self.pinned, words.tolist())))


def build_augmented_corpus(corpus, kind, cfg, res, rng):
    """D_A = D plus exactly one ``kind`` augmentation per example (ratio
    1.0), drawn from ``cfg``'s knobs and ``res``'s inputs as the trainer's
    pair views are, as a ``StageCorpus``: CS, SS and GN views are their
    originals' columns with new words, MT views the store's translations
    (one per example and language of ``cfg.mt_languages``)."""
    if not len(corpus):
        raise ValueError("build_augmented_corpus: empty corpus")
    missing, pinned = [], []
    if kind == "CS":
        candidates = res.switch_candidates
        option = code_switch(candidates.types(corpus.words), candidates, cfg.cs_word_ratio, rng)
        views, modified = replace(corpus, words=candidates.view(corpus.words, option)), option >= 0
    elif kind == "SS":
        if res.vocab is None:
            raise StrategyError("SS corpus augmentation needs a vocabulary")
        pinned, modified = resample_words(corpus, res.vocab, cfg.ss_alpha, rng)
        views = corpus
    elif kind == "GN":   # text identical; noise of ``noise_sigma`` at encode time
        views, modified = corpus, np.zeros(len(corpus.words), bool)
    elif kind == "MT":
        if res.store is None or not cfg.mt_languages:
            raise StrategyError("MT corpus augmentation needs a store and target languages")
        views, missing = translation_views(corpus, res.store, cfg.mt_languages)
        modified = np.ones(len(views.words), bool)
    else:
        raise StrategyError(f"unknown strategy kind {kind!r}")
    return StageCorpus(corpus.join(views), kind, modified, pinned, missing)
