"""Dataset schema and the synthetic multilingual cipher benchmark.

The cipher generator renders the same underlying lemma sequences into
disjoint per-language surface forms (``w3`` -> ``w3§de``), so gold labels are
language-invariant by construction and cross-lingual transfer is measurable
without any real multilingual data.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

TASKS = ("classification", "span", "labeling")
CIPHER_SEP = "§"  # "§"
# joins an example id and a language into a translated view's id
CIPHER_ID_SEP = "@"

CLASSIFICATION_RULES = ("lemma_majority", "even_lemma_parity")


class SchemaError(ValueError):
    """A dataset record violates the task schema."""


@dataclass
class Example:
    """One task instance; ``words`` is the full model input.

    For span extraction the input is question words followed by context
    words and the answer indices address the full input.  ``label`` /
    ``tags`` / answer indices may be None for unlabeled examples
    (e.g. translations of token-level tasks).
    """

    id: str
    language: str
    task: str
    words: list
    label: int | None = None
    n_label: int | None = None
    question_len: int = 0
    answer_start: int | None = None
    answer_end: int | None = None
    tags: list | None = None

    @property
    def labeled(self):
        if self.task == "classification":
            return self.label is not None
        if self.task == "span":
            return self.answer_start is not None and self.answer_end is not None
        return self.tags is not None

    def with_words(self, words):
        """This example with ``words`` in place of its words: a shallow copy
        made without ``__init__``, for views that keep the word count."""
        view = object.__new__(type(self))
        view.__dict__.update(self.__dict__)
        view.words = words
        return view

    def gold(self):
        if self.task == "classification":
            return self.label
        if self.task == "span":
            return (self.answer_start, self.answer_end)
        return self.tags

    def validate(self):
        if self.task not in TASKS:
            raise SchemaError(f"example {self.id}: unknown task {self.task!r}")
        if CIPHER_ID_SEP in self.id:
            raise SchemaError(f"example {self.id}: {CIPHER_ID_SEP!r} in an id is reserved "
                              "for translated views")
        words = self.words
        if type(words) is not list or not words or any(type(w) is not str or not w
                                                        for w in words):
            raise SchemaError(f"example {self.id}: empty word list, empty word or "
                              "words of the wrong JSON type")
        if self.task == "classification" and self.labeled:
            if (type(self.label) is not int or type(self.n_label) is not int
                    or not 0 <= self.label < self.n_label):
                raise SchemaError(
                    f"example {self.id}: label {self.label!r} out of range for "
                    f"n_label {self.n_label!r}, or of the wrong JSON type"
                )
        if self.task == "span" and self.labeled:
            lo, hi = self.question_len, len(self.words) - 1
            if not (lo <= self.answer_start <= self.answer_end <= hi):
                raise SchemaError(
                    f"example {self.id}: span ({self.answer_start}, {self.answer_end}) "
                    f"outside context [{lo}, {hi}]"
                )
        if self.task == "labeling" and self.labeled:
            if len(self.tags) != len(self.words):
                raise SchemaError(
                    f"example {self.id}: {len(self.tags)} tags for {len(self.words)} words"
                )
            if type(self.n_label) is not int or any(type(t) is not int or not 0 <= t < self.n_label
                                                    for t in self.tags):
                raise SchemaError(f"example {self.id}: tag out of range for n_label "
                                  f"{self.n_label!r}, or of the wrong JSON type")
        return self


# ---------------------------------------------------------------------------
# JSON-lines I/O


def _example_from_record(record, task, lineno, path):
    try:
        if not isinstance(record, dict):
            raise SchemaError("a record must be a JSON object")
        if task == "classification":
            return Example(
                id=str(record["id"]),
                language=record["lang"],
                task=task,
                words=record["words"],
                label=record.get("label"),
                n_label=record.get("n_label"),
            ).validate()
        if task == "span":
            question, context = record["question"], record["context"]
            start, end = record.get("answer_start"), record.get("answer_end")
            if type(start) not in (int, type(None)) or type(end) not in (int, type(None)):
                raise TypeError(f"answer indices {start!r}, {end!r} must be integers")
            offset = len(question)
            return Example(
                id=str(record["id"]),
                language=record["lang"],
                task=task,
                words=question + context,
                question_len=offset,
                answer_start=None if start is None else offset + start,
                answer_end=None if end is None else offset + end,
            ).validate()
        return Example(
            id=str(record["id"]),
            language=record["lang"],
            task=task,
            words=record["words"],
            tags=record.get("tags"),
            n_label=record.get("n_label"),
        ).validate()
    except KeyError as missing:
        raise SchemaError(f"{path}:{lineno}: missing field {missing}") from None
    except SchemaError as err:
        raise SchemaError(f"{path}:{lineno}: {err}") from None
    except (TypeError, ValueError) as err:
        raise SchemaError(f"{path}:{lineno}: a field has the wrong JSON type ({err})") from None


def _loads_error(line):
    """The message ``json.loads`` rejects ``line`` with."""
    try:
        json.loads(line)
    except json.JSONDecodeError as err:
        return err.msg


def load_jsonl(path, task):
    """Read and validate one example per line; line numbers on every error.

    A stripped line has no surrounding whitespace for ``json.loads`` to skip,
    so ``raw_decode`` ending at the line's end accepts exactly the lines
    ``json.loads`` accepts; a rejected line gets ``json.loads``'s message.
    """
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}")
    decode = json.JSONDecoder().raw_decode
    corpus, first_line = [], {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                record, end = decode(line)
            except json.JSONDecodeError:
                end = None
            if end != len(line):   # not JSON, or trailing data
                raise SchemaError(f"{path}:{lineno}: invalid JSON ({_loads_error(line)})")
            ex = _example_from_record(record, task, lineno, path)
            if first_line.setdefault(ex.id, lineno) != lineno:
                raise SchemaError(f"{path}:{lineno}: repeats example id {ex.id!r} "
                                  f"from line {first_line[ex.id]}")
            corpus.append(ex)
    return corpus


def example_to_record(ex):
    if ex.task == "classification":
        return {"id": ex.id, "lang": ex.language, "words": ex.words,
                "label": ex.label, "n_label": ex.n_label}
    if ex.task == "span":
        q = ex.words[: ex.question_len]
        c = ex.words[ex.question_len:]
        rec = {"id": ex.id, "lang": ex.language, "question": q, "context": c}
        if ex.labeled:
            rec["answer_start"] = ex.answer_start - ex.question_len
            rec["answer_end"] = ex.answer_end - ex.question_len
        return rec
    return {"id": ex.id, "lang": ex.language, "words": ex.words,
            "tags": ex.tags, "n_label": ex.n_label}


def save_jsonl(examples, path):
    encode = json.JSONEncoder(sort_keys=True, ensure_ascii=False).encode
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(encode(example_to_record(ex)) + "\n" for ex in examples)


# ---------------------------------------------------------------------------
# Synthetic cipher benchmark


@dataclass
class SyntheticSpec:
    """Shape of a generated benchmark.

    The labeling rules are functions of lemma ids only, never of surface
    forms, which is what makes gold labels language-invariant.
    """

    task: str = "classification"
    languages: tuple = ("en", "xx", "yy", "zz")
    lemma_count: int = 24
    train_examples: int = 500
    eval_examples_per_language: int = 200
    sentence_len_range: tuple = (4, 8)
    n_tag: int = 3
    classification_rule: str = "lemma_majority"
    seed: int = 0

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        if len(self.languages) < 2:
            raise ValueError("need a source language plus at least one target")
        if len(set(self.languages)) != len(self.languages) or not all(self.languages):
            raise ValueError(f"languages must be distinct and non-empty, "
                             f"got {list(self.languages)}")
        for language in self.languages:
            check_language(language)
        if self.classification_rule not in CLASSIFICATION_RULES:
            raise ValueError(f"unknown classification rule {self.classification_rule!r}")
        # span sentences reserve lemma 0 as the question trigger
        least = 2 if self.task == "span" else 1
        if self.lemma_count < least:
            raise ValueError(f"lemma_count must be >= {least} for {self.task}, "
                             f"got {self.lemma_count}")
        for name in ("train_examples", "eval_examples_per_language", "n_tag"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        span = self.sentence_len_range
        if len(span) != 2 or not 1 <= span[0] <= span[1]:
            raise ValueError(f"sentence_len_range must be (lo, hi) with 1 <= lo <= hi, "
                             f"got {tuple(span)}")


def check_language(name):
    """``name``, if the written files round-trip it: no whitespace or
    non-printable character (one token of a dictionary or vocabulary line),
    no path separator (a file name) and no ``CIPHER_ID_SEP`` (a translated
    view's id); else a ValueError naming it."""
    bad = [ch for ch in name
           if ch.isspace() or not ch.isprintable() or ch in ("/", os.sep, CIPHER_ID_SEP)]
    if bad:
        raise ValueError(f"language {name!r} holds {bad[0]!r}, which written file names, "
                         "ids and lines cannot carry")
    return name


def surface(lemma_id, language, source_language):
    """Deterministic cipher: ``w3`` in the source, ``w3§xx`` elsewhere."""
    base = f"w{lemma_id}"
    return base if language == source_language else f"{base}{CIPHER_SEP}{language}"


def classification_label(lemmas, rule="lemma_majority", lemma_count=None):
    """Binary label computed from lemma ids.

    lemma_majority: 1 when lemmas from the upper half of the inventory
    outnumber those from the lower half.  even_lemma_parity: parity of the
    count of even-numbered lemmas.
    """
    if rule == "even_lemma_parity":
        return sum(1 for k in lemmas if k % 2 == 0) % 2
    upper = sum(1 for k in lemmas if k >= lemma_count // 2)
    return 1 if upper * 2 > len(lemmas) else 0


def labeling_tags(lemmas, n_tag):
    return [k % n_tag for k in lemmas]


@dataclass
class CipherBenchmark:
    spec: SyntheticSpec
    train: list                    # source-language training corpus
    eval_sets: dict                # language -> parallel eval corpus
    dictionaries: dict             # (src, tgt) -> BilingualDictionary
    store: "TranslationStore"      # translations of every training example
    words: list                    # surface inventory for vocab estimation


def _sample_lemma_sentence(spec, rng):
    lo, hi = spec.sentence_len_range
    length = int(rng.integers(lo, hi + 1))
    lemma_pool = spec.lemma_count
    if spec.task == "span":
        lemma_pool -= 1  # lemma 0 is reserved as the question trigger
        lemmas = [int(k) + 1 for k in rng.integers(0, lemma_pool, length)]
        pos = int(rng.integers(0, length))
        lemmas.insert(pos, 0)  # trigger; the following word is the answer
        return lemmas
    return [int(k) for k in rng.integers(0, lemma_pool, length)]


def _render(spec, lemmas, language, example_id, surfaces):
    """One sentence in ``language``, whose lemma -> surface list is ``surfaces``."""
    words = [surfaces[k] for k in lemmas]
    if spec.task == "span":   # the question is the trigger; the answer follows it
        answer = 1 + lemmas.index(0) + 1
        fields = dict(words=[surfaces[0]] + words, question_len=1, answer_start=answer,
                      answer_end=answer)
    elif spec.task == "classification":
        fields = dict(words=words, n_label=2, label=classification_label(
            lemmas, spec.classification_rule, spec.lemma_count))
    else:
        fields = dict(words=words, tags=labeling_tags(lemmas, spec.n_tag), n_label=spec.n_tag)
    return Example(id=example_id, language=language, task=spec.task, **fields).validate()


def generate_cipher_corpus(spec, rng):
    """Build train/eval corpora, exact dictionaries and a translation store.

    Eval sets are parallel: the same lemma sentences rendered in every
    language, so per-language scores are directly comparable.  The store
    holds exact translations of every training example (labels carried for
    classification only).
    """
    from .augment import BilingualDictionary, TranslationStore

    src = spec.languages[0]
    targets = list(spec.languages[1:])
    all_lemmas = range(spec.lemma_count)
    surfaces = {lang: [surface(k, lang, src) for k in all_lemmas] for lang in spec.languages}

    train = []
    store = TranslationStore()
    for i in range(spec.train_examples):
        lemmas = _sample_lemma_sentence(spec, rng)
        ex = _render(spec, lemmas, src, f"train-{i:05d}", surfaces[src])
        train.append(ex)
        for lang in targets:
            translated = _render(spec, lemmas, lang, ex.id, surfaces[lang])
            store.add(
                ex.id,
                lang,
                translated.words,
                label=translated.label if spec.task == "classification" else None,
            )

    eval_sets = {lang: [] for lang in spec.languages}
    for i in range(spec.eval_examples_per_language):
        lemmas = _sample_lemma_sentence(spec, rng)
        for lang in spec.languages:
            example_id = f"eval-{i:05d}-{lang}"
            eval_sets[lang].append(_render(spec, lemmas, lang, example_id, surfaces[lang]))

    dictionaries = {}
    for lang in targets:
        fwd = {surfaces[src][k]: [surfaces[lang][k]] for k in all_lemmas}
        rev = {surfaces[lang][k]: [surfaces[src][k]] for k in all_lemmas}
        dictionaries[(src, lang)] = BilingualDictionary(src, lang, fwd)
        dictionaries[(lang, src)] = BilingualDictionary(lang, src, rev)

    words = [surfaces[lang][k] for k in all_lemmas for lang in spec.languages]
    return CipherBenchmark(spec=spec, train=train, eval_sets=eval_sets,
                           dictionaries=dictionaries, store=store, words=words)
