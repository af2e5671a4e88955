"""Dataset schema and the synthetic multilingual cipher benchmark.

A dataset file holds one JSON record per line.  ``load_jsonl`` decodes a
file and ``corpus_of`` checks its records into a ``Corpus``: the examples as
columns (ids, languages, one flat word list with each example's word count,
class counts and gold arrays).  Each schema rule is one check over the whole
file, made on the records that pass the rules before it, so a file with
several faults names its first faulty line, as a line-by-line reader would.
Training, tokenizing, augmenting and scoring read the columns, with no
object per example.  ``save_jsonl`` checks the records it writes by the
same rules, so every file it writes loads.

The cipher generator renders one flat lemma array per split into disjoint
per-language surface forms (``w3`` -> ``w3§de``) and into gold labels, by
array rules over lemma ids only, so gold labels are language-invariant and
cross-lingual transfer is measurable without any real multilingual data.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from itertools import chain, compress, repeat
from operator import add, is_not, itemgetter

import numpy as np

TASKS = ("classification", "span", "labeling")
CIPHER_SEP = "§"  # "§"
# joins an example id and a language into a translated view's id
CIPHER_ID_SEP = "@"

CLASSIFICATION_RULES = ("lemma_majority", "even_lemma_parity")

# gold and class counts are int64 arrays: a labeled example's beyond them is out of range
INT_LIMIT = 2 ** 63


class SchemaError(ValueError):
    """A dataset record violates the task schema."""


@dataclass(eq=False)
class Corpus:
    """One task's examples as columns, in file order.

    Example k has id ``ids[k]``, language ``languages[k]`` and the
    ``n_words[k]`` words of ``words`` that follow the earlier examples'; a
    span input is its ``question_len[k]`` question words, then its context.
    ``n_label[k]`` is its class count, -1 where the record gives no JSON
    integer in int64 range.  Where ``has_gold[k]`` is set, ``golds`` holds
    its class (classification), a tag per word (labeling) or a (start, end)
    row of input word indices (span); -1 elsewhere.
    """

    task: str
    ids: list
    languages: list
    words: list
    n_words: np.ndarray
    question_len: np.ndarray
    n_label: np.ndarray
    has_gold: np.ndarray
    golds: np.ndarray

    def __len__(self):
        return len(self.ids)

    def select(self, keep):
        """The examples where the bool array ``keep`` is set, in order."""
        words, flags = np.repeat(keep, self.n_words), keep.tolist()
        return Corpus(self.task, list(compress(self.ids, flags)),
                      list(compress(self.languages, flags)),
                      list(compress(self.words, words.tolist())), self.n_words[keep],
                      self.question_len[keep], self.n_label[keep], self.has_gold[keep],
                      self.golds[words if self.task == "labeling" else keep])

    def join(self, other):
        """This corpus's examples, then those of ``other``."""
        return Corpus(self.task, self.ids + other.ids, self.languages + other.languages,
                      self.words + other.words,
                      *(np.concatenate((getattr(self, name), getattr(other, name)))
                        for name in ("n_words", "question_len", "n_label", "has_gold", "golds")))

    def json_records(self):
        """Each example's JSON record, which ``corpus_of`` checks back into
        these columns."""
        words, gold = cut(self.words, self.n_words), self.golds.tolist()
        if self.task == "span":
            records = [{"id": i, "lang": lang, "question": w[:q], "context": w[q:],
                        "answer_start": start - q, "answer_end": end - q}
                       for i, lang, w, q, (start, end) in zip(
                           self.ids, self.languages, words, self.question_len.tolist(), gold)]
        else:
            key = "label" if self.task == "classification" else "tags"
            gold = cut(gold, self.n_words) if self.task == "labeling" else gold
            records = [{"id": i, "lang": lang, "words": w, key: g, "n_label": n}
                       for i, lang, w, g, n in zip(
                           self.ids, self.languages, words, gold, self.n_label.tolist())]
        for record in map(records.__getitem__, np.flatnonzero(~self.has_gold).tolist()):
            if self.task == "span":
                del record["answer_start"], record["answer_end"]
            else:   # only an unlabeled example's class count can be -1
                record[key] = None
                record["n_label"] = None if record["n_label"] == -1 else record["n_label"]
        return records


def cut(flat, n_words):
    """``flat`` cut into consecutive lists of ``n_words`` items."""
    ends = np.cumsum(n_words).tolist()
    return list(map(flat.__getitem__, map(slice, [0] + ends, ends)))


# ---------------------------------------------------------------------------
# JSON-lines I/O and the schema rules


def _ints(values):
    """The mask of the JSON integers among ``values`` that fit an int64, and
    ``values`` as an int64 array with -1 in place of the others."""
    if set(map(type, values)) <= {int}:
        try:
            return np.ones(len(values), bool), np.fromiter(values, np.int64, len(values))
        except OverflowError:
            pass
    ok = [type(v) is int and -INT_LIMIT <= v < INT_LIMIT for v in values]
    return np.array(ok, bool), np.array([v if fits else -1 for v, fits in zip(values, ok)],
                                        np.int64)


def _given(values):
    """Whether each value is not None."""
    return np.fromiter(map(is_not, values, repeat(None)), bool, len(values))


def per_sequence(values, n_words):
    """The sum of a flat word array's ``values`` (counts or flags) over each
    sequence of ``n_words`` words: sequence k holds the next ``n_words[k]``."""
    seen = np.concatenate(([0], np.cumsum(values, dtype=np.intp)))
    ends = np.cumsum(n_words)
    return seen[ends] - seen[ends - n_words]


def _type_error(op, *fields):
    """The message of a record whose ``fields`` ``op`` rejects with a TypeError."""
    try:
        op(*fields)
    except TypeError as err:
        return f"a field has the wrong JSON type ({err})"


SIZED = {list, str, dict}   # the JSON types ``len`` takes


def corpus_of(records, task, source="<records>", lines=None):
    """The ``Corpus`` of ``records``, one task's JSON values from the lines
    ``lines`` (default 1, 2, ...) of ``source``.  Each rule looks at the
    ``n`` leading records that pass the rules before it, most through the
    set of their field's types first, so the fault kept is the first in
    record order, then in rule order; it raises a SchemaError naming its
    line."""
    n, fault, lines = len(records), None, lines or range(1, len(records) + 1)

    def flag(bad, message):
        nonlocal n, fault
        if True in bad[:n]:
            n = int(np.argmax(bad[:n]))
            fault = message(n)

    def typed(values, kinds, message):   # each value's type is one of ``kinds``
        if not set(map(type, values[:n])) <= kinds:
            flag([type(v) not in kinds for v in values], message)

    def field(key):
        try:
            return list(map(itemgetter(key), records[:n]))
        except KeyError:
            flag([key not in r for r in records[:n]], lambda k: f"missing field {key!r}")
            return list(map(itemgetter(key), records[:n]))

    def optional(key):
        return [r.get(key) for r in records[:n]]

    typed(records, {dict}, lambda k: "a record must be a JSON object")
    if task == "span":
        questions, contexts = field("question"), field("context")
        starts, ends = optional("answer_start"), optional("answer_end")
        if not set(map(type, starts + ends)) <= {int, type(None)}:
            flag([not {type(s), type(e)} <= {int, type(None)} for s, e in zip(starts, ends)],
                 lambda k: (f"a field has the wrong JSON type (answer indices {starts[k]!r}, "
                            f"{ends[k]!r} must be integers)"))
        typed(questions, SIZED, lambda k: _type_error(len, questions[k]))
    ids, languages = list(map(str, field("id"))), field("lang")
    if task == "span":
        if set(map(type, questions[:n] + contexts[:n])) - {list}:
            flag([type(q) is not type(c) or type(q) is dict for q, c in zip(questions, contexts)],
                 lambda k: _type_error(add, questions[k], contexts[k]))
        words = list(map(add, questions[:n], contexts))
    else:
        words = field("words")
    if CIPHER_ID_SEP in "".join(ids[:n]):
        flag([CIPHER_ID_SEP in i for i in ids],
             lambda k: (f"example {ids[k]}: {CIPHER_ID_SEP!r} in an id is reserved for "
                        "translated views"))

    def wrong_words(k):
        return f"example {ids[k]}: empty word list, empty word or words of the wrong JSON type"

    typed(words, {list}, wrong_words)
    n_words = np.fromiter(map(len, words[:n]), np.intp, n)
    flat = list(chain.from_iterable(words[:n]))
    bad_word = ([] if set(map(type, flat)) <= {str} and all(flat)
                else [type(w) is not str or not w for w in flat])
    flag((n_words == 0) | (per_sequence(bad_word or np.zeros(len(flat), bool), n_words) > 0),
         wrong_words)
    n_words = n_words[:n]
    if task == "span":
        question_len = np.fromiter(map(len, questions[:n]), np.intp, n)
        has_gold = _given(starts[:n]) & _given(ends[:n])
        (start_ok, start), (end_ok, end) = _ints(starts[:n]), _ints(ends[:n])
        flag(has_gold & ~(start_ok & end_ok & (start >= 0) & (start <= end)
                          & (end < n_words - question_len)),
             lambda k: (f"example {ids[k]}: span ({int(question_len[k]) + starts[k]}, "
                        f"{int(question_len[k]) + ends[k]}) outside context "
                        f"[{question_len[k]}, {n_words[k] - 1}]"))
        golds = np.where(has_gold[:, None], np.stack([start, end], 1) + question_len[:, None], -1)
        n_label = np.full(n, -1, np.int64)
    else:   # a class per example, or a tag per word
        question_len, counts = np.zeros(n, np.intp), optional("n_label")
        count_ok, n_label = _ints(counts)
        gold = optional("label" if task == "classification" else "tags")
        has_gold, sizes = _given(gold), np.ones(n, np.intp)
        if task == "labeling":
            typed(gold, SIZED | {type(None)}, lambda k: _type_error(len, gold[k]))
            flag([t is not None and len(t) != m for t, m in zip(gold[:n], n_words.tolist())],
                 lambda k: f"example {ids[k]}: {len(gold[k])} tags for {n_words[k]} words")
            sizes = n_words[:n]
            gold = list(chain.from_iterable(repeat(-1, m) if t is None else t
                                            for t, m in zip(gold[:n], sizes.tolist())))
        gold_ok, golds = _ints(gold[:sizes[:n].sum()])
        bad = ~gold_ok | (golds < 0) | (golds >= np.repeat(n_label[:n], sizes[:n]))
        flag(has_gold[:n] & (~count_ok[:n] | (per_sequence(bad, sizes[:n]) > 0)),
             lambda k: (f"example {ids[k]}: "
                        f"{'tag' if task == 'labeling' else f'label {gold[k]!r}'} out of range "
                        f"for n_label {counts[k]!r}, or of the wrong JSON type"))
    typed(languages, {str}, lambda k: f"lang {languages[k]!r} is not a non-empty string")
    refused = {"": "lang '' is not a non-empty string"}
    for name in dict.fromkeys(languages[:n]):   # a file holds few distinct names
        try:
            check_language(name)
        except ValueError as err:
            refused[name] = str(err)
    flag([name in refused for name in languages[:n]], lambda k: refused[languages[k]])
    if len(set(ids[:n])) < n:
        first = {}
        flag([first.setdefault(i, k) != k for k, i in enumerate(ids[:n])],
             lambda k: f"repeats example id {ids[k]!r} from line {lines[first[ids[k]]]}")
    if fault is not None:
        raise SchemaError(f"{source}:{lines[n]}: {fault}")
    return Corpus(task, ids, languages, flat, n_words, question_len, n_label, has_gold, golds)


def _loads_error(line):
    """The message ``json.loads`` rejects ``line`` with."""
    try:
        json.loads(line)
    except json.JSONDecodeError as err:
        return err.msg


def load_jsonl(path, task):
    """The checked ``Corpus`` of a file of one JSON record per line; a fault
    raises a SchemaError naming the file and its first faulty line.

    A stripped line has no surrounding whitespace for ``json.loads`` to skip,
    so ``raw_decode`` ending at the line's end accepts exactly the lines
    ``json.loads`` accepts; a rejected line gets ``json.loads``'s message,
    once no record before it has a fault.
    """
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}")
    decode = json.JSONDecoder().raw_decode
    records, lines, broken = [], [], None
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
                broken = f"{path}:{lineno}: invalid JSON ({_loads_error(line)})"
                break
            records.append(record)
            lines.append(lineno)
    corpus = corpus_of(records, task, path, lines)
    if broken:
        raise SchemaError(broken)
    memo = {}   # one str per distinct word, not one per occurrence
    corpus.words = list(map(memo.setdefault, corpus.words, corpus.words))
    return corpus


def save_jsonl(corpus, path):
    """Write one record per example of ``corpus``, checked first by the rules
    ``load_jsonl`` applies, so that the file loads."""
    records = corpus.json_records()
    corpus_of(records, corpus.task, path)
    encode = json.JSONEncoder(sort_keys=True, ensure_ascii=False).encode
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join([encode(record) + "\n" for record in records]))


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
        check_languages(self.languages, "languages")
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


def check_languages(names, what):
    """``names`` as a tuple, if they are distinct and non-empty and
    ``check_language`` accepts each; else a ValueError naming ``what``."""
    if len(set(names)) != len(names) or not all(names):
        raise ValueError(f"{what} must be distinct and non-empty, got {list(names)}")
    try:
        return tuple(map(check_language, names))
    except ValueError as err:
        raise ValueError(f"{what}: {err}") from None


def surface(lemma_id, language, source_language):
    """Deterministic cipher: ``w3`` in the source, ``w3§xx`` elsewhere."""
    base = f"w{lemma_id}"
    return base if language == source_language else f"{base}{CIPHER_SEP}{language}"


@dataclass
class CipherBenchmark:
    """A generated benchmark; its splits are ``Corpus`` columns."""

    spec: SyntheticSpec
    train: Corpus                  # source-language training corpus
    eval_sets: dict                # language -> parallel eval Corpus
    dictionaries: dict             # (src, tgt) -> BilingualDictionary
    store: "TranslationStore"      # translations of every training example
    words: list                    # surface inventory for vocab estimation


def _sample_lemma_sentence(spec, rng):
    """One input's lemmas; a span input is the trigger 0, then a context holding it once."""
    lo, hi = spec.sentence_len_range
    length = int(rng.integers(lo, hi + 1))
    if spec.task != "span":
        return rng.integers(0, spec.lemma_count, length).tolist()
    lemmas = (rng.integers(0, spec.lemma_count - 1, length) + 1).tolist()
    lemmas.insert(int(rng.integers(0, length)), 0)
    return [0] + lemmas


def _render_split(spec, sentences, surfaces, ids):
    """``sentences`` as one ``Corpus`` per language of ``surfaces``, whose
    examples in language ``lang`` are named ``ids(lang)``."""
    flat, n = list(chain.from_iterable(sentences)), len(sentences)
    lemmas, n_words = np.array(flat), np.fromiter(map(len, sentences), np.intp, n)
    question_len, n_label = np.zeros(n, np.intp), np.full(n, 2)
    if spec.task == "span":   # the answer follows the context's trigger
        answer = np.flatnonzero(lemmas == 0)[1::2] - (np.cumsum(n_words) - n_words) + 1
        question_len, n_label = np.ones(n, np.intp), np.full(n, -1)
        golds = np.stack([answer, answer], 1)
    elif spec.task == "labeling":
        n_label, golds = np.full(n, spec.n_tag), lemmas % spec.n_tag
    elif spec.classification_rule == "even_lemma_parity":
        golds = per_sequence(lemmas % 2 == 0, n_words) % 2
    else:   # 1 when lemmas of the inventory's upper half are the majority
        golds = (per_sequence(lemmas >= spec.lemma_count // 2, n_words) * 2 > n_words) * 1
    return {lang: Corpus(spec.task, ids(lang), [lang] * n, list(map(forms.__getitem__, flat)),
                         n_words, question_len, n_label, np.ones(n, bool), golds)
            for lang, forms in surfaces.items()}


def generate_cipher_corpus(spec, rng):
    """Build train/eval corpora, exact dictionaries and a translation store.

    Eval sets are parallel: the same lemma sentences rendered in every
    language, so per-language scores are directly comparable.  The store
    holds exact translations of every training example (labels carried for
    classification only).
    """
    from .augment import BilingualDictionary, TranslationStore

    src, targets = spec.languages[0], spec.languages[1:]
    all_lemmas = range(spec.lemma_count)
    surfaces = {lang: [surface(k, lang, src) for k in all_lemmas] for lang in spec.languages}
    n_train, n_eval = spec.train_examples, spec.eval_examples_per_language
    sentences = [_sample_lemma_sentence(spec, rng) for _ in range(n_train + n_eval)]
    train_ids = [f"train-{i:05d}" for i in range(n_train)]
    train = _render_split(spec, sentences[:n_train], surfaces, lambda lang: train_ids)
    eval_sets = _render_split(spec, sentences[n_train:], surfaces,
                              lambda lang: [f"eval-{i:05d}-{lang}" for i in range(n_eval)])

    store = TranslationStore()
    for lang in targets:   # the target-language renderings of the training split
        corpus = train[lang]
        labels = corpus.golds.tolist() if spec.task == "classification" else repeat(None)
        for example_id, words, label in zip(train_ids, cut(corpus.words, corpus.n_words), labels):
            store.add(example_id, lang, words, label=label)

    dictionaries = {}
    for lang in targets:
        fwd = {surfaces[src][k]: [surfaces[lang][k]] for k in all_lemmas}
        rev = {surfaces[lang][k]: [surfaces[src][k]] for k in all_lemmas}
        dictionaries[(src, lang)] = BilingualDictionary(fwd)
        dictionaries[(lang, src)] = BilingualDictionary(rev)

    words = [surfaces[lang][k] for k in all_lemmas for lang in spec.languages]
    return CipherBenchmark(spec=spec, train=train[src], eval_sets=eval_sets,
                           dictionaries=dictionaries, store=store, words=words)
