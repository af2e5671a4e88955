"""Dataset schema and cipher benchmark tests."""

import dataclasses
import json
import random
import re

import numpy as np
import pytest

from xtune import data
from xtune.augment import BilingualDictionary

import reference as ref


def assert_same_columns(got, want):
    """``got`` and ``want`` are corpora of the same task with equal columns."""
    assert (got.task, got.ids, got.languages, got.words) == (
        want.task, want.ids, want.languages, want.words)
    for name in ("n_words", "question_len", "n_label", "has_gold", "golds"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


class TestJsonl:
    def test_classification_round_trip(self, tmp_path):
        ex = ref.Example(id="a", language="en", task="classification",
                          words=["w1", "w2"], label=1, n_label=2)
        path = tmp_path / "c.jsonl"
        data.save_jsonl(ref.corpus([ex]), path)
        back = ref.examples(data.load_jsonl(path, "classification"))
        assert len(back) == 1 and back[0] == ex

    def test_span_round_trip_offsets(self, tmp_path):
        ex = ref.Example(id="s", language="en", task="span",
                          words=["q", "a", "b", "c"], question_len=1,
                          answer_start=2, answer_end=3)
        path = tmp_path / "s.jsonl"
        data.save_jsonl(ref.corpus([ex]), path)
        back = ref.examples(data.load_jsonl(path, "span"))[0]
        assert back == ex

    def test_tag_count_mismatch_names_line(self, tmp_path):
        path = tmp_path / "l.jsonl"
        path.write_text(
            '{"id":"a","lang":"en","words":["x","y"],"tags":[0],"n_label":2}\n',
            encoding="utf-8")
        with pytest.raises(data.SchemaError, match=":1:.*1 tags for 2 words"):
            data.load_jsonl(path, "labeling")

    def test_invalid_json_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a"\nnot json\n', encoding="utf-8")
        with pytest.raises(data.SchemaError, match=":1:"):
            data.load_jsonl(path, "classification")

    @pytest.mark.parametrize("task,line,message", [
        ("classification", '[1]', "a record must be a JSON object"),
        ("classification", '"words"', "a record must be a JSON object"),
        ("classification", '{"id":"b","lang":"en","words":5,"label":1,"n_label":2}',
         "wrong JSON type"),
        ("classification", '{"id":"b","lang":"en","words":["x"],"label":"1","n_label":2}',
         "wrong JSON type"),
        ("labeling", '{"id":"b","lang":"en","words":["x"],"tags":["0"],"n_label":2}',
         "wrong JSON type"),
        ("span", '{"id":"b","lang":"en","question":5,"context":["a"]}', "wrong JSON type"),
        ("span", '{"id":"b","lang":"en","question":["q"],"context":["a"],"answer_start":"x",'
                 '"answer_end":0}', "wrong JSON type"),
        ("classification", '{"id":"b","lang":"en","words":"abc","label":1,"n_label":2}',
         "wrong JSON type"),
        ("classification", '{"id":"b","lang":"en","words":["x"],"label":1.5,"n_label":2}',
         "wrong JSON type"),
        ("span", '{"id":"b","lang":"en","question":["q"],"context":["a"],"answer_start":"1",'
                 '"answer_end":1}', "wrong JSON type"),
        ("labeling", '{"id":"b","lang":"en","words":["x","y"],"tags":[0,1.0],"n_label":2}',
         "wrong JSON type"),
    ])
    def test_wrong_json_type_names_line(self, task, line, message, tmp_path):
        good = ref.record(ref.Example(
            id="a", language="en", task=task, words=["q", "w"], label=0, n_label=2,
            tags=[0, 1], question_len=1, answer_start=1, answer_end=1))
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps(good) + "\n" + line + "\n", encoding="utf-8")
        with pytest.raises(data.SchemaError, match=f"t.jsonl:2: .*{message}"):
            data.load_jsonl(path, task)

    @pytest.mark.parametrize("line", [
        '{"id":"a"} {"id":"b"}', '{"id":"a"}{"id":"b"}', '{"id":"a"} x', '{"id":"a"},',
        '[1] 2', '"a" "b"', '{"id": "a"', 'not json', '\ufeff{"id":"a"}', '{"id":"a"}\x00',
    ])
    def test_rejected_lines_keep_the_json_loads_message(self, line, tmp_path):
        with pytest.raises(json.JSONDecodeError) as want:
            json.loads(line)
        path = tmp_path / "t.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(data.SchemaError) as got:
            data.load_jsonl(path, "classification")
        assert str(got.value) == f"{path}:1: invalid JSON ({want.value.msg})"

    def test_blank_lines_and_surrounding_whitespace_are_skipped(self, tmp_path):
        ex = ref.Example(id="a", language="en", task="classification",
                          words=["w1", "w2"], label=1, n_label=2)
        ex2 = dataclasses.replace(ex, id="b")
        line, line2 = (json.dumps(ref.record(e)) for e in (ex, ex2))
        path = tmp_path / "c.jsonl"
        path.write_text(f"\n  \t\n {line} \r\n\n\t{line2}\n\n", encoding="utf-8")
        assert ref.examples(data.load_jsonl(path, "classification")) == [ex, ex2]

    def test_repeated_id_names_both_lines(self, tmp_path):
        ex = ref.Example(id="a", language="en", task="classification",
                          words=["w1", "w2"], label=1, n_label=2)
        line = json.dumps(ref.record(ex))
        path = tmp_path / "c.jsonl"
        path.write_text(f"{line}\n{line}\n", encoding="utf-8")
        with pytest.raises(data.SchemaError) as err:
            data.load_jsonl(path, "classification")
        assert str(err.value) == f"{path}:2: repeats example id 'a' from line 1"

    def test_a_loaded_word_is_one_str_per_distinct_word(self, tmp_path):
        # a file repeats few words many times; the corpus keeps one object each
        path = tmp_path / "c.jsonl"
        path.write_text("".join(json.dumps({"id": f"e{k}", "lang": "en", "words": ["w1", "w2"] * 3,
                                            "label": 0, "n_label": 2}) + "\n" for k in range(4)),
                        encoding="utf-8")
        words = data.load_jsonl(path, "classification").words
        assert len(words) == 24 and len(set(map(id, words))) == 2

    def test_empty_file_empty_corpus(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text("", encoding="utf-8")
        assert ref.examples(data.load_jsonl(path, "classification")) == []

    @pytest.mark.parametrize("lang,message", [
        (5, "lang 5 is not a non-empty string"),
        ("", "lang '' is not a non-empty string"),
        (None, "lang None is not a non-empty string"),
        (["en"], "lang ['en'] is not a non-empty string"),
        ("e n", "language 'e n' holds ' ', which written file names, ids and lines cannot carry"),
        ("e@n", "language 'e@n' holds '@'"),
    ])
    def test_bad_lang_names_line(self, lang, message, tmp_path):
        good = {"id": "a", "lang": "en", "words": ["w1"], "label": 0, "n_label": 2}
        path = tmp_path / "t.jsonl"
        path.write_text(f"{json.dumps(good)}\n{json.dumps({**good, 'id': 'b', 'lang': lang})}\n",
                        encoding="utf-8")
        with pytest.raises(data.SchemaError, match=f"^{re.escape(f'{path}:2: {message}')}"):
            data.load_jsonl(path, "classification")

    def test_the_first_faulty_line_is_named(self, tmp_path):
        # a schema fault on line 2, a repeated id on line 3, invalid JSON on
        # line 4: each is named once the faults before it are mended
        good = {"id": "a", "lang": "en", "words": ["w1"], "label": 0, "n_label": 2}
        lines = [good, {**good, "id": "b", "label": 2}, good, "not json"]
        mends = [{**good, "id": "b"}, {**good, "id": "c"}, {**good, "id": "d"}]
        messages = ["example b: label 2 out of range for n_label 2, or of the wrong JSON type",
                    "repeats example id 'a' from line 1", "invalid JSON (Expecting value)"]
        path = tmp_path / "t.jsonl"
        for line, (mend, message) in enumerate(zip(mends, messages), start=2):
            path.write_text("".join((r if isinstance(r, str) else json.dumps(r)) + "\n"
                                    for r in lines), encoding="utf-8")
            with pytest.raises(data.SchemaError) as err:
                data.load_jsonl(path, "classification")
            assert str(err.value) == f"{path}:{line}: {message}"
            lines[line - 1] = mend
        path.write_text("".join(json.dumps(r) + "\n" for r in lines), encoding="utf-8")
        assert len(data.load_jsonl(path, "classification")) == 4

    def test_span_outside_context_rejected(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text(
            '{"id":"s","lang":"en","question":["q"],"context":["a"],'
            '"answer_start":0,"answer_end":5}\n', encoding="utf-8")
        with pytest.raises(data.SchemaError, match="outside context"):
            data.load_jsonl(path, "span")


def random_jsonl(rng, task, fault_rate):
    """The text of a JSON-lines file of ``task`` records, each field of the
    wrong type, missing or out of range at about ``fault_rate``."""
    odd = [5, 1.5, True, None, "s", "", [], {}, {"a": 1}, ["x"], [1], [""], -1, 0, 2]

    def maybe(value):
        return rng.choice(odd) if rng.random() < fault_rate else value

    lines = []
    for k in range(rng.randint(0, 12)):
        words = [f"w{rng.randint(0, 5)}" for _ in range(rng.randint(1, 4))]
        n_label = rng.randint(1, 4)
        record = {"id": rng.choice([f"e{k}", k, f"e{k}@x", "e0"] if rng.random() < fault_rate
                                   else [f"e{k}"]), "lang": "xx"}
        if task == "span":
            start = rng.randint(0, len(words) - 1)
            record.update(question=maybe(words[:rng.randint(0, 2)]), context=maybe(words),
                          answer_start=maybe(start),
                          answer_end=maybe(rng.randint(start, len(words) - 1)))
        else:
            record.update(words=maybe(words), n_label=maybe(n_label))
            gold = [maybe(rng.randint(0, n_label - 1)) for _ in words]
            if task == "classification":
                record["label"] = gold[0]
            else:
                record["tags"] = maybe(gold[:-1] if rng.random() < fault_rate else gold)
        for key in list(record):
            if rng.random() < fault_rate / 3:
                del record[key]
        line = json.dumps(maybe(record))
        lines.append(rng.choice(["", "not json", line + " x"]) if rng.random() < fault_rate / 3
                     else line)
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("task", data.TASKS)
def test_columns_match_the_per_record_reference(task, tmp_path):
    """On random files, faulty and not, the columnar loader names the line
    and gives the message the per-record reference does, or the same
    examples.  An unlabeled record's class count reads None unless it is a
    JSON integer (-1 reads None), and its lone answer index is dropped."""
    rng = random.Random(23)
    path = tmp_path / "t.jsonl"
    outcomes = set()
    for _ in range(300):
        path.write_text(random_jsonl(rng, task, rng.choice([0.01, 0.05, 0.2])), encoding="utf-8")
        try:
            want = [vars(ex) for ex in ref.load_jsonl_per_record(path, task)]
        except data.SchemaError as err:
            with pytest.raises(data.SchemaError) as got:
                data.load_jsonl(path, task)
            assert str(got.value) == str(err)
            outcomes.add(re.sub(r"^example [^:]*: |[^a-z ].*", "", str(err).split(": ", 1)[1]))
            continue
        for ex in want:
            if not (ex["label"] is not None or ex["tags"] is not None
                    or None not in (ex["answer_start"], ex["answer_end"])):
                ex["answer_start"] = ex["answer_end"] = None
                if type(ex["n_label"]) is not int or ex["n_label"] == -1:
                    ex["n_label"] = None
        assert [vars(ex) for ex in ref.examples(data.load_jsonl(path, task))] == want
        outcomes.add("loaded")
    assert len(outcomes) >= 8, outcomes   # loaded, and most rules broken first


@pytest.mark.parametrize("task", data.TASKS)
def test_json_records_check_back_into_the_same_columns(task, tmp_path):
    """On random files that load, labeled examples and not, a corpus's
    records give its columns back, written and read or checked directly."""
    rng = random.Random(29)
    path, out = tmp_path / "t.jsonl", tmp_path / "out.jsonl"
    unlabeled = 0
    for _ in range(400):
        path.write_text(random_jsonl(rng, task, rng.choice([0.05, 0.1, 0.2])), encoding="utf-8")
        try:
            corpus = data.load_jsonl(path, task)
        except data.SchemaError:
            continue
        unlabeled += int((~corpus.has_gold).sum())
        assert_same_columns(data.corpus_of(corpus.json_records(), task), corpus)
        data.save_jsonl(corpus, out)
        assert_same_columns(data.load_jsonl(out, task), corpus)
    assert unlabeled > 0


@pytest.mark.parametrize("task", data.TASKS)
def test_select_and_join_keep_each_example_whole(task, tmp_path):
    """On random files that load, ``select`` keeps the flagged examples and
    ``join`` appends one corpus's examples to another's, each example with
    its words, gold and counts: the columns equal the checked records'."""
    rng = random.Random(31)
    path = tmp_path / "t.jsonl"
    selected = 0
    for _ in range(100):
        path.write_text(random_jsonl(rng, task, rng.choice([0.0, 0.02, 0.05])), encoding="utf-8")
        try:
            corpus = data.load_jsonl(path, task)
        except data.SchemaError:
            continue
        keep = np.array([rng.random() < 0.5 for _ in range(len(corpus))], bool)
        records = corpus.json_records()
        kept, dropped = corpus.select(keep), corpus.select(~keep)
        assert_same_columns(kept, data.corpus_of(
            [r for r, flag in zip(records, keep.tolist()) if flag], task))
        assert_same_columns(kept.join(dropped), data.corpus_of(
            [r for flag in (True, False) for r, k in zip(records, keep.tolist()) if k == flag],
            task))
        assert_same_columns(kept.join(dropped).select(np.arange(len(corpus)) < len(kept)), kept)
        selected += 0 < len(kept) < len(corpus)
    assert selected > 20


@pytest.mark.parametrize("task", ["classification", "labeling"])
def test_json_records_keep_an_unlabeled_class_count(task):
    # -1 is also the column's mark for a count that is not a JSON integer
    records = [{"id": f"e{k}", "lang": "en", "words": ["w"], "n_label": n}
               for k, n in enumerate([0, -1, 3, None, "x"])]
    corpus = data.corpus_of(records, task)
    assert [r["n_label"] for r in corpus.json_records()] == [0, None, 3, None, None]
    assert_same_columns(data.corpus_of(corpus.json_records(), task), corpus)


class TestRules:
    def test_even_lemma_parity_example(self):
        # one even lemma (w2) among [w2, w3] -> label 1
        assert ref.classification_label([2, 3], rule="even_lemma_parity") == 1
        assert ref.classification_label([3, 5], rule="even_lemma_parity") == 0

    def test_surface_cipher(self):
        assert data.surface(3, "xx", "en") == "w3§xx"
        assert data.surface(7, "en", "en") == "w7"


class TestCipherBenchmark:
    def _spec(self, task="classification", **kw):
        defaults = dict(languages=("en", "xx", "yy"), lemma_count=12,
                        train_examples=40, eval_examples_per_language=25,
                        sentence_len_range=(3, 6), seed=1)
        defaults.update(kw)
        return data.SyntheticSpec(task=task, **defaults)

    def test_cipher_surfaces(self):
        bench = data.generate_cipher_corpus(self._spec(), np.random.default_rng(1))
        for ex in ref.examples(bench.eval_sets["xx"]):
            assert all(w.endswith("§xx") for w in ex.words)
        for ex in ref.examples(bench.train):
            assert all("§" not in w for w in ex.words)

    def test_labels_invariant_across_languages(self):
        for task in ("classification", "labeling", "span"):
            bench = data.generate_cipher_corpus(self._spec(task=task),
                                                np.random.default_rng(2))
            eval_sets = {lang: ref.examples(corpus) for lang, corpus in bench.eval_sets.items()}
            langs = list(eval_sets)
            for i in range(len(eval_sets[langs[0]])):
                golds = [eval_sets[lang][i].gold() for lang in langs]
                assert all(g == golds[0] for g in golds)

    def test_translations_match_store(self):
        bench = data.generate_cipher_corpus(self._spec(), np.random.default_rng(3))
        for ex in ref.examples(bench.train)[:10]:
            for lang in ("xx", "yy"):
                words, label = bench.store.get(ex.id, lang)
                assert label == ex.label
                assert len(words) == len(ex.words)
                # exact translations: same lemmas rendered in the target
                assert [w.split("§")[0] for w in words] == ex.words

    def test_dictionaries_round_trip(self):
        bench = data.generate_cipher_corpus(self._spec(), np.random.default_rng(4))
        fwd = bench.dictionaries[("en", "xx")]
        rev = bench.dictionaries[("xx", "en")]
        for word in list(fwd.entries)[:8]:
            target = fwd.translations(word)[0]
            assert rev.translations(target) == [word]

    def test_generation_deterministic(self):
        a = data.generate_cipher_corpus(self._spec(), np.random.default_rng(9))
        b = data.generate_cipher_corpus(self._spec(), np.random.default_rng(9))
        a, b = ref.examples(a.train), ref.examples(b.train)
        assert [e.words for e in a] == [e.words for e in b]
        assert [e.gold() for e in a] == [e.gold() for e in b]

    def test_span_answer_follows_trigger(self):
        bench = data.generate_cipher_corpus(self._spec(task="span"),
                                            np.random.default_rng(5))
        for ex in ref.examples(bench.train)[:10]:
            trigger = ex.words[0]  # question word == trigger surface
            ctx = ex.words[ex.question_len:]
            pos = ctx.index(trigger)
            assert ex.answer_start == ex.question_len + pos + 1
            assert ex.answer_start == ex.answer_end

    def test_word_inventory_covers_all_languages(self):
        bench = data.generate_cipher_corpus(self._spec(), np.random.default_rng(6))
        spec = bench.spec
        assert len(bench.words) == spec.lemma_count * len(spec.languages)

    @pytest.mark.parametrize("rule", data.CLASSIFICATION_RULES)
    @pytest.mark.parametrize("task", data.TASKS)
    def test_columns_match_the_per_sentence_reference(self, task, rule):
        # every example, label, tag and answer, and every store entry
        spec = self._spec(task=task, classification_rule=rule, n_tag=5,
                          languages=("en", 'x"y', "zé"))
        bench = data.generate_cipher_corpus(spec, np.random.default_rng(7))
        train, eval_sets, store = ref.generate_cipher_examples(spec, np.random.default_rng(7))
        assert ref.examples(bench.train) == train
        assert {lang: ref.examples(corpus) for lang, corpus in bench.eval_sets.items()} == eval_sets
        assert {(ex.id, lang): bench.store.get(ex.id, lang)
                for ex in train for lang in spec.languages[1:]} == store
        assert [bench.store.languages_for(ex.id) for ex in train] == [
            sorted(spec.languages[1:])] * len(train)

    @pytest.mark.parametrize("rule", data.CLASSIFICATION_RULES)
    @pytest.mark.parametrize("task", data.TASKS)
    def test_written_splits_load_as_the_generated_columns(self, task, rule, tmp_path):
        spec = self._spec(task=task, classification_rule=rule, n_tag=5)
        bench = data.generate_cipher_corpus(spec, np.random.default_rng(8))
        for name, corpus in [("train", bench.train), *bench.eval_sets.items()]:
            data.save_jsonl(corpus, tmp_path / f"{name}.jsonl")
            assert_same_columns(data.load_jsonl(tmp_path / f"{name}.jsonl", task), corpus)


class TestSpecValidation:
    @pytest.mark.parametrize("field,value", [
        ("languages", ("en", "en")),
        ("languages", ("en", "")),
        ("lemma_count", 0),
        ("lemma_count", -2),
        ("train_examples", 0),
        ("eval_examples_per_language", 0),
        ("n_tag", 0),
        ("seed", -1),
        ("sentence_len_range", (5, 2)),
        ("sentence_len_range", (0, 3)),
        ("sentence_len_range", (4,)),
    ])
    def test_bad_field_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            data.SyntheticSpec(task="labeling", **{field: value})

    # each name reaches a file name (eval.<lang>.jsonl), a translated view's id
    # (<id>@<lang>) and whitespace-split dictionary and vocabulary lines
    @pytest.mark.parametrize("name", ["x/y", "x@y", "x\ty", "x y", "x\ny", "x\x00y", "x\u00a0y"])
    def test_language_the_files_cannot_carry_rejected_by_name(self, name):
        with pytest.raises(ValueError, match=re.escape(f"language {name!r} holds")):
            data.SyntheticSpec(task="labeling", languages=("en", name))

    def test_span_needs_a_lemma_besides_the_trigger(self):
        data.SyntheticSpec(task="classification", lemma_count=1)
        with pytest.raises(ValueError, match="lemma_count must be >= 2 for span"):
            data.SyntheticSpec(task="span", lemma_count=1)
