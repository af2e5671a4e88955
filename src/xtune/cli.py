"""Command-line operator surface.

Subcommands: synth, tokenize, augment, train, eval, gap, presets.  A single
JSON config file drives training; every flag given on the command line
overrides the file value.  Each run writes a manifest (config echo, seed,
input digests, loss traces) sufficient to reproduce it exactly.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

from . import augment as aug
from . import data
from . import evaluate as ev
from . import tokenizer as tok
from . import trainer
from .model import RecordTable, load_params, save_params


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _read_json(path):
    """A JSON file's value; a file that is not JSON raises a ValueError naming it."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise ValueError(f"{path}: invalid JSON ({err})") from None


def _read_meta(data_dir, task, whose):
    """The languages of a synth output directory, source first, from its
    ``meta.json``: at least two distinct names ``data.check_language``
    accepts.  Its ``spec.task`` must then be ``task``, the task of ``whose``
    (the config or the checkpoint)."""
    path = data_dir / "meta.json"
    meta = _read_json(path)
    languages = meta.get("languages") if isinstance(meta, dict) else None
    if not (isinstance(languages, list) and len(languages) >= 2
            and all(isinstance(lang, str) and lang for lang in languages)
            and len(set(languages)) == len(languages)):
        raise ValueError(f"{path}: 'languages' must be a list of at least two distinct "
                         f"non-empty strings, got {languages!r}")
    try:
        languages = [data.check_language(language) for language in languages]
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
    spec = meta.get("spec")
    data_task = spec.get("task") if isinstance(spec, dict) else None
    if data_task not in data.TASKS:
        raise ValueError(f"{path}: 'spec.task' must be one of {data.TASKS}, got {data_task!r}")
    if data_task != task:
        raise ValueError(f"{path}: the data's task {data_task!r} is not the {whose}'s task "
                         f"{task!r}")
    return languages


def _write_json(payload, path):
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True,
                                     ensure_ascii=False) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# synth


def cmd_synth(args):
    try:
        sentence_len = tuple(int(x) for x in args.sentence_len.split(","))
    except ValueError:
        raise ValueError(f"--sentence-len: expected 'lo,hi' integers, "
                         f"got {args.sentence_len!r}") from None
    spec = data.SyntheticSpec(
        task=args.task,
        languages=tuple(args.languages.split(",")),
        lemma_count=args.lemmas,
        train_examples=args.train_examples,
        eval_examples_per_language=args.eval_examples,
        sentence_len_range=sentence_len,
        n_tag=args.n_tag,
        classification_rule=args.rule,
        seed=args.seed,
    )
    rng = trainer.substream(spec.seed, "synth")
    bench = data.generate_cipher_corpus(spec, rng)
    vocab = tok.build_vocab_for_words(
        bench.words, args.vocab_size, max_piece_len=args.max_piece_len,
        em_iters=args.em_iters,
    )

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data.save_jsonl(bench.train, out / "train.jsonl")
    for lang, examples in bench.eval_sets.items():
        data.save_jsonl(examples, out / f"eval.{lang}.jsonl")
    for (src, tgt), dictionary in bench.dictionaries.items():
        with open(out / f"dict.{src}-{tgt}.txt", "w", encoding="utf-8") as fh:
            for word in sorted(dictionary.entries):
                for t in dictionary.translations(word):
                    fh.write(f"{word}\t{t}\n")
    bench.store.save(out / "translations.jsonl")
    tok.save_vocab(vocab, out / "vocab.tsv")

    meta = {
        "spec": {k: (list(v) if isinstance(v, tuple) else v)
                 for k, v in dataclasses.asdict(spec).items()},
        "languages": list(spec.languages),
        "vocab_size": len(vocab),
        "train_examples": len(bench.train),
        "eval_examples_per_language": spec.eval_examples_per_language,
    }
    _write_json(meta, out / "meta.json")
    print(f"wrote benchmark to {out} ({len(bench.train)} train examples, "
          f"{len(vocab)} vocab pieces)")
    return 0


# ---------------------------------------------------------------------------
# tokenize


def cmd_tokenize(args):
    vocab = tok.load_vocab(args.vocab)
    corpus = data.load_jsonl(args.input, args.task)
    try:
        if args.mode == "viterbi":
            table = RecordTable(vocab)
            rids = table.viterbi(corpus.words, corpus.n_words,
                                 lambda k: f"example {corpus.ids[k]!r}")
            records = list(map(table.records.__getitem__, rids.tolist()))
        else:
            records, _modified = aug.resample_words(corpus, vocab, args.alpha,
                                                    trainer.substream(args.seed, "tokenize"))
    except tok.CoverageError as err:
        raise ValueError(f"{args.input}: {err}") from None
    segs = list(map(tok.Segmentation, data.cut(records, corpus.n_words)))
    with open(args.output, "w", encoding="utf-8") as fh:
        for example_id, seg in zip(corpus.ids, segs):
            fh.write(json.dumps({"id": example_id, "pieces": seg.pieces,
                                 "word_index": seg.word_index},
                                ensure_ascii=False, sort_keys=True) + "\n")
    print(f"segmented {len(corpus)} examples into {sum(seg.n_pieces for seg in segs)} pieces "
          f"in {args.output}")
    return 0


# ---------------------------------------------------------------------------
# augment


def cmd_augment(args):
    knobs = {"--ratio": ("cs_word_ratio", args.ratio), "--alpha": ("ss_alpha", args.alpha),
             "--languages": ("mt_languages", args.languages.split(",") if args.languages else ())}
    for flag, (name, value) in knobs.items():   # one field at a time: an error names its flag
        try:
            trainer.TrainConfig(**{name: value})
        except ValueError as err:
            raise ValueError(f"{flag}: {err}") from None
    cfg = trainer.TrainConfig(task=args.task, **dict(knobs.values()))
    corpus = data.load_jsonl(args.input, args.task)
    if not len(corpus):
        raise ValueError(f"{args.input}: no example to augment")
    res = aug.Resources(vocab=tok.load_vocab(args.vocab) if args.vocab else None,
                        dictionaries=[aug.load_dictionary(p) for p in args.dict or []],
                        store=aug.TranslationStore.load(args.store) if args.store else None)
    rng = trainer.substream(args.seed, "augment")
    try:
        built = aug.build_augmented_corpus(corpus, args.strategy, cfg, res, rng)
    except tok.CoverageError as err:
        raise ValueError(f"{args.input}: {err}") from None

    n, records = len(corpus), built.corpus.json_records()
    view_words = built.corpus.n_words[n:]
    lines = [{"kind": "original", "record": record} for record in records[:n]]
    for record, labeled, modified in zip(records[n:], built.corpus.has_gold[n:].tolist(),
                                         data.cut(built.modified.tolist(), view_words)):
        lines.append({"kind": "augmented", "strategy": built.strategy,
                      "pair_of": aug.base_id(record["id"]), "label_available": labeled,
                      "modified": modified, "record": record})
    for line, part in zip(lines[n:], data.cut(built.pinned, view_words) if built.pinned else ()):
        line["pieces"] = tok.Segmentation(part).pieces
    with open(args.output, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(json.dumps(line, sort_keys=True, ensure_ascii=False) + "\n")
    print(f"wrote {len(records)} items ({len(records) - n} augmented, "
          f"{len(built.missing)} skipped) to {args.output}")
    return 0


# ---------------------------------------------------------------------------
# train


CONFIG_KEYS = {f.name: f for f in dataclasses.fields(trainer.TrainConfig)}


def _parse_override(key, raw):
    """Typed value of one ``--set KEY=VALUE``; an empty value means the default."""
    kind = CONFIG_KEYS[key].type if key in CONFIG_KEYS else "str"
    if raw == "":
        return None
    try:
        if kind in ("int", "int | None"):
            return int(raw)
        if kind == "float":
            return float(raw)
    except ValueError:
        raise ValueError(f"--set {key}: expected {kind}, got {raw!r}") from None
    if kind == "tuple":
        return tuple(x for x in raw.split(",") if x)
    return raw


# JSON types a config file may give for each TrainConfig field type
FILE_TYPES = {"int": int, "int | None": int, "float": (int, float), "str": str, "tuple": list}


def _check_file_types(path, raw):
    """Reject config-file values whose JSON type does not fit their field;
    null keeps the default, and unknown keys are reported after ``--set``."""
    for key, value in raw.items():
        field = CONFIG_KEYS.get(key)
        kind = "str" if key in ("data_dir", "preset") else field and field.type
        if value is None or kind is None:
            continue
        if (isinstance(value, bool) or not isinstance(value, FILE_TYPES[kind])
                or kind == "tuple" and not all(isinstance(x, str) for x in value)):
            expected = "a list of strings" if kind == "tuple" else kind
            raise ValueError(f"{path}: {key}: expected {expected}, got {value!r}")


def load_config(path, overrides=()):
    """The training config and data directory from a JSON file plus ``--set``
    overrides; a ``preset`` key starts from the published hyper-parameters."""
    raw = _read_json(path)
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: expected a JSON object")
    _check_file_types(path, raw)
    for item in overrides:
        key, _, value = item.partition("=")
        raw[key] = value if key in ("data_dir", "preset") else _parse_override(key, value)
    data_dir = raw.pop("data_dir", None)
    preset = raw.pop("preset", None)
    unknown = set(raw) - set(CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys {sorted(unknown)} (in {path} or --set)")
    if data_dir is None:
        raise ValueError(f"{path}: config needs a data_dir pointing at a synth output directory")
    raw = {k: v for k, v in raw.items() if v is not None}
    if preset:
        setting = raw.pop("setting", CONFIG_KEYS["setting"].default)
        return trainer.TrainConfig.from_preset(preset, setting, **raw), Path(data_dir)
    return trainer.TrainConfig(**raw), Path(data_dir)


def load_resources(data_dir, cfg):
    """Training examples, shared resources and input digests of a synth
    output directory; fills the config's data-derived defaults.  An
    ``n_label`` below the training data's raises a ValueError."""
    languages = _read_meta(data_dir, cfg.task, "config")
    vocab = tok.load_vocab(data_dir / "vocab.tsv")
    dictionaries = []
    src = languages[0]
    for tgt in languages[1:]:
        path = data_dir / f"dict.{src}-{tgt}.txt"
        if path.exists():
            dictionaries.append(aug.load_dictionary(path))
    store_path = data_dir / "translations.jsonl"
    store = aug.TranslationStore.load(store_path) if store_path.exists() else None
    train = data.load_jsonl(data_dir / "train.jsonl", cfg.task)
    n_label = int(train.n_label.max(initial=0)) or None
    cfg.n_label = cfg.n_label or n_label
    if n_label and cfg.n_label < n_label:
        raise ValueError(f"{data_dir / 'train.jsonl'}: n_label {cfg.n_label} is below the "
                         f"training data's {n_label}")
    if not cfg.mt_languages:
        cfg.mt_languages = tuple(languages[1:])
    digests = {p.name: _sha256(p) for p in sorted(data_dir.iterdir()) if p.is_file()}
    res = aug.Resources(vocab=vocab, dictionaries=dictionaries, store=store)
    return train, res, digests


def cmd_train(args):
    cfg, data_dir = load_config(args.config, args.set or [])
    train, res, digests = load_resources(data_dir, cfg)
    result = trainer.train_with_mode(args.mode, train, cfg, res, input_digests=digests)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_params(result.student, out / "student.ckpt")
    if result.teacher is not None:
        save_params(result.teacher, out / "teacher.ckpt")
    _write_json(result.manifest, out / "manifest.json")
    last = result.traces["stage2"][-1]
    print(f"mode={args.mode} final step {last['step']}: total={last['total']:.6f} "
          f"task={last['task']:.6f}")
    print(f"checkpoints and manifest written to {out}")
    return 0


# ---------------------------------------------------------------------------
# eval


def cmd_eval(args):
    params = load_params(args.checkpoint)
    if args.pooling:
        if params.task != "labeling":
            raise ValueError(f"--pooling applies to labeling checkpoints only, "
                             f"not to this {params.task} checkpoint")
        params.pooling = args.pooling
    data_dir = Path(args.data_dir)
    languages = _read_meta(data_dir, params.task, "checkpoint")
    vocab_path = data_dir / "vocab.tsv"
    vocab = tok.load_vocab(vocab_path)
    if len(vocab) != params.vocab_size:   # a same-sized vocabulary cannot be told apart
        raise ValueError(f"{args.checkpoint}: checkpoint of {params.vocab_size} pieces does not "
                         f"fit the {len(vocab)}-piece vocabulary {vocab_path}")
    paths = {lang: data_dir / f"eval.{lang}.jsonl" for lang in languages}
    eval_sets = {lang: data.load_jsonl(path, params.task) for lang, path in paths.items()}
    per_language = ev.evaluate_languages(params, eval_sets, vocab, sources=paths)
    rep = ev.report(per_language, languages[0], params.task)
    print(ev.format_report(rep))
    if args.out:
        _write_json(rep, args.out)
        print(f"report written to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# gap


def _report_value(path, obj, key, where="report"):
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"{path}: {where} is not a JSON object with a {key!r} key")
    return obj[key]


def cmd_gap(args):
    path = args.report
    rep = _read_json(path)
    if (task := _report_value(path, rep, "task")) not in data.TASKS:
        raise ValueError(f"{path}: 'task' must be one of {data.TASKS}, got {task!r}")
    metric = ev.primary_metric(task)
    source = args.source or _report_value(path, rep, "source_language")
    per_language = _report_value(path, rep, "per_language")
    _report_value(path, per_language, source, "per_language")
    scalar = {lang: _report_value(path, scores, metric, f"per_language[{lang!r}]")
              for lang, scores in per_language.items()}
    for lang, score in scalar.items():   # an int or a float within the float range, not a bool
        if type(score) not in (int, float) or not abs(score) <= sys.float_info.max:
            raise ValueError(f"{path}: per_language[{lang!r}][{metric!r}] must be a finite "
                             f"number, got {score!r}")
    try:
        gap = ev.transfer_gap(scalar, source)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
    payload = {"source_language": source, "per_language": scalar, "transfer_gap": gap}
    print(f"transfer gap: {gap:+.4f}")
    if args.out:
        _write_json(payload, args.out)
    return 0


# ---------------------------------------------------------------------------
# presets


def format_presets(dataset=None, setting=None):
    rows = []
    header = (f"{'dataset':<8} {'setting':<24} {'stage1':<7} {'corpus':<7} "
              f"{'pair':<5} {'example_weight':>14} {'model_weight':>13}")
    rows.append(header)
    for ds in trainer.PRESET_DATASETS:
        if dataset and ds != dataset:
            continue
        for st in trainer.SETTINGS:
            if setting and st != setting:
                continue
            stage1, corpus, pair, w1, w2 = trainer.PRESETS[(ds, st)]
            rows.append(f"{ds:<8} {st:<24} {stage1:<7} {corpus:<7} {pair:<5} "
                        f"{w1:>14.1f} {w2:>13.1f}")
    return "\n".join(rows)


def cmd_presets(args):
    setting = args.setting or CONFIG_KEYS["setting"].default
    if args.dataset and (args.dataset, setting) not in trainer.PRESETS:
        valid = ", ".join(trainer.PRESET_DATASETS)
        print(f"unknown preset dataset {args.dataset!r}; expected one of: {valid}",
              file=sys.stderr)
        return 2
    print(format_presets(args.dataset, args.setting))
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="xtune",
        description="Cross-lingual fine-tuning workbench with consistency regularization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic cipher benchmark")
    p.add_argument("--out", required=True)
    p.add_argument("--task", default="classification", choices=data.TASKS)
    p.add_argument("--languages", default="en,xx,yy,zz",
                   help="comma-separated; first is the source")
    p.add_argument("--lemmas", type=int, default=24)
    p.add_argument("--train-examples", type=int, default=500)
    p.add_argument("--eval-examples", type=int, default=200)
    p.add_argument("--sentence-len", default="4,8")
    p.add_argument("--n-tag", type=int, default=3)
    p.add_argument("--rule", default="lemma_majority", choices=data.CLASSIFICATION_RULES)
    p.add_argument("--vocab-size", type=int, default=220)
    p.add_argument("--max-piece-len", type=int, default=12)
    p.add_argument("--em-iters", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("tokenize", help="segment a corpus (viterbi or sampled)")
    p.add_argument("--vocab", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--task", default="classification", choices=data.TASKS)
    p.add_argument("--mode", default="viterbi", choices=("viterbi", "sample"))
    p.add_argument("--alpha", type=float, default=CONFIG_KEYS["ss_alpha"].default)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_tokenize)

    p = sub.add_parser("augment", help="materialize an augmented corpus")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--task", default="classification", choices=data.TASKS)
    p.add_argument("--strategy", required=True, choices=aug.STRATEGY_KINDS)
    p.add_argument("--vocab")
    p.add_argument("--dict", action="append", help="dictionary file (repeatable)")
    p.add_argument("--store")
    p.add_argument("--languages", help="MT target languages, comma-separated: sets "
                                        "TrainConfig.mt_languages")
    p.add_argument("--ratio", type=float, default=CONFIG_KEYS["cs_word_ratio"].default,
                   help="CS per-word switch probability: sets TrainConfig.cs_word_ratio")
    p.add_argument("--alpha", type=float, default=CONFIG_KEYS["ss_alpha"].default,
                   help="SS sampling temperature: sets TrainConfig.ss_alpha")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_augment)

    p = sub.add_parser("train", help="run two-stage training or an ablation mode")
    p.add_argument("--config", required=True, help="JSON config file")
    p.add_argument("--mode", choices=tuple(trainer.MODES), default="xtune",
                   help="which consistency terms (R1 pair, R2 teacher) train: "
                        "baseline (neither), r1-only (R1, one stage), r2-only "
                        "(R2 to a plain stage-1 teacher), xtune (R1 and R2, "
                        "two stages; default)")
    p.add_argument("--out", required=True)
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config value (repeatable)")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on every language")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data-dir", required=True)
    p.add_argument("--pooling", default=None, choices=("first_subword", "average"),
                   help="labeling pooling to score with (default: the checkpoint's)")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("gap", help="transfer gap from an eval report")
    p.add_argument("--report", required=True)
    p.add_argument("--source")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_gap)

    p = sub.add_parser("presets", help="published hyper-parameter presets")
    p.add_argument("dataset", nargs="?")
    p.add_argument("setting", nargs="?", choices=trainer.SETTINGS)
    p.set_defaults(fn=cmd_presets)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, trainer.TrainingError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
