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

import numpy as np

from . import augment as aug
from . import data
from . import evaluate as ev
from . import tokenizer as tok
from . import trainer
from .model import load_params, save_params


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json(payload, path):
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True,
                                     ensure_ascii=False) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# synth


def cmd_synth(args):
    spec = data.SyntheticSpec(
        task=args.task,
        languages=tuple(args.languages.split(",")),
        lemma_count=args.lemmas,
        train_examples=args.train_examples,
        eval_examples_per_language=args.eval_examples,
        sentence_len_range=tuple(int(x) for x in args.sentence_len.split(",")),
        n_tag=args.n_tag,
        classification_rule=args.rule,
        seed=args.seed,
    )
    rng = trainer.substream(spec.seed, "synth")
    bench = data.generate_cipher_corpus(spec, rng)

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

    vocab = tok.build_vocab_for_words(
        bench.words, args.vocab_size, max_piece_len=args.max_piece_len,
        em_iters=args.em_iters,
    )
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
    rng = trainer.substream(args.seed, "tokenize")
    with open(args.output, "w", encoding="utf-8") as fh:
        for ex in corpus:
            if args.mode == "viterbi":
                seg = tok.viterbi_segment_words(vocab, ex.words)
            else:
                seg = tok.sample_segment_words(vocab, ex.words, args.alpha, rng)
            fh.write(json.dumps({"id": ex.id, "pieces": seg.pieces,
                                 "word_index": seg.word_index},
                                ensure_ascii=False, sort_keys=True) + "\n")
    print(f"segmented {len(corpus)} examples into {args.output}")
    return 0


# ---------------------------------------------------------------------------
# augment


def cmd_augment(args):
    corpus = data.load_jsonl(args.input, args.task)
    strategy = aug.AugmentationStrategy(
        kind=args.strategy,
        alpha=args.alpha,
        word_ratio=args.ratio,
        languages=tuple(args.languages.split(",")) if args.languages else (),
    )
    vocab = tok.load_vocab(args.vocab) if args.vocab else None
    dictionaries = [aug.load_dictionary(p, "?", "?") for p in args.dict or []]
    store = aug.TranslationStore.load(args.store) if args.store else None
    rng = trainer.substream(args.seed, "augment")
    corpus_aug = aug.build_augmented_corpus(
        corpus, strategy, rng, vocab=vocab, dictionaries=dictionaries, store=store)

    with open(args.output, "w", encoding="utf-8") as fh:
        for ex in corpus_aug.originals:
            rec = {"kind": "original", "record": data.example_to_record(ex)}
            fh.write(json.dumps(rec, sort_keys=True, ensure_ascii=False) + "\n")
        for (orig_idx, _aug_idx), view in zip(corpus_aug.pairs, corpus_aug.augmented):
            rec = {
                "kind": "augmented",
                "strategy": view.strategy,
                "pair_of": corpus_aug.originals[orig_idx].id,
                "label_available": view.label_available,
                "modified": view.modified,
                "record": data.example_to_record(view.example),
            }
            if view.segmentation is not None:
                rec["pieces"] = view.segmentation.pieces
            fh.write(json.dumps(rec, sort_keys=True, ensure_ascii=False) + "\n")
    print(f"wrote {len(corpus_aug)} items ({len(corpus_aug.augmented)} augmented, "
          f"{len(corpus_aug.missing)} skipped) to {args.output}")
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
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
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
        setting = raw.pop("setting", "cross-lingual-transfer")
        return trainer.TrainConfig.from_preset(preset, setting, **raw), Path(data_dir)
    return trainer.TrainConfig(**raw), Path(data_dir)


def load_resources(data_dir, cfg):
    """Training examples, shared resources and input digests of a synth
    output directory; fills the config's data-derived defaults."""
    meta = json.loads((data_dir / "meta.json").read_text(encoding="utf-8"))
    languages = meta["languages"]
    vocab = tok.load_vocab(data_dir / "vocab.tsv")
    dictionaries = []
    src = languages[0]
    for tgt in languages[1:]:
        path = data_dir / f"dict.{src}-{tgt}.txt"
        if path.exists():
            dictionaries.append(aug.load_dictionary(path, src, tgt))
    store_path = data_dir / "translations.jsonl"
    store = aug.TranslationStore.load(store_path) if store_path.exists() else None
    train = data.load_jsonl(data_dir / "train.jsonl", cfg.task)
    if cfg.n_label is None:
        cfg.n_label = max((ex.n_label or 0 for ex in train), default=0) or None
    if not cfg.mt_languages:
        cfg.mt_languages = tuple(languages[1:])
    digests = {p.name: _sha256(p) for p in sorted(data_dir.iterdir()) if p.is_file()}
    return train, trainer.Resources(vocab=vocab, dictionaries=dictionaries, store=store), digests


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
    data_dir = Path(args.data_dir)
    meta = json.loads((data_dir / "meta.json").read_text(encoding="utf-8"))
    languages = meta["languages"]
    vocab = tok.load_vocab(data_dir / "vocab.tsv")
    eval_sets = {
        lang: data.load_jsonl(data_dir / f"eval.{lang}.jsonl", params.task)
        for lang in languages
    }
    per_language = ev.evaluate_languages(params, eval_sets, vocab, pooling=args.pooling)
    rep = ev.report(per_language, languages[0], params.task)
    print(ev.format_report(rep))
    if args.out:
        _write_json(rep, args.out)
        print(f"report written to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# gap


def cmd_gap(args):
    rep = json.loads(Path(args.report).read_text(encoding="utf-8"))
    scalar = {lang: ev.primary_score(rep["task"], scores)
              for lang, scores in rep["per_language"].items()}
    gap = ev.transfer_gap(scalar, args.source or rep["source_language"])
    payload = {"source_language": args.source or rep["source_language"],
               "per_language": scalar, "transfer_gap": gap}
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
    if args.dataset and (args.dataset, args.setting or "cross-lingual-transfer") not in trainer.PRESETS:
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
    p.add_argument("--alpha", type=float, default=0.2)
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
    p.add_argument("--languages", help="MT target languages, comma-separated")
    p.add_argument("--ratio", type=float, default=0.3)
    p.add_argument("--alpha", type=float, default=0.2)
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
    p.add_argument("--pooling", default=None, choices=("first_subword", "average"))
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
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
