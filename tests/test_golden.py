"""Golden outputs: every file the command line writes, byte for byte.

For each task a tiny synth goes through `xtune tokenize` (viterbi and
sample), `xtune augment` with each strategy (SS, CS, GN and MT), then
`xtune train` and `xtune eval` in mode xtune and in mode r1-only, and the
sha256 of each file written must equal the digest in ``GOLDEN``.  A checkpoint is hashed from its first tensor record on: the
digest covers every trained number, while the header and metadata lines are
checked by the checkpoint tests in test_model.py.

The digests pin float bits (numpy 2.4, x86-64).  After a change that moves
them on purpose (another reduction order, another random draw), re-record
them with `PYTHONPATH=src python tests/test_golden.py`, which prints the
dict to paste over ``GOLDEN``, and say in the change why the bits moved.

``SYNTH_GOLDEN`` pins `xtune synth` alone with the branches the default
flags leave out: the ``even_lemma_parity`` rule, five tags and language
names that JSON must escape or that are not ASCII.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from xtune import cli

# task -> (preset, setting, eval flags)
TASKS = {
    "classification": ("xnli", "cross-lingual-transfer", []),
    "labeling": ("pos", "cross-lingual-transfer", ["--pooling", "average"]),
    "span": ("xquad", "translate-train-all", []),
}

# recorded at 4d399be; the GN and MT augment digests at f76af2e; sample.jsonl, the
# SS and CS augment files and run/* after the views moved to batched draws; the
# manifests, teacher checkpoints and the classification student after R1 stopped
# forwarding pair views identical to their item (unchanged_views, rounding only); the
# r1-only run and report at b05aca9
GOLDEN = {
    "classification": {
        "augment.CS.jsonl": "3180952a734dba208685ac57ec1dbba32c9bcd04dcccfdd10a5affaf16e68d1b",
        "augment.GN.jsonl": "731a9fad6b673debc19437e03691cd3d0b63d8e56230cb52edd0d6a906ffaf5f",
        "augment.MT.jsonl": "9a9fc6422b7e109db407c5b8f9217f9c5807e26b52c6e849203f21226c63cbb0",
        "augment.jsonl": "2844bb9827804720407e9bd07398193cdc33c328d4b6f9ae56687c7fff638941",
        "data/dict.en-xx.txt": "11a799fe97359a995466bedb7b535b5a5bc42cbb749733150507ab52a8b626d7",
        "data/dict.en-yy.txt": "7f6cda0cfa078b15c3248807252bd3d091c68036aacf7cedfcc7fed5b699d428",
        "data/dict.xx-en.txt": "12335e5c09ae92b3e4f61e5b86ea2a4d102c0ba8d00351fd6195291ff6dde97f",
        "data/dict.yy-en.txt": "77b2069e6c734be2680a1433b38ee7bad7ac178a978ed42ae58713072ec74667",
        "data/eval.en.jsonl": "5d5c29a7978d3bbf1d98f267179e083f9cac72e54880cfd4bea30d000bb2c0dc",
        "data/eval.xx.jsonl": "59ccb5da27f8a4333fa4e4c54fd1fed5142b0a6776fca62decddc01d5ce2c198",
        "data/eval.yy.jsonl": "68f3647589bfe45ab9ba8eff5a9d5da6fe9aacd8fb6782c15291c79daab656dc",
        "data/meta.json": "330f3470220bcf4b3c3718d08bc9cffb83ac7a107202f5e3bd9f3b4904c5919e",
        "data/train.jsonl": "c58a2a4e17f63805b4cdfbb8c76d77aa8e932f20d304d9eb4ed37e6f562a1854",
        "data/translations.jsonl": "be49f4a094caba4399772b8878654459d1e1ccd2dd1fdb99905e9ffea657a557",
        "data/vocab.tsv": "266eb974859d8e8dcc953b213bffecf7539fc6cc5832be50d94602b5fac315d7",
        "report.json": "1df9512cb1b3fe7e82c5e652ac9fe34b19804ea895d078f182973876419a72ae",
        "report.r1-only.json": "a9bc1032581f01dde96c24b7af73cd8c22fb9a3d51a3462894724cf11a89f5b9",
        "run-r1/manifest.json": "eddba5d01f5bc4f3ad9a3e1247dca9247118d6c31d1ac4824fc11b88860b4e67",
        "run-r1/student.ckpt": "66fb01050a5f26d9a63e700f37ea918a46c93205abc933a6057e30fd17acd5c6",
        "run/manifest.json": "edf0cb1e5ce143eddc4e5374f62cf98712ef2cbe941e2ec1b08a682b56dd0960",
        "run/student.ckpt": "cf700481bdd5c671ed3c0d19a014f97ddf51afc84d33d27e02de337843dddcc0",
        "run/teacher.ckpt": "cc73a8d56f1f9c0bb14de28cfec2ed2139c4e5334a6e9c675c0adde6f62fe31d",
        "sample.jsonl": "254cdfbbb96670da47ac512fb651aa5a1344f57f4d78c52fc85b482e92f72ae5",
        "viterbi.jsonl": "aafffa9aec0f45a16a8be4db5e37d6b9f17ed930172b278d4665198b3fd22cc8"
    },
    "labeling": {
        "augment.CS.jsonl": "bbcd3f16877c3362f7c3a9884e8e76726acd977bd544e7f050a1bdb7559522b9",
        "augment.GN.jsonl": "980702c127fcdd5e5e56f8139d50f474ba46d835d6695a3f99d6791ab1f3e3e6",
        "augment.MT.jsonl": "e171baf83de7f688a4a4da1365f57e3ef920d58eb64f515815daa837302b6659",
        "augment.jsonl": "8287a605d8415f800c9017e09021d078760e3775ed00c770b982b27b11ffbeac",
        "data/dict.en-xx.txt": "11a799fe97359a995466bedb7b535b5a5bc42cbb749733150507ab52a8b626d7",
        "data/dict.en-yy.txt": "7f6cda0cfa078b15c3248807252bd3d091c68036aacf7cedfcc7fed5b699d428",
        "data/dict.xx-en.txt": "12335e5c09ae92b3e4f61e5b86ea2a4d102c0ba8d00351fd6195291ff6dde97f",
        "data/dict.yy-en.txt": "77b2069e6c734be2680a1433b38ee7bad7ac178a978ed42ae58713072ec74667",
        "data/eval.en.jsonl": "4db7d67130f0f21201b972b919b5f497dc36b6fc1579d19283abae0f7f9c0025",
        "data/eval.xx.jsonl": "4d6925a0bbf4f631834473940070136a7ec49ead6ffaa67d7882dc754a964678",
        "data/eval.yy.jsonl": "64c8254d657d577529612b52e66b6a359ca4a4a42a9b74c92833673fa6f25a9b",
        "data/meta.json": "38e095e7408c34afbbb3f0d2ec09da4c2bf1dca7b00e30fd4c51d89dec08a6b1",
        "data/train.jsonl": "0a9f0ed8a69ed0f0593381ff53930f457083b54ddeb8381825df21e59a76cba5",
        "data/translations.jsonl": "444ccad82385b15d2dce604f8cc143191a24ea29ca0077f8da5d8c95fb745dd3",
        "data/vocab.tsv": "266eb974859d8e8dcc953b213bffecf7539fc6cc5832be50d94602b5fac315d7",
        "report.json": "2df65876952365755d8b89b413adb5e1e906b516f8eb8f761e50607fa8fdf15d",
        "report.r1-only.json": "2df65876952365755d8b89b413adb5e1e906b516f8eb8f761e50607fa8fdf15d",
        "run-r1/manifest.json": "fa33b76fe7fea67f6ccb09719bb5e4730a43222986c1cc6a7d4bf2071d6456f6",
        "run-r1/student.ckpt": "3fe96410740cda096b40c169fe2f58d0140e1c9cead428043191727afbf76807",
        "run/manifest.json": "f8e971575bab510c14c5f02832847c385c695637b933902b5ab40b217134bb83",
        "run/student.ckpt": "58f770c5dcc487e099200ee16a7cc8b290c8b015b163796789f5ff5b4ce1c9cd",
        "run/teacher.ckpt": "8efc02345290243fa27a133be0eb72ee2a387ca7219b1b0ea9b4480bf1b7a71b",
        "sample.jsonl": "254cdfbbb96670da47ac512fb651aa5a1344f57f4d78c52fc85b482e92f72ae5",
        "viterbi.jsonl": "aafffa9aec0f45a16a8be4db5e37d6b9f17ed930172b278d4665198b3fd22cc8"
    },
    "span": {
        "augment.CS.jsonl": "365776137f389c1912b3123dfed20c461b7c7c389e6e75e6cbc8f085a59f1748",
        "augment.GN.jsonl": "358f3db1ce7fb236625791089227a4e3273d0db0e5747fbaa4912edc004b86b7",
        "augment.MT.jsonl": "b5b45cb1a0492d70baa6689a8bf07cd9b95c5c80c5e5972526b25111dd4b7120",
        "augment.jsonl": "ca550f6c07d871f9e837a86310bee2cd999d9f19ce6f2f3560d90424bd7b3ffd",
        "data/dict.en-xx.txt": "11a799fe97359a995466bedb7b535b5a5bc42cbb749733150507ab52a8b626d7",
        "data/dict.en-yy.txt": "7f6cda0cfa078b15c3248807252bd3d091c68036aacf7cedfcc7fed5b699d428",
        "data/dict.xx-en.txt": "12335e5c09ae92b3e4f61e5b86ea2a4d102c0ba8d00351fd6195291ff6dde97f",
        "data/dict.yy-en.txt": "77b2069e6c734be2680a1433b38ee7bad7ac178a978ed42ae58713072ec74667",
        "data/eval.en.jsonl": "a954087f782690827650ec3daf7df4cc2856e2648549462c0a0de27ec141bcf5",
        "data/eval.xx.jsonl": "f226952772e7eb2ad6dc6ffe69d502cf37b270fca6338bce13a55dfda44bdc2d",
        "data/eval.yy.jsonl": "fd03afbfebdc14ecd51690af31a309309a7bfdb6c8d3c39ca315250c92e964ae",
        "data/meta.json": "d28aa06176c145a80250c247ad367a690b89a5ae9e880d0bfd998f691f939e71",
        "data/train.jsonl": "dfc52e7f0c767b754eff1e785dca11b927eb2d2a8ee2ce6af52b461ae393b9bb",
        "data/translations.jsonl": "5be7a1e02b50f08093ba582ce6c430f9383637f35da834853df94b50f98284bc",
        "data/vocab.tsv": "266eb974859d8e8dcc953b213bffecf7539fc6cc5832be50d94602b5fac315d7",
        "report.json": "1620b97b0efe41a749f5a6fef3d73e07280df17aa01b5c396169fef32b034191",
        "report.r1-only.json": "7f506e0a986156f030754c2341c83f6477aac7e593f2e86df8be71ad8624ca93",
        "run-r1/manifest.json": "1a635588db6f135603ac698f86aedca3f0d93ca513eb1ddc9f62d68d9aac71e3",
        "run-r1/student.ckpt": "f918a662e03168b30fdbc12c1ec2126e610fd9163a474ebec0ca84de477e3cc3",
        "run/manifest.json": "e2891a52e9b58f5e1971c8cc79b308ef7de891b5c211fcd1e0474b0f381a87d8",
        "run/student.ckpt": "28210343c1fd1c09c0967af9c4051c9e4fce4da30104094ea85975c808ee8e29",
        "run/teacher.ckpt": "4e72a32709c64e3440a19f90b418ccb7b065cde38be3cc05be3604c51ca5fb00",
        "sample.jsonl": "170253634cc5ed7915ef6a73adc92c096b5a2c1ef01de2551bf78e8f3d4608b2",
        "viterbi.jsonl": "5f9a0adc1a5cb4868be1ebc3852b874b138129a51494180bd15c0d18d1bee306"
    }
}

# recorded at 15dac4f, before the synth write path became columnar
SYNTH_GOLDEN = {
    "classification": {
        "dict.en-x\"y.txt": "5ba2014fa86392dc19ec432b9015e429ce0f29d5d6f3aff70ac3a7d4f5d384bb",
        "dict.en-zé.txt": "883c558f3802cbd6ed75518946343895171bd7b6bffeb36f8ebec2a6591e9532",
        "dict.x\"y-en.txt": "a52dfaf917f62abe4f1281dc1b5356dc9f5d6dd53a9ad2a6b61a021304f0dfa9",
        "dict.zé-en.txt": "5a9cd6eb76578d92e4eb2512e8caa661cd055c6b6c734f46f840afe7e59bac4b",
        "eval.en.jsonl": "2560bc221c5a9c4839f14404de2237b141a8740779bfbdbf2caae9576a8c855f",
        "eval.x\"y.jsonl": "eaf9d253c64a1209edf8df07b5d27a91e199d7eb3c12629ed664ad5ffa1fb78c",
        "eval.zé.jsonl": "1e7d6b6856b4ab0d3c2e153d0e1a9440c0f2ff3ebfdd288394ab60f8df907cfb",
        "meta.json": "03b346684845bd3567ed42ae444da4cb5f7f0a8eb9697824eccd1253d408b28e",
        "train.jsonl": "99845ddcad5a4a5dd3895863e68b493c07ede47fc8bf7ba3a6c743a2c553042d",
        "translations.jsonl": "eab97bbeebda630f58311580806f3baa72f053d0ed9e342c82794009f747af97",
        "vocab.tsv": "592f605fbde9517a95a302561b7d1dd4a4a96988937c9607079ef07b4b123fcf"
    },
    "labeling": {
        "dict.en-x\"y.txt": "5ba2014fa86392dc19ec432b9015e429ce0f29d5d6f3aff70ac3a7d4f5d384bb",
        "dict.en-zé.txt": "883c558f3802cbd6ed75518946343895171bd7b6bffeb36f8ebec2a6591e9532",
        "dict.x\"y-en.txt": "a52dfaf917f62abe4f1281dc1b5356dc9f5d6dd53a9ad2a6b61a021304f0dfa9",
        "dict.zé-en.txt": "5a9cd6eb76578d92e4eb2512e8caa661cd055c6b6c734f46f840afe7e59bac4b",
        "eval.en.jsonl": "bc9d2fb961f2c9e29039aaad6da4274c22c45504c3117b33dc363202f293e9a0",
        "eval.x\"y.jsonl": "78171c05b4bb2aa2b94c0678700c2343f44b0179f95d44242deb4a0723bb88a4",
        "eval.zé.jsonl": "8e89b20b410439ddf4bbc243087a30783d2d2b0d517d51b9f06228da2e1f8f36",
        "meta.json": "3ce59f3415179f5b3ecbe0f8fd981f0024494e3bb9f7ffdac036f96c951c707b",
        "train.jsonl": "1bb884a4cd6527520e089aa5b5499e52880f796259f7c1dea712ee073a26843b",
        "translations.jsonl": "670c6625c94dc37cc66022ef75b5c6aa8f88a974902add76cc82de2cea349e31",
        "vocab.tsv": "592f605fbde9517a95a302561b7d1dd4a4a96988937c9607079ef07b4b123fcf"
    },
    "span": {
        "dict.en-x\"y.txt": "5ba2014fa86392dc19ec432b9015e429ce0f29d5d6f3aff70ac3a7d4f5d384bb",
        "dict.en-zé.txt": "883c558f3802cbd6ed75518946343895171bd7b6bffeb36f8ebec2a6591e9532",
        "dict.x\"y-en.txt": "a52dfaf917f62abe4f1281dc1b5356dc9f5d6dd53a9ad2a6b61a021304f0dfa9",
        "dict.zé-en.txt": "5a9cd6eb76578d92e4eb2512e8caa661cd055c6b6c734f46f840afe7e59bac4b",
        "eval.en.jsonl": "664afa40a0b76e1c12018c2d9ba5a9579cd129e7f3ce160a1914b55e212c6175",
        "eval.x\"y.jsonl": "79c30d5e714c461ad6095fca1e20626dc9a6995223413372638b67b284e38af9",
        "eval.zé.jsonl": "2495cac9bc82dc758dcb9ab09a9a8cbcfd06b67ccec987ce89235153eb9c3292",
        "meta.json": "c38f2b7f89a37d74c1e682c4259c39244c9a0300982f998084067da134a7f4ff",
        "train.jsonl": "01be92b77a2d0fda233f9774d9456aed63f2320ad080f07a855b800e8e5a42d5",
        "translations.jsonl": "29ab9d5adc546aeb886dc8e63163ac28d656023ddd3ae061a419cbe6705d354e",
        "vocab.tsv": "592f605fbde9517a95a302561b7d1dd4a4a96988937c9607079ef07b4b123fcf"
    }
}

SYNTH_VARIANT = ["--languages", 'en,x"y,zé', "--rule", "even_lemma_parity", "--n-tag", "5",
                 "--lemmas", "10", "--train-examples", "16", "--eval-examples", "6",
                 "--sentence-len", "3,5", "--vocab-size", "60", "--max-piece-len", "2",
                 "--em-iters", "1", "--seed", "4"]


def run_synth_variant(task, out):
    """Write the synth outputs of ``SYNTH_VARIANT`` for ``task`` under ``out``."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["synth", "--out", str(out), "--task", task] + SYNTH_VARIANT) == 0


def run_pipeline(task, out):
    """Write every output of the pipeline for ``task`` under ``out``."""
    preset, setting, eval_flags = TASKS[task]
    data, run = out / "data", out / "run"
    train, vocab = str(data / "train.jsonl"), str(data / "vocab.tsv")
    config = out / "config.json"
    config.write_text(json.dumps({"data_dir": str(data), "preset": preset, "setting": setting,
                                  "epochs": 1, "batch_size": 8, "dim": 8, "max_len": 48,
                                  "seed": 5}), encoding="utf-8")
    commands = [
        ["synth", "--out", str(data), "--task", task, "--languages", "en,xx,yy",
         "--lemmas", "10", "--train-examples", "16", "--eval-examples", "6",
         "--sentence-len", "3,5", "--vocab-size", "40", "--max-piece-len", "2",
         "--em-iters", "1", "--seed", "3"],
        ["tokenize", "--vocab", vocab, "--input", train, "--task", task,
         "--output", str(out / "viterbi.jsonl")],
        ["tokenize", "--vocab", vocab, "--input", train, "--task", task, "--mode", "sample",
         "--alpha", "0.5", "--seed", "1", "--output", str(out / "sample.jsonl")],
        ["augment", "--vocab", vocab, "--input", train, "--task", task, "--strategy", "SS",
         "--seed", "1", "--output", str(out / "augment.jsonl")],
        ["augment", "--input", train, "--task", task, "--strategy", "CS",
         "--dict", str(data / "dict.en-xx.txt"), "--dict", str(data / "dict.en-yy.txt"),
         "--ratio", "0.5", "--seed", "1", "--output", str(out / "augment.CS.jsonl")],
        ["augment", "--input", train, "--task", task, "--strategy", "GN",
         "--output", str(out / "augment.GN.jsonl")],
        ["augment", "--input", train, "--task", task, "--strategy", "MT",
         "--store", str(data / "translations.jsonl"), "--languages", "xx,yy",
         "--output", str(out / "augment.MT.jsonl")],
        ["train", "--config", str(config), "--mode", "xtune", "--out", str(run)],
        ["eval", "--checkpoint", str(run / "student.ckpt"), "--data-dir", str(data),
         "--out", str(out / "report.json")] + eval_flags,
        ["train", "--config", str(config), "--mode", "r1-only", "--out", str(out / "run-r1")],
        ["eval", "--checkpoint", str(out / "run-r1" / "student.ckpt"), "--data-dir", str(data),
         "--out", str(out / "report.r1-only.json")] + eval_flags,
    ]
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0, argv


def digests(out):
    """sha256 per written file (relative path), checkpoints from their tensors on."""
    found = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file() and p.name != "config.json"):
        content = path.read_bytes()
        if path.suffix == ".ckpt":
            content = content.split(b"\n", 2)[2]
        found[path.relative_to(out).as_posix()] = hashlib.sha256(content).hexdigest()
    return found


@pytest.mark.parametrize("task", sorted(TASKS))
def test_outputs_match_golden_digests(task, tmp_path):
    run_pipeline(task, tmp_path)
    assert digests(tmp_path) == GOLDEN[task]


@pytest.mark.parametrize("task", sorted(TASKS))
def test_synth_variant_matches_golden_digests(task, tmp_path):
    run_synth_variant(task, tmp_path)
    assert digests(tmp_path) == SYNTH_GOLDEN[task]


if __name__ == "__main__":
    import tempfile

    for name, run in (("GOLDEN", run_pipeline), ("SYNTH_GOLDEN", run_synth_variant)):
        recorded = {}
        for task in sorted(TASKS):
            with tempfile.TemporaryDirectory() as tmp:
                run(task, Path(tmp))
                recorded[task] = digests(Path(tmp))
        print(f"{name} = " + json.dumps(recorded, indent=4, sort_keys=True, ensure_ascii=False))
