"""Shared fixtures: a small cipher benchmark with vocabulary and resources,
FFBS draws of a word list as a segmentation, and a corpus's examples in a
slice."""

import numpy as np
import pytest

from xtune import data
from xtune import tokenizer as tok
from xtune.augment import Resources
from xtune.trainer import substream


def sample_words(vocab, words, alpha, rng):
    """``tokenizer.sample_segment_words`` over the sampler types of
    ``words``, each draw as its record: one ``Segmentation``."""
    sampler = vocab.sampler(alpha)
    draws = tok.sample_segment_words(vocab, sampler.type_ids(words), alpha, rng)
    return tok.Segmentation(list(map(sampler.record, draws.tolist())))


def part(corpus, rows):
    """The examples of ``corpus`` that ``rows`` (a slice or a sorted index
    list) selects, in order, through ``Corpus.select``."""
    keep = np.zeros(len(corpus), bool)
    keep[rows] = True
    return corpus.select(keep)


def build_benchmark(task="classification", languages=("en", "xx", "yy"),
                    train_examples=80, eval_examples=60, lemma_count=12,
                    seed=1, vocab_size=None, max_piece_len=12, n_tag=3):
    """A generated benchmark, its corpora as ``data.Corpus`` columns, and
    the resources its vocabulary, dictionaries and store give."""
    spec = data.SyntheticSpec(
        task=task,
        languages=languages,
        lemma_count=lemma_count,
        train_examples=train_examples,
        eval_examples_per_language=eval_examples,
        sentence_len_range=(3, 6),
        n_tag=n_tag,
        seed=seed,
    )
    bench = data.generate_cipher_corpus(spec, substream(seed, "synth"))
    if vocab_size is None:
        # room for every marked surface as a whole piece plus the alphabet
        vocab_size = len(bench.words) + 40
    vocab = tok.build_vocab_for_words(bench.words, vocab_size,
                                      max_piece_len=max_piece_len, em_iters=2)
    res = Resources(
        vocab=vocab,
        dictionaries=[bench.dictionaries[(languages[0], lang)] for lang in languages[1:]],
        store=bench.store,
    )
    return bench, res


@pytest.fixture(scope="session")
def small_classification_bench():
    return build_benchmark()


@pytest.fixture(scope="session")
def small_labeling_bench():
    return build_benchmark(task="labeling")
