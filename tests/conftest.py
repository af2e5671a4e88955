"""Shared fixtures: a small cipher benchmark with vocabulary and resources,
and FFBS draws of a word list as a segmentation."""

import dataclasses

import pytest

from xtune import data
from xtune import tokenizer as tok
from xtune.trainer import Resources, substream


def sample_words(vocab, words, alpha, rng):
    """``tokenizer.sample_segment_words`` over the sampler types of
    ``words``, each draw as its record: one ``Segmentation``."""
    sampler = vocab.sampler(alpha)
    draws = tok.sample_segment_words(vocab, sampler.type_ids(words), alpha, rng)
    return tok.Segmentation(list(map(sampler.record, draws.tolist())))


def build_benchmark(task="classification", languages=("en", "xx", "yy"),
                    train_examples=80, eval_examples=60, lemma_count=12,
                    seed=1, vocab_size=None, max_piece_len=12, n_tag=3):
    """A generated benchmark with its training and eval corpora as ``Example``
    lists, and the resources its vocabulary, dictionaries and store give."""
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
    # the tests read the training and eval corpora as Example lists
    bench = dataclasses.replace(bench, train=bench.train.examples(), eval_sets={
        lang: corpus.examples() for lang, corpus in bench.eval_sets.items()})
    return bench, res


@pytest.fixture(scope="session")
def small_classification_bench():
    return build_benchmark()


@pytest.fixture(scope="session")
def small_labeling_bench():
    return build_benchmark(task="labeling")
