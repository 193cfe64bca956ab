"""Held-out F1 can see the conv path.

``synth.make_token_corpus`` marks successful books with ``zephyrine`` and
unsuccessful ones with ``morvath``. The two differ in letters and syllables,
so the readability branch reads the label without the conv path. Here
``morvath`` is rewritten as ``zephyrone``, which has ``zephyrine``'s 9 letters
and 3 syllables: the label then reaches the model through the sentence
vectors only, and the same trained cnn with its conv zeroed falls to chance."""

import re

import pytest

from bookpred import synth
from bookpred.corpus import load_corpus, split_train_val
from bookpred.net import ModelParams
from bookpred.pipeline import (
    EncoderConfig,
    TrainConfig,
    predict_corpus,
    report_from_predictions,
    train,
)
from bookpred.textstats import compute_counts

DEFAULT_PAIR = ("zephyrine", "morvath")
BALANCED_PAIR = ("zephyrine", "zephyrone")
F1_FLOOR = 0.8  # live conv 0.87-1.0 and zeroed conv 0.27-0.58 over seeds 3-7


@pytest.fixture(scope="module")
def texts(tmp_path_factory):
    root = tmp_path_factory.mktemp("markers")
    corpus = load_corpus(synth.make_token_corpus(root, n_books=12, seed=3, marker_rate=0.5))
    return [record.text_path.read_text(encoding="utf-8") for record in corpus]


def marker_counts(texts, pair):
    """Each text's set of ``TextCounts``, its marker written as each word of ``pair``."""
    return [{compute_counts(re.sub("|".join(DEFAULT_PAIR), word, text)) for word in pair}
            for text in texts]


def test_the_balanced_markers_have_the_same_counts(texts):
    assert all(len(counts) == 1 for counts in marker_counts(texts, BALANCED_PAIR))


def test_the_default_markers_do_not(texts):
    assert all(len(counts) == 2 for counts in marker_counts(texts, DEFAULT_PAIR))


def held_out_f1(params, scaler, test, cfg):
    return report_from_predictions(predict_corpus(params, scaler, test, cfg)).weighted_f1


def test_held_out_f1_falls_with_the_conv_zeroed(tmp_path):
    corpus = load_corpus(synth.make_token_corpus(tmp_path, n_books=160, seed=5, marker_rate=0.5))
    for record in corpus:
        text = record.text_path.read_text(encoding="utf-8")
        text = text.replace(DEFAULT_PAIR[1], BALANCED_PAIR[1])
        record.text_path.write_text(text, encoding="utf-8")
    train_set, test = split_train_val(corpus, 0.3, 5)
    cfg = TrainConfig(seed=5, epochs=60, encoder=EncoderConfig(dim=64))
    result = train(train_set, cfg)
    assert result.params.config.use_readability
    zeroed = ModelParams.from_tensors(result.params.config, {
        name: tensor * 0 if name.startswith("conv") else tensor
        for name, tensor in result.params.tensors()
    })
    assert held_out_f1(result.params, result.scaler, test, cfg) > F1_FLOOR
    assert held_out_f1(zeroed, result.scaler, test, cfg) < F1_FLOOR
