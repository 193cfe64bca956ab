"""bookpred: book success prediction from chunked sentence embeddings
and readability indices.

The package is organized as a small numpy library:

* :mod:`bookpred.textstats` — sentence segmentation, tokenization,
  syllable counting, count statistics;
* :mod:`bookpred.readability` — the five readability indices and the
  training-set z-scaler;
* :mod:`bookpred.corpus` — manifests, success labels, splits, book
  sections;
* :mod:`bookpred.embedding` — hashed bag-of-words encoder, the SEMB
  vector file format, chunk averaging;
* :mod:`bookpred.net` — the from-scratch CNN / feed-forward classifiers
  with exact backprop, Adam, and checkpoints;
* :mod:`bookpred.metrics` — weighted F1 and the McNemar test;
* :mod:`bookpred.pipeline` — training, evaluation, baselines, and
  readability gradient attribution;
* :mod:`bookpred.synth` — synthetic corpora with known planted
  structure;
* :mod:`bookpred.cli` — the ``bookpred`` command.
"""

__version__ = "0.1.0"
