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
* :mod:`bookpred.cli` — the ``bookpred`` command.
"""

from .corpus import (
    BookRecord,
    CorpusSet,
    Genre,
    SectionSpec,
    SuccessLabel,
    derive_label,
    load_corpus,
    select_section,
    split_train_val,
)
from .embedding import (
    book_average,
    chunk_average,
    encode_hashed_bow,
    load_embeddings,
    write_embeddings,
)
from .metrics import McNemarResult, mcnemar, weighted_f1
from .net import ModelConfig, ModelParams, load_checkpoint, predict, save_checkpoint
from .pipeline import (
    AttributionReport,
    EncoderConfig,
    EvalReport,
    TrainConfig,
    TrainResult,
    attribute_readability,
    export_book_vectors,
    majority_baseline,
    predict_corpus,
    report_from_predictions,
    train,
)
from .readability import (
    ReadabilityScaler,
    apply_scaler,
    ari,
    cli_index,
    fit_scaler,
    fkg,
    fres,
    readability_vector,
    smog,
)
from .textstats import (
    TextCounts,
    compute_counts,
    count_syllables,
    segment_sentences,
    tokenize_words,
)

__version__ = "0.1.0"
