"""End-to-end orchestration: featurization, training with validation
based model selection, evaluation, baselines, and readability
gradient attribution.

One frozen ``TrainConfig`` tree configures a run: the training loop's
own settings, the book section, an ``EncoderConfig`` and a
``net.ModelConfig``. Its field defaults are the only place each default
is written; the CLI derives its ``key=value`` keys from the same fields.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import net
from .corpus import (
    BookRecord,
    CorpusSet,
    Genre,
    SectionSpec,
    SuccessLabel,
    select_section,
    split_train_val,
)
from .embedding import book_average, chunk_average, encode_hashed_bow, load_embeddings
from .metrics import class_f1, confusion_counts, weighted_f1
from .net import ModelConfig, ModelParams
from .readability import (
    INDEX_NAMES,
    ReadabilityScaler,
    ReadabilityVector,
    apply_scaler,
    fit_scaler,
    readability_vector,
)
from .textstats import (
    Sentence,
    Tokens,
    counts_from_sentences,
    segment_sentences,
    tokenize_sentences,
)

__all__ = [
    "EncoderConfig",
    "TrainConfig",
    "TrainResult",
    "EpochStats",
    "BookPrediction",
    "EvalReport",
    "AttributionReport",
    "FeaturizationError",
    "TrainingDivergedError",
    "section_sentences",
    "featurize_corpus",
    "train",
    "predict_corpus",
    "evaluate",
    "majority_baseline",
    "attribute_readability",
    "export_book_vectors",
    "write_history_csv",
    "eval_report_csv",
    "eval_report_text",
    "attribution_csv",
    "attribution_text",
    "feature_meta",
    "config_from_feature_meta",
]


class FeaturizationError(RuntimeError):
    """Raised when one book cannot be turned into model inputs; the
    message names the book."""


class TrainingDivergedError(RuntimeError):
    """Raised when the training loss stops being finite."""


@dataclass(frozen=True)
class EncoderConfig:
    """How sentence vectors are produced: the built-in hashed
    bag-of-words encoder, or externally computed .semb files."""

    kind: str = "hashed"  # "hashed" | "external"
    dim: int = 512
    seed: int = 0
    directory: Path | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("hashed", "external"):
            raise ValueError(f"unknown encoder kind {self.kind!r}")
        if self.kind == "external" and self.directory is None:
            raise ValueError("external encoder needs a directory of .semb files")
        if self.kind == "hashed" and self.dim < 8:
            raise ValueError(f"hashed encoder needs encoder.dim >= 8, got {self.dim}")


@dataclass(frozen=True)
class TrainConfig:
    """Everything a run is configured by. ``model.input_dim`` stays 0 until
    ``train`` sets it from the featurized inputs."""

    seed: int = 0
    epochs: int = 100
    batch_size: int = 32
    val_fraction: float = 0.2
    section: SectionSpec = field(default_factory=lambda: SectionSpec.first(1000))
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    model: ModelConfig = field(default_factory=ModelConfig)

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


def section_sentences(record: BookRecord, section: SectionSpec) -> list[Sentence]:
    """The configured section of one book's sentences: the text is read
    once, segmented once and the section selected once."""
    try:
        text = record.text_path.read_text(encoding="utf-8")
    except OSError as exc:
        raise FeaturizationError(f"book {record.book_id}: cannot read text ({exc})") from exc
    return select_section(segment_sentences(text), section)


def _hashed_tokens(record: BookRecord, cfg: TrainConfig) -> Tokens:
    """The configured section of one book, tokenized once."""
    sentences = section_sentences(record, cfg.section)
    if not sentences:
        raise FeaturizationError(f"book {record.book_id}: no sentences")
    return tokenize_sentences(s.text for s in sentences)


def _section_matrix(record: BookRecord, cfg: TrainConfig) -> np.ndarray:
    """Sentence-embedding matrix for the configured book section."""
    if cfg.encoder.kind == "hashed":
        return encode_hashed_bow(
            _hashed_tokens(record, cfg), dim=cfg.encoder.dim, seed=cfg.encoder.seed
        )
    semb_path = cfg.encoder.directory / f"{record.book_id}.semb"
    try:
        matrix = load_embeddings(semb_path)
    except Exception as exc:
        raise FeaturizationError(f"book {record.book_id}: {exc}") from exc
    rows = select_section(list(range(matrix.shape[0])), cfg.section)
    if not rows:
        raise FeaturizationError(f"book {record.book_id}: empty embedding matrix")
    return matrix[rows]


def featurize_book(
    record: BookRecord, cfg: TrainConfig, need_readability: bool = True
) -> tuple[np.ndarray, ReadabilityVector | None]:
    """Model inputs for one book: section-selected chunk sequence (or
    averaged vector for book2vec) plus its raw readability scores.

    With the hashed encoder the section is tokenized once: the encoder
    and the readability counts share those ``Tokens``, and the CNN's
    chunk averages are built block by block, never the full matrix."""
    sentences = None
    if cfg.encoder.kind == "hashed":
        sentences = _hashed_tokens(record, cfg)
        dim, seed = cfg.encoder.dim, cfg.encoder.seed
        if cfg.model.arch == "book2vec":
            x = book_average(encode_hashed_bow(sentences, dim=dim, seed=seed))
        else:
            x = encode_hashed_bow(sentences, dim=dim, seed=seed, n_chunks=cfg.model.n_chunks)
    elif cfg.model.arch == "book2vec":
        x = book_average(_section_matrix(record, cfg))
    else:
        x = chunk_average(_section_matrix(record, cfg), cfg.model.n_chunks)
    readability = None
    if need_readability:
        if sentences is None:
            sentences = section_sentences(record, cfg.section)
        try:
            readability = readability_vector(counts_from_sentences(sentences))
        except ValueError as exc:
            raise FeaturizationError(f"book {record.book_id}: {exc}") from exc
    return x, readability


def featurize_corpus(
    corpus: CorpusSet, cfg: TrainConfig, need_readability: bool = True
) -> tuple[np.ndarray, list[ReadabilityVector] | None]:
    """Model inputs for every book, in corpus order: one preallocated
    (N, n_chunks, dim) array ((N, dim) for book2vec), filled book by book,
    plus the raw readability scores when asked for."""
    x = np.zeros((0,))
    readability = [] if need_readability else None
    for i, record in enumerate(corpus):
        book_x, book_readability = featurize_book(record, cfg, need_readability)
        if i == 0:
            x = np.empty((len(corpus),) + book_x.shape)
        elif book_x.shape != x.shape[1:]:
            dims = sorted({x.shape[-1], book_x.shape[-1]})
            raise FeaturizationError(f"inconsistent embedding dims across corpus: {dims}")
        x[i] = book_x
        if readability is not None:
            readability.append(book_readability)
    return x, readability


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    val_weighted_f1: float


@dataclass
class TrainResult:
    params: ModelParams  # best validation weighted F1 (earliest epoch on ties)
    scaler: ReadabilityScaler | None
    history: list[EpochStats]
    best_epoch: int
    final_params: ModelParams


def _scaled_inputs(
    readability_raw: list[ReadabilityVector] | None, scaler: ReadabilityScaler | None
) -> np.ndarray | None:
    """(N, 5) scaled readability rows, or None without a scaler."""
    if scaler is None:
        return None
    return np.array([apply_scaler(scaler, r).as_array() for r in readability_raw])


def _blocks(n: int, size: int):
    return (slice(start, start + size) for start in range(0, n, size))


def _predict_blocks(
    params: ModelParams, x: np.ndarray, scaled: np.ndarray | None, size: int
) -> list[tuple[SuccessLabel, float]]:
    """Eval-mode (label, probability) for every row of ``x``, one pass per block."""
    return [
        pred
        for block in _blocks(len(x), size)
        for pred in net.predict(params, x[block], None if scaled is None else scaled[block])
    ]


def train(corpus: CorpusSet, cfg: TrainConfig) -> TrainResult:
    """Train on ``corpus`` with an internal train/validation split.

    Deterministic given ``cfg.seed``: the split, the parameter init, the
    batch shuffles, and the dropout masks all derive from it. After each
    epoch the validation weighted F1 is computed in eval mode and the
    best-scoring parameters (earliest epoch on ties) are kept. Training
    runs in float64; the returned parameters are rounded through float32,
    the precision checkpoints store.
    """
    if len(corpus) == 0:
        raise ValueError("cannot train on an empty corpus")
    train_set, val_set = split_train_val(corpus, cfg.val_fraction, cfg.seed)

    use_readability = cfg.model.use_readability
    x_train, raw_train = featurize_corpus(train_set, cfg, need_readability=use_readability)
    x_val, raw_val = featurize_corpus(val_set, cfg, need_readability=use_readability)

    scaler = fit_scaler(raw_train) if use_readability else None
    r_train = _scaled_inputs(raw_train, scaler)
    r_val = _scaled_inputs(raw_val, scaler)

    model_cfg = replace(cfg.model, input_dim=x_train.shape[-1])

    root = np.random.SeedSequence(cfg.seed)
    init_ss, shuffle_ss, dropout_ss = root.spawn(3)
    params = net.init_params(model_cfg, seed=int(init_ss.generate_state(1)[0]))
    rng_shuffle = np.random.default_rng(shuffle_ss)
    rng_dropout = np.random.default_rng(dropout_ss)
    adam = net.AdamState.zeros(params)

    y_train = [r.label for r in train_set]
    y_val = [r.label for r in val_set]

    history: list[EpochStats] = []
    best_f1 = -1.0
    best_epoch = 0
    best_params = params.copy()

    n_train = len(train_set)
    for epoch in range(1, cfg.epochs + 1):
        order = rng_shuffle.permutation(n_train)
        epoch_losses: list[np.ndarray] = []
        for batch in _blocks(n_train, cfg.batch_size):
            rows = order[batch]
            labels = [y_train[i] for i in rows]
            logits, cache = net.forward(
                params, x_train, r_train, train_mode=True, rng=rng_dropout, rows=rows
            )
            epoch_losses.append(net.loss(logits, labels))
            grads, _ = net.backward(params, cache, labels)
            if not all(np.isfinite(g).all() for g in grads.values()):
                raise TrainingDivergedError(f"non-finite gradients at epoch {epoch}")
            params, adam = net.adam_step(params, grads, adam)

        train_loss = float(np.mean(np.concatenate(epoch_losses)))
        if not np.isfinite(train_loss):
            raise TrainingDivergedError(f"non-finite training loss at epoch {epoch}")
        val_preds = _predict_blocks(params, x_val, r_val, cfg.batch_size)
        val_f1 = weighted_f1([label for label, _ in val_preds], y_val)
        history.append(EpochStats(epoch=epoch, train_loss=train_loss, val_weighted_f1=val_f1))
        if val_f1 > best_f1:
            best_f1 = val_f1
            best_epoch = epoch
            best_params = params.copy()

    return TrainResult(
        params=_through_float32(best_params),
        scaler=scaler,
        history=history,
        best_epoch=best_epoch,
        final_params=_through_float32(params),
    )


def _through_float32(params: ModelParams) -> ModelParams:
    """``params`` rounded to the float32 a checkpoint stores, so a trained
    model and the same model reloaded predict bit-identically."""
    return params.with_tensors(
        {name: t.astype(np.float32).astype(float) for name, t in params.tensors()}
    )


@dataclass(frozen=True)
class BookPrediction:
    book_id: str
    genre: Genre
    gold: SuccessLabel
    pred: SuccessLabel
    p_successful: float


def _check_featurization_match(params: ModelParams, cfg: TrainConfig) -> None:
    mc = params.config
    if cfg.model.arch != mc.arch:
        raise ValueError(f"checkpoint arch {mc.arch!r} but config says {cfg.model.arch!r}")
    if cfg.model.n_chunks != mc.n_chunks:
        raise ValueError(
            f"checkpoint expects n_chunks={mc.n_chunks}, config has {cfg.model.n_chunks}"
        )
    if cfg.encoder.kind == "hashed" and cfg.encoder.dim != mc.input_dim:
        raise ValueError(
            f"checkpoint expects input_dim={mc.input_dim}, encoder dim is {cfg.encoder.dim}"
        )


def predict_corpus(
    params: ModelParams,
    scaler: ReadabilityScaler | None,
    corpus: CorpusSet,
    cfg: TrainConfig,
) -> list[BookPrediction]:
    """Eval-mode predictions for every book, in corpus order."""
    _check_featurization_match(params, cfg)
    use_readability = params.config.use_readability
    if use_readability and scaler is None:
        raise ValueError("model uses readability but no scaler was provided")
    x, raw = featurize_corpus(corpus, cfg, need_readability=use_readability)
    scaled = _scaled_inputs(raw, scaler if use_readability else None)
    preds = _predict_blocks(params, x, scaled, cfg.batch_size)
    return [
        BookPrediction(
            book_id=record.book_id,
            genre=record.genre,
            gold=record.label,
            pred=label,
            p_successful=prob if label == SuccessLabel.SUCCESSFUL else 1.0 - prob,
        )
        for record, (label, prob) in zip(corpus, preds)
    ]


@dataclass
class EvalReport:
    weighted_f1: float
    per_class_f1: tuple[float, float]  # (Unsuccessful, Successful)
    per_genre_f1: dict[Genre, float]
    confusion: np.ndarray  # rows gold, cols pred; 0 = Unsuccessful
    n: int


def report_from_predictions(predictions: list[BookPrediction]) -> EvalReport:
    preds = [p.pred for p in predictions]
    golds = [p.gold for p in predictions]
    confusion = confusion_counts(preds, golds)
    per_genre: dict[Genre, float] = {}
    for genre in Genre:
        subset = [p for p in predictions if p.genre == genre]
        if subset:
            per_genre[genre] = weighted_f1([p.pred for p in subset], [p.gold for p in subset])
    return EvalReport(
        weighted_f1=weighted_f1(preds, golds),
        per_class_f1=(class_f1(confusion, 0), class_f1(confusion, 1)),
        per_genre_f1=per_genre,
        confusion=confusion,
        n=len(predictions),
    )


def evaluate(
    params: ModelParams,
    scaler: ReadabilityScaler | None,
    test: CorpusSet,
    cfg: TrainConfig,
) -> EvalReport:
    """Weighted F1 overall and per genre, plus the confusion matrix.

    Genres absent from the test set are omitted from per-genre scores.
    """
    return report_from_predictions(predict_corpus(params, scaler, test, cfg))


def majority_baseline(train_set: CorpusSet) -> SuccessLabel:
    """The constant label a majority-class predictor emits: the modal
    training label, ties going to Successful."""
    if len(train_set) == 0:
        raise ValueError("majority baseline needs a nonempty training set")
    n_successful = sum(1 for r in train_set if r.label == SuccessLabel.SUCCESSFUL)
    if n_successful >= len(train_set) - n_successful:
        return SuccessLabel.SUCCESSFUL
    return SuccessLabel.UNSUCCESSFUL


@dataclass
class AttributionReport:
    mean_gradient: np.ndarray  # 5 values, order [FRES, FKG, SMOG, CLI, ARI]
    n_books: int
    target: str  # "logit" | "probability"


def attribute_readability(
    params: ModelParams,
    scaler: ReadabilityScaler,
    test: CorpusSet,
    cfg: TrainConfig,
    target: str = "logit",
) -> AttributionReport:
    """Mean gradient of the Successful output with respect to the 5
    scaled readability inputs over the test books (eval mode)."""
    if not params.config.use_readability:
        raise ValueError("model was trained without readability fusion")
    if scaler is None:
        raise ValueError("model uses readability but no scaler was provided")
    _check_featurization_match(params, cfg)
    x, raw = featurize_corpus(test, cfg, need_readability=True)
    scaled = _scaled_inputs(raw, scaler)
    grads = np.empty((len(test), net.N_READABILITY))
    for block in _blocks(len(test), cfg.batch_size):
        grads[block] = net.readability_output_gradient(
            params, x[block], scaled[block], target=target
        )
    return AttributionReport(
        mean_gradient=grads.sum(axis=0) / len(test), n_books=len(test), target=target
    )


def export_book_vectors(corpus: CorpusSet, cfg: TrainConfig, out_path: str | Path) -> int:
    """Write one averaged embedding vector per book as CSV
    (book_id, genre, then the vector components). Returns the row count."""
    out_path = Path(out_path)
    rows = []
    dim = None
    for record in corpus:
        matrix = _section_matrix(record, cfg)
        vec = book_average(matrix)
        dim = len(vec)
        rows.append((record.book_id, record.genre.value, vec))
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["book_id", "genre"] + [f"v{i}" for i in range(dim or 0)])
        for book_id, genre, vec in rows:
            writer.writerow([book_id, genre] + [f"{v:.9g}" for v in vec])
    return len(rows)


# ----------------------------------------------------------------------
# Report and history serialization
# ----------------------------------------------------------------------


def write_history_csv(history: list[EpochStats], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_weighted_f1"])
        for stats in history:
            writer.writerow(
                [stats.epoch, repr(stats.train_loss), repr(stats.val_weighted_f1)]
            )


def eval_report_csv(report: EvalReport) -> str:
    lines = ["metric,value"]
    lines.append(f"n,{report.n}")
    lines.append(f"weighted_f1,{report.weighted_f1!r}")
    lines.append(f"f1_unsuccessful,{report.per_class_f1[0]!r}")
    lines.append(f"f1_successful,{report.per_class_f1[1]!r}")
    c = report.confusion
    lines.append(f"confusion_gold_unsuccessful_pred_unsuccessful,{int(c[0, 0])}")
    lines.append(f"confusion_gold_unsuccessful_pred_successful,{int(c[0, 1])}")
    lines.append(f"confusion_gold_successful_pred_unsuccessful,{int(c[1, 0])}")
    lines.append(f"confusion_gold_successful_pred_successful,{int(c[1, 1])}")
    for genre in Genre:
        if genre in report.per_genre_f1:
            lines.append(f"genre_f1_{genre.value},{report.per_genre_f1[genre]!r}")
    return "\n".join(lines) + "\n"


def eval_report_text(report: EvalReport) -> str:
    c = report.confusion
    lines = [
        f"books evaluated: {report.n}",
        f"weighted F1: {report.weighted_f1:.4f}",
        f"F1 Unsuccessful: {report.per_class_f1[0]:.4f}",
        f"F1 Successful: {report.per_class_f1[1]:.4f}",
        "confusion (rows gold U/S, cols pred U/S):",
        f"  {int(c[0, 0]):6d} {int(c[0, 1]):6d}",
        f"  {int(c[1, 0]):6d} {int(c[1, 1]):6d}",
    ]
    if report.per_genre_f1:
        lines.append("per-genre weighted F1:")
        for genre in Genre:
            if genre in report.per_genre_f1:
                lines.append(f"  {genre.value:20s} {report.per_genre_f1[genre]:.4f}")
    return "\n".join(lines) + "\n"


def attribution_csv(report: AttributionReport) -> str:
    lines = ["name,value"]
    for name, value in zip(INDEX_NAMES, report.mean_gradient):
        lines.append(f"{name},{float(value)!r}")
    lines.append(f"n_books,{report.n_books}")
    return "\n".join(lines) + "\n"


def attribution_text(report: AttributionReport) -> str:
    lines = [
        f"mean gradient of the Successful {report.target} w.r.t. scaled "
        f"readability inputs ({report.n_books} books):"
    ]
    for name, value in zip(INDEX_NAMES, report.mean_gradient):
        lines.append(f"  {name:5s} {float(value):+.6f}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Featurization metadata stored inside checkpoints so that evaluation
# reuses the training-time featurization exactly.
# ----------------------------------------------------------------------


# Each featurization key stored in a checkpoint and the type its value must have.
_FEATURE_META_TYPES = {
    "section": str,
    "n_chunks": int,
    "encoder_kind": str,
    "encoder_dim": int,
    "encoder_seed": int,
}


def feature_meta(cfg: TrainConfig) -> dict:
    return {
        "section": str(cfg.section),
        "n_chunks": cfg.model.n_chunks,
        "encoder_kind": cfg.encoder.kind,
        "encoder_dim": cfg.encoder.dim,
        "encoder_seed": cfg.encoder.seed,
    }


def config_from_feature_meta(
    meta: dict,
    model_config: ModelConfig,
    semb_dir: Path | None = None,
) -> TrainConfig:
    """The TrainConfig eval needs, rebuilt from a checkpoint's model config
    and featurization metadata; ``semb_dir`` supplies the .semb directory
    for external encoders (it is not stored in checkpoints). A missing
    key, or a value of the wrong type (a bool is not an int here), is a
    ``net.CheckpointError`` that names the key. The model config is the
    one source of ``n_chunks``: a cnn's stored copy must agree with it,
    and a book2vec's is not read (older files store 50 there)."""
    missing = [key for key in _FEATURE_META_TYPES if key not in meta]
    if missing:
        raise net.CheckpointError(
            f"checkpoint featurization metadata lacks {', '.join(missing)}"
        )
    for key, kind in _FEATURE_META_TYPES.items():
        value = meta[key]
        if not isinstance(value, kind) or isinstance(value, bool):
            raise net.CheckpointError(
                f"checkpoint featurization metadata {key} must be {kind.__name__}, "
                f"got {value!r}"
            )
    if model_config.arch == "cnn" and meta["n_chunks"] != model_config.n_chunks:
        raise net.CheckpointError(
            f"checkpoint featurization n_chunks {meta['n_chunks']} differs from "
            f"its model's {model_config.n_chunks}"
        )
    encoder = EncoderConfig(
        kind=meta["encoder_kind"],
        dim=meta["encoder_dim"],
        seed=meta["encoder_seed"],
        directory=semb_dir,
    )
    return TrainConfig(
        section=SectionSpec.parse(meta["section"]), encoder=encoder, model=model_config
    )
