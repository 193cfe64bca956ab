"""End-to-end orchestration: featurization, training with validation
based model selection, evaluation, baselines, and readability
gradient attribution.

One frozen ``TrainConfig`` tree configures a run: the training loop's
own settings, the book section, an ``EncoderConfig`` and a
``net.ModelConfig``. Its field defaults are the only place each default
is written; the CLI derives its ``key=value`` keys from the same fields.

Featurization has one engine, ``section_counts``: it cuts each book to its
section, then tokenizes, counts and, for the hashed encoder, encodes a block
of books at once, and yields each book's counts and vectors or its error.
``featurize_corpus(corpus, cfg)``, which every command that runs a model
calls, and ``bookpred featurize`` read that one stream; ``featurize_book``
is ``featurize_corpus`` of one book.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
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
from .embedding import chunk_average, encode_hashed_bow, load_embeddings
from .metrics import class_f1, confusion_counts, weighted_f1
from .net import N_READABILITY, ModelConfig, ModelParams
from .readability import (
    INDEX_NAMES,
    ReadabilityScaler,
    apply_scaler,
    fit_scaler,
    readability_vector,
)
from .textstats import Sentences, TextCounts, counts_from_sentences, split_sentences

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
    "section_counts",
    "store_row",
    "featurize_corpus",
    "train",
    "predict_corpus",
    "report_from_predictions",
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

_BLOCK_BOOKS = 32  # most books in one text pass, and in one validation, eval or attribution pass
_BLOCK_BYTES = 1 << 18  # a block closes once its books hold more text bytes

STORE_NAME = "featurized.csv"  # in a .semb directory, the stored counts of its books
COUNT_COLUMNS = ["W", "C", "S", "L", "P"]  # the five TextCounts, as readability.csv names them
STORE_COLUMNS = ["book_id", "genre", "label", "semb_path", "n_sentences", "dim",
                 "text_sha256", "section", *COUNT_COLUMNS]


class FeaturizationError(RuntimeError):
    """Raised when one book cannot be turned into model inputs; the
    message names the book."""


class TrainingDivergedError(RuntimeError):
    """Raised when the training loss stops being finite."""


@dataclass(frozen=True)
class EncoderConfig:
    """How sentence vectors are produced: externally computed .semb files
    when ``directory`` is set, otherwise the built-in hashed bag-of-words
    encoder."""

    dim: int = 512
    seed: int = 0
    directory: Path | None = None

    def __post_init__(self) -> None:
        if self.kind == "hashed" and self.dim < 8:
            raise ValueError(f"hashed encoder needs encoder.dim >= 8, got {self.dim}")

    @property
    def kind(self) -> str:
        """``"external"`` with a .semb directory, otherwise ``"hashed"``."""
        return "hashed" if self.directory is None else "external"


@dataclass(frozen=True)
class TrainConfig:
    """Everything a run is configured by. ``model.input_dim`` stays 0 until
    ``train`` sets it from the featurized inputs. Validation, eval and attribution
    predict 32 books a pass, so the batch size sets only the training minibatch."""

    seed: int = 0
    epochs: int = 100
    batch_size: int = 32
    val_fraction: float = 0.2
    section: SectionSpec = field(default_factory=lambda: SectionSpec("first", 1000))
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    model: ModelConfig = field(default_factory=ModelConfig)

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


def _read_section(record: BookRecord, section: SectionSpec) -> Sentences:
    """One book's configured section, segmenting for ``first:K`` only a prefix that holds
    K sentences; none is a ``FeaturizationError``, an unreadable text an ``OSError``."""
    try:
        text = record.text_path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FeaturizationError(
            f"book {record.book_id}: cannot decode text as UTF-8 ({exc})"
        ) from exc
    first = section.k if section.kind == "first" else None
    sentences = select_section(split_sentences(text, first), section)
    if not len(sentences):
        raise FeaturizationError(f"book {record.book_id}: no sentences")
    return sentences


def _section_matrix(record: BookRecord, cfg: TrainConfig) -> np.ndarray:
    """The configured section's rows of one book's .semb matrix, whose dim must be
    ``cfg.model.input_dim`` once a checkpoint, training or a first book sets it."""
    semb_path = cfg.encoder.directory / f"{record.book_id}.semb"
    try:
        matrix = load_embeddings(semb_path)
    except Exception as exc:
        raise FeaturizationError(f"book {record.book_id}: {exc}") from exc
    if not len(matrix):
        raise FeaturizationError(f"book {record.book_id}: empty embedding matrix")
    if cfg.model.input_dim and matrix.shape[1] != cfg.model.input_dim:
        raise FeaturizationError(
            f"book {record.book_id}: {semb_path} has dim {matrix.shape[1]}, "
            f"the model expects input_dim={cfg.model.input_dim}"
        )
    return matrix[cfg.section.as_slice()]


def featurize_book(record: BookRecord, cfg: TrainConfig) -> tuple[np.ndarray, np.ndarray | None]:
    """Model inputs for one book: ``featurize_corpus`` of that book alone."""
    x, readability = featurize_corpus((record,), cfg)
    return x[0], None if readability is None else readability[0]


def _scores(record: BookRecord, counts: TextCounts) -> np.ndarray:
    """A book's readability scores; a book they are undefined for raises."""
    try:
        return readability_vector(counts)
    except ValueError as exc:
        raise FeaturizationError(f"book {record.book_id}: {exc}") from exc


def _section_blocks(corpus: CorpusSet, section: SectionSpec, store: dict):
    """Blocks of consecutive (corpus index, record, section) triples, closed
    after ``_BLOCK_BOOKS`` books or past ``_BLOCK_BYTES`` text bytes. A book's
    ``store`` counts stand in for its section if the row is for ``section`` and
    its text hashes as the row says; its error does, and closes the block."""
    block = []
    held = 0
    for i, record in enumerate(corpus):
        row_section, digest, *counts = store.get(record.book_id, (None, None))
        part = TextCounts(*counts) if counts else None
        try:
            if row_section != section:
                part = _read_section(record, section)
                held += len(part.data)
            elif hashlib.sha256(record.text_path.read_bytes()).hexdigest() != digest:
                raise FeaturizationError(f"book {record.book_id}: text changed since {STORE_NAME} "
                                         "stored its counts; its vectors are of the old text")
        except OSError as exc:
            part = FeaturizationError(f"book {record.book_id}: cannot read text ({exc})")
        except FeaturizationError as exc:
            part = exc
        block.append((i, record, part))
        if isinstance(part, Exception) or len(block) == _BLOCK_BOOKS or held > _BLOCK_BYTES:
            yield block
            block = []
            held = 0
    yield block


def section_counts(corpus: CorpusSet, section: SectionSpec, directory: Path | None = None,
                   encoder: EncoderConfig | None = None, out: np.ndarray | None = None):
    """Each book's ``(counts, rows)``, or its ``FeaturizationError``, in corpus order,
    one block of books at a time; books fail independently. ``counts`` is the book's
    ``TextCounts`` of ``section``: from the store of a .semb ``directory`` if it holds
    them, else counted with the rest of its block at once. ``rows`` is None without an
    ``encoder`` or with an external one. A hashed encoder reads no store and encodes
    each block by one ``encode_hashed_bow`` call: given the caller's (N, n_chunks, dim)
    ``out``, book i's chunk means go into ``out[i]``, which is its ``rows``; without
    ``out``, ``rows`` are the book's own float32 sentence vectors, encoded straight to
    float32. A block's sections and tokens are freed before the next block is read."""
    hashed = encoder is not None and encoder.kind == "hashed"
    path = not hashed and directory and Path(directory) / STORE_NAME
    store = _parse_store(path, path.read_bytes()) if path and path.exists() else {}
    for block in _section_blocks(corpus, section, store):
        parts = [part for _, _, part in block if isinstance(part, Sentences)]
        books, rows = [len(part) for part in parts], [None] * len(parts)
        if parts and hashed:
            tokens = Sentences.join(parts).tokens()
            if out is None:
                vectors = np.empty((len(tokens), encoder.dim), np.float32)
                encode_hashed_bow(tokens, encoder.dim, encoder.seed, out=vectors)
                rows = [book.copy() for book in np.split(vectors, np.cumsum(books[:-1]))]
                del vectors  # a copy each, so a held book keeps no block alive
            else:  # a hashed block's books are consecutive, from its first
                rows = out[block[0][0] : block[0][0] + len(parts)]
                encode_hashed_bow(tokens, encoder.dim, encoder.seed, out.shape[1], books, rows)
            counted = list(zip(counts_from_sentences(tokens, books), rows))
            del tokens
        else:
            counted = list(zip(Sentences.join(parts).counts(books) if parts else [], rows))
        del parts, rows  # the block's sections go before the next block is read
        block[:] = [counted.pop(0) if isinstance(part, Sentences) else
                    (part, None) if isinstance(part, TextCounts) else part for _, _, part in block]
        while block:  # a yielded book's rows are the caller's alone
            yield block.pop(0)


def store_row(record: BookRecord, semb_path, dim, section, counts) -> list:
    """A book's store row: its ``counts`` of ``section``, pinned by the sha256
    of its text file as it is now, beside its vectors' path and dim."""
    digest = hashlib.sha256(record.text_path.read_bytes()).hexdigest()
    return [record.book_id, record.genre.value, record.label.value, str(semb_path),
            counts.sentences, dim, digest, str(section), *vars(counts).values()]


@functools.lru_cache(maxsize=4)
def _parse_store(path: Path, data: bytes) -> dict:
    """book_id -> (section, text_sha256, W, C, S, L, P) of each row of the store
    ``data`` read from ``path``; a fault is a ``ValueError`` naming the line."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: line {data[: exc.start].count(10) + 1}: {exc}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    rows: dict = {}
    section_of = functools.cache(functools.partial(net.from_json, "section", SectionSpec))
    try:
        if next(reader, []) != STORE_COLUMNS:
            raise ValueError(f"a store's header is {','.join(STORE_COLUMNS)}")
        for row in filter(None, reader):  # a blank line is no row
            if len(row) != len(STORE_COLUMNS) or row[0] in rows:
                raise ValueError("wrong number of fields, or a repeated book_id")
            book_id, _, _, _, _, _, digest, section, *counts = row
            counts = list(map(int, counts))
            if min(counts) < 0:
                raise ValueError(f"negative count in {counts}")
            rows[book_id] = (section_of(section), digest, *counts)
    except (ValueError, csv.Error) as exc:
        raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    return rows


def featurize_corpus(
    corpus: CorpusSet, cfg: TrainConfig
) -> tuple[np.ndarray, np.ndarray | None]:
    """Model inputs for every book, in corpus order: one (N, n_chunks, dim)
    array of the sections' chunk averages ((N, dim) for book2vec, whose config
    fixes one chunk), plus the (N, 5) raw readability scores if ``cfg.model``
    fuses them (else None). One pass over ``section_counts`` gives both: a
    hashed encoder's into a preallocated array, an external one's from each
    book's .semb file, loaded before the book's own error is raised. An
    external encoder without readability reads no text. A book-by-book pass
    would raise the same first error."""
    n_chunks, enc = cfg.model.n_chunks, cfg.encoder
    readability = np.empty((len(corpus), N_READABILITY)) if cfg.model.use_readability else None
    x = np.empty((len(corpus), n_chunks, enc.dim)) if enc.kind == "hashed" and corpus else None
    stream = [None] * len(corpus)
    if enc.kind == "hashed" or readability is not None:
        stream = section_counts(corpus, cfg.section, enc.directory, enc, x)
    for i, (record, item) in enumerate(zip(corpus, stream)):  # a malformed store raises first
        if enc.kind == "external":
            means = chunk_average(_section_matrix(record, cfg), n_chunks)
            if x is None:  # the first book's dim is every later book's
                x = np.empty((len(corpus),) + means.shape)
                cfg = replace(cfg, model=replace(cfg.model, input_dim=means.shape[-1]))
            x[i] = means
        if isinstance(item, FeaturizationError):
            raise item
        if readability is not None:
            readability[i] = _scores(record, item[0])
    if x is None:
        return np.zeros((0,)), readability
    return (x[:, 0] if cfg.model.arch == "book2vec" else x), readability


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


def _blocks(n: int, size: int, first: int = 0):
    return (slice(start, start + size) for start in range(first, n, size))


def _predict_blocks(params: ModelParams, x, scaled, first) -> list[tuple[SuccessLabel, float]]:
    """Eval-mode (label, probability) for the books of ``x`` from row ``first`` on, with their
    ``scaled`` readability rows (or None), in order, one pass per ``_BLOCK_BOOKS`` books."""
    return [pred for b in _blocks(len(x), _BLOCK_BOOKS, first)
            for pred in net.predict(params, x[b], None if scaled is None else scaled[b])]


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
    n_train = len(train_set)  # the inputs' first n_train rows train, the rest validate

    x, raw = featurize_corpus(train_set + val_set, cfg)
    model_cfg = replace(cfg.model, input_dim=x.shape[-1])
    scaler = fit_scaler(raw[:n_train]) if cfg.model.use_readability else None
    scaled = None if scaler is None else apply_scaler(scaler, raw)

    root = np.random.SeedSequence(cfg.seed)
    init_ss, shuffle_ss, dropout_ss = root.spawn(3)
    params = net.init_params(model_cfg, seed=int(init_ss.generate_state(1)[0]))
    rng_shuffle = np.random.default_rng(shuffle_ss)
    rng_dropout = np.random.default_rng(dropout_ss)
    adam = net.AdamState.zeros(params)

    y = [r.label for r in train_set + val_set]

    history: list[EpochStats] = []
    best_f1 = -1.0
    best_epoch = 0
    best_params = params.copy()

    for epoch in range(1, cfg.epochs + 1):
        order = rng_shuffle.permutation(n_train)
        epoch_losses: list[np.ndarray] = []
        for batch in _blocks(n_train, cfg.batch_size):
            rows = order[batch]
            labels = [y[i] for i in rows]
            logits, cache = net.forward(
                params, x, scaled, train_mode=True, rng=rng_dropout, rows=rows
            )
            epoch_losses.append(net.loss(logits, labels))
            grads, _ = net.backward(params, cache, labels)
            if not all(np.isfinite(g).all() for g in grads.values()):
                raise TrainingDivergedError(f"non-finite gradients at epoch {epoch}")
            params, adam = net.adam_step(params, grads, adam)

        train_loss = float(np.mean(np.concatenate(epoch_losses)))
        if not np.isfinite(train_loss):
            raise TrainingDivergedError(f"non-finite training loss at epoch {epoch}")
        val_preds = _predict_blocks(params, x, scaled, n_train)
        val_f1 = weighted_f1([label for label, _ in val_preds], y[n_train:])
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
    tensors = {name: t.astype(np.float32).astype(float) for name, t in params.tensors()}
    return ModelParams.from_tensors(params.config, tensors)


@dataclass(frozen=True)
class BookPrediction:
    book_id: str
    genre: Genre
    gold: SuccessLabel
    pred: SuccessLabel
    p_successful: float


def _eval_batches(
    params: ModelParams,
    scaler: ReadabilityScaler | None,
    corpus: CorpusSet,
    cfg: TrainConfig,
):
    """The inputs ``params`` takes, one block of ``_BLOCK_BOOKS`` books at a
    time, in corpus order: yields each block's featurized books and its
    scaled readability rows (None when the model fuses no readability).
    The model's own config, not ``cfg.model``, decides the arch and the
    chunk count. Only one block is featurized at a time, so memory is
    bounded by the block, not the corpus."""
    mc = params.config
    if cfg.encoder.kind == "hashed" and cfg.encoder.dim != mc.input_dim:
        raise ValueError(
            f"checkpoint expects input_dim={mc.input_dim}, encoder dim is {cfg.encoder.dim}"
        )
    if mc.use_readability and scaler is None:
        raise ValueError("model uses readability but no scaler was provided")
    cfg = replace(cfg, model=mc)
    for block in _blocks(len(corpus), _BLOCK_BOOKS):
        x, raw = featurize_corpus(corpus[block], cfg)
        yield x, (apply_scaler(scaler, raw) if mc.use_readability else None)


def predict_corpus(
    params: ModelParams,
    scaler: ReadabilityScaler | None,
    corpus: CorpusSet,
    cfg: TrainConfig,
) -> list[BookPrediction]:
    """Eval-mode predictions for every book, in corpus order."""
    batches = _eval_batches(params, scaler, corpus, cfg)
    preds = [pred for x, scaled in batches for pred in net.predict(params, x, scaled)]
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
    """Weighted F1 overall and per genre, plus the confusion matrix.

    Genres absent from the predictions are omitted from per-genre scores.
    """
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
    """Mean gradient of the Successful output with respect to the 5 scaled
    readability inputs over the test books (eval mode)."""
    if not params.config.use_readability:
        raise ValueError("model was trained without readability fusion")
    if len(test) == 0:
        raise ValueError("attribution needs at least one book")
    grads = np.concatenate([
        net.readability_output_gradient(params, x, scaled, target=target)
        for x, scaled in _eval_batches(params, scaler, test, cfg)
    ])
    return AttributionReport(
        mean_gradient=grads.sum(axis=0) / len(test), n_books=len(test), target=target
    )


def export_book_vectors(corpus: CorpusSet, cfg: TrainConfig, out_path: str | Path) -> int:
    """Write one averaged embedding vector per book as CSV
    (book_id, genre, then the vector components): the book2vec inputs of
    ``cfg``'s section and encoder. Returns the row count."""
    x, _ = featurize_corpus(corpus, replace(cfg, model=ModelConfig(arch="book2vec")))
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["book_id", "genre"] + [f"v{i}" for i in range(x.shape[-1])])
        for record, vec in zip(corpus, x):
            writer.writerow([record.book_id, record.genre.value] + [f"{v:.9g}" for v in vec])
    return len(corpus)


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
    and featurization metadata; ``semb_dir`` supplies the .semb directory an
    external encoder needs (it is not stored in checkpoints) and is not used for
    a hashed one. Each value is stored under its config key with ``_`` for ``.``
    and read by ``net.from_json``; a missing, mistyped or rejected one is a
    ``net.CheckpointError`` naming its key. A hashed ``encoder_dim`` and a cnn's ``n_chunks``
    must be the model's own; a book2vec's ``n_chunks`` is not checked (older files store 50)."""
    stored = feature_meta(TrainConfig())
    missing = [key for key in stored if key not in meta]
    if missing:
        raise net.CheckpointError(f"checkpoint featurization metadata lacks {', '.join(missing)}")
    kind = meta["encoder_kind"]
    if kind not in ("hashed", "external"):
        raise net.CheckpointError(f"checkpoint featurization encoder_kind {kind!r} is unknown")
    if kind == "external" and semb_dir is None:
        raise ValueError("external encoder needs a directory of .semb files")
    try:
        section = net.from_json("section", SectionSpec, meta["section"])
        n_chunks = net.from_json("n_chunks", int, meta["n_chunks"])
        dim = net.from_json("encoder_dim", int, meta["encoder_dim"])
        seed = net.from_json("encoder_seed", int, meta["encoder_seed"])
        if model_config.arch == "cnn" and n_chunks != model_config.n_chunks:
            raise ValueError(f"n_chunks {n_chunks} is not its model's {model_config.n_chunks}")
        if kind == "hashed" and model_config.input_dim and dim != model_config.input_dim:
            raise ValueError(f"encoder_dim {dim} is not its model's input_dim "
                             f"{model_config.input_dim}")
        if kind == "hashed" and dim < 8:  # EncoderConfig's own message names the CLI key
            raise ValueError(f"hashed encoder needs encoder_dim >= 8, got {dim}")
        encoder = EncoderConfig(dim, seed, semb_dir if kind == "external" else None)
    except ValueError as exc:
        raise net.CheckpointError(f"bad checkpoint featurization: {exc}") from None
    return TrainConfig(section=section, encoder=encoder, model=model_config)
