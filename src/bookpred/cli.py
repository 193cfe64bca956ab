"""Command-line interface.

Subcommands: readability, featurize, train, eval, mcnemar, attribute,
export-vectors. Options can come from a key=value config file
(``--config``, ``#`` comments allowed) merged with command-line flags;
flags win, unknown keys are errors. The keys are the dotted field paths
of ``pipeline.TrainConfig`` (``epochs``, ``encoder.dim``,
``model.dropout_p``, ...), each parsed by its field's type. Exit codes:
0 success, 1 input error, 2 internal or numeric error.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

from . import net, pipeline
from .corpus import ManifestError, SectionSpec, SuccessLabel, load_corpus
from .embedding import SembError, encode_hashed_bow, write_embeddings
from .metrics import mcnemar
from .pipeline import FeaturizationError, TrainConfig, TrainingDivergedError
from .readability import INDEX_NAMES, readability_vector
from .textstats import compute_counts, counts_from_sentences

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INTERNAL = 2

_READABILITY_HEADER = ["book_id", "W", "C", "S", "L", "P"] + list(INDEX_NAMES)


class ConfigError(ValueError):
    pass


def _parse_config_file(path: Path) -> dict[str, str]:
    values: dict[str, str] = {}
    for line_no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{line_no}: expected key=value, got {line!r}")
        values[key.strip()] = value.strip()
    return values


def _parse_bool(text: str) -> bool:
    if text.lower() in ("true", "1", "yes"):
        return True
    if text.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"expected true/false, got {text!r}")


# How a config value of each leaf field type is read from text; a
# dataclass field of any other type is a sub-config whose fields are keys.
_PARSERS = {
    int: int,
    float: float,
    str: str,
    bool: _parse_bool,
    Path | None: Path,
    SectionSpec: SectionSpec.parse,
    tuple[int, ...]: lambda text: tuple(int(w) for w in text.split(",") if w.strip()),
}


def config_keys(cls=TrainConfig, prefix: str = "") -> dict[str, type]:
    """Every config key (the dotted path of a leaf field of ``TrainConfig``)
    and its type. ``model.input_dim`` is no key: training sets it."""
    keys: dict[str, type] = {}
    for name, kind in typing.get_type_hints(cls).items():
        key = prefix + name
        if kind not in _PARSERS:
            keys.update(config_keys(kind, key + "."))
        elif key != "model.input_dim":
            keys[key] = kind
    return keys


def _merged_options(args: argparse.Namespace) -> dict[str, str]:
    """Config file values, overridden by repeated --set key=value flags,
    then by the dedicated flags."""
    values: dict[str, str] = {}
    if getattr(args, "config", None):
        values.update(_parse_config_file(Path(args.config)))
    for item in getattr(args, "overrides", None) or []:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--set needs key=value, got {item!r}")
        values[key.strip()] = value.strip()
    unknown = set(values) - set(config_keys())
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    flags = {
        "seed": getattr(args, "seed", None),
        "section": getattr(args, "section", None),
        "model.arch": getattr(args, "model", None),
        "encoder.directory": getattr(args, "semb_dir", None),
    }
    values.update({key: str(value) for key, value in flags.items() if value is not None})
    return values


def _with_options(cfg, options: dict[str, str], prefix: str = ""):
    """``cfg`` with every option under ``prefix`` parsed by its field type;
    each sub-config is rebuilt once, with all of its options applied, so
    its own checks see the final values."""
    changes = {}
    for name, kind in typing.get_type_hints(type(cfg)).items():
        key = prefix + name
        if kind not in _PARSERS:
            changes[name] = _with_options(getattr(cfg, name), options, key + ".")
        elif key in options:
            try:
                changes[name] = _PARSERS[kind](options[key])
            except ValueError as exc:
                raise ConfigError(f"{key}: {exc}") from None
    return replace(cfg, **changes)


def build_train_config(args: argparse.Namespace) -> TrainConfig:
    """``TrainConfig()`` with the config file, ``--set`` and flag values applied."""
    return _with_options(TrainConfig(), _merged_options(args))


def _featurize_config(args: argparse.Namespace) -> TrainConfig:
    """The config of a command that builds no model (featurize,
    export-vectors): ``model.*`` keys are accepted but not applied, so a
    model setting that only training would reject cannot stop it."""
    options = {k: v for k, v in _merged_options(args).items() if not k.startswith("model.")}
    return _with_options(TrainConfig(), options)


def cmd_readability(args: argparse.Namespace) -> int:
    writer = csv.writer(sys.stdout)
    writer.writerow(_READABILITY_HEADER)
    for path_text in args.paths:
        path = Path(path_text)
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: cannot decode text as UTF-8 ({exc})") from exc
        writer.writerow(_counts_row(path.stem, compute_counts(text)))
    return EXIT_OK


def _counts_row(book_id: str, counts) -> list[str]:
    row = [
        book_id,
        str(counts.words),
        str(counts.characters),
        str(counts.sentences),
        str(counts.syllables),
        str(counts.polysyllables),
    ]
    if counts.words > 0 and counts.sentences > 0:
        row += [repr(v) for v in readability_vector(counts).tolist()]
    else:
        row += ["NA"] * len(INDEX_NAMES)
    return row


def _featurize_one(task) -> tuple[list, list] | str:
    """Worker: featurize one book and write its .semb file.

    Returns the book's readability.csv and featurized.csv rows, or its
    error message; books fail independently.
    """
    record, encoder, section, out_dir = task
    try:
        tokens = pipeline.section_tokens(record, section)
        matrix = encode_hashed_bow(tokens, dim=encoder.dim, seed=encoder.seed)
        semb_path = Path(out_dir) / f"{record.book_id}.semb"
        write_embeddings(matrix, semb_path)
        readability_row = _counts_row(record.book_id, counts_from_sentences(tokens))
    except Exception as exc:  # noqa: BLE001 - worker reports, parent decides
        return str(exc)
    featurized_row = [record.book_id, record.genre.value, record.label.value,
                      str(semb_path), len(tokens), encoder.dim]
    return readability_row, featurized_row


def cmd_featurize(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise ConfigError("--jobs must be >= 1")
    cfg = _featurize_config(args)
    if cfg.encoder.kind != "hashed":
        print("featurize produces .semb files and only supports the hashed encoder",
              file=sys.stderr)
        return EXIT_INPUT
    corpus = load_corpus(args.manifest)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    tasks = [(record, cfg.encoder, cfg.section, str(out_dir)) for record in corpus]
    if args.jobs == 1:
        results = [_featurize_one(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_featurize_one, tasks))

    failures = []
    with (
        open(out_dir / "readability.csv", "w", encoding="utf-8", newline="") as r_fh,
        open(out_dir / "featurized.csv", "w", encoding="utf-8", newline="") as f_fh,
    ):
        readability_csv, featurized_csv = csv.writer(r_fh), csv.writer(f_fh)
        readability_csv.writerow(_READABILITY_HEADER)
        featurized_csv.writerow(["book_id", "genre", "label", "semb_path", "n_sentences", "dim"])
        for record, result in zip(corpus, results):
            if isinstance(result, str):
                failures.append((record.book_id, result))
                continue
            readability_row, featurized_row = result
            readability_csv.writerow(readability_row)
            featurized_csv.writerow(featurized_row)

    print(f"featurized {len(corpus) - len(failures)} of {len(corpus)} books into {out_dir}")
    for book_id, err in failures:
        print(f"failed {book_id}: {err}", file=sys.stderr)
    return EXIT_INPUT if failures else EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    cfg = build_train_config(args)
    corpus = load_corpus(args.manifest)
    result = pipeline.train(corpus, cfg)
    net.save_checkpoint(
        args.out, result.params, result.scaler, extra=pipeline.feature_meta(cfg)
    )
    if args.history:
        pipeline.write_history_csv(result.history, args.history)
    best = result.history[result.best_epoch - 1]
    print(
        f"trained {cfg.model.arch} for {cfg.epochs} epochs; "
        f"best epoch {result.best_epoch} (val weighted F1 {best.val_weighted_f1:.4f}); "
        f"checkpoint {args.out}"
    )
    return EXIT_OK


def _load_eval_inputs(args: argparse.Namespace):
    params, scaler, meta = net.load_checkpoint(args.checkpoint)
    semb_dir = Path(args.semb_dir) if getattr(args, "semb_dir", None) else None
    cfg = pipeline.config_from_feature_meta(meta, params.config, semb_dir=semb_dir)
    corpus = load_corpus(args.manifest)
    return params, scaler, cfg, corpus


def cmd_eval(args: argparse.Namespace) -> int:
    params, scaler, cfg, corpus = _load_eval_inputs(args)
    predictions = pipeline.predict_corpus(params, scaler, corpus, cfg)
    report = pipeline.report_from_predictions(predictions)
    if args.out:
        Path(args.out).write_text(pipeline.eval_report_csv(report), encoding="utf-8")
    if args.preds:
        with open(args.preds, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["book_id", "gold", "pred", "p_successful"])
            for p in predictions:
                writer.writerow(
                    [p.book_id, p.gold.value, p.pred.value, repr(p.p_successful)]
                )
    sys.stdout.write(pipeline.eval_report_text(report))
    return EXIT_OK


def _read_predictions(path: str) -> tuple[list[str], list[SuccessLabel], list[SuccessLabel]]:
    ids: list[str] = []
    golds: list[SuccessLabel] = []
    preds: list[SuccessLabel] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        needed = {"book_id", "gold", "pred"}
        if not needed.issubset(set(reader.fieldnames or [])):
            raise ValueError(f"{path}: prediction CSV needs columns {sorted(needed)}")
        for row in reader:
            ids.append(row["book_id"])
            golds.append(SuccessLabel.parse(row["gold"]))
            preds.append(SuccessLabel.parse(row["pred"]))
    return ids, golds, preds


def cmd_mcnemar(args: argparse.Namespace) -> int:
    ids_a, golds_a, preds_a = _read_predictions(args.preds_a)
    ids_b, golds_b, preds_b = _read_predictions(args.preds_b)
    if ids_a != ids_b:
        raise ValueError("prediction files cover different books (or a different order)")
    if golds_a != golds_b:
        raise ValueError("prediction files disagree on gold labels")
    result = mcnemar(preds_a, preds_b, golds_a)
    lines = [
        f"b (A right, B wrong): {result.b}",
        f"c (A wrong, B right): {result.c}",
        f"statistic: {result.statistic!r}",
        f"p_value: {result.p_value!r}",
    ]
    print("\n".join(lines))
    if args.out:
        csv_text = "metric,value\n" + "\n".join(
            [
                f"b,{result.b}",
                f"c,{result.c}",
                f"statistic,{result.statistic!r}",
                f"p_value,{result.p_value!r}",
            ]
        ) + "\n"
        Path(args.out).write_text(csv_text, encoding="utf-8")
    return EXIT_OK


def cmd_attribute(args: argparse.Namespace) -> int:
    params, scaler, cfg, corpus = _load_eval_inputs(args)
    report = pipeline.attribute_readability(params, scaler, corpus, cfg, target=args.target)
    if args.out:
        Path(args.out).write_text(pipeline.attribution_csv(report), encoding="utf-8")
    sys.stdout.write(pipeline.attribution_text(report))
    return EXIT_OK


def cmd_export_vectors(args: argparse.Namespace) -> int:
    cfg = _featurize_config(args)
    corpus = load_corpus(args.manifest)
    n = pipeline.export_book_vectors(corpus, cfg, args.out)
    print(f"wrote {n} book vectors to {args.out}")
    return EXIT_OK


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        metavar="KEY=VALUE",
        help="override one config key (repeatable)",
    )
    parser.add_argument("--seed", type=int, help="master random seed")
    parser.add_argument("--section", help="book section: first:K, last:K, or full")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bookpred",
        description="Book success prediction from chunked sentence embeddings "
        "and readability indices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("readability", help="readability counts and indices per file")
    p.add_argument("paths", nargs="+", help="UTF-8 text files")
    p.set_defaults(func=cmd_readability)

    p = sub.add_parser("featurize", help="write per-book .semb files and readability CSV")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                   help="worker processes (default: one per CPU)")
    _add_config_flags(p)
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("train", help="train a classifier and write a checkpoint")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="checkpoint path (.bpmd)")
    p.add_argument("--history", help="write per-epoch history CSV here")
    p.add_argument("--model", choices=["cnn", "book2vec"])
    p.add_argument("--semb-dir", help="use externally computed .semb files from this directory")
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a manifest")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", help="report CSV path")
    p.add_argument("--preds", help="per-book predictions CSV path")
    p.add_argument("--semb-dir", help=".semb directory for external-encoder checkpoints")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("mcnemar", help="paired significance test on two prediction files")
    p.add_argument("preds_a")
    p.add_argument("preds_b")
    p.add_argument("--out", help="result CSV path")
    p.set_defaults(func=cmd_mcnemar)

    p = sub.add_parser("attribute", help="readability gradient attribution")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", help="attribution CSV path")
    p.add_argument("--target", choices=["logit", "probability"], default="logit")
    p.add_argument("--semb-dir", help=".semb directory for external-encoder checkpoints")
    p.set_defaults(func=cmd_attribute)

    p = sub.add_parser("export-vectors", help="averaged book embeddings as CSV")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--semb-dir", help="use externally computed .semb files from this directory")
    _add_config_flags(p)
    p.set_defaults(func=cmd_export_vectors)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        ManifestError,
        FeaturizationError,
        SembError,
        net.CheckpointError,
        ConfigError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except TrainingDivergedError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # noqa: BLE001 - last-resort internal error
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
