"""Command-line interface.

Subcommands: readability, featurize, train, eval, mcnemar, attribute,
export-vectors. Options can come from a key=value config file (``--config``,
``#`` comments allowed) merged with command-line flags; flags win, unknown
keys are errors. The keys are the dotted field paths of ``pipeline.TrainConfig``
(``epochs``, ``encoder.dim``, ...), each parsed by its type's entry in
``net.LEAF_TYPES``. Errors in a checkpoint's featurization name the
checkpoint. Exit codes: 0 success, 1 input error, 2 internal or numeric error.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
from pathlib import Path

from . import net, pipeline
from .corpus import SuccessLabel, load_corpus
from .embedding import SembError, csv_lines, read_text, write_atomically, write_embeddings
from .metrics import mcnemar
from .pipeline import FeaturizationError, TrainConfig, TrainingDivergedError, section_counts
from .readability import INDEX_NAMES, readability_vector
from .textstats import compute_counts

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INTERNAL = 2

_READABILITY_HEADER = ["book_id", *pipeline.COUNT_COLUMNS, *INDEX_NAMES]


class ConfigError(ValueError):
    pass


def _parse_config_file(path: Path) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        text = read_text(path)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    for line_no, line in enumerate(text.split("\n"), 1):  # lines as read_text numbers them
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise ConfigError(f"{path}: line {line_no}: expected key=value, got {stripped!r}")
        values[key.strip()] = value.strip()
    return values


def config_keys() -> dict[str, type]:
    """Every config key (the dotted path of a leaf field of ``TrainConfig``)
    and its type. ``model.input_dim`` is no key: training sets it."""
    keys: dict[str, type] = {}
    net.build_config(TrainConfig, lambda key, kind: keys.update({key: kind}))  # records each leaf
    del keys["model.input_dim"]
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


def _config(options: dict[str, str]) -> TrainConfig:
    """``TrainConfig()`` with each option parsed by its field's type."""

    def read(key, kind):
        try:
            return net.LEAF_TYPES[kind][0](options[key]) if key in options else None
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from None

    return net.build_config(TrainConfig, read)


def build_train_config(args: argparse.Namespace) -> TrainConfig:
    """``TrainConfig()`` with the config file, ``--set`` and flag values applied."""
    return _config(_merged_options(args))


def _featurize_config(args: argparse.Namespace) -> TrainConfig:
    """The config of a command that builds no model (featurize,
    export-vectors): ``model.*`` keys are accepted but not applied, so a
    model setting that only training would reject cannot stop it."""
    return _config({k: v for k, v in _merged_options(args).items() if not k.startswith("model.")})


def cmd_readability(args: argparse.Namespace) -> int:
    writer = csv.writer(sys.stdout)
    writer.writerow(_READABILITY_HEADER)
    writer.writerows(_counts_row(Path(p).stem, compute_counts(read_text(p, universal_newlines=True)))
                     for p in args.paths)
    return EXIT_OK


def _counts_row(book_id: str, counts) -> list:
    row = [book_id, *vars(counts).values()]
    if counts.words > 0 and counts.sentences > 0:
        return row + [repr(v) for v in readability_vector(counts).tolist()]
    return row + ["NA"] * len(INDEX_NAMES)


def _featurize_slice(books, cfg: TrainConfig, out_dir: Path) -> list:
    """Worker: write a corpus slice's hashed .semb files, if any, into ``out_dir``,
    and return each book's readability.csv and featurized.csv rows, or its error
    message; books fail independently."""
    results = []
    for record, item in zip(books, section_counts(books, cfg.section, encoder=cfg.encoder)):
        try:
            if isinstance(item, FeaturizationError):
                raise item
            counts, rows = item
            semb_path = (cfg.encoder.directory or out_dir) / f"{record.book_id}.semb"
            if rows is not None:
                write_embeddings(rows, semb_path)
            dim = "" if rows is None else cfg.encoder.dim
            store_row = pipeline.store_row(record, semb_path, dim, cfg.section, counts)
            results.append((_counts_row(record.book_id, counts), store_row))
        except Exception as exc:  # noqa: BLE001 - worker reports, parent decides
            results.append(str(exc))
    return results


def cmd_featurize(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise ConfigError("--jobs must be >= 1")
    cfg = _featurize_config(args)
    corpus = load_corpus(args.manifest)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    size = -(-len(corpus) // args.jobs) or 1  # books per slice: at most --jobs slices
    slices = [corpus[i : i + size] for i in range(0, len(corpus), size)]
    work = (_featurize_slice, slices, [cfg] * len(slices), [out_dir] * len(slices))
    if len(slices) < 2:
        results = list(map(*work))
    else:
        from concurrent.futures import ProcessPoolExecutor  # only a pool pays for its import

        with ProcessPoolExecutor(max_workers=min(len(slices), os.cpu_count() or 1)) as pool:
            results = list(pool.map(*work))

    results = [x for slice_results in results for x in slice_results]
    failures = [(r.book_id, x) for r, x in zip(corpus, results) if isinstance(x, str)]
    written = [x for x in results if not isinstance(x, str)]
    files = [list(csv_lines(rows[0], rows[1:]))  # both files are made before either is replaced
             for rows in zip([_READABILITY_HEADER, pipeline.STORE_COLUMNS], *written)]
    for lines, name in zip(files, ["readability.csv", pipeline.STORE_NAME]):
        write_atomically(out_dir / name, lines)

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
    try:
        cfg = pipeline.config_from_feature_meta(meta, params.config, semb_dir=semb_dir)
    except net.CheckpointError as exc:
        raise net.CheckpointError(f"{args.checkpoint}: {exc}") from None
    except ValueError as exc:  # an external encoder's checkpoint, run without its vectors
        raise ValueError(f"{args.checkpoint}: {exc}; pass them with --semb-dir") from None
    corpus = load_corpus(args.manifest)
    return params, scaler, cfg, corpus


def cmd_eval(args: argparse.Namespace) -> int:
    params, scaler, cfg, corpus = _load_eval_inputs(args)
    predictions = pipeline.predict_corpus(params, scaler, corpus, cfg)
    report = pipeline.report_from_predictions(predictions)
    if args.out:
        write_atomically(args.out, [pipeline.eval_report_csv(report).encode("utf-8")])
    if args.preds:
        rows = ([p.book_id, p.gold.value, p.pred.value, repr(p.p_successful)] for p in predictions)
        write_atomically(args.preds, csv_lines(["book_id", "gold", "pred", "p_successful"], rows))
    sys.stdout.write(pipeline.eval_report_text(report))
    return EXIT_OK


def _read_predictions(path: str) -> tuple[list[str], list[SuccessLabel], list[SuccessLabel]]:
    ids: list[str] = []
    golds: list[SuccessLabel] = []
    preds: list[SuccessLabel] = []
    seen: set[str] = set()
    reader = csv.DictReader(io.StringIO(read_text(path), newline=""))
    needed = {"book_id", "gold", "pred"}
    try:
        if not needed.issubset(set(reader.fieldnames or [])):
            raise ValueError(f"{path}: prediction CSV needs columns {sorted(needed)}")
        for row in reader:
            try:
                if None in row or None in row.values():
                    raise ValueError("wrong number of fields")
                if row["book_id"] in seen:
                    raise ValueError(f"repeated book_id {row['book_id']!r}")
                seen.add(row["book_id"])
                ids.append(row["book_id"])
                golds.append(SuccessLabel.parse(row["gold"]))
                preds.append(SuccessLabel.parse(row["pred"]))
            except ValueError as exc:
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    except csv.Error as exc:
        raise ValueError(f"{path}: after line {reader.line_num}: {exc}") from None
    return ids, golds, preds


def cmd_mcnemar(args: argparse.Namespace) -> int:
    ids_a, golds_a, preds_a = _read_predictions(args.preds_a)
    ids_b, golds_b, preds_b = _read_predictions(args.preds_b)
    if ids_a != ids_b:
        raise ValueError("prediction files cover different books (or a different order)")
    if golds_a != golds_b:
        raise ValueError("prediction files disagree on gold labels")
    result = mcnemar(preds_a, preds_b, golds_a)
    rows = [(name, getattr(result, name)) for name in ("b", "c", "statistic", "p_value")]
    glosses = {"b": "b (A right, B wrong)", "c": "c (A wrong, B right)"}
    print("\n".join(f"{glosses.get(name, name)}: {value!r}" for name, value in rows))
    if args.out:
        write_atomically(args.out, [pipeline.name_value_csv("metric", rows).encode("utf-8")])
    return EXIT_OK


def cmd_attribute(args: argparse.Namespace) -> int:
    params, scaler, cfg, corpus = _load_eval_inputs(args)
    report = pipeline.attribute_readability(params, scaler, corpus, cfg, target=args.target)
    if args.out:
        write_atomically(args.out, [pipeline.attribution_csv(report).encode("utf-8")])
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

    p = sub.add_parser("featurize", help="write readability.csv, featurized.csv, hashed .semb")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--jobs", type=int, default=1,
                   help="slices of the books, run on at most one worker process per CPU; "
                   "1 (the default) starts no pool")
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
    except (FeaturizationError, SembError, net.CheckpointError, ValueError, OSError) as exc:
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
