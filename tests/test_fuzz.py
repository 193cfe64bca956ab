"""Fuzzed inputs: truncated, bit-flipped and garbage bytes given to the
six file readers, random JSON in a checkpoint's metadata, and random
strings given to every config key raise only their documented error
classes, and the CLI exits 1 on them."""

import contextlib
import csv
import io
import json
import struct
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bookpred import cli, net, pipeline
from bookpred.corpus import BookRecord, Genre, ManifestError, SectionSpec, SuccessLabel, load_corpus
from bookpred.embedding import SembError, load_embeddings, read_text, write_embeddings
from bookpred.net import CheckpointError, ModelConfig
from bookpred.pipeline import EncoderConfig, TrainConfig
from bookpred.readability import ReadabilityScaler
from bookpred.textstats import compute_counts

MANIFEST = (
    "book_id,genre,avg_rating,n_ratings,label,text_path\n"
    "a,Fiction,4.2,10,,a.txt\n"
    "b,Poetry,,3,Unsuccessful,texts/b.txt\n"
    '"c, quoted",Drama,2.0,0,Unsuccessful,"c\n.txt"\n'
)

PREDS = (
    "book_id,gold,pred,p_successful\n"
    "a,Successful,Successful,0.9\n"
    '"b, quoted",Unsuccessful,Successful,0.6\n'
)
CONFIG = "# run.cfg\nepochs=2\r\nencoder.dim=64\n\nsection = first:9\n"

# Metadata nested deeper than the JSON decoder's recursion limit.
DEEP_META = b"[" * 100_000


def _checkpoint_with_meta(meta: bytes) -> bytes:
    return struct.pack("<4sII", net.CHECKPOINT_MAGIC, net.CHECKPOINT_VERSION, len(meta)) + meta


def _valid_files() -> dict[str, bytes]:
    """One small valid input per reader, as bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_embeddings(np.random.default_rng(0).standard_normal((3, 4)), root / "x.semb")
        model = ModelConfig(
            input_dim=4, window_sizes=(2, 3), filters_per_window=2, hidden_units=3, n_chunks=5
        )
        cfg = TrainConfig(encoder=EncoderConfig(dim=8), model=model)
        net.save_checkpoint(
            root / "m.bpmd",
            net.init_params(model, seed=0),
            ReadabilityScaler(mean=np.zeros(5), std=np.ones(5)),
            extra=pipeline.feature_meta(cfg),
        )
        store = io.StringIO(newline="")
        csv.writer(store).writerow(pipeline.STORE_COLUMNS)
        for book_id, text in [("a", "One word. Two more words."), ("b, quoted", "Three.")]:
            (root / "t.txt").write_text(text, encoding="utf-8")
            record = BookRecord(book_id, Genre.FICTION, None, 0, SuccessLabel.SUCCESSFUL,
                                root / "t.txt")
            row = pipeline.store_row(record, "x.semb", 4, SectionSpec("first", 9),
                                     compute_counts(text))
            csv.writer(store).writerow(row)
        return {
            "semb": (root / "x.semb").read_bytes(),
            "bpmd": (root / "m.bpmd").read_bytes(),
            "csv": MANIFEST.encode("utf-8"),
            "store": store.getvalue().encode("utf-8"),
            "preds": PREDS.encode("utf-8"),
            "config": CONFIG.encode("utf-8"),
        }


VALID = _valid_files()
READERS = {
    "semb": (load_embeddings, SembError),
    "bpmd": (net.load_checkpoint, CheckpointError),
    "csv": (load_corpus, ManifestError),
    "store": (lambda path: pipeline._parse_store(path, read_text(path)), ValueError),
    "preds": (cli._read_predictions, ValueError),
    "config": (cli._parse_config_file, cli.ConfigError),
}


@st.composite
def damaged(draw, valid: bytes) -> bytes:
    """``valid`` cut short, with bits flipped, with garbage after a prefix,
    or garbage alone."""
    how = draw(st.sampled_from(["truncate", "flip", "tail", "garbage"]))
    if how == "truncate":
        return valid[: draw(st.integers(0, len(valid) - 1))]
    if how == "flip":
        data = bytearray(valid)
        for bit in draw(st.lists(st.integers(0, 8 * len(data) - 1), min_size=1, max_size=8)):
            data[bit // 8] ^= 1 << (bit % 8)
        return bytes(data)
    if how == "tail":
        return valid[: draw(st.integers(0, len(valid)))] + draw(st.binary(min_size=1))
    return draw(st.binary(max_size=2 * len(valid)))


@pytest.mark.parametrize("kind", sorted(READERS))
@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data())
def test_damaged_file_raises_its_documented_error(kind, data):
    read, error = READERS[kind]
    raw = data.draw(damaged(VALID[kind]), label="raw")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"input.{kind}"
        path.write_bytes(raw)
        with contextlib.suppress(error, OSError):
            read(path)


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def edited_checkpoints(draw) -> bytes:
    """The valid checkpoint with its metadata replaced by random JSON, or
    with one value of it, its model config or its featurization replaced
    or removed; the tensor and scaler bytes are kept."""
    raw = VALID["bpmd"]
    (meta_len,) = struct.unpack_from("<I", raw, 8)
    meta = json.loads(raw[12 : 12 + meta_len])
    where = draw(st.sampled_from(["all", "top", "config", "extra"]))
    if where == "all":
        meta = draw(JSON)
    else:
        table = meta if where == "top" else meta[where]
        key = draw(st.sampled_from(sorted(table)))
        if draw(st.booleans()):
            table[key] = draw(JSON)
        else:
            del table[key]
    return _checkpoint_with_meta(json.dumps(meta).encode("utf-8")) + raw[12 + meta_len :]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(raw=edited_checkpoints())
def test_edited_checkpoint_metadata_raises_its_documented_error(raw):
    # What eval and attribute do with a checkpoint: load it, then rebuild
    # the featurization, which may also reject a value as a ValueError.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.bpmd"
        path.write_bytes(raw)
        try:
            params, _, extra = net.load_checkpoint(path)
        except CheckpointError:
            return
    with contextlib.suppress(CheckpointError, ValueError):
        pipeline.config_from_feature_meta(extra, params.config, semb_dir=Path("."))


def test_deeply_nested_checkpoint_metadata_is_a_checkpoint_error(tmp_path):
    path = tmp_path / "deep.bpmd"
    path.write_bytes(_checkpoint_with_meta(DEEP_META))
    with pytest.raises(CheckpointError, match="bad metadata"):
        net.load_checkpoint(path)
    argv = ["eval", "--checkpoint", str(path), "--manifest", str(tmp_path / "none.csv")]
    with contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == cli.EXIT_INPUT


KEYS = sorted(cli.config_keys())
# Random strings, plus texts that sit at the edge of some parser.
VALUES = st.text(max_size=30) | st.sampled_from(
    ["", " ", "nan", "inf", "-inf", "1e999", "-1", "0", "1_000", "0x10", "9" * 5000,
     "first:0", "last:-1", "first:", "2,2", ",", "0,3", "true", "None", "\x00", "İ", "١٢"]
)
OPTIONS = st.dictionaries(st.sampled_from(KEYS), VALUES, min_size=1, max_size=4)


def _train_argv(root: Path, options: dict[str, str]) -> list[str]:
    argv = ["train", "--manifest", str(root / "missing.csv"), "--out", str(root / "m.bpmd")]
    for key, value in options.items():
        argv += ["--set", f"{key}={value}"]
    return argv


@settings(max_examples=400, derandomize=True, deadline=None)
@given(options=OPTIONS)
def test_random_config_values_raise_only_value_error(options):
    args = cli.build_parser().parse_args(_train_argv(Path("."), options))
    with contextlib.suppress(ValueError):  # ConfigError is a ValueError
        cli.build_train_config(args)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(options=OPTIONS)
@example({"model.window_sizes": "2,2"})
@example({"encoder.dim": "9" * 5000})
def test_train_with_random_config_values_exits_one_before_reading_books(options):
    # The manifest is missing, so a config that builds fails to load it.
    book_read = AssertionError("pipeline.train was reached")
    stderr = io.StringIO()
    with (
        tempfile.TemporaryDirectory() as tmp,
        mock.patch.object(pipeline, "train", side_effect=book_read),
        contextlib.redirect_stderr(stderr),
    ):
        assert cli.main(_train_argv(Path(tmp), options)) == cli.EXIT_INPUT, stderr.getvalue()
