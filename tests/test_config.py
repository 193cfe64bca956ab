"""The configuration tree: the CLI keys are the leaf fields of
``TrainConfig``, each parsed by its field's type, and a book2vec model
config carries its fixed shape. Random valid configs round-trip through
``key=value`` text, checkpoint JSON and featurization metadata."""

import json
import re
import struct
import tempfile
import typing
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bookpred import cli, net, pipeline
from bookpred.corpus import SectionSpec
from bookpred.net import ModelConfig
from bookpred.pipeline import EncoderConfig, TrainConfig
from bookpred.readability import ReadabilityScaler

README = Path(__file__).resolve().parents[1] / "README.md"

# Each key, a non-default value as text, and the value the field must take.
NON_DEFAULT = {
    "seed": ("5", 5),
    "epochs": ("7", 7),
    "batch_size": ("3", 3),
    "val_fraction": ("0.3", 0.3),
    "section": ("last:10", SectionSpec("last", 10)),
    "encoder.dim": ("64", 64),
    "encoder.seed": ("2", 2),
    "encoder.directory": ("vecs", Path("vecs")),
    "model.arch": ("book2vec", "book2vec"),
    "model.window_sizes": ("2,4", (2, 4)),
    "model.filters_per_window": ("4", 4),
    "model.hidden_units": ("9", 9),
    "model.dropout_p": ("0.25", 0.25),
    "model.n_chunks": ("40", 40),
    "model.use_readability": ("false", False),
}

# The fields a book2vec config fixes, besides its arch.
BOOK2VEC_SHAPE = {
    "model.window_sizes",
    "model.filters_per_window",
    "model.dropout_p",
    "model.n_chunks",
    "model.use_readability",
}


def leaves(cfg, prefix=""):
    """Dotted field path -> value for every leaf of a config tree."""
    out = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if is_dataclass(value) and not isinstance(value, SectionSpec):
            out.update(leaves(value, f"{prefix}{f.name}."))
        else:
            out[prefix + f.name] = value
    return out


def build(*settings, config_file=None):
    argv = ["train", "--manifest", "m.csv", "--out", "m.bpmd"]
    if config_file is not None:
        argv += ["--config", str(config_file)]
    for setting in settings:
        argv += ["--set", setting]
    return cli.build_train_config(cli.build_parser().parse_args(argv))


def test_keys_are_the_leaf_fields_of_train_config():
    expected = set(leaves(TrainConfig())) - {"model.input_dim"}
    assert set(cli.config_keys()) == expected == set(NON_DEFAULT)
    assert len(expected) == 15


def test_no_options_build_the_defaults():
    assert build() == TrainConfig()


@pytest.mark.parametrize("key", sorted(NON_DEFAULT))
def test_each_key_sets_exactly_its_field(key):
    text, value = NON_DEFAULT[key]
    before = leaves(build())
    after = leaves(build(f"{key}={text}"))
    assert after[key] == value and before[key] != value
    changed = {k for k in before if before[k] != after[k]}
    assert changed == ({key} | BOOK2VEC_SHAPE if key == "model.arch" else {key})


def test_semb_dir_flag_sets_only_the_directory():
    args = cli.build_parser().parse_args(
        ["train", "--manifest", "m.csv", "--out", "m.bpmd", "--semb-dir", "vecs"]
    )
    cfg = cli.build_train_config(args)
    before, after = leaves(TrainConfig()), leaves(cfg)
    assert {k for k in before if before[k] != after[k]} == {"encoder.directory"}
    assert after["encoder.directory"] == Path("vecs")
    assert (TrainConfig().encoder.kind, cfg.encoder.kind) == ("hashed", "external")


def test_readme_run_cfg_keys_are_accepted(tmp_path):
    block = re.search(r"```\n# run\.cfg\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = [line for line in block.group(1).splitlines() if line.strip()]
    assert lines
    run_cfg = tmp_path / "run.cfg"
    run_cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
    cfg = leaves(build(config_file=run_cfg))
    for line in lines:
        key, _, text = line.partition("=")
        assert str(cfg[key]).lower() == text.lower()


# The sub-config types of the tree; a field of any other type is a leaf.
SUB_CONFIGS = (TrainConfig, EncoderConfig, ModelConfig)

# One bad key=value text per leaf type, and a key of that type. No text is
# an unparsable str or path, so an empty value is their bad text.
BAD_TEXT = {
    int: ("epochs", "ten"),
    float: ("val_fraction", "half"),
    str: ("model.arch", ""),
    bool: ("model.use_readability", "maybe"),
    Path | None: ("encoder.directory", ""),
    SectionSpec: ("section", "middle:3"),
    tuple[int, ...]: ("model.window_sizes", "2,x"),
}

# One bad JSON value per leaf type, and a key of that type. Checkpoints store
# no directory, so ``encoder.directory`` is read from JSON only here;
# tests/test_checkpoint.py reads the others from a checkpoint.
BAD_JSON = {
    int: ("epochs", True),
    float: ("val_fraction", "0.2"),
    str: ("model.arch", None),
    bool: ("model.use_readability", 1),
    Path | None: ("encoder.directory", ["vecs"]),
    SectionSpec: ("section", "middle:3"),
    tuple[int, ...]: ("model.window_sizes", [2, "3"]),
}


def leaf_types(cls) -> list:
    """The type of every leaf field reachable from ``cls``."""
    kinds = []
    for kind in typing.get_type_hints(cls).values():
        kinds += leaf_types(kind) if kind in SUB_CONFIGS else [kind]
    return kinds


def test_leaf_type_table_has_no_dead_or_missing_entry():
    assert len(leaf_types(TrainConfig)) == 16  # the 15 keys and model.input_dim
    assert set(net.LEAF_TYPES) == set(leaf_types(TrainConfig)) == set(BAD_TEXT) == set(BAD_JSON)
    assert set(cli.config_keys().values()) == set(net.LEAF_TYPES)


# Further bad texts of a leaf type, beyond the one above: an empty item
# between commas is no window size.
MORE_BAD_TEXT = {"model.window_sizes-empty_item": (tuple[int, ...], "model.window_sizes", "2,,3,")}


@pytest.mark.parametrize(
    "kind, key, text",
    [(kind, *case) for kind, case in BAD_TEXT.items()] + list(MORE_BAD_TEXT.values()),
    ids=[key for key, _ in BAD_TEXT.values()] + list(MORE_BAD_TEXT),
)
def test_bad_text_of_each_leaf_type_names_its_key(kind, key, text):
    assert cli.config_keys()[key] == kind
    with pytest.raises(cli.ConfigError, match=f"^{re.escape(key)}[: ]"):  # the key comes first
        build(f"{key}={text}")


@pytest.mark.parametrize("kind", list(BAD_JSON), ids=[key for key, _ in BAD_JSON.values()])
def test_bad_json_of_each_leaf_type_names_its_key(kind):
    key, value = BAD_JSON[kind]
    assert cli.config_keys()[key] == kind
    with pytest.raises(ValueError, match=f"^{re.escape(key)}[: ]"):
        net.from_json(key, kind, value)


def test_unparsable_value_names_its_key():
    with pytest.raises(cli.ConfigError, match="model.use_readability"):
        build("model.use_readability=maybe")


@pytest.mark.parametrize("windows", ["2,2", "3,0", "1,-1"])
def test_repeated_or_non_positive_window_sizes_exit_one(windows, tmp_path, capsys):
    # Tensors are named by window size: two windows of one size would share
    # one kernel and get only one of their two gradients.
    argv = ["train", "--manifest", str(tmp_path / "m.csv"), "--out", str(tmp_path / "m.bpmd")]
    assert cli.main(argv + ["--set", f"model.window_sizes={windows}"]) == cli.EXIT_INPUT
    assert "window sizes must be positive and distinct" in capsys.readouterr().err


def test_book2vec_config_carries_its_fixed_shape():
    b2v = ModelConfig(
        input_dim=8, arch="book2vec", window_sizes=(3,), filters_per_window=5,
        hidden_units=7, dropout_p=0.5, n_chunks=9, use_readability=True,
    )
    assert b2v == ModelConfig(input_dim=8, arch="book2vec", hidden_units=7)
    assert (b2v.window_sizes, b2v.filters_per_window, b2v.dropout_p) == ((), 0, 0.0)
    assert (b2v.n_chunks, b2v.use_readability) == (1, False)
    assert net.init_params(b2v, seed=0).config == b2v


_SECTIONS = st.just(SectionSpec("full")) | st.builds(
    SectionSpec, st.sampled_from(["first", "last"]), st.integers(1, 10**6)
)
# Directory names with no whitespace at either end, which a key=value
# line strips, and no NUL.
_DIRECTORIES = st.text(
    st.characters(exclude_categories=("Cc", "Cs", "Zs", "Zl", "Zp")), min_size=1, max_size=12
).map(Path)


@st.composite
def model_configs(draw, input_dim=st.just(0)):
    """A valid cnn or book2vec config; book2vec normalises its shape."""
    n_chunks = draw(st.integers(1, 60))
    windows = st.lists(st.integers(1, min(n_chunks, 8)), min_size=1, max_size=4, unique=True)
    return ModelConfig(
        input_dim=draw(input_dim),
        arch=draw(st.sampled_from(["cnn", "book2vec"])),
        window_sizes=tuple(draw(windows)),
        filters_per_window=draw(st.integers(1, 8)),
        hidden_units=draw(st.integers(1, 16)),
        dropout_p=draw(st.floats(0, 1, exclude_max=True)),
        n_chunks=n_chunks,
        use_readability=draw(st.booleans()),
    )


@st.composite
def train_configs(draw):
    """A valid run config with ``model.input_dim`` 0, as the CLI builds it."""
    directory = draw(st.none() | _DIRECTORIES)
    encoder = EncoderConfig(
        dim=draw(st.integers(1 if directory else 8, 10**6)),
        seed=draw(st.integers(0, 2**64)),
        directory=directory,
    )
    return TrainConfig(
        seed=draw(st.integers(0, 2**64)),
        epochs=draw(st.integers(1, 10**6)),
        batch_size=draw(st.integers(1, 10**6)),
        val_fraction=draw(st.floats(0, 1, exclude_min=True, exclude_max=True)),
        section=draw(_SECTIONS),
        encoder=encoder,
        model=draw(model_configs()),
    )


def spelling(value) -> str:
    """A leaf value as a key=value line writes it."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, tuple):
        return ",".join(str(w) for w in value)
    return repr(value) if isinstance(value, float) else str(value)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(cfg=train_configs())
def test_every_key_spelled_out_builds_the_same_config(cfg):
    # No text spells a directory of None, so that one key is left out.
    values = {k: v for k, v in leaves(cfg).items() if k != "model.input_dim" and v is not None}
    assert set(values) | {"encoder.directory"} == set(cli.config_keys())
    assert build(*(f"{key}={spelling(value)}" for key, value in values.items())) == cfg


@settings(max_examples=60, derandomize=True, deadline=None)
@given(config=model_configs(input_dim=st.integers(1, 512)), has_scaler=st.booleans())
def test_model_config_survives_a_checkpoint(config, has_scaler):
    params = net.init_params(config, seed=0)
    scaler = ReadabilityScaler(mean=np.arange(5.0), std=np.ones(5)) if has_scaler else None
    with tempfile.TemporaryDirectory() as tmp:
        net.save_checkpoint(Path(tmp) / "m.bpmd", params, scaler)
        loaded, loaded_scaler, _ = net.load_checkpoint(Path(tmp) / "m.bpmd")
    assert loaded.config == config
    assert (loaded_scaler is None) == (scaler is None)
    for (name, tensor), (loaded_name, loaded_tensor) in zip(params.tensors(), loaded.tensors()):
        assert name == loaded_name
        assert loaded_tensor.tobytes() == tensor.astype(np.float32).astype(float).tobytes()


@settings(max_examples=200, derandomize=True, deadline=None)
@given(cfg=train_configs())
def test_feature_meta_rebuilds_section_encoder_and_chunks(cfg):
    meta = json.loads(json.dumps(pipeline.feature_meta(cfg)))  # as a checkpoint stores it
    rebuilt = pipeline.config_from_feature_meta(meta, cfg.model, semb_dir=cfg.encoder.directory)
    assert (rebuilt.section, rebuilt.encoder, rebuilt.model.n_chunks) == (
        cfg.section, cfg.encoder, cfg.model.n_chunks,
    )


def test_checkpoint_metadata_json_is_pinned(tmp_path):
    model = ModelConfig(
        input_dim=8, window_sizes=(2, 3), filters_per_window=3, hidden_units=6, n_chunks=10
    )
    cfg = TrainConfig(
        section=SectionSpec("last", 7), encoder=EncoderConfig(dim=8, seed=3), model=model
    )
    path = tmp_path / "m.bpmd"
    scaler = ReadabilityScaler(mean=np.zeros(5), std=np.ones(5))
    net.save_checkpoint(
        path, net.init_params(model, seed=0), scaler, extra=pipeline.feature_meta(cfg)
    )
    raw = path.read_bytes()
    (meta_len,) = struct.unpack_from("<I", raw, 8)
    assert raw[12 : 12 + meta_len].decode("utf-8") == (
        '{"config":{"arch":"cnn","dropout_p":0.6,"filters_per_window":3,"hidden_units":6,'
        '"input_dim":8,"n_chunks":10,"use_readability":true,"window_sizes":[2,3]},'
        '"extra":{"encoder_dim":8,"encoder_kind":"hashed","encoder_seed":3,"n_chunks":10,'
        '"section":"last:7"},"has_scaler":true}'
    )
