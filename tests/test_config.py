"""The configuration tree: the CLI keys are the leaf fields of
``TrainConfig``, each parsed by its field's type, and a book2vec model
config carries its fixed shape."""

import re
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest

from bookpred import cli, net
from bookpred.corpus import SectionSpec
from bookpred.net import ModelConfig
from bookpred.pipeline import TrainConfig

README = Path(__file__).resolve().parents[1] / "README.md"

# Each key, a non-default value as text, and the value the field must take.
NON_DEFAULT = {
    "seed": ("5", 5),
    "epochs": ("7", 7),
    "batch_size": ("3", 3),
    "val_fraction": ("0.3", 0.3),
    "section": ("last:10", SectionSpec.last(10)),
    "encoder.kind": ("external", "external"),
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
    assert len(expected) == 16


def test_no_options_build_the_defaults():
    assert build() == TrainConfig()


@pytest.mark.parametrize("key", sorted(NON_DEFAULT))
def test_each_key_sets_exactly_its_field(key):
    text, value = NON_DEFAULT[key]
    # an external encoder needs a directory, on both sides of the comparison
    base = ["encoder.directory=vecs"] if key == "encoder.kind" else []
    before = leaves(build(*base))
    after = leaves(build(*base, f"{key}={text}"))
    assert after[key] == value and before[key] != value
    changed = {k for k in before if before[k] != after[k]}
    assert changed == ({key} | BOOK2VEC_SHAPE if key == "model.arch" else {key})


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


def test_unparsable_value_names_its_key():
    with pytest.raises(cli.ConfigError, match="model.use_readability"):
        build("model.use_readability=maybe")


def test_book2vec_config_carries_its_fixed_shape():
    b2v = ModelConfig(
        input_dim=8, arch="book2vec", window_sizes=(3,), filters_per_window=5,
        hidden_units=7, dropout_p=0.5, n_chunks=9, use_readability=True,
    )
    assert b2v == ModelConfig(input_dim=8, arch="book2vec", hidden_units=7)
    assert (b2v.window_sizes, b2v.filters_per_window, b2v.dropout_p) == ((), 0, 0.0)
    assert (b2v.n_chunks, b2v.use_readability) == (1, False)
    assert net.build_book2vec(8, hidden_units=7, seed=0).config == b2v
