"""Malformed checkpoint metadata: every violation is a ``CheckpointError``
that names what is wrong, raised before any parameter tensor is built."""

import json
import struct

import pytest

from bookpred import net, pipeline
from bookpred.net import ModelConfig, init_params
from bookpred.pipeline import EncoderConfig, TrainConfig


def tiny_config(**overrides):
    defaults = dict(
        input_dim=8, window_sizes=(2, 3), filters_per_window=3, hidden_units=6, n_chunks=10
    )
    defaults.update(overrides)
    return ModelConfig(**defaults)


def rewrite_meta(path, edit):
    """Apply ``edit`` to the JSON metadata of the checkpoint at ``path``,
    keeping its tensor and scaler bytes."""
    raw = path.read_bytes()
    (meta_len,) = struct.unpack_from("<I", raw, 8)
    meta = json.loads(raw[12 : 12 + meta_len])
    edit(meta)
    meta_bytes = json.dumps(meta).encode("utf-8")
    path.write_bytes(
        raw[:8] + struct.pack("<I", len(meta_bytes)) + meta_bytes + raw[12 + meta_len :]
    )


# One wrongly typed value per featurization key; bools are not ints.
BAD_FEATURE_META = {
    "section": 1000,
    "n_chunks": "10",
    "encoder_kind": ["hashed"],
    "encoder_dim": "64",
    "encoder_seed": True,
}


@pytest.mark.parametrize("key", sorted(BAD_FEATURE_META))
def test_feature_meta_type_names_key(key):
    cfg = TrainConfig(encoder=EncoderConfig(dim=64), model=ModelConfig(n_chunks=10))
    meta = {**pipeline.feature_meta(cfg), key: BAD_FEATURE_META[key]}
    with pytest.raises(net.CheckpointError, match=key):
        pipeline.config_from_feature_meta(meta, tiny_config(input_dim=64))


# Well-typed featurization values that the config rejects: no such section,
# a hashed encoder narrower than 8, one that is not its model's input_dim, and
# one narrower than 8 on a model of its own dim, which only a hand-made file holds.
@pytest.mark.parametrize(
    "key, value, input_dim",
    [
        pytest.param("section", "middle:3", 64, id="section-middle:3"),
        pytest.param("encoder_dim", 4, 64, id="encoder_dim-4"),
        pytest.param("encoder_dim", 32, 64, id="encoder_dim-32"),
        pytest.param("encoder_dim", 4, 4, id="encoder_dim-4-on-a-dim-4-model"),
    ],
)
def test_feature_meta_of_right_type_but_bad_content_names_key(key, value, input_dim):
    cfg = TrainConfig(encoder=EncoderConfig(dim=64), model=ModelConfig(n_chunks=10))
    meta = {**pipeline.feature_meta(cfg), key: value}
    with pytest.raises(net.CheckpointError, match=key):
        pipeline.config_from_feature_meta(meta, tiny_config(input_dim=input_dim))


def test_feature_meta_of_right_types_round_trips():
    cfg = TrainConfig(encoder=EncoderConfig(dim=64, seed=3), model=ModelConfig(n_chunks=10))
    rebuilt = pipeline.config_from_feature_meta(
        pipeline.feature_meta(cfg), tiny_config(input_dim=64)
    )
    assert (rebuilt.section, rebuilt.model.n_chunks, rebuilt.encoder) == (
        cfg.section, cfg.model.n_chunks, cfg.encoder,
    )


def test_extra_must_be_an_object(tmp_path):
    path = tmp_path / "m.bpmd"
    net.save_checkpoint(path, init_params(tiny_config(), seed=0))
    rewrite_meta(path, lambda meta: meta.update(extra="first:1000"))
    with pytest.raises(net.CheckpointError, match="extra must be"):
        net.load_checkpoint(path)


@pytest.mark.parametrize(
    "edit",
    [
        {"input_dim": 4096},
        {"filters_per_window": 300},
        {"window_sizes": [2, 3, 5]},
        {"use_readability": False},
    ],
    ids=["input_dim", "filters_per_window", "window_sizes", "use_readability"],
)
def test_declared_size_checked_before_any_tensor_is_built(tmp_path, monkeypatch, edit):
    path = tmp_path / "m.bpmd"
    net.save_checkpoint(path, init_params(tiny_config(), seed=0))
    rewrite_meta(path, lambda meta: meta["config"].update(edit))

    def refuse(*args, **kwargs):
        raise AssertionError("init_params called while loading a checkpoint")

    monkeypatch.setattr(net, "init_params", refuse)
    with pytest.raises(net.CheckpointError, match="bytes"):
        net.load_checkpoint(path)


def test_scaler_flag_changes_declared_size(tmp_path):
    path = tmp_path / "m.bpmd"
    net.save_checkpoint(path, init_params(tiny_config(), seed=0))
    rewrite_meta(path, lambda meta: meta.update(has_scaler=True))
    with pytest.raises(net.CheckpointError, match="bytes"):
        net.load_checkpoint(path)


@pytest.mark.parametrize("value", ["no", 1, None], ids=["str", "int", "null"])
def test_scaler_flag_of_wrong_type_is_rejected(tmp_path, value):
    path = tmp_path / "m.bpmd"
    net.save_checkpoint(path, init_params(tiny_config(), seed=0))
    rewrite_meta(path, lambda meta: meta.update(has_scaler=value))
    with pytest.raises(net.CheckpointError, match="has_scaler must be bool"):
        net.load_checkpoint(path)


@pytest.mark.parametrize(
    "edit",
    [
        {"input_dim": 8.0},
        {"hidden_units": 6.0},
        {"window_sizes": [2.0, 3]},
        {"use_readability": "yes"},
        {"input_dim": 0},
        {"dropout_p": "0.6"},
        {"arch": 1},
    ],
    ids=["input_dim_float", "hidden_units_float", "window_sizes_float", "use_readability_str",
         "input_dim_zero", "dropout_p_str", "arch_int"],
)
def test_config_value_of_wrong_type_names_key(tmp_path, edit):
    path = tmp_path / "m.bpmd"
    net.save_checkpoint(path, init_params(tiny_config(), seed=0))
    rewrite_meta(path, lambda meta: meta["config"].update(edit))
    (key,) = edit
    with pytest.raises(net.CheckpointError, match=key):
        net.load_checkpoint(path)


def test_config_missing_a_field_names_it(tmp_path):
    # Every field has a default, so a missing one must not silently take it.
    path = tmp_path / "m.bpmd"
    net.save_checkpoint(path, init_params(tiny_config(hidden_units=50), seed=0))
    rewrite_meta(path, lambda meta: meta["config"].pop("hidden_units"))
    with pytest.raises(net.CheckpointError, match="hidden_units"):
        net.load_checkpoint(path)


def test_dropout_stored_as_int_loads_and_resaves_unchanged(tmp_path):
    path = tmp_path / "m.bpmd"
    net.save_checkpoint(path, init_params(tiny_config(dropout_p=0), seed=0))
    params, _, _ = net.load_checkpoint(path)
    net.save_checkpoint(tmp_path / "again.bpmd", params)
    assert (tmp_path / "again.bpmd").read_bytes() == path.read_bytes()


def test_no_tensor_is_built_before_input_dim_is_known():
    with pytest.raises(ValueError, match="input_dim"):
        init_params(tiny_config(input_dim=0), seed=0)
