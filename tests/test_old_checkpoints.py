"""BPMD version 1 checkpoints written before ``ModelConfig`` became the
only model configuration type (commit 2373cae) still load, save again to
the same bytes, and predict what they predicted then.

``data/old_cnn.bpmd`` and ``data/old_book2vec.bpmd`` were trained on the
corpus the ``manifest`` fixture builds, with::

    bookpred train --manifest M --out old_cnn.bpmd --seed 2 --set epochs=5 \\
        --set encoder.dim=8 --set model.hidden_units=8 --set batch_size=4 \\
        --set model.filters_per_window=3
    bookpred train --manifest M --out old_book2vec.bpmd --model book2vec \\
        --seed 2 --set epochs=5 --set encoder.dim=8 --set model.hidden_units=8 \\
        --set batch_size=4

and ``data/old_*_preds.csv`` are what ``bookpred eval --preds`` wrote
for each. The book2vec file stores ``n_chunks`` 50 in its featurization
metadata; newer files store its model's 1.
"""

import csv
from pathlib import Path

import numpy as np
import pytest

from bookpred import net, synth
from bookpred.cli import main

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def manifest(tmp_path_factory):
    return synth.make_token_corpus(
        tmp_path_factory.mktemp("old"),
        n_books=12,
        seed=5,
        sentences_per_book=(15, 25),
        marker_rate=0.8,
    )


def read_preds(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("name, arch", [("old_cnn", "cnn"), ("old_book2vec", "book2vec")])
def test_old_checkpoint_loads_resaves_and_predicts(manifest, tmp_path, capsys, name, arch):
    path = DATA / f"{name}.bpmd"
    params, scaler, extra = net.load_checkpoint(path)
    assert params.config.arch == arch
    assert (scaler is not None) == (arch == "cnn")

    net.save_checkpoint(tmp_path / "again.bpmd", params, scaler, extra=extra)
    assert (tmp_path / "again.bpmd").read_bytes() == path.read_bytes()

    preds = tmp_path / "preds.csv"
    argv = ["eval", "--checkpoint", str(path), "--manifest", str(manifest)]
    assert main(argv + ["--preds", str(preds)]) == 0
    capsys.readouterr()
    expected, actual = read_preds(DATA / f"{name}_preds.csv"), read_preds(preds)
    assert [(r["book_id"], r["gold"], r["pred"]) for r in actual] == [
        (r["book_id"], r["gold"], r["pred"]) for r in expected
    ]
    np.testing.assert_allclose(
        [float(r["p_successful"]) for r in actual],
        [float(r["p_successful"]) for r in expected],
        rtol=0,
        atol=1e-9,
    )
