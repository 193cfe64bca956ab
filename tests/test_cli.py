import csv
import io
import json
import os
import shutil
import struct

import numpy as np
import pytest

import text_reference as ref
from bookpred import synth
from bookpred.cli import _READABILITY_HEADER, _counts_row, build_parser, main
from bookpred.corpus import SectionSpec, select_section
from bookpred.embedding import write_embeddings


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("clicorpus")
    synth.make_token_corpus(
        root, n_books=20, seed=33, sentences_per_book=(15, 25), marker_rate=0.8
    )
    return root


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReadabilityCommand:
    def test_single_file(self, tmp_path, capsys):
        f = tmp_path / "sample.txt"
        f.write_text("I came. I saw. I conquered.", encoding="utf-8")
        code, out, _ = run(capsys, "readability", str(f))
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "book_id,W,C,S,L,P,fres,fkg,smog,cli,ari"
        assert len(lines) == 2
        assert lines[1].startswith("sample,6,")

    def test_empty_file_gets_na_indices(self, tmp_path, capsys):
        f = tmp_path / "empty.txt"
        f.write_text("", encoding="utf-8")
        code, out, _ = run(capsys, "readability", str(f))
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert row[1:6] == ["0", "0", "0", "0", "0"]
        assert row[6:] == ["NA"] * 5

    def test_files_in_argument_order(self, tmp_path, capsys):
        paths = []
        for name in ("c", "a", "b"):
            p = tmp_path / f"{name}.txt"
            p.write_text("Words here.", encoding="utf-8")
            paths.append(str(p))
        code, out, _ = run(capsys, "readability", *paths)
        ids = [line.split(",")[0] for line in out.strip().splitlines()[1:]]
        assert code == 0
        assert ids == ["c", "a", "b"]

    def test_unreadable_file_exits_one(self, tmp_path, capsys):
        code, _, err = run(capsys, "readability", str(tmp_path / "nope.txt"))
        assert code == 1
        assert "nope.txt" in err

    def test_undecodable_file_exits_one_naming_it(self, tmp_path, capsys):
        f = tmp_path / "utf16.txt"
        f.write_bytes("Words here.".encode("utf-16"))
        code, _, err = run(capsys, "readability", str(f))
        assert code == 1
        assert "utf16.txt" in err and "UTF-8" in err


class TestFeaturizeCommand:
    def test_produces_semb_and_csvs(self, corpus_dir, tmp_path, capsys):
        out_dir = tmp_path / "feat"
        code, out, _ = run(
            capsys,
            "featurize",
            "--manifest", str(corpus_dir / "manifest.csv"),
            "--out", str(out_dir),
            "--jobs", "1",
            "--set", "encoder.dim=64",
        )
        assert code == 0
        sembs = sorted(out_dir.glob("*.semb"))
        assert len(sembs) == 20
        readability = (out_dir / "readability.csv").read_text(encoding="utf-8")
        assert len(readability.strip().splitlines()) == 21
        featurized = (out_dir / "featurized.csv").read_text(encoding="utf-8")
        assert len(featurized.strip().splitlines()) == 21

    def test_rerun_is_bit_identical(self, corpus_dir, tmp_path, capsys):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out_dir in (out_a, out_b):
            code, _, _ = run(
                capsys,
                "featurize",
                "--manifest", str(corpus_dir / "manifest.csv"),
                "--out", str(out_dir),
                "--jobs", "1",
                "--set", "encoder.dim=64",
            )
            assert code == 0
        for semb in sorted(out_a.glob("*.semb")):
            assert semb.read_bytes() == (out_b / semb.name).read_bytes()
        assert (out_a / "readability.csv").read_text() == (out_b / "readability.csv").read_text()

    @staticmethod
    def _corpus_missing_a_text(corpus_dir, tmp_path):
        """A copy of the corpus whose book0003 text is gone; its manifest."""
        broken = tmp_path / "broken"
        (broken / "books").mkdir(parents=True)
        for src in (corpus_dir / "books").iterdir():
            (broken / "books" / src.name).write_bytes(src.read_bytes())
        (broken / "books" / "book0003.txt").unlink()
        manifest = broken / "manifest.csv"
        manifest.write_bytes((corpus_dir / "manifest.csv").read_bytes())
        return manifest

    def test_missing_text_is_isolated(self, corpus_dir, tmp_path, capsys):
        manifest = self._corpus_missing_a_text(corpus_dir, tmp_path)
        out_dir = tmp_path / "feat"
        code, out, err = run(
            capsys,
            "featurize",
            "--manifest", str(manifest),
            "--out", str(out_dir),
            "--jobs", "1",
            "--set", "encoder.dim=64",
        )
        assert code == 1
        assert "book0003" in err
        assert len(list(out_dir.glob("*.semb"))) == 19

    def test_process_pool_writes_what_one_process_writes(self, corpus_dir, tmp_path, capsys):
        """Without --jobs, featurize runs one worker process per CPU; two
        workers write the same bytes, and report the same failure, as the
        in-process path."""
        assert build_parser().parse_args(
            ["featurize", "--manifest", "m.csv", "--out", "o"]
        ).jobs == (os.cpu_count() or 1)
        manifest = self._corpus_missing_a_text(corpus_dir, tmp_path)
        out_dir = tmp_path / "feat"
        outputs = []
        for jobs in ("1", "2"):
            shutil.rmtree(out_dir, ignore_errors=True)
            code, out, err = run(
                capsys,
                "featurize",
                "--manifest", str(manifest),
                "--out", str(out_dir),
                "--jobs", jobs,
                "--set", "encoder.dim=64",
            )
            assert code == 1
            files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
            outputs.append((files, out, err))
        files, out, err = outputs[0]
        assert len([name for name in files if name.endswith(".semb")]) == 19
        assert {"readability.csv", "featurized.csv"} <= set(files)
        assert "book0003" in err
        assert outputs[1] == outputs[0]

    def test_outputs_match_reference_featurization(self, corpus_dir, tmp_path, capsys):
        """.semb bytes and readability.csv equal what the character-loop
        segmenter, per-token encoder and per-token counts produce."""
        books = {
            src.stem: src.read_text(encoding="utf-8")
            for src in sorted((corpus_dir / "books").iterdir())[:4]
        }
        books["tricky"] = (
            "“Mr. Smith” arrived.\u2028He left!!\n \t\r\nThen (e.g. later)"
            " he re-turned? Don't.\xa0Yes\x1cno. i.e. done"
        )
        books["nowords"] = "... !!! ???"
        root = tmp_path / "corpus"
        (root / "books").mkdir(parents=True)
        lines = ["book_id,genre,avg_rating,n_ratings,label,text_path"]
        for book_id, text in books.items():
            (root / "books" / f"{book_id}.txt").write_text(text, encoding="utf-8")
            lines.append(f"{book_id},Drama,4.0,10,,books/{book_id}.txt")
        (root / "manifest.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        out_dir = tmp_path / "feat"
        code, _, _ = run(
            capsys,
            "featurize",
            "--manifest", str(root / "manifest.csv"),
            "--out", str(out_dir),
            "--jobs", "1",
            "--section", "last:12",
            "--set", "encoder.dim=16",
            "--set", "encoder.seed=7",
        )
        assert code == 0

        expected_csv = io.StringIO(newline="")
        writer = csv.writer(expected_csv)
        writer.writerow(_READABILITY_HEADER)
        for book_id, text in books.items():
            sentences = select_section(ref.segment_sentences(text), SectionSpec.last(12))
            matrix = ref.encode_hashed_bow([s.text for s in sentences], dim=16, seed=7)
            write_embeddings(matrix, tmp_path / "expected.semb")
            actual = (out_dir / f"{book_id}.semb").read_bytes()
            assert actual == (tmp_path / "expected.semb").read_bytes(), book_id
            writer.writerow(_counts_row(book_id, ref.counts_from_sentences(sentences)))
        actual_csv = (out_dir / "readability.csv").read_bytes()
        assert actual_csv == expected_csv.getvalue().encode("utf-8")


@pytest.fixture(scope="module")
def checkpoint(corpus_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("ckpt")
    argv = [
        "train",
        "--manifest", str(corpus_dir / "manifest.csv"),
        "--out", str(out / "model.bpmd"),
        "--history", str(out / "history.csv"),
        "--seed", "3",
        "--set", "epochs=25",
        "--set", "encoder.dim=64",
        "--set", "model.filters_per_window=4",
        "--set", "model.hidden_units=10",
        "--set", "batch_size=8",
    ]
    assert main(argv) == 0
    return out


class TestTrainEvalFlow:
    def test_train_writes_checkpoint_and_history(self, checkpoint):
        assert (checkpoint / "model.bpmd").exists()
        lines = (checkpoint / "history.csv").read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_weighted_f1"
        assert len(lines) == 26

    def test_eval_writes_report_and_predictions(self, corpus_dir, checkpoint, tmp_path, capsys):
        report_csv = tmp_path / "report.csv"
        preds_csv = tmp_path / "preds.csv"
        code, out, _ = run(
            capsys,
            "eval",
            "--checkpoint", str(checkpoint / "model.bpmd"),
            "--manifest", str(corpus_dir / "manifest.csv"),
            "--out", str(report_csv),
            "--preds", str(preds_csv),
        )
        assert code == 0
        assert "weighted F1" in out
        assert report_csv.read_text(encoding="utf-8").startswith("metric,value")
        rows = list(csv.DictReader(io.StringIO(preds_csv.read_text(encoding="utf-8"))))
        assert len(rows) == 20
        assert set(rows[0]) == {"book_id", "gold", "pred", "p_successful"}

    def test_mcnemar_on_identical_predictions(self, corpus_dir, checkpoint, tmp_path, capsys):
        preds_csv = tmp_path / "preds.csv"
        code, _, _ = run(
            capsys,
            "eval",
            "--checkpoint", str(checkpoint / "model.bpmd"),
            "--manifest", str(corpus_dir / "manifest.csv"),
            "--preds", str(preds_csv),
        )
        assert code == 0
        code, out, _ = run(capsys, "mcnemar", str(preds_csv), str(preds_csv))
        assert code == 0
        assert "statistic: 0.0" in out
        assert "p_value: 1.0" in out

    def test_attribute_command(self, corpus_dir, checkpoint, tmp_path, capsys):
        out_csv = tmp_path / "attr.csv"
        code, out, _ = run(
            capsys,
            "attribute",
            "--checkpoint", str(checkpoint / "model.bpmd"),
            "--manifest", str(corpus_dir / "manifest.csv"),
            "--out", str(out_csv),
        )
        assert code == 0
        lines = out_csv.read_text(encoding="utf-8").strip().splitlines()
        assert [l.split(",")[0] for l in lines] == [
            "name", "fres", "fkg", "smog", "cli", "ari", "n_books",
        ]

    def test_attribute_on_empty_manifest_exits_one(self, checkpoint, tmp_path, capsys):
        manifest = tmp_path / "empty.csv"
        manifest.write_text("book_id,genre,avg_rating,n_ratings,label,text_path\n",
                            encoding="utf-8")
        out_csv = tmp_path / "attr.csv"
        code, _, err = run(
            capsys,
            "attribute",
            "--checkpoint", str(checkpoint / "model.bpmd"),
            "--manifest", str(manifest),
            "--out", str(out_csv),
        )
        assert code == 1
        assert "attribution needs at least one book" in err
        assert not out_csv.exists()

    @pytest.mark.parametrize("key", ["has_scaler", "extra"])
    def test_checkpoint_missing_meta_key_exits_one(
        self, corpus_dir, checkpoint, tmp_path, capsys, key
    ):
        raw = (checkpoint / "model.bpmd").read_bytes()
        (meta_len,) = struct.unpack_from("<I", raw, 8)
        meta = json.loads(raw[12 : 12 + meta_len])
        del meta[key]
        meta_bytes = json.dumps(meta).encode("utf-8")
        broken = tmp_path / "broken.bpmd"
        broken.write_bytes(
            raw[:8] + struct.pack("<I", len(meta_bytes)) + meta_bytes + raw[12 + meta_len :]
        )
        code, _, err = run(
            capsys,
            "eval",
            "--checkpoint", str(broken),
            "--manifest", str(corpus_dir / "manifest.csv"),
        )
        assert code == 1
        assert "bad metadata" in err and key in err

    @pytest.mark.parametrize(
        "key", ["section", "n_chunks", "encoder_kind", "encoder_dim", "encoder_seed"]
    )
    def test_checkpoint_missing_featurization_key_exits_one(
        self, corpus_dir, checkpoint, tmp_path, capsys, key
    ):
        raw = (checkpoint / "model.bpmd").read_bytes()
        (meta_len,) = struct.unpack_from("<I", raw, 8)
        meta = json.loads(raw[12 : 12 + meta_len])
        del meta["extra"][key]
        meta_bytes = json.dumps(meta).encode("utf-8")
        broken = tmp_path / "broken.bpmd"
        broken.write_bytes(
            raw[:8] + struct.pack("<I", len(meta_bytes)) + meta_bytes + raw[12 + meta_len :]
        )
        code, _, err = run(
            capsys,
            "eval",
            "--checkpoint", str(broken),
            "--manifest", str(corpus_dir / "manifest.csv"),
        )
        assert code == 1
        assert err.startswith("error:") and key in err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("section", 1000),
            ("n_chunks", "10"),
            ("encoder_kind", None),
            ("encoder_kind", "bogus"),
            ("encoder_dim", "64"),
            ("encoder_seed", 1.5),
            ("extra", "first:1000"),
        ],
    )
    def test_checkpoint_mistyped_featurization_value_exits_one(
        self, corpus_dir, checkpoint, tmp_path, capsys, key, value
    ):
        raw = (checkpoint / "model.bpmd").read_bytes()
        (meta_len,) = struct.unpack_from("<I", raw, 8)
        meta = json.loads(raw[12 : 12 + meta_len])
        if key == "extra":
            meta["extra"] = value
        else:
            meta["extra"][key] = value
        meta_bytes = json.dumps(meta).encode("utf-8")
        broken = tmp_path / "broken.bpmd"
        broken.write_bytes(
            raw[:8] + struct.pack("<I", len(meta_bytes)) + meta_bytes + raw[12 + meta_len :]
        )
        code, _, err = run(
            capsys,
            "eval",
            "--checkpoint", str(broken),
            "--manifest", str(corpus_dir / "manifest.csv"),
        )
        assert code == 1
        assert err.startswith("error:") and key in err

    def test_checkpoint_mistyped_config_value_exits_one(
        self, corpus_dir, checkpoint, tmp_path, capsys
    ):
        raw = (checkpoint / "model.bpmd").read_bytes()
        (meta_len,) = struct.unpack_from("<I", raw, 8)
        meta = json.loads(raw[12 : 12 + meta_len])
        meta["config"]["input_dim"] = float(meta["config"]["input_dim"])
        meta_bytes = json.dumps(meta).encode("utf-8")
        broken = tmp_path / "broken.bpmd"
        broken.write_bytes(
            raw[:8] + struct.pack("<I", len(meta_bytes)) + meta_bytes + raw[12 + meta_len :]
        )
        code, _, err = run(
            capsys,
            "eval",
            "--checkpoint", str(broken),
            "--manifest", str(corpus_dir / "manifest.csv"),
        )
        assert code == 1
        assert err.startswith("error:") and "input_dim" in err

    def test_book2vec_checkpoint_flows_through_eval(self, corpus_dir, tmp_path, capsys):
        ckpt = tmp_path / "b2v.bpmd"
        code, _, _ = run(
            capsys,
            "train",
            "--manifest", str(corpus_dir / "manifest.csv"),
            "--out", str(ckpt),
            "--model", "book2vec",
            "--seed", "4",
            "--set", "epochs=5",
            "--set", "encoder.dim=64",
            "--set", "batch_size=8",
        )
        assert code == 0
        code, out, _ = run(
            capsys,
            "eval",
            "--checkpoint", str(ckpt),
            "--manifest", str(corpus_dir / "manifest.csv"),
        )
        assert code == 0
        assert "weighted F1" in out

    def test_attribute_rejects_book2vec(self, corpus_dir, tmp_path, capsys):
        ckpt = tmp_path / "b2v.bpmd"
        run(
            capsys,
            "train",
            "--manifest", str(corpus_dir / "manifest.csv"),
            "--out", str(ckpt),
            "--model", "book2vec",
            "--seed", "4",
            "--set", "epochs=2",
            "--set", "encoder.dim=64",
        )
        code, _, err = run(
            capsys,
            "attribute",
            "--checkpoint", str(ckpt),
            "--manifest", str(corpus_dir / "manifest.csv"),
        )
        assert code == 1
        assert "readability" in err


@pytest.fixture(scope="module")
def undecodable_corpus(corpus_dir, tmp_path_factory):
    """The CLI corpus with book0003's text saved as UTF-16 (it starts \\xff\\xfe)."""
    root = tmp_path_factory.mktemp("utf16")
    (root / "books").mkdir()
    for src in (corpus_dir / "books").iterdir():
        (root / "books" / src.name).write_bytes(src.read_bytes())
    book = root / "books" / "book0003.txt"
    book.write_bytes(book.read_text(encoding="utf-8").encode("utf-16"))
    (root / "manifest.csv").write_bytes((corpus_dir / "manifest.csv").read_bytes())
    return root


class TestUndecodableBook:
    @pytest.mark.parametrize("command", ["train", "eval", "attribute"])
    def test_exits_one_naming_the_book(
        self, undecodable_corpus, checkpoint, tmp_path, capsys, command
    ):
        manifest = str(undecodable_corpus / "manifest.csv")
        if command == "train":
            argv = ["train", "--manifest", manifest, "--out", str(tmp_path / "m.bpmd"),
                    "--set", "encoder.dim=64", "--set", "epochs=1"]
        else:
            argv = [command, "--checkpoint", str(checkpoint / "model.bpmd"),
                    "--manifest", manifest]
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert "book book0003: cannot decode text as UTF-8" in err
        assert not (tmp_path / "m.bpmd").exists()


class TestExportVectorsCommand:
    def test_export(self, corpus_dir, tmp_path, capsys):
        out_csv = tmp_path / "vectors.csv"
        code, out, _ = run(
            capsys,
            "export-vectors",
            "--manifest", str(corpus_dir / "manifest.csv"),
            "--out", str(out_csv),
            "--set", "encoder.dim=64",
        )
        assert code == 0
        lines = out_csv.read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == 21
        assert len(lines[0].split(",")) == 66

    def test_semb_files_of_different_dims_exit_one(self, tmp_path, capsys):
        manifest = synth.make_readability_corpus(
            tmp_path, n_books=4, seed=5, embedding_dim=8, sentences_per_book=(5, 8)
        )
        write_embeddings(np.ones((6, 5)), tmp_path / "semb" / "book0002.semb")
        out_csv = tmp_path / "vectors.csv"
        code, _, err = run(
            capsys,
            "export-vectors",
            "--manifest", str(manifest),
            "--out", str(out_csv),
            "--semb-dir", str(tmp_path / "semb"),
        )
        assert code == 1
        assert "inconsistent embedding dims" in err and "[5, 8]" in err


class TestConfigHandling:
    def test_unknown_config_key_is_error(self, corpus_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epoochs=5\n", encoding="utf-8")
        code, _, err = run(
            capsys,
            "train",
            "--manifest", str(corpus_dir / "manifest.csv"),
            "--out", str(tmp_path / "m.bpmd"),
            "--config", str(cfg),
        )
        assert code == 1
        assert "epoochs" in err

    def test_flags_win_over_config_file(self, corpus_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment line\nepochs=2\nencoder.dim=64\nmodel.filters_per_window=4\n",
            encoding="utf-8",
        )
        history = tmp_path / "history.csv"
        code, _, _ = run(
            capsys,
            "train",
            "--manifest", str(corpus_dir / "manifest.csv"),
            "--out", str(tmp_path / "m.bpmd"),
            "--history", str(history),
            "--config", str(cfg),
            "--set", "epochs=3",
            "--seed", "1",
        )
        assert code == 0
        assert len(history.read_text(encoding="utf-8").strip().splitlines()) == 4

    @pytest.mark.parametrize("command", ["train", "featurize"])
    def test_small_hashed_dim_exits_one_before_reading_books(self, tmp_path, capsys, command):
        # The manifest does not exist: an error about the dimension shows the
        # configuration was rejected before any manifest or book was opened.
        code, _, err = run(
            capsys,
            command,
            "--manifest", str(tmp_path / "missing.csv"),
            "--out", str(tmp_path / "out"),
            "--set", "encoder.dim=4",
        )
        assert code == 1
        assert "encoder.dim >= 8" in err and "missing.csv" not in err

    def test_featurize_zero_jobs_exits_one_before_reading_books(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code, _, err = run(
            capsys,
            "featurize",
            "--manifest", str(tmp_path / "missing.csv"),
            "--out", str(out_dir),
            "--jobs", "0",
        )
        assert code == 1
        assert "--jobs must be >= 1" in err and "missing.csv" not in err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "setting",
        ["model.arch=rnn", "model.n_chunks=3", "model.dropout_p=1.5", "model.hidden_units=0"],
    )
    def test_bad_model_setting_exits_one_before_reading_books(self, tmp_path, capsys, setting):
        code, _, err = run(
            capsys,
            "train",
            "--manifest", str(tmp_path / "missing.csv"),
            "--out", str(tmp_path / "out"),
            "--set", setting,
        )
        assert code == 1
        field_name = setting.partition("=")[0].split(".")[1]
        assert field_name in err and "missing.csv" not in err and "config keys" not in err

    @pytest.mark.parametrize("command", ["featurize", "export-vectors"])
    def test_model_settings_leave_featurizing_commands_unchanged(
        self, corpus_dir, tmp_path, capsys, command
    ):
        # Both runs write to the same place: featurized.csv names its files.
        out = tmp_path / "out"
        outputs = []
        for extra in ([], ["--set", "model.n_chunks=3"]):
            argv = [command, "--manifest", str(corpus_dir / "manifest.csv"), "--out", str(out)]
            argv += ["--jobs", "1"] if command == "featurize" else []
            code, _, err = run(capsys, *argv, "--set", "encoder.dim=16", *extra)
            assert code == 0, err
            files = sorted(out.iterdir()) if out.is_dir() else [out]
            outputs.append({f.name: f.read_bytes() for f in files})
        assert outputs[0] == outputs[1]

    def test_unknown_genre_manifest_exits_one(self, tmp_path, capsys):
        manifest = tmp_path / "m.csv"
        manifest.write_text(
            "book_id,genre,avg_rating,n_ratings,label,text_path\n"
            "b1,Western,4.0,10,,b1.txt\n",
            encoding="utf-8",
        )
        code, _, err = run(
            capsys,
            "train",
            "--manifest", str(manifest),
            "--out", str(tmp_path / "m.bpmd"),
        )
        assert code == 1
        assert "Western" in err

    def test_idempotent_train(self, corpus_dir, tmp_path, capsys):
        argv = lambda out: [
            "train",
            "--manifest", str(corpus_dir / "manifest.csv"),
            "--out", str(out),
            "--seed", "9",
            "--set", "epochs=3",
            "--set", "encoder.dim=64",
            "--set", "model.filters_per_window=4",
        ]
        a = tmp_path / "a.bpmd"
        b = tmp_path / "b.bpmd"
        assert main(argv(a)) == 0
        assert main(argv(b)) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
