import csv
import io
import json
import os
import shutil
import struct
import tracemalloc

import numpy as np
import pytest

import text_reference as ref
from bookpred import synth
from bookpred.cli import _READABILITY_HEADER, _counts_row, build_parser, main
from bookpred.corpus import SectionSpec, load_corpus, select_section, split_train_val
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

    @staticmethod
    def _featurize_outputs(capsys, manifest, out_dir, jobs, *settings):
        """The files, stdout and stderr of a featurize run into a fresh ``out_dir``."""
        shutil.rmtree(out_dir, ignore_errors=True)
        code, out, err = run(
            capsys,
            "featurize",
            "--manifest", str(manifest),
            "--out", str(out_dir),
            "--jobs", jobs,
            *settings,
        )
        files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        return code, files, out, err

    def test_process_pool_writes_what_one_process_writes(self, corpus_dir, tmp_path, capsys):
        """Without --jobs, featurize runs in one process; two workers, and
        three, which do not divide the 20 books evenly, write the same bytes,
        and report the same failure, as the in-process path, with the hashed
        encoder and with an external one."""
        assert build_parser().parse_args(
            ["featurize", "--manifest", "m.csv", "--out", "o"]
        ).jobs == 1
        manifest = self._corpus_missing_a_text(corpus_dir, tmp_path)
        hashed = ["--set", "encoder.dim=64"]
        external = ["--set", f"encoder.directory={tmp_path / 'vectors'}"]
        for settings, n_semb in ((hashed, 19), (external, 0)):
            outputs = [
                self._featurize_outputs(capsys, manifest, tmp_path / "feat", jobs, *settings)
                for jobs in ("1", "2", "3")
            ]
            code, files, out, err = outputs[0]
            assert code == 1
            assert len([name for name in files if name.endswith(".semb")]) == n_semb
            assert {"readability.csv", "featurized.csv"} <= set(files)
            assert "book0003" in err
            assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    @pytest.fixture
    def pools(self, monkeypatch):
        """An in-process stand-in for ``ProcessPoolExecutor``, so no process
        starts: each pool made appends ``[max_workers, slice sizes]``."""
        import concurrent.futures

        pools = []

        class InProcessPool:
            def __init__(self, max_workers):
                pools.append([max_workers])

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, slices, *args):
                pools[-1].append([len(books) for books in slices])
                return map(fn, slices, *args)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        return pools

    @pytest.mark.parametrize("jobs", ["7", "25"])
    def test_pool_gets_no_more_workers_than_slices(
        self, corpus_dir, tmp_path, capsys, pools, jobs
    ):
        """--jobs cuts the 20 books into at most that many slices, one book
        each when it exceeds the book count, and the pool is given no more
        workers than slices; the bytes are those of --jobs 1."""
        manifest = corpus_dir / "manifest.csv"
        one = self._featurize_outputs(capsys, manifest, tmp_path / "feat", "1")
        assert pools == []
        many = self._featurize_outputs(capsys, manifest, tmp_path / "feat", jobs)
        assert many == one and one[0] == 0
        [(max_workers, sizes)] = pools
        assert sum(sizes) == 20 and len(sizes) <= min(int(jobs), 20)
        assert max_workers <= len(sizes)

    def test_pool_gets_no_more_workers_than_cpus(
        self, corpus_dir, tmp_path, capsys, pools, monkeypatch
    ):
        """On a 2-CPU host, --jobs 25 still cuts the 20 books into 20 slices,
        so the bytes do not depend on the host, but the pool gets at most 2
        workers; the bytes are those of --jobs 1."""
        manifest = corpus_dir / "manifest.csv"
        one = self._featurize_outputs(capsys, manifest, tmp_path / "feat", "1")
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        many = self._featurize_outputs(capsys, manifest, tmp_path / "feat", "25")
        assert many == one and one[0] == 0
        [(max_workers, sizes)] = pools
        assert sizes == [1] * 20 and 1 <= max_workers <= 2

    def test_default_run_starts_no_pool(self, corpus_dir, tmp_path, capsys, pools):
        """A featurize run without --jobs starts no pool and writes the bytes
        of --jobs 1."""
        out_dir = tmp_path / "feat"
        code, _, _ = run(capsys, "featurize", "--manifest", str(corpus_dir / "manifest.csv"),
                         "--out", str(out_dir))
        assert code == 0 and pools == []
        files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        one = self._featurize_outputs(capsys, corpus_dir / "manifest.csv", out_dir, "1")
        assert one[:2] == (0, files)

    def test_peak_memory_does_not_grow_with_the_book_count(self, tmp_path, capsys):
        """Featurize holds one block of books at a time, not every book: 160
        books, the same 40 texts four times, peak within 10% of the 40."""
        manifest = synth.make_token_corpus(tmp_path / "corpus", n_books=40, seed=5)
        header, *rows = manifest.read_text(encoding="utf-8").splitlines()
        four_times = manifest.with_name("four_times.csv")
        copies = [f"copy{k}_{row}" for k in range(4) for row in rows]
        four_times.write_text("\n".join([header, *copies]) + "\n", encoding="utf-8")
        peaks = []
        for books in (manifest, four_times):
            tracemalloc.start()
            try:
                code, _, err = run(capsys, "featurize", "--manifest", str(books),
                                   "--out", str(tmp_path / "out"), "--jobs", "1")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == 0, err
        assert peaks[1] < 1.1 * peaks[0], peaks

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
            sentences = select_section(ref.segment_sentences(text), SectionSpec("last", 12))
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
            ("n_chunks", 49),  # well typed, but not the model's 50
            ("encoder_kind", None),
            ("encoder_kind", "bogus"),
            ("encoder_dim", "64"),
            ("encoder_seed", 1.5),
            ("extra", "first:1000"),
            ("section", "middle:3"),  # well typed, but no section
            ("encoder_dim", 4),  # well typed, but too narrow for the hashed encoder
            ("encoder_dim", 32),  # well typed, but not the model's input_dim 64
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
        assert str(broken) in err

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

    @pytest.mark.parametrize("command", ["export-vectors", "train"])
    def test_semb_files_of_different_dims_exit_one(self, tmp_path, capsys, command):
        manifest = synth.make_readability_corpus(
            tmp_path, n_books=4, seed=5, embedding_dim=8, sentences_per_book=(5, 8)
        )
        odd = tmp_path / "semb" / "book0002.semb"
        write_embeddings(np.ones((6, 5)), odd)
        code, _, err = run(
            capsys,
            command,
            "--manifest", str(manifest),
            "--out", str(tmp_path / "out"),
            "--semb-dir", str(tmp_path / "semb"),
            # seed 1 puts book0002 second in the training split, not in validation
            *(["--seed", "1", "--set", "epochs=1"] if command == "train" else []),
        )
        assert code == 1
        assert f"book book0002: {odd} has dim 5" in err
        assert "the model expects input_dim=8" in err


class TestExternalEncoderEval:
    @pytest.mark.parametrize("command", ["eval", "attribute"])
    def test_semb_dim_other_than_the_checkpoints_exits_one(self, tmp_path, capsys, command):
        manifest = synth.make_readability_corpus(
            tmp_path, n_books=8, seed=5, embedding_dim=16, sentences_per_book=(5, 8)
        )
        ckpt = tmp_path / "m.bpmd"
        code, _, _ = run(
            capsys, "train", "--manifest", str(manifest), "--out", str(ckpt),
            "--semb-dir", str(tmp_path / "semb"), "--set", "epochs=1",
        )
        assert code == 0
        (tmp_path / "semb8").mkdir()
        for book in sorted((tmp_path / "semb").glob("*.semb")):
            write_embeddings(np.ones((6, 8)), tmp_path / "semb8" / book.name)
        code, _, err = run(
            capsys, command, "--checkpoint", str(ckpt), "--manifest", str(manifest),
            "--semb-dir", str(tmp_path / "semb8"),
        )
        assert code == 1
        assert f"{tmp_path / 'semb8' / 'book0000.semb'} has dim 8" in err
        assert "the model expects input_dim=16" in err

    @pytest.mark.parametrize("command", ["eval", "attribute"])
    def test_missing_semb_dir_names_the_checkpoint_and_the_flag(self, tmp_path, capsys, command):
        manifest = synth.make_readability_corpus(
            tmp_path, n_books=8, seed=5, embedding_dim=8, sentences_per_book=(5, 8)
        )
        ckpt = tmp_path / "m.bpmd"
        code, _, _ = run(
            capsys, "train", "--manifest", str(manifest), "--out", str(ckpt),
            "--semb-dir", str(tmp_path / "semb"), "--set", "epochs=1",
        )
        assert code == 0
        code, _, err = run(capsys, command, "--checkpoint", str(ckpt), "--manifest", str(manifest))
        assert code == 1
        assert err.startswith(f"error: {ckpt}: ") and "--semb-dir" in err

    def test_validation_books_of_another_dim_exit_one(self, tmp_path, capsys):
        manifest = synth.make_readability_corpus(
            tmp_path, n_books=10, seed=5, embedding_dim=16, sentences_per_book=(5, 8)
        )
        _, val_set = split_train_val(load_corpus(manifest), 0.2, 0)
        assert len(val_set) == 2
        for record in val_set:
            write_embeddings(np.ones((6, 8)), tmp_path / "semb" / f"{record.book_id}.semb")
        code, _, err = run(
            capsys, "train", "--manifest", str(manifest), "--out", str(tmp_path / "m.bpmd"),
            "--semb-dir", str(tmp_path / "semb"), "--seed", "0", "--set", "epochs=1",
        )
        assert code == 1
        first = val_set[0].book_id
        assert f"book {first}: {tmp_path / 'semb' / first}.semb has dim 8" in err
        assert "the model expects input_dim=16" in err


class TestMalformedCsv:
    """A CSV the csv module cannot read is an input error naming the file."""

    @staticmethod
    def oversized_field() -> str:
        return "x" * (csv.field_size_limit() + 1)

    def test_oversized_manifest_field_exits_one(self, tmp_path, capsys):
        manifest = tmp_path / "big.csv"
        manifest.write_text(
            "book_id,genre,avg_rating,n_ratings,label,text_path\n"
            f"{self.oversized_field()},Poetry,4.0,10,,b1.txt\n",
            encoding="utf-8",
        )
        code, _, err = run(
            capsys,
            "export-vectors",
            "--manifest", str(manifest),
            "--out", str(tmp_path / "o.csv"),
        )
        assert code == 1
        assert err.startswith("error:") and str(manifest) in err
        assert "field larger than field limit" in err

    def test_oversized_prediction_field_exits_one(self, tmp_path, capsys):
        preds = tmp_path / "p.csv"
        preds.write_text(
            f"book_id,gold,pred\n{self.oversized_field()},Successful,Successful\n",
            encoding="utf-8",
        )
        code, _, err = run(capsys, "mcnemar", str(preds), str(preds))
        assert code == 1
        assert err.startswith("error:") and str(preds) in err
        assert "field larger than field limit" in err

    def test_undecodable_manifest_exits_one_naming_it(self, tmp_path, capsys):
        manifest = tmp_path / "latin1.csv"
        manifest.write_bytes(
            b"book_id,genre,avg_rating,n_ratings,label,text_path\n"
            b"b\xe9,Poetry,4.0,10,,b1.txt\n"
        )
        code, _, err = run(
            capsys,
            "train",
            "--manifest", str(manifest),
            "--out", str(tmp_path / "m.bpmd"),
        )
        assert code == 1
        assert err.startswith("error:") and str(manifest) in err
        assert "can't decode" in err


class TestBadPredictionRow:
    """A prediction row mcnemar cannot use is an input error naming the file and line."""

    @pytest.mark.parametrize(
        "row, reason",
        [
            pytest.param("b2,Successful,Great", "unknown label 'Great'", id="unknown-label"),
            pytest.param("b2,Successful", "wrong number of fields", id="too-few-fields"),
            pytest.param("b2,Successful,Successful,x", "wrong number of fields", id="too-many"),
        ],
    )
    def test_exits_one_naming_file_and_line(self, tmp_path, capsys, row, reason):
        preds = tmp_path / "p.csv"
        preds.write_text(
            f"book_id,gold,pred\nb1,Successful,Successful\n{row}\n", encoding="utf-8"
        )
        code, _, err = run(capsys, "mcnemar", str(preds), str(preds))
        assert code == 1
        assert err == f"error: {preds}: line 3: {reason}\n"


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

    def test_featurize_external_encoder_exits_one_with_error_prefix(self, tmp_path, capsys):
        # An external encoder is accepted: the missing manifest is what stops
        # the command, before its output directory is made.
        out_dir = tmp_path / "out"
        code, _, err = run(
            capsys,
            "featurize",
            "--manifest", str(tmp_path / "missing.csv"),
            "--out", str(out_dir),
            "--set", "encoder.directory=x",
        )
        assert code == 1
        assert err == (
            f"error: [Errno 2] No such file or directory: '{tmp_path / 'missing.csv'}'\n"
        )
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
