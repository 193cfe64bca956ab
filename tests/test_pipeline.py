import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import text_reference as ref
from bookpred import embedding, net, pipeline, synth, textstats
from bookpred.corpus import SectionSpec, SuccessLabel, load_corpus, select_section
from bookpred.embedding import book_average, chunk_average, load_embeddings, write_embeddings
from bookpred.metrics import weighted_f1
from bookpred.net import ModelConfig
from bookpred.readability import ReadabilityScaler, apply_scaler, readability_vector
from bookpred.pipeline import (
    EncoderConfig,
    FeaturizationError,
    TrainConfig,
    attribute_readability,
    export_book_vectors,
    majority_baseline,
    predict_corpus,
    report_from_predictions,
    train,
)

S = SuccessLabel.SUCCESSFUL
U = SuccessLabel.UNSUCCESSFUL


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    manifest = synth.make_token_corpus(
        root, n_books=24, seed=101, sentences_per_book=(20, 30), marker_rate=0.8
    )
    return load_corpus(manifest)


@pytest.fixture(scope="module")
def tiny_semb_dir(tiny_corpus, tmp_path_factory):
    """A .semb file per ``tiny_corpus`` book, one random row per sentence."""
    root = tmp_path_factory.mktemp("tiny_semb")
    rng = np.random.default_rng(7)
    for record in tiny_corpus:
        n = len(ref.segment_sentences(record.text_path.read_text(encoding="utf-8")))
        write_embeddings(rng.standard_normal((n, 8)), root / f"{record.book_id}.semb")
    return root


def fast_cfg(**overrides):
    defaults = dict(
        seed=5,
        epochs=3,
        batch_size=8,
        encoder=EncoderConfig(dim=64),
        model=ModelConfig(filters_per_window=4, hidden_units=10),
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


class TestTrain:
    def test_single_epoch_history(self, tiny_corpus):
        cfg = fast_cfg(epochs=1)
        result = train(tiny_corpus, cfg)
        assert len(result.history) == 1
        assert result.best_epoch == 1
        assert result.history[0].epoch == 1

    def test_deterministic_given_seed(self, tiny_corpus):
        cfg = fast_cfg()
        a = train(tiny_corpus, cfg)
        b = train(tiny_corpus, cfg)
        for (_, ta), (_, tb) in zip(a.params.tensors(), b.params.tensors()):
            assert np.array_equal(ta, tb)
        assert a.history == b.history

    def test_seed_changes_trajectory(self, tiny_corpus):
        a = train(tiny_corpus, fast_cfg(seed=5))
        b = train(tiny_corpus, fast_cfg(seed=6))
        assert not np.array_equal(a.params.dense1_w, b.params.dense1_w)

    def test_best_epoch_is_earliest_max(self, tiny_corpus):
        cfg = fast_cfg(epochs=4)
        result = train(tiny_corpus, cfg)
        f1s = [h.val_weighted_f1 for h in result.history]
        assert result.best_epoch == f1s.index(max(f1s)) + 1

    def test_scaler_fit_only_with_readability(self, tiny_corpus):
        with_r = train(tiny_corpus, fast_cfg())
        assert with_r.scaler is not None
        without_r = train(
            tiny_corpus, fast_cfg(model=ModelConfig(use_readability=False))
        )
        assert without_r.scaler is None

    def test_book2vec_path(self, tiny_corpus):
        cfg = fast_cfg(model=ModelConfig(arch="book2vec", hidden_units=12))
        result = train(tiny_corpus, cfg)
        assert result.params.config.arch == "book2vec"
        assert result.scaler is None
        report = report_from_predictions(
            predict_corpus(result.params, result.scaler, tiny_corpus, cfg)
        )
        assert 0.0 <= report.weighted_f1 <= 1.0

    def test_missing_text_names_book(self, tmp_path):
        rows = ["book_id,genre,avg_rating,n_ratings,label,text_path"]
        for i in range(5):
            rows.append(f"ghost{i},Poetry,{2.0 + 0.5 * i},10,,missing{i}.txt")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("\n".join(rows) + "\n", encoding="utf-8")
        corpus = load_corpus(manifest)
        with pytest.raises(FeaturizationError, match="ghost"):
            train(corpus, fast_cfg(epochs=1))


class TestEvaluate:
    def test_perfect_predictor_reports_one(self, tiny_corpus):
        cfg = fast_cfg(epochs=40)
        result = train(tiny_corpus, cfg)
        report = report_from_predictions(
            predict_corpus(result.final_params, result.scaler, tiny_corpus, cfg)
        )
        assert report.n == len(tiny_corpus)
        assert int(report.confusion.sum()) == report.n
        if report.weighted_f1 == 1.0:
            assert report.confusion[0, 1] == 0 and report.confusion[1, 0] == 0

    def test_per_genre_omits_absent_genres(self, tiny_corpus):
        cfg = fast_cfg(epochs=1)
        result = train(tiny_corpus, cfg)
        present = {r.genre for r in tiny_corpus}
        report = report_from_predictions(
            predict_corpus(result.params, result.scaler, tiny_corpus, cfg)
        )
        assert set(report.per_genre_f1) <= present

    def test_predictions_in_corpus_order(self, tiny_corpus):
        cfg = fast_cfg(epochs=1)
        result = train(tiny_corpus, cfg)
        preds = predict_corpus(result.params, result.scaler, tiny_corpus, cfg)
        assert [p.book_id for p in preds] == [r.book_id for r in tiny_corpus]

    def test_featurization_mismatch_rejected(self, tiny_corpus):
        cfg = fast_cfg(epochs=1)
        result = train(tiny_corpus, cfg)
        other = fast_cfg(encoder=EncoderConfig(dim=128))
        with pytest.raises(ValueError, match="input_dim"):
            report_from_predictions(
                predict_corpus(result.params, result.scaler, tiny_corpus, other)
            )


class TestMajorityBaseline:
    def test_modal_label(self, tmp_path):
        rows = ["book_id,genre,avg_rating,n_ratings,label,text_path"]
        for i in range(654):
            rows.append(f"s{i},Poetry,4.0,10,,s{i}.txt")
        for i in range(349):
            rows.append(f"u{i},Poetry,2.0,10,,u{i}.txt")
        manifest = tmp_path / "m.csv"
        manifest.write_text("\n".join(rows) + "\n", encoding="utf-8")
        corpus = load_corpus(manifest)
        assert majority_baseline(corpus) is S
        golds = [r.label for r in corpus]
        f1 = weighted_f1([S] * len(golds), golds)
        assert f1 == pytest.approx(0.5147093421004337)

    def test_tie_goes_to_successful(self, tmp_path):
        manifest = tmp_path / "m.csv"
        manifest.write_text(
            "book_id,genre,avg_rating,n_ratings,label,text_path\n"
            "a,Drama,4.0,10,,a.txt\n"
            "b,Drama,2.0,10,,b.txt\n",
            encoding="utf-8",
        )
        assert majority_baseline(load_corpus(manifest)) is S

    def test_all_unsuccessful(self, tmp_path):
        manifest = tmp_path / "m.csv"
        manifest.write_text(
            "book_id,genre,avg_rating,n_ratings,label,text_path\n"
            "a,Drama,2.0,10,,a.txt\n"
            "b,Drama,2.2,10,,b.txt\n",
            encoding="utf-8",
        )
        assert majority_baseline(load_corpus(manifest)) is U


class TestAttribution:
    def test_requires_readability_model(self, tiny_corpus):
        cfg = fast_cfg(model=ModelConfig(use_readability=False), epochs=1)
        result = train(tiny_corpus, cfg)
        with pytest.raises(ValueError, match="readability"):
            attribute_readability(result.params, result.scaler, tiny_corpus, cfg)

    def test_severed_pathway_gives_zero(self, tiny_corpus):
        cfg = fast_cfg(epochs=1)
        result = train(tiny_corpus, cfg)
        result.params.dense1_w[:, -5:] = 0.0
        report = attribute_readability(result.params, result.scaler, tiny_corpus, cfg)
        assert np.all(report.mean_gradient == 0.0)
        assert report.n_books == len(tiny_corpus)

    def test_gradients_match_finite_differences(self, tiny_corpus):
        cfg = fast_cfg(epochs=2)
        result = train(tiny_corpus, cfg)
        x_all, raw = pipeline.featurize_corpus(tiny_corpus, cfg)
        scaled = apply_scaler(result.scaler, raw)
        eps = 1e-5
        for x, r in list(zip(x_all, scaled))[:4]:
            grad = net.readability_output_gradient(result.params, x, r)
            for i in range(5):
                up, down = r.copy(), r.copy()
                up[i] += eps
                down[i] -= eps
                lo = net.forward(result.params, x, down)[0][1]
                hi = net.forward(result.params, x, up)[0][1]
                numeric = (hi - lo) / (2 * eps)
                assert grad[i] == pytest.approx(numeric, rel=1e-4, abs=1e-9)

    def test_probability_target_scales_logit_gradient(self, tiny_corpus):
        cfg = fast_cfg(epochs=1)
        result = train(tiny_corpus, cfg)
        a = attribute_readability(result.params, result.scaler, tiny_corpus, cfg, target="logit")
        b = attribute_readability(
            result.params, result.scaler, tiny_corpus, cfg, target="probability"
        )
        assert a.target == "logit" and b.target == "probability"
        assert not np.allclose(a.mean_gradient, b.mean_gradient)


class TestExportVectors:
    def test_shape_and_round_trip(self, tiny_corpus, tmp_path):
        cfg = fast_cfg()
        out = tmp_path / "vectors.csv"
        n = export_book_vectors(tiny_corpus, cfg, out)
        lines = out.read_text(encoding="utf-8").strip().splitlines()
        assert n == len(tiny_corpus)
        assert len(lines) == n + 1
        header = lines[0].split(",")
        assert header[:2] == ["book_id", "genre"]
        assert len(header) == 2 + 64

        first = lines[1].split(",")
        record = tiny_corpus[0]
        assert first[0] == record.book_id
        assert first[1] == record.genre.value
        text = record.text_path.read_text(encoding="utf-8")
        sentences = select_section(ref.segment_sentences(text), cfg.section)
        expected = book_average(ref.encode_hashed_bow([s.text for s in sentences], dim=64))
        parsed = np.array([float(v) for v in first[2:]])
        assert np.allclose(parsed, expected, rtol=2e-7, atol=1e-12)

    def test_deterministic(self, tiny_corpus, tmp_path):
        cfg = fast_cfg()
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        export_book_vectors(tiny_corpus, cfg, a)
        export_book_vectors(tiny_corpus, cfg, b)
        assert a.read_bytes() == b.read_bytes()


class TestSinglePassFeaturization:
    def test_one_segmentation_per_book(self, tiny_corpus, monkeypatch):
        texts = []
        split = pipeline.split_sentences
        monkeypatch.setattr(
            pipeline,
            "split_sentences",
            lambda text, first=None: texts.append(text) or split(text, first),
        )
        pipeline.featurize_corpus(tiny_corpus, fast_cfg())
        assert len(texts) == len(tiny_corpus)

    def test_first_k_segments_only_k_sentences(self, tiny_corpus, monkeypatch):
        found = []
        split = pipeline.split_sentences

        def recording(text, first=None):
            found.append(split(text, first))
            return found[-1]

        monkeypatch.setattr(pipeline, "split_sentences", recording)
        tokens = pipeline._read_section(tiny_corpus[0], SectionSpec("first", 3)).tokens()
        assert len(tokens) == len(found[0]) == 3

    @pytest.mark.parametrize(
        "section, encoder, arch",
        [
            pytest.param(s, e, a, id=s if (e, a) == ("hashed", "cnn") else f"{e}-{a}-{s}")
            for e in ("hashed", "semb")
            for a in ("cnn", "book2vec")
            for s in ("first:1000", "last:7", "full")
        ],
    )
    def test_matches_reference_featurization(
        self, tiny_corpus, tiny_semb_dir, section, encoder, arch
    ):
        if encoder == "hashed":
            encoder_cfg = EncoderConfig(dim=64, seed=3)
        else:
            encoder_cfg = EncoderConfig(directory=tiny_semb_dir)
        cfg = fast_cfg(
            section=SectionSpec.parse(section), encoder=encoder_cfg, model=ModelConfig(arch=arch)
        )
        x, raw = pipeline.featurize_corpus(tiny_corpus, cfg)
        for i, record in enumerate(tiny_corpus):
            text = record.text_path.read_text(encoding="utf-8")
            sentences = select_section(ref.segment_sentences(text), cfg.section)
            if encoder == "hashed":
                matrix = ref.encode_hashed_bow([s.text for s in sentences], dim=64, seed=3)
            else:
                semb = load_embeddings(tiny_semb_dir / f"{record.book_id}.semb")
                matrix = np.array(select_section(semb, cfg.section))
            if arch == "book2vec":
                assert x[i].tobytes() == book_average(matrix).tobytes()
                assert raw is None  # a book2vec model fuses no readability
            else:
                assert x[i].tobytes() == chunk_average(matrix, cfg.model.n_chunks).tobytes()
                expected = readability_vector(ref.counts_from_sentences(sentences))
                assert raw[i].tobytes() == expected.tobytes()


class TestOneTokenizationPerBook:
    @pytest.mark.parametrize("arch", ["cnn", "book2vec"])
    def test_section_tokenized_once_per_book(self, tiny_corpus, monkeypatch, arch):
        cfg = fast_cfg(section=SectionSpec.parse("last:17"), model=ModelConfig(arch=arch))
        calls = []
        tokens = textstats.Sentences.tokens

        def counting(sentences):
            calls.append(sentences.spans())
            return tokens(sentences)

        monkeypatch.setattr(textstats.Sentences, "tokens", counting)
        monkeypatch.setattr(textstats, "tokenize_sentences", None)
        monkeypatch.setattr(embedding, "tokenize_sentences", None)
        pipeline.featurize_corpus(tiny_corpus, cfg)
        # One block of all 24 books, which holds each book's section once.
        assert [len(spans) for spans in calls] == [17 * len(tiny_corpus)]
        sections = [
            textstats.split_sentences(record.text_path.read_text(encoding="utf-8"))[-17:]
            for record in tiny_corpus
        ]
        assert calls[0] == [span for section in sections for span in section.spans()]

    def test_external_encoder_counts_without_tokens(self, tiny_corpus, tiny_semb_dir, monkeypatch):
        # An external encoder needs only counts, which come from the bytes:
        # no word is numbered, and the scores are the reference's.
        cfg = fast_cfg(section=SectionSpec.parse("last:17"),
                       encoder=EncoderConfig(directory=tiny_semb_dir))

        def refuse(sentences):
            raise AssertionError("Sentences.tokens called")

        monkeypatch.setattr(textstats.Sentences, "tokens", refuse)
        monkeypatch.setattr(textstats, "tokenize_sentences", None)
        monkeypatch.setattr(embedding, "tokenize_sentences", None)
        _, raw = pipeline.featurize_corpus(tiny_corpus, cfg)
        for i, record in enumerate(tiny_corpus):
            text = record.text_path.read_text(encoding="utf-8")
            sentences = select_section(ref.segment_sentences(text), cfg.section)
            expected = readability_vector(ref.counts_from_sentences(sentences))
            assert raw[i].tobytes() == expected.tobytes()

    N_LONG_SENTENCES = 5000

    @pytest.fixture(scope="class")
    def long_book(self, tmp_path_factory):
        """A manifest of one book of ``N_LONG_SENTENCES`` sentences."""
        root = tmp_path_factory.mktemp("long")
        rng = np.random.default_rng(4)
        words = np.array([f"w{i}" for i in range(3000)], dtype=object)
        text = " ".join(
            " ".join(words[rng.integers(len(words), size=int(k))]) + "."
            for k in rng.integers(6, 13, size=self.N_LONG_SENTENCES)
        )
        (root / "long.txt").write_text(text, encoding="utf-8")
        manifest = root / "manifest.csv"
        manifest.write_text(
            "book_id,genre,avg_rating,n_ratings,label,text_path\n"
            "long,Drama,4.0,10,,long.txt\n",
            encoding="utf-8",
        )
        return load_corpus(manifest)

    def traced_peak(self, run):
        """``run()`` and the peak bytes tracemalloc saw it allocate."""
        tracemalloc.start()
        try:
            result = run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, peak

    def test_chunk_averages_never_build_the_sentence_matrix(self, long_book):
        (record,) = long_book
        cfg = TrainConfig(section=SectionSpec("full"))
        (x, _), peak = self.traced_peak(lambda: pipeline.featurize_book(record, cfg))
        assert x.shape == (cfg.model.n_chunks, cfg.encoder.dim)
        assert peak < self.N_LONG_SENTENCES * cfg.encoder.dim * 8 / 2

    @pytest.mark.parametrize("command", ["book2vec", "export-vectors"])
    def test_book_means_never_build_the_sentence_matrix(self, long_book, tmp_path, command):
        # One chunk of every sentence, under the same bound as the cnn's 50.
        cfg = TrainConfig(section=SectionSpec("full"), model=ModelConfig(arch="book2vec"))
        if command == "book2vec":
            (x, _), peak = self.traced_peak(lambda: pipeline.featurize_book(long_book[0], cfg))
            assert x.shape == (cfg.encoder.dim,)
        else:
            out = tmp_path / "vectors.csv"
            n, peak = self.traced_peak(lambda: export_book_vectors(long_book, cfg, out))
            assert n == 1 and len(out.read_text(encoding="utf-8").splitlines()) == 2
        assert peak < self.N_LONG_SENTENCES * cfg.encoder.dim * 8 / 2


def untrained_model(cfg):
    """Random parameters for ``cfg``'s model at its hashed dim, and an
    identity scaler: enough to run eval and attribution without training."""
    params = net.init_params(replace(cfg.model, input_dim=cfg.encoder.dim), seed=0)
    return params, ReadabilityScaler(mean=np.zeros(5), std=np.ones(5))


class TestEvalInBatches:
    """Eval and attribution featurize one ``batch_size`` block of books at a
    time, so their memory is bounded by the batch, not the test set."""

    @staticmethod
    def repeated_book_corpus(root, n_books):
        (root / "book.txt").write_text(
            " ".join(f"Sentence number {i} reads plainly." for i in range(8)) + "\n",
            encoding="utf-8",
        )
        manifest = root / f"manifest_{n_books}.csv"
        manifest.write_text(
            "book_id,genre,avg_rating,n_ratings,label,text_path\n"
            + "".join(f"b{i},Drama,4.0,10,,book.txt\n" for i in range(n_books)),
            encoding="utf-8",
        )
        return load_corpus(manifest)

    @pytest.mark.parametrize("run", [predict_corpus, attribute_readability])
    def test_peak_memory_does_not_grow_with_the_test_set(self, tmp_path, run):
        cfg = TrainConfig(encoder=EncoderConfig(dim=256))
        params, scaler = untrained_model(cfg)
        peaks = {}
        for n_books in (40, 400):
            corpus = self.repeated_book_corpus(tmp_path, n_books)
            tracemalloc.start()
            try:
                run(params, scaler, corpus, cfg)
                _, peaks[n_books] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peaks[400] < 1.5 * peaks[40]

    @pytest.mark.parametrize("run", [predict_corpus, attribute_readability])
    def test_featurize_corpus_gets_at_most_one_batch(self, tiny_corpus, monkeypatch, run):
        cfg = fast_cfg(batch_size=5)
        params, scaler = untrained_model(cfg)
        sizes = []
        featurize_corpus = pipeline.featurize_corpus

        def counting(corpus, *args, **kwargs):
            sizes.append(len(corpus))
            return featurize_corpus(corpus, *args, **kwargs)

        monkeypatch.setattr(pipeline, "featurize_corpus", counting)
        run(params, scaler, tiny_corpus, cfg)
        assert sizes == [5, 5, 5, 5, 4]

    def test_attribution_of_no_books_is_an_error(self, tiny_corpus, monkeypatch):
        cfg = fast_cfg()
        params, scaler = untrained_model(cfg)
        monkeypatch.setattr(pipeline, "featurize_corpus", None)  # must not be reached
        empty = ()
        with pytest.raises(ValueError, match="attribution needs at least one book"):
            attribute_readability(params, scaler, empty, cfg)


class TestEvalFollowsTheCheckpoint:
    """Eval and attribution featurize with the model's own config, whatever
    ``cfg.model`` says; only the encoder and the scaler are checked."""

    @pytest.mark.parametrize(
        "model", [ModelConfig(n_chunks=20), ModelConfig(arch="book2vec")], ids=["n_chunks", "arch"]
    )
    def test_cfg_model_is_not_read(self, tiny_corpus, model):
        cfg = fast_cfg(batch_size=5)
        params, scaler = untrained_model(cfg)
        same = replace(cfg, model=params.config)
        other = replace(cfg, model=model)
        expected = predict_corpus(params, scaler, tiny_corpus, same)
        assert predict_corpus(params, scaler, tiny_corpus, other) == expected
        expected = attribute_readability(params, scaler, tiny_corpus, same)
        report = attribute_readability(params, scaler, tiny_corpus, other)
        assert np.array_equal(report.mean_gradient, expected.mean_gradient)
        assert report.n_books == expected.n_books

    @pytest.mark.parametrize("run", [predict_corpus, attribute_readability])
    def test_readability_model_needs_a_scaler(self, tiny_corpus, run):
        cfg = fast_cfg()
        params, _ = untrained_model(cfg)
        with pytest.raises(ValueError, match="no scaler was provided"):
            run(params, None, tiny_corpus, cfg)


class TestExternalEncoder:
    def test_external_semb_pipeline(self, tmp_path):
        manifest = synth.make_readability_corpus(
            tmp_path, n_books=20, seed=9, embedding_dim=16, sentences_per_book=(20, 30)
        )
        corpus = load_corpus(manifest)
        cfg = fast_cfg(
            encoder=EncoderConfig(dim=16, directory=tmp_path / "semb"),
            epochs=2,
        )
        result = train(corpus, cfg)
        report = report_from_predictions(predict_corpus(result.params, result.scaler, corpus, cfg))
        assert report.n == 20

    def test_missing_semb_names_book(self, tmp_path):
        manifest = synth.make_readability_corpus(
            tmp_path, n_books=6, seed=9, embedding_dim=16, sentences_per_book=(20, 30)
        )
        corpus = load_corpus(manifest)
        (tmp_path / "semb" / "book0002.semb").unlink()
        cfg = fast_cfg(
            encoder=EncoderConfig(dim=16, directory=tmp_path / "semb"),
            epochs=1,
            val_fraction=0.34,
        )
        with pytest.raises(FeaturizationError, match="book0002"):
            train(corpus, cfg)


class TestReportSerialization:
    def test_history_csv(self, tiny_corpus, tmp_path):
        cfg = fast_cfg(epochs=2)
        result = train(tiny_corpus, cfg)
        path = tmp_path / "history.csv"
        pipeline.write_history_csv(result.history, path)
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_weighted_f1"
        assert len(lines) == 3

    def test_eval_report_csv_and_text(self, tiny_corpus):
        cfg = fast_cfg(epochs=1)
        result = train(tiny_corpus, cfg)
        report = report_from_predictions(
            predict_corpus(result.params, result.scaler, tiny_corpus, cfg)
        )
        csv_text = pipeline.eval_report_csv(report)
        assert csv_text.startswith("metric,value\n")
        assert f"n,{report.n}" in csv_text
        human = pipeline.eval_report_text(report)
        assert "weighted F1" in human

    def test_report_and_history_values_are_plain_numbers(self, tiny_corpus, tmp_path):
        cfg = fast_cfg(epochs=2)
        result = train(tiny_corpus, cfg)
        path = tmp_path / "history.csv"
        pipeline.write_history_csv(result.history, path)
        history_rows = path.read_text(encoding="utf-8").strip().splitlines()[1:]
        report = report_from_predictions(
            predict_corpus(result.params, result.scaler, tiny_corpus, cfg)
        )
        report_rows = pipeline.eval_report_csv(report).strip().splitlines()[1:]
        values = [v for row in history_rows for v in row.split(",")]
        values += [row.split(",")[1] for row in report_rows]
        for value in values:
            float(value)

    def test_attribution_csv_lists_indices_in_order(self, tiny_corpus):
        cfg = fast_cfg(epochs=1)
        result = train(tiny_corpus, cfg)
        report = attribute_readability(result.params, result.scaler, tiny_corpus, cfg)
        text = pipeline.attribution_csv(report)
        lines = text.strip().splitlines()
        assert [l.split(",")[0] for l in lines[1:]] == [
            "fres",
            "fkg",
            "smog",
            "cli",
            "ari",
            "n_books",
        ]

    def test_checkpoint_meta_round_trip(self, tiny_corpus, tmp_path):
        cfg = fast_cfg(epochs=1)
        result = train(tiny_corpus, cfg)
        path = tmp_path / "m.bpmd"
        net.save_checkpoint(path, result.params, result.scaler, extra=pipeline.feature_meta(cfg))
        params, scaler, meta = net.load_checkpoint(path)
        rebuilt = pipeline.config_from_feature_meta(meta, params.config)
        assert rebuilt.section == cfg.section
        assert rebuilt.model.n_chunks == cfg.model.n_chunks
        assert rebuilt.encoder.kind == cfg.encoder.kind
        assert rebuilt.encoder.dim == cfg.encoder.dim
        report_a = report_from_predictions(
            predict_corpus(result.params, result.scaler, tiny_corpus, cfg)
        )
        report_b = report_from_predictions(predict_corpus(params, scaler, tiny_corpus, rebuilt))
        assert report_a.n == report_b.n

    def test_encoder_kind_decides_whether_semb_dir_is_used(self):
        model = ModelConfig(input_dim=512)
        meta = pipeline.feature_meta(TrainConfig())
        rebuilt = pipeline.config_from_feature_meta(meta, model, semb_dir=Path("vecs"))
        assert (rebuilt.encoder.kind, rebuilt.encoder.directory) == ("hashed", None)
        meta = pipeline.feature_meta(TrainConfig(encoder=EncoderConfig(directory=Path("a"))))
        assert meta["encoder_kind"] == "external"
        rebuilt = pipeline.config_from_feature_meta(meta, model, semb_dir=Path("vecs"))
        assert (rebuilt.encoder.kind, rebuilt.encoder.directory) == ("external", Path("vecs"))
        with pytest.raises(ValueError, match="directory of .semb files"):
            pipeline.config_from_feature_meta(meta, model)

    @pytest.mark.parametrize("arch", ["cnn", "book2vec"])
    def test_trained_and_reloaded_models_predict_identically(self, tiny_corpus, tmp_path, arch):
        cfg = fast_cfg(epochs=2, model=ModelConfig(arch=arch, filters_per_window=4, hidden_units=10))
        result = train(tiny_corpus, cfg)
        for trained in (result.params, result.final_params):
            path = tmp_path / "m.bpmd"
            net.save_checkpoint(path, trained, result.scaler, extra=pipeline.feature_meta(cfg))
            params, scaler, meta = net.load_checkpoint(path)
            for (_, a), (_, b) in zip(trained.tensors(), params.tensors()):
                assert a.tobytes() == b.tobytes()
            rebuilt = pipeline.config_from_feature_meta(meta, params.config)
            in_memory = predict_corpus(trained, result.scaler, tiny_corpus, cfg)
            reloaded = predict_corpus(params, scaler, tiny_corpus, rebuilt)
            assert [(p.pred, p.p_successful) for p in in_memory] == [
                (p.pred, p.p_successful) for p in reloaded
            ]
