import tracemalloc

import numpy as np
import pytest

import text_reference as ref
from bookpred import embedding, net, pipeline, synth, textstats
from bookpred.corpus import SectionSpec, SuccessLabel, load_corpus, select_section
from bookpred.embedding import chunk_average
from bookpred.metrics import weighted_f1
from bookpred.net import ModelConfig
from bookpred.readability import readability_vector
from bookpred.pipeline import (
    EncoderConfig,
    FeaturizationError,
    TrainConfig,
    attribute_readability,
    evaluate,
    export_book_vectors,
    majority_baseline,
    predict_corpus,
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
        report = evaluate(result.params, result.scaler, tiny_corpus, cfg)
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
        report = evaluate(result.final_params, result.scaler, tiny_corpus, cfg)
        assert report.n == len(tiny_corpus)
        assert int(report.confusion.sum()) == report.n
        if report.weighted_f1 == 1.0:
            assert report.confusion[0, 1] == 0 and report.confusion[1, 0] == 0

    def test_per_genre_omits_absent_genres(self, tiny_corpus):
        cfg = fast_cfg(epochs=1)
        result = train(tiny_corpus, cfg)
        present = {r.genre for r in tiny_corpus}
        report = evaluate(result.params, result.scaler, tiny_corpus, cfg)
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
            evaluate(result.params, result.scaler, tiny_corpus, other)


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
        scaled = pipeline._scaled_inputs(raw, result.scaler)
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

        from bookpred.embedding import book_average
        from bookpred.pipeline import _section_matrix

        first = lines[1].split(",")
        record = tiny_corpus.records[0]
        assert first[0] == record.book_id
        assert first[1] == record.genre.value
        expected = book_average(_section_matrix(record, cfg))
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
        segment = pipeline.segment_sentences
        monkeypatch.setattr(
            pipeline, "segment_sentences", lambda text: texts.append(text) or segment(text)
        )
        pipeline.featurize_corpus(tiny_corpus, fast_cfg())
        assert len(texts) == len(tiny_corpus)

    @pytest.mark.parametrize("section", ["first:1000", "last:7", "full"])
    def test_matches_reference_featurization(self, tiny_corpus, section):
        cfg = fast_cfg(section=SectionSpec.parse(section), encoder=EncoderConfig(dim=64, seed=3))
        x, raw = pipeline.featurize_corpus(tiny_corpus, cfg)
        for i, record in enumerate(tiny_corpus):
            text = record.text_path.read_text(encoding="utf-8")
            sentences = select_section(ref.segment_sentences(text), cfg.section)
            matrix = ref.encode_hashed_bow([s.text for s in sentences], dim=64, seed=3)
            assert x[i].tobytes() == chunk_average(matrix, cfg.model.n_chunks).tobytes()
            expected = readability_vector(ref.counts_from_sentences(sentences))
            assert raw[i].as_array().tobytes() == expected.as_array().tobytes()


class TestOneTokenizationPerBook:
    @pytest.mark.parametrize("arch", ["cnn", "book2vec"])
    def test_tokenize_words_once_per_section_sentence(self, tiny_corpus, monkeypatch, arch):
        cfg = fast_cfg(section=SectionSpec.parse("last:17"), model=ModelConfig(arch=arch))
        n_sentences = sum(
            len(pipeline.section_sentences(record, cfg.section)) for record in tiny_corpus
        )
        calls = []
        tokenize = textstats.tokenize_words

        def counting(sentence):
            calls.append(sentence)
            return tokenize(sentence)

        # Patch every module namespace that holds the tokenizer.
        for module in (textstats, embedding):
            if hasattr(module, "tokenize_words"):
                monkeypatch.setattr(module, "tokenize_words", counting)
        pipeline.featurize_corpus(tiny_corpus, cfg, need_readability=True)
        assert len(calls) == n_sentences

    def test_chunk_averages_never_build_the_sentence_matrix(self, tmp_path):
        rng = np.random.default_rng(4)
        words = np.array([f"w{i}" for i in range(3000)], dtype=object)
        n_sentences = 5000
        text = " ".join(
            " ".join(words[rng.integers(len(words), size=int(k))]) + "."
            for k in rng.integers(6, 13, size=n_sentences)
        )
        book = tmp_path / "long.txt"
        book.write_text(text, encoding="utf-8")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(
            "book_id,genre,avg_rating,n_ratings,label,text_path\n"
            f"long,Drama,4.0,10,,{book.name}\n",
            encoding="utf-8",
        )
        (record,) = load_corpus(manifest)
        cfg = TrainConfig(section=SectionSpec.full())
        tracemalloc.start()
        try:
            x, _ = pipeline.featurize_book(record, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert x.shape == (cfg.model.n_chunks, cfg.encoder.dim)
        assert peak < n_sentences * cfg.encoder.dim * 8 / 2


class TestExternalEncoder:
    def test_external_semb_pipeline(self, tmp_path):
        manifest = synth.make_readability_corpus(
            tmp_path, n_books=20, seed=9, embedding_dim=16, sentences_per_book=(20, 30)
        )
        corpus = load_corpus(manifest)
        cfg = fast_cfg(
            encoder=EncoderConfig(kind="external", dim=16, directory=tmp_path / "semb"),
            epochs=2,
        )
        result = train(corpus, cfg)
        report = evaluate(result.params, result.scaler, corpus, cfg)
        assert report.n == 20

    def test_missing_semb_names_book(self, tmp_path):
        manifest = synth.make_readability_corpus(
            tmp_path, n_books=6, seed=9, embedding_dim=16, sentences_per_book=(20, 30)
        )
        corpus = load_corpus(manifest)
        (tmp_path / "semb" / "book0002.semb").unlink()
        cfg = fast_cfg(
            encoder=EncoderConfig(kind="external", dim=16, directory=tmp_path / "semb"),
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
        report = evaluate(result.params, result.scaler, tiny_corpus, cfg)
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
        report = evaluate(result.params, result.scaler, tiny_corpus, cfg)
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
        report_a = evaluate(result.params, result.scaler, tiny_corpus, cfg)
        report_b = evaluate(params, scaler, tiny_corpus, rebuilt)
        assert report_a.n == report_b.n

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
