"""Acceptance suite: ten numbered criteria, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to watch the lines
appear; the synthetic-corpus criteria (5-8) train real models and take
a few minutes together.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from fd import gradcheck_model, rel_error

from bookpred import net, pipeline, synth
from bookpred.corpus import SuccessLabel, load_corpus, split_train_val
from bookpred.embedding import (
    SembBadMagicError,
    SembTruncatedError,
    chunk_average,
    chunk_sizes,
    load_embeddings,
    write_embeddings,
)
from bookpred.metrics import mcnemar, weighted_f1
from bookpred.net import ModelConfig
from bookpred.pipeline import EncoderConfig, TrainConfig
from bookpred.readability import readability_vector
from bookpred.textstats import TextCounts

S = SuccessLabel.SUCCESSFUL
U = SuccessLabel.UNSUCCESSFUL


def report_line(number: int, ok: bool, elapsed: float, description: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\n[acceptance] criterion {number:2d}: {status} ({elapsed:.1f}s) {description}")


# ----------------------------------------------------------------------
# Shared synthetic corpora and pipeline runs (criteria 5-8)
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def token_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("token_corpus")
    manifest = synth.make_token_corpus(root, n_books=200, seed=11)
    corpus = load_corpus(manifest)
    trainval, test = split_train_val(corpus, 0.25, seed=2024)
    return trainval, test


@pytest.fixture(scope="module")
def readability_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("read_corpus")
    manifest = synth.make_readability_corpus(root, n_books=200, seed=31, embedding_dim=64)
    corpus = load_corpus(manifest)
    trainval, test = split_train_val(corpus, 0.25, seed=404)
    return root, trainval, test


def run_token_pipeline(trainval, test, out_dir: Path) -> dict:
    """Criterion 5 workload: default CNN on the planted-token corpus."""
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = TrainConfig(seed=5, epochs=100)
    started = time.time()
    result = pipeline.train(trainval, cfg)
    report = pipeline.evaluate(result.params, result.scaler, test, cfg)
    elapsed = time.time() - started
    net.save_checkpoint(
        out_dir / "cnn.bpmd", result.params, result.scaler, extra=pipeline.feature_meta(cfg)
    )
    pipeline.write_history_csv(result.history, out_dir / "history.csv")
    (out_dir / "report.csv").write_text(pipeline.eval_report_csv(report), encoding="utf-8")
    majority = pipeline.majority_baseline(trainval)
    majority_f1 = weighted_f1([majority] * len(test), [r.label for r in test])
    return {
        "cfg": cfg,
        "result": result,
        "report": report,
        "majority_f1": majority_f1,
        "elapsed": elapsed,
        "out_dir": out_dir,
    }


def run_readability_pipeline(root, trainval, test, out_dir: Path) -> dict:
    """Criteria 6-7 workload: noise embeddings, label planted on SMOG.

    The readability head sees a single informative input among 85, so it
    needs more optimizer steps than the token task; 200 epochs is still
    well inside the runtime budget.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    encoder = EncoderConfig(kind="external", dim=64, directory=root / "semb")
    runs = {}
    started = time.time()
    for tag, use_readability in (("with", True), ("without", False)):
        cfg = TrainConfig(
            seed=9,
            epochs=200,
            encoder=encoder,
            model=ModelConfig(use_readability=use_readability),
        )
        result = pipeline.train(trainval, cfg)
        report = pipeline.evaluate(result.params, result.scaler, test, cfg)
        net.save_checkpoint(
            out_dir / f"{tag}.bpmd",
            result.params,
            result.scaler,
            extra=pipeline.feature_meta(cfg),
        )
        (out_dir / f"report_{tag}.csv").write_text(
            pipeline.eval_report_csv(report), encoding="utf-8"
        )
        runs[tag] = {"cfg": cfg, "result": result, "report": report}
    attribution = pipeline.attribute_readability(
        runs["with"]["result"].params,
        runs["with"]["result"].scaler,
        test,
        runs["with"]["cfg"],
    )
    (out_dir / "attribution.csv").write_text(
        pipeline.attribution_csv(attribution), encoding="utf-8"
    )
    runs["attribution"] = attribution
    runs["elapsed"] = time.time() - started
    runs["out_dir"] = out_dir
    return runs


@pytest.fixture(scope="module")
def token_run(token_corpus, tmp_path_factory):
    trainval, test = token_corpus
    return run_token_pipeline(trainval, test, tmp_path_factory.mktemp("token_run"))


@pytest.fixture(scope="module")
def readability_run(readability_corpus, tmp_path_factory):
    root, trainval, test = readability_corpus
    return run_readability_pipeline(root, trainval, test, tmp_path_factory.mktemp("read_run"))


# ----------------------------------------------------------------------
# Criteria
# ----------------------------------------------------------------------


def test_criterion_01_readability_exactness():
    started = time.time()
    tol = 1e-9

    def counts(W=0, C=0, S_=0, L=0, P=0):
        return TextCounts(words=W, characters=C, sentences=S_, syllables=L, polysyllables=P)

    from bookpred.readability import ari, cli_index, fkg, fres, smog

    checks = [
        (fres(counts(W=100, S_=10, L=150)), 69.785),
        (fres(counts(W=7, S_=7, L=7)), 121.22),
        (fres(counts(W=100, S_=10, L=200)), 27.485),
        (fkg(counts(W=100, S_=10, L=150)), 6.01),
        (fkg(counts(W=3, S_=3, L=3)), -3.4),
        (fkg(counts(W=100, S_=5, L=170)), 12.27),
        (smog(counts(S_=30, P=30)), 1.0430 * math.sqrt(30.0) + 3.1291),
        (smog(counts(S_=17, P=0)), 3.1291),
        (smog(counts(S_=30, P=10)), 1.0430 * math.sqrt(10.0) + 3.1291),
        (cli_index(counts(W=100, C=450, S_=5)), 9.18),
        (cli_index(counts(W=9, C=9, S_=9)), -39.52),
        (cli_index(counts(W=100, C=500, S_=4)), 12.416),
        (ari(counts(W=100, C=450, S_=10)), 4.765),
        (ari(counts(W=4, C=4, S_=4)), -16.22),
        (ari(counts(W=100, C=600, S_=5)), 16.83),
    ]
    exact_ok = all(abs(got - want) < tol for got, want in checks)

    rng = np.random.default_rng(42)
    invariance_ok = True
    for _ in range(1000):
        W = int(rng.integers(1, 5000))
        S_ = int(rng.integers(1, max(2, W // 3 + 1)))
        L = W + int(rng.integers(0, 3 * W))
        C = W + int(rng.integers(0, 9 * W))
        P = int(rng.integers(0, W + 1))
        a = readability_vector(counts(W=W, C=C, S_=S_, L=L, P=P)).as_array()
        b = readability_vector(
            counts(W=2 * W, C=2 * C, S_=2 * S_, L=2 * L, P=2 * P)
        ).as_array()
        if np.any(np.abs(a - b) >= tol):
            invariance_ok = False
            break

    elapsed = time.time() - started
    ok = exact_ok and invariance_ok and elapsed < 1.0
    report_line(1, ok, elapsed, "five indices exact to 1e-9; count-doubling invariance")
    assert exact_ok, "an index deviates from its hand-substituted value"
    assert invariance_ok, "doubling all counts changed an index"
    assert elapsed < 1.0


def test_criterion_02_gradient_correctness():
    started = time.time()
    rng = np.random.default_rng(7)
    window_pool = [(1,), (2,), (3,), (1, 2), (2, 3), (1, 3), (2, 4), (1, 2, 3)]
    worst = 0.0
    for case in range(20):
        windows = window_pool[rng.integers(len(window_pool))]
        n_chunks = int(rng.integers(max(windows) + 1, 11))
        config = ModelConfig(
            input_dim=int(rng.integers(3, 9)),
            window_sizes=windows,
            filters_per_window=int(rng.integers(2, 4)),
            hidden_units=int(rng.integers(3, 9)),
            dropout_p=0.6 if case % 2 else 0.0,
            n_chunks=n_chunks,
            use_readability=bool(case % 3),
        )
        err = gradcheck_model(config, seed=100 + case, dropout_seed=500 + case)
        worst = max(worst, err)
    elapsed = time.time() - started
    ok = worst < 1e-4 and elapsed < 30.0
    report_line(
        2, ok, elapsed,
        f"analytic vs central-difference gradients, 20 configs (max rel err {worst:.2e})",
    )
    assert worst < 1e-4
    assert elapsed < 30.0


def test_criterion_03_metric_oracle_equivalence():
    started = time.time()
    from test_metrics import oracle_weighted_f1

    rng = np.random.default_rng(99)
    exact = True
    for _ in range(1000):
        n = int(rng.integers(1, 65))
        golds = [S if b else U for b in rng.integers(0, 2, size=n)]
        preds = [S if b else U for b in rng.integers(0, 2, size=n)]
        if weighted_f1(preds, golds) != oracle_weighted_f1(preds, golds):
            exact = False
            break

    golds = [S] * 26
    preds_a = [S] * 15 + [U] * 1 + [S] * 10
    preds_b = [U] * 15 + [S] * 1 + [S] * 10
    result = mcnemar(preds_a, preds_b, golds)
    mcnemar_ok = (
        result.b == 15
        and result.c == 1
        and abs(result.statistic - 10.5625) < 1e-12
        and abs(result.p_value - 0.00115) < 1e-5
    )

    elapsed = time.time() - started
    ok = exact and mcnemar_ok and elapsed < 5.0
    report_line(3, ok, elapsed, "weighted F1 equals brute-force oracle; McNemar worked example")
    assert exact, "weighted_f1 deviated from the brute-force oracle"
    assert mcnemar_ok
    assert elapsed < 5.0


def test_criterion_04_chunking_invariants():
    started = time.time()
    rng = np.random.default_rng(123)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(0, 400))
        k = int(rng.integers(1, 90))
        sizes = chunk_sizes(n, k)
        if sum(sizes) != n or len(sizes) != k:
            ok = False
            break
        nonzero = [s for s in sizes if s > 0]
        if nonzero and max(nonzero) - min(nonzero) > 1:
            ok = False
            break

    m = rng.standard_normal((50, 6))
    identity_ok = np.allclose(chunk_average(m, 50), m)
    short = rng.standard_normal((3, 6))
    padded = chunk_average(short, 10)
    padding_ok = np.allclose(padded[:3], short) and np.all(padded[3:] == 0.0)

    elapsed = time.time() - started
    ok = ok and identity_ok and padding_ok and elapsed < 5.0
    report_line(4, ok, elapsed, "chunk sizes sum and balance; identity; zero padding")
    assert ok
    assert elapsed < 5.0


def test_criterion_05_end_to_end_learning(token_run):
    test_f1 = token_run["report"].weighted_f1
    majority_f1 = token_run["majority_f1"]
    elapsed = token_run["elapsed"]
    ok = test_f1 >= 0.95 and test_f1 > majority_f1 and elapsed < 300.0
    report_line(
        5, ok, elapsed,
        f"planted-token corpus: held-out F1 {test_f1:.3f} vs majority {majority_f1:.3f}",
    )
    assert test_f1 >= 0.95
    assert test_f1 > majority_f1
    assert elapsed < 300.0


def test_criterion_06_readability_fusion_effect(readability_run):
    with_f1 = readability_run["with"]["report"].weighted_f1
    without_f1 = readability_run["without"]["report"].weighted_f1
    elapsed = readability_run["elapsed"]
    ok = with_f1 >= 0.9 and without_f1 <= 0.65 and elapsed < 300.0
    report_line(
        6, ok, elapsed,
        f"readability-only labels: fused F1 {with_f1:.3f}, unfused F1 {without_f1:.3f}",
    )
    assert with_f1 >= 0.9
    assert without_f1 <= 0.65
    assert elapsed < 300.0


def test_criterion_07_attribution_soundness(readability_corpus, readability_run):
    started = time.time()
    root, _, test = readability_corpus
    attribution = readability_run["attribution"]
    gradient = attribution.mean_gradient
    smog_index = 2  # order [FRES, FKG, SMOG, CLI, ARI]
    sign_ok = gradient[smog_index] > 0  # more polysyllables was planted as Successful
    magnitude_ok = np.argmax(np.abs(gradient)) == smog_index

    # per-book gradients against central finite differences
    run = readability_run["with"]
    params = run["result"].params
    cfg = run["cfg"]
    x_all, raw = pipeline.featurize_corpus(test, cfg)
    scaled = pipeline._scaled_inputs(raw, run["result"].scaler)
    fd_ok = True
    eps = 1e-4
    for x, r in list(zip(x_all, scaled))[:5]:
        grad = net.readability_output_gradient(params, x, r)
        for i in range(5):
            up, down = r.copy(), r.copy()
            up[i] += eps
            down[i] -= eps
            hi = net.forward(params, x, up)[0][1]
            lo = net.forward(params, x, down)[0][1]
            numeric = (hi - lo) / (2 * eps)
            if rel_error(numeric, grad[i]) >= 1e-4:
                fd_ok = False
    elapsed = time.time() - started
    ok = sign_ok and magnitude_ok and fd_ok
    report_line(
        7, ok, elapsed,
        "planted index dominates attribution with the right sign; matches finite differences",
    )
    assert sign_ok, f"planted-index gradient has the wrong sign: {gradient}"
    assert magnitude_ok, f"planted index is not the largest: {gradient}"
    assert fd_ok


def test_criterion_08_determinism(token_corpus, readability_corpus, token_run,
                                  readability_run, tmp_path_factory):
    started = time.time()
    trainval, test = token_corpus
    second_token = run_token_pipeline(trainval, test, tmp_path_factory.mktemp("token_rerun"))
    root, r_trainval, r_test = readability_corpus
    second_read = run_readability_pipeline(
        root, r_trainval, r_test, tmp_path_factory.mktemp("read_rerun")
    )

    mismatches = []
    for name in ("cnn.bpmd", "history.csv", "report.csv"):
        a = (token_run["out_dir"] / name).read_bytes()
        b = (second_token["out_dir"] / name).read_bytes()
        if a != b:
            mismatches.append(f"token:{name}")
    for name in (
        "with.bpmd",
        "without.bpmd",
        "report_with.csv",
        "report_without.csv",
        "attribution.csv",
    ):
        a = (readability_run["out_dir"] / name).read_bytes()
        b = (second_read["out_dir"] / name).read_bytes()
        if a != b:
            mismatches.append(f"readability:{name}")

    elapsed = time.time() - started
    ok = not mismatches
    report_line(8, ok, elapsed, "same-seed reruns are byte-identical (checkpoints and reports)")
    assert not mismatches, f"non-identical artifacts: {mismatches}"


def test_criterion_09_overfit_sanity(tmp_path_factory):
    started = time.time()
    root = tmp_path_factory.mktemp("overfit")
    manifest = synth.make_token_corpus(
        root, n_books=16, seed=77, sentences_per_book=(30, 50), marker_rate=0.8
    )
    corpus = load_corpus(manifest)
    cfg = TrainConfig(seed=3, epochs=200)
    result = pipeline.train(corpus, cfg)
    train_side, _ = split_train_val(corpus, cfg.val_fraction, cfg.seed)
    report = pipeline.evaluate(result.final_params, result.scaler, train_side, cfg)
    elapsed = time.time() - started
    ok = report.weighted_f1 == 1.0 and elapsed < 60.0
    report_line(
        9, ok, elapsed, f"16-book corpus memorized (train weighted F1 {report.weighted_f1:.3f})"
    )
    assert report.weighted_f1 == 1.0
    assert elapsed < 60.0


def test_criterion_10_semb_round_trip(tmp_path):
    started = time.time()
    rng = np.random.default_rng(2718)
    round_trip_ok = True
    for i in range(100):
        n = int(rng.integers(1, 40))
        dim = int(rng.integers(1, 80))
        matrix = rng.standard_normal((n, dim)).astype(np.float32)
        path = tmp_path / f"m{i}.semb"
        write_embeddings(matrix, path)
        if not np.array_equal(load_embeddings(path), matrix):
            round_trip_ok = False
            break

    path = tmp_path / "bad.semb"
    write_embeddings(np.ones((4, 8), dtype=np.float32), path)
    raw = path.read_bytes()

    corrupted = bytearray(raw)
    corrupted[:4] = b"XEMB"
    path.write_bytes(bytes(corrupted))
    try:
        load_embeddings(path)
        magic_ok = False
    except SembBadMagicError:
        magic_ok = True
    except Exception:
        magic_ok = False

    path.write_bytes(raw[:-8])
    try:
        load_embeddings(path)
        truncation_ok = False
    except SembTruncatedError:
        truncation_ok = True
    except Exception:
        truncation_ok = False

    elapsed = time.time() - started
    ok = round_trip_ok and magic_ok and truncation_ok
    report_line(10, ok, elapsed, "SEMB round trip bit-identical; distinct corruption errors")
    assert round_trip_ok
    assert magic_ok
    assert truncation_ok
