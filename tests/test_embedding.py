import csv
import io
import os
import re
import stat
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import text_reference as ref
from bookpred import net
from bookpred.embedding import (
    _chunk_means,
    _hash_vocab,
    SembBadMagicError,
    SembNonFiniteError,
    SembTruncatedError,
    SembVersionError,
    book_average,
    chunk_average,
    chunk_sizes,
    csv_lines,
    encode_hashed_bow,
    load_embeddings,
    write_embeddings,
)
from bookpred.textstats import tokenize_sentences


class TestHashedBow:
    def test_identical_sentences_identical_rows(self):
        m = encode_hashed_bow(["the same words here", "the same words here"], dim=64)
        assert np.array_equal(m[0], m[1])

    def test_single_token_is_signed_one_hot(self):
        m = encode_hashed_bow(["zephyr"], dim=64)
        nonzero = np.nonzero(m[0])[0]
        assert len(nonzero) == 1
        assert m[0][nonzero[0]] in (-1.0, 1.0)
        assert np.linalg.norm(m[0]) == pytest.approx(1.0)

    def test_token_order_invariance(self):
        a = encode_hashed_bow(["alpha beta gamma"], dim=128)
        b = encode_hashed_bow(["gamma alpha beta"], dim=128)
        assert np.array_equal(a, b)

    def test_case_folding(self):
        a = encode_hashed_bow(["Hello World"], dim=64)
        b = encode_hashed_bow(["hello world"], dim=64)
        assert np.array_equal(a, b)

    def test_seed_changes_encoding(self):
        a = encode_hashed_bow(["alpha beta gamma"], dim=64, seed=0)
        b = encode_hashed_bow(["alpha beta gamma"], dim=64, seed=1)
        assert not np.array_equal(a, b)

    def test_deterministic_across_calls(self):
        a = encode_hashed_bow(["some words", "other words"], dim=256, seed=9)
        b = encode_hashed_bow(["some words", "other words"], dim=256, seed=9)
        assert np.array_equal(a, b)

    def test_empty_sentence_stays_zero(self):
        m = encode_hashed_bow(["..."], dim=64)
        assert np.all(m[0] == 0.0)

    def test_rows_unit_norm_or_zero(self):
        m = encode_hashed_bow(["one two three", "", "four"], dim=64)
        norms = np.linalg.norm(m, axis=1)
        for n in norms:
            assert n == pytest.approx(1.0) or n == 0.0

    def test_dim_lower_bound(self):
        with pytest.raises(ValueError):
            encode_hashed_bow(["x"], dim=4)

    def test_out_not_c_contiguous_rejected(self):
        out = np.zeros((2, 8, 3)).transpose(0, 2, 1)  # (2, 3, 8), not C-contiguous
        with pytest.raises(ValueError, match="C-contiguous"):
            encode_hashed_bow(["a b", "c", "d e"], dim=8, n_chunks=3, books=[2, 1], out=out)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_out_without_n_chunks_receives_the_matrix(self, dtype):
        # An ``out`` left as it was while the caller reads it was a bug: the
        # un-chunked matrix goes into it, zeros too, and it is returned.
        sentences = ["a b a", "", "c d e f g h i j k"]
        out = np.full((3, 8), 7.0, dtype)
        assert encode_hashed_bow(sentences, dim=8, out=out) is out
        assert out.tobytes() == encode_hashed_bow(sentences, dim=8).astype(dtype).tobytes()
        for bad in (np.zeros((3, 9)), np.zeros((8, 3)).T):
            with pytest.raises(ValueError, match="C-contiguous"):
                encode_hashed_bow(sentences, dim=8, out=bad)

    @pytest.mark.parametrize("books", [[1, 1], [2, 2], [4, -1]])
    def test_books_must_add_up_to_the_sentences(self, books):
        tokens = tokenize_sentences(["a b", "c", "d e"])
        message = f"books hold {sum(books)} sentences {books}, the tokens 3"
        with pytest.raises(ValueError, match=re.escape(message)):
            encode_hashed_bow(tokens, dim=8, n_chunks=2, books=books)

    def test_disjoint_vocab_cosine_expectation_near_zero(self):
        # over random hash seeds, cosine of disjoint-token sentences
        # should average out to about zero
        rng = np.random.default_rng(123)
        sims = []
        for seed in range(1000):
            n_a = rng.integers(3, 9)
            n_b = rng.integers(3, 9)
            sent_a = " ".join(f"left{rng.integers(1_000_000)}x" for _ in range(n_a))
            sent_b = " ".join(f"right{rng.integers(1_000_000)}y" for _ in range(n_b))
            m = encode_hashed_bow([sent_a, sent_b], dim=256, seed=seed)
            sims.append(float(m[0] @ m[1]))
        assert abs(np.mean(sims)) < 0.05


class TestSembRoundTrip:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((10, 16)).astype(np.float32)
        path = tmp_path / "m.semb"
        write_embeddings(m, path)
        loaded = load_embeddings(path)
        assert loaded.dtype == np.float32
        assert np.array_equal(loaded, m)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.semb"
        write_embeddings(np.zeros((2, 8), dtype=np.float32), path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XEMB"
        path.write_bytes(bytes(raw))
        with pytest.raises(SembBadMagicError):
            load_embeddings(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "m.semb"
        write_embeddings(np.zeros((2, 8), dtype=np.float32), path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(SembVersionError):
            load_embeddings(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "m.semb"
        write_embeddings(np.ones((10, 8), dtype=np.float32), path)
        raw = path.read_bytes()
        path.write_bytes(raw[: 16 + 4 * 9 * 8])  # drop the last row
        with pytest.raises(SembTruncatedError):
            load_embeddings(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        path = tmp_path / "m.semb"
        write_embeddings(np.ones((2, 8), dtype=np.float32), path)
        path.write_bytes(path.read_bytes() + b"\x00\x00\x00\x00")
        with pytest.raises(SembTruncatedError):
            load_embeddings(path)

    def test_nan_values_rejected_on_load(self, tmp_path):
        path = tmp_path / "m.semb"
        write_embeddings(np.ones((1, 8), dtype=np.float32), path)
        raw = bytearray(path.read_bytes())
        raw[16:20] = np.array([np.nan], dtype="<f4").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(SembNonFiniteError):
            load_embeddings(path)

    def test_nan_values_rejected_on_write(self, tmp_path):
        bad = np.full((2, 8), np.nan, dtype=np.float32)
        with pytest.raises(SembNonFiniteError):
            write_embeddings(bad, tmp_path / "m.semb")

    def test_write_is_atomic_no_temp_left_behind(self, tmp_path):
        write_embeddings(np.zeros((3, 8), dtype=np.float32), tmp_path / "m.semb")
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    def test_write_gives_the_mode_open_gives(self, tmp_path):
        # The umask sets an atomically written file's mode, as it does a plain file's.
        (tmp_path / "plain").write_bytes(b"")
        write_embeddings(np.zeros((3, 8), dtype=np.float32), tmp_path / "m.semb")
        assert (tmp_path / "m.semb").stat().st_mode == (tmp_path / "plain").stat().st_mode

    def test_rewrite_keeps_the_mode_of_the_file_it_replaces(self, tmp_path):
        # As open(path, "w") keeps it; the rename would otherwise give the umask's mode.
        path = tmp_path / "m.semb"
        path.write_bytes(b"old bytes")
        os.chmod(path, 0o640)
        write_embeddings(np.zeros((3, 8), dtype=np.float32), path)
        assert stat.S_IMODE(path.stat().st_mode) == 0o640
        assert len(load_embeddings(path)) == 3


def _save_small_checkpoint(path):
    config = net.ModelConfig(
        input_dim=8, window_sizes=(2,), filters_per_window=2, hidden_units=3, n_chunks=4
    )
    net.save_checkpoint(path, net.init_params(config, seed=0))


@pytest.mark.parametrize(
    "name, write",
    [("m.semb", lambda path: write_embeddings(np.ones((2, 8)), path)),
     ("m.bpmd", _save_small_checkpoint)],
    ids=["semb", "bpmd"],
)
def test_failed_write_keeps_the_old_file_and_leaves_no_temp(tmp_path, monkeypatch, name, write):
    target = tmp_path / name
    target.write_bytes(b"old bytes")

    def fail(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="rename failed"):
        write(target)
    assert [p.name for p in tmp_path.iterdir()] == [name]
    assert target.read_bytes() == b"old bytes"


def test_csv_lines_are_the_lines_csv_writer_writes():
    rows = [["a,b", 'say "hi"', "two\nlines", 1, 2.5, "Zoë"], [], ["", None]]
    expected = io.StringIO()
    csv.writer(expected).writerows([["h1", "h2"], *rows])
    lines = list(csv_lines(["h1", "h2"], iter(rows)))
    assert len(lines) == 4 and all(line.endswith(b"\r\n") for line in lines)
    assert b"".join(lines) == expected.getvalue().encode("utf-8")


class TestChunkAverage:
    def test_even_division(self):
        m = np.arange(100 * 4, dtype=float).reshape(100, 4)
        chunks = chunk_average(m, 50)
        assert chunks.shape == (50, 4)
        assert np.allclose(chunks[0], m[:2].mean(axis=0))
        assert np.allclose(chunks[-1], m[-2:].mean(axis=0))

    def test_balanced_remainder(self):
        assert chunk_sizes(7, 3) == [3, 2, 2]
        m = np.arange(7 * 2, dtype=float).reshape(7, 2)
        chunks = chunk_average(m, 3)
        assert np.allclose(chunks[0], m[:3].mean(axis=0))
        assert np.allclose(chunks[1], m[3:5].mean(axis=0))
        assert np.allclose(chunks[2], m[5:7].mean(axis=0))

    def test_identity_when_counts_match(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((50, 8))
        assert np.allclose(chunk_average(m, 50), m)

    def test_padding_with_zero_rows(self):
        m = np.ones((3, 4))
        chunks = chunk_average(m, 10)
        assert np.allclose(chunks[:3], 1.0)
        assert np.all(chunks[3:] == 0.0)

    def test_size_invariants_random(self):
        rng = np.random.default_rng(77)
        for _ in range(300):
            n = int(rng.integers(1, 300))
            k = int(rng.integers(1, 80))
            sizes = chunk_sizes(n, k)
            assert sum(sizes) == n
            assert len(sizes) == k
            nonzero = [s for s in sizes if s > 0]
            assert max(nonzero) - min(nonzero) <= 1

    def test_global_mean_preserved_with_equal_chunks(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((60, 6))
        chunks = chunk_average(m, 12)  # 5 sentences per chunk, all equal
        assert np.allclose(chunks.mean(axis=0), m.mean(axis=0))


def _per_chunk_means(rows, sizes):
    """The per-chunk loop ``_chunk_means`` replaced: one mean per chunk."""
    out = np.zeros((len(sizes), rows.shape[1]))
    start = 0
    for i, size in enumerate(sizes):
        if size > 0:
            out[i] = rows[start : start + size].mean(axis=0)
            start += size
    return out


class TestChunkMeans:
    """The reshaped reductions add the same rows in the same order as one
    mean per chunk, so the results must agree bit for bit."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        st.integers(0, 3000) | st.integers(0, 130),
        st.integers(1, 60),
        st.integers(1, 40),
        st.sampled_from((np.float32, np.float64)),
        st.integers(-12, 12),
        st.integers(0, 2**32 - 1),
    )
    @example(0, 1, 3, np.float64, 0, 0)
    @example(7, 60, 2, np.float32, 0, 1)
    @example(2999, 60, 1, np.float64, 9, 2)
    def test_matches_per_chunk_means(self, n, k, dim, dtype, exponent, seed):
        rng = np.random.default_rng(seed)
        rows = (rng.standard_normal((n, dim)) * 10.0**exponent).astype(dtype)
        sizes = chunk_sizes(n, k)
        expected = _per_chunk_means(rows, sizes)
        actual = _chunk_means(rows, sizes)
        assert actual.dtype == np.float64 and actual.shape == (k, dim)
        assert actual.tobytes() == expected.tobytes()
        as_float = rows.astype(float)
        assert chunk_average(rows, k).tobytes() == _per_chunk_means(as_float, sizes).tobytes()


class TestHashVocab:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        st.lists(st.text(max_size=20), max_size=30),
        st.integers(-(2**80), 2**80) | st.sampled_from((0, 1, -1, 2**64 - 1, 2**64)),
    )
    @example([], 0)
    @example(["", "a", "A", "Straße", "İstanbul", "日本語", "rock’n’roll", "\U0001f600"], -7)
    def test_matches_per_token_hash(self, vocab, seed):
        hashes = _hash_vocab(vocab, seed)
        assert hashes.dtype == np.uint64 and hashes.shape == (len(vocab),)
        assert hashes.tolist() == [ref._hash64(token.lower(), seed) for token in vocab]


    def test_memory_grows_with_the_bytes_not_the_longest_token(self):
        vocab = [f"word{i}" for i in range(2000)] + ["x" * 4000, "é" * 1000]
        tracemalloc.start()
        try:
            hashes = _hash_vocab(vocab, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000  # a (V, longest) byte matrix would take 64 MB
        assert hashes.tolist() == [ref._hash64(token.lower(), 3) for token in vocab]


class TestBookAverage:
    def test_single_row(self):
        m = np.array([[1.0, 2.0, 3.0]])
        assert np.array_equal(book_average(m), m[0])

    def test_opposite_rows_cancel(self):
        v = np.array([1.0, -2.0, 0.5])
        assert np.allclose(book_average(np.stack([v, -v])), 0.0)

    def test_matches_mean_of_equal_chunks(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((40, 5))
        chunks = chunk_average(m, 8)
        assert np.allclose(book_average(m), chunks.mean(axis=0))

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            book_average(np.zeros((0, 5)))
