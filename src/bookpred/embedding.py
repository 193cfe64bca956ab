"""Sentence embeddings: hashed bag-of-words encoding, the SEMB binary
file format for externally computed vectors, and chunk averaging.

The hashed encoder reads a ``textstats.Tokens`` (the sentences
tokenized once, each word an id in a first-sight vocabulary), hashes
the whole vocabulary at once with one array FNV step per UTF-8 byte
column, and adds the signed one-hot entries of a run of sentences into
its rows with a single scatter. Asked for chunk averages, it encodes a
block of whole chunks at a time, so the full sentence matrix of a long
book is never built. For the tokens of several books it hashes their
shared vocabulary once and writes each book's chunk averages.

Chunk means are taken with reshaped reductions, not one ``mean`` per
chunk: balanced chunk sizes take at most two values, larger first, so
each run of equal sizes is one ``(count, size, dim)`` view averaged
over its middle axis. That adds the same rows in the same order as a
per-chunk mean, so the bits do not change.

SEMB layout (little-endian):

    bytes 0..3   magic ``SEMB``
    bytes 4..7   format version, u32 (currently 1)
    bytes 8..11  n_sentences, u32
    bytes 12..15 dim, u32
    then n_sentences * dim IEEE-754 float32 values, row-major

Files are written by ``write_atomically`` (a temp file in the same
directory, then a rename), so readers never see a half-written matrix.
"""

from __future__ import annotations

import itertools
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

from .textstats import Tokens, tokenize_sentences

__all__ = [
    "SembError",
    "SembBadMagicError",
    "SembVersionError",
    "SembTruncatedError",
    "SembNonFiniteError",
    "encode_hashed_bow",
    "write_atomically",
    "write_embeddings",
    "load_embeddings",
    "chunk_average",
    "chunk_sizes",
    "book_average",
]

SEMB_MAGIC = b"SEMB"
SEMB_VERSION = 1
_HEADER = struct.Struct("<4sIII")

_MASK64 = (1 << 64) - 1
_FNV_OFFSET = 14695981039346656037
_FNV_PRIME = 1099511628211

# Most sentence rows the chunked encoder holds at once (4 MB at dim 512);
# a chunk with more rows than this is encoded as a block of its own.
_BLOCK_ROWS = 1024


class SembError(Exception):
    """Base class for SEMB file problems."""


class SembBadMagicError(SembError):
    pass


class SembVersionError(SembError):
    pass


class SembTruncatedError(SembError):
    pass


class SembNonFiniteError(SembError):
    pass


def _hash64(token: str, seed: int) -> int:
    """Seeded FNV-1a over the token's UTF-8 bytes. Stable across runs
    and processes (unlike builtin hash)."""
    h = (_FNV_OFFSET ^ (seed * 0x9E3779B97F4A7C15)) & _MASK64
    for byte in token.encode("utf-8"):
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


def _hash_vocab(vocab: list[str], seed: int) -> np.ndarray:
    """``_hash64(token.lower(), seed)`` of every token, as a uint64 array.

    The UTF-8 bytes of the tokens fill a zero-padded (V, max_len) matrix,
    and one FNV step per byte column updates the hashes of the tokens
    that are still that long; uint64 array products wrap silently."""
    encoded = [token.lower().encode("utf-8") for token in vocab]
    lengths = np.fromiter(map(len, encoded), dtype=np.intp, count=len(encoded))
    width = int(lengths.max()) if len(encoded) else 0
    live = np.arange(width) < lengths[:, None]
    columns = np.zeros((len(encoded), width), dtype=np.uint64)
    columns[live] = np.frombuffer(b"".join(encoded), dtype=np.uint8)
    start = (_FNV_OFFSET ^ (seed * 0x9E3779B97F4A7C15)) & _MASK64
    h = np.full(len(encoded), start, dtype=np.uint64)
    prime = np.uint64(_FNV_PRIME)
    for j in range(width):
        np.copyto(h, (h ^ columns[:, j]) * prime, where=live[:, j])
    return h


def _encode_rows(
    ids: np.ndarray, lengths: np.ndarray, buckets: np.ndarray, signs: np.ndarray, dim: int
) -> np.ndarray:
    """L2-normalized hashed rows of consecutive sentences: ``lengths``
    words each, whose vocab ids are ``ids`` in reading order."""
    n = len(lengths)
    flat = np.repeat(np.arange(n, dtype=np.intp) * dim, lengths)
    flat += buckets[ids]
    out = np.zeros((n, dim))
    np.add.at(out.reshape(-1), flat, signs[ids])
    norms = np.sqrt(np.einsum("ij,ij->i", out, out))
    norms[norms == 0.0] = 1.0
    out /= norms[:, None]
    return out


def _chunk_blocks(sizes: list[int]):
    """(first, stop) ranges of consecutive whole chunks holding at most
    ``_BLOCK_ROWS`` rows together; a larger chunk is a range of its own."""
    first = rows = 0
    for i, size in enumerate(sizes):
        if rows and rows + size > _BLOCK_ROWS:
            yield first, i
            first, rows = i, 0
        rows += size
    yield first, len(sizes)


def _chunk_means(rows: np.ndarray, sizes: list[int]) -> np.ndarray:
    """(len(sizes), dim) float64 means of consecutive chunks of ``rows``
    of the given sizes; a chunk of size 0 is a zero row. Each run of
    equal sizes is averaged by one reduction over a reshaped view."""
    dim = rows.shape[1]
    out = np.zeros((len(sizes), dim))
    chunk = row = 0
    for size, run in itertools.groupby(sizes):
        count = len(list(run))
        if size:
            stop = row + count * size
            out[chunk : chunk + count] = rows[row:stop].reshape(count, size, dim).mean(axis=1)
            row = stop
        chunk += count
    return out


def encode_hashed_bow(
    sentences: list[str] | Tokens,
    dim: int,
    seed: int = 0,
    n_chunks: int | None = None,
    books: list[int] | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Signed feature-hashing bag-of-words encoder.

    Each lowercased token hashes to a bucket in ``[0, dim)`` and a sign
    in {-1, +1}; a sentence vector is the sum of its signed one-hot
    token vectors, L2-normalized (an all-zero vector stays zero).
    Deterministic for a fixed seed. ``sentences`` is a list of sentence
    texts or their ``Tokens``. Returns an (n_sentences, dim) array, or
    with ``n_chunks`` exactly ``chunk_average`` of that array; with
    ``books`` too, the sentence counts of consecutive books, each book's
    in a (len(books), n_chunks, dim) array (the C-contiguous ``out``).

    Rows hold small integers until the division, so the order in which
    the single ``np.add.at`` scatter adds the signs cannot change them.
    The chunked path encodes whole chunks, of one or more books, a block
    at a time and averages the block's chunks with the helper
    ``chunk_average`` uses, which sums the same rows in the same order.
    """
    if dim < 8:
        raise ValueError(f"hashed bag-of-words needs dim >= 8, got {dim}")
    tokens = sentences if isinstance(sentences, Tokens) else tokenize_sentences(sentences)
    hashes = _hash_vocab(tokens.vocab, seed)
    buckets = ((hashes >> 1) % dim).astype(np.intp)
    signs = np.where(hashes & 1, -1.0, 1.0)
    if n_chunks is None:
        return _encode_rows(tokens.ids, tokens.lengths, buckets, signs, dim)

    counts = [len(tokens)] if books is None else books
    sizes = [size for n in counts for size in chunk_sizes(n, n_chunks)]
    row_starts = np.concatenate(([0], np.cumsum(sizes)))
    word_starts = np.concatenate(([0], np.cumsum(tokens.lengths)))
    out = np.zeros((len(counts), n_chunks, dim)) if out is None else out
    chunks = out.reshape(len(sizes), dim)  # a view of ``out``
    for first, stop in _chunk_blocks(sizes):
        r0, r1 = row_starts[first], row_starts[stop]
        block = _encode_rows(
            tokens.ids[word_starts[r0] : word_starts[r1]],
            tokens.lengths[r0:r1],
            buckets,
            signs,
            dim,
        )
        chunks[first:stop] = _chunk_means(block, sizes[first:stop])
        del block  # free it before the next block is encoded
    return out[0] if books is None else out


def write_atomically(path: str | Path, parts: list[bytes]) -> None:
    """Write the byte strings ``parts`` to a temp file in ``path``'s
    directory and rename it to ``path``, so readers see the old file or the
    whole new one; on any exception the temp file is removed."""
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=path.suffix + ".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(parts)
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def write_embeddings(matrix: np.ndarray, path: str | Path) -> None:
    """Write a sentence-embedding matrix as a SEMB file (atomically)."""
    arr = np.ascontiguousarray(matrix, dtype=np.float32)
    if arr.ndim != 2:
        raise ValueError(f"embedding matrix must be 2-D, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise SembNonFiniteError("refusing to write non-finite embedding values")
    write_atomically(path, [_HEADER.pack(SEMB_MAGIC, SEMB_VERSION, *arr.shape), arr.tobytes()])


def load_embeddings(path: str | Path) -> np.ndarray:
    """Load a SEMB file back into an (n_sentences, dim) float32 array.

    Raises distinct errors for a bad magic, an unsupported version, a
    payload shorter or longer than the declared shape, and non-finite
    values.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise SembTruncatedError(f"{path}: file shorter than the 16-byte header")
    magic, version, n, dim = _HEADER.unpack_from(raw)
    if magic != SEMB_MAGIC:
        raise SembBadMagicError(f"{path}: bad magic {magic!r}")
    if version != SEMB_VERSION:
        raise SembVersionError(f"{path}: unsupported version {version}")
    expected = _HEADER.size + 4 * n * dim
    if len(raw) != expected:
        raise SembTruncatedError(
            f"{path}: declared {n}x{dim} needs {expected} bytes, file has {len(raw)}"
        )
    values = np.frombuffer(raw, dtype="<f4", offset=_HEADER.size).reshape(n, dim)
    if not np.isfinite(values).all():
        raise SembNonFiniteError(f"{path}: matrix contains NaN or Inf")
    return values.copy()


def chunk_sizes(n_sentences: int, n_chunks: int) -> list[int]:
    """Balanced contiguous partition sizes: the first ``n mod k`` chunks
    get one extra sentence. Sizes may be zero when n < k."""
    if n_chunks < 1:
        raise ValueError(f"n_chunks must be >= 1, got {n_chunks}")
    base, extra = divmod(n_sentences, n_chunks)
    return [base + 1 if i < extra else base for i in range(n_chunks)]


def chunk_average(matrix: np.ndarray, n_chunks: int) -> np.ndarray:
    """Average sentence rows within balanced contiguous chunks.

    Returns an (n_chunks, dim) array; when there are fewer sentences
    than chunks the trailing chunks are zero rows (padding).
    """
    matrix = np.asarray(matrix, dtype=float)
    n, _ = matrix.shape
    return _chunk_means(matrix, chunk_sizes(n, n_chunks))


def book_average(matrix: np.ndarray) -> np.ndarray:
    """Mean over all sentence rows (the whole-book vector)."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape[0] == 0:
        raise ValueError("book_average needs at least one sentence row")
    return matrix.mean(axis=0)
